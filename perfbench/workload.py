"""Seeded workload generator for the pipeline benchmark.

Each workload is a set of JSON-lines judgment files (train, valid, test)
plus a text embedding table. Tokens are drawn from a Zipf distribution
over a fixed vocabulary; a slice of that vocabulary is left out of the
table so sentence composition meets out-of-vocabulary tokens. Every
tuple carries a METEOR-style external score per hypothesis, and belongs
to one of four language-pair splits.

Run as a script to write one workload's files:

    python3 perfbench/workload.py --workload shared-ref --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

SPLITS = ("cs-en", "de-en", "fr-en", "ru-en")
ZIPF_EXPONENT = 1.1
# The most frequent ranks always have vectors; the OOV slice is drawn
# from the rest, so the OOV rate stays a few percent, as in real tables.
OOV_SHARE = 0.05
OOV_PROTECTED_RANKS = 200
LABEL_NOISE = 0.1


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    min_len: int
    max_len: int
    pairs_per_ref: int
    n_train: int
    n_valid: int
    n_test: int
    vocab_size: int
    dim: int
    # Flags passed to `pairrank train` on top of --data/--valid/--out.
    train_flags: tuple[str, ...]


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="unique-ref",
            why="long sentences, one reference per tuple: BLEU counting and composition dominate",
            min_len=10,
            max_len=40,
            pairs_per_ref=1,
            n_train=2000,
            n_valid=400,
            n_test=600,
            vocab_size=5000,
            dim=100,
            train_flags=(),
        ),
        WorkloadSpec(
            name="shared-ref",
            why="as unique-ref but ~50 judged pairs per reference, as in WMT relative ranking",
            min_len=10,
            max_len=40,
            pairs_per_ref=50,
            n_train=2000,
            n_valid=400,
            n_test=600,
            vocab_size=5000,
            dim=100,
            train_flags=(),
        ),
        WorkloadSpec(
            name="train-heavy",
            why="short sentences, many logistic-then-kendall epochs, wide blocks: training dominates",
            min_len=4,
            max_len=12,
            pairs_per_ref=1,
            n_train=2000,
            n_valid=500,
            n_test=800,
            vocab_size=5000,
            dim=100,
            train_flags=("--cost", "logistic-then-kendall", "--epochs", "40", "--hidden", "16"),
        ),
    )
}


def zipf_probabilities(vocab_size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, vocab_size + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def token(rank: int) -> str:
    return f"w{rank}"


def meteor_style(hyp: list[str], ref: list[str]) -> float:
    """Recall-weighted unigram harmonic mean (METEOR's Fmean, exact match only)."""
    ref_counts: dict[str, int] = {}
    for t in ref:
        ref_counts[t] = ref_counts.get(t, 0) + 1
    matches = 0
    for t in hyp:
        if ref_counts.get(t, 0) > 0:
            ref_counts[t] -= 1
            matches += 1
    if matches == 0:
        return 0.0
    p, r = matches / len(hyp), matches / len(ref)
    return 10 * p * r / (r + 9 * p)


class _Sampler:
    def __init__(self, spec: WorkloadSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.cdf = np.cumsum(zipf_probabilities(spec.vocab_size))

    def words(self, n: int) -> list[str]:
        ranks = np.searchsorted(self.cdf, self.rng.random(n) * self.cdf[-1], side="right")
        return [token(int(r)) for r in ranks]

    def sentence(self) -> list[str]:
        return self.words(int(self.rng.integers(self.spec.min_len, self.spec.max_len + 1)))

    def corrupt(self, ref: list[str], k: int) -> list[str]:
        """Substitute k tokens, then drop one token half of the time."""
        hyp = list(ref)
        subs = self.words(k)
        for pos, w in zip(self.rng.choice(len(ref), size=k, replace=False), subs):
            hyp[int(pos)] = w
        if self.rng.random() < 0.5 and len(hyp) > 1:
            del hyp[int(self.rng.integers(len(hyp)))]
        return hyp


def judgment_lines(spec: WorkloadSpec, n: int, rng: np.random.Generator, prefix: str) -> list[str]:
    sampler = _Sampler(spec, rng)
    lines = []
    ref: list[str] = []
    for i in range(n):
        group = i // spec.pairs_per_ref
        if i % spec.pairs_per_ref == 0:
            ref = sampler.sentence()
        k1, k2 = sorted(int(k) for k in rng.choice(np.arange(1, len(ref) + 1), size=2, replace=False))
        better, worse = sampler.corrupt(ref, k1), sampler.corrupt(ref, k2)
        y = int(rng.random() < 0.5)
        hyp1, hyp2 = (better, worse) if y == 1 else (worse, better)
        if rng.random() < LABEL_NOISE:
            y = 1 - y
        doc = {
            "id": f"{prefix}{i}",
            "split": SPLITS[group % len(SPLITS)],
            "reference": " ".join(ref),
            "hyp1": " ".join(hyp1),
            "hyp2": " ".join(hyp2),
            "y": y,
            "external_scores_1": {"METEOR": meteor_style(hyp1, ref)},
            "external_scores_2": {"METEOR": meteor_style(hyp2, ref)},
        }
        lines.append(json.dumps(doc))
    return lines


def embedding_lines(spec: WorkloadSpec, rng: np.random.Generator) -> list[str]:
    """One `token v1 ... vd` line per in-table rank; the OOV slice is skipped."""
    ranks = np.arange(spec.vocab_size)
    oov = (rng.random(spec.vocab_size) < OOV_SHARE) & (ranks >= OOV_PROTECTED_RANKS)
    vectors = rng.normal(scale=0.3, size=(spec.vocab_size, spec.dim))
    row = "%s" + " %.6f" * spec.dim
    return [row % (token(int(r)), *vectors[r]) for r in ranks[~oov]]


def generate(spec: WorkloadSpec, seed: int, out_dir: str) -> dict[str, str]:
    """Write the workload's files under ``out_dir``; return their paths by role."""
    # crc32, not hash(): str hashes are salted per process.
    root = np.random.SeedSequence([seed % 2**64, zlib.crc32(spec.name.encode())])
    streams = [np.random.default_rng(s) for s in root.spawn(4)]
    os.makedirs(out_dir, exist_ok=True)
    paths = {role: os.path.join(out_dir, f"{role}.jsonl") for role in ("train", "valid", "test")}
    paths["embeddings"] = os.path.join(out_dir, "embeddings.txt")
    sizes = {"train": spec.n_train, "valid": spec.n_valid, "test": spec.n_test}
    for rng, role in zip(streams, ("train", "valid", "test")):
        write_lines(paths[role], judgment_lines(spec, sizes[role], rng, prefix=role[0]))
    write_lines(paths["embeddings"], embedding_lines(spec, streams[3]))
    return paths


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for role, path in generate(WORKLOADS[args.workload], args.seed, args.out).items():
        print(f"{role}: {path}")


if __name__ == "__main__":
    main()
