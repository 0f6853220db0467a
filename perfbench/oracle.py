"""Independent references that the benchmark checks pairrank's outputs against.

Nothing here imports pairrank: the BLEU statistics come from list scans,
sentence vectors from a plain numpy mean over a table parsed here, and
pair counts from the predictions file and the gold labels.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np


def brute_bleu_fields(hyp: list[str], ref: list[str]) -> list[float]:
    """The 16 decomposed-BLEU features, by counting n-grams with list scans."""
    precisions, matches, totals = [], [], []
    for order in (1, 2, 3, 4):
        hyp_grams = [tuple(hyp[i : i + order]) for i in range(len(hyp) - order + 1)]
        ref_grams = [tuple(ref[i : i + order]) for i in range(len(ref) - order + 1)]
        m = sum(min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams))
        t = len(hyp_grams)
        matches.append(m)
        totals.append(t)
        precisions.append(m / t if t else 0.0)
    hl, rl = len(hyp), len(ref)
    if hl == 0:
        bp = 0.0
    elif hl >= rl:
        bp = 1.0
    else:
        bp = math.exp(1.0 - rl / hl)
    return precisions + matches + totals + [hl, rl, hl / rl if rl else 0.0, bp]


def read_vectors(lines: Iterable[str], wanted: set[str]) -> dict[str, np.ndarray]:
    """Vectors of the ``wanted`` tokens from a ``token v1 ... vd`` text table (first entry wins)."""
    out: dict[str, np.ndarray] = {}
    for line in lines:
        tok, _, rest = line.partition(" ")
        if tok in wanted and tok not in out:
            out[tok] = np.array(rest.split(), dtype=float)
    return out


def mean_vector(tokens: list[str], vectors: dict[str, np.ndarray], dim: int) -> np.ndarray:
    found = [vectors[t] for t in tokens if t in vectors]
    return np.mean(found, axis=0) if found else np.zeros(dim)


def check_features(records: list[dict], features: list[dict], vectors: dict[str, np.ndarray], dim: int) -> list[str]:
    """Compare extract rows with the oracles; return one message per mismatch.

    ``records`` are the dataset lines the rows were extracted from, in order.
    BLEU fields and external scores must match exactly; sentence vectors
    to 1e-12, since numpy's mean sums in another order.
    """
    problems = []
    if len(records) != len(features):
        return [f"{len(features)} feature rows for {len(records)} records"]
    for rec, row in zip(records, features):
        ref = rec["reference"].lower().split()
        for side in ("1", "2"):
            hyp = rec[f"hyp{side}"].lower().split()
            want = brute_bleu_fields(hyp, ref) + [rec[f"external_scores_{side}"]["METEOR"]]
            if row[f"phi_t{side}r"] != want:
                problems.append(f"{rec['id']}: phi_t{side}r differs from the brute-force counter")
        for key, toks in (("psi_t1", rec["hyp1"]), ("psi_t2", rec["hyp2"]), ("psi_r", rec["reference"])):
            want = mean_vector(toks.lower().split(), vectors, dim)
            if not np.allclose(row[key], want, rtol=1e-12, atol=1e-12):
                problems.append(f"{rec['id']}: {key} differs from the numpy mean")
    return problems


def pair_counts(records: list[dict], predictions: list[dict]) -> dict[str, dict[str, int]]:
    """Concordant, disconcordant and tie counts per split and under "all"."""
    by_id = {p["id"]: p["decision"] for p in predictions}
    counts: dict[str, dict[str, int]] = {}
    for rec in records:
        decision = by_id[rec["id"]]
        if decision == "tie":
            kind = "ties"
        elif (decision == "t1-better") == (rec["y"] == 1):
            kind = "concordant"
        else:
            kind = "disconcordant"
        for key in (rec["split"], "all"):
            c = counts.setdefault(key, {"concordant": 0, "disconcordant": 0, "ties": 0})
            c[kind] += 1
    return counts


def check_counts(records: list[dict], predictions: list[dict], report: dict) -> list[str]:
    """Compare counts recomputed from predictions with an evaluate report."""
    if sorted(p["id"] for p in predictions) != sorted(r["id"] for r in records):
        return ["prediction ids do not match the test set"]
    counts = pair_counts(records, predictions)
    want = {"all": report["counts"]}
    want.update({s: v["counts"] for s, v in report["per_split"].items()})
    problems = [f"split {s}: predictions give {counts.get(s)}, report has {c}"
                for s, c in want.items() if counts.get(s) != c]
    problems += [f"split {s} is missing from the report" for s in counts if s not in want]
    return problems


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]
