"""Tests of the benchmark's own code: generator, oracles and span arithmetic.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import dataclasses
import json
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pairrank.features  # noqa: E402
from pairrank.cli import run  # noqa: E402
from pairrank.features import bleu_components  # noqa: E402

import oracle  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workload import WORKLOADS, generate  # noqa: E402


def small(name):
    return dataclasses.replace(WORKLOADS[name], n_train=60, n_valid=10, n_test=20, vocab_size=300)


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    spec = small(name)
    generate(spec, 7, str(tmp_path / "a"))
    generate(spec, 7, str(tmp_path / "b"))
    generate(spec, 8, str(tmp_path / "c"))
    a, b, c = (read_all(tmp_path / d) for d in "abc")
    assert a == b
    assert a["train.jsonl"] != c["train.jsonl"]
    records = oracle.read_jsonl(str(tmp_path / "a" / "train.jsonl"))
    refs = {r["reference"] for r in records}
    assert len(refs) == -(-spec.n_train // spec.pairs_per_ref)
    assert {r["split"] for r in records} <= {"cs-en", "de-en", "fr-en", "ru-en"}
    table = {line.split(" ", 1)[0] for line in (tmp_path / "a" / "embeddings.txt").read_text().splitlines()}
    assert 0 < len(table) < spec.vocab_size  # an OOV slice is left out


def test_bleu_oracle_agrees_with_library():
    rng = random.Random(3)
    for _ in range(300):
        ref = [f"w{rng.randrange(6)}" for _ in range(rng.randrange(0, 12))]
        hyp = [f"w{rng.randrange(6)}" for _ in range(rng.randrange(0, 12))]
        assert oracle.brute_bleu_fields(hyp, ref) == list(bleu_components(hyp, ref).flatten())


def extract_rows(tmp_path):
    spec = small("shared-ref")
    data = tmp_path / "data"
    generate(spec, 1, str(data))
    out = tmp_path / "features.jsonl"
    assert run(["extract", "--data", str(data / "test.jsonl"), "--embeddings", str(data / "embeddings.txt"),
                "--out", str(out)]) == 0
    records = oracle.read_jsonl(str(data / "test.jsonl"))
    wanted = {t for r in records for k in ("reference", "hyp1", "hyp2") for t in r[k].split()}
    with open(data / "embeddings.txt") as f:
        vectors = oracle.read_vectors(f, wanted)
    return records, oracle.read_jsonl(str(out)), vectors, spec.dim


def test_feature_check_passes_on_library_output(tmp_path):
    records, rows, vectors, dim = extract_rows(tmp_path)
    assert oracle.check_features(records, rows, vectors, dim) == []


def test_feature_check_flags_planted_off_by_one(tmp_path, monkeypatch):
    original = pairrank.features.ngram_stats

    def off_by_one(hyp, ref, order):
        # Drops the last hypothesis n-gram from the total.
        s = original(hyp, ref, order)
        return dataclasses.replace(s, total=max(s.total - 1, s.matches))

    monkeypatch.setattr(pairrank.features, "ngram_stats", off_by_one)
    records, rows, vectors, dim = extract_rows(tmp_path)
    problems = oracle.check_features(records, rows, vectors, dim)
    assert problems and all("brute-force" in p for p in problems)


def test_feature_check_flags_wrong_sentence_vector(tmp_path):
    records, rows, vectors, dim = extract_rows(tmp_path)
    rows[0]["psi_r"][0] += 1e-9
    assert oracle.check_features(records, rows, vectors, dim) == [f"{records[0]['id']}: psi_r differs from the numpy mean"]


def test_counts_check():
    records = [
        {"id": "a", "split": "x", "y": 1},
        {"id": "b", "split": "x", "y": 0},
        {"id": "c", "split": "z", "y": 0},
    ]
    predictions = [
        {"id": "a", "decision": "t1-better"},
        {"id": "b", "decision": "t1-better"},
        {"id": "c", "decision": "tie"},
    ]

    def c(con, dis, ties):
        return {"concordant": con, "disconcordant": dis, "ties": ties}

    report = {"counts": c(1, 1, 1), "per_split": {"x": {"counts": c(1, 1, 0)}, "z": {"counts": c(0, 0, 1)}}}
    assert oracle.check_counts(records, predictions, report) == []
    report["per_split"]["z"]["counts"] = c(1, 0, 0)
    assert len(oracle.check_counts(records, predictions, report)) == 1
    assert oracle.check_counts(records, predictions[:2], report) == ["prediction ids do not match the test set"]


def test_counts_check_matches_evaluate_report(tmp_path):
    spec = small("train-heavy")
    d = tmp_path
    generate(spec, 2, str(d))
    e = ["--embeddings", str(d / "embeddings.txt")]
    assert run(["train", "--data", str(d / "train.jsonl"), "--valid", str(d / "valid.jsonl"), *e,
                "--out", str(d / "m.json"), "--epochs", "2"]) == 0
    assert run(["evaluate", "--data", str(d / "test.jsonl"), *e, "--model", str(d / "m.json"),
                "--report", str(d / "eval.json")]) == 0
    assert run(["predict", "--data", str(d / "test.jsonl"), *e, "--model", str(d / "m.json"),
                "--out", str(d / "p.jsonl")]) == 0
    report = json.loads((d / "eval.json").read_text())
    assert oracle.check_counts(oracle.read_jsonl(str(d / "test.jsonl")), oracle.read_jsonl(str(d / "p.jsonl")),
                               report) == []


def test_self_times_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, "j"),
        Span("a", 1.0, 4.0, 0, "j"),
        Span("a.child", 1.0, 2.0, 1, "j"),
        Span("b", 3.0, 6.0, 0, "j"),  # overlaps a: the union counts once
        Span("c", 9.0, 12.0, 0, "j"),  # runs past its parent: clipped
        Span("other", 20.0, 21.0, -1, "k"),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 3, 3, 1])


def test_tracer_records_nesting_and_restores_targets():
    original = pairrank.features.ngram_stats
    tracer = Tracer()
    tracer.install([("pairrank.features", "ngram_stats", "ngram", lambda args, result: (args[2], None))])
    try:
        tracer.job = "j"
        tracer.span("outer", pairrank.features.bleu_components, ["a", "b"], ["a", "b"])
    finally:
        tracer.uninstall()
    assert pairrank.features.ngram_stats is original
    assert [s.name for s in tracer.spans] == ["outer"] + ["ngram"] * 4
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0, 0]
    assert [s.rows for s in tracer.spans[1:]] == [1, 2, 3, 4]
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0].seconds - sum(s.seconds for s in tracer.spans[1:]))
    assert np.all(np.array(own) >= 0)
