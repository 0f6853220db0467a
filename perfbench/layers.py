"""Where the traced run hooks pairrank, and the per-layer metrics it reports.

Each target is wrapped at the name its caller looks up, so a function
imported into two modules (``forward_batch`` into ``training`` and
``evaluation``, say) is wrapped in both. Metrics are named
``<module>.<metric>`` and are totals for one train -> evaluate -> predict
pipeline.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from spans import Span, self_times


def _len_result(args, result):
    return len(result), None


def _len_arg(i):
    return lambda args, result: (len(args[i]), None)


TARGETS = [
    ("pairrank.cli", "load_embedding_table", "embeddings.load", _len_result),
    ("pairrank.data_ingest", "compose_sentence_vector", "embeddings.compose",
     lambda args, result: (len(args[0]), result.oov_count)),
    ("pairrank.data_ingest", "load_dataset", "data_ingest.load",
     lambda args, result: (len(result.tuples), result)),
    ("pairrank.data_ingest", "vectorize", "data_ingest.vectorize", _len_result),
    ("pairrank.data_ingest", "bleu_components", "features.bleu", None),
    ("pairrank.data_ingest", "assemble_pairwise", "features.assemble", None),
    ("pairrank.cli", "train", "training.train", lambda args, result: (len(args[1]), result[1])),
    ("pairrank.training", "evaluate", "training.valid_eval", _len_arg(1)),
    ("pairrank.training", "pack", "model.pack", _len_arg(0)),
    ("pairrank.training", "forward_batch", "model.forward", _len_arg(1)),
    ("pairrank.training", "backward_batch", "model.backward", _len_arg(1)),
    ("pairrank.evaluation", "evaluate", "evaluation.evaluate", _len_arg(1)),
    ("pairrank.evaluation", "pack", "model.pack", _len_arg(0)),
    ("pairrank.evaluation", "forward_batch", "model.forward", _len_arg(1)),
    ("pairrank.cli", "predict_delta", "model.predict_delta", None),
    ("pairrank.cli", "save_model", "model.save", None),
    ("pairrank.cli", "load_model", "model.load", None),
]

JOBS = ("train", "evaluate", "predict")
COST_KINDS = ("logistic", "kendall")
# Below this, a job's uncovered share is timer noise, not a missing span.
COVERAGE_SLACK = 0.01


def metrics(spans: list[Span], traced: dict[str, float], untraced: dict[str, float], model_path: str) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline, given its untraced partner's job times."""
    seconds, self_s, calls, rows = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        seconds[span.name] += span.seconds
        self_s[span.name] += own
        calls[span.name] += 1
        rows[span.name] += span.rows
    datasets = [s.extra for s in spans if s.name == "data_ingest.load"]
    distinct = sum(len({tuple(t.reference) for t in d.tuples}) for d in datasets)
    oov = sum(s.extra for s in spans if s.name == "embeddings.compose")
    m = {
        "embeddings.load_s": seconds["embeddings.load"],
        "embeddings.load_calls": calls["embeddings.load"],
        "embeddings.compose_s": seconds["embeddings.compose"],
        "embeddings.compose_calls": calls["embeddings.compose"],
        "embeddings.oov_rate": oov / max(rows["embeddings.compose"], 1),
        "data_ingest.load_s": seconds["data_ingest.load"],
        "data_ingest.rows": rows["data_ingest.load"],
        "data_ingest.vectorize_s": seconds["data_ingest.vectorize"],
        "data_ingest.vectorize_self_s": self_s["data_ingest.vectorize"],
        "data_ingest.distinct_ref_ratio": distinct / max(rows["data_ingest.load"], 1),
        "features.bleu_s": seconds["features.bleu"],
        "features.bleu_calls": calls["features.bleu"],
        "features.assemble_s": seconds["features.assemble"],
        "model.pack_s": seconds["model.pack"],
        "model.forward_s": seconds["model.forward"],
        "model.forward_rows": rows["model.forward"],
        "model.backward_s": seconds["model.backward"],
        "model.predict_delta_s": seconds["model.predict_delta"],
        "model.predict_delta_calls": calls["model.predict_delta"],
        "model.save_s": seconds["model.save"],
        "model.load_s": seconds["model.load"],
        "model.checkpoint_bytes": os.path.getsize(model_path),
        "training.train_s": seconds["training.train"],
        "training.valid_eval_s": seconds["training.valid_eval"],
        "evaluation.evaluate_s": seconds["evaluation.evaluate"],
        "evaluation.rows": rows["evaluation.evaluate"],
    }
    train_spans = [s for s in spans if s.name == "training.train"]
    for kind in COST_KINDS:
        # Epoch seconds come from the returned TrainReport and include
        # that epoch's validation pass. Zero where no epoch of this kind ran.
        per_epoch = [(s.rows, e.seconds) for s in train_spans for e in s.extra.epochs if e.cost_kind == kind]
        m[f"training.epoch_s.{kind}"] = statistics.median(t for _, t in per_epoch) if per_epoch else 0.0
        m[f"training.examples_per_s.{kind}"] = statistics.median(n / t for n, t in per_epoch) if per_epoch else 0.0
    for job in JOBS:
        m[f"cli.{job}_self_s"] = self_s[f"cli.{job}"]
        m[f"trace.overhead_frac.{job}"] = traced[job] / untraced[job] - 1.0
    m["trace.overhead_frac"] = sum(traced.values()) / sum(untraced.values()) - 1.0
    return m


def job_breakdown(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self seconds per job and module (the part of a span name before its first dot).

    Self times partition a job's top-level span, so each job's row sums to it.
    """
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.job, {})
        module = span.name.split(".", 1)[0]
        row[module] = row.get(module, 0.0) + own
    return out


def check_coverage(spans: list[Span], traced: dict[str, float], untraced: dict[str, float]) -> list[str]:
    """Each job's top-level spans must cover its wall time, up to the tracing overhead."""
    problems = []
    for job in JOBS:
        top = sum(s.seconds for s in spans if s.parent < 0 and s.job == job)
        uncovered = 1.0 - top / traced[job]
        allowed = max(traced[job] / untraced[job] - 1.0, COVERAGE_SLACK)
        if uncovered > allowed:
            problems.append(f"{job}: top-level spans leave {uncovered:.1%} of its wall time uncovered")
    return problems
