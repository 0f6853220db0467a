"""The benchmark's traced run works end to end on a small pipeline.

``perfbench/run.py --trace 1`` installs ``perfbench/layers.py``'s
``TARGETS`` with ``spans.Tracer``, runs train -> evaluate -> predict
through ``pairrank.cli.run`` and reads each span's row count from the
hooked call's arguments and result. A hooked name whose signature or
result changes would otherwise surface only in that run.
"""

import os
import sys
import time

from pairrank.cli import run
from pairrank.synthetic import token_dataset_lines, toy_embedding_lines

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

REQUIRED_SPANS = {"model.forward", "model.backward", "model.predict_delta", "training.train", "evaluation.evaluate"}


def perfbench_modules():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    return layers, spans


def test_traced_pipeline_reports_every_layer(tmp_path):
    layers, spans = perfbench_modules()
    data, emb = tmp_path / "data.jsonl", tmp_path / "emb.txt"
    model, report, predictions = tmp_path / "model.json", tmp_path / "eval.json", tmp_path / "pred.jsonl"
    data.write_text("\n".join(token_dataset_lines(40)) + "\n")
    emb.write_text("\n".join(toy_embedding_lines()) + "\n")
    common = ["--data", str(data), "--embeddings", str(emb)]
    jobs = {
        "train": ["train", *common, "--out", str(model)],
        "evaluate": ["evaluate", *common, "--model", str(model), "--report", str(report)],
        "predict": ["predict", *common, "--model", str(model), "--out", str(predictions)],
    }
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS)
    seconds = {}
    try:
        for job, argv in jobs.items():
            tracer.job = job
            t0 = time.perf_counter()
            assert tracer.span(f"cli.{job}", run, argv) == 0
            seconds[job] = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert REQUIRED_SPANS <= {s.name for s in tracer.spans}
    # With no untraced partner run, the traced job times stand in for it.
    m = layers.metrics(tracer.spans, seconds, seconds, str(model))
    assert m["model.predict_delta_calls"] == 1
    assert m["evaluation.rows"] == 40
    assert m["model.forward_rows"] > 0
    assert m["training.train_s"] > 0
