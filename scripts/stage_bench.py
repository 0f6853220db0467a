"""Wall time and peak memory of two pipeline stages, ingest and training, on one checkout.

The pairrank package is imported from ``CHECKOUT/src``. The data come from
``perfbench/workload.py``, generated once in a child interpreter, and each
stage runs in a fresh interpreter of its own. A child can inherit its
parent's peak resident set, so the process that starts them imports
neither numpy nor pairrank. The script prints one JSON object:

- ``ingest``: the data set is ``--copies`` unique-ref train splits, seeds
  1, 2, ..., concatenated with each copy's ids prefixed by its seed (25
  give 50,000 tuples); the table is the first copy's. The wall seconds and
  ``ru_maxrss`` (peak resident set, MB) after a table load, a cold
  ``load_dataset`` (it parses, counts the n-gram matches and writes the
  sidecar), ``vectorize`` and a warm ``load_dataset`` (it reads the
  sidecar), each by path as the CLI loads it.
- ``train``: ``train()`` run ``--rounds`` times on the train-heavy data at
  ``--seed``, from batches and configs built as ``pairrank train`` builds
  them with the workload's train flags. The medians of ``train_ms``, of
  ``logistic_step_us`` and ``kendall_step_us`` (an epoch's seconds less its
  validation ``evaluate``, per mini-batch step) and of ``valid_eval_us``;
  and ``checkpoint_sha256``, the sha256 of the model as ``save_model``
  writes it, which every round must repeat.

A failing child's standard error is printed before the script exits 1.
Equal ``checkpoint_sha256`` on two checkouts says both trained one model:

    python scripts/stage_bench.py --root .
    python scripts/stage_bench.py --root ../parent
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRAIN_WORKLOAD = "train-heavy"


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _workload():
    sys.path.insert(0, PERFBENCH)
    try:
        import workload
    finally:
        sys.path.remove(PERFBENCH)
    return workload


def generate(args: argparse.Namespace, tmp: str) -> None:
    """Write the ingest data set to ``tmp/ingest`` and the train-heavy data to ``tmp/train``."""
    workload = _workload()
    ingest = os.path.join(tmp, "ingest")
    os.makedirs(ingest)
    with open(os.path.join(ingest, "train.jsonl"), "w", encoding="utf-8") as sink:
        for seed in range(1, args.copies + 1):
            paths = workload.generate(workload.WORKLOADS["unique-ref"], seed, os.path.join(ingest, str(seed)))
            with open(paths["train"], encoding="utf-8") as f:
                for line in f:
                    doc = json.loads(line)
                    doc["id"] = f"{seed}:{doc['id']}"
                    sink.write(json.dumps(doc) + "\n")
            if seed == 1:
                os.replace(paths["embeddings"], os.path.join(ingest, "embeddings.txt"))
    workload.generate(workload.WORKLOADS[TRAIN_WORKLOAD], args.seed, os.path.join(tmp, "train"))


def ingest(args: argparse.Namespace, tmp: str) -> dict:
    sys.path.insert(0, os.path.join(args.root, "src"))
    from pairrank.data_ingest import load_dataset, vectorize
    from pairrank.embeddings import load_embedding_table

    out = {"import_peak_mb": _peak_mb()}

    def step(name, fn, *a):
        t0 = time.perf_counter()
        result = fn(*a)
        out[f"{name}_s"] = time.perf_counter() - t0
        out[f"{name}_peak_mb"] = _peak_mb()
        return result

    table = step("table", load_embedding_table, os.path.join(tmp, "ingest", "embeddings.txt"))
    data = os.path.join(tmp, "ingest", "train.jsonl")
    dataset = step("load", load_dataset, data)
    out["tuples"] = len(step("vectorize", vectorize, dataset, table))
    # Last, so that the figures above are those of a first load alone.
    step("warm_load", load_dataset, data)
    return out


def train(args: argparse.Namespace, tmp: str) -> dict:
    # Imported here, so that the ingest child's peak does not count them.
    import hashlib
    import statistics

    sys.path.insert(0, os.path.join(args.root, "src"))
    from pairrank import cli, training
    from pairrank.model import ModelConfig, init_model, save_model

    d = os.path.join(tmp, "train")
    parsed = cli.build_parser().parse_args([
        "train", "--data", f"{d}/train.jsonl", "--valid", f"{d}/valid.jsonl", "--embeddings", f"{d}/embeddings.txt",
        "--out", f"{d}/model.json", *_workload().WORKLOADS[TRAIN_WORKLOAD].train_flags,
    ])
    fields = cli._train_fields(parsed)
    tcfg, ccfg = (cls(**fields[cls]) for cls in (training.TrainConfig, training.CostConfig))
    batch, valid_batch = cli._train_batches(parsed)
    initial = init_model(ModelConfig(batch.P1.shape[1], batch.F1.shape[1], **fields[ModelConfig]))

    # train() looks evaluate up on its module, so this times each validation pass.
    evaluate, eval_s = training.evaluate, []

    def timed_evaluate(*a, **kw):
        t0 = time.perf_counter()
        result = evaluate(*a, **kw)
        eval_s.append(time.perf_counter() - t0)
        return result

    training.evaluate = timed_evaluate
    steps = math.ceil(len(batch) / tcfg.batch_size)
    train_s, step_us, checkpoints = [], {training.LOGISTIC: [], training.KENDALL: []}, set()
    for _ in range(args.rounds):
        first = len(eval_s)
        t0 = time.perf_counter()
        model, report = training.train(initial.copy(), batch, valid_batch, tcfg, ccfg)
        train_s.append(time.perf_counter() - t0)
        for record, valid in zip(report.epochs, eval_s[first:]):
            step_us[record.cost_kind].append((record.seconds - valid) / steps * 1e6)
        sink = io.StringIO()
        save_model(model, sink)
        checkpoints.add(hashlib.sha256(sink.getvalue().encode()).hexdigest())
    if len(checkpoints) != 1:
        sys.exit(f"the rounds trained {len(checkpoints)} different models")
    return {
        "workload": TRAIN_WORKLOAD,
        "train_ms": statistics.median(train_s) * 1e3,
        **{f"{kind}_step_us": statistics.median(us) for kind, us in step_us.items() if us},
        "valid_eval_us": statistics.median(eval_s) * 1e6,
        "checkpoint_sha256": checkpoints.pop(),
    }


# Each child in turn: the data first, then one stage per fresh interpreter.
CHILDREN = {"generate": generate, "ingest": ingest, "train": train}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="checkout holding src/pairrank")
    parser.add_argument("--seed", type=int, default=101, help="train-heavy workload seed")
    parser.add_argument("--rounds", type=int, default=5, help="train() calls to time")
    parser.add_argument("--copies", type=int, default=25, help="unique-ref train splits to ingest")
    parser.add_argument("--child", nargs=2, metavar=("STEP", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        result = CHILDREN[args.child[0]](args, args.child[1])
        if result:
            print(json.dumps(result))
        return
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.isfile(os.path.join(src, "pairrank", "cli.py")):
        sys.exit(f"error: no pairrank sources under {src}")
    script = [sys.executable, os.path.abspath(__file__), "--root", args.root, "--seed", str(args.seed),
              "--rounds", str(args.rounds), "--copies", str(args.copies)]
    result = {"root": os.path.abspath(args.root), "seed": args.seed, "rounds": args.rounds, "copies": args.copies}
    with tempfile.TemporaryDirectory() as tmp:
        for step in CHILDREN:
            child = subprocess.run([*script, "--child", step, tmp], capture_output=True, text=True)
            if child.returncode:
                sys.stderr.write(child.stderr)
                sys.exit(f"the {step} child exited {child.returncode}")
            if step != "generate":
                result[step] = json.loads(child.stdout)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
