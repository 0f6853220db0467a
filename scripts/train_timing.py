"""Wall time of ``training.train`` on the train-heavy benchmark workload, step by step.

This generates the train-heavy data of ``perfbench/workload.py`` (at
``--seed``) in a temporary directory, then, in this one process, builds the
training and validation batches and the configs as ``pairrank train`` does
with the workload's train flags, and runs ``train()`` ``--rounds`` times
from the same initial model. The pairrank package is imported from
``CHECKOUT/src``. The script prints one JSON object:

- ``train_ms``: the median wall time of one ``train()`` call;
- ``logistic_step_us`` and ``kendall_step_us``: the median time of one
  mini-batch step under each cost kind, taken per epoch as the epoch's
  seconds less its validation ``evaluate``, divided by the epoch's steps;
- ``valid_eval_us``: the median time of one validation ``evaluate``;
- ``checkpoint_sha256``: the sha256 of the trained model as ``save_model``
  writes it, the same bytes in every round.

Run it on two checkouts to compare them; equal ``checkpoint_sha256`` says
that both trained the same model:

    python scripts/train_timing.py --root .
    python scripts/train_timing.py --root ../parent
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOAD = "train-heavy"


def measure(root: str, seed: int, rounds: int, tmp: str) -> dict:
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from pairrank import cli, training
    from pairrank.model import ModelConfig, init_model, save_model

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"pairrank was imported from {cli.__file__}, not from {src}")
    sys.path.insert(0, PERFBENCH)
    try:
        from workload import WORKLOADS, generate
    finally:
        sys.path.remove(PERFBENCH)
    spec = WORKLOADS[WORKLOAD]
    paths = generate(spec, seed, os.path.join(tmp, "data"))
    args = cli.build_parser().parse_args([
        "train", "--data", paths["train"], "--valid", paths["valid"], "--embeddings", paths["embeddings"],
        "--out", os.path.join(tmp, "model.json"), *spec.train_flags,
    ])
    fields = cli._train_fields(args)
    tcfg, ccfg = training.TrainConfig(**fields[training.TrainConfig]), training.CostConfig(**fields[training.CostConfig])
    batch, valid_batch = cli._train_batches(args)
    config = ModelConfig(sentence_dim=batch.P1.shape[1], pairwise_dim=batch.F1.shape[1], **fields[ModelConfig])
    initial = init_model(config)

    # train() looks evaluate up on its module, so this times each validation pass.
    evaluate, eval_s = training.evaluate, []

    def timed_evaluate(*a, **kw):
        t0 = time.perf_counter()
        try:
            return evaluate(*a, **kw)
        finally:
            eval_s.append(time.perf_counter() - t0)

    training.evaluate = timed_evaluate
    steps = math.ceil(len(batch) / tcfg.batch_size)
    train_s, step_us, checkpoints = [], {kind: [] for kind in (training.LOGISTIC, training.KENDALL)}, set()
    for _ in range(rounds):
        first = len(eval_s)
        t0 = time.perf_counter()
        model, report = training.train(initial.copy(), batch, valid_batch, tcfg, ccfg)
        train_s.append(time.perf_counter() - t0)
        for record, valid in zip(report.epochs, eval_s[first:]):
            step_us[record.cost_kind].append((record.seconds - valid) / steps * 1e6)
        sink = io.StringIO()
        save_model(model, sink)
        checkpoints.add(hashlib.sha256(sink.getvalue().encode()).hexdigest())
    training.evaluate = evaluate
    if len(checkpoints) != 1:
        sys.exit(f"the rounds trained {len(checkpoints)} different models")
    return {
        "train_ms": statistics.median(train_s) * 1e3,
        **{f"{kind}_step_us": statistics.median(us) for kind, us in step_us.items() if us},
        "valid_eval_us": statistics.median(eval_s) * 1e6,
        "checkpoint_sha256": checkpoints.pop(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="checkout holding src/pairrank")
    parser.add_argument("--seed", type=int, default=101, help="workload seed")
    parser.add_argument("--rounds", type=int, default=5, help="train() calls to time")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        result = measure(args.root, args.seed, args.rounds, tmp)
    print(json.dumps({"root": os.path.abspath(args.root), "workload": WORKLOAD, "seed": args.seed,
                      "rounds": args.rounds, **result}, indent=2))


if __name__ == "__main__":
    main()
