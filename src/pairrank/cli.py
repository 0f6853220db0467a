"""Command-line front end: extract, train, evaluate, predict, gradcheck.

Every subcommand is a thin wrapper over the library; all randomness is
seeded via flags, and a JSON config file can supply any train option,
checked as its flag is (explicit flags win).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import data_ingest, evaluation, training
from .embeddings import EmbeddingTable, load_embedding_table
from .features import BLEUCOMP_FEATURE_NAMES
from .evaluation import DEFAULT_TIE_EPSILON, predict_delta, verdicts
from .model import ARCHITECTURES, ModelConfig, init_model, load_model, save_model
from .training import CostConfig, TrainConfig, grad_check, train

# Each train option, once: its config-file key (the flag is the key with "-"
# for "_"), the config dataclass and field it sets, and the values it takes:
# int (a JSON integer), float (any JSON number) or a tuple of choices. The
# field's default is the option's default; where that is None, a config
# file may also give null.
TRAIN_OPTIONS = {
    "cost": (CostConfig, "kind", training.COST_KINDS),
    "epochs": (TrainConfig, "epochs", int),
    "lr": (TrainConfig, "learning_rate", float),
    "batch_size": (TrainConfig, "batch_size", int),
    "seed": (ModelConfig, "seed", int),
    "shuffle_seed": (TrainConfig, "shuffle_seed", int),
    "hidden": (ModelConfig, "hidden_per_block", int),
    "arch": (ModelConfig, "architecture", ARCHITECTURES),
    "gamma": (CostConfig, "gamma", float),
    "beta": (CostConfig, "beta", float),
    "tie_weight": (CostConfig, "tie_weight", float),
    "pretrain_epochs": (CostConfig, "pretrain_epochs", int),
    "l2": (TrainConfig, "l2", float),
    "patience": (TrainConfig, "early_stop_patience", int),
}


def _default(key: str):
    cls, name, _ = TRAIN_OPTIONS[key]
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


def _add_option(parser: argparse.ArgumentParser, key: str, default=None) -> None:
    kind = TRAIN_OPTIONS[key][2]
    check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
    parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=default, **check)


def _read_config(path: str) -> dict:
    """The options in a JSON config file, each refused unless its flag could give it."""
    with open(path, encoding="utf-8") as f:
        opts = json.load(f)
    unknown = set(opts) - set(TRAIN_OPTIONS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in opts.items():
        kind = TRAIN_OPTIONS[key][2]
        if isinstance(kind, tuple):
            ok, expected = value in kind, f"one of {list(kind)}"
        else:
            # JSON true and false load as bool, an int subclass, but are not numbers.
            ok = isinstance(value, (int, float) if kind is float else int) and not isinstance(value, bool)
            expected = "a number" if kind is float else "an integer"
        if not (ok or value is None and _default(key) is None):
            raise ValueError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    return opts


def _train_fields(args: argparse.Namespace) -> dict[type, dict]:
    """Field values per config class: flags, then the config file; fields not set keep their defaults."""
    opts = _read_config(args.config) if args.config else {}
    opts.update((key, getattr(args, key)) for key in TRAIN_OPTIONS if getattr(args, key) is not None)
    fields: dict[type, dict] = {ModelConfig: {}, TrainConfig: {}, CostConfig: {}}
    for key, value in opts.items():
        cls, name, _ = TRAIN_OPTIONS[key]
        fields[cls][name] = value
    return fields


def _load_table(embeddings_path: Optional[str]) -> Optional[EmbeddingTable]:
    if not embeddings_path:
        return None
    with open(embeddings_path, encoding="utf-8") as f:
        return load_embedding_table(f)


def _load_data(path: str, table: Optional[EmbeddingTable]):
    """The dataset at ``path``, its batch of model inputs and its labels."""
    with open(path, encoding="utf-8") as f:
        dataset = data_ingest.load_dataset(f)
    return (dataset, *data_ingest.vectorize(dataset, table))


def _write_jsonl(rows: Iterable[dict], path: Optional[str]) -> None:
    """Write ``rows`` as JSON lines to ``path``, or to standard output without one.

    A reader that closes standard output early (``pairrank predict | head``)
    ends the output quietly, as the end of a pipeline, not as an error.
    """
    lines = (json.dumps(row) + "\n" for row in rows)
    if path:
        with open(path, "w", encoding="utf-8") as sink:
            sink.writelines(lines)
        return
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes standard output again at exit; send what is
        # still buffered to the null device so that flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_extract(args) -> int:
    dataset, batch, y = _load_data(args.data, _load_table(args.embeddings))
    if args.schema:
        for name in list(BLEUCOMP_FEATURE_NAMES) + dataset.feature_schema:
            print(name)
        return 0
    rows = zip(dataset.ids, dataset.splits, y.tolist(), batch.F1.tolist(), batch.F2.tolist(),
               batch.P1.tolist(), batch.P2.tolist(), batch.Pr.tolist())
    _write_jsonl(
        (
            {
                "id": id_,
                "split": split,
                "y": label,
                "phi_t1r": phi_t1r,
                "phi_t2r": phi_t2r,
                "psi_t1": psi_t1,
                "psi_t2": psi_t2,
                "psi_r": psi_r,
            }
            for id_, split, label, phi_t1r, phi_t2r, psi_t1, psi_t2, psi_r in rows
        ),
        args.out,
    )
    return 0


def cmd_train(args) -> int:
    fields = _train_fields(args)
    tcfg, ccfg = TrainConfig(**fields[TrainConfig]), CostConfig(**fields[CostConfig])
    table = _load_table(args.embeddings)
    _, batch, y = _load_data(args.data, table)
    # Without --valid, training validates on the training set itself.
    valid = _load_data(args.valid, table)[1:] if args.valid else (batch, y)
    config = ModelConfig(sentence_dim=batch.P1.shape[1], pairwise_dim=batch.F1.shape[1], **fields[ModelConfig])
    model, report = train(init_model(config), batch, y, *valid, tcfg, ccfg)
    with open(args.out, "w", encoding="utf-8") as f:
        save_model(model, f)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            report.to_jsonl(f)
    final_tau = report.epochs[-1].valid_tau if report.epochs else float("nan")
    measured_on = "valid" if args.valid else "train"
    summary = f"final {measured_on} tau {final_tau:.4f}"
    if tcfg.early_stop_patience > 0 and report.epochs:
        # Early stopping writes the best epoch's model, not the last one's.
        best = report.best_epoch
        summary = f"best {measured_on} tau {report.epochs[best].valid_tau:.4f} at epoch {best}"
    print(f"trained {len(report.epochs)} epochs, {summary}")
    return 0


def _print_tau_table(report: evaluation.EvalReport) -> None:
    rows = sorted(report.per_split) or ["all"]
    taus = [report.per_split[s][1] for s in rows] if report.per_split else [report.tau]
    header = "".join(f"{s:>12}" for s in rows + ["AVG"])
    values = "".join(f"{t * 100:12.2f}" for t in taus + [float(np.mean(taus))])
    print(header)
    print(values)


def cmd_evaluate(args) -> int:
    dataset, batch, y = _load_data(args.data, _load_table(args.embeddings))
    with open(args.model, encoding="utf-8") as f:
        model = load_model(f)
    report = evaluation.evaluate(
        model, batch, y, tie_epsilon=args.tie_epsilon, splits=dataset.splits
    )
    _print_tau_table(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            evaluation.save_report(report, f)
    return 0


# The decision predict writes for each verdict code, indexed by it: 0, 1 and -1 (the last).
DECISIONS = np.array(["t2-better", "t1-better", "tie"])


def cmd_predict(args) -> int:
    evaluation.check_tie_epsilon(args.tie_epsilon)
    dataset, batch, _ = _load_data(args.data, _load_table(args.embeddings))
    with open(args.model, encoding="utf-8") as f:
        model = load_model(f)
    sigma, sigma_rev = predict_delta(model, batch)
    deltas = sigma - sigma_rev
    decisions = DECISIONS[verdicts(deltas, args.tie_epsilon)]
    rows = zip(dataset.ids, sigma.tolist(), sigma_rev.tolist(), deltas.tolist(), decisions.tolist())
    _write_jsonl(
        (
            {"id": id_, "sigma": s, "sigma_rev": s_rev, "delta": delta, "decision": decision}
            for id_, s, s_rev, delta, decision in rows
        ),
        args.out,
    )
    return 0


def cmd_gradcheck(args) -> int:
    from .synthetic import interaction_rule_dataset, linear_rule_dataset

    config = ModelConfig(
        sentence_dim=3,
        pairwise_dim=2,
        hidden_per_block=args.hidden,
        architecture=args.arch,
        seed=args.seed,
    )
    model = init_model(config)
    # Sentence vectors from one planted rule, pairwise features and labels from the other.
    sent, _ = interaction_rule_dataset(8, sentence_dim=3, seed=args.seed)
    pair, y = linear_rule_dataset(8, pairwise_dim=2, seed=args.seed + 1)
    batch = dataclasses.replace(sent, F1=pair.F1, F2=pair.F2)
    err = grad_check(model, batch, y, CostConfig(kind=args.cost), step=args.step)
    print(f"max relative error {err:.3e}")
    return 0 if err <= 1e-5 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairrank")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("extract", help="extract feature vectors from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--schema", action="store_true", help="print the feature schema and exit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a ranking model")
    p.add_argument("--data", required=True)
    p.add_argument("--valid")
    p.add_argument("--embeddings")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--config", help="JSON file of option values; flags override")
    for key in TRAIN_OPTIONS:
        _add_option(p, key)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model, print per-split tau")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--tie-epsilon", dest="tie_epsilon", type=float, default=DEFAULT_TIE_EPSILON)
    p.add_argument("--report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write per-tuple decisions")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--tie-epsilon", dest="tie_epsilon", type=float, default=DEFAULT_TIE_EPSILON)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient self-check")
    for key in ("seed", "cost", "arch", "hidden"):
        _add_option(p, key, default=_default(key))
    p.add_argument("--step", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
