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
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import data_ingest, evaluation
from .embeddings import EmbeddingTable, load_embedding_table
from .features import BLEUCOMP_FEATURE_NAMES
from .evaluation import DEFAULT_TIE_EPSILON, predict_delta, verdicts
from .model import Batch, ModelConfig, expected, init_model, load_model, save_model
from .training import CostConfig, TrainConfig, grad_check, train

# Each train option: its config-file key (the flag is the key with "-" for
# "_"), and the config dataclass and field it sets. The field declares the
# values the option takes (model.expected) and its default.
TRAIN_OPTIONS = {
    "cost": (CostConfig, "kind"),
    "epochs": (TrainConfig, "epochs"),
    "lr": (TrainConfig, "learning_rate"),
    "batch_size": (TrainConfig, "batch_size"),
    "seed": (ModelConfig, "seed"),
    "shuffle_seed": (TrainConfig, "shuffle_seed"),
    "hidden": (ModelConfig, "hidden_per_block"),
    "arch": (ModelConfig, "architecture"),
    "gamma": (CostConfig, "gamma"),
    "beta": (CostConfig, "beta"),
    "tie_weight": (CostConfig, "tie_weight"),
    "pretrain_epochs": (CostConfig, "pretrain_epochs"),
    "l2": (TrainConfig, "l2"),
    "patience": (TrainConfig, "early_stop_patience"),
}


def _field(key: str) -> dataclasses.Field:
    cls, name = TRAIN_OPTIONS[key]
    return {f.name: f for f in dataclasses.fields(cls)}[name]


def _add_option(parser: argparse.ArgumentParser, key: str, field_default: bool = False) -> None:
    """The flag of option ``key``, parsed to its field's choices or type; its default
    is the field's with ``field_default``, else None (not given)."""
    f = _field(key)
    choices = f.metadata.get("choices")
    check = {"choices": choices} if choices else {"type": float if f.type == "float" else int}
    parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=f.default if field_default else None, **check)


def _read_config(path: str) -> dict:
    """The options in a JSON config file, each refused unless its field takes it."""
    with open(path, encoding="utf-8") as f:
        opts = json.load(f)
    if not isinstance(opts, dict):
        raise ValueError(f"config must be a JSON object of options, got {json.dumps(opts)}")
    unknown = set(opts) - set(TRAIN_OPTIONS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in opts.items():
        need = expected(_field(key), value)
        if need:
            raise ValueError(f"config key {key!r} must be {need}, got {json.dumps(value)}")
    return opts


def _train_fields(args: argparse.Namespace) -> dict[type, dict]:
    """Field values per config class: flags, then the config file; fields not set keep their defaults."""
    opts = _read_config(args.config) if args.config else {}
    opts.update((key, getattr(args, key)) for key in TRAIN_OPTIONS if getattr(args, key) is not None)
    fields: dict[type, dict] = {ModelConfig: {}, TrainConfig: {}, CostConfig: {}}
    for key, value in opts.items():
        cls, name = TRAIN_OPTIONS[key]
        fields[cls][name] = value
    return fields


def _load_table(embeddings_path: Optional[str]) -> Optional[EmbeddingTable]:
    return load_embedding_table(embeddings_path) if embeddings_path else None


def _load_data(path: str, table: Optional[EmbeddingTable]):
    """The dataset at ``path`` and its batch of model inputs."""
    dataset = data_ingest.load_dataset(path)
    return dataset, data_ingest.vectorize(dataset, table)


def _python_rows(column: np.ndarray):
    """The rows of ``column`` as Python values, converted 256 rows at a time."""
    return chain.from_iterable(map(np.ndarray.tolist, np.split(column, range(256, len(column), 256))))


def _write_jsonl(columns: dict[str, Sequence], path: Optional[str]) -> None:
    """Write each row of ``columns`` (named, of one length) as a JSON object, keys in
    column order, one per line to ``path``, or to standard output without one. A
    column is a list, or an array, which is never held whole as Python values.

    A reader that closes standard output early (``pairrank predict | head``)
    ends the output quietly, as the end of a pipeline, not as an error.
    """
    names = list(columns)
    values = (_python_rows(c) if isinstance(c, np.ndarray) else c for c in columns.values())
    lines = (json.dumps(dict(zip(names, row))) + "\n" for row in zip(*values, strict=True))
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
    if args.schema:
        # The schema is the dataset's alone: no table is read and no features are made.
        for name in (*BLEUCOMP_FEATURE_NAMES, *data_ingest.load_dataset(args.data).feature_schema):
            print(name)
        return 0
    dataset, batch = _load_data(args.data, _load_table(args.embeddings))
    _write_jsonl({"id": dataset.ids, "split": dataset.splits, "y": batch.y, "phi_t1r": batch.F1, "phi_t2r": batch.F2,
                  "psi_t1": batch.P1, "psi_t2": batch.P2, "psi_r": batch.Pr}, args.out)
    return 0


def _check_valid_matches(data, data_batch, valid, valid_batch) -> None:
    """Refuse a --valid set whose features are not the ones --data trains on."""
    if valid.feature_schema != data.feature_schema:
        raise data_ingest.InconsistentSchema(
            f"--valid has feature schema {list(valid.feature_schema)}, --data has {list(data.feature_schema)}"
        )
    widths = valid_batch.P1.shape[1], data_batch.P1.shape[1]
    if widths[0] != widths[1]:
        raise data_ingest.InconsistentSchema(
            f"--valid has sentence vectors of width {widths[0]}, --data has width {widths[1]}"
        )


def _train_batches(args) -> tuple[Batch, Batch]:
    """The training batch and the validation batch, and nothing else, so that the table
    and the datasets are freed before training starts."""
    table = _load_table(args.embeddings)
    dataset, batch = _load_data(args.data, table)
    # Without --valid, training validates on the training set itself.
    if not args.valid:
        return batch, batch
    valid_set, valid_batch = _load_data(args.valid, table)
    _check_valid_matches(dataset, batch, valid_set, valid_batch)
    return batch, valid_batch


def cmd_train(args) -> int:
    fields = _train_fields(args)
    tcfg, ccfg = TrainConfig(**fields[TrainConfig]), CostConfig(**fields[CostConfig])
    batch, valid_batch = _train_batches(args)
    config = ModelConfig(sentence_dim=batch.P1.shape[1], pairwise_dim=batch.F1.shape[1], **fields[ModelConfig])
    model, report = train(init_model(config), batch, valid_batch, tcfg, ccfg)
    with open(args.out, "w", encoding="utf-8") as f:
        save_model(model, f)
    if args.report:
        # Wall-clock is kept in memory only, so that identical runs write identical bytes.
        _write_jsonl({name: [getattr(r, name) for r in report.epochs]
                      for name in ("epoch", "cost_kind", "train_cost", "valid_tau")}, args.report)
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
    rows = sorted(report.per_split)
    taus = [report.per_split[s][1] for s in rows]
    header = "".join(f"{s:>12}" for s in rows + ["AVG"])
    values = "".join(f"{t * 100:12.2f}" for t in taus + [float(np.mean(taus))])
    print(header)
    print(values)


def _scoring_inputs(args):
    """What evaluate and predict score, in order: the tie band checked, the dataset and its batch, the model."""
    evaluation.check_tie_epsilon(args.tie_epsilon)
    dataset, batch = _load_data(args.data, _load_table(args.embeddings))
    with open(args.model, encoding="utf-8") as f:
        return dataset, batch, load_model(f)


def cmd_evaluate(args) -> int:
    dataset, batch, model = _scoring_inputs(args)
    report = evaluation.evaluate(model, batch, tie_epsilon=args.tie_epsilon, splits=dataset.splits)
    _print_tau_table(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            evaluation.save_report(report, f)
    return 0


# The decision predict writes for each verdict code, indexed by it: 0, 1 and -1 (the last).
DECISIONS = np.array(["t2-better", "t1-better", "tie"])


def cmd_predict(args) -> int:
    dataset, batch, model = _scoring_inputs(args)
    sigma, sigma_rev = predict_delta(model, batch)
    deltas = sigma - sigma_rev
    decisions = DECISIONS[verdicts(deltas, args.tie_epsilon)]
    _write_jsonl({"id": dataset.ids, "sigma": sigma, "sigma_rev": sigma_rev, "delta": deltas, "decision": decisions},
                 args.out)
    return 0


def cmd_gradcheck(args) -> int:
    from .synthetic import mixed_rule_batch

    model = init_model(ModelConfig(3, 2, hidden_per_block=args.hidden, architecture=args.arch, seed=args.seed))
    err = grad_check(model, mixed_rule_batch(8, args.seed), CostConfig(kind=args.cost))
    print(f"max relative error {err:.3e}")
    return 0 if err <= 1e-5 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairrank")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # The inputs every data subcommand reads, and the model and tie band that evaluate and predict add.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--data", required=True)
    inputs.add_argument("--embeddings")
    scoring = argparse.ArgumentParser(add_help=False, parents=[inputs])
    scoring.add_argument("--model", required=True)
    scoring.add_argument("--tie-epsilon", dest="tie_epsilon", type=float, default=DEFAULT_TIE_EPSILON)

    p = sub.add_parser("extract", parents=[inputs], help="extract feature vectors from a dataset")
    p.add_argument("--schema", action="store_true", help="print the feature schema and exit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[inputs], help="train a ranking model")
    p.add_argument("--valid")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--config", help="JSON file of option values; flags override")
    for key in TRAIN_OPTIONS:
        _add_option(p, key)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[scoring], help="evaluate a model, print per-split tau")
    p.add_argument("--report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[scoring], help="write per-tuple decisions")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient self-check")
    for key in ("seed", "cost", "arch", "hidden"):
        _add_option(p, key, field_default=True)
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
