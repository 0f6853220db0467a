"""Kendall's tau over pairwise preference decisions.

Each evaluated tuple is concordant when the model's preferred hypothesis
matches the human one, disconcordant when it picks the other, and a tie
when the activation difference falls inside the tie band. Ties count
against the metric: tau = (c - d - t) / (c + d + t).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Optional, Sequence

import numpy as np

from .model import Batch, Model, ShapeMismatchError, forward_batch

# Not called here: the benchmark's traced run hooks this name on this module.
from .model import pack  # noqa: F401

DEFAULT_TIE_EPSILON = 1e-6


class EmptyEvaluation(ValueError):
    pass


@dataclass
class PairCounts:
    concordant: int = 0
    disconcordant: int = 0
    ties: int = 0

    @property
    def total(self) -> int:
        return self.concordant + self.disconcordant + self.ties


@dataclass
class EvalReport:
    counts: PairCounts
    tau: float
    tie_epsilon: float
    per_split: dict[str, tuple[PairCounts, float]] = field(default_factory=dict)


def kendall_tau(counts: PairCounts) -> float:
    if counts.total == 0:
        raise EmptyEvaluation("no evaluated pairs")
    return (counts.concordant - counts.disconcordant - counts.ties) / counts.total


def check_tie_epsilon(tie_epsilon: float) -> None:
    """Refuse a tie band that is not a finite, non-negative width."""
    if not 0 <= tie_epsilon < np.inf:
        raise ValueError(f"tie_epsilon must be finite and non-negative, got {tie_epsilon}")


def verdicts(deltas: np.ndarray, tie_epsilon: float) -> np.ndarray:
    """The model's verdict on each tuple, coded as the label it agrees with.

    1: hypothesis 1 is better (delta > tie_epsilon); 0: hypothesis 2 is
    (delta < -tie_epsilon); -1: a tie (|delta| <= tie_epsilon).
    """
    return np.where(np.abs(deltas) <= tie_epsilon, -1, (deltas > 0).astype(int))


def _count(deltas: np.ndarray, labels: np.ndarray, tie_epsilon: float) -> PairCounts:
    v = verdicts(deltas, tie_epsilon)
    c, t = int(np.sum(v == labels)), int(np.sum(v == -1))
    return PairCounts(concordant=c, disconcordant=len(v) - c - t, ties=t)


def predict_delta(model: Model, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Output activations for each tuple as given and with its hypotheses swapped.

    The activation difference ``sigma - sigma_rev`` is the model's
    preference for hypothesis 1.
    """
    # Index the results so that neither layer cache outlives its call.
    return forward_batch(model, batch)[0], forward_batch(model, batch, swapped=True)[0]


def evaluate(
    model: Model,
    batch: Batch,
    tie_epsilon: float = DEFAULT_TIE_EPSILON,
    splits: Optional[Sequence[str]] = None,
) -> EvalReport:
    """Score every tuple against its label, ``batch.y``; aggregate counts overall and per split."""
    check_tie_epsilon(tie_epsilon)
    if len(batch) == 0:
        raise EmptyEvaluation("empty dataset")
    if splits is not None and len(splits) != len(batch):
        raise ShapeMismatchError(f"{len(splits)} splits for {len(batch)} tuples")
    sigma, sigma_rev = predict_delta(model, batch)
    deltas = sigma - sigma_rev
    counts = _count(deltas, batch.y, tie_epsilon)
    per_split: dict[str, tuple[PairCounts, float]] = {}
    if splits is not None:
        names = np.array(list(splits))
        for name in sorted(set(splits)):
            mask = names == name
            sc = _count(deltas[mask], batch.y[mask], tie_epsilon)
            per_split[name] = (sc, kendall_tau(sc))
    return EvalReport(
        counts=counts,
        tau=kendall_tau(counts),
        tie_epsilon=tie_epsilon,
        per_split=per_split,
    )


def save_report(report: EvalReport, sink: IO[str]) -> None:
    doc = {
        "counts": vars(report.counts),
        "tau": report.tau,
        "tie_epsilon": report.tie_epsilon,
        "per_split": {
            name: {"counts": vars(c), "tau": t} for name, (c, t) in report.per_split.items()
        },
    }
    sink.write(json.dumps(doc))
