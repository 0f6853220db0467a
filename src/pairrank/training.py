"""Cost functions, exact backpropagation, and the training loop.

Two per-example costs are available: the standard logistic
(cross-entropy) cost on the output activation, and a ranking cost that
pushes the activation difference between the two hypothesis orderings
toward the gold preference through saturated sigmoids, with a Gaussian
term that penalizes near-ties. A third schedule pre-trains under the
logistic cost and fine-tunes under the ranking cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .evaluation import EmptyEvaluation, evaluate
from .model import Batch, Model, backward_batch, check_fields, flat_copy, forward_batch

# Not called here: the benchmark's traced run hooks this name on this module.
from .model import pack  # noqa: F401

LOGISTIC = "logistic"
KENDALL = "kendall"
LOGISTIC_THEN_KENDALL = "logistic-then-kendall"
# The resolved cost kinds each cost kind trains under: a schedule of two
# pre-trains under the first and fine-tunes under the second.
PHASES = {
    LOGISTIC: (LOGISTIC,),
    KENDALL: (KENDALL,),
    LOGISTIC_THEN_KENDALL: (LOGISTIC, KENDALL),
}
COST_KINDS = tuple(PHASES)

SIGMA_CLAMP = 1e-12

# The parameter step of grad_check's central differences.
GRAD_CHECK_STEP = 1e-6


class DivergenceError(RuntimeError):
    """Training produced a non-finite cost or parameter."""


@dataclass(frozen=True)
class CostConfig:
    kind: str = field(default=LOGISTIC, metadata={"choices": COST_KINDS})
    gamma: float = 100.0
    beta: float = 100.0
    tie_weight: float = 1.0
    pretrain_epochs: Optional[int] = None

    def __post_init__(self):
        check_fields(self)
        if self.gamma <= 0 or self.beta <= 0 or self.tie_weight < 0:
            raise ValueError("gamma, beta must be positive; tie_weight non-negative")
        if self.pretrain_epochs is not None:
            if len(PHASES[self.kind]) == 1:
                raise ValueError(f"pretrain_epochs applies only to the {LOGISTIC_THEN_KENDALL} cost, not {self.kind}")
            if self.pretrain_epochs < 0:
                raise ValueError("pretrain_epochs must be non-negative")

    def phase_kind(self, epoch: int, total_epochs: int) -> str:
        """The resolved cost kind at a given epoch: the first phase for the
        pretrain epochs (half of all epochs by default), then the last."""
        phases = PHASES[self.kind]
        pre = self.pretrain_epochs if self.pretrain_epochs is not None else total_epochs // 2
        return phases[0] if epoch < pre else phases[-1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    shuffle_seed: int = 0
    l2: float = 0.0
    early_stop_patience: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid training configuration")
        if self.l2 < 0 or self.early_stop_patience < 0:
            raise ValueError("l2 and early_stop_patience must be non-negative")


@dataclass
class EpochRecord:
    epoch: int
    cost_kind: str
    train_cost: float
    valid_tau: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: Optional[int] = None


def _logistic_terms(sigma, y):
    """The logistic cost summed over the batch, and its slope dJ/dz at the pre-sigmoid output z."""
    s = np.minimum(np.maximum(sigma, SIGMA_CLAMP), 1.0 - SIGMA_CLAMP)
    return -(y * np.log(s) + (1 - y) * np.log(1.0 - s)).sum(), sigma - y


def _kendall_terms(delta, y, cfg: CostConfig):
    """The ranking cost summed over the batch, and its slope dJ/d(delta), from one
    evaluation of each sigmoid and of the Gaussian tie term."""
    g, b, lam = cfg.gamma, cfg.beta, cfg.tie_weight
    gd, not_y = g * delta, 1 - y
    # sigmoid(-gd) and sigmoid(gd), as model.sigmoid computes them: negation is
    # exact, so exp(gd) is the exp(-(-gd)) that sigmoid(-gd) takes, bit for bit.
    with np.errstate(over="ignore"):
        sig_neg = 1.0 / (1.0 + np.exp(gd))
        sig_pos = 1.0 / (1.0 + np.exp(-gd))
    tie = np.exp(-b * delta * delta / 2.0)
    slope = (
        -g * y * sig_neg * (1.0 - sig_neg)
        + g * not_y * sig_pos * (1.0 - sig_pos)
        - lam * b * delta * tie
    )
    return (y * sig_neg + not_y * sig_pos + lam * tie).sum(), slope


def logistic_cost(sigma, y):
    """Cross-entropy of output activations against labels, summed over the batch.

    ``sigma`` and ``y`` are scalars or arrays; the sum keeps their dtype.
    """
    return _logistic_terms(sigma, y)[0]


def kendall_cost(delta, y, cfg: CostConfig):
    """Ranking cost of activation differences against labels, summed over the batch.

    ``delta`` and ``y`` are scalars or arrays; the sum keeps their dtype.
    """
    return _kendall_terms(delta, y, cfg)[0]


def _batch_gradients(model: Model, batch: Batch, cfg: CostConfig, kind: str):
    """The summed parameter gradients, as one vector in param_shapes order, and the
    batch cost, in the dtype of the parameters and the batch, for one resolved cost kind."""
    sigma, cache = forward_batch(model, batch)
    if kind == LOGISTIC:
        cost, dz = _logistic_terms(sigma, batch.y)
        return backward_batch(model, cache, dz), cost
    if kind != KENDALL:
        raise ValueError(f"cannot take gradients of unresolved cost kind {kind!r}")
    sigma_rev, cache_rev = forward_batch(model, batch, swapped=True)
    cost, dJ_dDelta = _kendall_terms(sigma - sigma_rev, batch.y, cfg)
    # Delta sees sigma with +1 and sigma' with -1; each pass backprops
    # through its own logistic output.
    grad = backward_batch(model, cache, dJ_dDelta * sigma * (1.0 - sigma))
    grad += backward_batch(model, cache_rev, -dJ_dDelta * sigma_rev * (1.0 - sigma_rev))
    return grad, cost


def grad_check(model: Model, batch: Batch, cfg: CostConfig) -> float:
    """Max relative error of analytic vs. central-difference gradients.

    The difference quotient takes the cost in extended precision, from
    the same function that gives training its gradients and cost, run on
    longdouble copies of the parameters and the batch; so float64
    rounding of the cost does not dominate it. The schedule cost kind
    checks each of its phases.
    """
    ld = np.longdouble
    batch_ld = batch.astype(ld)
    flat, model = flat_copy(model)

    def cost_ld(kind):
        params = {k: v.astype(ld) for k, v in model.params.items()}
        return _batch_gradients(Model(model.config, params), batch_ld, cfg, kind)[1]

    max_err = 0.0
    for kind in PHASES[cfg.kind]:
        analytic, _ = _batch_gradients(model, batch, cfg, kind)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRAD_CHECK_STEP
            p_plus = flat[i]
            c_plus = cost_ld(kind)
            flat[i] = orig - GRAD_CHECK_STEP
            p_minus = flat[i]
            c_minus = cost_ld(kind)
            flat[i] = orig
            # Effective step: the float64 perturbations round, so use
            # the realized parameter difference.
            numeric = float((c_plus - c_minus) / ld(p_plus - p_minus))
            denom = max(abs(analytic[i]), abs(numeric), 1e-12)
            max_err = max(max_err, abs(analytic[i] - numeric) / denom)
    return max_err


# Divergence overflows to inf or NaN; the finiteness checks below report it as a DivergenceError.
@np.errstate(over="ignore", invalid="ignore")
def train(
    model: Model,
    batch: Batch,
    valid_batch: Batch,
    tcfg: TrainConfig,
    ccfg: CostConfig,
) -> tuple[Model, TrainReport]:
    """Mini-batch gradient descent with seeded per-epoch shuffling.

    The working parameters live in one vector in param_shapes order, which
    each step updates in place; the returned model's parameters are views
    into it, or a copy taken at the best epoch. Each epoch reports Kendall's
    tau on the validation set. An empty training or validation set raises
    ``EmptyEvaluation``. With early stopping enabled (patience > 0) the
    returned model is the best-validation-tau checkpoint; otherwise the
    final one.
    """
    for name, b in (("training", batch), ("validation", valid_batch)):
        if len(b) == 0:
            raise EmptyEvaluation(f"the {name} set is empty")
    pre = ccfg.pretrain_epochs
    if pre is not None and 0 < tcfg.epochs <= pre:
        raise ValueError(f"pretrain_epochs ({pre}) must be less than epochs ({tcfg.epochs})")
    report = TrainReport()
    n = len(batch)
    theta, model = flat_copy(model)
    # L2 decays the weights, not the biases.
    decayed = np.concatenate([np.full(p.size, name.startswith(("W", "w"))) for name, p in model.params.items()])
    rng = np.random.default_rng(tcfg.shuffle_seed)
    best = model
    for epoch in range(tcfg.epochs):
        t0 = time.perf_counter()
        kind = ccfg.phase_kind(epoch, tcfg.epochs)
        perm = rng.permutation(n)
        epoch_cost = 0.0
        for start in range(0, n, tcfg.batch_size):
            idx = perm[start : start + tcfg.batch_size]
            grad, cost = _batch_gradients(model, batch.take(idx), ccfg, kind)
            if not math.isfinite(cost):
                raise DivergenceError(f"non-finite cost at epoch {epoch}")
            epoch_cost += float(cost)
            if tcfg.l2 > 0:
                np.add(grad, tcfg.l2 * theta, out=grad, where=decayed)
            theta -= tcfg.learning_rate * grad
            if not np.isfinite(theta).all():
                name = next(name for name, p in model.params.items() if not np.isfinite(p).all())
                raise DivergenceError(f"non-finite parameter {name} at epoch {epoch}")
        valid_tau = evaluate(model, valid_batch).tau
        report.epochs.append(
            EpochRecord(
                epoch=epoch,
                cost_kind=kind,
                train_cost=epoch_cost,
                valid_tau=valid_tau,
                seconds=time.perf_counter() - t0,
            )
        )
        if report.best_epoch is None or valid_tau > report.epochs[report.best_epoch].valid_tau:
            if tcfg.early_stop_patience > 0:
                best = model.copy()
            report.best_epoch = epoch
        if tcfg.early_stop_patience > 0 and epoch - report.best_epoch > tcfg.early_stop_patience:
            break
    return (best if tcfg.early_stop_patience > 0 else model), report
