"""The pairwise ranking network.

Three hidden "interaction" blocks look at (t1,t2), (t1,r) and (t2,r)
sentence-vector pairs; their tanh activations, together with the raw
pairwise feature vectors for each hypothesis, feed a logistic output
unit. The single-layer variant skips the blocks and feeds everything
straight into the output unit (plain logistic regression).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import IO, Sequence

import numpy as np

MULTI_LAYER = "multi-layer"
SINGLE_LAYER = "single-layer"
ARCHITECTURES = (MULTI_LAYER, SINGLE_LAYER)


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    sentence_dim: int
    pairwise_dim: int
    hidden_per_block: int = 4
    architecture: str = MULTI_LAYER
    seed: int = 0

    def __post_init__(self):
        if self.sentence_dim < 0 or self.pairwise_dim < 0:
            raise ValueError("dimensions must be non-negative")
        if self.sentence_dim + self.pairwise_dim < 1:
            raise ValueError("need at least one input source")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture: {self.architecture}")
        if self.architecture == MULTI_LAYER and self.hidden_per_block < 1:
            raise ValueError("hidden_per_block must be positive")

    @property
    def output_dim(self) -> int:
        """Length of the output-layer weight vector."""
        if self.architecture == MULTI_LAYER:
            return 3 * self.hidden_per_block + 2 * self.pairwise_dim
        return 3 * self.sentence_dim + 2 * self.pairwise_dim


# Hypothesis 1 better / hypothesis 2 better / undecided.
T1_BETTER = "t1-better"
T2_BETTER = "t2-better"
TIE = "tie"

DEFAULT_TIE_EPSILON = 1e-6

_BLOCK_PARAMS = ("W12", "b12", "W1r", "b1r", "W2r", "b2r")
PARAM_NAMES = _BLOCK_PARAMS + ("w_out", "b_out")


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        c = self.config
        if c.architecture == MULTI_LAYER:
            h, d = c.hidden_per_block, c.sentence_dim
            for w in ("W12", "W1r", "W2r"):
                if self.params[w].shape != (h, 2 * d):
                    raise ShapeMismatchError(f"{w} must be {h}x{2 * d}")
            for b in ("b12", "b1r", "b2r"):
                if self.params[b].shape != (h,):
                    raise ShapeMismatchError(f"{b} must have length {h}")
        if self.params["w_out"].shape != (c.output_dim,):
            raise ShapeMismatchError(f"w_out must have length {c.output_dim}")
        if self.params["b_out"].shape != ():
            raise ShapeMismatchError("b_out must be a scalar")
        for name, p in self.params.items():
            if not np.all(np.isfinite(p)):
                raise ShapeMismatchError(f"non-finite values in {name}")

    @property
    def param_names(self) -> tuple[str, ...]:
        if self.config.architecture == MULTI_LAYER:
            return PARAM_NAMES
        return ("w_out", "b_out")

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.params.items()})


def sigmoid(x):
    # exp overflow saturates to 0 or 1, which is the right limit.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def init_model(config: ModelConfig) -> Model:
    """Seeded Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(config.seed)

    def uniform(shape, fan_in, fan_out):
        eps = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-eps, eps, size=shape)

    params: dict[str, np.ndarray] = {}
    if config.architecture == MULTI_LAYER:
        h, d = config.hidden_per_block, config.sentence_dim
        for w in ("W12", "W1r", "W2r"):
            params[w] = uniform((h, 2 * d), 2 * d, h)
        for b in ("b12", "b1r", "b2r"):
            params[b] = np.zeros(h)
    k = config.output_dim
    params["w_out"] = uniform((k,), k, 1)
    params["b_out"] = np.array(0.0)
    return Model(config=config, params=params)


@dataclass
class Batch:
    """Model inputs for a set of tuples, one row per tuple.

    P1, P2 and Pr hold the sentence vectors of hypothesis 1, hypothesis 2
    and the reference (N x sentence_dim); F1 and F2 hold each
    hypothesis's pairwise features against the reference
    (N x pairwise_dim).
    """

    P1: np.ndarray
    P2: np.ndarray
    Pr: np.ndarray
    F1: np.ndarray
    F2: np.ndarray

    def __len__(self) -> int:
        return self.P1.shape[0]

    def swapped(self) -> "Batch":
        """The same tuples with the two hypotheses exchanged."""
        return Batch(self.P2, self.P1, self.Pr, self.F2, self.F1)

    def take(self, idx) -> "Batch":
        """The rows at ``idx``, in that order."""
        return Batch(self.P1[idx], self.P2[idx], self.Pr[idx], self.F1[idx], self.F2[idx])

    def astype(self, dtype) -> "Batch":
        """A copy with every column cast to ``dtype``."""
        return Batch(*(a.astype(dtype) for a in (self.P1, self.P2, self.Pr, self.F1, self.F2)))


def pack(rows: Sequence[tuple]) -> Batch:
    """A batch from one or more (psi_t1, psi_t2, psi_r, phi_t1r, phi_t2r) rows of number sequences."""
    return Batch(*(np.array(column, dtype=float) for column in zip(*rows)))


def _check_batch(model: Model, batch: Batch) -> None:
    c = model.config
    if batch.P1.shape[1] != c.sentence_dim or batch.F1.shape[1] != c.pairwise_dim:
        raise ShapeMismatchError(
            f"input dims ({batch.P1.shape[1]}, {batch.F1.shape[1]}) do not match "
            f"config ({c.sentence_dim}, {c.pairwise_dim})"
        )


def forward_batch(model: Model, batch: Batch):
    """Output activations for a whole batch, and the layer cache that backward_batch takes."""
    _check_batch(model, batch)
    p = model.params
    if model.config.architecture == MULTI_LAYER:
        X12 = np.hstack([batch.P1, batch.P2])
        X1r = np.hstack([batch.P1, batch.Pr])
        X2r = np.hstack([batch.P2, batch.Pr])
        H12 = np.tanh(X12 @ p["W12"].T + p["b12"])
        H1r = np.tanh(X1r @ p["W1r"].T + p["b1r"])
        H2r = np.tanh(X2r @ p["W2r"].T + p["b2r"])
        Z = np.hstack([H12, H1r, H2r, batch.F1, batch.F2])
        cache = (X12, X1r, X2r, H12, H1r, H2r, Z)
    else:
        Z = np.hstack([batch.P1, batch.P2, batch.Pr, batch.F1, batch.F2])
        cache = (Z,)
    sigma = sigmoid(Z @ p["w_out"] + p["b_out"])
    return sigma, cache


def backward_batch(model: Model, batch: Batch, cache, dz: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given upstream dJ/d(pre-sigmoid output), summed over the batch."""
    p = model.params
    grads: dict[str, np.ndarray] = {}
    if model.config.architecture == MULTI_LAYER:
        X12, X1r, X2r, H12, H1r, H2r, Z = cache
        h = model.config.hidden_per_block
        grads["w_out"] = Z.T @ dz
        grads["b_out"] = np.array(dz.sum())
        dZ = np.outer(dz, p["w_out"])
        for name, (H, X, lo) in {
            "12": (H12, X12, 0),
            "1r": (H1r, X1r, h),
            "2r": (H2r, X2r, 2 * h),
        }.items():
            dA = dZ[:, lo : lo + h] * (1.0 - H * H)
            grads[f"W{name}"] = dA.T @ X
            grads[f"b{name}"] = dA.sum(axis=0)
    else:
        (Z,) = cache
        grads["w_out"] = Z.T @ dz
        grads["b_out"] = np.array(dz.sum())
    return grads


def decide(delta: float, tie_epsilon: float = DEFAULT_TIE_EPSILON) -> str:
    if abs(delta) <= tie_epsilon:
        return TIE
    return T1_BETTER if delta > 0 else T2_BETTER


def save_model(model: Model, sink: IO[str]) -> None:
    doc = {
        "config": asdict(model.config),
        "params": {k: v.tolist() for k, v in model.params.items()},
    }
    json.dump(doc, sink)


def load_model(source: IO[str]) -> Model:
    doc = json.load(source)
    # Older checkpoints name the hidden activation, which is always tanh.
    activation = doc["config"].pop("hidden_activation", "tanh")
    if activation != "tanh":
        raise ValueError(f"unknown activation: {activation}")
    config = ModelConfig(**doc["config"])
    params = {k: np.array(v, dtype=float) for k, v in doc["params"].items()}
    params["b_out"] = np.array(float(doc["params"]["b_out"]))
    return Model(config=config, params=params)
