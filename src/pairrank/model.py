"""The pairwise ranking network.

Three hidden "interaction" blocks look at (t1,t2), (t1,r) and (t2,r)
sentence-vector pairs; their tanh activations, together with the raw
pairwise feature vectors for each hypothesis, feed a logistic output
unit. The single-layer variant skips the blocks and feeds everything
straight into the output unit (plain logistic regression).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
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


# The interaction blocks of the multi-layer network: each block's name and
# the two sentence-vector columns of the Batch whose concatenation it reads.
# Its parameters are W<name> (hidden_per_block x 2 * sentence_dim) and
# b<name>; its tanh units fill the next hidden_per_block inputs of the
# output layer.
BLOCKS = {"12": ("P1", "P2"), "1r": ("P1", "Pr"), "2r": ("P2", "Pr")}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in checkpoint order: block weights, block biases,
    then the output layer, whose inputs are the three blocks' units (the three
    sentence vectors for the single-layer model) and the two pairwise vectors."""
    h, d = config.hidden_per_block, config.sentence_dim
    shapes: dict[str, tuple[int, ...]] = {}
    if config.architecture == MULTI_LAYER:
        shapes.update({f"W{name}": (h, 2 * d) for name in BLOCKS})
        shapes.update({f"b{name}": (h,) for name in BLOCKS})
        inner = len(BLOCKS) * h
    else:
        inner = 3 * d
    return shapes | {"w_out": (inner + 2 * config.pairwise_dim,), "b_out": ()}


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        shapes = param_shapes(self.config)
        missing = [name for name in shapes if name not in self.params]
        extra = [name for name in self.params if name not in shapes]
        if missing or extra:
            raise ShapeMismatchError(
                "; ".join([f"missing parameter {n}" for n in missing] + [f"unexpected parameter {n}" for n in extra])
            )
        for name, shape in shapes.items():
            if self.params[name].shape != shape:
                raise ShapeMismatchError(f"{name} must have shape {shape}, got {self.params[name].shape}")
            if not np.all(np.isfinite(self.params[name])):
                raise ShapeMismatchError(f"non-finite values in {name}")

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(param_shapes(self.config))

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.params.items()})


def sigmoid(x):
    # exp overflow saturates to 0 or 1, which is the right limit.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def init_model(config: ModelConfig) -> Model:
    """Seeded Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("b"):
            params[name] = np.zeros(shape)
            continue
        # A weight matrix maps its columns to its rows; w_out feeds one unit.
        fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
        eps = np.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-eps, eps, size=shape)
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
        X = [np.hstack([getattr(batch, a), getattr(batch, b)]) for a, b in BLOCKS.values()]
        inner = [np.tanh(x @ p[f"W{name}"].T + p[f"b{name}"]) for name, x in zip(BLOCKS, X)]
    else:
        X, inner = [], [batch.P1, batch.P2, batch.Pr]
    Z = np.hstack(inner + [batch.F1, batch.F2])
    sigma = sigmoid(Z @ p["w_out"] + p["b_out"])
    return sigma, (X, inner, Z)


def backward_batch(model: Model, batch: Batch, cache, dz: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given upstream dJ/d(pre-sigmoid output), summed over the batch."""
    X, H, Z = cache
    h = model.config.hidden_per_block
    grads = {"w_out": Z.T @ dz, "b_out": np.array(dz.sum())}
    # Only the block units' slice of the output weights reaches a block.
    dZ = np.outer(dz, model.params["w_out"][: len(X) * h])
    for i, (name, x, units) in enumerate(zip(BLOCKS, X, H)):
        dA = dZ[:, i * h : (i + 1) * h] * (1.0 - units * units)
        grads[f"W{name}"] = dA.T @ x
        grads[f"b{name}"] = dA.sum(axis=0)
    return grads


def save_model(model: Model, sink: IO[str]) -> None:
    doc = {
        "config": asdict(model.config),
        "params": {k: v.tolist() for k, v in model.params.items()},
    }
    json.dump(doc, sink)


def _param_array(name: str, value) -> np.ndarray:
    """A checkpoint parameter as a float array; a string, null, true/false or ragged nesting raises naming it."""
    try:
        a = np.array(value)
    except ValueError as exc:
        raise ShapeMismatchError(f"{name} must be an array of numbers") from exc
    if a.dtype.kind not in "if":
        raise ShapeMismatchError(f"{name} must be an array of numbers")
    return a.astype(float)


def load_model(source: IO[str]) -> Model:
    doc = json.load(source)
    for key in ("config", "params"):
        if not (isinstance(doc, dict) and isinstance(doc.get(key), dict)):
            raise ShapeMismatchError(f"checkpoint has no {key} object")
    config = doc["config"]
    # Older checkpoints name the hidden activation, which is always tanh.
    activation = config.pop("hidden_activation", "tanh")
    if activation != "tanh":
        raise ValueError(f"unknown activation: {activation}")
    known = {f.name: f.default is MISSING for f in fields(ModelConfig)}
    problems = [f"unexpected config key {k}" for k in config if k not in known]
    problems += [f"missing config key {k}" for k, required in known.items() if required and k not in config]
    if problems:
        raise ShapeMismatchError("; ".join(problems))
    params = {k: _param_array(k, v) for k, v in doc["params"].items()}
    return Model(config=ModelConfig(**config), params=params)
