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


def flat_copy(model: Model) -> tuple[np.ndarray, Model]:
    """The parameters copied into one vector, in param_shapes order, and a model
    whose parameters are views into it."""
    names = model.param_names
    flat = np.concatenate([model.params[name].ravel() for name in names])
    parts = np.split(flat, np.cumsum([model.params[name].size for name in names])[:-1])
    return flat, Model(model.config, {name: v.reshape(model.params[name].shape) for name, v in zip(names, parts)})


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
    # The blocks' inputs built so far, by block name (see block_inputs).
    _inputs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Read-only from here on: block_inputs caches what it builds from them.
        for column in (self.P1, self.P2, self.Pr, self.F1, self.F2):
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.P1.shape[0]

    def block_inputs(self) -> list[np.ndarray]:
        """Each block's input, in BLOCKS order: its two sentence-vector columns
        side by side (N x 2 * sentence_dim). Built on first use and kept."""
        for name, (a, b) in BLOCKS.items():
            if name not in self._inputs:
                self._inputs[name] = np.hstack([getattr(self, a), getattr(self, b)])
        return [self._inputs[name] for name in BLOCKS]

    def swapped(self) -> "Batch":
        """The same tuples with the two hypotheses exchanged. It shares the
        (t1,r) and (t2,r) block inputs built so far, which trade places."""
        out = Batch(self.P2, self.P1, self.Pr, self.F2, self.F1)
        out._inputs = {{"1r": "2r", "2r": "1r"}[name]: x for name, x in self._inputs.items() if name != "12"}
        return out

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
    """Output activations for a whole batch, and the layer cache that backward_batch takes.

    The output unit reads one N x len(w_out) matrix Z, filled in place and of
    the inputs' dtype: the blocks' tanh units in BLOCKS order (for the
    single-layer model, P1, P2 and Pr), then F1 and F2.
    """
    _check_batch(model, batch)
    p, h = model.params, model.config.hidden_per_block
    if model.config.architecture == MULTI_LAYER:
        X, copied = batch.block_inputs(), [batch.F1, batch.F2]
    else:
        X, copied = [], [batch.P1, batch.P2, batch.Pr, batch.F1, batch.F2]
    Z = np.empty((len(batch), p["w_out"].size), np.result_type(batch.F1, p["w_out"]))
    k = len(X) * h
    np.concatenate(copied, axis=1, out=Z[:, k:])
    for i, (name, x) in enumerate(zip(BLOCKS, X)):
        np.matmul(x, p[f"W{name}"].T, out=Z[:, i * h : (i + 1) * h])
    if X:
        units = Z[:, :k]
        units += np.concatenate([p[f"b{name}"] for name in BLOCKS])
        np.tanh(units, out=units)
    sigma = sigmoid(Z @ p["w_out"] + p["b_out"])
    return sigma, (X, Z)


def backward_batch(model: Model, batch: Batch, cache, dz: np.ndarray) -> np.ndarray:
    """Parameter gradients given upstream dJ/d(pre-sigmoid output), summed over the
    batch, as one vector in param_shapes order (as flat_copy lays them out)."""
    X, Z = cache
    h, n_in = model.config.hidden_per_block, 2 * model.config.sentence_dim
    k = len(X) * h
    # param_shapes order: block weights, block biases, w_out, b_out.
    grad = np.empty(k * (n_in + 1) + Z.shape[1] + 1, np.result_type(Z, dz))
    if X:
        # The slope at each block unit, block by block (blocks x N x h): each
        # block's slice then multiplies and sums as a block of its own would.
        units = Z[:, :k].reshape(len(Z), len(X), h).transpose(1, 0, 2)
        dA = dz[:, None] * model.params["w_out"][:k].reshape(len(X), 1, h)
        dA *= 1.0 - units * units
        dW = grad[: k * n_in].reshape(len(X), h, n_in)
        for i, x in enumerate(X):
            np.matmul(dA[i].T, x, out=dW[i])
        np.sum(dA, axis=1, out=grad[k * n_in : k * (n_in + 1)].reshape(len(X), h))
    np.matmul(Z.T, dz, out=grad[-1 - Z.shape[1] : -1])
    grad[-1] = dz.sum()
    return grad


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
    # JSON true and false load as bool, an int subclass; 1.0 and null are not integers either.
    problems += [
        f"config key {f.name} must be an integer, got {json.dumps(config[f.name])}"
        for f in fields(ModelConfig)
        if f.type == "int" and f.name in config and type(config[f.name]) is not int
    ]
    if problems:
        raise ShapeMismatchError("; ".join(problems))
    params = {k: _param_array(k, v) for k, v in doc["params"].items()}
    return Model(config=ModelConfig(**config), params=params)
