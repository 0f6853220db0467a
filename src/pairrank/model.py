"""The pairwise ranking network.

Three hidden "interaction" blocks look at (t1,t2), (t1,r) and (t2,r)
sentence-vector pairs; their tanh activations, together with the raw
pairwise feature vectors for each hypothesis, feed a logistic output
unit. The single-layer variant skips the blocks and feeds everything
straight into the output unit (plain logistic regression).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, Field, asdict, dataclass, field, fields
from typing import IO, Optional, Sequence

import numpy as np

MULTI_LAYER = "multi-layer"
SINGLE_LAYER = "single-layer"
ARCHITECTURES = (MULTI_LAYER, SINGLE_LAYER)


class ShapeMismatchError(ValueError):
    pass


class LabelError(ValueError):
    pass


def expected(f: Field, value) -> Optional[str]:
    """None where config field ``f`` takes ``value``, else what it takes: one of the
    choices in its metadata, a number (annotated float) that a float can hold, or an
    integer (annotated int; Optional[int] also takes None)."""
    if "choices" in f.metadata:
        return None if value in f.metadata["choices"] else f"one of {list(f.metadata['choices'])}"
    # A bool is an int subclass but not a number, and neither it nor a numpy integer saves as a JSON integer.
    if f.type == "float":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return "a number"
        try:
            float(value)
        except OverflowError:  # an int too large for a float, which would fail wherever it is used as one
            return "a number within float range"
        return None
    return None if type(value) is int or value is None and f.type == "Optional[int]" else "an integer"


def check_fields(config) -> None:
    """Refuse a config field whose value its declaration does not take (see
    ``expected``), or a float field that is not finite."""
    for f in fields(config):
        value = getattr(config, f.name)
        need = expected(f, value)
        if need:
            raise ShapeMismatchError(f"config key {f.name} must be {need}, got {json.dumps(value, default=repr)}")
        # NaN fails every ordered comparison, so the range checks alone would let it through.
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    sentence_dim: int
    pairwise_dim: int
    hidden_per_block: int = 4
    architecture: str = field(default=MULTI_LAYER, metadata={"choices": ARCHITECTURES})
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.sentence_dim < 0 or self.pairwise_dim < 0:
            raise ValueError("dimensions must be non-negative")
        if self.sentence_dim + self.pairwise_dim < 1:
            raise ValueError("need at least one input source")
        if self.architecture == MULTI_LAYER and self.hidden_per_block < 1:
            raise ValueError("hidden_per_block must be positive")


# The interaction blocks of the multi-layer network: each block's name and
# the two columns of a Batch's P (0 hypothesis 1, 1 hypothesis 2, 2 the
# reference) whose concatenation it reads. Its parameters are W<name>
# (hidden_per_block x 2 * sentence_dim) and b<name>; its tanh units fill the
# next hidden_per_block inputs of the output layer.
BLOCKS = {"12": (0, 1), "1r": (0, 2), "2r": (1, 2)}


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
        for name, value in self.params.items():
            try:
                a = np.asarray(value)
            except ValueError as exc:
                raise ShapeMismatchError(f"{name} must be an array of numbers") from exc
            # numpy reads a true or false among numbers as 1 or 0, so look for one among the values themselves.
            if a.dtype.kind not in "if" or a is not value and bool in map(type, np.array(value, dtype=object).flat):
                raise ShapeMismatchError(f"{name} must be an array of numbers")
            # Float arrays are kept as they are: a flat copy's views, or grad_check's longdouble copies.
            self.params[name] = a = a.astype(float) if a.dtype.kind == "i" else a
            if a.shape != shapes[name]:
                raise ShapeMismatchError(f"{name} must have shape {shapes[name]}, got {a.shape}")
            if not np.all(np.isfinite(a)):
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


COLUMNS = ("P", "F", "y")


@dataclass
class Batch:
    """Model inputs for a set of tuples, one row per tuple, laid out as the network reads them.

    P holds the sentence vectors of hypothesis 1, hypothesis 2 and the
    reference side by side (N x 3 x sentence_dim), and P1, P2 and Pr are
    views of its three columns; F holds each hypothesis's pairwise features
    against the reference side by side (N x 2 x pairwise_dim), and F1 and F2
    are views of its two columns; y holds each tuple's label (N,), 1 where
    hypothesis 1 was judged better and 0 where hypothesis 2 was, as ints or
    floats. The constructor checks these shapes and labels, then takes over
    the arrays it was given and makes them read-only in place.
    """

    P: np.ndarray
    F: np.ndarray
    y: np.ndarray

    P1 = property(lambda self: self.P[:, 0])
    P2 = property(lambda self: self.P[:, 1])
    Pr = property(lambda self: self.P[:, 2])
    F1 = property(lambda self: self.F[:, 0])
    F2 = property(lambda self: self.F[:, 1])

    def __post_init__(self):
        columns = (self.P, self.F, self.y)
        if self.P.ndim != 3 or self.P.shape[1] != 3:
            raise ShapeMismatchError(f"P must have shape (N, 3, sentence_dim), got {self.P.shape}")
        if self.F.ndim != 3 or self.F.shape[1] != 2:
            raise ShapeMismatchError(f"F must have shape (N, 2, pairwise_dim), got {self.F.shape}")
        if self.y.ndim != 1:
            raise ShapeMismatchError(f"y must be 1-D, got shape {self.y.shape}")
        rows = [len(column) for column in columns]
        if len(set(rows)) > 1:
            counts = ", ".join(f"{name} {n}" for name, n in zip(COLUMNS, rows))
            raise ShapeMismatchError(f"batch columns differ in rows: {counts}")
        for name in ("P", "F"):
            if not np.isfinite(getattr(self, name)).all():
                raise ShapeMismatchError(f"non-finite values in {name}")
        if self.y.dtype.kind not in "iuf":
            raise LabelError(f"labels must be ints or floats, got {self.y.dtype}")
        bad = self.y[(self.y != 0) & (self.y != 1)]
        if len(bad):
            raise LabelError(f"labels must be 0 or 1, got {bad[0]:g}")
        # Read-only from here on: P and y may be the dataset's own arrays, and P1 to F2 are views.
        for column in columns:
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.P.shape[0]

    def take(self, idx) -> "Batch":
        """The rows at ``idx``, in that order, as a batch. ``idx`` is anything that
        picks rows of a 1-D array, such as row numbers or a boolean mask over the
        rows, and picks the rows that ``P[idx]`` would. Any other index raises
        ShapeMismatchError."""
        if np.ndim(idx) != 1:
            raise ShapeMismatchError(f"take needs a 1-D index, got {np.ndim(idx)}-D")
        # Row numbers, so that every column is gathered by ndarray.take, which
        # reads a boolean mask otherwise (as row numbers 0 and 1).
        rows = np.arange(len(self))[idx]
        columns = [getattr(self, name).take(rows, axis=0) for name in COLUMNS]
        for a in columns:
            a.setflags(write=False)
        # Drawn from this batch's checked columns, the rows hold its rules already: no check runs again.
        part = Batch.__new__(Batch)
        vars(part).update(zip(COLUMNS, columns))
        return part

    def astype(self, dtype) -> "Batch":
        """A copy with every column, the labels too, cast to ``dtype``."""
        return Batch(*(getattr(self, name).astype(dtype) for name in COLUMNS))


def pack(rows: Sequence[tuple], y: Sequence[int]) -> Batch:
    """A batch from (psi_t1, psi_t2, psi_r, phi_t1r, phi_t2r) rows of number sequences and their 0/1 labels:
    the first three of each row make its row of P, the last two its row of F."""
    P, F = (np.array([row[part] for row in rows], dtype=float) for part in (slice(3), slice(3, 5)))
    return Batch(P, F, np.array(y))


def _block_input(P: np.ndarray, a: int, b: int) -> np.ndarray:
    """Sentence columns ``a`` and ``b`` of P side by side (N x 2 * sentence_dim): a
    view of a C-contiguous P where column b follows column a, else a new array."""
    return P[:, a : b + 1].reshape(len(P), -1) if b == a + 1 else np.concatenate([P[:, a], P[:, b]], axis=1)


def forward_batch(model: Model, batch: Batch, swapped: bool = False):
    """Output activations for a whole batch, and the layer cache that backward_batch takes.

    The output unit reads one N x len(w_out) matrix Z, filled in place and of
    the inputs' dtype: the blocks' tanh units in BLOCKS order (for the
    single-layer model, the three columns of P), then the two columns of F.
    With ``swapped``, each tuple is scored with its hypotheses exchanged, as
    sigma(t2, t1, r): the columns of P and F are read in the order (1, 0, 2),
    so that the pass reads hypothesis 2's for hypothesis 1's. A block whose
    two sentence columns stand side by side in P, (t1,t2) as given and (t2,r)
    in either order, reads a view of P; the pass builds the (t1,r) input, and
    the (t2,t1) input when swapped.
    """
    c, p, h = model.config, model.params, model.config.hidden_per_block
    P, F = batch.P, batch.F
    if P.shape[2] != c.sentence_dim or F.shape[2] != c.pairwise_dim:
        raise ShapeMismatchError(
            f"input dims ({P.shape[2]}, {F.shape[2]}) do not match config ({c.sentence_dim}, {c.pairwise_dim})"
        )
    order = (1, 0, 2) if swapped else (0, 1, 2)
    pairwise = [F[:, i] for i in order[:2]]
    if c.architecture == MULTI_LAYER:
        X, copied = [_block_input(P, order[a], order[b]) for a, b in BLOCKS.values()], pairwise
    else:
        X, copied = [], [P[:, i] for i in order] + pairwise
    Z = np.empty((len(batch), p["w_out"].size), np.result_type(F, p["w_out"]))
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


def backward_batch(model: Model, cache, dz: np.ndarray) -> np.ndarray:
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
        dA.sum(axis=1, out=grad[k * n_in : k * (n_in + 1)].reshape(len(X), h))
    np.matmul(Z.T, dz, out=grad[-1 - Z.shape[1] : -1])
    grad[-1] = dz.sum()
    return grad


def save_model(model: Model, sink: IO[str]) -> None:
    doc = {
        "config": asdict(model.config),
        "params": {k: v.tolist() for k, v in model.params.items()},
    }
    sink.write(json.dumps(doc))


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
    return Model(config=ModelConfig(**config), params=doc["params"])
