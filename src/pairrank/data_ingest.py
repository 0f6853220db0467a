"""JSON-lines datasets of pairwise translation judgments.

One object per line with fields: id, split, reference, hyp1, hyp2,
y (1 means hyp1 is better, 0 means hyp2, "tie" drops the record),
optional external_scores_1/external_scores_2 maps, and optional
precomputed sentence vectors psi_t1/psi_t2/psi_r. Sentences may be raw
strings (tokenized on load) or pre-tokenized arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Optional

import numpy as np

from .embeddings import EmbeddingTable, compose_mean_matrix, tokenize
from .features import BLEUCOMP_FEATURE_NAMES, bleu_matrix
from .model import Batch

# Not called here: the benchmark's traced run hooks these names on this module.
from .embeddings import compose_sentence_vector  # noqa: F401
from .features import assemble_pairwise, bleu_components  # noqa: F401

# Tuples per bulk feature pass; bounds the size of its temporary arrays.
CHUNK_TUPLES = 512


class DatasetFormatError(ValueError):
    pass


class InconsistentSchema(DatasetFormatError):
    pass


@dataclass
class EvaluationTuple:
    id: str
    split: str
    reference: list[str]
    hyp1: list[str]
    hyp2: list[str]


def _column(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``, where None takes any length."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{name}: {exc}") from None
    if a.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, a.shape)):
        raise DatasetFormatError(f"{name} has shape {a.shape}, expected {shape}".replace("None", "any"))
    if not np.isfinite(a).all():
        raise DatasetFormatError(f"{name} holds a non-finite value")
    return a


@dataclass
class Dataset:
    """Judgment tuples with their numbers as columns, checked on construction.

    ``labels`` (n,) is 1 where hyp1 was judged better and 0 where hyp2 was;
    ``scores`` (2, n, k) holds the external scores of hyp1 and hyp2 in
    ``feature_schema`` order; ``vectors`` (3, n, d) the precomputed sentence
    vectors of hyp1, hyp2 and the reference, with d = 0 when there are none.
    """

    tuples: list[EvaluationTuple]
    feature_schema: list[str]
    labels: np.ndarray
    scores: np.ndarray
    vectors: np.ndarray
    dropped_ties: int = 0

    def __post_init__(self):
        n, k = len(self.tuples), len(self.feature_schema)
        labels = _column(self.labels, "labels", (n,))
        bad = labels[~np.isin(labels, (0, 1))]
        if len(bad):
            raise DatasetFormatError(f"labels must be 0 or 1, got {bad[0]:g}")
        self.labels = labels.astype(int)
        self.scores = _column(self.scores, "scores", (2, n, None))
        if self.scores.shape[2] != k:
            raise InconsistentSchema(f"scores have {self.scores.shape[2]} columns for schema {self.feature_schema}")
        self.vectors = _column(self.vectors, "vectors", (3, n, None))


def _tokens(obj: dict, lineno: int, name: str) -> list[str]:
    if name not in obj:
        raise DatasetFormatError(f"line {lineno}: missing {name}")
    value = obj[name]
    if isinstance(value, str):
        return tokenize(value)
    if isinstance(value, list) and all(isinstance(t, str) for t in value):
        return list(value)
    raise DatasetFormatError(f"line {lineno}: {name} must be a string or token array")


def _number(value, lineno: int, what: str) -> float:
    # bool is an int subclass, so True would otherwise pass as 1.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetFormatError(f"line {lineno}: {what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DatasetFormatError(f"line {lineno}: {what} is not finite: {value}")
    return x


def _vectors(obj: dict, lineno: int) -> tuple[list[float], list[float], list[float]]:
    """The line's psi_t1, psi_t2 and psi_r, each empty when the line has none."""
    names = ("psi_t1", "psi_t2", "psi_r")
    vecs = [obj.get(k) for k in names]
    present = [v is not None for v in vecs]
    if not any(present):
        return [], [], []
    if not all(present):
        raise DatasetFormatError(f"line {lineno}: precomputed vectors must all be present or absent")
    for name, v in zip(names, vecs):
        if not isinstance(v, list):
            raise DatasetFormatError(f"line {lineno}: {name} must be an array of numbers")
    if len({len(v) for v in vecs}) != 1:
        raise DatasetFormatError(f"line {lineno}: precomputed vectors differ in dimension")
    return tuple([_number(x, lineno, name) for x in v] for name, v in zip(names, vecs))


def _scores(obj: dict, lineno: int, name: str) -> dict[str, float]:
    scores = obj.get(name)
    if scores is None:
        return {}
    if not isinstance(scores, dict):
        raise DatasetFormatError(f"line {lineno}: {name} must be an object of named scores")
    return {k: _number(v, lineno, f"{name}[{k!r}]") for k, v in scores.items()}


def load_dataset(source: IO[str] | Iterable[str]) -> Dataset:
    tuples: list[EvaluationTuple] = []
    # One flat list per numeric field, reshaped into the dataset's columns at the end.
    labels: list[int] = []
    scores, vectors = ([], []), ([], [], [])
    schema: Optional[list[str]] = None
    sentence_dim: Optional[int] = None
    dropped = 0
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Besides decode errors: an integer too long to convert, nesting too deep.
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
            raise DatasetFormatError(f"line {lineno}: malformed JSON: {msg}") from exc
        if not isinstance(obj, dict):
            raise DatasetFormatError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
        y = obj.get("y")
        if y == "tie":
            dropped += 1
            continue
        # bool is an int subclass, so True would otherwise pass as 1.
        if isinstance(y, bool) or y not in (0, 1):
            raise DatasetFormatError(f"line {lineno}: y must be 0, 1 or \"tie\", got {y!r}")
        ext = _scores(obj, lineno, "external_scores_1"), _scores(obj, lineno, "external_scores_2")
        if ext[0].keys() != ext[1].keys():
            raise InconsistentSchema(f"line {lineno}: external score names differ between hypotheses")
        if schema is None:
            schema = sorted(ext[0])
        elif sorted(ext[0]) != schema:
            raise InconsistentSchema(f"line {lineno}: external scores {sorted(ext[0])} do not match schema {schema}")
        psi = _vectors(obj, lineno)
        if sentence_dim is None:
            sentence_dim = len(psi[0])
        elif len(psi[0]) != sentence_dim:
            raise DatasetFormatError(f"line {lineno}: sentence vector dimension {len(psi[0])} != {sentence_dim}")
        tuples.append(
            EvaluationTuple(
                id=str(obj.get("id", lineno)),
                split=str(obj.get("split", "all")),
                reference=_tokens(obj, lineno, "reference"),
                hyp1=_tokens(obj, lineno, "hyp1"),
                hyp2=_tokens(obj, lineno, "hyp2"),
            )
        )
        labels.append(y)
        for column, named in zip(scores, ext):
            column.extend(map(named.__getitem__, schema))
        for column, values in zip(vectors, psi):
            column.extend(values)
    n, schema = len(tuples), schema or []
    return Dataset(tuples, schema, labels, np.array(scores).reshape(2, n, len(schema)),
                   np.array(vectors).reshape(3, n, sentence_dim or 0), dropped_ties=dropped)


def vectorize(dataset: Dataset, table: Optional[EmbeddingTable] = None) -> tuple[Batch, np.ndarray]:
    """The dataset's batch of model inputs and its int labels, in order.

    Sentence vectors come from one source: the dataset's precomputed
    vectors when it has them, else mean composition over ``table`` when
    given, else they have width 0; a table given for precomputed vectors
    raises. The pairwise feature vectors are freshly computed BLEU
    components, then the dataset's external scores. The BLEU and
    composition work runs in bulk, ``CHUNK_TUPLES`` tuples at a time, into
    preallocated columns, and gives the same values bit for bit as counting
    and composing one tuple at a time.
    """
    tuples = dataset.tuples
    if dataset.vectors.size and table is not None:
        raise DatasetFormatError(f"tuple {tuples[0].id}: precomputed sentence vectors and an embedding table given")
    n, k = len(tuples), len(BLEUCOMP_FEATURE_NAMES)
    vectors = dataset.vectors if table is None else np.empty((3, n, table.dimension))
    features = np.empty((2, n, k + len(dataset.feature_schema)))
    features[:, :, k:] = dataset.scores
    batch = Batch(*vectors, *features)
    for lo in range(0, n, CHUNK_TUPLES):
        _fill_chunk(batch, lo, tuples[lo : lo + CHUNK_TUPLES], table)
    return batch, dataset.labels


def _fill_chunk(batch: Batch, lo: int, tuples: list[EvaluationTuple], table: Optional[EmbeddingTable]) -> None:
    """Write the BLEU columns of ``tuples`` into ``batch`` from row ``lo``, and
    their vectors composed over ``table`` if given."""
    n = len(tuples)
    rows = slice(lo, lo + n)
    bleu = bleu_matrix([t.hyp1 for t in tuples] + [t.hyp2 for t in tuples],
                       [t.reference for t in tuples] * 2)
    k = bleu.shape[1]
    batch.F1[rows, :k], batch.F2[rows, :k] = bleu[:n], bleu[n:]
    if table is not None:
        # Each distinct sentence is composed once; its tuples share the row.
        index: dict[tuple[str, ...], int] = {}
        slots = np.array([[index.setdefault(tuple(s), len(index)) for s in (t.hyp1, t.hyp2, t.reference)]
                          for t in tuples])
        vectors, _ = compose_mean_matrix(list(index), table)
        batch.P1[rows], batch.P2[rows], batch.Pr[rows] = (vectors[j] for j in slots.T)


def splits_of(dataset: Dataset) -> list[str]:
    return [t.split for t in dataset.tuples]
