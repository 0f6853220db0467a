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
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

import numpy as np

from .embeddings import EmbeddingTable, compose_mean_matrix, tokenize
from .features import BLEUCOMP_FEATURE_NAMES, NonFiniteFeature, bleu_matrix
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
    y: int
    external_scores_1: dict[str, float] = field(default_factory=dict)
    external_scores_2: dict[str, float] = field(default_factory=dict)
    psi_t1: Optional[list[float]] = None
    psi_t2: Optional[list[float]] = None
    psi_r: Optional[list[float]] = None


@dataclass
class Dataset:
    tuples: list[EvaluationTuple]
    feature_schema: list[str]
    sentence_dim: int
    dropped_ties: int = 0


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


def _vectors(obj: dict, lineno: int) -> tuple[Optional[list], Optional[list], Optional[list]]:
    names = ("psi_t1", "psi_t2", "psi_r")
    vecs = [obj.get(k) for k in names]
    present = [v is not None for v in vecs]
    if not any(present):
        return None, None, None
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
    schema: Optional[frozenset[str]] = None
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
        ext1 = _scores(obj, lineno, "external_scores_1")
        ext2 = _scores(obj, lineno, "external_scores_2")
        names = frozenset(ext1) | frozenset(ext2)
        if frozenset(ext1) != names or frozenset(ext2) != names:
            raise InconsistentSchema(
                f"line {lineno}: external score names differ between hypotheses"
            )
        if schema is None:
            schema = names
        elif names != schema:
            raise InconsistentSchema(
                f"line {lineno}: external scores {sorted(names)} do not match "
                f"schema {sorted(schema)}"
            )
        psi_t1, psi_t2, psi_r = _vectors(obj, lineno)
        dim = len(psi_t1) if psi_t1 is not None else 0
        if sentence_dim is None:
            sentence_dim = dim
        elif dim != sentence_dim:
            raise DatasetFormatError(
                f"line {lineno}: sentence vector dimension {dim} != {sentence_dim}"
            )
        tuples.append(
            EvaluationTuple(
                id=str(obj.get("id", lineno)),
                split=str(obj.get("split", "all")),
                reference=_tokens(obj, lineno, "reference"),
                hyp1=_tokens(obj, lineno, "hyp1"),
                hyp2=_tokens(obj, lineno, "hyp2"),
                y=int(y),
                external_scores_1=ext1,
                external_scores_2=ext2,
                psi_t1=psi_t1,
                psi_t2=psi_t2,
                psi_r=psi_r,
            )
        )
    return Dataset(
        tuples=tuples,
        feature_schema=sorted(schema or ()),
        sentence_dim=sentence_dim or 0,
        dropped_ties=dropped,
    )


def vectorize(
    dataset: Dataset,
    table: Optional[EmbeddingTable] = None,
) -> tuple[Batch, np.ndarray]:
    """Turn tuples into one batch of model inputs and an int label array, in order.

    Sentence vectors come from one source: the precomputed fields when the
    dataset has them, else mean composition over ``table`` when given, else
    they have width 0; a table given for precomputed vectors raises. The
    pairwise feature vectors always include freshly computed BLEU
    components, then the external scores in ``dataset.feature_schema``
    order; a tuple scored under other names raises ``InconsistentSchema``.
    The work runs in bulk, ``CHUNK_TUPLES`` tuples at a time, into
    preallocated columns, and gives the same values bit for bit as counting
    and composing one tuple at a time.
    """
    tuples = dataset.tuples
    schema = set(dataset.feature_schema)
    for t in tuples:
        if t.psi_t1 is not None and table is not None:
            raise DatasetFormatError(f"tuple {t.id}: precomputed sentence vectors and an embedding table given")
        if t.psi_t1 is None and dataset.sentence_dim:
            raise DatasetFormatError(f"tuple {t.id}: no precomputed vectors of dimension {dataset.sentence_dim}")
        if not schema == t.external_scores_1.keys() == t.external_scores_2.keys():
            raise InconsistentSchema(f"tuple {t.id}: external score names do not match schema {dataset.feature_schema}")
    n = len(tuples)
    dim = table.dimension if table is not None else dataset.sentence_dim
    width = len(BLEUCOMP_FEATURE_NAMES) + len(dataset.feature_schema)
    batch = Batch(*(np.empty((n, dim)) for _ in range(3)), *(np.empty((n, width)) for _ in range(2)))
    for lo in range(0, n, CHUNK_TUPLES):
        _fill_chunk(batch, lo, tuples[lo : lo + CHUNK_TUPLES], dataset.feature_schema, table)
    return batch, np.array([t.y for t in tuples], dtype=int)


def _fill_chunk(
    batch: Batch, lo: int, tuples: list[EvaluationTuple], schema: list[str], table: Optional[EmbeddingTable]
) -> None:
    """Write the rows of ``tuples`` into ``batch`` from row ``lo``, external scores in
    ``schema`` order; compose vectors over ``table`` if given."""
    n = len(tuples)
    rows = slice(lo, lo + n)
    bleu = bleu_matrix([t.hyp1 for t in tuples] + [t.hyp2 for t in tuples],
                       [t.reference for t in tuples] * 2)
    scores = [t.external_scores_1 for t in tuples] + [t.external_scores_2 for t in tuples]
    external = np.array([[s[k] for k in schema] for s in scores], dtype=float).reshape(2 * n, -1)
    bad = np.flatnonzero(~np.isfinite(external).all(axis=1))
    if len(bad):
        raise NonFiniteFeature(f"tuple {tuples[bad[0] % n].id}: non-finite external score")
    k = bleu.shape[1]
    batch.F1[rows, :k], batch.F2[rows, :k] = bleu[:n], bleu[n:]
    batch.F1[rows, k:], batch.F2[rows, k:] = external[:n], external[n:]
    if table is not None:
        # Each distinct sentence is composed once; its tuples share the row.
        index: dict[tuple[str, ...], int] = {}
        slots = np.array([[index.setdefault(tuple(s), len(index)) for s in (t.hyp1, t.hyp2, t.reference)]
                          for t in tuples])
        vectors, _ = compose_mean_matrix(list(index), table)
        batch.P1[rows], batch.P2[rows], batch.Pr[rows] = (vectors[j] for j in slots.T)
    elif batch.P1.shape[1]:
        batch.P1[rows] = [t.psi_t1 for t in tuples]
        batch.P2[rows] = [t.psi_t2 for t in tuples]
        batch.Pr[rows] = [t.psi_r for t in tuples]


def splits_of(dataset: Dataset) -> list[str]:
    return [t.split for t in dataset.tuples]
