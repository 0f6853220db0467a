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
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Iterable, Optional

import numpy as np

from .embeddings import EmbeddingTable, compose_mean_matrix, gather_tokens, tokenize
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


def _column(value, name: str, shape: tuple, bound: Optional[int] = None) -> np.ndarray:
    """``value`` as an array of ``shape``, where None takes any length: of finite
    floats, or with ``bound``, of integers in [0, bound)."""
    try:
        a = np.asarray(value, dtype=float if bound is None else None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{name}: {exc}") from None
    if a.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, a.shape)):
        raise DatasetFormatError(f"{name} has shape {a.shape}, expected {shape}".replace("None", "any"))
    if bound is None and not np.isfinite(a).all():
        raise DatasetFormatError(f"{name} holds a non-finite value")
    if bound is not None and a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= bound):
        raise DatasetFormatError(f"{name} must hold integers in [0, {bound})")
    return a


class _Tuples(Sequence):
    """A dataset's judgments as text, each decoded from its columns when it is read."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset.ids)

    def __getitem__(self, i: int) -> EvaluationTuple:
        d = self._dataset
        hyp1, hyp2, reference = ([d.vocab[t] for t in d.token_ids[d.offsets[s] : d.offsets[s + 1]].tolist()]
                                 for s in d.sentences[:, i].tolist())
        return EvaluationTuple(d.ids[i], d.splits[i], reference, hyp1, hyp2)


@dataclass
class Dataset:
    """Judgments as read-only columns, checked on construction.

    ``ids`` and ``splits`` name each of the n tuples. The text is a
    sentence store that holds each distinct sentence once: sentence ``s`` is
    ``token_ids[offsets[s]:offsets[s + 1]]``, ids into ``vocab``, and
    ``sentences`` (3, n) gives the store sentence of each tuple's hyp1, hyp2
    and reference. ``labels`` (n,) is 1 where hyp1 was judged better and 0
    where hyp2 was; ``scores`` (2, n, k) holds the external scores of hyp1
    and hyp2 in ``feature_schema`` order; ``vectors`` (3, n, d) the
    precomputed sentence vectors of hyp1, hyp2 and the reference, with
    d = 0 when there are none.
    """

    ids: Sequence[str]
    splits: Sequence[str]
    vocab: Sequence[str]
    token_ids: np.ndarray
    offsets: np.ndarray
    sentences: np.ndarray
    feature_schema: list[str]
    labels: np.ndarray
    scores: np.ndarray
    vectors: np.ndarray
    dropped_ties: int = 0
    # The judgments as text, for reading only: nothing in the library needs them.
    tuples = property(_Tuples)

    def __post_init__(self):
        self.ids, self.splits, self.vocab = tuple(self.ids), tuple(self.splits), tuple(self.vocab)
        n, k = len(self.ids), len(self.feature_schema)
        if len(self.splits) != n:
            raise DatasetFormatError(f"{len(self.splits)} splits for {n} tuples")
        labels = _column(self.labels, "labels", (n,))
        bad = labels[~np.isin(labels, (0, 1))]
        if len(bad):
            raise DatasetFormatError(f"labels must be 0 or 1, got {bad[0]:g}")
        self.labels = labels.astype(int)
        self.scores = _column(self.scores, "scores", (2, n, None))
        if self.scores.shape[2] != k:
            raise InconsistentSchema(f"scores have {self.scores.shape[2]} columns for schema {self.feature_schema}")
        self.vectors = _column(self.vectors, "vectors", (3, n, None))
        self.token_ids = _column(self.token_ids, "token_ids", (None,), len(self.vocab)).astype(np.int32, copy=False)
        offsets = _column(self.offsets, "offsets", (None,), len(self.token_ids) + 1).astype(np.int64, copy=False)
        if offsets[:1].tolist() != [0] or offsets[-1] != len(self.token_ids) or (np.diff(offsets) < 0).any():
            raise DatasetFormatError("offsets must rise from 0 to the number of tokens")
        self.offsets = offsets
        self.sentences = _column(self.sentences, "sentences", (3, n), len(offsets) - 1).astype(np.int32, copy=False)
        for column in (self.labels, self.scores, self.vectors, self.token_ids, self.offsets, self.sentences):
            column.flags.writeable = False


def _tokens(obj: dict, lineno: int, name: str) -> list[str]:
    if name not in obj:
        raise DatasetFormatError(f"line {lineno}: missing {name}")
    value = obj[name]
    if isinstance(value, str):
        return tokenize(value)
    if isinstance(value, list) and all(isinstance(t, str) for t in value):
        return value
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
    # One flat list per field, made into the dataset's columns at the end.
    ids, splits, labels = [], [], []
    scores, vectors = ([], []), ([], [], [])
    schema: Optional[list[str]] = None
    sentence_dim: Optional[int] = None
    dropped = 0
    # Every sentence's token ids, in reading order; a token new to ``vocab``
    # gets the next id (the default value is its length before the insert).
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__
    token_ids, ends = array("i"), array("q")
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
        for name in ("reference", "hyp1", "hyp2"):
            token_ids.extend(map(vocab.__getitem__, _tokens(obj, lineno, name)))
            ends.append(len(token_ids))
        ids.append(str(obj.get("id", lineno)))
        splits.append(str(obj.get("split", "all")))
        labels.append(y)
        for column, named in zip(scores, ext):
            column.extend(map(named.__getitem__, schema))
        for column, values in zip(vectors, psi):
            column.extend(values)
    n, schema = len(ids), schema or []
    return Dataset(ids, splits, list(vocab), *_distinct(token_ids, ends), schema, labels,
                   np.array(scores).reshape(2, n, len(schema)), np.array(vectors).reshape(3, n, sentence_dim or 0),
                   dropped_ties=dropped)


def _distinct(token_ids: array, ends: array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The store of the distinct sentences read (token ids and offsets), and the (3, n)
    index of each tuple's hyp1, hyp2 and reference into it.

    Sentence i of ``token_ids``, the reference, hyp1 or hyp2 of a tuple in
    turn, ends at ``ends[i]``. The keys that find repeats are made after
    reading, so they are freed together, not strewn among what the dataset
    keeps, where they would hold on to the process's memory.
    """
    raw, width = token_ids.tobytes(), token_ids.itemsize
    seen: dict[bytes, int] = {}  # a sentence's ids -> its place in the store
    place = [seen.setdefault(raw[width * a : width * b], len(seen)) for a, b in zip([0, *ends], ends)]
    offsets = np.cumsum([0, *map(len, seen)]) // width
    sentences = np.array(place, np.int32).reshape(-1, 3).T[[1, 2, 0]]
    return np.frombuffer(b"".join(seen), np.intc), offsets, sentences


def vectorize(dataset: Dataset, table: Optional[EmbeddingTable] = None) -> tuple[Batch, np.ndarray]:
    """The dataset's batch of model inputs and its int labels, in order.

    Sentence vectors come from one source: the dataset's precomputed
    vectors when it has them, else mean composition over ``table`` when
    given, else they have width 0; a table given for precomputed vectors
    raises. The pairwise feature vectors are freshly computed BLEU
    components, then the dataset's external scores. The BLEU and
    composition work runs on the dataset's sentence store in bulk,
    ``CHUNK_TUPLES`` tuples at a time, into preallocated columns, and gives
    the same values bit for bit as counting and composing one tuple at a
    time.
    """
    if dataset.vectors.size and table is not None:
        raise DatasetFormatError(f"tuple {dataset.ids[0]}: precomputed sentence vectors and an embedding table given")
    n, k = len(dataset.ids), len(BLEUCOMP_FEATURE_NAMES)
    store, sentences = (dataset.token_ids, dataset.offsets), dataset.sentences
    features = np.empty((2, n, k + len(dataset.feature_schema)))
    features[:, :, k:] = dataset.scores
    if table is None:
        vectors = dataset.vectors
    else:
        vectors = np.empty((3, n, table.dimension))
        rows = table.rows_of(dataset.vocab)
    for lo in range(0, n, CHUNK_TUPLES):
        chunk = slice(lo, lo + CHUNK_TUPLES)
        refs = sentences[2, chunk]
        bleu = bleu_matrix(*store, sentences[:2, chunk].ravel(), np.tile(refs, 2))
        features[:, chunk, :k] = bleu.reshape(2, len(refs), k)
        if table is not None:
            # Each distinct sentence of the chunk is composed once; its tuples share the row.
            used, slots = np.unique(sentences[:, chunk], return_inverse=True)
            tokens, lens = gather_tokens(*store, used)
            composed, _ = compose_mean_matrix(rows[tokens], lens, table)
            vectors[:, chunk] = composed[slots.reshape(3, -1)]
    return Batch(*vectors, *features), dataset.labels
