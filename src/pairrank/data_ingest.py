"""JSON-lines datasets of pairwise translation judgments.

One object per line with fields: id (a string or an integer, by default
the line number, and unique among kept records), split (a string, by
default "all"), reference, hyp1, hyp2, y (1 means hyp1 is better, 0 means
hyp2, "tie" drops the record), optional external_scores_1/external_scores_2
maps, and optional precomputed sentence vectors psi_t1/psi_t2/psi_r.
Sentences may be raw strings (tokenized on load) or pre-tokenized arrays.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import sidecar
from .embeddings import EmbeddingTable, compose_mean_matrix, gather_tokens, tokenize
from .features import BLEUCOMP_FEATURE_NAMES, MAX_ORDER, bleu_columns, clipped_matches
from .model import Batch

# Not called here: the benchmark's traced run hooks these names on this module.
from .embeddings import compose_sentence_vector  # noqa: F401
from .features import assemble_pairwise, bleu_components  # noqa: F401

# Tokens per bulk pass of n-gram counting or composition (a tuple's hyp1, hyp2 and
# reference tokens, summed over its tuples); bounds the size of its temporary arrays.
# A pass holds at least one tuple, so one tuple larger than the budget is a pass of its own.
CHUNK_TOKENS = 8192

# The version of what a dataset's sidecar saves: the layout of its members
# and the parse rules that made them. Bump it on any change to what _parse
# accepts or returns (the text's decoding, lowercasing and whitespace
# tokenization, dropping "tie" rows, the id and split types and defaults,
# the sorted schema, the vocabulary in order of first appearance, the
# sentence dedup, the clipped n-gram matches), or to the layout; a sidecar
# of another version is ignored and rewritten. Version 5 lays the columns
# out tuple-first, as (n, 3), a shape that an older (3, n) sidecar of three
# tuples would pass. A repeated id is refused without a bump: a sidecar
# that holds one fails the Dataset's own check, so its file is parsed again.
SIDECAR_VERSION = 5

# What a dataset's sidecar saves: each field of its constructor, and its type (see pairrank.sidecar).
_FIELDS = {"token_ids": (np.int32, 1), "offsets": (np.int64, 1), "sentences": (np.int32, 2), "matches": (np.int32, 3),
           "labels": (np.int64, 1), "scores": (np.float64, 3), "vectors": (np.float64, 3), "ids": sidecar.JSON,
           "splits": sidecar.JSON, "vocab": sidecar.JSON, "feature_schema": sidecar.JSON, "dropped_ties": sidecar.JSON}


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


def _strings(value, name: str) -> tuple[str, ...]:
    """``value`` as a tuple; raises DatasetFormatError unless it is a sequence of strings."""
    if isinstance(value, str) or not isinstance(value, Sequence) or not all(isinstance(s, str) for s in value):
        raise DatasetFormatError(f"{name} must be a sequence of strings")
    return tuple(value)


class _Tuples(Sequence):
    """A dataset's judgments as text, each decoded from its columns when it is read."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset.ids)

    def __getitem__(self, i: int) -> EvaluationTuple:
        d = self._dataset
        hyp1, hyp2, reference = ([d.vocab[t] for t in d.token_ids[d.offsets[s] : d.offsets[s + 1]].tolist()]
                                 for s in d.sentences[i].tolist())
        return EvaluationTuple(d.ids[i], d.splits[i], reference, hyp1, hyp2)


@dataclass
class Dataset:
    """Judgments as read-only columns, checked on construction.

    The constructor may freeze an array it is given in place rather than
    copy it, so a caller that keeps the array may no longer write to it.

    ``ids`` and ``splits`` name each of the n tuples, no id twice. The text is a
    sentence store that holds each distinct sentence once: sentence ``s`` is
    ``token_ids[offsets[s]:offsets[s + 1]]``, ids into ``vocab``. Every
    other column holds one row per tuple, its parts in the order that a
    Batch reads them: ``sentences`` (n, 3) gives the store sentence of
    each tuple's hyp1, hyp2 and reference; ``matches`` (n, 2, 4) holds the
    clipped n-gram matches of hyp1 and hyp2 against the tuple's reference
    for n = 1..4, counted once, at parse; ``labels`` (n,) is 1 where hyp1
    was judged better and 0 where hyp2 was; ``scores`` (n, 2, k) holds the
    external scores of hyp1 and hyp2 in ``feature_schema`` order;
    ``vectors`` (n, 3, d) the precomputed sentence vectors of hyp1, hyp2
    and the reference, with d = 0 when there are none.
    """

    ids: Sequence[str]
    splits: Sequence[str]
    vocab: Sequence[str]
    token_ids: np.ndarray
    offsets: np.ndarray
    sentences: np.ndarray
    matches: np.ndarray
    feature_schema: Sequence[str]
    labels: np.ndarray
    scores: np.ndarray
    vectors: np.ndarray
    dropped_ties: int = 0
    # The judgments as text, for reading only: nothing in the library needs them.
    tuples = property(_Tuples)

    def __post_init__(self):
        self.ids, self.splits, self.vocab, self.feature_schema = (
            _strings(getattr(self, name), name) for name in ("ids", "splits", "vocab", "feature_schema")
        )
        n, k = len(self.ids), len(self.feature_schema)
        if len(set(self.vocab)) != len(self.vocab):
            raise DatasetFormatError("vocab must hold each token once")
        seen: set[str] = set()
        for tid in self.ids:
            if tid in seen:
                raise DatasetFormatError(f"id {tid!r} repeats")
            seen.add(tid)
        if list(self.feature_schema) != sorted(set(self.feature_schema)):
            raise InconsistentSchema(f"schema {list(self.feature_schema)} must be sorted and hold each name once")
        if len(self.splits) != n:
            raise DatasetFormatError(f"{len(self.splits)} splits for {n} tuples")
        labels = _column(self.labels, "labels", (n,))
        bad = labels[~np.isin(labels, (0, 1))]
        if len(bad):
            raise DatasetFormatError(f"labels must be 0 or 1, got {bad[0]:g}")
        self.labels = labels.astype(int)
        self.scores = _column(self.scores, "scores", (n, 2, None))
        if self.scores.shape[2] != k:
            raise InconsistentSchema(f"scores have {self.scores.shape[2]} columns for schema {list(self.feature_schema)}")
        self.vectors = _column(self.vectors, "vectors", (n, 3, None))
        self.token_ids = _column(self.token_ids, "token_ids", (None,), len(self.vocab)).astype(np.int32, copy=False)
        offsets = _column(self.offsets, "offsets", (None,), len(self.token_ids) + 1).astype(np.int64, copy=False)
        if offsets[:1].tolist() != [0] or offsets[-1] != len(self.token_ids) or (np.diff(offsets) < 0).any():
            raise DatasetFormatError("offsets must rise from 0 to the number of tokens")
        self.offsets = offsets
        self.sentences = _column(self.sentences, "sentences", (n, 3), len(offsets) - 1).astype(np.int32, copy=False)
        matches = _column(self.matches, "matches", (n, 2, MAX_ORDER), np.iinfo(np.int32).max)
        # A hypothesis of m tokens holds max(m - k + 1, 0) k-grams, the most it can match. One order
        # at a time, so that the check's temporary arrays are of one value per hypothesis.
        length = _lengths(offsets, self.sentences[:, :2])
        if any((matches[..., k] > np.maximum(length - k, 0)).any() for k in range(MAX_ORDER)):
            raise DatasetFormatError("matches must not exceed their hypothesis's k-gram totals")
        self.matches = matches.astype(np.int32, copy=False)
        if isinstance(self.dropped_ties, bool) or not isinstance(self.dropped_ties, int):
            raise DatasetFormatError(f"dropped_ties must be an integer, got {self.dropped_ties!r}")
        if self.dropped_ties < 0:
            raise DatasetFormatError(f"dropped_ties must be >= 0, got {self.dropped_ties}")
        for column in (self.labels, self.scores, self.vectors, self.token_ids, self.offsets, self.sentences,
                       self.matches):
            column.flags.writeable = False


def _lengths(offsets: np.ndarray, sentences: np.ndarray) -> np.ndarray:
    """The number of tokens of each of ``sentences``, from a store's ``offsets``, without
    an array over the whole store."""
    return offsets[sentences + 1] - offsets[sentences]


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


def _vectors(obj: dict, lineno: int) -> list[float]:
    """The line's psi_t1, psi_t2 and psi_r one after another, empty when the line has none."""
    names = ("psi_t1", "psi_t2", "psi_r")
    vecs = [obj.get(k) for k in names]
    present = [v is not None for v in vecs]
    if not any(present):
        return []
    if not all(present):
        raise DatasetFormatError(f"line {lineno}: precomputed vectors must all be present or absent")
    for name, v in zip(names, vecs):
        if not isinstance(v, list):
            raise DatasetFormatError(f"line {lineno}: {name} must be an array of numbers")
    if len({len(v) for v in vecs}) != 1:
        raise DatasetFormatError(f"line {lineno}: precomputed vectors differ in dimension")
    return [_number(x, lineno, name) for name, v in zip(names, vecs) for x in v]


def _scores(obj: dict, lineno: int, name: str) -> dict[str, float]:
    scores = obj.get(name)
    if scores is None:
        return {}
    if not isinstance(scores, dict):
        raise DatasetFormatError(f"line {lineno}: {name} must be an object of named scores")
    return {k: _number(v, lineno, f"{name}[{k!r}]") for k, v in scores.items()}


def _parse(source: Iterable[str]) -> Dataset:
    """The dataset in JSON lines, as :func:`load_dataset` describes."""
    # One flat list per field, tuple by tuple, made into the dataset's columns
    # at the end; ids maps each kept record's id to its line, to name a repeat.
    ids: dict[str, int] = {}
    splits, labels, scores, vectors = [], [], [], []
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
            sentence_dim = len(psi) // 3
        elif len(psi) // 3 != sentence_dim:
            raise DatasetFormatError(f"line {lineno}: sentence vector dimension {len(psi) // 3} != {sentence_dim}")
        tid, split = obj.get("id", lineno), obj.get("split", "all")
        # bool is an int subclass, so true would otherwise pass as the id "True".
        if isinstance(tid, bool) or not isinstance(tid, (str, int)):
            raise DatasetFormatError(f"line {lineno}: id must be a string or an integer, got {tid!r}")
        if not isinstance(split, str):
            raise DatasetFormatError(f"line {lineno}: split must be a string, got {split!r}")
        for name in ("reference", "hyp1", "hyp2"):
            token_ids.extend(map(vocab.__getitem__, _tokens(obj, lineno, name)))
            ends.append(len(token_ids))
        first = ids.setdefault(str(tid), lineno)
        if first != lineno:
            raise DatasetFormatError(f"line {lineno}: id {str(tid)!r} repeats line {first}")
        splits.append(split)
        labels.append(y)
        scores.extend(named[name] for named in ext for name in schema)
        vectors.extend(psi)
    n, schema = len(ids), schema or []
    # The store takes the place of the token ids read, which are freed before counting.
    token_ids, offsets, sentences = _distinct(token_ids, ends)
    return Dataset(list(ids), splits, list(vocab), token_ids, offsets, sentences,
                   _matches(token_ids, offsets, sentences), schema, labels,
                   np.array(scores).reshape(n, 2, len(schema)), np.array(vectors).reshape(n, 3, sentence_dim or 0),
                   dropped_ties=dropped)


def _distinct(token_ids: array, ends: array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The store of the distinct sentences read (token ids and offsets), and the (n, 3)
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
    sentences = np.array(place, np.int32).reshape(-1, 3)[:, [1, 2, 0]]
    return np.frombuffer(b"".join(seen), np.intc), offsets, sentences


def _chunks(offsets: np.ndarray, sentences: np.ndarray) -> list[slice]:
    """The tuples of ``sentences`` (n, 3), into a store with ``offsets``, in runs of
    whole tuples whose tokens fit ``CHUNK_TOKENS``, or of one tuple larger than that.

    The runs are all cut before any is used, so the arrays that cut them are
    freed before the caller's pass over them.
    """
    # The tokens read by the end of each tuple; a chunk ends at the last tuple that keeps it within the budget.
    ends = np.cumsum(_lengths(offsets, sentences).sum(axis=1))
    chunks, lo = [], 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + CHUNK_TOKENS, "right")))
        chunks.append(slice(lo, hi))
        lo = hi
    return chunks


def _matches(token_ids: np.ndarray, offsets: np.ndarray, sentences: np.ndarray) -> np.ndarray:
    """The (n, 2, 4) clipped n-gram matches of each tuple's hyp1 and hyp2 against its
    reference, counted a chunk at a time (see :func:`_chunks`)."""
    matches = np.empty((len(sentences), 2, MAX_ORDER), np.int32)
    for chunk in _chunks(offsets, sentences):
        hyps, refs = sentences[chunk, :2].ravel(), np.repeat(sentences[chunk, 2], 2)
        matches[chunk] = clipped_matches(token_ids, offsets, hyps, refs).reshape(-1, 2, MAX_ORDER)
    return matches


def load_dataset(source: sidecar.Source) -> Dataset:
    """A :class:`Dataset` from a JSON-lines file, given by path or as lines.

    Raises a typed error naming the line on a malformed record. A path to
    a regular file is parsed once and then read from its sidecar, by the
    rules of :func:`pairrank.sidecar.load`.
    """
    return sidecar.load(source, SIDECAR_VERSION, _parse, Dataset, _FIELDS)


def vectorize(dataset: Dataset, table: Optional[EmbeddingTable] = None) -> Batch:
    """The dataset's batch of model inputs, in order; its labels are ``dataset.labels``.

    Sentence vectors come from one source: the dataset's precomputed
    vectors when it has them, handed over as they are, like its labels;
    else mean composition over ``table`` when given; else they have width
    0. A table given for precomputed vectors raises. The pairwise features
    are the BLEU components, made from the dataset's clipped matches and
    sentence lengths, then its external scores. The BLEU columns and the
    composition are made in bulk from the sentence store, over the chunks
    that counted the matches (see :func:`_chunks`), straight into each
    chunk's rows of ``F`` (n, 2, K) and ``P`` (n, 3, d), and give the same
    values bit for bit as counting and composing one tuple at a time.
    """
    if dataset.vectors.size and table is not None:
        raise DatasetFormatError(f"tuple {dataset.ids[0]}: precomputed sentence vectors and an embedding table given")
    n, k = len(dataset.ids), len(BLEUCOMP_FEATURE_NAMES)
    store, sentences = (dataset.token_ids, dataset.offsets), dataset.sentences
    F = np.empty((n, 2, k + len(dataset.feature_schema)))
    F[:, :, k:] = dataset.scores
    if table is None:
        P = dataset.vectors
    else:
        P = np.empty((n, 3, table.dimension))
        rows = table.rows_of(dataset.vocab)
    for chunk in _chunks(dataset.offsets, sentences):
        hyps, refs = sentences[chunk, :2].ravel(), np.repeat(sentences[chunk, 2], 2)
        lengths = (_lengths(dataset.offsets, s) for s in (hyps, refs))
        bleu = bleu_columns(dataset.matches[chunk].reshape(-1, MAX_ORDER), *lengths)
        F[chunk, :, :k] = bleu.reshape(-1, 2, k)
        if table is not None:
            # Each distinct sentence of the chunk is composed once; its tuples share the row.
            used, slots = np.unique(sentences[chunk], return_inverse=True)
            tokens, lens = gather_tokens(*store, used)
            composed, _ = compose_mean_matrix(rows[tokens], lens, table)
            np.take(composed, slots.reshape(-1, 3), axis=0, out=P[chunk], mode="clip")
    return Batch(P, F, dataset.labels)
