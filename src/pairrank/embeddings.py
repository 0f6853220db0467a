"""Word-embedding tables and sentence-vector composition.

Embedding files are plain UTF-8 text, one ``token v1 ... vd`` entry per
line. An optional word2vec-style ``<count> <dim>`` header line is
auto-detected, and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Optional, Sequence

import numpy as np


class EmbeddingError(ValueError):
    """Base class for embedding-file problems."""


class InconsistentDimensionError(EmbeddingError):
    pass


class DimensionMismatchError(EmbeddingError):
    pass


class EmptyTableError(EmbeddingError):
    pass


@dataclass
class EmbeddingTable:
    dimension: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)
    duplicates_skipped: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise EmbeddingError(f"dimension must be >= 1, got {self.dimension}")

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


@dataclass
class SentenceVector:
    values: np.ndarray
    dimension: int
    oov_count: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        assert self.values.shape == (self.dimension,)
        assert np.all(np.isfinite(self.values))


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace. No further normalization."""
    return text.lower().split()


def encode_tokens(sentences: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Flat integer ids of all tokens, per-sentence lengths, and the token -> id vocabulary.

    Ids are dense and follow first appearance.
    """
    vocab = {t: i for i, t in enumerate(dict.fromkeys(chain.from_iterable(sentences)))}
    lens = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    ids = np.fromiter(map(vocab.__getitem__, chain.from_iterable(sentences)), dtype=np.int64,
                      count=int(lens.sum()))
    return ids, lens, vocab


def _is_header(fields: Sequence[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def load_embedding_table(
    source: IO[str] | Iterable[str],
    expected_dimension: Optional[int] = None,
) -> EmbeddingTable:
    """Parse a text embedding file into an :class:`EmbeddingTable`.

    Duplicate tokens keep the first occurrence; the number skipped is
    recorded on the table. Raises on inconsistent dimensions, non-numeric
    fields, empty input, or a mismatch with ``expected_dimension``.
    """
    entries: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    duplicates = 0
    first_data_line = True
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if first_data_line and _is_header(fields):
            first_data_line = False
            continue
        first_data_line = False
        token, raw = fields[0], fields[1:]
        if not raw:
            raise EmbeddingError(f"line {lineno}: token without vector")
        try:
            vec = np.array([float(x) for x in raw], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: non-numeric vector field") from exc
        if dimension is None:
            dimension = len(vec)
        elif len(vec) != dimension:
            raise InconsistentDimensionError(
                f"line {lineno}: expected {dimension} values, got {len(vec)}"
            )
        if token in entries:
            duplicates += 1
            continue
        entries[token] = vec
    if dimension is None or not entries:
        raise EmptyTableError("no embedding entries in input")
    if expected_dimension is not None and dimension != expected_dimension:
        raise DimensionMismatchError(
            f"table dimension {dimension} != expected {expected_dimension}"
        )
    return EmbeddingTable(dimension=dimension, entries=entries, duplicates_skipped=duplicates)


def save_embedding_table(table: EmbeddingTable, sink: IO[str]) -> None:
    """Write the table back out; floats use repr so reload is bit-exact."""
    for token, vec in table.entries.items():
        sink.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def compose_mean_matrix(
    sentences: Sequence[Sequence[str]], table: EmbeddingTable
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-composed vectors of ``sentences`` as an (S, d) array, and their OOV counts.

    Token vectors are summed position by position into a zeroed buffer,
    and an out-of-vocabulary token adds a zero row, so each sentence's sum
    runs in token order, exactly as one token at a time would. Sentences
    with no token found come back as zero vectors.
    """
    d = table.dimension
    tokens, lens, vocab = encode_tokens(sentences)
    vecs = [table.entries.get(t) for t in vocab]
    # Row 0 is what an out-of-vocabulary token adds; tokens in the table
    # take rows 1, 2, ... in vocabulary order.
    matrix = np.array([np.zeros(d)] + [v for v in vecs if v is not None])
    in_table = np.fromiter((v is not None for v in vecs), dtype=bool, count=len(vecs))
    ids = np.where(in_table, np.cumsum(in_table), 0)[tokens]
    starts = np.cumsum(lens) - lens
    found_before = np.concatenate(([0], np.cumsum(ids != 0)))
    found = found_before[starts + lens] - found_before[starts]
    # Longest first, so the sentences still open at any position are a prefix.
    order = np.argsort(-lens, kind="stable")
    first, length = starts[order], lens[order]
    acc = np.zeros((len(sentences), d))
    step = np.empty_like(acc)
    for pos in range(int(length.max(initial=0))):
        m = np.count_nonzero(length > pos)
        np.take(matrix, ids[first[:m] + pos], axis=0, out=step[:m], mode="clip")
        acc[:m] += step[:m]
    values = np.empty_like(acc)
    values[order] = acc
    np.divide(values, found[:, None], out=values, where=found[:, None] > 0)
    return values, lens - found


def compose_sentence_vector(
    tokens: Sequence[str],
    table: EmbeddingTable,
    strategy: str = "mean",
) -> SentenceVector:
    """Compose a fixed-length sentence vector from token embeddings.

    Out-of-vocabulary tokens are skipped and counted. With no token found
    (or an empty sentence) the zero vector comes back, oov_count equal to
    the sentence length.
    """
    if strategy != "mean":
        raise ValueError(f"unknown composition strategy: {strategy}")
    values, oov = compose_mean_matrix([tokens], table)
    return SentenceVector(values[0], table.dimension, int(oov[0]))
