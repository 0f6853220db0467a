"""Word-embedding tables and sentence-vector composition.

Embedding files are plain UTF-8 text, one ``token v1 ... vd`` entry per
line. An optional word2vec-style ``<count> <dim>`` header line is
auto-detected, and lines starting with ``#`` are skipped.

A table file loaded by path is parsed once: the parse is saved beside it
as a binary sidecar, keyed by the sha256 of the bytes parsed, and later
loads of the same bytes read the sidecar instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import sidecar


class EmbeddingError(ValueError):
    """Base class for embedding-file problems."""


class InconsistentDimensionError(EmbeddingError):
    pass


class EmptyTableError(EmbeddingError):
    pass


# Entry lines per np.loadtxt call: enough to amortise the call, few enough
# that the parse's temporaries stay small. Importing pairrank (28.5 MB) and
# loading a 4777 x 100 table peaks at 45 MB RSS when one call parses the
# whole file and at 34.5 MB with 512-line blocks (33 MB with one float()
# per field).
BLOCK_LINES = 512

# The version of what a sidecar saves: the layout of its members and the
# parse rules that made them. Bump it on any change to what _parse accepts
# or returns (the text's decoding, header detection, which fields are
# numeric, the non-finite check, keep-first on duplicates, the token -> row
# order), or to the layout; a sidecar of another version is ignored and
# rewritten. Version 3 saves the tokens, with the count, in one JSON member,
# and drops a leading byte-order mark that an earlier version kept as part
# of the first token.
SIDECAR_VERSION = 3


@dataclass
class EmbeddingTable:
    """Token vectors as one ``(V + 1, d)`` float64 matrix and its ``V`` tokens in row order.

    Row 0 is the zero vector that an out-of-vocabulary token adds; the
    ``V`` tokens take rows 1 to ``V``, and ``rows`` maps each to its row.
    The constructor checks all of this, and that each token is one word,
    held once, and every value finite. The table is read-only from then
    on: the constructor takes over ``matrix`` and makes it read-only in
    place, as ``Dataset`` and ``Batch`` do with their columns, keeps
    ``tokens`` as a tuple, and makes ``rows`` a read-only map.
    """

    matrix: np.ndarray
    tokens: Sequence[str]
    duplicates_skipped: int = 0
    rows: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        tokens = self.tokens
        if isinstance(tokens, str) or not isinstance(tokens, Sequence) or not all(isinstance(t, str) for t in tokens):
            raise EmbeddingError("tokens must be a sequence of strings")
        if isinstance(self.duplicates_skipped, bool) or not isinstance(self.duplicates_skipped, int):
            raise EmbeddingError(f"duplicates_skipped must be an integer, got {self.duplicates_skipped!r}")
        m, tokens = self.matrix, tuple(tokens)
        if m.ndim != 2 or min(m.shape) < 1:
            raise EmbeddingError(f"matrix must be 2-D with a row 0 and width >= 1, got shape {m.shape}")
        if len(tokens) != len(m) - 1:
            raise EmbeddingError(f"{len(tokens)} tokens for the {len(m) - 1} matrix rows after row 0")
        rows = dict(zip(tokens, range(1, len(m))))
        if len(rows) != len(tokens):
            raise EmbeddingError("each token must be held once")
        # The tokens split back from one string only when each is non-empty and free of whitespace.
        if " ".join(tokens).split() != list(tokens):
            raise EmbeddingError("each token must be one non-empty word without whitespace")
        if m[0].any() or np.signbit(m[0]).any():
            raise EmbeddingError("row 0, the out-of-vocabulary vector, must be +0.0")
        if not np.isfinite(m).all():
            raise EmbeddingError("non-finite vector value")
        if self.duplicates_skipped < 0:
            raise EmbeddingError(f"duplicates_skipped must be >= 0, got {self.duplicates_skipped}")
        self.tokens, self.rows = tokens, MappingProxyType(rows)
        m.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def rows_of(self, tokens: Sequence[str]) -> np.ndarray:
        """Each token's row of ``matrix``, 0 for a token out of the vocabulary."""
        return np.fromiter(map(self.rows.get, tokens, repeat(0)), dtype=np.int64, count=len(tokens))


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


def encode_tokens(sentences: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
    """``sentences`` as a sentence store: the flat integer ids of all tokens, and
    the offset at which each sentence starts, then the end.

    Ids are dense and follow first appearance.
    """
    vocab = {t: i for i, t in enumerate(dict.fromkeys(chain.from_iterable(sentences)))}
    ids = np.fromiter(map(vocab.__getitem__, chain.from_iterable(sentences)), dtype=np.int64)
    return ids, np.cumsum([0, *map(len, sentences)])


def gather_tokens(
    token_ids: np.ndarray, offsets: np.ndarray, sentences: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The token ids of a sentence store's ``sentences``, flat and in order, and their lengths.

    Sentence ``s`` of the store is ``token_ids[offsets[s]:offsets[s + 1]]``.
    """
    starts = offsets[sentences]
    lens = offsets[sentences + 1] - starts
    # Each token's place in the store: its sentence's start, plus its place within the sentence.
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return token_ids[shift + np.arange(len(shift))], lens


def _is_header(fields: Sequence[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def _data_lines(source: Iterable[str]) -> Iterator[tuple[int, str, str]]:
    """``(line number, token, vector text)`` of each entry line.

    Blank lines, ``#`` lines and a header on the first data line are
    dropped. The vector text is ``""`` for a token with no vector.
    """
    first_data_line = True
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if first_data_line:
            first_data_line = False
            if _is_header(line.split()):
                continue
        token, *rest = line.split(None, 1)
        yield lineno, token, rest[0] if rest else ""


def _parse_vectors(rests: Sequence[str]) -> np.ndarray:
    """Vector texts as rows; the block parse and the line re-parse read fields alike."""
    return np.loadtxt(rests, dtype=np.float64, ndmin=2, comments=None)


def _parse_block(linenos: Sequence[int], rests: Sequence[str], dimension: Optional[int]) -> np.ndarray:
    """The vectors of one block of entry lines, one row per line.

    One ``np.loadtxt`` call parses the whole block. Only when it fails, or
    gives a shape other than one row per line of the table's dimension,
    is the block parsed again a line at a time, to name the first bad line.
    """
    # A token with no vector ("") is left to the line-at-a-time parse to name.
    if all(rests):
        try:
            values = _parse_vectors(rests)
            if len(values) == len(rests) and dimension in (None, values.shape[1]):
                return values
        except ValueError:
            pass
    vectors = []
    for lineno, rest in zip(linenos, rests):
        # Split as Python does: np.loadtxt refuses a carriage return inside
        # a line, which a line-at-a-time parse has always read as a space.
        fields = rest.split()
        if not fields:
            raise EmbeddingError(f"line {lineno}: token without vector")
        try:
            vec = _parse_vectors([" ".join(fields)])[0]
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: non-numeric vector field") from exc
        if dimension is None:
            dimension = len(vec)
        elif len(vec) != dimension:
            raise InconsistentDimensionError(
                f"line {lineno}: expected {dimension} values, got {len(vec)}"
            )
        vectors.append(vec)
    return np.array(vectors)


def _parse(source: IO[str] | Iterable[str]) -> EmbeddingTable:
    """The table in the lines of a text embedding file, as :func:`load_embedding_table` describes."""
    kept: dict[str, int] = {}  # each token read, once, in row order -> the line it came from
    # Grown in place block by block: stacking the blocks at the end would
    # hold the table twice. Row 0 stays the zero vector.
    matrix = np.zeros((1, 0))
    dimension: Optional[int] = None
    entries = 0
    lines = _data_lines(source)
    while block := list(islice(lines, BLOCK_LINES)):
        linenos, tokens, rests = zip(*block)
        values = _parse_block(linenos, rests, dimension)
        dimension = values.shape[1]
        entries += len(block)
        # Lines are numbered once each, so setdefault gives back the line given only for a new token.
        keep = [kept.setdefault(token, lineno) == lineno for lineno, token in zip(linenos, tokens)]
        top = len(matrix)
        matrix.resize((len(kept) + 1, dimension), refcheck=False)
        matrix[top:] = values[keep]
    if not kept:
        raise EmptyTableError("no embedding entries in input")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if len(bad):
        raise EmbeddingError(f"line {list(kept.values())[bad[0] - 1]}: non-finite vector value")
    return EmbeddingTable(matrix, list(kept), duplicates_skipped=entries - len(kept))


# What a table's sidecar saves: each field of its constructor, and its type (see pairrank.sidecar).
_FIELDS = {"matrix": (np.float64, 2), "tokens": sidecar.JSON, "duplicates_skipped": sidecar.JSON}


def load_embedding_table(source: sidecar.Source) -> EmbeddingTable:
    """An :class:`EmbeddingTable` from a text embedding file, given by path or as lines.

    Vector fields are parsed ``BLOCK_LINES`` lines at a time with numpy's
    float parser. Duplicate tokens keep the first occurrence; the number
    skipped is recorded on the table. Raises, naming the line, on
    inconsistent dimensions, non-numeric fields and non-finite values;
    raises on empty input. A path to a regular file is parsed once and then
    read from its sidecar, by the rules of :func:`pairrank.sidecar.load`.
    """
    return sidecar.load(source, SIDECAR_VERSION, _parse, EmbeddingTable, _FIELDS)


def compose_mean_matrix(
    rows: np.ndarray, lens: np.ndarray, table: EmbeddingTable
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-composed vectors of sentences as an (S, d) array, and their OOV counts.

    ``rows`` holds each token's row of ``table.matrix`` (0 out of the
    vocabulary), sentence after sentence, and ``lens`` each sentence's
    length. Token vectors are summed position by position into a zeroed
    buffer, and an out-of-vocabulary token adds the zero row, so each
    sentence's sum runs in token order, exactly as one token at a time
    would. Sentences with no token found come back as zero vectors. A row
    outside ``table.matrix`` raises :class:`EmbeddingError`.
    """
    if rows.min(initial=0) < 0 or rows.max(initial=0) >= len(table.matrix):
        raise EmbeddingError(f"token rows must lie in [0, {len(table.matrix)}), got {rows.min()} to {rows.max()}")
    starts = np.cumsum(lens) - lens
    found_before = np.concatenate(([0], np.cumsum(rows != 0)))
    found = found_before[starts + lens] - found_before[starts]
    # Longest first, so the sentences still open at any position are a prefix.
    order = np.argsort(-lens, kind="stable")
    first, length = starts[order], lens[order]
    acc = np.zeros((len(lens), table.dimension))
    step = np.empty_like(acc)
    for pos in range(int(length.max(initial=0))):
        m = np.count_nonzero(length > pos)
        np.take(table.matrix, rows[first[:m] + pos], axis=0, out=step[:m], mode="clip")
        acc[:m] += step[:m]
    # Freed before the reorder below takes a buffer of its own.
    del step
    values = np.empty_like(acc)
    values[order] = acc
    np.divide(values, found[:, None], out=values, where=found[:, None] > 0)
    return values, lens - found


def compose_sentence_vector(tokens: Sequence[str], table: EmbeddingTable) -> SentenceVector:
    """Compose a fixed-length sentence vector: the mean of the token embeddings.

    Out-of-vocabulary tokens are skipped and counted. With no token found
    (or an empty sentence) the zero vector comes back, oov_count equal to
    the sentence length.
    """
    values, oov = compose_mean_matrix(table.rows_of(tokens), np.array([len(tokens)]), table)
    return SentenceVector(values[0], table.dimension, int(oov[0]))
