"""Word-embedding tables and sentence-vector composition.

Embedding files are plain UTF-8 text, one ``token v1 ... vd`` entry per
line. An optional word2vec-style ``<count> <dim>`` header line is
auto-detected, and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np


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


@dataclass
class EmbeddingTable:
    """Token vectors as one ``(V + 1, d)`` float64 matrix and a token -> row map.

    Row 0 is the zero vector that an out-of-vocabulary token adds; the
    ``V`` tokens take rows 1 to ``V``.
    """

    matrix: np.ndarray
    rows: dict[str, int]
    duplicates_skipped: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise EmbeddingError(f"dimension must be >= 1, got {self.dimension}")

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


def load_embedding_table(source: IO[str] | Iterable[str]) -> EmbeddingTable:
    """Parse a text embedding file into an :class:`EmbeddingTable`.

    Vector fields are parsed ``BLOCK_LINES`` lines at a time with numpy's
    float parser. Duplicate tokens keep the first occurrence; the number
    skipped is recorded on the table. Raises, naming the line, on
    inconsistent dimensions, non-numeric fields and non-finite values;
    raises on empty input.
    """
    rows: dict[str, int] = {}
    # Grown in place block by block: stacking the blocks at the end would
    # hold the table twice. Row 0 stays the zero vector.
    matrix = np.zeros((1, 0))
    row_lines: list[int] = []  # the line each of rows 1, 2, ... came from
    dimension: Optional[int] = None
    duplicates = 0
    lines = _data_lines(source)
    while block := list(islice(lines, BLOCK_LINES)):
        linenos, tokens, rests = zip(*block)
        values = _parse_block(linenos, rests, dimension)
        dimension = values.shape[1]
        keep = []
        for lineno, token in zip(linenos, tokens):
            new = token not in rows
            if new:
                rows[token] = len(rows) + 1
                row_lines.append(lineno)
            keep.append(new)
        duplicates += len(keep) - sum(keep)
        top = len(matrix)
        matrix.resize((len(rows) + 1, dimension), refcheck=False)
        matrix[top:] = values[keep]
    if not rows:
        raise EmptyTableError("no embedding entries in input")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if len(bad):
        raise EmbeddingError(f"line {row_lines[bad[0] - 1]}: non-finite vector value")
    return EmbeddingTable(matrix, rows, duplicates_skipped=duplicates)


def compose_mean_matrix(
    rows: np.ndarray, lens: np.ndarray, table: EmbeddingTable
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-composed vectors of sentences as an (S, d) array, and their OOV counts.

    ``rows`` holds each token's row of ``table.matrix`` (0 out of the
    vocabulary), sentence after sentence, and ``lens`` each sentence's
    length. Token vectors are summed position by position into a zeroed
    buffer, and an out-of-vocabulary token adds the zero row, so each
    sentence's sum runs in token order, exactly as one token at a time
    would. Sentences with no token found come back as zero vectors.
    """
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
