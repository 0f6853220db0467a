import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairrank import embeddings
from pairrank.embeddings import (
    BLOCK_LINES,
    EmbeddingError,
    EmbeddingTable,
    EmptyTableError,
    InconsistentDimensionError,
    compose_mean_matrix,
    compose_sentence_vector,
    load_embedding_table,
    tokenize,
)


def table_ab():
    return load_embedding_table(io.StringIO("a 1.0 2.0\nb 3.0 4.0\n"))


def test_basic_load():
    t = table_ab()
    assert t.dimension == 2
    assert len(t) == 2
    assert np.array_equal(t.matrix, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    assert t.rows == {"a": 1, "b": 2}


@pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e999"])
def test_non_finite_value_names_its_line(value):
    with pytest.raises(EmbeddingError, match="^line 3: non-finite vector value$"):
        load_embedding_table(io.StringIO(f"a 1 2\n# comment\nthe {value} 1\n"))


def test_field_only_python_reads_is_non_numeric():
    # Vector fields go through numpy's float parser, which, unlike float(),
    # takes no digit-group underscores and no non-ASCII digits.
    for field in ("1_0", "\u0661"):
        with pytest.raises(EmbeddingError, match="^line 2: non-numeric vector field$"):
            load_embedding_table(io.StringIO(f"a 1 2\nb 3 {field}\n"))


def test_inconsistent_dimension():
    with pytest.raises(InconsistentDimensionError):
        load_embedding_table(io.StringIO("a 1.0 2.0\nb 3.0\n"))


def test_non_numeric_field():
    with pytest.raises(ValueError):
        load_embedding_table(io.StringIO("a 1.0 x\n"))


def test_empty_input():
    with pytest.raises(EmptyTableError):
        load_embedding_table(io.StringIO(""))


def test_duplicates_keep_first():
    t = load_embedding_table(io.StringIO("a 1.0 2.0\na 9.0 9.0\n"))
    assert len(t) == 1
    assert np.array_equal(t.matrix[t.rows["a"]], [1.0, 2.0])
    assert t.duplicates_skipped == 1


def test_word2vec_header_and_comments():
    t = load_embedding_table(io.StringIO("2 3\n# comment\na 1 2 3\nb 4 5 6\n"))
    assert t.dimension == 3
    assert len(t) == 2


def test_glove_style_roundtrip():
    # 25-column file of 100 words, generated programmatically; every value
    # must load as the float that was written, bit for bit.
    values = np.random.default_rng(7).normal(size=(100, 25))
    lines = [f"word{i} " + " ".join(map(repr, row.tolist())) for i, row in enumerate(values)]
    t = load_embedding_table(io.StringIO("\n".join(lines)))
    assert t.dimension == 25 and len(t) == 100
    assert t.rows == {f"word{i}": i + 1 for i in range(100)}
    assert t.matrix[1:].tobytes() == values.tobytes()
    assert not t.matrix[0].any()


def test_compose_mean():
    sv = compose_sentence_vector(["a", "b"], table_ab())
    assert np.array_equal(sv.values, [2.0, 3.0])
    assert sv.oov_count == 0


def test_compose_all_oov():
    sv = compose_sentence_vector(["zzz"], table_ab())
    assert np.array_equal(sv.values, [0.0, 0.0])
    assert sv.oov_count == 1


def test_compose_partial_oov():
    # Oracle: mean over the found subset only.
    sv = compose_sentence_vector(["a", "zzz", "b"], table_ab())
    found = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    expected = sum(found) / len(found)
    assert np.array_equal(sv.values, expected)
    assert sv.oov_count == 1


def test_compose_empty():
    sv = compose_sentence_vector([], table_ab())
    assert np.array_equal(sv.values, [0.0, 0.0])
    assert sv.oov_count == 0


@given(st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=8), st.randoms())
def test_compose_permutation_invariant(tokens, rnd):
    t = table_ab()
    base = compose_sentence_vector(tokens, t)
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    assert np.allclose(base.values, compose_sentence_vector(shuffled, t).values, atol=1e-12)
    assert base.oov_count == compose_sentence_vector(shuffled, t).oov_count


@given(st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=8))
def test_compose_duplication_invariant(tokens):
    t = table_ab()
    once = compose_sentence_vector(tokens, t)
    twice = compose_sentence_vector(tokens + tokens, t)
    assert np.allclose(once.values, twice.values, atol=1e-12)


def test_tokenize():
    assert tokenize("The  cat\tSAT ") == ["the", "cat", "sat"]


def sequential_mean(tokens, table):
    """Reference composition: one token at a time, OOV tokens skipped."""
    acc = np.zeros(table.dimension)
    found = 0
    for tok in tokens:
        if tok in table.rows:
            acc += table.matrix[table.rows[tok]]
            found += 1
    values = acc / found if found else np.zeros(table.dimension)
    return values, len(tokens) - found


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "zzz", "qqq"]), max_size=10), max_size=8),
       st.lists(finite, min_size=9, max_size=9))
@example(sentences=[["a"], ["zzz", "b"], []], values=[-0.0] * 9)
def test_bulk_compose_matches_sequential_mean(sentences, values):
    # Empty and all-OOV sentences come up often with two OOV tokens in five.
    table = EmbeddingTable(np.array([0.0] * 3 + values).reshape(4, 3), {"a": 1, "b": 2, "c": 3})
    rows = table.rows_of([t for s in sentences for t in s])
    got, oov = compose_mean_matrix(rows, np.array([len(s) for s in sentences], dtype=np.int64), table)
    assert got.shape == (len(sentences), 3)
    for row, n_oov, tokens in zip(got, oov, sentences):
        want, want_oov = sequential_mean(tokens, table)
        assert np.array_equal(row, want)
        assert row.tobytes() == want.tobytes()  # sign of zero too
        assert n_oov == want_oov


def per_line_load(lines):
    """The line-at-a-time loader that block parsing replaced, kept as the oracle.

    Returns ``{token: (line number, vector)}`` in file order and the number
    of duplicate lines skipped.
    """
    entries = {}
    dimension = None
    duplicates = 0
    first_data_line = True
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if first_data_line and embeddings._is_header(fields):
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
        entries[token] = (lineno, vec)
    if dimension is None or not entries:
        raise EmptyTableError("no embedding entries in input")
    return entries, duplicates


def assert_loads_like_per_line(lines):
    """The block loader gives the oracle's table, or the same error for the same line.

    The oracle reads non-finite values; the block loader must instead name
    the line of the first kept vector that holds one.
    """
    try:
        want = per_line_load(lines)
    except EmbeddingError as exc:
        with pytest.raises(type(exc)) as got:
            load_embedding_table(lines)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    entries, duplicates = want
    bad = [lineno for lineno, vec in entries.values() if not np.isfinite(vec).all()]
    if bad:
        with pytest.raises(EmbeddingError, match=f"^line {bad[0]}: non-finite vector value$"):
            load_embedding_table(lines)
        return
    table = load_embedding_table(lines)
    assert list(table.rows) == list(entries)
    assert list(table.rows.values()) == list(range(1, len(entries) + 1))
    assert table.matrix[0].tobytes() == np.zeros(table.dimension).tobytes()
    assert table.matrix[1:].tobytes() == np.array([vec for _, vec in entries.values()]).tobytes()
    assert table.duplicates_skipped == duplicates


GOOD_FIELDS = ["0", "1", "-2.5", "0.1", "1e-3", "+.5", "7.", "-0.0", "4.9e-324", "1.7976931348623157e308"]
BAD_FIELDS = ["x", "1,5", "0x10", "1e", "--1"]
NON_FINITE_FIELDS = ["nan", "-inf", "Infinity", "1e999"]
# Every character Python splits on, except the line breaks a file never
# leaves inside a line; "\r" still can, in lines handed over as strings.
SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", "\r"]


@st.composite
def entry_line(draw, dim):
    token = draw(st.sampled_from(["a", "b", "c", "d", "e", "7", "wörd"]))
    # About one line in ten has a defect: a wrong width, a bad field or a non-finite one.
    width = draw(st.sampled_from([dim] * 60 + [dim - 1, dim + 1, 0]))
    fields = draw(st.lists(st.sampled_from(GOOD_FIELDS * 30 + BAD_FIELDS + NON_FINITE_FIELDS * 2),
                           min_size=width, max_size=width))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=width, max_size=width))
    body = token + "".join(sep + field for sep, field in zip(seps, fields))
    return draw(st.sampled_from(["", " ", "\t"])) + body + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def table_files(draw):
    """Lines of a generated table, with ``BLOCK_LINES`` patched to 4."""
    dim = draw(st.integers(1, 3))
    # Just under, at and past one and two blocks of 4.
    n = draw(st.sampled_from([0, 1, 3, 4, 5, 7, 8, 9, 13]))
    # Sometimes every line from one on has another width, at a block boundary or not.
    switch = draw(st.sampled_from([n] * 3 + list(range(1, n))))
    lines = [draw(entry_line(dim if i < switch else dim + 1)) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "# comment", "  #x 1 2", "#"])))
    header = draw(st.sampled_from([None, f"{n} {dim}", "2 3", "x 3"]))
    if header is not None:
        lines.insert(draw(st.integers(0, 1)), header)
    return [line + "\n" for line in lines]


@settings(max_examples=400, deadline=None)
@given(table_files())
def test_block_loader_matches_per_line_loader(lines):
    with mock.patch.object(embeddings, "BLOCK_LINES", 4):
        assert_loads_like_per_line(lines)


def numbered_lines(n):
    return [f"w{i} {i}.0 {i}.1 {i}.2\n" for i in range(n)]


@pytest.mark.parametrize("entry_lines", [BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1])
def test_block_loader_matches_per_line_loader_around_one_block(entry_lines):
    lines = ["%d 3\n" % entry_lines, "# comment\n", "\n"] + numbered_lines(entry_lines - 1)
    lines[-1] = lines[-1].replace(" ", "\t  ")
    lines.insert(9, lines[5])  # a second w2 line, skipped
    assert_loads_like_per_line(lines)
    assert len(load_embedding_table(lines)) == entry_lines - 1


def test_bad_field_past_first_block_names_its_line():
    lines = ["# comment\n"] + numbered_lines(BLOCK_LINES + 20)
    lines[BLOCK_LINES + 8] = "bad 1.0 2,0 3.0\n"
    with pytest.raises(EmbeddingError, match=f"^line {BLOCK_LINES + 9}: non-numeric vector field$"):
        load_embedding_table(lines)
    assert_loads_like_per_line(lines)


@pytest.mark.parametrize("first, last", [(BLOCK_LINES + 8, BLOCK_LINES + 8), (BLOCK_LINES + 1, BLOCK_LINES + 20)],
                         ids=["one-short-row-mid-block", "short-from-the-second-block-on"])
def test_short_row_past_first_block_names_its_line(first, last):
    # lines[k] is file line k + 1; the second block starts at lines[BLOCK_LINES + 1].
    lines = ["# comment\n"] + numbered_lines(BLOCK_LINES + 20)
    for k in range(first, last + 1):
        lines[k] = lines[k].rsplit(" ", 1)[0] + "\n"
    with pytest.raises(InconsistentDimensionError, match=f"^line {first + 1}: expected 3 values, got 2$"):
        load_embedding_table(lines)
    assert_loads_like_per_line(lines)
