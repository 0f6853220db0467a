import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pairrank.embeddings import (
    EmbeddingTable,
    EmptyTableError,
    InconsistentDimensionError,
    DimensionMismatchError,
    compose_mean_matrix,
    compose_sentence_vector,
    load_embedding_table,
    save_embedding_table,
    tokenize,
)


def table_ab():
    return load_embedding_table(io.StringIO("a 1.0 2.0\nb 3.0 4.0\n"))


def test_basic_load():
    t = table_ab()
    assert t.dimension == 2
    assert len(t) == 2
    assert np.array_equal(t.entries["a"], [1.0, 2.0])


def test_inconsistent_dimension():
    with pytest.raises(InconsistentDimensionError):
        load_embedding_table(io.StringIO("a 1.0 2.0\nb 3.0\n"))


def test_non_numeric_field():
    with pytest.raises(ValueError):
        load_embedding_table(io.StringIO("a 1.0 x\n"))


def test_empty_input():
    with pytest.raises(EmptyTableError):
        load_embedding_table(io.StringIO(""))


def test_expected_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        load_embedding_table(io.StringIO("a 1.0 2.0\n"), expected_dimension=3)


def test_duplicates_keep_first():
    t = load_embedding_table(io.StringIO("a 1.0 2.0\na 9.0 9.0\n"))
    assert np.array_equal(t.entries["a"], [1.0, 2.0])
    assert t.duplicates_skipped == 1


def test_word2vec_header_and_comments():
    t = load_embedding_table(io.StringIO("2 3\n# comment\na 1 2 3\nb 4 5 6\n"))
    assert t.dimension == 3
    assert len(t) == 2


def test_glove_style_roundtrip():
    # 25-column file of 100 words, generated programmatically; values must
    # survive a save/reload cycle bit-exactly.
    rng = np.random.default_rng(7)
    lines = [
        f"word{i} " + " ".join(repr(float(v)) for v in rng.normal(size=25))
        for i in range(100)
    ]
    t = load_embedding_table(io.StringIO("\n".join(lines)))
    assert t.dimension == 25 and len(t) == 100
    buf = io.StringIO()
    save_embedding_table(t, buf)
    t2 = load_embedding_table(io.StringIO(buf.getvalue()))
    for w in t.entries:
        assert np.array_equal(t.entries[w], t2.entries[w])


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


def test_unknown_strategy():
    with pytest.raises(ValueError):
        compose_sentence_vector(["a"], table_ab(), strategy="max")


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
        vec = table.entries.get(tok)
        if vec is not None:
            acc += vec
            found += 1
    values = acc / found if found else np.zeros(table.dimension)
    return values, len(tokens) - found


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "zzz", "qqq"]), max_size=10), max_size=8),
       st.lists(finite, min_size=9, max_size=9))
@example(sentences=[["a"], ["zzz", "b"], []], values=[-0.0] * 9)
def test_bulk_compose_matches_sequential_mean(sentences, values):
    # Empty and all-OOV sentences come up often with two OOV tokens in five.
    table = EmbeddingTable(3, {w: np.array(values[3 * i : 3 * i + 3]) for i, w in enumerate("abc")})
    got, oov = compose_mean_matrix(sentences, table)
    assert got.shape == (len(sentences), 3)
    for row, n_oov, tokens in zip(got, oov, sentences):
        want, want_oov = sequential_mean(tokens, table)
        assert np.array_equal(row, want)
        assert row.tobytes() == want.tobytes()  # sign of zero too
        assert n_oov == want_oov
