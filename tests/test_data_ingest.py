import copy
import dataclasses
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank import data_ingest

from pairrank.data_ingest import (
    DatasetFormatError,
    InconsistentSchema,
    load_dataset,
    vectorize,
)
from pairrank.embeddings import load_embedding_table
from pairrank.features import assemble_pairwise, bleu_components
from pairrank.synthetic import token_dataset_lines
from test_acceptance import brute_bleu_fields
from test_embeddings import sequential_mean


def make_line(**overrides):
    doc = {
        "id": "x1",
        "split": "cz",
        "reference": "the cat sat",
        "hyp1": "the cat sat",
        "hyp2": "a cat stood",
        "y": 1,
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_load_two_lines():
    ds = load_dataset(io.StringIO(make_line() + "\n" + make_line(id="x2", y=0) + "\n"))
    assert len(ds.tuples) == 2
    assert ds.tuples[0].reference == ["the", "cat", "sat"]
    assert ds.labels.tolist() == [1, 0]


def test_gold_ties_dropped():
    ds = load_dataset(io.StringIO(make_line() + "\n" + make_line(y="tie") + "\n"))
    assert len(ds.tuples) == 1
    assert ds.dropped_ties == 1


def test_bad_label():
    with pytest.raises(DatasetFormatError):
        load_dataset(io.StringIO(make_line(y=2)))


def test_boolean_label_rejected():
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(io.StringIO(make_line() + "\n" + make_line(y=True)))


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_external_score_reports_line(bad):
    good = make_line(external_scores_1={"TER": 0.5}, external_scores_2={"TER": 0.4})
    line = good.replace("0.4", bad)
    with pytest.raises(DatasetFormatError, match="line 2: external_scores_2"):
        load_dataset(io.StringIO(good + "\n" + line))


def test_malformed_json_reports_line():
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(io.StringIO(make_line() + "\n{broken\n"))


def test_inconsistent_schema():
    lines = [
        make_line(external_scores_1={"TER": 0.5}, external_scores_2={"TER": 0.4}),
        make_line(id="x2"),
    ]
    with pytest.raises(InconsistentSchema):
        load_dataset(io.StringIO("\n".join(lines)))


def test_pretokenized_sentences():
    ds = load_dataset(io.StringIO(make_line(reference=["the", "cat"])))
    assert ds.tuples[0].reference == ["the", "cat"]


def test_precomputed_vectors_all_or_none():
    line = make_line(psi_t1=[1.0, 2.0], psi_t2=[0.0, 1.0])
    with pytest.raises(DatasetFormatError):
        load_dataset(io.StringIO(line))


def test_mixed_sentence_dim():
    lines = [
        make_line(psi_t1=[1.0], psi_t2=[0.5], psi_r=[0.2]),
        make_line(id="x2", psi_t1=[1.0, 2.0], psi_t2=[0.5, 1.0], psi_r=[0.2, 0.1]),
    ]
    with pytest.raises(DatasetFormatError):
        load_dataset(io.StringIO("\n".join(lines)))


def test_vectorize_precomputed():
    line = make_line(psi_t1=[1.0] * 25, psi_t2=[0.5] * 25, psi_r=[0.2] * 25)
    ds = load_dataset(io.StringIO(line))
    batch, y = vectorize(ds)
    assert batch.P1.shape == (1, 25)
    assert batch.F1.shape == (1, 16)
    assert np.array_equal(batch.P2, np.full((1, 25), 0.5))
    assert y.tolist() == [1]


def test_vectorize_with_table():
    table = load_embedding_table(io.StringIO("the 1 0\ncat 0 1\nsat 1 1\na 2 2\nstood 3 3\n"))
    ds = load_dataset(io.StringIO(make_line()))
    batch, _ = vectorize(ds, table)
    assert batch.P1.shape == (1, 2)
    expected_ref = np.mean([[1, 0], [0, 1], [1, 1]], axis=0)
    assert np.array_equal(batch.Pr[0], expected_ref)


def test_vectorize_refuses_a_table_for_precomputed_vectors():
    ds = load_dataset(io.StringIO(make_line(psi_t1=[1.0, 0.0], psi_t2=[0.5, 0.5], psi_r=[0.2, 0.1])))
    table = load_embedding_table(io.StringIO("the 1 0\ncat 0 1\n"))
    with pytest.raises(DatasetFormatError,
                       match="^tuple x1: precomputed sentence vectors and an embedding table given"):
        vectorize(ds, table)


def hand_built(**columns):
    """A one-tuple dataset scored under ["M"], with ``columns`` replacing its own."""
    line = make_line(id="t7", reference="a", hyp1="a", hyp2="b",
                     external_scores_1={"M": 0.9}, external_scores_2={"M": 0.1})
    return dataclasses.replace(load_dataset([line]), **columns)


def test_dataset_refuses_vectors_for_other_tuples():
    # Vectors of dimension 5 for no tuple, where the dataset has one.
    with pytest.raises(DatasetFormatError, match=r"^vectors has shape \(3, 0, 5\), expected \(3, 1, any\)$"):
        hand_built(vectors=np.zeros((3, 0, 5)))


def test_dataset_refuses_scores_outside_the_schema():
    with pytest.raises(InconsistentSchema, match=r"^scores have 2 columns for schema \['M'\]$"):
        hand_built(scores=[[[0.9, 0.5]], [[0.1, 0.5]]])


# The hand-built datasets that vectorize once took without a typed error.
@pytest.mark.parametrize("columns, message", [
    # psi_t1 shorter than psi_t2 and psi_r: it was broadcast to their width.
    ({"vectors": [[[0.5]], [[0.5, 0.5, 0.5]], [[0.5, 0.5, 0.5]]]}, "^vectors: setting an array element"),
    # A NaN psi_r went through unchecked.
    ({"vectors": [[[0.5]], [[0.25]], [[float("nan")]]]}, "^vectors holds a non-finite value$"),
    # One tuple's vectors without the tuple axis; given with dimension 0, vectors were dropped.
    ({"vectors": [[0.5, 0.5], [0.25, 0.25], [1.0, 1.0]]}, r"^vectors has shape \(3, 2\), expected \(3, 1, any\)$"),
    ({"labels": [7]}, "^labels must be 0 or 1, got 7$"),
    ({"scores": [[[0.9]], [[float("inf")]]]}, "^scores holds a non-finite value$"),
    ({"scores": [[[0.9]], [[10 ** 400]]]}, "^scores: int too large to convert to float$"),
    # The sentence store: ids outside the vocabulary, offsets that do not
    # cover the tokens in order, and sentences outside the store.
    ({"token_ids": [0, 2]}, r"^token_ids must hold integers in \[0, 2\)$"),
    ({"token_ids": [0.0, 1.0]}, r"^token_ids must hold integers in \[0, 2\)$"),
    ({"offsets": [0, 2, 1]}, "^offsets must rise from 0 to the number of tokens$"),
    ({"offsets": [0, 1]}, "^offsets must rise from 0 to the number of tokens$"),
    ({"sentences": [[0], [1], [2]]}, r"^sentences must hold integers in \[0, 2\)$"),
    ({"sentences": [0, 1, 0]}, r"^sentences has shape \(3,\), expected \(3, 1\)$"),
    ({"splits": []}, "^0 splits for 1 tuples$"),
], ids=["short-vector", "nan-vector", "vectors-without-tuple-axis", "label-7", "infinite-score", "huge-score",
        "token-outside-vocab", "float-token-ids", "falling-offsets", "offsets-short-of-tokens",
        "sentence-outside-store", "sentences-without-tuple-axis", "splits-for-other-tuples"])
def test_dataset_refuses_bad_columns(columns, message):
    with pytest.raises(DatasetFormatError, match=message):
        hand_built(**columns)


def test_dataset_refuses_vectors_of_different_lengths():
    ds = load_dataset([make_line(id="t0"), make_line(id="t1", y=0)])
    ragged = [[[1.0, 2.0], [1.0]]] * 3  # the second tuple's vectors are shorter
    with pytest.raises(DatasetFormatError, match="^vectors: setting an array element"):
        dataclasses.replace(ds, vectors=ragged)


@pytest.mark.parametrize("write", [
    lambda ds: ds.labels.__setitem__(0, 7),
    lambda ds: ds.scores.__setitem__((0, 0, 0), np.nan),
    lambda ds: ds.vectors.__setitem__((2, 0, 0), np.nan),
    lambda ds: ds.sentences.__setitem__((0, 0), 1),
    lambda ds: ds.token_ids.__setitem__(0, 1),
], ids=["label", "score", "vector", "sentence", "token"])
def test_checked_columns_are_read_only(write):
    # Once checked, a column cannot take a value the check would refuse.
    line = make_line(external_scores_1={"M": 0.9}, external_scores_2={"M": 0.1},
                     psi_t1=[0.5], psi_t2=[0.25], psi_r=[1.0])
    ds = load_dataset([line])
    with pytest.raises(ValueError, match="read-only"):
        write(ds)
    batch, y = vectorize(ds)
    assert y.tolist() == [1] and np.isfinite(batch.F1).all() and np.isfinite(batch.Pr).all()


def test_loaded_dataset_holds_few_bytes_per_token():
    # The sentence store keeps each distinct sentence once, as 4-byte ids.
    # Held as lists of token strings, the same lines take 78 bytes per token.
    lines = token_dataset_lines(2000)
    n_tokens = sum(len(doc[k]) for doc in map(json.loads, lines) for k in ("reference", "hyp1", "hyp2"))
    load_dataset(lines[:1])  # first-call set-up is not the dataset's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(lines)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds.tuples) == 2000
    assert retained <= 20 * n_tokens, f"{retained / n_tokens:.1f} bytes per token"


def test_vectorize_features_match_independent_extraction():
    lines = token_dataset_lines(100, seed=11, with_external=True)
    ds = load_dataset(io.StringIO("\n".join(lines)))
    table = load_embedding_table(io.StringIO("\n".join(
        f"w{i} {float(i)} {float(i * 2)}" for i in range(30)
    )))
    batch, ys = vectorize(ds, table)
    assert len(batch) == len(ys) == len(ds.tuples)
    for i, rec in enumerate(map(json.loads, lines)):
        phi1 = assemble_pairwise(bleu_components(rec["hyp1"], rec["reference"]), rec["external_scores_1"])
        phi2 = assemble_pairwise(bleu_components(rec["hyp2"], rec["reference"]), rec["external_scores_2"])
        assert np.array_equal(batch.F1[i], phi1.values)
        assert np.array_equal(batch.F2[i], phi2.values)
        assert ys[i] == rec["y"]


def test_vectorize_order_preserving():
    lines = token_dataset_lines(10, seed=0)
    ds = load_dataset(io.StringIO("\n".join(lines)))
    _, ys = vectorize(ds)
    assert ys.dtype.kind == "i"
    assert ys.tolist() == [json.loads(line)["y"] for line in lines]


def test_splits_of():
    lines = token_dataset_lines(4, seed=0, splits=["cz", "de"])
    ds = load_dataset(io.StringIO("\n".join(lines)))
    assert list(ds.splits) == ["cz", "de", "cz", "de"]


sentence = st.lists(st.sampled_from(["w0", "w1", "w2", "oov"]), max_size=8)


@given(st.lists(st.tuples(sentence, sentence, st.integers(0, 2)), min_size=1, max_size=10),
       st.lists(sentence, min_size=3, max_size=3),
       st.integers(1, 4))
def test_vectorize_same_in_one_chunk_or_several(rows, refs, chunk):
    n = len(rows)
    lines = [make_line(id=f"t{i}", split="all", reference=refs[j], hyp1=h1, hyp2=h2, y=i % 2,
                       external_scores_1={"M": i / 7}, external_scores_2={"M": 1.0})
             for i, (h1, h2, j) in enumerate(rows)]
    ds = load_dataset(lines)
    table = load_embedding_table(io.StringIO("w0 0.1 -0.0\nw1 0.3 2.5\nw2 -7.0 1e-3\n"))
    whole, ya = vectorize(ds, table)
    with mock.patch.object(data_ingest, "CHUNK_TUPLES", chunk):
        chunked, yb = vectorize(ds, table)
    assert len(whole) == len(chunked) == n
    assert ya.tolist() == yb.tolist()
    for field in ("P1", "P2", "Pr", "F1", "F2"):
        assert getattr(whole, field).tobytes() == getattr(chunked, field).tobytes()


# Sentences drawn from a small pool, so that references and hypotheses
# repeat across tuples and within one; each is written either as a string
# or as a token array.
pool_sentence = st.lists(st.sampled_from(["w0", "w1", "w2", "oov"]), max_size=6)
written = st.tuples(st.integers(0, 3), st.booleans())


@given(st.lists(pool_sentence, min_size=4, max_size=4),
       st.lists(st.tuples(written, written, written), min_size=1, max_size=12),
       st.integers(1, 5))
def test_store_shares_sentences_and_features_match_oracles(pool, rows, chunk):
    def text(j, as_string):
        return " ".join(pool[j]) if as_string else pool[j]

    lines = [make_line(id=f"t{i}", reference=text(*r), hyp1=text(*h1), hyp2=text(*h2), y=i % 2)
             for i, (h1, h2, r) in enumerate(rows)]
    ds = load_dataset(lines)
    table = load_embedding_table(io.StringIO("w0 0.1 -0.0\nw1 0.3 2.5\nw2 -7.0 1e-3\n"))
    with mock.patch.object(data_ingest, "CHUNK_TUPLES", chunk):
        batch, _ = vectorize(ds, table)
    # The store holds as many sentences as there are distinct token
    # sequences, however they were written, and every tuple reads back its
    # own: so each is held once.
    assert len(ds.offsets) - 1 == len({tuple(pool[j]) for row in rows for j, _ in row})
    for i, ((h1, _), (h2, _), (r, _)) in enumerate(rows):
        tup = ds.tuples[i]
        assert (tup.hyp1, tup.hyp2, tup.reference) == (pool[h1], pool[h2], pool[r])
        for phi, h in ((batch.F1[i], h1), (batch.F2[i], h2)):
            p, m, t, hl, rl, ratio, bp = brute_bleu_fields(pool[h], pool[r])
            assert phi.tobytes() == np.array(p + m + t + [hl, rl, ratio, bp], dtype=float).tobytes()
        for psi, j in ((batch.P1[i], h1), (batch.P2[i], h2), (batch.Pr[i], r)):
            assert psi.tobytes() == sequential_mean(pool[j], table)[0].tobytes()


def without(key):
    doc = json.loads(make_line())
    del doc[key]
    return json.dumps(doc)


@pytest.mark.parametrize("bad_line", [
    make_line(psi_t1=[float("nan")], psi_t2=[0.5], psi_r=[0.2]),
    make_line(psi_t1=["high"], psi_t2=[0.5], psi_r=[0.2]),
    make_line(psi_t1=1.0, psi_t2=0.5, psi_r=0.2),
    make_line(external_scores_1={"M": True}, external_scores_2={"M": 0.5}),
    make_line(external_scores_1={"M": "high"}, external_scores_2={"M": 0.5}),
    make_line(external_scores_1={"M": 10 ** 400}, external_scores_2={"M": 0.5}),
    make_line(external_scores_1=[0.5], external_scores_2=[0.4]),
    without("reference"),
    without("hyp1"),
    without("hyp2"),
    "[1, 2]",
    "5",
    '"s"',
    "null",
    "1" * 5000,
    "[" * 100000,
], ids=["nan-psi", "string-psi", "scalar-psi", "bool-score", "string-score", "huge-score",
        "list-scores", "no-reference", "no-hyp1", "no-hyp2", "array-line", "number-line",
        "string-line", "null-line", "long-integer", "deep-nesting"])
def test_malformed_record_raises_typed_error_naming_line(bad_line):
    with pytest.raises(DatasetFormatError, match=r"^line 2: "):
        load_dataset(io.StringIO(make_line() + "\n" + bad_line + "\n"))


# Field-level mutations of valid records: replace or delete a field, an
# element of a vector or a named score, or the whole record.
json_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               | st.sampled_from(["w0 w1", "tie"]))
json_values = json_leaves | st.recursive(
    st.lists(json_leaves, max_size=3) | st.dictionaries(st.text(max_size=3), json_leaves, max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
FUZZ_BASES = [
    json.loads(make_line()),
    json.loads(make_line(reference=["w0", "w1"], hyp1="w1 w0", hyp2=[], y=0,
                         external_scores_1={"M": 0.5}, external_scores_2={"M": -2})),
    json.loads(make_line(psi_t1=[1.0, 2.0], psi_t2=[0.5, 0], psi_r=[-1.5, 3.0])),
]
FUZZ_PATHS = [(), ("id",), ("split",), ("reference",), ("hyp1",), ("hyp2",), ("y",),
              ("external_scores_1",), ("external_scores_2",), ("external_scores_1", "M"),
              ("psi_t1",), ("psi_t2",), ("psi_r",), ("psi_t1", 0), ("psi_r", 1)]
DELETE = object()


def mutated(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or deleted for DELETE."""
    if not path:
        return doc if value is DELETE else value
    doc = copy.deepcopy(doc)
    *parents, last = path
    try:
        target = doc
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or retyped this path
    return doc


@given(st.sampled_from(FUZZ_BASES),
       st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), st.just(DELETE) | json_values),
                min_size=1, max_size=3))
@settings(max_examples=500)
def test_mutated_record_loads_and_vectorizes_or_raises_typed_error(base, mutations):
    doc = base
    for path, value in mutations:
        doc = mutated(doc, path, value)
    table = load_embedding_table(io.StringIO("w0 0.5 1.0\nw1 -2.0 0.25\n"))
    try:
        ds = load_dataset([json.dumps(doc)])
        for t in (None, table):
            batch, y = vectorize(ds, t)
            assert len(batch) == len(y) == len(ds.tuples)
    except DatasetFormatError:
        pass
