import base64
import codecs
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import tempfile
import threading
import tracemalloc
import zipfile
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank import data_ingest, features, sidecar

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
from test_embeddings import (BAD_FIELDS_JSON, FullDisk, fail_mkstemp, owned_by, replace_bytes, rewrite_sidecar,
                             sequential_mean, sidecar_bytes, sidecar_members, strings_with, write_sidecar)


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
    batch = vectorize(ds)
    y = batch.y
    assert batch.P1.shape == (1, 25)
    assert batch.F1.shape == (1, 16)
    assert np.array_equal(batch.P2, np.full((1, 25), 0.5))
    assert y.tolist() == [1]


def test_vectorize_with_table():
    table = load_embedding_table(io.StringIO("the 1 0\ncat 0 1\nsat 1 1\na 2 2\nstood 3 3\n"))
    ds = load_dataset(io.StringIO(make_line()))
    batch = vectorize(ds, table)
    assert batch.P1.shape == (1, 2)
    expected_ref = np.mean([[1, 0], [0, 1], [1, 1]], axis=0)
    assert np.array_equal(batch.Pr[0], expected_ref)


def test_vectorize_refuses_a_table_for_precomputed_vectors():
    ds = load_dataset(io.StringIO(make_line(psi_t1=[1.0, 0.0], psi_t2=[0.5, 0.5], psi_r=[0.2, 0.1])))
    table = load_embedding_table(io.StringIO("the 1 0\ncat 0 1\n"))
    with pytest.raises(DatasetFormatError,
                       match="^tuple x1: precomputed sentence vectors and an embedding table given"):
        vectorize(ds, table)


@pytest.mark.parametrize("source", ["precomputed", "table"])
def test_vectorize_batch_carries_the_dataset_labels(source):
    psi = {"psi_t1": [1.0, 0.0], "psi_t2": [0.5, 0.5], "psi_r": [0.2, 0.1]} if source == "precomputed" else {}
    ds = load_dataset([make_line(id=f"x{i}", y=y, **psi) for i, y in enumerate([1, 0, 0, 1, 0])])
    table = load_embedding_table(io.StringIO("the 1 0\ncat 0 1\n")) if source == "table" else None
    batch = vectorize(ds, table)
    assert batch.y.tolist() == ds.labels.tolist() == [1, 0, 0, 1, 0]
    # The dataset's own column, not a copy of it.
    assert batch.y is ds.labels
    # The sentence vectors are one C-contiguous (n, 3, d) array, so that forward_batch reads
    # adjacent pairs of its columns in place. Precomputed vectors are the dataset's own, like the labels:
    # copied, they were held twice, some 46 MB of a warm evaluate's peak at 20,000 tuples of width 100.
    assert batch.P.shape == (5, 3, 2) and batch.P.flags.c_contiguous
    assert np.shares_memory(batch.P, ds.vectors) == (source == "precomputed")


def hand_built(**columns):
    """A one-tuple dataset scored under ["M"], with ``columns`` replacing its own."""
    line = make_line(id="t7", reference="a", hyp1="a", hyp2="b",
                     external_scores_1={"M": 0.9}, external_scores_2={"M": 0.1})
    return dataclasses.replace(load_dataset([line]), **columns)


def test_dataset_refuses_vectors_for_other_tuples():
    # Vectors of dimension 5 for no tuple, where the dataset has one.
    with pytest.raises(DatasetFormatError, match=r"^vectors has shape \(0, 3, 5\), expected \(1, 3, any\)$"):
        hand_built(vectors=np.zeros((0, 3, 5)))


def test_dataset_refuses_scores_outside_the_schema():
    with pytest.raises(InconsistentSchema, match=r"^scores have 2 columns for schema \['M'\]$"):
        hand_built(scores=[[[0.9, 0.5], [0.1, 0.5]]])


# The hand-built datasets that vectorize once took without a typed error.
@pytest.mark.parametrize("columns, message", [
    # psi_t1 shorter than psi_t2 and psi_r: it was broadcast to their width.
    ({"vectors": [[[0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]]}, "^vectors: setting an array element"),
    # A NaN psi_r went through unchecked.
    ({"vectors": [[[0.5], [0.25], [float("nan")]]]}, "^vectors holds a non-finite value$"),
    # One tuple's vectors without the tuple axis; given with dimension 0, vectors were dropped.
    ({"vectors": [[0.5, 0.5], [0.25, 0.25], [1.0, 1.0]]}, r"^vectors has shape \(3, 2\), expected \(1, 3, any\)$"),
    ({"labels": [7]}, "^labels must be 0 or 1, got 7$"),
    ({"scores": [[[0.9], [float("inf")]]]}, "^scores holds a non-finite value$"),
    ({"scores": [[[0.9], [10 ** 400]]]}, "^scores: int too large to convert to float$"),
    # The sentence store: ids outside the vocabulary, offsets that do not
    # cover the tokens in order, and sentences outside the store.
    ({"token_ids": [0, 2]}, r"^token_ids must hold integers in \[0, 2\)$"),
    ({"token_ids": [0.0, 1.0]}, r"^token_ids must hold integers in \[0, 2\)$"),
    ({"offsets": [0, 2, 1]}, "^offsets must rise from 0 to the number of tokens$"),
    ({"offsets": [0, 1]}, "^offsets must rise from 0 to the number of tokens$"),
    ({"sentences": [[0, 1, 2]]}, r"^sentences must hold integers in \[0, 2\)$"),
    ({"sentences": [0, 1, 0]}, r"^sentences has shape \(3,\), expected \(1, 3\)$"),
    ({"splits": []}, "^0 splits for 1 tuples$"),
    # Token ids name vocabulary entries, and BLEU compares ids: a repeated
    # entry would make two ids of one token.
    ({"vocab": ["a", "a"]}, "^vocab must hold each token once$"),
    ({"feature_schema": ["TER", "M"], "scores": [[[0.9, 0.5], [0.1, 0.5]]]},
     r"^schema \['TER', 'M'\] must be sorted and hold each name once$"),
    ({"feature_schema": ["M", "M"], "scores": [[[0.9, 0.5], [0.1, 0.5]]]},
     r"^schema \['M', 'M'\] must be sorted and hold each name once$"),
    ({"dropped_ties": -1}, "^dropped_ties must be >= 0, got -1$"),
    # Text fields and the count as a sidecar's JSON may hold them.
    ({"ids": [7]}, "^ids must be a sequence of strings$"),
    ({"splits": "c"}, "^splits must be a sequence of strings$"),
    ({"vocab": {"a": 0, "b": 1}}, "^vocab must be a sequence of strings$"),
    ({"feature_schema": [["M"]]}, "^feature_schema must be a sequence of strings$"),
    ({"dropped_ties": True}, "^dropped_ties must be an integer, got True$"),
    ({"dropped_ties": 1.0}, "^dropped_ties must be an integer, got 1.0$"),
    # The clipped matches of hyp1 ("a" against the reference "a") and hyp2 ("b"): one unigram each at most.
    ({"matches": np.zeros((1, 2, 3), np.int32)}, r"^matches has shape \(1, 2, 3\), expected \(1, 2, 4\)$"),
    ({"matches": np.zeros((1, 2, 4))}, r"^matches must hold integers in \[0, 2147483647\)$"),
    ({"matches": [[[-1, 0, 0, 0], [0, 0, 0, 0]]]}, r"^matches must hold integers in \[0, 2147483647\)$"),
    ({"matches": [[[1, 1, 0, 0], [0, 0, 0, 0]]]}, "^matches must not exceed their hypothesis's k-gram totals$"),
    # A store in which hyp1 is empty, under the matches counted for "a".
    ({"token_ids": [1], "offsets": [0, 0, 1]}, "^matches must not exceed their hypothesis's k-gram totals$"),
], ids=["short-vector", "nan-vector", "vectors-without-tuple-axis", "label-7", "infinite-score", "huge-score",
        "token-outside-vocab", "float-token-ids", "falling-offsets", "offsets-short-of-tokens",
        "sentence-outside-store", "sentences-without-tuple-axis", "splits-for-other-tuples",
        "repeated-vocab", "unsorted-schema", "repeated-schema-name", "negative-dropped-ties",
        "integer-id", "splits-as-one-string", "vocab-as-an-object", "list-in-schema", "true-dropped-ties",
        "float-dropped-ties", "matches-of-three-orders", "float-matches", "negative-match", "match-above-total",
        "matches-of-a-longer-store"])
def test_dataset_refuses_bad_columns(columns, message):
    with pytest.raises(DatasetFormatError, match=message):
        hand_built(**columns)


def test_dataset_refuses_vectors_of_different_lengths():
    ds = load_dataset([make_line(id="t0"), make_line(id="t1", y=0)])
    ragged = [[[1.0, 2.0]] * 3, [[1.0]] * 3]  # the second tuple's vectors are shorter
    with pytest.raises(DatasetFormatError, match="^vectors: setting an array element"):
        dataclasses.replace(ds, vectors=ragged)


@pytest.mark.parametrize("write", [
    lambda ds: ds.labels.__setitem__(0, 7),
    lambda ds: ds.scores.__setitem__((0, 0, 0), np.nan),
    lambda ds: ds.vectors.__setitem__((0, 2, 0), np.nan),
    lambda ds: ds.sentences.__setitem__((0, 0), 1),
    lambda ds: ds.token_ids.__setitem__(0, 1),
    lambda ds: ds.matches.__setitem__((0, 0, 3), 9),
], ids=["label", "score", "vector", "sentence", "token", "match"])
def test_checked_columns_are_read_only(write):
    # Once checked, a column cannot take a value the check would refuse.
    line = make_line(external_scores_1={"M": 0.9}, external_scores_2={"M": 0.1},
                     psi_t1=[0.5], psi_t2=[0.25], psi_r=[1.0])
    ds = load_dataset([line])
    with pytest.raises(ValueError, match="read-only"):
        write(ds)
    batch = vectorize(ds)
    y = batch.y
    assert y.tolist() == [1] and np.isfinite(batch.F1).all() and np.isfinite(batch.Pr).all()


def test_feature_schema_cannot_grow():
    # A name appended to the schema once made vectorize repeat a score column under it.
    ds = load_dataset([make_line(external_scores_1={"METEOR": 0.8}, external_scores_2={"METEOR": 0.7})])
    with pytest.raises(AttributeError):
        ds.feature_schema.append("X")
    assert ds.feature_schema == ("METEOR",)
    assert hand_built(feature_schema=["M"]).feature_schema == ("M",)
    assert vectorize(ds).F1.shape == (1, 17)


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
    batch = vectorize(ds, table)
    ys = batch.y
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
    ys = vectorize(ds).y
    assert ys.dtype.kind == "i"
    assert ys.tolist() == [json.loads(line)["y"] for line in lines]


def test_splits_of():
    lines = token_dataset_lines(4, seed=0, splits=["cz", "de"])
    ds = load_dataset(io.StringIO("\n".join(lines)))
    assert list(ds.splits) == ["cz", "de", "cz", "de"]


@contextlib.contextmanager
def chunk_tokens(budget):
    """Loads and ``vectorize`` with a token budget of ``budget`` per chunk, checking
    that each chunk whose n-grams a parse counts is a single tuple or holds at most
    ``budget`` tokens, and that some chunk was counted."""
    real, counted = data_ingest.clipped_matches, []

    def checked(token_ids, offsets, hyps, refs):
        # hyps holds each tuple's hyp1 and hyp2 of the chunk in turn; refs each tuple's reference twice.
        lens, tuples = np.diff(offsets), len(hyps) // 2
        assert tuples == 1 or lens[hyps].sum() + lens[refs[::2]].sum() <= budget
        counted.append(tuples)
        return real(token_ids, offsets, hyps, refs)

    with mock.patch.object(data_ingest, "CHUNK_TOKENS", budget), \
            mock.patch.object(data_ingest, "clipped_matches", checked):
        yield
    assert counted, "no chunk was counted: load the data inside the budget"


sentence = st.lists(st.sampled_from(["w0", "w1", "w2", "oov"]), max_size=8)


# Budgets of 1-30 tokens against tuples of 0-24 give one-tuple chunks,
# chunks of several tuples and tuples larger than the budget.
@given(st.lists(st.tuples(sentence, sentence, st.integers(0, 2)), min_size=1, max_size=10),
       st.lists(sentence, min_size=3, max_size=3),
       st.integers(1, 30))
def test_vectorize_same_in_one_chunk_or_several(rows, refs, chunk):
    n = len(rows)
    lines = [make_line(id=f"t{i}", split="all", reference=refs[j], hyp1=h1, hyp2=h2, y=i % 2,
                       external_scores_1={"M": i / 7}, external_scores_2={"M": 1.0})
             for i, (h1, h2, j) in enumerate(rows)]
    table = load_embedding_table(io.StringIO("w0 0.1 -0.0\nw1 0.3 2.5\nw2 -7.0 1e-3\n"))
    whole = vectorize(load_dataset(lines), table)
    with chunk_tokens(chunk):
        chunked = vectorize(load_dataset(lines), table)
    ya, yb = whole.y, chunked.y
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
       st.integers(1, 30))
def test_store_shares_sentences_and_features_match_oracles(pool, rows, chunk):
    def text(j, as_string):
        return " ".join(pool[j]) if as_string else pool[j]

    lines = [make_line(id=f"t{i}", reference=text(*r), hyp1=text(*h1), hyp2=text(*h2), y=i % 2)
             for i, (h1, h2, r) in enumerate(rows)]
    table = load_embedding_table(io.StringIO("w0 0.1 -0.0\nw1 0.3 2.5\nw2 -7.0 1e-3\n"))
    with chunk_tokens(chunk):
        ds = load_dataset(lines)
        batch = vectorize(ds, table)
    # The store holds as many sentences as there are distinct token
    # sequences, however they were written, and every tuple reads back its
    # own: so each is held once.
    assert len(ds.offsets) - 1 == len({tuple(pool[j]) for row in rows for j, _ in row})
    for i, ((h1, _), (h2, _), (r, _)) in enumerate(rows):
        tup = ds.tuples[i]
        assert (tup.hyp1, tup.hyp2, tup.reference) == (pool[h1], pool[h2], pool[r])
        for phi, h in ((batch.F1[i], h1), (batch.F2[i], h2)):
            assert phi.tobytes() == np.array(brute_bleu_fields(pool[h], pool[r]), dtype=float).tobytes()
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
    # Each of these used to load as its str(), which predict then wrote out: the split "None", the id "['x']".
    make_line(id=True),
    make_line(id=1.5),
    make_line(id=["x"]),
    make_line(id=None),
    make_line(split=None),
    make_line(split=3),
    make_line(split={"k": 1}),
], ids=["nan-psi", "string-psi", "scalar-psi", "bool-score", "string-score", "huge-score",
        "list-scores", "no-reference", "no-hyp1", "no-hyp2", "array-line", "number-line",
        "string-line", "null-line", "long-integer", "deep-nesting", "bool-id", "float-id", "list-id", "null-id",
        "null-split", "integer-split", "object-split"])
def test_malformed_record_raises_typed_error_naming_line(bad_line):
    with pytest.raises(DatasetFormatError, match=r"^line 2: "):
        load_dataset(io.StringIO(make_line() + "\n" + bad_line + "\n"))


def test_id_may_be_an_integer_or_absent():
    ds = load_dataset([make_line(id=-7), json.dumps({k: v for k, v in json.loads(make_line()).items() if k != "id"})])
    assert ds.ids == ("-7", "2")


@pytest.mark.parametrize("lines, message", [
    # predict would write two rows under one id.
    ([make_line(id=7), make_line(id="7")], "^line 2: id '7' repeats line 1$"),
    # A record without an id takes its line number.
    ([make_line(id=2), without("id")], "^line 2: id '2' repeats line 1$"),
    ([make_line(), make_line(y="tie"), make_line(y=0)], "^line 3: id 'x1' repeats line 1$"),
], ids=["integer-and-string", "integer-and-line-number", "past-a-dropped-tie"])
def test_repeated_id_names_both_lines(lines, message):
    with pytest.raises(DatasetFormatError, match=message):
        load_dataset(lines)


def test_dataset_refuses_a_repeated_id():
    ds = load_dataset([make_line(id="t0"), make_line(id="t1", y=0), make_line(id="t2")])
    with pytest.raises(DatasetFormatError, match="^id 't1' repeats$"):
        dataclasses.replace(ds, ids=["t0", "t1", "t1"])


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
            batch = vectorize(ds, t)
            y = batch.y
            assert len(batch) == len(y) == len(ds.tuples)
    except DatasetFormatError:
        pass


SIDECAR_DATASETS = {
    "ties-and-scores": [make_line(external_scores_1={"TER": 0.5, "M": 1}, external_scores_2={"TER": 0.25, "M": -2}),
                        make_line(id="x2", y="tie"),
                        make_line(id="x3", y=0, hyp1="The Cat  sat", reference="a dog stood", external_scores_1={"M": 0, "TER": 1e-300},
                                  external_scores_2={"TER": 3, "M": 7.5})],
    "precomputed": [make_line(psi_t1=[0.5, -1], psi_t2=[0.25, 2], psi_r=[1.0, 1e300]),
                    make_line(id="x2", y=0, hyp2="the cat sat", psi_t1=[0, 0], psi_t2=[-0.0, 1], psi_r=[3, 4])],
    "pre-tokenized": [make_line(hyp1=["the cat", "", "sat"], reference=["", "The", "cat\tsat"], hyp2=[]),
                      make_line(id="x2", hyp1="the cat sat", reference=["the", "cat", "sat"])],
    "defaults": ["", json.dumps({"reference": "r", "hyp1": "h", "hyp2": "h r", "y": 1}), "  ",
                 json.dumps({"reference": "r", "hyp1": "h", "hyp2": "h r", "y": 0, "split": "de", "id": 7})],
    "newline-id": [make_line(id="a\nb"), make_line(id="a", split="x\ny\n")],
    "lone-surrogate": [make_line(id="\ud800", split="\udfff"), make_line(hyp1="\ud83d \ude00 x", reference=["\ud800"])],
    "nul-quote-non-ascii": [make_line(id="a\x00b", split='say "hi"',
                                      reference=["a\nb", "a\x00b", 'say "hi"', "wörd 日本"])],
    "empty": [make_line(y="tie")],
}


def data_file(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def assert_same_dataset(got, want):
    for f in dataclasses.fields(data_ingest.Dataset):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            assert not a.flags.writeable, f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def parsed(path):
    with open(path, encoding="utf-8") as f:
        return load_dataset(f)


def parse_only():
    """Loads inside this context may parse no text: they must come from a sidecar."""
    return mock.patch.object(data_ingest, "_parse", side_effect=AssertionError("parsed"))


@pytest.mark.parametrize("lines", SIDECAR_DATASETS.values(), ids=SIDECAR_DATASETS)
def test_cold_and_warm_loads_give_the_parsed_dataset(tmp_path, lines):
    path = data_file(tmp_path, lines)
    want = parsed(path)
    cold = load_dataset(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".data.jsonl.pairrank.npz", "data.jsonl"]
    with parse_only():
        warm = load_dataset(str(path))
    assert_same_dataset(cold, want)
    assert_same_dataset(warm, want)


# Any text, and pieces of what a parse must keep: whitespace, newlines, lone surrogates.
texts = st.text(max_size=4) | st.lists(st.sampled_from(["a", "É", " ", "\t", "\n", "\ud800", "\ude00"]),
                                       max_size=4).map("".join)


@given(st.lists(st.fixed_dictionaries({"id": texts, "split": texts, "reference": st.lists(texts, max_size=3),
                                       "hyp1": texts, "hyp2": st.lists(texts, max_size=3),
                                       "y": st.sampled_from([0, 1, "tie"])}), max_size=4, unique_by=lambda r: r["id"]))
@settings(max_examples=60, deadline=None)
def test_any_parsed_dataset_round_trips_through_its_sidecar(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = data_file(pathlib.Path(tmp), [json.dumps(r) for r in records])
        want = parsed(path)
        assert_same_dataset(load_dataset(path), want)
        with parse_only():
            assert_same_dataset(load_dataset(path), want)


def test_dataset_sidecar_is_one_json_member_and_an_array_per_column(tmp_path):
    path = data_file(tmp_path, SIDECAR_DATASETS["ties-and-scores"])
    load_dataset(path)
    with zipfile.ZipFile(sidecar.sidecar_path(path)) as zf:
        assert zf.namelist() == ["fields.json", "token_ids.npy", "offsets.npy", "sentences.npy", "matches.npy",
                                 "labels.npy", "scores.npy", "vectors.npy"]
    assert sidecar_members(path)["fields.json"] == {
        "version": data_ingest.SIDECAR_VERSION, "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "ids": ["x1", "x3"], "splits": ["cz", "cz"], "vocab": ["the", "cat", "sat", "a", "stood", "dog"],
        "feature_schema": ["M", "TER"], "dropped_ties": 1}


def test_warm_load_and_vectorize_count_no_ngrams(tmp_path):
    lines = token_dataset_lines(60, seed=5, with_external=True)
    path = data_file(tmp_path, lines)
    table = load_embedding_table(io.StringIO("\n".join(f"w{i} {i / 7} {-i}" for i in range(30))))
    cold = vectorize(load_dataset(path), table)
    # The parse's counting call, and the token gather through which any count in features reads its tokens.
    counting = AssertionError("counted n-grams")
    with parse_only(), mock.patch.object(data_ingest, "clipped_matches", side_effect=counting), \
            mock.patch.object(features, "gather_tokens", side_effect=counting):
        warm = vectorize(load_dataset(path), table)
    for field in ("P1", "P2", "Pr", "F1", "F2", "y"):
        a, b = getattr(warm, field), getattr(cold, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field


def test_byte_order_mark_is_dropped(tmp_path):
    # Kept, the mark failed the first line as malformed JSON.
    want = parsed(data_file(tmp_path, SIDECAR_DATASETS["ties-and-scores"]))
    path = tmp_path / "bom.jsonl"
    path.write_bytes(codecs.BOM_UTF8 + (tmp_path / "data.jsonl").read_bytes())
    assert_same_dataset(load_dataset(path), want)
    with parse_only():
        assert_same_dataset(load_dataset(path), want)


def test_dataset_sidecar_is_keyed_by_content(tmp_path):
    path = data_file(tmp_path, [make_line(y=1)])
    assert load_dataset(path).labels.tolist() == [1]
    stat = path.stat()
    # The same size and modification time, other bytes.
    path.write_bytes(path.read_bytes().replace(b'"y": 1', b'"y": 0'))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert load_dataset(path).labels.tolist() == [0]
    with parse_only():
        assert load_dataset(path).labels.tolist() == [0]


def member_with(name, at, value):
    def change(path):
        a = sidecar_members(path)[name]
        a[at] = value
        rewrite_sidecar(path, **{name: a})
    return change


BAD_DATA_SIDECARS = {
    "truncated": lambda p: replace_bytes(p, sidecar_bytes(p)[:-200]),
    "not-a-zip-file": lambda p: replace_bytes(p, b"not a zip file\n"),
    "other-version": lambda p: rewrite_sidecar(p, version=data_ingest.SIDECAR_VERSION + 1),
    "other-digest": lambda p: rewrite_sidecar(p, sha256="0" * 64),
    "missing-member": lambda p: write_sidecar(p, {k: v for k, v in sidecar_members(p).items() if k != "scores"}),
    "pickled-member": lambda p: rewrite_sidecar(p, labels=sidecar_members(p)["labels"].astype(object)),
    "label-of-7": member_with("labels", 0, 7),
    "token-id-outside-vocabulary": lambda p: member_with("token_ids", 0, len(sidecar_members(p)["fields.json"]["vocab"]))(p),
    "falling-offsets": member_with("offsets", 1, 7),
    "float32-scores": lambda p: rewrite_sidecar(p, scores=sidecar_members(p)["scores"].astype(np.float32)),
    # x1's hyp1, "the cat sat", has no 4-gram to match.
    "match-above-total": member_with("matches", (0, 0, 3), 1),
    "int64-matches": lambda p: rewrite_sidecar(p, matches=sidecar_members(p)["matches"].astype(np.int64)),
    "negative-dropped-ties": lambda p: rewrite_sidecar(p, dropped_ties=-1),
    "true-dropped-ties": lambda p: rewrite_sidecar(p, dropped_ties=True),
    "repeated-vocab": strings_with("vocab", lambda vocab: [vocab[0], *vocab[:-1]]),
    "repeated-id": strings_with("ids", lambda ids: [ids[0]] * len(ids)),
    "numeric-id": strings_with("ids", lambda ids: list(range(len(ids)))),
    "null-split": strings_with("splits", lambda splits: [None] * len(splits)),
    "unsorted-schema": strings_with("feature_schema", lambda schema: schema[::-1]),
    **BAD_FIELDS_JSON,
}


@pytest.mark.parametrize("spoil", BAD_DATA_SIDECARS.values(), ids=BAD_DATA_SIDECARS)
def test_bad_dataset_sidecar_is_ignored_and_rewritten(tmp_path, spoil):
    # Three distinct sentences of three tokens each: offsets [0, 3, 6, 9].
    path = data_file(tmp_path, SIDECAR_DATASETS["ties-and-scores"])
    want = load_dataset(path)
    spoil(path)
    with mock.patch.object(data_ingest, "_parse", wraps=data_ingest._parse) as parse:
        assert_same_dataset(load_dataset(path), want)
    assert parse.call_count == 1
    with parse_only():
        assert_same_dataset(load_dataset(path), want)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".data.jsonl.pairrank.npz", "data.jsonl"]


# The sidecar that the loader of version 1, before one codec saved both kinds
# of sidecar, wrote for SIDECAR_DATASETS["ties-and-scores"], zlib-compressed.
EARLIER_DATA_SIDECAR = (
    "eNrdl99LFFEUx+/4e9fMHwWFD7VCsAlr5K7lGoE+9IMQc7F6EIJtnJ3VrW1mmxnNTFPSYOkhzIh8c6MNQgnqIRIyksjnIqJ67A8wDIQQ"
    "pB/3uufuzr2uy8ZOYI2sd2Y9X+/5zLn33HN8rfkFdShx1aD406npX3CVou2oT9b0kKrsUyJXBFSBomBIxzsnz7T5OgXUh646A7Iuac5D"
    "DufhkNfpcjiDqmZoouJXtYBMvj8mhnUZf6/3iBEZP++tdTmGHDlddgH88DEQX9/HzlEIO4bAM7oPHKQMMbCLZWIY7K3PisHjduWIYX/8"
    "4d701MzdPu+178e7b12+uWdu+BU6f7v752KReETpH2DZHtXeWKVsZZjNUC/Iij8U0CleHEzjmUPUkBVeU650DjvxgYQpD3/y4b4A7gvh"
    "nkUc9Ve0mdegGgzqsqH/UfyyXYMN1gAiACJXEYy2tGvzxZPP0+b46bJiyIokJ/EmwXTSivh5XA53boBJPAE+CGLJYl1abZoxb7mw2CWH"
    "k0zjYDduRcjcuYeMcqC0IVrYGe1m0oekaqn4zIPdfEaWYLYsDnduIYL4fGtOjF+aKVPn8srr3cpDgXX3Hfx9V0tiLGlh2dt9b86y+V8y"
    "VC0JPwKGI1bAe9bg9+cCzzq/421jDXW+GDtvyopjYDRmRdK3IGn01/d7WOev/3hWSJ0vTzjv5zJflqkh27dvWebLg7Eg7XYqav84yGyn"
    "SDhkbNrASAPSwMaBqUr6/3/E5kFoWaBsNrLdVUnsokgTYDZhRWjqvTkXSkaPLImGLhqibqhqIKB2szDhxY4ohamkMHycZsF81oo4Nf79"
    "6oEalMNYlTaOzZ9GV8xrNCiLRq8m+3WpR74obta91nb6aAfLETkx5KIc1es4/pU9J2Tcc+YWqwIzBjQ1EpEDfiOUKjI2b58l5NXlsyxR"
    "8LPUVFCNrAlMzSMvJC1aDIp4OyNcwL9TDRuvI+1PHLqbMkZ3H0/JNEO8lLQVdErW1zGcJE1LixeSkn0Slhk7p4h3LVPA81JSFo9D4cti"
    "evHiSBXJvI6UoPNQtbG6AtwzpQpSXkfKtxGoz7h4FCFzMccLSek0BqmhmBG+xMIN3ig5GemLKWdEA8WIL2B4MSkL6Iws4qkSZCoSMk1a"
    "xei22VCaw5nXkyNvAk41G6Nfwo/JA5CXkcNlFs6NSkY2Z0frjxpeThI0pWW9fo7jtD5d83qSGCl1NaMf3oIypMlMG7aC+T8SXtp8KvK1"
    "Fq6dR5X4Zwmv9bqt5Ok3DSnfMg=="
)


def test_dataset_sidecar_from_the_earlier_loader_is_served(tmp_path):
    # Version 1 read an id or split of any type; parsed once and rewritten as version 5, which is then served.
    path = data_file(tmp_path, SIDECAR_DATASETS["ties-and-scores"])
    with open(sidecar.sidecar_path(path), "wb") as f:
        f.write(zlib.decompress(base64.b64decode(EARLIER_DATA_SIDECAR)))
    assert sidecar_members(path)["version"] == 1
    want = parsed(path)
    with mock.patch.object(data_ingest, "_parse", wraps=data_ingest._parse) as parse:
        assert_same_dataset(load_dataset(path), want)
    assert parse.call_count == 1
    assert sidecar_members(path)["fields.json"]["version"] == data_ingest.SIDECAR_VERSION == 5
    with parse_only():
        assert_same_dataset(load_dataset(path), want)


def test_version_4_sidecar_of_three_tuples_is_parsed_again_not_served_transposed(tmp_path):
    # Version 4 laid the columns out role first: sentences (3, n), matches and
    # scores (2, n, ...), vectors (3, n, d). Of three tuples, its sentences and
    # vectors have version 5's shapes with their rows and columns exchanged.
    lines = [make_line(id=f"x{i}", hyp1=f"the cat sat {'on ' * i}", reference="the cat sat on on",
                       hyp2=["a", "dog"][: i + 1], y=i % 2, psi_t1=[i, 0.5], psi_t2=[-i, 1.5], psi_r=[2 * i, 7],
                       external_scores_1={"M": i / 4}, external_scores_2={"M": -i})
             for i in range(3)]
    path = data_file(tmp_path, lines)
    want = parsed(path)
    load_dataset(path)
    members = sidecar_members(path)
    role_first = {name: np.ascontiguousarray(np.swapaxes(members[name], 0, 1))
                  for name in ("sentences", "matches", "scores", "vectors")}
    rewrite_sidecar(path, version=4, **role_first)
    with mock.patch.object(data_ingest, "_parse", wraps=data_ingest._parse) as parse:
        assert_same_dataset(load_dataset(path), want)
    assert parse.call_count == 1
    assert sidecar_members(path)["fields.json"]["version"] == 5
    with parse_only():
        assert_same_dataset(load_dataset(path), want)


def test_sidecar_of_repeated_ids_is_parsed_again_and_names_the_line(tmp_path):
    # A sidecar saved before ids had to be unique, for a file whose ids repeat.
    path = data_file(tmp_path, [make_line(id=7), make_line(id=8)])
    load_dataset(path)
    data_file(tmp_path, [make_line(id=7), make_line(id="7")])
    rewrite_sidecar(path, ids=["7", "7"], sha256=hashlib.sha256(path.read_bytes()).hexdigest())
    with mock.patch.object(data_ingest, "_parse", wraps=data_ingest._parse) as parse:
        with pytest.raises(DatasetFormatError, match="^line 2: id '7' repeats line 1$"):
            load_dataset(path)
    assert parse.call_count == 1


@pytest.mark.parametrize("sidecar_uid, served", [(1002, False), (1001, True), (1000, True), (0, True)],
                         ids=["another-user", "the-files-owner", "this-user", "root"])
def test_dataset_sidecar_is_served_only_from_a_trusted_owner(tmp_path, sidecar_uid, served):
    # The data file is owned by 1001 and read by 1000. A sidecar with the
    # file's digest and other labels, as anyone who can read the file could plant.
    path = data_file(tmp_path, SIDECAR_DATASETS["ties-and-scores"])
    want = load_dataset(path)
    rewrite_sidecar(path, labels=1 - want.labels)
    uids = {path.stat().st_ino: 1001, os.stat(sidecar.sidecar_path(path)).st_ino: sidecar_uid}
    with owned_by(uids), mock.patch.object(sidecar.os, "geteuid", return_value=1000):
        got = load_dataset(path)
    assert got.labels.tolist() == (1 - want.labels if served else want.labels).tolist()


@pytest.mark.parametrize("target, name, fake", [(sidecar.tempfile, "mkstemp", fail_mkstemp),
                                                (sidecar.os, "fdopen", FullDisk)],
                         ids=["read-only-directory", "full-disk"])
def test_failed_dataset_sidecar_write_still_loads_and_leaves_nothing(tmp_path, target, name, fake):
    path = data_file(tmp_path, SIDECAR_DATASETS["ties-and-scores"])
    with mock.patch.object(target, name, fake):
        assert_same_dataset(load_dataset(path), parsed(path))
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


def test_malformed_data_raises_every_time_and_leaves_no_sidecar(tmp_path):
    path = data_file(tmp_path, [make_line(), "{broken"])
    for _ in range(2):
        with pytest.raises(DatasetFormatError, match="^line 2: malformed JSON"):
            load_dataset(path)
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


def test_data_fifo_is_parsed_and_leaves_no_sidecar(tmp_path):
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    lines = SIDECAR_DATASETS["ties-and-scores"]

    def feed():
        with open(fifo, "w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in lines)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with mock.patch.object(sidecar, "_write", side_effect=AssertionError("wrote")):
        ds = load_dataset(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_dataset(ds, load_dataset(lines))
    assert [p.name for p in tmp_path.iterdir()] == ["data.fifo"]

