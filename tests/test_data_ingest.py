import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairrank import data_ingest

from pairrank.data_ingest import (
    Dataset,
    DatasetFormatError,
    EvaluationTuple,
    InconsistentSchema,
    load_dataset,
    save_dataset,
    splits_of,
    vectorize,
)
from pairrank.embeddings import load_embedding_table
from pairrank.features import assemble_pairwise, bleu_components
from pairrank.synthetic import token_dataset_lines


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
    assert ds.tuples[1].y == 0


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


def test_roundtrip():
    lines = token_dataset_lines(20, seed=3, splits=["cz", "de"], with_external=True)
    ds = load_dataset(io.StringIO("\n".join(lines)))
    buf = io.StringIO()
    save_dataset(ds, buf)
    ds2 = load_dataset(io.StringIO(buf.getvalue()))
    assert ds2 == ds


def test_vectorize_precomputed():
    line = make_line(psi_t1=[1.0] * 25, psi_t2=[0.5] * 25, psi_r=[0.2] * 25)
    ds = load_dataset(io.StringIO(line))
    [(inp, y)] = vectorize(ds)
    assert inp.psi_t1.shape == (25,)
    assert inp.phi_t1r.shape == (16,)
    assert y == 1


def test_vectorize_with_table():
    table = load_embedding_table(io.StringIO("the 1 0\ncat 0 1\nsat 1 1\na 2 2\nstood 3 3\n"))
    ds = load_dataset(io.StringIO(make_line()))
    [(inp, _)] = vectorize(ds, table)
    assert inp.psi_t1.shape == (2,)
    expected_ref = np.mean([[1, 0], [0, 1], [1, 1]], axis=0)
    assert np.array_equal(inp.psi_r, expected_ref)


def test_vectorize_missing_table():
    ds = load_dataset(io.StringIO(make_line()))
    ds.sentence_dim = 5  # pretend vectors are expected
    with pytest.raises(DatasetFormatError):
        vectorize(ds)


def test_vectorize_features_match_independent_extraction():
    lines = token_dataset_lines(100, seed=11, with_external=True)
    ds = load_dataset(io.StringIO("\n".join(lines)))
    table = load_embedding_table(io.StringIO("\n".join(
        f"w{i} {float(i)} {float(i * 2)}" for i in range(30)
    )))
    examples = vectorize(ds, table)
    for t, (inp, y) in zip(ds.tuples, examples):
        phi1 = assemble_pairwise(bleu_components(t.hyp1, t.reference), t.external_scores_1)
        phi2 = assemble_pairwise(bleu_components(t.hyp2, t.reference), t.external_scores_2)
        assert np.array_equal(inp.phi_t1r, phi1.values)
        assert np.array_equal(inp.phi_t2r, phi2.values)
        assert y == t.y


def test_vectorize_order_preserving():
    lines = token_dataset_lines(10, seed=0)
    ds = load_dataset(io.StringIO("\n".join(lines)))
    examples = vectorize(ds)
    assert [y for _, y in examples] == [t.y for t in ds.tuples]


def test_splits_of():
    lines = token_dataset_lines(4, seed=0, splits=["cz", "de"])
    ds = load_dataset(io.StringIO("\n".join(lines)))
    assert splits_of(ds) == ["cz", "de", "cz", "de"]


sentence = st.lists(st.sampled_from(["w0", "w1", "w2", "oov"]), max_size=8)


@given(st.lists(st.tuples(sentence, sentence, st.integers(0, 2)), min_size=1, max_size=10),
       st.lists(sentence, min_size=3, max_size=3),
       st.integers(1, 4))
def test_vectorize_same_in_one_chunk_or_several(rows, refs, chunk):
    tuples = [
        EvaluationTuple(id=f"t{i}", split="all", reference=refs[j], hyp1=h1, hyp2=h2, y=i % 2,
                        external_scores_1={"M": i / 7}, external_scores_2={"M": 1.0})
        for i, (h1, h2, j) in enumerate(rows)
    ]
    ds = Dataset(tuples=tuples, feature_schema=["M"], sentence_dim=0)
    table = load_embedding_table(io.StringIO("w0 0.1 -0.0\nw1 0.3 2.5\nw2 -7.0 1e-3\n"))
    whole = vectorize(ds, table)
    with mock.patch.object(data_ingest, "CHUNK_TUPLES", chunk):
        chunked = vectorize(ds, table)
    assert len(whole) == len(chunked) == len(tuples)
    for (a, ya), (b, yb) in zip(whole, chunked):
        assert ya == yb
        for field in ("psi_t1", "psi_t2", "psi_r", "phi_t1r", "phi_t2r"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
