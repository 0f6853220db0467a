import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairrank import features
from pairrank.features import (
    BLEUCOMP_FEATURE_NAMES,
    NonFiniteFeature,
    assemble_pairwise,
    bleu_columns,
    bleu_components,
    clipped_matches,
    ngram_stats,
)
from test_acceptance import brute_bleu_fields


def brute_ngram_counts(hyp, ref, order):
    """Independent clipped-count oracle: nested loops, no hashing."""
    hyp_grams = [tuple(hyp[i : i + order]) for i in range(len(hyp) - order + 1)]
    ref_grams = [tuple(ref[i : i + order]) for i in range(len(ref) - order + 1)]
    matches = 0
    seen = []
    for g in hyp_grams:
        if g in seen:
            continue
        seen.append(g)
        in_hyp = sum(1 for h in hyp_grams if h == g)
        in_ref = sum(1 for r in ref_grams if r == g)
        matches += min(in_hyp, in_ref)
    return matches, len(hyp_grams)


def test_ngram_identity():
    s = ngram_stats(["the", "cat", "sat"], ["the", "cat", "sat"], 1)
    assert (s.matches, s.total) == (3, 3)


def test_ngram_clipping():
    s = ngram_stats(["the"] * 4, ["the", "cat"], 1)
    m, t = brute_ngram_counts(["the"] * 4, ["the", "cat"], 1)
    assert (s.matches, s.total) == (m, t) == (1, 4)


def test_ngram_disjoint():
    s = ngram_stats(["a", "b"], ["c", "d"], 2)
    assert (s.matches, s.total) == (0, 1)


def test_ngram_bad_order():
    with pytest.raises(ValueError):
        ngram_stats(["a"], ["a"], 5)


tokens = st.lists(st.sampled_from([f"t{i}" for i in range(5)]), max_size=12)


@given(tokens, tokens, st.integers(1, 4))
def test_ngram_matches_oracle(hyp, ref, order):
    s = ngram_stats(hyp, ref, order)
    m, t = brute_ngram_counts(hyp, ref, order)
    assert (s.matches, s.total) == (m, t)
    assert 0 <= s.matches <= s.total
    assert s.matches <= max(0, len(ref) - order + 1)


def test_components_identity():
    c = bleu_components(["the", "cat", "sat"], ["the", "cat", "sat"])
    assert c.precisions == (1.0, 1.0, 1.0, 0.0)  # no 4-grams in a 3-token sentence
    assert c.matches == (3, 2, 1, 0)
    assert c.totals == (3, 2, 1, 0)
    assert (c.hyp_len, c.ref_len) == (3, 3)
    assert c.length_ratio == 1.0
    assert c.brevity_penalty == 1.0


def test_components_short_hypothesis():
    c = bleu_components(["the", "cat"], ["the", "cat", "sat"])
    assert c.precisions[0] == 1.0 and c.precisions[1] == 1.0
    assert c.brevity_penalty == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_components_empty_hypothesis():
    c = bleu_components([], ["a"])
    assert c.totals == (0, 0, 0, 0)
    assert c.precisions == (0.0, 0.0, 0.0, 0.0)
    assert c.brevity_penalty == 0.0


def test_components_empty_reference():
    c = bleu_components(["a"], [])
    assert c.length_ratio == 0.0


def test_flatten_is_16():
    c = bleu_components(["a", "b"], ["a", "b"])
    assert len(c.flatten()) == 16
    assert len(BLEUCOMP_FEATURE_NAMES) == 16


def test_assemble_bleucomp_only():
    f = assemble_pairwise(bleu_components(["a", "b"], ["a", "b"]))
    assert len(f.values) == 16
    assert f.names == list(BLEUCOMP_FEATURE_NAMES)
    assert set(f.source_tags) == {"bleucomp"}


def test_assemble_with_external():
    f = assemble_pairwise(bleu_components(["a"], ["a"]), {"METEOR": 0.41})
    assert len(f.values) == 17
    assert f.names[-1] == "METEOR"
    assert f.values[-1] == 0.41
    assert f.source_tags[-1] == "external"


def test_assemble_sorted_names():
    f = assemble_pairwise(bleu_components(["a"], ["a"]), {"TER": 0.3, "METEOR": 0.4})
    assert f.names[16:] == ["METEOR", "TER"]
    assert f.values[16:].tolist() == [0.4, 0.3]


def test_assemble_non_finite_rejected():
    with pytest.raises(NonFiniteFeature):
        assemble_pairwise(bleu_components(["a"], ["a"]), {"METEOR": float("nan")})


@given(tokens, tokens)
def test_assemble_deterministic(hyp, ref):
    a = assemble_pairwise(bleu_components(hyp, ref), {"x": 0.5})
    b = assemble_pairwise(bleu_components(hyp, ref), {"x": 0.5})
    assert a.names == b.names
    assert np.array_equal(a.values, b.values)


def store(sentences):
    """A sentence store of ``sentences``: their flat token ids and offsets."""
    vocab = {}
    ids = [vocab.setdefault(t, len(vocab)) for s in sentences for t in s]
    return np.array(ids, dtype=np.int32), np.cumsum([0] + [len(s) for s in sentences])


# A three-token vocabulary gives heavy repetition; sizes 0-3 give empty
# sentences and sentences with no 4-grams.
short_sentence = st.lists(st.sampled_from(["a", "b", "c"]), max_size=10)


def bleu_rows(token_ids, offsets, hyps, refs):
    """The BLEU columns of each (hyps[i], refs[i]) pair of a store, as ``vectorize`` makes them."""
    lens = np.diff(offsets)
    return bleu_columns(clipped_matches(token_ids, offsets, hyps, refs), lens[hyps], lens[refs])


@given(st.lists(short_sentence, min_size=1, max_size=4),
       st.lists(st.tuples(short_sentence, st.integers(0, 3)), max_size=12))
def test_bleu_columns_of_clipped_matches_match_brute_force(refs, rows):
    # Rows draw references from a small pool, so many share one.
    hyps = [h for h, _ in rows]
    row_refs = [refs[j % len(refs)] for _, j in rows]
    # The store holds each reference once, after the hypotheses.
    args = *store(hyps + refs), np.arange(len(rows)), np.array([len(rows) + j % len(refs) for _, j in rows], int)
    matches = clipped_matches(*args)
    assert (matches.dtype, matches.shape) == (np.int32, (len(rows), features.MAX_ORDER))
    got = bleu_rows(*args)
    assert got.shape == (len(rows), 16)
    for row, hyp, ref in zip(got, hyps, row_refs):
        want = np.array(brute_bleu_fields(hyp, ref), dtype=float)
        assert row.tobytes() == want.tobytes()
        assert bleu_components(hyp, ref).flatten().tobytes() == want.tobytes()


@given(st.lists(short_sentence, min_size=1, max_size=4),
       st.lists(st.tuples(short_sentence, st.integers(0, 3)), max_size=12))
def test_clipped_matches_same_when_codes_are_renumbered(refs, rows):
    hyps = [h for h, _ in rows]
    args = *store(hyps + refs), np.arange(len(rows)), np.array([len(rows) + j % len(refs) for _, j in rows], int)
    exact = clipped_matches(*args)
    with mock.patch.object(features, "CODE_LIMIT", 0), mock.patch.object(np, "unique", wraps=np.unique) as unique:
        renumbered = clipped_matches(*args)
    # The distinct references are found once, then each order renumbers its codes.
    assert [call.kwargs.get("return_inverse") for call in unique.call_args_list].count(True) == 1 + features.MAX_ORDER
    assert renumbered.tobytes() == exact.tobytes()
    for row, (hyp, j) in zip(bleu_rows(*args), rows):
        assert row.tobytes() == np.array(brute_bleu_fields(hyp, refs[j % len(refs)]), dtype=float).tobytes()


def test_clipped_matches_exact_for_large_token_ids():
    # With 2^30 token ids, the exact trigram codes of "0 1 2" and "16 1 2" are
    # equal modulo 2^64, so they must be renumbered before order 3 extends them.
    hyp, ref = [0, 1, 2, 2**30 - 1], [16, 1, 2]
    row = bleu_rows(np.array(hyp + ref, dtype=np.int32), np.array([0, 4, 7]), np.array([0]), np.array([1]))[0]
    want = brute_bleu_fields(hyp, ref)
    assert want[6] == 0  # no trigram matches
    assert row.tobytes() == np.array(want, dtype=float).tobytes()


def test_clipped_matches_length_mismatch():
    with pytest.raises(ValueError):
        clipped_matches(*store([["a"]]), [0], [])
