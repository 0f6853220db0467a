import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairrank.evaluation import EmptyEvaluation, PairCounts, evaluate, kendall_tau, predict_delta, verdicts
from pairrank.model import Batch, ModelConfig, init_model
from pairrank.synthetic import interaction_rule_dataset

CFG = ModelConfig(sentence_dim=3, pairwise_dim=0, hidden_per_block=2)


def test_tau_all_concordant():
    assert kendall_tau(PairCounts(10, 0, 0)) == 1.0


def test_tau_direct():
    assert kendall_tau(PairCounts(3, 1, 0)) == 0.5
    assert kendall_tau(PairCounts(5, 3, 2)) == 0.0


def test_tau_empty():
    with pytest.raises(EmptyEvaluation):
        kendall_tau(PairCounts())


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_tau_bounds(c, d, t):
    counts = PairCounts(c, d, t)
    if counts.total == 0:
        return
    tau = kendall_tau(counts)
    assert -1.0 <= tau <= 1.0
    assert (tau == 1.0) == (d == 0 and t == 0)
    assert (tau == -1.0) == (c == 0)


def test_zero_model_all_ties():
    m = init_model(CFG)
    for name in m.param_names:
        m.params[name] = np.zeros_like(m.params[name])
    data = interaction_rule_dataset(20, sentence_dim=3, seed=0)
    report = evaluate(m, *data)
    assert report.counts.ties == 20
    assert report.tau == -1.0


def test_constructed_concordance():
    # Gold labels generated from the very model being evaluated.
    m = init_model(ModelConfig(3, 0, 2, seed=4))
    batch, _ = interaction_rule_dataset(50, sentence_dim=3, seed=1)
    sigma, sigma_rev = predict_delta(m, batch)
    report = evaluate(m, batch, (sigma - sigma_rev > 0).astype(int), tie_epsilon=1e-9)
    assert report.tau == 1.0


def test_counts_match_brute_force():
    m = init_model(ModelConfig(3, 0, 2, seed=7))
    batch, labels = interaction_rule_dataset(300, sentence_dim=3, seed=2)
    report = evaluate(m, batch, labels, tie_epsilon=1e-6)
    c = d = t = 0
    for i, y in enumerate(labels):
        sigma, sigma_rev = predict_delta(m, batch.take([i]))
        delta = float(sigma[0] - sigma_rev[0])
        if abs(delta) <= 1e-6:
            t += 1
        elif (delta > 0) == (y == 1):
            c += 1
        else:
            d += 1
    assert (report.counts.concordant, report.counts.disconcordant, report.counts.ties) == (c, d, t)


def test_label_flip_swaps_counts():
    m = init_model(ModelConfig(3, 0, 2, seed=3))
    batch, labels = interaction_rule_dataset(100, sentence_dim=3, seed=5)
    a = evaluate(m, batch, labels).counts
    b = evaluate(m, batch, 1 - labels).counts
    assert (a.concordant, a.disconcordant, a.ties) == (b.disconcordant, b.concordant, b.ties)


def test_evaluation_read_only():
    m = init_model(ModelConfig(3, 0, 2, seed=1))
    before = {n: m.params[n].copy() for n in m.param_names}
    evaluate(m, *interaction_rule_dataset(10, sentence_dim=3, seed=0))
    for n in before:
        assert np.array_equal(before[n], m.params[n])


def test_smaller_epsilon_fewer_ties():
    m = init_model(ModelConfig(3, 0, 2, seed=2))
    data = interaction_rule_dataset(200, sentence_dim=3, seed=9)
    prev = None
    for eps in (0.1, 0.01, 0.001, 1e-6):
        ties = evaluate(m, *data, tie_epsilon=eps).counts.ties
        if prev is not None:
            assert ties <= prev
        prev = ties


def test_per_split_breakdown():
    m = init_model(ModelConfig(3, 0, 2, seed=2))
    data = interaction_rule_dataset(40, sentence_dim=3, seed=9)
    splits = ["cz", "de"] * 20
    report = evaluate(m, *data, splits=splits)
    assert set(report.per_split) == {"cz", "de"}
    totals = sum(c.total for c, _ in report.per_split.values())
    assert totals == report.counts.total


def test_empty_dataset():
    m = init_model(CFG)
    empty = Batch(*(np.zeros((0, 3)) for _ in range(3)), np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(EmptyEvaluation):
        evaluate(m, empty, np.zeros(0, dtype=int))


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0, -1e-12])
def test_bad_tie_epsilon_refused(eps):
    m = init_model(ModelConfig(3, 0, 2, seed=2))
    data = interaction_rule_dataset(10, sentence_dim=3, seed=9)
    with pytest.raises(ValueError, match="^tie_epsilon must be finite and non-negative"):
        evaluate(m, *data, tie_epsilon=eps)
    # A zero band is allowed: only exact ties count.
    assert evaluate(m, *data, tie_epsilon=0.0).counts.total == 10


@pytest.mark.parametrize(
    "delta, eps, verdict",
    [
        (0.3, 1e-6, 1),
        (0.0, 1e-6, -1),
        (-1e-7, 1e-6, -1),
        (-0.2, 1e-6, 0),
        # The band's edges are ties; just outside them is not.
        (1e-6, 1e-6, -1),
        (-1e-6, 1e-6, -1),
        (np.nextafter(1e-6, 1.0), 1e-6, 1),
        (np.nextafter(-1e-6, -1.0), 1e-6, 0),
        (0.0, 0.0, -1),
        (-0.0, 0.0, -1),
        (-0.0, 1e-6, -1),
        # With a zero band only an exact zero is a tie.
        (5e-324, 0.0, 1),
        (-5e-324, 0.0, 0),
    ],
)
def test_verdicts(delta, eps, verdict):
    assert verdicts(np.array([delta]), eps).tolist() == [verdict]

