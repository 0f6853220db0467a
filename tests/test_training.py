import dataclasses
import json
import math
import re

import numpy as np
import pytest

from pairrank import training
from pairrank.evaluation import (
    DEFAULT_TIE_EPSILON,
    EmptyEvaluation,
    PairCounts,
    evaluate,
    kendall_tau,
    predict_delta,
    verdicts,
)
from pairrank.model import BLOCKS, Batch, ModelConfig, backward_batch, forward_batch, init_model, pack, sigmoid
from pairrank.synthetic import interaction_rule_dataset, linear_rule_dataset, mixed_rule_batch
from pairrank.training import (
    SIGMA_CLAMP,
    CostConfig,
    DivergenceError,
    TrainConfig,
    _batch_gradients,
    grad_check,
    kendall_cost,
    logistic_cost,
    train,
)

CFG = ModelConfig(sentence_dim=3, pairwise_dim=2, hidden_per_block=2)


def test_logistic_cost_values():
    assert logistic_cost(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert logistic_cost(1.0 - 1e-13, 1) == pytest.approx(0.0, abs=1e-9)
    assert logistic_cost(0.9, 0) == pytest.approx(-math.log(0.1), abs=1e-12)


def test_logistic_cost_clamped():
    assert math.isfinite(logistic_cost(0.0, 1))
    assert math.isfinite(logistic_cost(1.0, 0))


def test_kendall_cost_concordant_small():
    cfg = CostConfig(kind="kendall", gamma=100.0, tie_weight=0.0)
    # logistic(-10), evaluated independently
    expected = 1.0 / (1.0 + math.exp(10.0))
    assert kendall_cost(0.1, 1, cfg) == pytest.approx(expected, rel=1e-12)


def test_kendall_cost_disconcordant_large():
    cfg = CostConfig(kind="kendall", gamma=100.0, tie_weight=0.0)
    expected = 1.0 / (1.0 + math.exp(-10.0))
    assert kendall_cost(-0.1, 1, cfg) == pytest.approx(expected, rel=1e-12)


def test_kendall_cost_at_zero_delta():
    cfg = CostConfig(kind="kendall", beta=100.0, tie_weight=1.0)
    for y in (0, 1):
        assert kendall_cost(0.0, y, cfg) == pytest.approx(1.5, abs=1e-12)


def test_anti_tie_term_shape():
    cfg = CostConfig(kind="kendall", tie_weight=1.0, gamma=100.0, beta=100.0)
    at_zero = kendall_cost(0.0, 1, cfg) - kendall_cost(0.0, 1, CostConfig(kind="kendall", tie_weight=0.0))
    assert at_zero == pytest.approx(1.0, abs=1e-12)
    deltas = np.linspace(0.0, 0.5, 50)
    tie_terms = [np.exp(-100.0 * d * d / 2.0) for d in deltas]
    assert all(a > b for a, b in zip(tie_terms, tie_terms[1:]))


def test_backward_zero_model_logistic():
    m = init_model(CFG)
    for name in m.param_names:
        m.params[name] = np.zeros_like(m.params[name])
    batch = dataclasses.replace(mixed_rule_batch(1), y=np.array([1.0]))
    grad, _ = _batch_gradients(m, batch, CostConfig(kind="logistic"), "logistic")
    # b_out is the last parameter.
    assert grad[-1] == pytest.approx(-0.5, abs=1e-15)


def test_backward_kendall_tie_stationary():
    # Identical hypotheses: delta = 0, so the anti-tie term contributes no
    # gradient and the whole gradient cancels by symmetry of the two passes.
    m = init_model(CFG)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=3)
    phi = rng.normal(size=2)
    inp = pack([(psi, psi.copy(), rng.normal(size=3), phi, phi.copy())], [1])
    grads, _ = _batch_gradients(m, inp, CostConfig(kind="kendall"), "kendall")
    # dJ/dDelta at Delta=0 is -gamma/4; sigma grads of the two passes differ,
    # but the Gaussian term itself is stationary. Check that numerically.
    err = grad_check(m, inp, CostConfig(kind="kendall"))
    assert err <= 1e-5


@pytest.mark.parametrize("arch", ["multi-layer", "single-layer"])
@pytest.mark.parametrize("kind", ["logistic", "kendall", "logistic-then-kendall"])
def test_gradients_match_finite_differences(arch, kind):
    cfg = ModelConfig(3, 2, hidden_per_block=2, architecture=arch, seed=11)
    for seed in range(3):
        m = init_model(ModelConfig(3, 2, 2, arch, seed=seed))
        err = grad_check(m, mixed_rule_batch(5, seed=seed), CostConfig(kind=kind))
        assert err <= 1e-5, f"{arch}/{kind} seed {seed}: {err}"


def separate_gradients(model, batch, ys, cfg, kind):
    """Each cost's slope written out on its own, and its value from a second
    evaluation of the sigmoids: an oracle for the one-definition costs."""
    if kind == "logistic":
        sigma, cache = forward_batch(model, batch)
        grads = backward_batch(model, cache, sigma - ys)
        s = np.clip(sigma, SIGMA_CLAMP, 1.0 - SIGMA_CLAMP)
        return grads, -np.sum(ys * np.log(s) + (1 - ys) * np.log(1.0 - s))
    sigma, cache = forward_batch(model, batch)
    sigma_rev, cache_rev = forward_batch(model, step_oracle_swapped(batch))
    delta = sigma - sigma_rev
    g, b, lam = cfg.gamma, cfg.beta, cfg.tie_weight
    sig_neg = sigmoid(-g * delta)
    sig_pos = sigmoid(g * delta)
    dJ_dDelta = (
        -g * ys * sig_neg * (1.0 - sig_neg)
        + g * (1 - ys) * sig_pos * (1.0 - sig_pos)
        - lam * b * delta * np.exp(-b * delta * delta / 2.0)
    )
    grads = backward_batch(model, cache, dJ_dDelta * sigma * (1.0 - sigma))
    grads_rev = backward_batch(model, cache_rev, -dJ_dDelta * sigma_rev * (1.0 - sigma_rev))
    grads = grads + grads_rev
    disagreement = ys * sigmoid(-g * delta) + (1 - ys) * sigmoid(g * delta)
    return grads, np.sum(disagreement + lam * np.exp(-b * delta * delta / 2.0))


def identical(a, b):
    """Same dtype and the same value in every place, signed zeros included.

    Without NaNs that is byte equality, leaving out longdouble's padding bytes.
    """
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("arch", ["multi-layer", "single-layer"])
@pytest.mark.parametrize("kind", ["logistic", "kendall"])
def test_batch_gradients_equal_separate_oracle(kind, arch, dtype):
    cfg = CostConfig(kind=kind, gamma=100.0, beta=50.0, tie_weight=0.3)
    rng = np.random.default_rng(17)
    saturated = 0
    for seed in range(4):
        m = init_model(ModelConfig(3, 2, 2, arch, seed=seed))
        # Large output weights push many deltas far past where gamma * delta saturates.
        m.params["w_out"] = 20.0 * m.params["w_out"]
        rows = [tuple(rng.normal(size=k) for k in (3, 3, 3, 2, 2)) for _ in range(24)]
        ys = rng.integers(0, 2, size=24).astype(float)
        batch = pack(rows, ys)
        m = dataclasses.replace(m, params={k: v.astype(dtype) for k, v in m.params.items()})
        batch, ys = batch.astype(dtype), ys.astype(dtype)
        sigma, sigma_rev = forward_batch(m, batch)[0], forward_batch(m, batch, swapped=True)[0]
        saturated += int(np.sum(np.abs(cfg.gamma * (sigma - sigma_rev)) > 40.0))
        grad, cost = _batch_gradients(m, batch, cfg, kind)
        want_grad, want_cost = separate_gradients(m, batch, ys, cfg, kind)
        assert np.asarray(cost).dtype == dtype
        assert identical(cost, want_cost)
        assert identical(grad, want_grad)
    assert saturated > 0


@pytest.mark.parametrize("terms, kind", [
    ("_kendall_terms", "kendall"), ("_kendall_terms", "logistic-then-kendall"), ("_logistic_terms", "logistic"),
])
def test_grad_check_catches_a_wrong_slope(monkeypatch, terms, kind):
    # The gradient check reads its cost from the function that gives the slope;
    # a slope off by 1% must still show, so the check is not circular.
    true_terms = getattr(training, terms)

    def off_slope(*args):
        cost, slope = true_terms(*args)
        return cost, 1.01 * slope

    monkeypatch.setattr(training, terms, off_slope)
    m = init_model(ModelConfig(3, 2, 2, seed=4))
    assert grad_check(m, mixed_rule_batch(5, seed=4), CostConfig(kind=kind)) > 1e-5


def test_batch_gradients_refuse_an_unresolved_cost_kind():
    m = init_model(ModelConfig(3, 2, 2, seed=4))
    cfg = CostConfig(kind="logistic-then-kendall")
    with pytest.raises(ValueError, match="^cannot take gradients of unresolved cost kind 'logistic-then-kendall'$"):
        training._batch_gradients(m, mixed_rule_batch(5, seed=4), cfg, cfg.kind)


def test_cost_config_validation():
    with pytest.raises(ValueError):
        CostConfig(kind="hinge")
    with pytest.raises(ValueError):
        CostConfig(gamma=0.0)
    with pytest.raises(ValueError):
        CostConfig(kind="logistic-then-kendall", pretrain_epochs=-3)
    for kind in ("logistic", "kendall"):
        with pytest.raises(ValueError, match="pretrain_epochs applies only to"):
            CostConfig(kind=kind, pretrain_epochs=2)


@pytest.mark.parametrize("cls, field", [
    (TrainConfig, "learning_rate"), (TrainConfig, "l2"),
    (CostConfig, "gamma"), (CostConfig, "beta"), (CostConfig, "tie_weight"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_field_refused(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", [
    (TrainConfig, "learning_rate"), (TrainConfig, "l2"),
    (CostConfig, "gamma"), (CostConfig, "beta"), (CostConfig, "tie_weight"),
])
@pytest.mark.parametrize("value", [True, False, "1.0", None], ids=["true", "false", "string", "none"])
def test_non_number_float_field_refused(cls, field, value):
    # gamma=True and l2=True used to train as 1.0, and learning_rate="0.1" failed with a bare TypeError.
    with pytest.raises(ValueError, match=f"^config key {field} must be a number, got {re.escape(json.dumps(value))}$"):
        cls(**{field: value})
    assert getattr(cls(**{field: 2}), field) == 2


@pytest.mark.parametrize("cls, field", [
    (TrainConfig, "learning_rate"), (TrainConfig, "l2"),
    (CostConfig, "gamma"), (CostConfig, "beta"), (CostConfig, "tie_weight"),
])
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_int_too_large_for_a_float_field_refused(cls, field, sign):
    # 10**400 used to raise a bare OverflowError from math.isfinite, naming no field.
    with pytest.raises(ValueError, match=f"^config key {field} must be a number within float range, got -?10+$"):
        cls(**{field: sign * 10**400})


@pytest.mark.parametrize("cls, field", [
    (TrainConfig, "epochs"), (TrainConfig, "batch_size"), (TrainConfig, "shuffle_seed"),
    (TrainConfig, "early_stop_patience"), (CostConfig, "pretrain_epochs"),
])
@pytest.mark.parametrize("value", [2.5, True, np.int64(2), "2"], ids=["float", "bool", "numpy-int", "string"])
def test_non_integer_int_field_refused(cls, field, value):
    # epochs=2.5 used to fail only inside train's range(), and batch_size=True trained on batches of one.
    extra = {"kind": "logistic-then-kendall"} if cls is CostConfig else {}
    with pytest.raises(ValueError, match=f"^config key {field} must be an integer, got "):
        cls(**extra, **{field: value})
    assert getattr(cls(**extra, **{field: 2}), field) == 2


@pytest.mark.parametrize("pretrain, epochs", [(3, 3), (50, 3)])
def test_pretrain_epochs_must_leave_a_kendall_phase(pretrain, epochs):
    data = mixed_rule_batch(8)
    m = init_model(CFG)
    with pytest.raises(ValueError, match=r"^pretrain_epochs \(\d+\) must be less than epochs"):
        train(m, data, data, TrainConfig(epochs=epochs),
              CostConfig(kind="logistic-then-kendall", pretrain_epochs=pretrain))


def test_pretrain_epochs_within_the_schedule_still_train():
    data = mixed_rule_batch(8)
    m = init_model(CFG)
    schedule = CostConfig(kind="logistic-then-kendall", pretrain_epochs=3)
    _, report = train(m, data, data, TrainConfig(epochs=4, batch_size=4), schedule)
    assert [r.cost_kind for r in report.epochs] == ["logistic"] * 3 + ["kendall"]
    # With no epochs to run, no phase is missing.
    _, report = train(m, data, data, TrainConfig(epochs=0), schedule)
    assert report.epochs == []


def test_phase_schedule():
    cfg = CostConfig(kind="logistic-then-kendall", pretrain_epochs=3)
    kinds = [cfg.phase_kind(e, 10) for e in range(10)]
    assert kinds == ["logistic"] * 3 + ["kendall"] * 7
    default = CostConfig(kind="logistic-then-kendall")
    assert default.phase_kind(4, 10) == "logistic"
    assert default.phase_kind(5, 10) == "kendall"


def test_train_separable():
    tr = linear_rule_dataset(800, pairwise_dim=8, seed=1, rule_seed=9)
    va = linear_rule_dataset(300, pairwise_dim=8, seed=2, rule_seed=9)
    m = init_model(ModelConfig(0, 8, architecture="single-layer", seed=0))
    tcfg = TrainConfig(learning_rate=0.01, epochs=50, batch_size=32, shuffle_seed=0)
    m2, report = train(m, tr, va, tcfg, CostConfig(kind="logistic"))
    assert evaluate(m2, va).tau >= 0.9
    assert len(report.epochs) == 50


def test_train_zero_epochs_noop():
    m = init_model(CFG)
    data = mixed_rule_batch(4)
    m2, report = train(m, data, data, TrainConfig(epochs=0), CostConfig())
    assert report.epochs == []
    for name in m.param_names:
        assert np.array_equal(m.params[name], m2.params[name])


@pytest.mark.parametrize("empty", ["training", "validation"])
def test_train_refuses_an_empty_set(empty):
    data = mixed_rule_batch(8)
    none = data.take(np.arange(0))
    sets = (none, data) if empty == "training" else (data, none)
    tcfg = TrainConfig(epochs=10, batch_size=4, early_stop_patience=2)
    with pytest.raises(EmptyEvaluation, match=f"^the {empty} set is empty$"):
        train(init_model(CFG), sets[0], sets[1], tcfg, CostConfig())


def test_train_deterministic():
    data = mixed_rule_batch(64, seed=3)
    results = []
    for _ in range(2):
        m = init_model(ModelConfig(3, 2, 2, seed=5))
        tcfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=8, shuffle_seed=7)
        m2, report = train(m, data, data, tcfg, CostConfig(kind="logistic-then-kendall"))
        results.append((m2, [r.train_cost for r in report.epochs]))
    (a, costs_a), (b, costs_b) = results
    assert costs_a == costs_b
    for name in a.param_names:
        assert np.array_equal(a.params[name], b.params[name])


def test_train_schedule_records_phases():
    data = mixed_rule_batch(32, seed=2)
    m = init_model(ModelConfig(3, 2, 2, seed=1))
    tcfg = TrainConfig(learning_rate=0.01, epochs=6, batch_size=8, shuffle_seed=1)
    _, report = train(m, data, data, tcfg, CostConfig(kind="logistic-then-kendall"))
    assert [r.cost_kind for r in report.epochs] == ["logistic"] * 3 + ["kendall"] * 3


def test_train_divergence_detected():
    # A batch refuses non-finite inputs, so the divergence comes from a step too large for float64.
    data = mixed_rule_batch(32, seed=4)
    m = init_model(ModelConfig(3, 2, 2, seed=1))
    tcfg = TrainConfig(learning_rate=1e308, epochs=2, batch_size=32, shuffle_seed=1)
    for kind in ("logistic", "kendall"):
        with pytest.raises(DivergenceError, match="^non-finite parameter W12 at epoch 0$"):
            train(m, data, data, tcfg, CostConfig(kind=kind))


def test_divergence_names_the_first_non_finite_parameter():
    # All-zero sentence vectors give the block weights a zero gradient, so they
    # stay finite while the step overflows every parameter after them; the cost
    # of that step is finite.
    batch = mixed_rule_batch(16, seed=4)
    zero = dataclasses.replace(batch, P=np.zeros_like(batch.P))
    m = init_model(ModelConfig(3, 2, 2, seed=1))
    m.params["w_out"] = 10 * m.params["w_out"]
    tcfg = TrainConfig(learning_rate=1e308, epochs=1, batch_size=16)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="^non-finite parameter b12 at epoch 0$"):
        train(m, zero, zero, tcfg, CostConfig(kind="logistic"))


def test_train_early_stopping_returns_best():
    tr = linear_rule_dataset(400, pairwise_dim=4, seed=1, rule_seed=3, noise=0.3)
    va = linear_rule_dataset(200, pairwise_dim=4, seed=2, rule_seed=3, noise=0.3)
    m = init_model(ModelConfig(0, 4, architecture="single-layer", seed=0))
    tcfg = TrainConfig(learning_rate=0.05, epochs=40, batch_size=16, shuffle_seed=0,
                       early_stop_patience=5)
    m2, report = train(m, tr, va, tcfg, CostConfig(kind="logistic"))
    best = max(r.valid_tau for r in report.epochs)
    assert evaluate(m2, va).tau == best
    assert report.best_epoch is not None


# The training step as it was before the flat parameter vector, kept as an
# oracle: one hstack per block input and per forward, a separate forward of the
# swapped pass, and one update and finiteness check per parameter.


def step_oracle_forward(model, batch):
    p = model.params
    if model.config.architecture == "multi-layer":
        X = [np.hstack([batch.P[:, a], batch.P[:, b]]) for a, b in BLOCKS.values()]
        inner = [np.tanh(x @ p[f"W{name}"].T + p[f"b{name}"]) for name, x in zip(BLOCKS, X)]
    else:
        X, inner = [], [batch.P1, batch.P2, batch.Pr]
    Z = np.hstack(inner + [batch.F1, batch.F2])
    return sigmoid(Z @ p["w_out"] + p["b_out"]), (X, inner, Z)


def step_oracle_backward(model, cache, dz):
    X, H, Z = cache
    h = model.config.hidden_per_block
    grads = {"w_out": Z.T @ dz, "b_out": np.array(dz.sum())}
    dZ = np.outer(dz, model.params["w_out"][: len(X) * h])
    for i, (name, x, units) in enumerate(zip(BLOCKS, X, H)):
        dA = dZ[:, i * h : (i + 1) * h] * (1.0 - units * units)
        grads[f"W{name}"] = dA.T @ x
        grads[f"b{name}"] = dA.sum(axis=0)
    return grads


def step_oracle_swapped(batch):
    return Batch(batch.P[:, [1, 0, 2]], batch.F[:, [1, 0]], 1 - batch.y)


def step_oracle_gradients(model, batch, ys, cfg, kind):
    sigma, cache = step_oracle_forward(model, batch)
    if kind == "logistic":
        cost, dz = training._logistic_terms(sigma, ys)
        return step_oracle_backward(model, cache, dz), cost
    sigma_rev, cache_rev = step_oracle_forward(model, step_oracle_swapped(batch))
    cost, slope = training._kendall_terms(sigma - sigma_rev, ys, cfg)
    grads = step_oracle_backward(model, cache, slope * sigma * (1.0 - sigma))
    grads_rev = step_oracle_backward(model, cache_rev, -slope * sigma_rev * (1.0 - sigma_rev))
    return {name: grads[name] + grads_rev[name] for name in grads}, cost


def step_oracle_tau(model, batch):
    deltas = step_oracle_forward(model, batch)[0] - step_oracle_forward(model, step_oracle_swapped(batch))[0]
    v = verdicts(deltas, DEFAULT_TIE_EPSILON)
    c, t = int(np.sum(v == batch.y)), int(np.sum(v == -1))
    return kendall_tau(PairCounts(concordant=c, disconcordant=len(v) - c - t, ties=t))


def step_oracle_train(model, batch, valid_batch, tcfg, ccfg):
    """The returned model, and each epoch's cost and validation tau."""
    model = model.copy()
    rng = np.random.default_rng(tcfg.shuffle_seed)
    best, best_tau, since_best, epochs = model, -math.inf, 0, []
    for epoch in range(tcfg.epochs):
        kind = ccfg.phase_kind(epoch, tcfg.epochs)
        perm = rng.permutation(len(batch))
        epoch_cost = 0.0
        for start in range(0, len(batch), tcfg.batch_size):
            idx = perm[start : start + tcfg.batch_size]
            grads, cost = step_oracle_gradients(model, batch.take(idx), batch.y[idx], ccfg, kind)
            epoch_cost += float(cost)
            for name in model.param_names:
                g = grads[name]
                if tcfg.l2 > 0 and name.startswith(("W", "w")):
                    g = g + tcfg.l2 * model.params[name]
                model.params[name] = model.params[name] - tcfg.learning_rate * g
                assert np.all(np.isfinite(model.params[name]))
        tau = step_oracle_tau(model, valid_batch)
        epochs.append((epoch_cost, tau))
        if tau > best_tau:
            best, best_tau, since_best = model.copy(), tau, 0
        else:
            since_best += 1
        if since_best > tcfg.early_stop_patience:
            break
    return best, epochs


@pytest.mark.parametrize("arch, hidden", [("multi-layer", 1), ("multi-layer", 3), ("single-layer", 2)])
@pytest.mark.parametrize("kind", ["logistic", "kendall", "logistic-then-kendall"])
def test_train_is_bit_identical_to_the_per_parameter_step(kind, arch, hidden):
    # 45 tuples in mini-batches of 16 leave a ragged last batch of 13. Batches
    # of more than 8 rows let a block sum in a different order than before.
    data, valid = mixed_rule_batch(45, seed=2), mixed_rule_batch(30, seed=9)
    m = init_model(ModelConfig(3, 2, hidden, arch, seed=6))
    tcfg = TrainConfig(learning_rate=0.3, epochs=12, batch_size=16, shuffle_seed=4, l2=0.02,
                       early_stop_patience=3)
    ccfg = CostConfig(kind=kind, gamma=20.0, beta=20.0)
    got, report = train(m, data, valid, tcfg, ccfg)
    want, want_epochs = step_oracle_train(m, data, valid, tcfg, ccfg)
    assert [(r.train_cost, r.valid_tau) for r in report.epochs] == want_epochs
    # Training went on past the best epoch, so a best model that shared the
    # working parameters would differ from the oracle's copy.
    assert report.best_epoch < len(report.epochs) - 1
    assert got.params.keys() == want.params.keys()
    for name in want.params:
        assert identical(got.params[name], want.params[name]), name


def benchmark_shaped_batch(n, seed):
    """Sentence vectors of width 100 and pairwise features of width 17, the widths
    of the train-heavy benchmark's inputs, labelled by the pairwise rule."""
    sent = interaction_rule_dataset(n, sentence_dim=100, seed=seed)
    pair = linear_rule_dataset(n, pairwise_dim=17, seed=seed + 1)
    return dataclasses.replace(sent, F=pair.F, y=pair.y)


@pytest.mark.parametrize("kind", ["logistic", "kendall", "logistic-then-kendall"])
def test_train_is_bit_identical_to_the_per_parameter_step_at_the_benchmark_shape(kind):
    # 16 units per block over 200 inputs, in mini-batches of 32 with a ragged
    # last batch of 8: products of the benchmark's size, which go through the
    # BLAS kernels that the width-3 cases above are too small to reach.
    data, valid = benchmark_shaped_batch(200, seed=3), benchmark_shaped_batch(64, seed=8)
    m = init_model(ModelConfig(100, 17, 16, seed=5))
    tcfg = TrainConfig(learning_rate=0.05, epochs=8, batch_size=32, shuffle_seed=1, early_stop_patience=2)
    # The schedule fine-tunes from epoch 2, so that it reaches its ranking phase before it stops early.
    pretrain = 2 if kind == "logistic-then-kendall" else None
    ccfg = CostConfig(kind=kind, gamma=20.0, beta=20.0, pretrain_epochs=pretrain)
    got, report = train(m, data, valid, tcfg, ccfg)
    want, want_epochs = step_oracle_train(m, data, valid, tcfg, ccfg)
    assert [(r.train_cost, r.valid_tau) for r in report.epochs] == want_epochs
    assert {r.cost_kind for r in report.epochs} == set(training.PHASES[kind])
    assert len(report.epochs) < tcfg.epochs
    assert got.params.keys() == want.params.keys()
    for name in want.params:
        assert identical(got.params[name], want.params[name]), name


@pytest.mark.parametrize("arch", ["multi-layer", "single-layer"])
def test_predict_delta_is_bit_identical_to_the_oracle_at_the_benchmark_shape(arch):
    batch = benchmark_shaped_batch(600, seed=4)
    m = init_model(ModelConfig(100, 17, 16, arch, seed=2))
    sigma, sigma_rev = predict_delta(m, batch)
    assert identical(sigma, step_oracle_forward(m, batch)[0])
    assert identical(sigma_rev, step_oracle_forward(m, step_oracle_swapped(batch))[0])
