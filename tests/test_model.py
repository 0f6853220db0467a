import gc
import io
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank.evaluation import predict_delta
from pairrank.model import (
    ModelConfig,
    ShapeMismatchError,
    forward_batch,
    init_model,
    load_model,
    pack,
    save_model,
)


def zero_model(config):
    m = init_model(config)
    for name in m.param_names:
        m.params[name] = np.zeros_like(m.params[name])
    return m


def random_input(config, seed=0):
    """A one-row batch of standard-normal inputs."""
    rng = np.random.default_rng(seed)
    d, p = config.sentence_dim, config.pairwise_dim
    return pack([(
        rng.normal(size=d), rng.normal(size=d), rng.normal(size=d),
        rng.normal(size=p), rng.normal(size=p),
    )])


def forward_one(model, batch):
    """The output activation of a one-row batch."""
    [sigma] = forward_batch(model, batch)[0]
    return sigma


CFG = ModelConfig(sentence_dim=3, pairwise_dim=2, hidden_per_block=4)
CFG_FLAT = ModelConfig(sentence_dim=3, pairwise_dim=2, architecture="single-layer")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(sentence_dim=0, pairwise_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(sentence_dim=2, pairwise_dim=1, architecture="transformer")


def test_init_deterministic():
    a, b = init_model(CFG), init_model(CFG)
    for name in a.param_names:
        assert np.array_equal(a.params[name], b.params[name])


def test_init_seed_changes_weights():
    a = init_model(ModelConfig(3, 2, seed=1))
    b = init_model(ModelConfig(3, 2, seed=2))
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.param_names)


def test_output_weight_length():
    # 3 blocks of H=4 hidden units plus two 16-dim pairwise vectors.
    m = init_model(ModelConfig(sentence_dim=25, pairwise_dim=16, hidden_per_block=4))
    assert m.params["w_out"].shape == (44,)
    flat = init_model(ModelConfig(25, 16, architecture="single-layer"))
    assert flat.params["w_out"].shape == (3 * 25 + 2 * 16,)


def test_biases_zero_at_init():
    m = init_model(CFG)
    for name in ("b12", "b1r", "b2r", "b_out"):
        assert np.all(m.params[name] == 0)


def test_forward_zero_params():
    assert forward_one(zero_model(CFG), random_input(CFG)) == 0.5


def test_forward_hand_computed():
    # H=1, every weight 0.1, zero biases, d=2, p=1: evaluated scalar by scalar.
    cfg = ModelConfig(sentence_dim=2, pairwise_dim=1, hidden_per_block=1)
    m = init_model(cfg)
    for name in m.param_names:
        m.params[name] = np.full_like(m.params[name], 0.1)
    m.params["b12"] = np.zeros(1)
    m.params["b1r"] = np.zeros(1)
    m.params["b2r"] = np.zeros(1)
    m.params["b_out"] = np.array(0.0)
    inp = pack([([1.0, 2.0], [3.0, 4.0], [0.5, -0.5], [2.0], [-1.0])])
    h12 = math.tanh(0.1 * (1 + 2 + 3 + 4))
    h1r = math.tanh(0.1 * (1 + 2 + 0.5 - 0.5))
    h2r = math.tanh(0.1 * (3 + 4 + 0.5 - 0.5))
    z = 0.1 * (h12 + h1r + h2r + 2.0 - 1.0)
    expected = 1.0 / (1.0 + math.exp(-z))
    assert forward_one(m, inp) == pytest.approx(expected, abs=1e-12)


def test_single_layer_projection():
    m = zero_model(CFG_FLAT)
    w = np.zeros_like(m.params["w_out"])
    w[0] = 1.0  # one-hot on the first coordinate of psi_t1
    m.params["w_out"] = w
    inp = random_input(CFG_FLAT, seed=3)
    expected = 1.0 / (1.0 + math.exp(-inp.P1[0, 0]))
    assert forward_one(m, inp) == pytest.approx(expected, abs=1e-15)


def test_forward_in_unit_interval():
    m = init_model(CFG)
    for seed in range(20):
        s = forward_one(m, random_input(CFG, seed))
        assert 0.0 < s < 1.0


def test_shape_mismatch_rejected():
    m = init_model(CFG)
    with pytest.raises(ShapeMismatchError):
        forward_one(m, random_input(ModelConfig(5, 2), seed=0))


def test_delta_symmetry_equal_hypotheses():
    m = init_model(CFG)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=3)
    phi = rng.normal(size=2)
    inp = pack([(psi, psi.copy(), rng.normal(size=3), phi, phi.copy())])
    sigma, sigma_rev = predict_delta(m, inp)
    assert sigma - sigma_rev == 0.0


def test_delta_zero_params():
    sigma, sigma_rev = predict_delta(zero_model(CFG), random_input(CFG))
    assert (sigma, sigma_rev, sigma - sigma_rev) == (0.5, 0.5, 0.0)


@given(st.integers(0, 1000))
@settings(max_examples=30)
def test_delta_antisymmetric_under_swap(seed):
    m = init_model(CFG)
    inp = random_input(CFG, seed)
    sigma, sigma_rev = predict_delta(m, inp)
    swapped_sigma, swapped_sigma_rev = predict_delta(m, inp.swapped())
    assert sigma - sigma_rev == -(swapped_sigma - swapped_sigma_rev)
    assert sigma == swapped_sigma_rev


def test_swapped_view_shares_the_traded_block_inputs_without_a_cycle():
    m = init_model(CFG)
    batch = random_input(CFG, 3)
    forward_batch(m, batch)
    swapped = batch.swapped()
    forward_batch(m, swapped)
    X12, X1r, X2r = batch.block_inputs()
    Y12, Y1r, Y2r = swapped.block_inputs()
    assert Y1r is X2r and Y2r is X1r
    assert np.array_equal(Y12, np.hstack([batch.P2, batch.P1]))
    # Reference counting alone must free both, so that no collector pass is needed.
    refs = [weakref.ref(batch), weakref.ref(swapped)]
    gc.disable()
    try:
        del batch, swapped
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("column", ["P1", "P2", "Pr", "F1", "F2"])
def test_batch_columns_are_read_only(column):
    # forward_batch keeps the block inputs it builds from the sentence vectors,
    # so a column written after it would leave the next forward stale.
    m = init_model(CFG)
    batch = random_input(CFG, 3)
    before, _ = forward_batch(m, batch)
    with pytest.raises(ValueError, match="read-only"):
        getattr(batch, column)[0] += 10
    assert np.array_equal(forward_batch(m, batch)[0], before)


def test_checkpoint_roundtrip():
    for cfg in (CFG, CFG_FLAT):
        m = init_model(cfg)
        buf = io.StringIO()
        save_model(m, buf)
        m2 = load_model(io.StringIO(buf.getvalue()))
        assert m2.config == cfg
        for name in m.param_names:
            assert np.array_equal(m.params[name], m2.params[name])


def test_checkpoint_bytes_deterministic():
    a, b = io.StringIO(), io.StringIO()
    save_model(init_model(CFG), a)
    save_model(init_model(CFG), b)
    assert a.getvalue() == b.getvalue()


# Written by save_model when the config still named the hidden activation.
OLD_CHECKPOINT = (
    '{"config": {"sentence_dim": 1, "pairwise_dim": 1, "hidden_per_block": 1, '
    '"architecture": "multi-layer", "hidden_activation": "tanh", "seed": 3}, '
    '"params": {"W12": [[-1.171961134812148, -0.7444123020918001]], '
    '"W1r": [[0.8521328693831751, 0.23238933142883256]], '
    '"W2r": [[-1.14797755744482, -0.18914557614993055]], "b12": [0.0], "b1r": [0.0], "b2r": [0.0], '
    '"w_out": [-0.04189740371833195, -0.6805221707258429, 0.46915430281842907, '
    '-0.7726559601571932, -0.21754361900867591], "b_out": 0.0}}'
)


def test_checkpoint_naming_tanh_activation_loads():
    config = ModelConfig(sentence_dim=1, pairwise_dim=1, hidden_per_block=1, seed=3)
    m = load_model(io.StringIO(OLD_CHECKPOINT))
    assert m.config == config
    for name in m.param_names:
        assert np.array_equal(m.params[name], init_model(config).params[name])
    buf = io.StringIO()
    save_model(m, buf)
    assert buf.getvalue() == OLD_CHECKPOINT.replace('"hidden_activation": "tanh", ', "")
    with pytest.raises(ValueError, match="unknown activation: relu"):
        load_model(io.StringIO(OLD_CHECKPOINT.replace('"tanh"', '"relu"')))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda params: params.update(W13=[[0.0, 0.0]]), "^unexpected parameter W13$"),
        (lambda params: params.pop("b1r"), "^missing parameter b1r$"),
        (lambda params: params.update(b_out=[0.0]), r"^b_out must have shape \(\), got \(1,\)$"),
    ],
    ids=["stray", "missing", "list-valued-b_out"],
)
def test_checkpoint_params_checked_against_layout(edit, message):
    doc = json.loads(OLD_CHECKPOINT)
    edit(doc["params"])
    with pytest.raises(ShapeMismatchError, match=message):
        load_model(io.StringIO(json.dumps(doc)))


def saved_checkpoint(*path, value=None):
    """A saved ``ModelConfig(2, 1, 1)`` checkpoint, with the entry at ``path`` set to
    ``value``, or deleted when ``value`` is None."""
    buf = io.StringIO()
    save_model(init_model(ModelConfig(2, 1, 1)), buf)
    if not path:
        return buf.getvalue()
    doc = json.loads(buf.getvalue())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        (saved_checkpoint("config", "dropout", value=0.1), "^unexpected config key dropout$"),
        (saved_checkpoint("config", "sentence_dim"), "^missing config key sentence_dim$"),
        (saved_checkpoint("params"), "^checkpoint has no params object$"),
        (saved_checkpoint("config"), "^checkpoint has no config object$"),
        (saved_checkpoint("params", "W12", value="abc"), "^W12 must be an array of numbers$"),
        (saved_checkpoint("params", "W12", value=[[0.5] * 4, [0.5]]), "^W12 must be an array of numbers$"),
        ("[" + saved_checkpoint() + "]", "^checkpoint has no config object$"),
    ],
    ids=["unknown-config-key", "no-sentence-dim", "no-params", "no-config", "string-W12", "ragged-W12",
         "array-document"],
)
def test_malformed_checkpoint_names_what_is_wrong(text, message):
    with pytest.raises(ShapeMismatchError, match=message):
        load_model(io.StringIO(text))


@pytest.mark.parametrize(
    "key, value",
    [("sentence_dim", "2"), ("pairwise_dim", True), ("hidden_per_block", 1.0), ("seed", None), ("seed", [0])],
    ids=["string-sentence-dim", "bool-pairwise-dim", "float-hidden", "null-seed", "list-seed"],
)
def test_non_integer_config_value_names_the_key(key, value):
    doc = json.loads(saved_checkpoint())
    doc["config"][key] = value
    with pytest.raises(ShapeMismatchError, match=rf"^config key {key} must be an integer, got {re.escape(json.dumps(value))}$"):
        load_model(io.StringIO(json.dumps(doc)))
