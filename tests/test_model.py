import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank.evaluation import predict_delta
from pairrank.model import (
    Batch,
    LabelError,
    Model,
    ModelConfig,
    ShapeMismatchError,
    flat_copy,
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
    )], [1])


def exchanged(batch):
    """The batch's tuples with their hypotheses, so their labels, exchanged, built by hand."""
    return Batch(batch.P[:, [1, 0, 2]], batch.F[:, [1, 0]], 1 - batch.y)


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


@pytest.mark.parametrize("changes, error, message", [
    ({"sentence_dim": -1}, ValueError, "^dimensions must be non-negative$"),
    # A checkpoint saved from any of these would not load, or not save at all.
    ({"seed": True}, ShapeMismatchError, "^config key seed must be an integer, got true$"),
    ({"hidden_per_block": 2.0}, ShapeMismatchError, r"^config key hidden_per_block must be an integer, got 2\.0$"),
    ({"seed": np.int64(3)}, ShapeMismatchError,
     f"^config key seed must be an integer, got {re.escape(json.dumps(repr(np.int64(3))))}$"),
], ids=["negative-dimension", "bool-seed", "float-hidden", "numpy-integer-seed"])
def test_model_config_refuses_a_bad_field(changes, error, message):
    with pytest.raises(error, match=message):
        ModelConfig(**{"sentence_dim": 2, "pairwise_dim": 1, **changes})


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
    inp = pack([([1.0, 2.0], [3.0, 4.0], [0.5, -0.5], [2.0], [-1.0])], [1])
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
    inp = pack([(psi, psi.copy(), rng.normal(size=3), phi, phi.copy())], [1])
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
    swapped_sigma, swapped_sigma_rev = predict_delta(m, exchanged(inp))
    assert sigma - sigma_rev == -(swapped_sigma - swapped_sigma_rev)
    assert sigma == swapped_sigma_rev


def identical(a, b):
    """Same dtype and the same value in every place, signed zeros included."""
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("arch", ["multi-layer", "single-layer"])
def test_swapped_pass_is_the_pass_over_the_exchanged_batch(arch):
    m = init_model(ModelConfig(3, 2, hidden_per_block=4, architecture=arch, seed=5))
    batch = labelled_input(9, seed=7)
    sigma, (X, Z) = forward_batch(m, batch, swapped=True)
    want, (want_X, want_Z) = forward_batch(m, exchanged(batch))
    assert identical(sigma, want) and identical(Z, want_Z)
    assert len(X) == len(want_X) and all(identical(x, w) for x, w in zip(X, want_X))


def test_adjacent_sentence_columns_are_read_as_views_of_p():
    # (t1,t2) as given and (t2,r) in either order stand side by side in P, so
    # each pass reads them in place and builds only (t1,r), and (t2,t1) when
    # swapped; the batch keeps nothing of either pass.
    m = init_model(CFG)
    whole = labelled_input(6, seed=2)
    for batch in (whole, whole.take([4, 0, 4, 1])):
        _, (X, _) = forward_batch(m, batch)
        _, (Y, _) = forward_batch(m, batch, swapped=True)
        assert [np.shares_memory(x, batch.P) for x in X] == [True, False, True]
        assert [np.shares_memory(x, batch.P) for x in Y] == [False, True, False]
        assert sorted(vars(batch)) == ["F", "P", "y"]


@pytest.mark.parametrize("column", ["P", "P1", "P2", "Pr", "F", "F1", "F2", "y"])
def test_batch_columns_are_read_only(column):
    # A batch's columns may be its dataset's own arrays (y is the dataset's
    # labels, P its precomputed vectors), and P1 to F2 are views: a write through any of them
    # would change the data that every later pass reads.
    m = init_model(CFG)
    batch = random_input(CFG, 3)
    before, _ = forward_batch(m, batch)
    with pytest.raises(ValueError, match="read-only"):
        getattr(batch, column)[0] += 10
    assert np.array_equal(forward_batch(m, batch)[0], before)


def labelled_input(n, seed=0):
    """An n-row batch whose first F1 feature repeats each row's label."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    rows = [(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), [float(label), 0.5], rng.normal(size=2))
            for label in y]
    return pack(rows, y)


COLUMNS = ("P", "F", "y")


@pytest.mark.parametrize("short", ["P", "F1", "F2", "y"])
def test_batch_refuses_a_column_one_row_short(short):
    # F1 and F2 are views of the columns of F: a hypothesis's pairwise column
    # one row short comes only in an F one row short, and the count names F.
    held_in = "F" if short in ("F1", "F2") else short
    batch = labelled_input(4)
    columns = {c: getattr(batch, c) for c in COLUMNS}
    columns[held_in] = columns[held_in][:-1]
    counts = ", ".join(f"{c} {3 if c == held_in else 4}" for c in COLUMNS)
    with pytest.raises(ShapeMismatchError, match=re.escape(counts)):
        Batch(**columns)


@pytest.mark.parametrize("arch", ["single-layer", "multi-layer"])
@pytest.mark.parametrize("shapes, message", [
    ([(5, 9), (5, 2, 2)], re.escape("P must have shape (N, 3, sentence_dim), got (5, 9)")),
    ([(5, 3, 3), (5, 3)], re.escape("F must have shape (N, 2, pairwise_dim), got (5, 3)")),
], ids=["sentence", "pairwise"])
def test_batch_refuses_columns_of_different_widths(arch, shapes, message):
    # The single-layer model reads the sentence vectors side by side, so 9
    # sentence inputs in one flat row (a 3 + 4 + 2 split, say) would score
    # without error. Pairwise inputs in one flat row (a 2 + 1 split) are
    # refused alike, where F1 and F2 of widths 2 and 1 were.
    rng = np.random.default_rng(0)
    columns = {c: rng.normal(size=shape) for c, shape in zip(COLUMNS, shapes)}
    with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
        batch = Batch(**columns, y=np.ones(5, int))
        forward_batch(init_model(ModelConfig(3, 2, 2, architecture=arch)), batch)


@pytest.mark.parametrize("shape", [(5,), (5, 6), (5, 2, 3), (5, 4, 3), (5, 3, 3, 1)],
                         ids=["1-d", "2-d", "two-sentences", "four-sentences", "4-d"])
def test_batch_refuses_a_sentence_array_not_of_three_sentence_columns(shape):
    message = re.escape(f"P must have shape (N, 3, sentence_dim), got {shape}")
    with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
        Batch(np.zeros(shape), np.zeros((5, 2, 2)), np.ones(5, int))


@pytest.mark.parametrize("shape", [(5,), (5, 4), (5, 1, 2), (5, 3, 2), (5, 2, 2, 1)],
                         ids=["1-d", "2-d", "one-hypothesis", "three-hypotheses", "4-d"])
def test_batch_refuses_a_pairwise_array_not_of_two_hypothesis_columns(shape):
    message = re.escape(f"F must have shape (N, 2, pairwise_dim), got {shape}")
    with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
        Batch(np.zeros((5, 3, 2)), np.zeros(shape), np.ones(5, int))


@pytest.mark.parametrize("flat", ["F1", "F2"])
def test_batch_refuses_a_column_that_is_not_2d(flat):
    # F1 and F2 are views of the columns of F, so a flat hypothesis column (one
    # feature per tuple) comes only in an F of two dims; it is refused naming
    # that shape, before any view of it is read.
    F = np.zeros((5, 2))
    assert F[:, ("F1", "F2").index(flat)].ndim == 1
    message = re.escape("F must have shape (N, 2, pairwise_dim), got (5, 2)")
    with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
        Batch(np.zeros((5, 3, 2)), F, np.ones(5, int))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["P", "F"])
@pytest.mark.parametrize("how", ["constructor", "pack", "replace"])
def test_batch_refuses_non_finite_inputs(how, column, value):
    # A NaN feature used to be scored silently, as a t2-better verdict, and an
    # inf one to stop training as a divergence, blaming the step for its input.
    batch = labelled_input(4)
    columns = {c: getattr(batch, c).copy() for c in COLUMNS}
    columns[column][2, 1, 0] = value
    build = {
        "constructor": lambda: Batch(**columns),
        "pack": lambda: pack([(*p, *f) for p, f in zip(columns["P"], columns["F"])], columns["y"]),
        "replace": lambda: dataclasses.replace(batch, **{column: columns[column]}),
    }[how]
    with pytest.raises(ShapeMismatchError, match=f"^non-finite values in {column}$"):
        build()


@pytest.mark.parametrize("y, error, message", [
    (np.full(5, 2), LabelError, "labels must be 0 or 1, got 2"),
    (np.full(5, 0.5), LabelError, "labels must be 0 or 1, got 0.5"),
    (np.array([1.0, 0.0, np.nan, 1.0, 0.0]), LabelError, "labels must be 0 or 1, got nan"),
    (np.ones(5, bool), LabelError, "labels must be ints or floats, got bool"),
    (np.ones((5, 1), int), ShapeMismatchError, re.escape("y must be 1-D, got shape (5, 1)")),
], ids=["two", "half", "nan", "bool", "column"])
def test_batch_refuses_labels_other_than_0_and_1_or_not_1d(y, error, message):
    # Each of these used to evaluate and train: labels of 2 as all disconcordant, a
    # (n, 1) column broadcast against every tuple's delta.
    batch = labelled_input(5)
    with pytest.raises(error, match=f"^{message}$"):
        dataclasses.replace(batch, y=y)


@pytest.mark.parametrize("y", [np.array([0, 1, 1]), np.array([0.0, 1.0, 1.0]), np.array([0, 1, 1], np.uint8)])
def test_batch_takes_int_and_float_labels(y):
    batch = dataclasses.replace(labelled_input(3), y=y)
    assert batch.y is y


@pytest.mark.parametrize("y, bad", [([2] * 10, "2"), ([0.5] * 10, "0.5"), ([1] * 9 + [-1], "-1")])
def test_pack_refuses_labels_other_than_0_and_1(y, bad):
    rows = [tuple(np.ones(2) for _ in range(5))] * 10
    with pytest.raises(ValueError, match=f"^labels must be 0 or 1, got {bad}$"):
        pack(rows, y)


def test_take_keeps_the_labels_with_their_rows():
    batch = labelled_input(8, seed=1)
    idx = [5, 0, 7, 0, 2]
    part = batch.take(idx)
    assert part.y.tolist() == batch.y[idx].tolist()
    assert np.array_equal(part.F1[:, 0], part.y)


def test_take_by_boolean_mask_takes_the_rows_that_indexing_does():
    batch = labelled_input(6, seed=5)
    mask = np.array([False, True, False, True, True, False])
    part = batch.take(mask)
    for name in ("P", "P1", "P2", "Pr", "F", "F1", "F2", "y"):
        assert np.array_equal(getattr(part, name), getattr(batch, name)[mask]), name
    with pytest.raises(IndexError):
        batch.take(mask[:-1])


@pytest.mark.parametrize("idx", [3, np.int64(3), np.array(3), np.array([[0, 1], [2, 3]]), [[0], [1]]],
                         ids=["int", "numpy-int", "0-d", "2-d", "nested-list"])
def test_take_refuses_an_index_that_is_not_1d(idx):
    with pytest.raises(ShapeMismatchError, match="^take needs a 1-D index"):
        labelled_input(5).take(idx)


@pytest.mark.parametrize("idx", [np.arange(0), []], ids=["array", "list"])
def test_take_of_no_rows_is_an_empty_batch(idx):
    batch = labelled_input(5)
    part = batch.take(idx)
    assert len(part) == 0
    assert [getattr(part, c).shape for c in ("P", "P1", "F", "F1", "y")] == [(0, 3, 3), (0, 3), (0, 2, 2), (0, 2), (0,)]
    assert part.y.dtype == batch.y.dtype


def test_taken_and_swapped_batches_are_read_only_like_any_other():
    part = labelled_input(5).take([4, 0])
    for name in ("P", "P1", "P2", "Pr", "F", "F1", "F2", "y"):
        assert not getattr(part, name).flags.writeable, name


def edited(model, name, how):
    """``model`` with parameter ``name`` changed: rebound to a new array, or changed in place."""
    if how == "rebound":
        model.params[name] = model.params[name] + 0.25
    else:
        model.params[name][...] += 0.25
    return model


@pytest.mark.parametrize("how", ["rebound", "in-place"])
@pytest.mark.parametrize("flat", [False, True], ids=["model", "flat-copy"])
@pytest.mark.parametrize("arch", ["multi-layer", "single-layer"])
def test_forward_sees_every_parameter_change(arch, flat, how):
    # Forward must read the parameters afresh on every call: anything kept from
    # an earlier call would miss a change by either route, on a model of its own
    # arrays or on a flat copy, whose parameters are views of one vector.
    config = ModelConfig(3, 2, hidden_per_block=2, architecture=arch, seed=1)
    batch = labelled_input(6, seed=6)
    for name in init_model(config).param_names:
        m = flat_copy(init_model(config))[1] if flat else init_model(config)
        before = forward_batch(m, batch)[0]
        before_delta = predict_delta(m, batch)
        m = edited(m, name, how)
        # The reference: a model of fresh copies of the edited parameters, sharing nothing with m.
        fresh = m.copy()
        after = forward_batch(m, batch)[0]
        assert not np.array_equal(after, before), name
        assert np.array_equal(after, forward_batch(fresh, batch)[0]), name
        sigma, sigma_rev = predict_delta(m, batch)
        assert not (np.array_equal(sigma, before_delta[0]) and np.array_equal(sigma_rev, before_delta[1])), name
        want = predict_delta(fresh, batch)
        assert np.array_equal(sigma, want[0]) and np.array_equal(sigma_rev, want[1]), name


def test_astype_casts_the_labels():
    batch = labelled_input(4, seed=3)
    cast = batch.astype(np.longdouble)
    assert cast.y.dtype == np.longdouble
    assert np.array_equal(cast.y, batch.y)


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
        # numpy alone would load this W12 as [[1.0, -0.5, 0.5, 0.5]].
        (saved_checkpoint("params", "W12", value=[[True, -0.5, 0.5, 0.5]]), "^W12 must be an array of numbers$"),
        (saved_checkpoint("params", "W12", value=[[0.5, float("nan"), 0.5, 0.5]]), "^non-finite values in W12$"),
        ("[" + saved_checkpoint() + "]", "^checkpoint has no config object$"),
    ],
    ids=["unknown-config-key", "no-sentence-dim", "no-params", "no-config", "string-W12", "ragged-W12",
         "bool-in-W12", "nan-in-W12", "array-document"],
)
def test_malformed_checkpoint_names_what_is_wrong(text, message):
    with pytest.raises(ShapeMismatchError, match=message):
        load_model(io.StringIO(text))


def test_model_built_by_hand_takes_parameters_as_nested_lists():
    m = init_model(ModelConfig(2, 1, 1, seed=4))
    listed = Model(m.config, {name: v.tolist() for name, v in m.params.items()})
    for name in m.param_names:
        assert identical(listed.params[name], m.params[name]), name
    batch = random_input(m.config, 2)
    assert identical(forward_batch(listed, batch)[0], forward_batch(m, batch)[0])


@pytest.mark.parametrize("name, value", [("b_out", np.array(True)), ("W12", np.full((1, 4), "0.5")),
                                          ("b12", np.array([None]))], ids=["bool-b_out", "string-W12", "null-b12"])
def test_model_built_by_hand_refuses_parameters_that_are_not_numbers(name, value):
    # A bool b_out used to be accepted and scored as 1.0.
    params = init_model(ModelConfig(2, 1, 1)).params
    params[name] = value
    with pytest.raises(ShapeMismatchError, match=f"^{name} must be an array of numbers$"):
        Model(ModelConfig(2, 1, 1), params)


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
