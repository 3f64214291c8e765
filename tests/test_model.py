"""Model init, forward passes, pseudo-labels, and checkpoint I/O."""
import copy
import struct

import numpy as np
import pytest

from bjda.autodiff import Tape
from bjda.errors import ConfigError, DimensionError, InputError, NumericalError, ParseError
from bjda.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LEAKY_SLOPE,
    PARAM_NAMES,
    ModelDims,
    ModelParams,
    forward_f,
    forward_g,
    hard_pseudo_labels,
    init_xavier,
    load_checkpoint,
    make_leaves,
    predict_probs,
    save_checkpoint,
)

DIMS = ModelDims(3, hidden=4, feat=5, classes=2)


# ---------------------------------------------------------------- init

def test_xavier_same_seed_is_bitwise_identical():
    a = init_xavier(DIMS, 42)
    b = init_xavier(DIMS, 42)
    for name in PARAM_NAMES:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_xavier_different_seeds_differ():
    a = init_xavier(DIMS, 0)
    b = init_xavier(DIMS, 1)
    assert not np.array_equal(a.tensors["w1"], b.tensors["w1"])


def test_xavier_weights_respect_fan_bounds_and_biases_are_zero():
    params = init_xavier(ModelDims(7, hidden=11, feat=6, classes=4), 3)
    shapes = params.dims.param_shapes()
    for w in ("w1", "w2", "wc"):
        bound = np.sqrt(6.0 / sum(shapes[w]))
        assert np.abs(params.tensors[w]).max() <= bound
    for b in ("b1", "b2", "bc"):
        assert np.array_equal(params.tensors[b], np.zeros(shapes[b]))


def test_velocities_start_at_zero_with_matching_shapes():
    params = init_xavier(DIMS, 0)
    for name in PARAM_NAMES:
        assert np.array_equal(params.velocities[name],
                              np.zeros_like(params.tensors[name]))


def test_params_copy_is_independent():
    params = init_xavier(DIMS, 0)
    dup = copy.deepcopy(params)
    dup.tensors["w1"][0, 0] += 1.0
    dup.velocities["w1"][0, 0] += 1.0
    assert params.tensors["w1"][0, 0] != dup.tensors["w1"][0, 0]
    assert params.velocities["w1"][0, 0] == 0.0


def test_dims_reject_nonpositive_or_nonint():
    with pytest.raises(ConfigError):
        ModelDims(0)
    with pytest.raises(ConfigError):
        ModelDims(3, hidden=-1)
    with pytest.raises(ConfigError):
        ModelDims(3, feat=2.5)


def test_params_reject_wrong_shapes():
    params = init_xavier(DIMS, 0)
    bad = {n: params.tensors[n] for n in PARAM_NAMES}
    bad["w2"] = np.zeros((2, 2))
    with pytest.raises(ConfigError):
        ModelParams(DIMS, bad)


# ---------------------------------------------------------------- forward

def test_forward_g_zero_weights_give_zero_features():
    shapes = DIMS.param_shapes()
    params = ModelParams(DIMS, {n: np.zeros(shapes[n]) for n in PARAM_NAMES})
    tape = Tape()
    leaves = make_leaves(tape, params)
    outs = forward_g(leaves, tape.leaf(np.ones((4, 3)), "x_s"), tape.leaf(np.ones((2, 3)), "x_t"))
    assert [out.value.tolist() for out in outs] == [np.zeros((4, 5)).tolist(),
                                                     np.zeros((2, 5)).tolist()]


def test_forward_g_empty_batch_keeps_feature_width():
    params = init_xavier(DIMS, 0)
    tape = Tape()
    leaves = make_leaves(tape, params)
    outs = forward_g(leaves, tape.leaf(np.zeros((0, 3)), "x_s"), tape.leaf(np.zeros((0, 3)), "x_t"))
    assert [out.shape for out in outs] == [(0, 5), (0, 5)]


def test_forward_g_matches_direct_numpy():
    params = init_xavier(DIMS, 5)
    xs = np.random.default_rng(5).normal(size=(6, 3))
    xt = np.random.default_rng(6).normal(size=(4, 3))
    tape = Tape()
    leaves = make_leaves(tape, params)
    got = forward_g(leaves, tape.leaf(xs, "x_s"), tape.leaf(xt, "x_t"))
    t = params.tensors
    for out, x in zip(got, (xs, xt)):
        z = x @ t["w1"] + t["b1"]
        h = np.where(z > 0, z, LEAKY_SLOPE * z)
        assert np.array_equal(out.value, h @ t["w2"] + t["b2"])


def test_forward_f_rows_are_probabilities():
    params = init_xavier(DIMS, 7)
    x = np.random.default_rng(7).normal(size=(9, 3)) * 5
    tape = Tape()
    leaves = make_leaves(tape, params)
    probs = forward_f(leaves, forward_g(leaves, tape.leaf(x, "x_s"), tape.leaf(x, "x_t"))[0]).value
    assert probs.min() > 0.0
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


def test_forward_f_is_invariant_to_constant_logit_shift():
    params = init_xavier(DIMS, 9)
    shifted = copy.deepcopy(params)
    shifted.tensors["bc"] = shifted.tensors["bc"] + 3.7
    x = np.random.default_rng(9).normal(size=(5, 3))
    assert np.allclose(predict_probs(params, x), predict_probs(shifted, x),
                       rtol=0, atol=1e-12)


def test_forward_f_zero_logits_give_uniform_rows():
    shapes = DIMS.param_shapes()
    params = ModelParams(DIMS, {n: np.zeros(shapes[n]) for n in PARAM_NAMES})
    probs = predict_probs(params, np.ones((3, 3)))
    assert np.array_equal(probs, np.full((3, 2), 0.5))


def test_predict_probs_matches_tape_forward():
    wide = ModelDims(16, hidden=64, feat=32, classes=4)
    for dims, rows in ((DIMS, 4), (wide, 1024)):
        params = init_xavier(dims, 11)
        x = np.random.default_rng(11).normal(size=(rows, dims.input_dim))
        tape = Tape()
        leaves = make_leaves(tape, params)
        g_s, g_t = forward_g(leaves, tape.leaf(x, "x_s"), tape.leaf(x[::-1], "x_t"))
        assert np.array_equal(predict_probs(params, x[::-1]), forward_f(leaves, g_t).value)
        on_tape = forward_f(leaves, g_s).value
        assert np.array_equal(predict_probs(params, x), on_tape)


def test_predict_probs_rejects_x_that_is_not_a_matrix_of_the_input_width():
    params = init_xavier(DIMS, 0)
    for bad in (np.zeros((2, 2, 3)), np.float64(1.0), np.zeros((2, 4))):
        with pytest.raises(DimensionError):
            predict_probs(params, bad)


def test_predict_probs_rejects_non_finite_x():
    x = np.zeros((3, 3))
    x[2, 1] = np.inf
    with pytest.raises(InputError, match=r"x: non-finite entry at \(2, 1\)"):
        predict_probs(init_xavier(DIMS, 0), x)


def test_predict_probs_names_a_non_finite_parameter():
    params = init_xavier(DIMS, 0)
    params.tensors["w2"][1, 3] = np.nan
    with pytest.raises(NumericalError, match=r"parameter w2 .*\(1, 3\)"):
        predict_probs(params, np.zeros((3, 3)))


def test_make_leaves_wraps_the_parameters_without_a_copy():
    params = init_xavier(DIMS, 0)
    leaves = make_leaves(Tape(), params)
    assert all(leaves[n].value is params.tensors[n] for n in PARAM_NAMES)


def test_make_leaves_names_a_non_finite_parameter_as_a_numerical_failure():
    params = init_xavier(DIMS, 0)
    params.tensors["w2"][0, 2] = np.nan
    with pytest.raises(NumericalError, match=r"make_leaves: parameter w2 .*\(0, 2\)"):
        make_leaves(Tape(), params)


# ---------------------------------------------------------------- labels

def test_hard_pseudo_labels_pick_argmax_and_confidence():
    labels, conf = hard_pseudo_labels(np.array([[0.1, 0.7, 0.2]]))
    assert labels.tolist() == [1]
    assert conf[0] == 0.7


def test_hard_pseudo_labels_break_ties_at_lowest_index():
    labels, _ = hard_pseudo_labels(np.array([[0.4, 0.4, 0.2]]))
    assert labels.tolist() == [0]


def test_hard_pseudo_labels_on_one_hot_rows():
    labels, conf = hard_pseudo_labels(np.eye(3)[::-1])
    assert labels.tolist() == [2, 1, 0]
    assert conf.tolist() == [1.0, 1.0, 1.0]
    assert labels.dtype == np.int64


# ---------------------------------------------------------------- files

def test_checkpoint_round_trip_is_bitwise(tmp_path):
    params = init_xavier(DIMS, 13)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == DIMS
    for name in PARAM_NAMES:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])
        assert np.array_equal(loaded.velocities[name],
                              np.zeros_like(params.tensors[name]))


def test_checkpoint_header_layout(tmp_path):
    # as documented in the README: magic, <5I (version, dims), 24 bytes in all
    params = init_xavier(DIMS, 0)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    assert raw[:4] == CHECKPOINT_MAGIC == b"BJDA"
    version, input_dim, hidden, feat, classes = struct.unpack_from("<5I", raw, 4)
    assert version == CHECKPOINT_VERSION == 1
    assert (input_dim, hidden, feat, classes) == (3, 4, 5, 2)
    body = sum(r * c for r, c in DIMS.param_shapes().values()) * 8
    assert len(raw) == 24 + body
    first = np.frombuffer(raw[24:24 + 8 * 4], dtype="<f8")
    assert np.array_equal(first, params.tensors["w1"][0])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    params = init_xavier(DIMS, 0)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_xavier(DIMS, 0)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_zero_dimension(tmp_path):
    params = init_xavier(DIMS, 0)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 0)
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_short_file(tmp_path):
    path = tmp_path / "tiny.bin"
    path.write_bytes(b"BJDA\x01")
    with pytest.raises(ParseError):
        load_checkpoint(path)
