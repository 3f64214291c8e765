"""Hand values and invariants for the loss layer."""
import collections
import importlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_ops as ops
from bjda import autodiff as ad
from bjda import kernels
from bjda.autodiff import Tape
from bjda.errors import ConfigError, DimensionError, InputError
from bjda.gradcheck import central_difference, max_rel_error
from bjda.kernels import KernelSpec, kbw_sq
from bjda.data import SynthSpec, gen_rotated_blobs
from bjda.losses import (
    PROB_FLOOR,
    Prototypes,
    entropy_margins,
    l_cls,
    l_dmc,
    l_trip,
    one_hot,
    total_objective,
)
from bjda.train import VARIANTS, TrainConfig, _wd_loss, l_da, train


# ---------------------------------------------------------------- helpers

def loss_bytes(loss, x, *args, upstream=0.7):
    """The bytes of loss(leaf of x, *args), of any count it returns beside it,
    and of the leaf's gradient after a backward pass from upstream * loss."""
    tape = Tape()
    leaf = tape.leaf(x, "x")
    out = loss(leaf, *args)
    value, rest = (out[0], out[1:]) if isinstance(out, tuple) else (out, ())
    tape.backward(ops.scale(value, upstream))
    return value.value.tobytes(), rest, leaf.grad.tobytes()


def protos_from(features, labels, class_count, mode="batch", decay=0.9):
    feats = np.asarray(features, dtype=np.float64)
    p = Prototypes(class_count, feats.shape[1], mode=mode, decay=decay)
    p.update(feats, np.asarray(labels))
    return p


# ---------------------------------------------------------------- one_hot

def test_one_hot_rows_pick_identity_rows():
    out = one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(out, np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]))


def test_one_hot_rejects_out_of_range():
    with pytest.raises(InputError):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(InputError):
        one_hot(np.array([-1]), 3)


def test_one_hot_empty_batch_keeps_width():
    assert one_hot(np.zeros(0, dtype=int), 4).shape == (0, 4)


# ---------------------------------------------------------------- entropy

def test_entropy_uniform_rows_hit_log_class_count():
    for c in (2, 3, 7):
        probs = np.full((1, c), 1.0 / c)
        assert abs(entropy_margins(probs)[0] - np.log(c)) <= 1e-12


def test_entropy_one_hot_rows_are_zero_up_to_clamp():
    margins = entropy_margins(np.array([[1.0, 0.0, 0.0]]))
    assert 0.0 <= margins[0] <= 1e-9


def test_entropy_bounds_hold_on_random_rows():
    rng = np.random.default_rng(3)
    raw = rng.uniform(size=(200, 5))
    probs = raw / raw.sum(axis=1, keepdims=True)
    margins = entropy_margins(probs)
    assert (margins >= 0.0).all()
    assert (margins <= np.log(5) + 1e-12).all()


# ---------------------------------------------------------------- l_cls

def test_cls_uniform_prediction_is_log_class_count():
    for c in (2, 5, 11):
        tape = Tape()
        probs = tape.leaf(np.full((3, c), 1.0 / c), "p")
        y = one_hot(np.array([0, 1, c - 1]), c)
        assert abs(l_cls(probs, y).item() - np.log(c)) <= 1e-12


def test_cls_perfect_prediction_is_zero():
    tape = Tape()
    y = one_hot(np.array([1, 0]), 2)
    probs = tape.leaf(y.copy(), "p")
    assert l_cls(probs, y).item() == 0.0


def test_cls_half_half_on_true_class_is_log_two():
    tape = Tape()
    probs = tape.leaf(np.array([[0.5, 0.5]]), "p")
    loss = l_cls(probs, one_hot(np.array([0]), 2))
    assert abs(loss.item() - np.log(2.0)) <= 1e-12


def test_cls_gradient_is_negative_inverse_prob_on_true_class():
    tape = Tape()
    probs = tape.leaf(np.array([[0.5, 0.5]]), "p")
    loss = l_cls(probs, one_hot(np.array([0]), 2))
    tape.backward(loss)
    assert np.allclose(probs.grad, np.array([[-2.0, 0.0]]), rtol=0, atol=1e-12)


def test_cls_shape_mismatch_and_empty_batch_raise():
    tape = Tape()
    probs = tape.leaf(np.full((2, 3), 1 / 3), "p")
    with pytest.raises(DimensionError):
        l_cls(probs, one_hot(np.array([0, 1, 2]), 3))
    empty = tape.leaf(np.zeros((0, 3)), "p0")
    with pytest.raises(InputError):
        l_cls(empty, np.zeros((0, 3)))


def l_cls_reference(pred_probs, y_onehot):
    """l_cls composed of tape ops: the clamp at 1e-12, the log, the product
    with the one-hot rows, the sum and the scale by -1/n."""
    logp = ops.log(ops.clamp_min(pred_probs, PROB_FLOOR))
    product = ops.hadamard(logp, pred_probs.tape.constant(y_onehot, "y_onehot"))
    return ops.scale(ops.sum_all(product), -1.0 / pred_probs.shape[0])


@st.composite
def cls_batches(draw):
    n, c = draw(st.integers(1, 8)), draw(st.integers(2, 5))
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    # at, below and far below the floor, where no gradient passes
    entry = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-13, PROB_FLOOR, 1.0]),
                      st.floats(0.0, 1.0))
    probs = np.array(draw(st.lists(entry, min_size=n * c, max_size=n * c))).reshape(n, c)
    upstream = draw(st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)))
    return probs, one_hot(labels, c), upstream


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cls_batches())
def test_cls_property_matches_the_composed_form_bit_for_bit(batch):
    probs, y, upstream = batch
    assert loss_bytes(l_cls, probs, y, upstream=upstream) == \
           loss_bytes(l_cls_reference, probs, y, upstream=upstream)


# ---------------------------------------------------------------- l_da

def _da_batch(seed, n=8, m=9, d=4, c=3):
    rng = np.random.default_rng(seed)
    g_s = rng.normal(size=(n, d))
    g_t = rng.normal(size=(m, d))
    y_s = one_hot(rng.integers(0, c, size=n), c)
    raw = rng.uniform(0.05, 1.0, size=(m, c))
    y_t = raw / raw.sum(axis=1, keepdims=True)
    return g_s, y_s, g_t, y_t


def test_da_is_sum_of_feature_and_label_alignment():
    g_s, y_s, g_t, y_t = _da_batch(0)
    tape = Tape()
    loss = l_da(tape.leaf(g_s, "gs"), y_s, tape.leaf(g_t, "gt"),
                tape.leaf(y_t, "yt"))

    other = Tape()
    feat = kbw_sq(other.leaf(g_s, "gs"), other.leaf(g_t, "gt"),
                  KernelSpec(), other)
    label = kbw_sq(other.leaf(y_s, "ys"), other.leaf(y_t, "yt"),
                   KernelSpec(), other)
    assert loss.item() == feat.item() + label.item()


def test_da_vanishes_when_domains_coincide():
    g_s, y_s, _, _ = _da_batch(1, n=10, m=10)
    tape = Tape()
    loss = l_da(tape.leaf(g_s, "gs"), y_s, tape.leaf(g_s.copy(), "gt"),
                tape.leaf(y_s.copy(), "yt"))
    assert 0.0 <= loss.item() <= 1e-8


def test_da_reduces_to_feature_term_when_labels_match():
    g_s, y_s, g_t, _ = _da_batch(2, n=7, m=7)
    tape = Tape()
    loss = l_da(tape.leaf(g_s, "gs"), y_s, tape.leaf(g_t, "gt"),
                tape.leaf(y_s.copy(), "yt"))
    other = Tape()
    feat = kbw_sq(other.leaf(g_s, "gs"), other.leaf(g_t, "gt"),
                  KernelSpec(), other)
    assert abs(loss.item() - feat.item()) <= 1e-8


def test_da_is_invariant_under_row_permutations():
    g_s, y_s, g_t, y_t = _da_batch(3)
    tape = Tape()
    base = l_da(tape.leaf(g_s, "gs"), y_s, tape.leaf(g_t, "gt"),
                tape.leaf(y_t, "yt")).item()
    rng = np.random.default_rng(7)
    for _ in range(5):
        ps = rng.permutation(g_s.shape[0])
        pt = rng.permutation(g_t.shape[0])
        tape2 = Tape()
        shuffled = l_da(tape2.leaf(g_s[ps], "gs"), y_s[ps],
                        tape2.leaf(g_t[pt], "gt"), tape2.leaf(y_t[pt], "yt"))
        assert abs(shuffled.item() - base) <= 1e-9


def test_da_rejects_unnormalized_soft_labels():
    g_s, y_s, g_t, y_t = _da_batch(4)
    tape = Tape()
    with pytest.raises(InputError):
        l_da(tape.leaf(g_s, "gs"), y_s, tape.leaf(g_t, "gt"),
             tape.leaf(y_t * 1.5, "yt"))


def test_da_rejects_class_count_mismatch():
    g_s, y_s, g_t, y_t = _da_batch(5)
    tape = Tape()
    with pytest.raises(DimensionError):
        l_da(tape.leaf(g_s, "gs"), y_s[:, :2], tape.leaf(g_t, "gt"),
             tape.leaf(y_t, "yt"))


def test_da_sees_the_label_marginal_but_not_the_joint():
    # a target with the source's features but every label moved one class
    # along has another joint distribution and the same two marginals
    labels = np.repeat(np.arange(4), 30)
    rng = np.random.default_rng(0)
    g = 3.0 * np.eye(4, 6)[labels] + rng.normal(size=(120, 6))

    def da(target_labels):
        tape = Tape()
        return l_da(tape.leaf(g, "gs"), one_hot(labels, 4), tape.leaf(g.copy(), "gt"),
                    tape.constant(one_hot(target_labels, 4), "yt")).item()

    moved = da((labels + 1) % 4)
    assert moved == da(labels)
    assert moved <= 1e-12
    assert da(np.repeat(np.arange(4), [60, 20, 20, 20])) > 1e-3


# ---------------------------------------------------------------- l_dmc

def test_dmc_worked_example_log_two_minus_half():
    protos = protos_from([[0.0, 0.0], [0.5, 0.0]], [0, 1], 2)
    tape = Tape()
    g = tape.leaf(np.array([[0.0, 0.0]]), "g")
    loss, skipped = l_dmc(g, np.array([0]), np.array([[0.5, 0.5]]), protos)
    assert skipped == 0
    assert abs(loss.item() - (np.log(2.0) - 0.5)) <= 1e-9


def test_dmc_confident_row_at_own_prototype_contributes_nothing():
    protos = protos_from([[0.0, 0.0], [1.0, 0.0]], [0, 1], 2)
    tape = Tape()
    g = tape.leaf(np.array([[0.0, 0.0]]), "g")
    loss, skipped = l_dmc(g, np.array([0]), np.array([[1.0, 0.0]]), protos)
    assert skipped == 0
    assert loss.item() == 0.0


def test_dmc_picks_nearest_negative_prototype():
    # own prototype 0.4 away; negatives at 2 and 0.5; uniform prediction
    protos = protos_from([[0.4, 0.0], [0.0, 2.0], [0.0, 0.5]], [0, 1, 2], 3)
    tape = Tape()
    g = tape.leaf(np.array([[0.0, 0.0]]), "g")
    loss, _ = l_dmc(g, np.array([0]), np.full((1, 3), 1 / 3), protos)
    assert abs(loss.item() - (0.4 - 0.5 + np.log(3.0))) <= 1e-9


def test_dmc_negative_tie_goes_to_lowest_class_index():
    # negatives at exactly distance 1 on both sides; gradient direction
    # reveals which one the min selected
    protos = protos_from([[0.0, 0.5], [1.0, 0.0], [-1.0, 0.0]], [0, 1, 2], 3)
    tape = Tape()
    g = tape.leaf(np.array([[0.0, 0.0]]), "g")
    loss, _ = l_dmc(g, np.array([0]), np.full((1, 3), 1 / 3), protos)
    assert loss.item() > 0.0
    tape.backward(loss)
    assert np.allclose(g.grad, np.array([[1.0, -1.0]]), rtol=0, atol=1e-12)


def test_dmc_skips_rows_without_needed_prototypes():
    protos = protos_from([[1.0, 0.0]], [0], 3)
    tape = Tape()
    g = tape.leaf(np.zeros((2, 2)), "g")
    # row 0: no other-class prototype; row 1: own prototype absent
    loss, skipped = l_dmc(g, np.array([0, 1]), np.full((2, 3), 1 / 3), protos)
    assert skipped == 2
    assert loss.item() == 0.0


def test_dmc_partial_skip_keeps_valid_rows():
    protos = protos_from([[0.0, 0.0], [1.0, 1.0]], [0, 1], 3)
    tape = Tape()
    g = tape.leaf(np.zeros((3, 2)), "g")
    loss, skipped = l_dmc(g, np.array([0, 1, 2]), np.full((3, 3), 1 / 3), protos)
    assert skipped == 1
    assert loss.item() >= 0.0


def test_dmc_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    protos = protos_from(rng.normal(size=(3, 4)), [0, 1, 2], 3)
    g0 = rng.normal(size=(5, 4)) * 2.0
    labels = np.array([0, 1, 2, 0, 1])
    raw = rng.uniform(0.1, 1.0, size=(5, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)

    def value_at(x):
        tape = Tape()
        loss, _ = l_dmc(tape.leaf(x, "g"), labels, probs, protos)
        return loss.item()

    tape = Tape()
    g = tape.leaf(g0, "g")
    loss, _ = l_dmc(g, labels, probs, protos)
    tape.backward(loss)

    fd = central_difference(value_at, g0, h=1e-6)
    assert max_rel_error(g.grad, fd, floor=1e-12) <= 1e-4


def test_dmc_is_a_mean_over_rows():
    """The same batch stacked twice gives the same loss and, summed over both
    copies, the same gradient per row: the weight does not grow with n."""
    rng = np.random.default_rng(12)
    protos = protos_from(rng.normal(size=(3, 4)), [0, 1, 2], 3)
    g0 = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 2, 0, 1])
    raw = rng.uniform(0.1, 1.0, size=(5, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)

    tape = Tape()
    once = tape.leaf(g0, "once")
    loss_once, _ = l_dmc(once, labels, probs, protos)
    tape.backward(loss_once)

    tape = Tape()
    twice = tape.leaf(g0, "twice")
    loss_twice, _ = l_dmc(ad.vstack(twice, twice), np.concatenate([labels, labels]),
                          np.vstack([probs, probs]), protos)
    tape.backward(loss_twice)

    assert loss_once.item() > 0.0
    assert loss_twice.item() == pytest.approx(loss_once.item(), rel=1e-12)
    assert np.allclose(twice.grad, once.grad, rtol=1e-12, atol=1e-15)


def test_dmc_skipped_rows_do_not_dilute_the_mean():
    # class 2 has no prototype, so its row is skipped and leaves the mean alone
    protos = protos_from([[0.0, 0.0], [1.0, 0.0]], [0, 1], 3)
    probs = np.full((2, 3), 1 / 3)
    tape = Tape()
    g = tape.leaf(np.array([[0.2, 0.0], [0.8, 0.0]]), "g")
    kept, skipped = l_dmc(g, np.array([0, 1]), probs, protos)
    assert skipped == 0
    g_extra = tape.leaf(np.array([[0.2, 0.0], [0.8, 0.0], [5.0, 5.0]]), "g_extra")
    with_skip, skipped = l_dmc(g_extra, np.array([0, 1, 2]),
                               np.full((3, 3), 1 / 3), protos)
    assert skipped == 1
    assert kept.item() > 0.0
    assert with_skip.item() == kept.item()


def test_dmc_rejects_bad_labels_and_dims():
    protos = protos_from([[0.0, 0.0], [1.0, 0.0]], [0, 1], 2)
    tape = Tape()
    g = tape.leaf(np.zeros((1, 2)), "g")
    with pytest.raises(InputError):
        l_dmc(g, np.array([5]), np.array([[0.5, 0.5]]), protos)
    g3 = tape.leaf(np.zeros((1, 3)), "g3")
    with pytest.raises(DimensionError):
        l_dmc(g3, np.array([0]), np.array([[0.5, 0.5]]), protos)
    with pytest.raises(DimensionError):
        l_dmc(g, np.array([0, 1]), np.array([[0.5, 0.5]]), protos)


def l_dmc_with_masks(g, labels, pred_probs, protos):
    """l_dmc's value and gradient built as each row's two distances picked
    out by 0/1 masks and summed against a column of ones."""
    tape = g.tape
    n, c_count = g.shape[0], protos.class_count
    own_present = protos.present[labels]
    other_present = protos.present[None, :] & (labels[:, None] != np.arange(c_count)[None, :])
    valid = own_present & other_present.any(axis=1)
    skipped = int(n - valid.sum())
    if not valid.any():
        return tape.leaf(np.zeros((1, 1)), "l_dmc_zero"), skipped
    dist = ops.sqrt(ops.pairwise_sqdist(g, tape.leaf(protos.vectors, "protos")))
    neg_idx = np.argmin(np.where(other_present, dist.value, np.inf), axis=1)
    pos_mask = np.zeros((n, c_count))
    neg_mask = np.zeros((n, c_count))
    rows = np.arange(n)[valid]
    pos_mask[rows, labels[valid]] = 1.0
    neg_mask[rows, neg_idx[valid]] = 1.0
    ones_c = tape.leaf(np.ones((c_count, 1)), "ones")
    d_pos = ops.matmul(ops.hadamard(dist, tape.leaf(pos_mask, "pos_mask")), ones_c)
    d_neg = ops.matmul(ops.hadamard(dist, tape.leaf(neg_mask, "neg_mask")), ones_c)
    margins = (entropy_margins(pred_probs) * valid).reshape(n, 1)
    hinge = ops.clamp_min(ops.sub(d_pos, d_neg) + tape.leaf(margins, "margins"), 0.0)
    return ops.scale(ops.sum_all(hinge), 1.0 / (n - skipped)), skipped


@st.composite
def dmc_batches(draw):
    c_count = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    labels = np.array(draw(st.lists(st.integers(0, c_count - 1), min_size=n, max_size=n)))
    present = draw(st.lists(st.integers(0, c_count - 1), min_size=1, max_size=c_count,
                            unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    protos = protos_from(rng.normal(size=(len(present), 3)), present, c_count)
    g = rng.normal(size=(n, 3))
    if draw(st.booleans()):
        g = np.round(g)   # ties in the nearest negative, rows on a prototype
    logits = rng.normal(scale=2.0, size=(n, c_count))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return g, labels, probs, protos


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dmc_batches())
def test_dmc_property_matches_the_mask_and_ones_form(batch):
    assert loss_bytes(l_dmc, *batch) == loss_bytes(l_dmc_with_masks, *batch)


def test_dmc_is_always_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(20):
        protos = protos_from(rng.normal(size=(4, 3)), [0, 1, 2, 3], 4)
        tape = Tape()
        g = tape.leaf(rng.normal(size=(6, 3)), "g")
        raw = rng.uniform(0.05, 1.0, size=(6, 4))
        loss, _ = l_dmc(g, rng.integers(0, 4, size=6),
                        raw / raw.sum(axis=1, keepdims=True), protos)
        assert loss.item() >= 0.0


# ---------------------------------------------------------------- l_trip

def trip_value(points, labels, margin):
    tape = Tape()
    g = tape.leaf(np.asarray(points, dtype=np.float64), "g")
    loss, degenerate = l_trip(g, np.asarray(labels), margin)
    return loss.item(), degenerate


def test_trip_small_margin_clamps_far_negative_triple():
    # anchor 0: d_pos=1, d_neg=2 -> max{1-2+0.5, 0} = 0
    # anchor 1: d_pos=1, d_neg=1 -> 0.5
    value, degenerate = trip_value([[0, 0], [1, 0], [2, 0]], [0, 0, 1], 0.5)
    assert degenerate == 0
    assert abs(value - 0.5) <= 1e-12


def test_trip_large_margin_leaves_residual():
    # anchor 0: max{1-2+1.5, 0} = 0.5; anchor 1: 1.5
    value, _ = trip_value([[0, 0], [1, 0], [2, 0]], [0, 0, 1], 1.5)
    assert abs(value - 2.0) <= 1e-12


def test_trip_coincident_points_zero_margin_is_zero():
    value, degenerate = trip_value([[1, 1], [1, 1], [1, 1]], [0, 0, 1], 0.0)
    assert degenerate == 0
    assert value == 0.0


def test_trip_single_class_batch_is_degenerate():
    value, degenerate = trip_value([[0, 0], [1, 0]], [0, 0], 1.0)
    assert degenerate == 1
    assert value == 0.0


def test_trip_is_always_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        value, _ = trip_value(pts, labels, float(rng.uniform(0, 2)))
        assert value >= 0.0


def test_trip_records_a_fixed_number_of_tape_nodes():
    # one node, whatever the batch
    added = []
    for n in (6, 128):
        tape = Tape()
        g = tape.leaf(np.random.default_rng(n).normal(size=(n, 4)), "g")
        before = len(tape)
        l_trip(g, np.arange(n) % 4, 1.0)
        added.append(len(tape) - before)
    assert added == [1, 1]


def node_bytes(loss, inputs, *args, upstream, prior):
    """The bytes of loss's value, of any count it returns beside it, and of
    each input leaf's gradient after a backward pass from upstream * loss.
    With prior, prior * (the sum of every leaf's entries) joins the root
    after the loss, so its gradient reaches the leaves first and the loss's
    adjoint adds to a buffer that already holds one."""
    tape = Tape()
    leaves = [tape.leaf(x, f"in{i}") for i, x in enumerate(inputs)]
    out = loss(*leaves, *args)
    value, rest = (out[0], out[1:]) if isinstance(out, tuple) else (out, ())
    root = ops.scale(value, upstream)
    if prior is not None:
        for leaf in leaves:
            root = root + ops.scale(ops.sum_all(leaf), prior)
    tape.backward(root)
    return value.value.tobytes(), rest, [leaf.grad.tobytes() for leaf in leaves]


# an upstream or prior weight of either zero flips the sign of zero products
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.3]), st.floats(-1e3, 1e3))


@st.composite
def trip_batches(draw):
    """Points on a small integer grid, so distances tie and rows coincide
    (a zero distance sits on the square root's kink)."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.integers(0, draw(st.integers(1, 4)), size=n)
    points = rng.integers(-2, 3, size=(n, draw(st.integers(1, 3)))).astype(float)
    if draw(st.booleans()):
        points = points * draw(st.floats(0.01, 3.0))
    margin = draw(st.sampled_from([0.0, 0.25, 1.0, 2.5]))
    return points, labels, margin, draw(WEIGHTS), draw(st.one_of(st.none(), WEIGHTS))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trip_batches())
def test_trip_property_matches_the_composed_form_bit_for_bit(batch):
    points, labels, margin, upstream, prior = batch
    assert node_bytes(l_trip, [points], labels, margin, upstream=upstream, prior=prior) == \
           node_bytes(ops.l_trip_composed, [points], labels, margin, upstream=upstream,
                      prior=prior)


@st.composite
def wd_batches(draw):
    """Equal batches on a small integer grid, so transport costs tie."""
    n, c = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 3))
    g_s, g_t = rng.integers(-2, 3, size=(2, n, dim)).astype(float)
    logits = rng.normal(scale=2.0, size=(n, c))
    probs_t = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        probs_t = one_hot(rng.integers(0, c, size=n), c)   # rows on a label
    y_s = one_hot(rng.integers(0, c, size=n), c)
    return [g_s, g_t, probs_t], y_s, draw(WEIGHTS), draw(st.one_of(st.none(), WEIGHTS))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wd_batches())
def test_wd_property_matches_the_composed_form_bit_for_bit(batch):
    inputs, y_s, upstream, prior = batch

    def call(loss):
        return node_bytes(lambda g_s, g_t, probs_t: loss(g_s, g_t, y_s, probs_t), inputs,
                          upstream=upstream, prior=prior)

    assert call(_wd_loss) == call(ops.wd_composed)


def see_tapes(monkeypatch, seen):
    """Call seen(tape) on every tape just before its backward pass."""
    real_backward = Tape.backward

    def backward(tape, root):
        seen(tape)
        real_backward(tape, root)

    monkeypatch.setattr(Tape, "backward", backward)


def test_training_records_a_fixed_number_of_tape_nodes(monkeypatch):
    # per iteration, whatever the batch: a full-batch gather adds no nodes
    counts = []
    see_tapes(monkeypatch, lambda tape: counts.append(len(tape)))
    source, target = gen_rotated_blobs(SynthSpec(dim=6, per_class=40, shift_angle=40.0))
    expected = {"full": 22, "no_dmc": 20, "wd": 19, "triplet": 22, "source_only": 15,
                "no_da": 18}
    seen = {}
    for variant in expected:
        for batch in (16, 64):
            counts.clear()
            train(source, target, TrainConfig(
                variant=variant, hidden_dim=16, feat_dim=8, t_max=3, eval_every=3,
                batch_source=batch, batch_target=batch))
            seen[variant, batch] = set(counts)
    assert seen == {(v, b): {n} for v, n in expected.items() for b in (16, 64)}


def test_no_grad_buffer_holds_a_negative_zero_after_a_training_backward(monkeypatch):
    # the zero-sign rule (autodiff._accumulate) that lets every fused adjoint
    # compute its gradients directly. With pl on, a 0.4 gate passes some of
    # a 4-class batch's target rows, so take and its scatter run as well
    real_backward = Tape.backward
    checked, hits = [], []

    def backward(tape, root):
        nodes = list(tape._nodes)
        real_backward(tape, root)
        grads = [n._grad for n in nodes if n._grad is not None]
        checked.append(len(grads))
        hits.extend(int((np.signbit(g) & (g == 0.0)).sum()) for g in grads)

    monkeypatch.setattr(Tape, "backward", backward)
    source, target = gen_rotated_blobs(SynthSpec(dim=6, per_class=40, shift_angle=40.0))
    for variant in VARIANTS:
        for pl in ({}, {"pl": True, "confidence_threshold": 0.4, "proto_mode": "ema"}):
            checked.clear()
            train(source, target, TrainConfig(
                variant=variant, hidden_dim=16, feat_dim=8, t_max=20, eval_every=20,
                batch_source=16, batch_target=16, **pl))
            assert len(checked) == 20 and min(checked) >= 10
    assert sum(hits) == 0


def test_the_tape_keeps_only_the_ops_training_records(monkeypatch):
    # every autodiff function that holds a nested adjoint shows up on a
    # training tape of some variant, with pl off or on
    held = {name for name, f in vars(ad).items()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and any(getattr(c, "co_name", None) == "backward" for c in f.__code__.co_consts)}
    recorded = set()
    see_tapes(monkeypatch, lambda tape: recorded.update(
        node._backward.__qualname__.split(".")[0] for node in tape._nodes
        if node._backward is not None and node._backward.__module__ == ad.__name__))
    source, target = gen_rotated_blobs(SynthSpec(dim=6, per_class=40, shift_angle=40.0))
    for variant in VARIANTS:
        for pl in (False, True):
            train(source, target, TrainConfig(variant=variant, pl=pl, hidden_dim=16,
                                              feat_dim=8, t_max=2, eval_every=2))
    assert recorded == held


def test_each_kbw_sq_of_a_full_step_calls_the_bandwidth_and_the_svd_once(monkeypatch):
    # perfbench times kernels.gaussian_bandwidth and autodiff.nuclear_norm by
    # patching these module attributes; a kbw_sq that stops calling them
    # through the modules would drop those spans
    train_module = importlib.import_module("bjda.train")
    calls = collections.Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(train_module, "kbw_sq")
    counted(kernels, "gaussian_bandwidth")
    counted(ad, "nuclear_norm")
    source, target = gen_rotated_blobs(SynthSpec(dim=6, per_class=40, shift_angle=40.0))
    train(source, target, TrainConfig(hidden_dim=16, feat_dim=8, t_max=3, eval_every=3))
    # two kbw_sq per step: features and labels
    assert calls == {"kbw_sq": 6, "gaussian_bandwidth": 6, "nuclear_norm": 6}


def test_trip_rejects_negative_margin_and_bad_shapes():
    tape = Tape()
    g = tape.leaf(np.zeros((2, 2)), "g")
    with pytest.raises(ConfigError):
        l_trip(g, np.array([0, 1]), -0.5)
    with pytest.raises(DimensionError):
        l_trip(g, np.array([0, 1, 0]), 1.0)


@pytest.mark.parametrize("margin", [np.nan, np.inf])
def test_trip_rejects_a_non_finite_margin(margin):
    # nan < 0 is false, so a sign test alone would let a nan margin through
    g = Tape().leaf(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), "g")
    with pytest.raises(ConfigError, match="finite"):
        l_trip(g, np.array([0, 0, 1]), margin)


# ---------------------------------------------------------------- total

def test_total_weighted_sum_hand_value():
    tape = Tape()
    cls = tape.leaf(np.array([[1.0]]), "cls")
    da = tape.leaf(np.array([[2.0]]), "da")
    dmc = tape.leaf(np.array([[3.0]]), "dmc")
    assert total_objective(cls, da, dmc, 0.5, 0.3).item() == 2.9


def test_total_zero_weights_equal_classification_term():
    tape = Tape()
    cls = tape.leaf(np.array([[1.25]]), "cls")
    da = tape.leaf(np.array([[7.0]]), "da")
    assert total_objective(cls, da, None, 0.0, 0.0).item() == 1.25
    assert total_objective(cls, None, None, 0.5, 0.3) is cls


def test_total_rejects_negative_weights():
    tape = Tape()
    cls = tape.leaf(np.array([[1.0]]), "cls")
    with pytest.raises(ConfigError):
        total_objective(cls, None, None, -0.1, 0.3)
    with pytest.raises(ConfigError):
        total_objective(cls, None, None, 0.5, -1.0)


def test_total_rejects_a_term_of_another_shape_or_tape():
    tape = Tape()
    cls = tape.leaf(np.array([[1.0]]), "cls")
    with pytest.raises(DimensionError, match="total_objective"):
        total_objective(cls, tape.leaf(np.ones((1, 2)), "da"), None, 0.5, 0.3)
    with pytest.raises(InputError, match="different tapes"):
        total_objective(cls, None, Tape().leaf(np.ones((1, 1)), "con"), 0.5, 0.3)


# ---------------------------------------------------------------- protos

def test_prototypes_batch_mode_resets_between_updates():
    p = Prototypes(2, 2, mode="batch")
    p.update(np.array([[2.0, 2.0]]), np.array([0]))
    assert np.array_equal(p.vectors[0], np.array([2.0, 2.0]))
    assert p.present.tolist() == [True, False]
    p.update(np.array([[4.0, 4.0]]), np.array([1]))
    assert p.present.tolist() == [False, True]
    assert np.array_equal(p.vectors[0], np.zeros(2))


def test_prototypes_batch_mode_uses_class_means():
    p = Prototypes(2, 2, mode="batch")
    p.update(np.array([[0.0, 0.0], [2.0, 4.0], [5.0, 5.0]]), np.array([0, 0, 1]))
    assert np.array_equal(p.vectors[0], np.array([1.0, 2.0]))
    assert np.array_equal(p.vectors[1], np.array([5.0, 5.0]))


def test_prototypes_ema_blends_after_first_sight():
    p = Prototypes(2, 2, mode="ema", decay=0.5)
    p.update(np.array([[2.0, 2.0]]), np.array([0]))
    assert np.array_equal(p.vectors[0], np.array([2.0, 2.0]))
    p.update(np.array([[4.0, 4.0]]), np.array([0]))
    assert np.array_equal(p.vectors[0], np.array([3.0, 3.0]))
    assert p.present.tolist() == [True, False]


def test_prototypes_ema_keeps_absent_classes_and_sets_new_ones_directly():
    p = Prototypes(2, 2, mode="ema", decay=0.5)
    p.update(np.array([[2.0, 2.0]]), np.array([0]))
    p.update(np.array([[6.0, 6.0]]), np.array([1]))
    assert np.array_equal(p.vectors[0], np.array([2.0, 2.0]))
    assert np.array_equal(p.vectors[1], np.array([6.0, 6.0]))
    assert p.present.tolist() == [True, True]


def test_prototypes_validate_mode_decay_and_shapes():
    with pytest.raises(ConfigError):
        Prototypes(2, 2, mode="sliding")
    with pytest.raises(ConfigError):
        Prototypes(2, 2, mode="ema", decay=1.0)
    with pytest.raises(ConfigError):
        Prototypes(2, 2, mode="ema", decay=-0.1)
    p = Prototypes(2, 3)
    with pytest.raises(DimensionError):
        p.update(np.zeros((2, 2)), np.array([0, 1]))


@pytest.mark.parametrize("label", [-1, 3, 7])
def test_prototypes_reject_a_label_outside_the_class_range(label):
    # a label of -1 would index the last class and mark it present
    p = Prototypes(3, 2)
    with pytest.raises(InputError, match=r"label out of range \[0, 3\)"):
        p.update(np.ones((2, 2)), np.array([0, label]))
    assert not p.present.any()
