"""Hand values and invariants for the loss layer."""
import numpy as np
import pytest

from bjda import autodiff as ad
from bjda.autodiff import Tape
from bjda.errors import ConfigError, DimensionError, InputError
from bjda.kernels import KernelSpec, kbw_sq
from bjda.data import SynthSpec, gen_rotated_blobs
from bjda.losses import (
    Prototypes,
    entropy_margins,
    l_cls,
    l_dmc,
    l_trip,
    one_hot,
    total_objective,
)
from bjda.train import TrainConfig, l_da, train


# ---------------------------------------------------------------- helpers

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

    h = 1e-6
    fd = np.zeros_like(g0)
    for i in range(g0.shape[0]):
        for j in range(g0.shape[1]):
            up, dn = g0.copy(), g0.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd[i, j] = (value_at(up) - value_at(dn)) / (2 * h)
    denom = max(np.abs(fd).max(), 1e-12)
    assert np.abs(g.grad - fd).max() / denom <= 1e-4


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
    # distances, their square roots and one hinge node, whatever the batch
    added = []
    for n in (6, 128):
        tape = Tape()
        g = tape.leaf(np.random.default_rng(n).normal(size=(n, 4)), "g")
        before = len(tape)
        l_trip(g, np.arange(n) % 4, 1.0)
        added.append(len(tape) - before)
    assert added == [3, 3]


def test_training_records_a_fixed_number_of_tape_nodes(monkeypatch):
    # per iteration, whatever the batch: a full-batch gather adds no nodes
    real_backward = Tape.backward
    counts = []

    def counting_backward(tape, root):
        counts.append(len(tape))
        real_backward(tape, root)

    monkeypatch.setattr(Tape, "backward", counting_backward)
    source, target = gen_rotated_blobs(SynthSpec(dim=6, per_class=40, shift_angle=40.0))
    expected = {"full": 109, "no_dmc": 90, "wd": 61, "triplet": 96, "source_only": 30}
    seen = {}
    for variant in expected:
        for batch in (16, 64):
            counts.clear()
            train(source, target, TrainConfig(
                variant=variant, hidden_dim=16, feat_dim=8, t_max=3, eval_every=3,
                batch_source=batch, batch_target=batch))
            seen[variant, batch] = set(counts)
    assert seen == {(v, b): {n} for v, n in expected.items() for b in (16, 64)}


def test_trip_rejects_negative_margin_and_bad_shapes():
    tape = Tape()
    g = tape.leaf(np.zeros((2, 2)), "g")
    with pytest.raises(ConfigError):
        l_trip(g, np.array([0, 1]), -0.5)
    with pytest.raises(DimensionError):
        l_trip(g, np.array([0, 1, 0]), 1.0)


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
