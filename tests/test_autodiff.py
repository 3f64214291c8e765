"""Tape mechanics and per-op checks for the reverse-mode engine."""
import gc
import json
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_ops as ops
from bjda import autodiff as ad
from bjda import losses
from bjda.autodiff import Tape, as_matrix
from bjda.data import SynthSpec, gen_rotated_blobs
from bjda.errors import ConfigError, DimensionError, DomainError, InputError
from bjda.gradcheck import central_difference, max_rel_error
from bjda.losses import l_cls, l_trip, triplet_hinge
from bjda.kernels import KernelSpec, kbw_sq
from bjda.model import (LEAKY_SLOPE, ModelDims, dense, forward_f, forward_g, init_xavier,
                        make_leaves, save_checkpoint)
from bjda.train import TrainConfig, train


def leafpair(a, b):
    tape = Tape()
    return tape, tape.leaf(a, "a"), tape.leaf(b, "b")


# ---------------------------------------------------------------------------
# construction


def test_as_matrix_promotes_vectors_to_rows():
    assert as_matrix([1.0, 2.0, 3.0]).shape == (1, 3)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InputError, match=r"\(0, 1\)"):
        as_matrix([[1.0, np.nan]])


def test_as_matrix_rejects_3d():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_copies_its_input():
    x = np.ones((2, 2))
    m = as_matrix(x)
    m[0, 0] = 7.0
    assert x[0, 0] == 1.0


def test_leaf_grad_starts_zero_and_matches_shape():
    tape = Tape()
    v = tape.leaf(np.ones((3, 2)))
    assert v.grad.shape == (3, 2)
    assert not v.grad.any()


def test_item_requires_1x1():
    tape = Tape()
    with pytest.raises(DimensionError):
        tape.leaf(np.ones((2, 2))).item()


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(InputError):
        ad.add(a, b)


def test_backward_root_must_live_on_the_tape():
    t1, t2 = Tape(), Tape()
    root = t1.leaf(np.ones((1, 1)))
    with pytest.raises(InputError):
        t2.backward(root)


# ---------------------------------------------------------------------------
# backward consumes its tape


def test_backward_keeps_leaf_grads_and_empties_the_tape():
    tape, a, b = leafpair([[1.0, 2.0], [3.0, 4.0]], [[0.5, -1.0], [2.0, 0.0]])
    out = ops.sum_all(ops.matmul(a, b))
    tape.backward(out)
    assert len(tape) == 0
    assert np.array_equal(a.grad, np.ones((2, 2)) @ b.value.T)
    assert np.array_equal(b.grad, a.value.T @ np.ones((2, 2)))
    assert out.item() == float((a.value @ b.value).sum())


def test_second_backward_on_a_tape_raises():
    tape, a, b = leafpair(np.ones((2, 2)), np.ones((2, 2)))
    out = ops.sum_all(ops.hadamard(a, b))
    tape.backward(out)
    with pytest.raises(InputError, match="already consumed"):
        tape.backward(out)
    assert np.array_equal(a.grad, np.ones((2, 2)))  # the first pass's grads stay


def test_a_model_tape_is_freed_without_the_cyclic_collector():
    params = init_xavier(ModelDims(3, hidden=4, feat=5, classes=2), 0)
    x = np.random.default_rng(0).normal(size=(6, 3))
    y = np.eye(2)[[0, 1, 0, 1, 0, 1]]
    gc.collect()
    gc.disable()
    try:
        tape = Tape()
        leaves = make_leaves(tape, params)
        pair = forward_g(leaves, tape.constant(x, "x_s"), tape.constant(x[:2], "x_t"))
        loss = l_cls(forward_f(leaves, pair[0]), y)
        tape.backward(loss)
        grad = leaves["w1"].grad
        alive = weakref.ref(tape)
        del tape, leaves, pair, loss
        assert alive() is None
    finally:
        gc.enable()
    assert grad.shape == (3, 4) and grad.any()


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    tape, a, i = leafpair([[1.0, 2.0], [3.0, 4.0]], np.eye(2))
    assert np.array_equal(ops.matmul(a, i).value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_column_pick():
    tape, i, c = leafpair(np.eye(2), [[5.0], [7.0]])
    assert np.array_equal(ops.matmul(i, c).value, [[5.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    tape, a, b = leafpair(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ops.matmul(a, b)


def test_softmax_symmetry():
    tape = Tape()
    s = ops.softmax_rows(tape.leaf([[0.0, 0.0]]))
    assert np.allclose(s.value, [[0.5, 0.5]], atol=0, rtol=0)


def test_leaky_relu_negative_branch():
    tape = Tape()
    out = ops.leaky_relu(tape.leaf([[-1.0]]), 0.01)
    assert out.value[0, 0] == -0.01


# signed zeros, subnormals and entries near the float64 range
LEAKY_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300)


@st.composite
def leaky_inputs(draw):
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from(LEAKY_EDGES),
                      st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True))
    a = np.array(draw(st.lists(entry, min_size=n, max_size=n))).reshape(1, n)
    upstream = np.array(draw(st.lists(entry, min_size=n, max_size=n))).reshape(1, n)
    slope = draw(st.one_of(st.sampled_from([0.0, -0.0, LEAKY_SLOPE, 1.0]), st.floats(0.0, 1.0)))
    return a, upstream, slope


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(leaky_inputs())
def test_leaky_relu_property_matches_the_masked_select_bytes(batch):
    a, upstream, slope = batch
    slope += 0.0  # leaky_relu takes a slope of -0.0 as +0.0
    expected = np.where(a > 0.0, a, slope * a)
    tape = Tape()
    leaf = tape.leaf(a)
    out = ops.leaky_relu(leaf, slope)
    assert out.value.tobytes() == expected.tobytes()
    out._backward(upstream)
    assert leaf.grad.tobytes() == (0.0 + upstream * np.where(a > 0.0, 1.0, slope)).tobytes()
    # forward_probs' in-place form, at the model's slope
    h = a.copy()
    assert ad.leaky_relu_array(h, LEAKY_SLOPE, out=h) is h
    assert h.tobytes() == np.where(a > 0.0, a, LEAKY_SLOPE * a).tobytes()


@pytest.mark.parametrize("slope", [-0.5, -1e-300, 1.0 + 2 ** -52, 2.0, float("nan"), float("inf")])
def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(slope):
    with pytest.raises(ConfigError, match="slope"):
        ops.leaky_relu(Tape().leaf([[1.0]]), slope)


def test_trace_identity():
    tape = Tape()
    assert ops.trace(tape.leaf(np.eye(3))).item() == 3.0


def test_trace_requires_square():
    tape = Tape()
    with pytest.raises(DimensionError):
        ops.trace(tape.leaf(np.ones((2, 3))))


def test_log_rejects_nonpositive_with_location():
    tape = Tape()
    with pytest.raises(DomainError, match=r"\(1, 0\)"):
        ops.log(tape.leaf([[1.0, 2.0], [-3.0, 4.0]]))


def test_sqrt_rejects_negative():
    tape = Tape()
    with pytest.raises(DomainError):
        ops.sqrt(tape.leaf([[-1.0]]))


def test_pairwise_sqdist_two_points():
    a = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert np.array_equal(ad.pairwise_sqdist_matrix(a, a), [[0.0, 4.0], [4.0, 0.0]])


def test_pairwise_sqdist_same_single_row_is_zero():
    a = np.array([[1.0, 2.0, 3.0]])
    assert ad.pairwise_sqdist_matrix(a, a.copy())[0, 0] == 0.0


def test_pairwise_sqdist_never_negative():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6))
    # duplicated rows make round-off cancellations likely
    assert ad.pairwise_sqdist_matrix(x, np.vstack([x, x])).min() >= 0.0


def test_nuclear_norm_diagonal():
    assert ad.nuclear_norm(np.diag([3.0, -4.0]))[0] == pytest.approx(7.0, abs=1e-12)


def test_nuclear_norm_zero_matrix():
    assert ad.nuclear_norm(np.zeros((3, 2)))[0] == 0.0
    # a zero centered cross-Gram matrix: kbw_sq's subgradient of its nuclear
    # norm is 0, so only the self terms' gradients reach the samples
    a, b = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]])
    tape, av, bv = leafpair(a, b)
    tape.backward(kbw_sq(av, bv, KernelSpec("linear")))
    assert np.array_equal(av.grad, a) and np.array_equal(bv.grad, b)


def test_nuclear_norm_transpose_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=(5, 3))
        t = Tape()
        fwd = ad.nuclear_norm(x)[0]
        bwd = ad.nuclear_norm(x.T)[0]
        assert abs(fwd - bwd) <= 1e-10


def test_vstack_splits_gradient_by_block():
    tape, a, b = leafpair(np.ones((2, 3)), np.ones((1, 3)))
    out = ad.vstack(a, b)
    out._backward(np.arange(9.0).reshape(3, 3))
    assert np.array_equal(a.grad, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(b.grad, [[6.0, 7.0, 8.0]])


def test_add_rowvec_requires_single_row():
    tape, a, b = leafpair(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        ops.add_rowvec(a, b)


def test_scalar_operator_sugar():
    tape = Tape()
    x = tape.leaf([[4.0]])
    assert (x + x).item() == 8.0


# ---------------------------------------------------------------------------
# tape semantics


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4))

    def run():
        tape = Tape()
        v = tape.leaf(x)
        out = ops.sum_all(ops.exp(ops.softmax_rows(ops.matmul(v, v))))
        tape.backward(out)
        return out.item(), v.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_backward_is_linear_in_the_loss():
    """Backward of a sum of losses equals the sum of the backwards.

    With each leaf feeding exactly one loss the equality is bitwise: the
    combined backward performs the same accumulation sequence per leaf as
    the solo backward does.
    """
    rng = np.random.default_rng(7)
    x1, x2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))

    def grads(which):
        tape = Tape()
        a, b = tape.leaf(x1), tape.leaf(x2)
        l1 = ops.sum_all(ops.matmul(a, a))
        l2 = ops.sum_all(ops.hadamard(b, b))
        loss = {"l1": l1, "l2": l2, "both": l1 + l2}[which]
        tape.backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga_both, gb_both = grads("both")
    ga_solo, _ = grads("l1")
    _, gb_solo = grads("l2")
    assert np.array_equal(ga_both, ga_solo)
    assert np.array_equal(gb_both, gb_solo)


def test_backward_linearity_with_a_shared_leaf():
    # shared-leaf accumulation reorders float additions, so equality here is
    # to round-off, not bitwise
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 3))

    def grads(which):
        tape = Tape()
        v = tape.leaf(x)
        l1 = ops.sum_all(ops.matmul(v, v))
        l2 = ops.sum_all(ops.hadamard(v, v))
        loss = {"l1": l1, "l2": l2, "both": l1 + l2}[which]
        tape.backward(loss)
        return v.grad.copy()

    combined = grads("both")
    summed = grads("l1") + grads("l2")
    assert np.allclose(combined, summed, rtol=1e-14, atol=1e-14)


def test_gradient_of_root_wrt_itself_is_ones():
    tape = Tape()
    v = tape.leaf(np.zeros((2, 3)))
    out = ops.scale(v, 2.0)
    tape.backward(out)
    assert np.array_equal(out.grad, np.ones((2, 3)))


def test_nodes_off_the_loss_path_stay_untouched():
    tape = Tape()
    v = tape.leaf(np.ones((2, 2)))
    used = ops.sum_all(ops.scale(v, 3.0))
    unused = ops.softmax_rows(v)  # recorded after, never feeds the root
    tape.backward(used)
    assert not unused.grad.any()
    assert np.array_equal(v.grad, np.full((2, 2), 3.0))


def test_grad_accumulates_across_multiple_uses():
    tape = Tape()
    v = tape.leaf([[1.0]])
    out = ops.sum_all(v + v)
    tape.backward(out)
    assert v.grad[0, 0] == 2.0


def test_clamp_min_gates_the_gradient():
    tape = Tape()
    v = tape.leaf([[0.5, 2.0]])
    out = ops.sum_all(ops.clamp_min(v, 1.0))
    tape.backward(out)
    assert np.array_equal(v.grad, [[0.0, 1.0]])


def test_sqrt_zero_entry_gets_zero_subgradient():
    tape = Tape()
    v = tape.leaf([[0.0, 4.0]])
    out = ops.sum_all(ops.sqrt(v))
    tape.backward(out)
    assert np.array_equal(v.grad, [[0.0, 0.25]])


# ---------------------------------------------------------------------------
# lazy grad buffers and constants


def test_grad_buffers_are_made_only_where_an_adjoint_writes():
    tape = Tape()
    v = tape.leaf(np.ones((2, 2)))
    used = ops.sum_all(ops.scale(v, 3.0))
    unused = ops.softmax_rows(v)
    assert v._grad is None and used._grad is None
    tape.backward(used)
    assert unused._grad is None
    assert v._grad is not None


def test_first_write_keeps_the_zero_buffers_signed_zeros():
    # 0.0 + (-0.0) is +0.0: a lazy buffer must round like the zero buffer did
    tape = Tape()
    v = tape.leaf([[1.0, 2.0]])
    out = ops.scale(ops.sum_all(ops.hadamard(v, tape.constant([[0.0, 1.0]]))), -1.0)
    tape.backward(out)
    assert np.array_equal(v.grad, [[0.0, -1.0]])
    assert not np.signbit(v.grad[0, 0])


def dense_unbiased(x, w):
    return dense(x, w, x.tape.constant(np.zeros((1, w.shape[1])), "b"))


@pytest.mark.parametrize("op", [ops.matmul, ops.pairwise_sqdist, dense_unbiased],
                         ids=["matmul", "pairwise_sqdist", "dense"])
@pytest.mark.parametrize("constant_side", [0, 1])
def test_a_constant_operand_leaves_the_other_grad_bitwise_unchanged(op, constant_side):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 4))
    weights = rng.normal(size=(5, 4))

    def grads(constant):
        tape = Tape()
        pair = [tape.leaf(a, "a"), tape.leaf(b, "b")]
        if constant:
            pair[constant_side] = tape.constant((a, b)[constant_side], "c")
        out = op(*pair)
        tape.backward(ops.sum_all(ops.hadamard(out, tape.constant(weights, "w"))))
        return pair

    leaves, mixed = grads(False), grads(True)
    other = 1 - constant_side
    assert np.array_equal(mixed[other].grad, leaves[other].grad)
    assert mixed[constant_side]._grad is None
    assert np.array_equal(mixed[constant_side].grad, np.zeros_like(mixed[constant_side].value))
    assert leaves[constant_side].grad.any()


def test_ops_on_constants_record_constants():
    tape = Tape()
    c = tape.constant(np.ones((2, 2)), "c")
    v = tape.leaf(np.ones((2, 2)))
    assert dense(c, c, tape.constant(np.zeros((1, 2)), "b"), "softmax").constant
    assert not ad.add(c, v).constant
    assert not tape.leaf(np.ones((1, 1))).constant


def test_a_leaf_made_without_copy_aliases_its_array():
    x = np.ones((2, 2))
    v = Tape().leaf(x, "x", copy=False)
    assert v.value is x
    assert Tape().leaf(x, "x").value is not x


# ---------------------------------------------------------------------------
# finite differences per op (the heavier sweep lives in gradcheck; this is a
# quick regression net over representative shapes)


def scalarized(build):
    def f(x):
        tape = Tape()
        return build(tape, tape.leaf(x)).item()
    return f


@pytest.mark.parametrize("name,build", [
    ("exp_sum", lambda t, v: ops.sum_all(ops.exp(v))),
    ("log_shift", lambda t, v: ops.sum_all(ops.log(v + t.leaf(np.full(v.shape, 5.0))))),
    ("softmax_weighted", lambda t, v: ops.sum_all(ops.hadamard(
        ops.softmax_rows(v), t.leaf(np.arange(12.0).reshape(3, 4))))),
    ("matmul_self", lambda t, v: ops.sum_all(ops.matmul(v, ops.transpose(v)))),
    ("nuclear", lambda t, v: ops.nuclear_norm(v)),
    ("sqdist_self", lambda t, v: ops.sum_all(ops.hadamard(ops.pairwise_sqdist(v, v),
                                                          t.leaf(np.ones((3, 3)))))),
])
def test_gradient_matches_finite_differences(name, build):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rng.uniform(-1.0, 1.0, size=(3, 4))
    if name == "sqdist_self":
        x = rng.uniform(-1.0, 1.0, size=(3, 2))

    tape = Tape()
    v = tape.leaf(x)
    out = build(tape, v)
    tape.backward(out)

    numeric = central_difference(scalarized(build), x)
    assert max_rel_error(v.grad, numeric) <= 1e-6


# ---------------------------------------------------------------------------
# losses.triplet_hinge, the counts l_trip's node holds, against a plain
# triple loop


def triplet_reference(d, labels, margin):
    """Hinge sum and active-count matrix, one (i, j, k) triple at a time."""
    n = d.shape[0]
    value = 0.0
    counts = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j == i or labels[j] != labels[i]:
                continue
            for k in range(n):
                if labels[k] == labels[i]:
                    continue
                expr = (d[i, j] - d[i, k]) + margin
                if expr > 0.0:
                    value += expr
                    counts[i, j] += 1.0
                    counts[i, k] -= 1.0
    return value, counts


def distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def check_triplet_hinge(d, labels, margin):
    ref_value, ref_counts = triplet_reference(d, labels, margin)
    value, counts = triplet_hinge(d, labels, margin)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert np.array_equal(counts, ref_counts)


@pytest.mark.parametrize("classes", [2, 3, 4])
@pytest.mark.parametrize("margin", [0.0, 0.5, 1.0])
def test_triplet_hinge_matches_triple_loop(classes, margin):
    rng = np.random.default_rng([classes, int(10 * margin)])
    for trial in range(10):
        n = int(rng.integers(4, 20))
        labels = rng.integers(0, classes, size=n)
        points = rng.normal(size=(n, 3))
        if trial % 2:
            points = np.round(points)   # tied distances, coincident points
        check_triplet_hinge(distances(points), labels, margin)


def test_triplet_hinge_edge_batches():
    # class 2 has a single member: its anchor has no positive
    check_triplet_hinge(distances(np.array([[0.0, 0], [1, 0], [2, 0], [0, 2]])),
                        np.array([0, 0, 1, 2]), 1.0)
    # all points coincide: every hinge argument equals the margin
    check_triplet_hinge(np.zeros((5, 5)), np.array([0, 0, 1, 1, 2]), 0.0)
    check_triplet_hinge(np.zeros((5, 5)), np.array([0, 0, 1, 1, 2]), 0.5)
    # one class only: no negatives, so nothing is active
    check_triplet_hinge(distances(np.arange(6.0).reshape(3, 2)), np.zeros(3, int), 1.0)


def test_triplet_hinge_scales_counts_by_the_upstream_gradient():
    # l_trip's node scales the counts by its upstream gradient
    g = np.random.default_rng(5).normal(size=(8, 2))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    runs = []
    for loss in (l_trip, ops.l_trip_composed):
        tape = Tape()
        leaf = tape.leaf(g)
        tape.backward(ops.scale(loss(leaf, labels, 1.0)[0], 0.3))
        runs.append(leaf.grad)
    assert runs[0].tobytes() == runs[1].tobytes()
    assert runs[0].any()


def test_triplet_hinge_records_one_node_and_checks_shapes():
    # the hinge is part of l_trip's one node; the count function checks shapes
    tape = Tape()
    l_trip(tape.leaf(np.eye(3)), np.array([0, 1, 1]), 1.0)
    assert len(tape) == 2
    with pytest.raises(DimensionError):
        triplet_hinge(np.zeros((3, 3)), np.array([0, 1]), 1.0)
    with pytest.raises(DimensionError):
        triplet_hinge(np.zeros((3, 2)), np.array([0, 1, 1]), 1.0)


@pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
def test_triplet_hinge_rejects_a_non_finite_margin(margin):
    with pytest.raises(ConfigError, match="finite and >= 0"):
        triplet_hinge(np.zeros((3, 3)), np.array([0, 1, 1]), margin)


@pytest.mark.parametrize("entry", [-1.0, -5e-324, -np.inf, np.nan])
def test_triplet_hinge_rejects_a_negative_distance_at_its_place(entry):
    d = np.ones((3, 3))
    d[1, 2] = entry
    with pytest.raises(DomainError, match=r"at \(1, 2\)"):
        triplet_hinge(d, np.array([0, 1, 1]), 1.0)


@pytest.mark.parametrize("margin", [0.0, -0.0, 1.0])
def test_triplet_hinge_counts_a_negative_zero_distance_as_positive_zero(margin):
    # coincident points in three classes, with every zero distance's sign set
    rng = np.random.default_rng(4)
    points = rng.integers(0, 3, size=(40, 1)).astype(float)
    labels = rng.integers(0, 3, size=40)
    d = distances(points)
    signed = np.where((d == 0.0) & (rng.random(d.shape) < 0.5), -0.0, d)
    assert np.signbit(signed).any()
    runs = []
    for entries in (d, signed):
        value, counts = triplet_hinge(entries, labels, margin)
        runs.append((value.tobytes(), counts.tobytes()))
    assert runs[0] == runs[1]
    check_triplet_hinge(signed, labels, margin)


@pytest.mark.parametrize("margin", [0.0, 1.0])
def test_triplet_hinge_matches_triple_loop_at_the_benchmark_shape(margin):
    # 128 margin rows in 4 classes, as l_trip sees them at batch 64 + 64
    rng = np.random.default_rng(int(margin))
    check_triplet_hinge(distances(rng.normal(size=(128, 8))), rng.integers(0, 4, size=128),
                        margin)


def test_triplet_hinge_exact_on_collinear_integer_points():
    # every distance is an integer, so many d_ij - d_ik == -margin sit exactly
    # on the threshold and must stay inactive
    rng = np.random.default_rng(7)
    points = np.zeros((128, 2))
    points[:, 0] = rng.integers(0, 12, size=128)
    labels = rng.integers(0, 4, size=128)
    for margin in (0.0, 1.0, 2.0):
        check_triplet_hinge(distances(points), labels, margin)
    labels[0] = 4   # a one-member class: its anchor has no positive
    check_triplet_hinge(distances(points), labels, 1.0)
    check_triplet_hinge(distances(points[:24]), np.zeros(24, int), 1.0)   # one class


@pytest.mark.parametrize("ulps", [0, 2])
def test_triplet_hinge_value_rounds_against_the_weighted_distances(ulps):
    # entries near 1e6 a few ulps apart, so every active hinge is a few ulps:
    # the counts stay exact, but <counts, d> cancels, and the value's error is
    # bounded by sum |counts * d|, not by the hinge sum
    rng = np.random.default_rng(11)
    n = 32
    ulp = np.spacing(1e6)
    d = 1e6 + ulp * rng.integers(0, 8, size=(n, n))
    labels = np.arange(n) % 4
    ref_value, ref_counts = triplet_reference(d, labels, ulps * ulp)
    value, counts = triplet_hinge(d, labels, ulps * ulp)
    assert np.array_equal(counts, ref_counts)
    assert ref_value > 0.0
    assert abs(value - ref_value) <= 1e-12 * np.abs(ref_counts * d).sum()


def triplet_hinge_cube(d, labels, margin):
    """The per-class cube formulation of triplet_hinge, kept as an oracle:
    it builds every (anchor, positive, negative) hinge argument of a class
    as one n_c x n_c x (n - n_c) array."""
    n = d.shape[0]
    labels = np.asarray(labels)
    margin = float(margin)
    total = 0.0
    counts = np.zeros((n, n))
    for c in np.unique(labels):
        own = np.flatnonzero(labels == c)
        other = np.flatnonzero(labels != c)
        rows = d[own]
        expr = (rows[:, own, None] - rows[:, None, other]) + margin
        active = expr > 0.0
        active[np.arange(own.size), np.arange(own.size)] = False   # j == i
        total += expr[active].sum()
        counts[np.ix_(own, own)] = active.sum(axis=2)
        counts[np.ix_(own, other)] = -active.sum(axis=1)
    return total, counts


def test_triplet_training_keeps_the_cube_oracles_parameters(monkeypatch, tmp_path):
    # the pinned benchmark's data and widths, 40 iterations of triplet
    source, target = gen_rotated_blobs(SynthSpec(shift_angle=40.0))
    cfg = TrainConfig(variant="triplet", hidden_dim=128, feat_dim=64, t_max=40, eval_every=40)
    runs = []
    for op in (triplet_hinge, triplet_hinge_cube):
        monkeypatch.setattr(losses, "triplet_hinge", op)
        params, metrics = train(source, target, cfg)
        save_checkpoint(params, tmp_path / "model.bin")
        runs.append(((tmp_path / "model.bin").read_bytes(),
                     [json.loads(line) for line in metrics.to_jsonl().splitlines()]))
    (model, rows), (cube_model, cube_rows) = runs
    assert model == cube_model
    assert len(rows) == len(cube_rows) == 40
    # the logged hinge sums may round differently; 1e-12 holds on this data,
    # where the hinges are not small against the distances
    for row, cube_row in zip(rows, cube_rows):
        for key in ("l_dmc", "total"):
            value, cube_value = row.pop(key), cube_row.pop(key)
            assert abs(value - cube_value) <= 1e-12 * abs(cube_value)
        assert row == cube_row


def test_triplet_hinge_allocates_no_triple_cube():
    # n = 256 in 4 classes: the cube formulation peaks near 28 n^2 float64s here,
    # the sorted count near 8 n^2
    n = 256
    rng = np.random.default_rng(3)
    d = distances(rng.normal(size=(n, 8)))
    labels = rng.integers(0, 4, size=n)
    tracemalloc.start()
    try:
        triplet_hinge(d, labels, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * n * n * 8


@st.composite
def triplet_batches(draw):
    n = draw(st.integers(2, 12))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    coords = draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n))
    points = np.array(coords, dtype=np.float64).reshape(n, 2)
    if draw(st.booleans()):
        points = points * draw(st.floats(0.1, 2.0))
    margin = draw(st.sampled_from([0.0, 0.25, 1.0, 2.5]))
    return distances(points), labels, margin


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(triplet_batches())
def test_triplet_hinge_property_matches_triple_loop(batch):
    check_triplet_hinge(*batch)


@st.composite
def tied_triplet_batches(draw):
    """Up to 128 rows on an integer grid, so distances tie, points coincide
    and, at margin 0, negatives sit exactly on thresholds; one class, or
    several with one-member classes among them."""
    n = draw(st.integers(1, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    classes = draw(st.integers(1, 5))
    labels = rng.integers(0, classes, size=n)
    for row in range(draw(st.integers(0, 2))):   # one-member classes
        labels[min(row, n - 1)] = classes + row
    span = draw(st.integers(0, 6))
    points = rng.integers(0, span + 1, size=(n, draw(st.integers(1, 3)))).astype(float)
    if draw(st.booleans()):
        points = points * draw(st.floats(0.01, 3.0))
    margin = draw(st.sampled_from([0.0, 0.0, 1e-17, 0.1, 0.25, 1.0, 2.5]))
    return distances(points), labels, margin


def hinge_bytes(op, d, labels, margin):
    value, counts = op(d, labels, margin)
    return value.tobytes(), counts.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_triplet_batches())
def test_triplet_hinge_property_matches_the_lexsort_bit_for_bit(batch):
    assert hinge_bytes(triplet_hinge, *batch) == hinge_bytes(ops.triplet_hinge_lexsort, *batch)


# ---------------------------------------------------------------------------
# take against plain numpy


@st.composite
def take_batches(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(1, 10))
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    rows = np.append(rows, rows[0])   # at least one repeated index
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(n, m)), rows, rng.normal(size=(k + 1, m))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(take_batches())
def test_take_property_matches_fancy_indexing_and_add_at(batch):
    a, rows, upstream = batch
    tape = Tape()
    leaf = tape.leaf(a)
    out = ad.take(leaf, rows)
    assert np.array_equal(out.value, a[rows])
    out._backward(upstream)
    expected = np.zeros_like(a)
    np.add.at(expected, rows, upstream)
    assert np.array_equal(leaf.grad, expected)


def test_take_checks_index_shapes():
    leaf = Tape().leaf(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        ad.take(leaf, np.zeros((2, 2), dtype=int))
    with pytest.raises(DimensionError):
        ad.take(leaf, 1)
