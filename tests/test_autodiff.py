"""Tape mechanics and per-op checks for the reverse-mode engine."""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjda import autodiff as ad
from bjda.autodiff import Tape, as_matrix
from bjda.errors import DimensionError, DomainError, InputError
from bjda.gradcheck import central_difference, max_rel_error
from bjda.losses import l_cls
from bjda.model import ModelDims, forward_f, forward_g, init_xavier, make_leaves


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
    out = (a @ b).sum()
    tape.backward(out)
    assert len(tape) == 0
    assert np.array_equal(a.grad, np.ones((2, 2)) @ b.value.T)
    assert np.array_equal(b.grad, a.value.T @ np.ones((2, 2)))
    assert out.item() == float((a.value @ b.value).sum())


def test_second_backward_on_a_tape_raises():
    tape, a, b = leafpair(np.ones((2, 2)), np.ones((2, 2)))
    out = (a * b).sum()
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
        loss = l_cls(forward_f(leaves, forward_g(leaves, tape.leaf(x, "x"))), y)
        tape.backward(loss)
        grad = leaves["w1"].grad
        alive = weakref.ref(tape)
        del tape, leaves, loss
        assert alive() is None
    finally:
        gc.enable()
    assert grad.shape == (3, 4) and grad.any()


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    tape, a, i = leafpair([[1.0, 2.0], [3.0, 4.0]], np.eye(2))
    assert np.array_equal((a @ i).value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_column_pick():
    tape, i, c = leafpair(np.eye(2), [[5.0], [7.0]])
    assert np.array_equal((i @ c).value, [[5.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    tape, a, b = leafpair(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(a, b)


def test_softmax_symmetry():
    tape = Tape()
    s = ad.softmax_rows(tape.leaf([[0.0, 0.0]]))
    assert np.allclose(s.value, [[0.5, 0.5]], atol=0, rtol=0)


def test_leaky_relu_negative_branch():
    tape = Tape()
    out = ad.leaky_relu(tape.leaf([[-1.0]]), 0.01)
    assert out.value[0, 0] == -0.01


def test_trace_identity():
    tape = Tape()
    assert ad.trace(tape.leaf(np.eye(3))).item() == 3.0


def test_trace_requires_square():
    tape = Tape()
    with pytest.raises(DimensionError):
        ad.trace(tape.leaf(np.ones((2, 3))))


def test_log_rejects_nonpositive_with_location():
    tape = Tape()
    with pytest.raises(DomainError, match=r"\(1, 0\)"):
        ad.log(tape.leaf([[1.0, 2.0], [-3.0, 4.0]]))


def test_sqrt_rejects_negative():
    tape = Tape()
    with pytest.raises(DomainError):
        ad.sqrt(tape.leaf([[-1.0]]))


def test_pairwise_sqdist_two_points():
    tape, a, b = leafpair([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]])
    assert np.array_equal(ad.pairwise_sqdist(a, b).value, [[0.0, 4.0], [4.0, 0.0]])


def test_pairwise_sqdist_same_single_row_is_zero():
    tape, a, b = leafpair([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
    assert ad.pairwise_sqdist(a, b).value[0, 0] == 0.0


def test_pairwise_sqdist_never_negative():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6))
    tape = Tape()
    a = tape.leaf(x)
    # duplicated rows make round-off cancellations likely
    b = tape.leaf(np.vstack([x, x]))
    assert ad.pairwise_sqdist(a, b).value.min() >= 0.0


def test_nuclear_norm_diagonal():
    tape = Tape()
    assert ad.nuclear_norm(tape.leaf(np.diag([3.0, -4.0]))).item() == pytest.approx(7.0, abs=1e-12)


def test_nuclear_norm_zero_matrix():
    tape = Tape()
    v = ad.nuclear_norm(tape.leaf(np.zeros((3, 2))))
    assert v.item() == 0.0
    tape.backward(v)  # zero-matrix subgradient must not blow up


def test_nuclear_norm_transpose_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=(5, 3))
        t = Tape()
        fwd = ad.nuclear_norm(t.leaf(x)).item()
        bwd = ad.nuclear_norm(t.leaf(x.T)).item()
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
        ad.add_rowvec(a, b)


def test_scalar_operator_sugar():
    tape = Tape()
    x = tape.leaf([[2.0]])
    assert (x * 3.0).item() == 6.0
    assert (x + x).item() == 4.0
    assert (x - x).item() == 0.0
    assert (x * x).item() == 4.0


# ---------------------------------------------------------------------------
# tape semantics


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4))

    def run():
        tape = Tape()
        v = tape.leaf(x)
        out = ad.softmax_rows(v @ v).exp().sum()
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
        l1 = (a @ a).sum()
        l2 = ad.hadamard(b, b).sum()
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
        l1 = (v @ v).sum()
        l2 = ad.hadamard(v, v).sum()
        loss = {"l1": l1, "l2": l2, "both": l1 + l2}[which]
        tape.backward(loss)
        return v.grad.copy()

    combined = grads("both")
    summed = grads("l1") + grads("l2")
    assert np.allclose(combined, summed, rtol=1e-14, atol=1e-14)


def test_gradient_of_root_wrt_itself_is_ones():
    tape = Tape()
    v = tape.leaf(np.zeros((2, 3)))
    out = ad.scale(v, 2.0)
    tape.backward(out)
    assert np.array_equal(out.grad, np.ones((2, 3)))


def test_nodes_off_the_loss_path_stay_untouched():
    tape = Tape()
    v = tape.leaf(np.ones((2, 2)))
    used = ad.scale(v, 3.0).sum()
    unused = ad.exp(v)  # recorded after, never feeds the root
    tape.backward(used)
    assert not unused.grad.any()
    assert np.array_equal(v.grad, np.full((2, 2), 3.0))


def test_grad_accumulates_across_multiple_uses():
    tape = Tape()
    v = tape.leaf([[1.0]])
    out = (v + v).sum()
    tape.backward(out)
    assert v.grad[0, 0] == 2.0


def test_clamp_min_gates_the_gradient():
    tape = Tape()
    v = tape.leaf([[0.5, 2.0]])
    out = ad.clamp_min(v, 1.0).sum()
    tape.backward(out)
    assert np.array_equal(v.grad, [[0.0, 1.0]])


def test_sqrt_zero_entry_gets_zero_subgradient():
    tape = Tape()
    v = tape.leaf([[0.0, 4.0]])
    out = ad.sqrt(v).sum()
    tape.backward(out)
    assert np.array_equal(v.grad, [[0.0, 0.25]])


# ---------------------------------------------------------------------------
# lazy grad buffers and constants


def test_grad_buffers_are_made_only_where_an_adjoint_writes():
    tape = Tape()
    v = tape.leaf(np.ones((2, 2)))
    used = ad.scale(v, 3.0).sum()
    unused = ad.exp(v)
    assert v._grad is None and used._grad is None
    tape.backward(used)
    assert unused._grad is None
    assert v._grad is not None


def test_first_write_keeps_the_zero_buffers_signed_zeros():
    # 0.0 + (-0.0) is +0.0: a lazy buffer must round like the zero buffer did
    tape = Tape()
    v = tape.leaf([[1.0, 2.0]])
    out = ad.scale(ad.hadamard(v, tape.constant([[0.0, 1.0]])).sum(), -1.0)
    tape.backward(out)
    assert np.array_equal(v.grad, [[0.0, -1.0]])
    assert not np.signbit(v.grad[0, 0])


@pytest.mark.parametrize("op", [ad.matmul, ad.pairwise_sqdist], ids=["matmul", "pairwise_sqdist"])
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
        tape.backward((out * tape.constant(weights, "w")).sum())
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
    assert ad.exp(ad.scale(c, 2.0)).constant
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
    ("exp_sum", lambda t, v: v.exp().sum()),
    ("log_shift", lambda t, v: (v + t.leaf(np.full(v.shape, 5.0))).log().sum()),
    ("softmax_weighted", lambda t, v: (ad.softmax_rows(v)
                                       * t.leaf(np.arange(12.0).reshape(3, 4))).sum()),
    ("matmul_self", lambda t, v: (v @ v.T).sum()),
    ("nuclear", lambda t, v: ad.nuclear_norm(v)),
    ("sqdist_self", lambda t, v: (ad.pairwise_sqdist(v, v)
                                  * t.leaf(np.ones((3, 3)))).sum()),
])
def test_gradient_matches_finite_differences(name, build):
    rng = np.random.default_rng(hash(name) % 2**32)
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
# triplet_hinge against a plain triple loop


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
    tape = Tape()
    leaf = tape.leaf(d)
    out = ad.triplet_hinge(leaf, labels, margin)
    tape.backward(out)
    assert abs(out.item() - ref_value) <= 1e-12 * abs(ref_value)
    assert np.array_equal(leaf.grad, ref_counts)


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
    d = distances(np.random.default_rng(5).normal(size=(8, 2)))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    _, counts = triplet_reference(d, labels, 1.0)
    tape = Tape()
    leaf = tape.leaf(d)
    tape.backward(ad.scale(ad.triplet_hinge(leaf, labels, 1.0), 0.3))
    assert np.array_equal(leaf.grad, 0.3 * counts)


def test_triplet_hinge_records_one_node_and_checks_shapes():
    tape = Tape()
    leaf = tape.leaf(np.zeros((3, 3)))
    ad.triplet_hinge(leaf, np.array([0, 1, 1]), 1.0)
    assert len(tape) == 2
    with pytest.raises(DimensionError):
        ad.triplet_hinge(leaf, np.array([0, 1]), 1.0)
    with pytest.raises(DimensionError):
        ad.triplet_hinge(tape.leaf(np.zeros((3, 2))), np.array([0, 1, 1]), 1.0)


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


# ---------------------------------------------------------------------------
# take and center against plain numpy


@st.composite
def take_batches(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(1, 10))
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    rows = np.append(rows, rows[0])   # at least one repeated index
    cols = None
    if draw(st.booleans()):
        cols = np.array(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)))
        cols = np.append(cols, cols[0])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upstream_shape = (k + 1, m) if cols is None else (k + 1, 1)
    return rng.normal(size=(n, m)), rows, cols, rng.normal(size=upstream_shape)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(take_batches())
def test_take_property_matches_fancy_indexing_and_add_at(batch):
    a, rows, cols, upstream = batch
    tape = Tape()
    leaf = tape.leaf(a)
    out = ad.take(leaf, rows, cols)
    index = rows if cols is None else (rows, cols)
    assert np.array_equal(out.value, a[index].reshape(upstream.shape))
    out._backward(upstream)
    expected = np.zeros_like(a)
    np.add.at(expected, index, upstream if cols is None else upstream[:, 0])
    assert np.array_equal(leaf.grad, expected)


def test_take_checks_index_shapes():
    leaf = Tape().leaf(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        ad.take(leaf, np.zeros((2, 2), dtype=int))
    with pytest.raises(DimensionError):
        ad.take(leaf, [0, 1], [0])


@st.composite
def center_batches(draw):
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, -30.0]))
    return offset + rng.normal(size=(n, m)), rng.normal(size=(n, m))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(center_batches())
def test_center_property_matches_dense_centering_matrices(batch):
    a, upstream = batch
    n, m = a.shape
    h_n = np.eye(n) - np.full((n, n), 1.0 / n)
    h_m = np.eye(m) - np.full((m, m), 1.0 / m)
    tape = Tape()
    leaf = tape.leaf(a)
    out = ad.center(leaf)
    assert np.abs(out.value - h_n @ a @ h_m).max() <= 1e-12 * max(1.0, np.abs(a).max())
    out._backward(upstream)
    assert np.array_equal(leaf.grad, ad.center(Tape().leaf(upstream)).value)
