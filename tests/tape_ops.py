"""Tape ops that training does not record, with autodiff's former values and
adjoints, for the tests' composed oracles and tape checks: the forms that
model.dense, kernels.kbw_sq and losses.total_objective replaced
(dense_composed, kbw_sq_composed and total_objective_composed below),
kbw_sq_reference, l_dmc_with_masks, l_cls_reference, l_trip_composed and
wd_composed, and the former lexsort formulation of losses.triplet_hinge, a
bitwise oracle for the packed-key one."""
import numpy as np

from bjda import losses
from bjda.autodiff import (Value, _accumulate, _join, add, both, leaky_relu_array,
                           nuclear_norm as nuclear_norm_array, pairwise_sqdist_matrix,
                           softmax_rows_array)
from bjda.errors import ConfigError, DimensionError, DomainError
from bjda.kernels import (EPS_RANK, GAUSSIAN, KernelSpec, _centered, _gram, _gram_adjoint,
                          _self_term, _self_term_grad, gaussian_bandwidth, optimal_assignment)
from bjda.model import LEAKY_SLOPE


def _unary(a: Value, value: np.ndarray, adjoint) -> Value:
    """A node holding value whose adjoint accumulates the temporary adjoint(g) into a."""
    return a.tape._record(value, lambda g: _accumulate(a, adjoint(g), owned=True), a)


def matmul(a: Value, b: Value) -> Value:
    """Matrix product. Adjoints: dA = g B^T, dB = A^T g; when both are
    wanted and the tape has a helper, the helper computes dB while the
    caller computes dA."""
    tape = _join(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    def backward(g):
        if a.constant:
            _accumulate(b, a.value.T @ g, owned=True)
        elif b.constant:
            _accumulate(a, g @ b.value.T, owned=True)
        else:
            da, db = both(tape.helper, lambda: g @ b.value.T, lambda: a.value.T @ g)
            _accumulate(a, da, owned=True)
            _accumulate(b, db, owned=True)

    return tape._record(a.value @ b.value, backward, a, b)


def scale(a: Value, s: float) -> Value:
    """Multiply every entry by the constant s."""
    s = float(s)
    return _unary(a, a.value * s, lambda g: g * s)


def leaky_relu(a: Value, slope: float = LEAKY_SLOPE) -> Value:
    """x for x > 0, slope * x otherwise; slope must lie in [0, 1]."""
    slope = float(slope) + 0.0  # a slope of -0.0 becomes +0.0
    if not 0.0 <= slope <= 1.0:
        raise ConfigError(f"leaky_relu: slope must lie in [0, 1], got {slope}")

    def adjoint(g):
        # the factor, 1 where a > 0 and slope elsewhere, as max(a > 0, slope)
        f = (a.value > 0.0).astype(np.float64)
        np.maximum(f, slope, out=f)
        return np.multiply(g, f, out=f)

    return _unary(a, leaky_relu_array(a.value, slope), adjoint)


def softmax_rows(a: Value) -> Value:
    """Row-wise softmax, computed with the usual max-shift for stability."""
    s = softmax_rows_array(a.value)
    # ds_ij/da_ik = s_ij (delta_jk - s_ik)
    return _unary(a, s, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True)))


def add_rowvec(a: Value, b: Value) -> Value:
    """Add the 1 x m row vector b to every row of the n x m matrix a."""
    tape = _join(a, b)
    if b.shape[0] != 1 or b.shape[1] != a.shape[1]:
        raise DimensionError(f"add_rowvec: expected (1, {a.shape[1]}) row, got {b.shape}")

    def backward(g):
        _accumulate(a, g)
        if not b.constant:
            _accumulate(b, g.sum(axis=0, keepdims=True), owned=True)

    return tape._record(a.value + b.value, backward, a, b)


def nuclear_norm(a: Value) -> Value:
    """Sum of singular values, as a 1x1 matrix. The adjoint uses the
    subgradient U_r V_r^T over the singular triplets with sigma >
    EPS_RANK * sigma_max."""
    total, u, s, vt = nuclear_norm_array(a.value)

    def backward(g):
        if s.size == 0 or s[0] <= 0.0:
            return  # zero matrix: subgradient 0
        keep = s > EPS_RANK * s[0]
        _accumulate(a, g[0, 0] * (u[:, keep] @ vt[keep, :]), owned=True)

    return a.tape._record(np.array([[total]]), backward, a)


def sub(a: Value, b: Value) -> Value:
    """Elementwise difference of two same-shape matrices."""
    def backward(g):
        _accumulate(a, g)
        if not b.constant:  # x + (-g) rounds as x - g
            _accumulate(b, -g, owned=True)

    return _join(a, b)._record(a.value - b.value, backward, a, b)


def hadamard(a: Value, b: Value) -> Value:
    """Elementwise product of two same-shape matrices."""
    def backward(g):
        if not a.constant:
            _accumulate(a, g * b.value, owned=True)
        if not b.constant:
            _accumulate(b, g * a.value, owned=True)

    return _join(a, b)._record(a.value * b.value, backward, a, b)


def exp(a: Value) -> Value:
    e = np.exp(a.value)
    return _unary(a, e, lambda g: g * e)


def log(a: Value) -> Value:
    """Natural log; every entry must be strictly positive."""
    if a.value.size and np.min(a.value) <= 0.0:
        i, j = np.argwhere(a.value <= 0.0)[0]
        raise DomainError(f"log: nonpositive entry {a.value[i, j]!r} at ({i}, {j})")
    return _unary(a, np.log(a.value), lambda g: g / a.value)


def clamp_min(a: Value, floor: float) -> Value:
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    floor = float(floor)
    return _unary(a, np.maximum(a.value, floor), lambda g: g * (a.value > floor))


def trace(a: Value) -> Value:
    """Trace of a square matrix, as a 1x1 matrix."""
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"trace: matrix must be square, got {a.shape}")
    return _unary(a, np.array([[np.trace(a.value)]]), lambda g: g[0, 0] * np.eye(a.shape[0]))


def transpose(a: Value) -> Value:
    def backward(g):
        _accumulate(a, g.T)

    return a.tape._record(a.value.T.copy(), backward, a)


def sqrt(a: Value) -> Value:
    """Elementwise square root; zero entries get subgradient 0."""
    if a.value.size and np.min(a.value) < 0.0:
        i, j = np.argwhere(a.value < 0.0)[0]
        raise DomainError(f"sqrt: negative entry {a.value[i, j]!r} at ({i}, {j})")
    root = np.sqrt(a.value)

    def adjoint(g):
        with np.errstate(divide="ignore"):
            return g * np.where(a.value > 0.0, 0.5 / root, 0.0)

    return _unary(a, root, adjoint)


def sum_all(a: Value) -> Value:
    """Sum of all entries, as a 1x1 matrix."""
    return _unary(a, np.array([[a.value.sum()]]), lambda g: np.full(a.shape, g[0, 0]))


def pairwise_sqdist(a: Value, b: Value) -> Value:
    """All squared Euclidean distances between rows of a and rows of b."""
    av, bv = a.value, b.value

    def backward(g):
        if not a.constant:
            _accumulate(a, 2.0 * (g.sum(axis=1, keepdims=True) * av - g @ bv), owned=True)
        if not b.constant:
            _accumulate(b, 2.0 * (g.sum(axis=0)[:, None] * bv - g.T @ av), owned=True)

    return _join(a, b)._record(pairwise_sqdist_matrix(av, bv), backward, a, b)


def take_entries(a: Value, rows, cols) -> Value:
    """The entries a[rows[k], cols[k]] as a column; the adjoint scatters the
    upstream gradient into a zero buffer with np.add.at."""
    index = (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))

    def backward(g):
        if a.constant:
            return
        if a._grad is None:
            a._grad = np.zeros_like(a.value)
        np.add.at(a._grad, index, g[:, 0])

    return a.tape._record(a.value[index].reshape(-1, 1), backward, a)


def triplet_hinge(d: Value, labels, margin: float) -> Value:
    """losses.triplet_hinge as a tape node whose adjoint is the upstream
    gradient times the counts."""
    total, counts = losses.triplet_hinge(d.value, labels, margin)
    return _unary(d, np.array([[total]]), lambda g: g[0, 0] * counts)


def l_trip_composed(g: Value, labels, margin: float) -> tuple[Value, int]:
    """losses.l_trip as the three nodes it used to record: the distances,
    their square roots and the hinge."""
    if np.unique(labels).size < 2:
        return g.tape.constant(np.zeros((1, 1)), "l_trip_zero"), 1
    return triplet_hinge(sqrt(pairwise_sqdist(g, g)), labels, margin), 0


def wd_composed(g_s: Value, g_t: Value, y_s_1h: np.ndarray, probs_t: Value) -> Value:
    """train._wd_loss as the nine nodes it used to record: the two distance
    matrices, the labels as a constant, the matched entries of each, their
    sums, the add and the scale by 1/n."""
    feat = pairwise_sqdist(g_s, g_t)
    label = pairwise_sqdist(g_s.tape.constant(y_s_1h, "y_s"), probs_t)
    cols, _ = optimal_assignment(feat.value + label.value)
    rows = np.arange(cols.shape[0])
    matched = add(sum_all(take_entries(feat, rows, cols)), sum_all(take_entries(label, rows, cols)))
    return scale(matched, 1.0 / rows.shape[0])


def dense_composed(x: Value, w: Value, b: Value, act: str | None = None) -> Value:
    """model.dense as the nodes it replaces: the product, the row-vector add
    and, for act "leaky" or "softmax", the activation."""
    z = add_rowvec(matmul(x, w), b)
    if act == "leaky":
        return leaky_relu(z)
    return softmax_rows(z) if act == "softmax" else z


def forward_g_composed(leaves: dict, x_s: Value, x_t: Value) -> tuple[Value, Value]:
    """model.forward_g as the ten nodes it used to record, in their order:
    both batches' products of W1, each batch's row-vector add and leaky
    ReLU, both batches' products of W2, then each batch's add of b2."""
    z_s, z_t = matmul(x_s, leaves["w1"]), matmul(x_t, leaves["w1"])
    h_s, h_t = (leaky_relu(add_rowvec(z, leaves["b1"])) for z in (z_s, z_t))
    z_s, z_t = matmul(h_s, leaves["w2"]), matmul(h_t, leaves["w2"])
    return add_rowvec(z_s, leaves["b2"]), add_rowvec(z_t, leaves["b2"])


def centered_gram(av: Value, bv: Value, spec: KernelSpec) -> Value:
    """One node holding H_n K_ab H_m; its adjoint goes straight into a and b
    (centering is symmetric, so it centers the upstream gradient first)."""
    a, b = av.value, bv.value
    k = _gram(a, b, spec)

    def backward(g):
        da, db = _gram_adjoint(a, b, k, spec, _centered(g))
        _accumulate(av, da, owned=True)
        _accumulate(bv, db, owned=True)

    return _join(av, bv)._record(_centered(k), backward, av, bv)


def bures_combine(av: Value, bv: Value, coupling: Value, spec: KernelSpec) -> Value:
    """max((1/n) tr(H K_aa H) + (1/m) tr(H K_bb H) - 2/sqrt(nm) coupling, 0) as
    one node; gradient passes only while the value is above 0."""
    a, b = av.value, bv.value
    k_aa, k_bb = _gram(a, a, spec), _gram(b, b, spec)
    weight = 2.0 / np.sqrt(a.shape[0] * b.shape[0])
    dist_sq = _self_term(k_aa) + _self_term(k_bb) - weight * coupling.item()

    def backward(g):
        if dist_sq <= 0.0:
            return
        if not av.constant:
            _accumulate(av, _self_term_grad(a, k_aa, spec, g[0, 0]), owned=True)
        if not bv.constant:
            _accumulate(bv, _self_term_grad(b, k_bb, spec, g[0, 0]), owned=True)
        _accumulate(coupling, g * -weight, owned=True)

    return av.tape._record(np.array([[max(dist_sq, 0.0)]]), backward, av, bv, coupling)


def kbw_sq_composed(av: Value, bv: Value, spec: KernelSpec) -> Value:
    """kernels.kbw_sq as the three nodes it used to record: the centered
    cross-Gram matrix, its nuclear norm and the rest."""
    if spec.kind == GAUSSIAN and spec.bandwidth_sq is None:
        pooled = np.vstack([av.value, bv.value])
        spec = KernelSpec(GAUSSIAN, gaussian_bandwidth(pooled, pooled))
    return bures_combine(av, bv, nuclear_norm(centered_gram(av, bv, spec)), spec)


def total_objective_composed(cls_term: Value, da_term: Value | None, con_term: Value | None,
                             lambda1: float, lambda2: float) -> Value:
    """losses.total_objective as the scales and adds it used to record."""
    total = cls_term
    if da_term is not None:
        total = total + scale(da_term, lambda1)
    if con_term is not None:
        total = total + scale(con_term, lambda2)
    return total


def triplet_hinge_lexsort(d: np.ndarray, labels, margin: float) -> tuple[float, np.ndarray]:
    """losses.triplet_hinge with its thresholds found from one ulp above
    d_ij + margin and each anchor row ordered by a two-key lexsort: the float
    keys first, then ~same, so a threshold sorts before an equal distance."""
    n = d.shape[0]
    labels = np.asarray(labels)
    margin = float(margin)
    same = labels[:, None] == labels
    pos = d[same]
    t = np.nextafter(pos + margin, np.inf)   # above pos + margin, so inactive
    while True:
        below = np.nextafter(t, -np.inf)
        down = (pos - below) + margin <= 0.0
        if not down.any():
            break
        t = np.where(down, below, t)
    keys = d.copy()
    keys[same] = t
    np.fill_diagonal(keys, -np.inf)   # j == i: no negative lies below it
    order = np.lexsort((~same, keys), axis=1)
    is_neg = labels[order] != labels[:, None]
    negs_before = np.cumsum(is_neg, axis=1)
    thresholds_after = np.count_nonzero(same, axis=1)[:, None] - np.arange(1, n + 1) + negs_before
    counts = np.empty((n, n))
    np.put_along_axis(counts, order, np.where(is_neg, -thresholds_after, negs_before), axis=1)
    return np.vdot(counts, d) + margin * (np.abs(counts).sum() / 2), counts
