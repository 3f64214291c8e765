"""Tape ops that training does not record, with autodiff's former values and
adjoints, for the tests' composed oracles (kbw_sq_reference,
l_dmc_with_masks, l_cls_reference, and l_trip_composed and wd_composed
below) and tape checks, and the former lexsort formulation of
losses.triplet_hinge, a bitwise oracle for the packed-key one."""
import numpy as np

from bjda import losses
from bjda.autodiff import Value, _accumulate, _join, add, pairwise_sqdist_matrix, scale
from bjda.errors import DimensionError, DomainError
from bjda.kernels import optimal_assignment


def _unary(a: Value, value: np.ndarray, adjoint) -> Value:
    """A node holding value whose adjoint accumulates the temporary adjoint(g) into a."""
    return a.tape._record(value, lambda g: _accumulate(a, adjoint(g), owned=True), a)


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
