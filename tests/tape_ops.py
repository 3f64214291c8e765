"""Tape ops that training does not record, with autodiff's former values and
adjoints, for the tests' composed oracles (kbw_sq_reference,
l_dmc_with_masks, l_cls_reference) and tape checks, and autodiff's former
lexsort formulation of triplet_hinge, a bitwise oracle for the packed-key
one."""
import numpy as np

from bjda.autodiff import Value, _accumulate, _join
from bjda.errors import DimensionError, DomainError


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


def triplet_hinge_lexsort(d: Value, labels, margin: float) -> Value:
    """triplet_hinge with its thresholds found from one ulp above d_ij + margin
    and each anchor row ordered by a two-key lexsort: the float keys first,
    then ~same, so a threshold sorts before an equal distance."""
    n = d.shape[0]
    labels = np.asarray(labels)
    margin = float(margin)
    same = labels[:, None] == labels
    pos = d.value[same]
    t = np.nextafter(pos + margin, np.inf)   # above pos + margin, so inactive
    while True:
        below = np.nextafter(t, -np.inf)
        down = (pos - below) + margin <= 0.0
        if not down.any():
            break
        t = np.where(down, below, t)
    keys = d.value.copy()
    keys[same] = t
    np.fill_diagonal(keys, -np.inf)   # j == i: no negative lies below it
    order = np.lexsort((~same, keys), axis=1)
    is_neg = labels[order] != labels[:, None]
    negs_before = np.cumsum(is_neg, axis=1)
    thresholds_after = np.count_nonzero(same, axis=1)[:, None] - np.arange(1, n + 1) + negs_before
    counts = np.empty((n, n))
    np.put_along_axis(counts, order, np.where(is_neg, -thresholds_after, negs_before), axis=1)
    total = np.vdot(counts, d.value) + margin * (np.abs(counts).sum() / 2)
    return _unary(d, np.array([[total]]), lambda g: g[0, 0] * counts)
