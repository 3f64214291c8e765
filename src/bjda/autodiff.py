"""Reverse-mode automatic differentiation over dense float64 matrices.

A Tape records every Value in creation order. backward(root) seeds the root
gradient with ones and replays the stored adjoint rules in exact reverse
creation order, accumulating into each Value's grad. There is no graph
pruning and no topological sort: reverse tape order is already a valid
evaluation order, and it keeps replays bitwise deterministic.

backward consumes its tape. Once the reverse pass ends, every node drops its
adjoint rule and the tape drops its node list, so no reference cycle is left
and the tape is freed by reference counting as soon as the caller lets go of
it; values and grads stay readable. A second backward on the same tape
raises InputError. Inference needs no tape at all: the array-level helpers
(leaky_relu_array, softmax_rows_array) are the forward rules the tape ops
use, so a plain-array forward pass gives the same bits.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, InputError, NumericalError

# Singular values at or below EPS_RANK * sigma_max are treated as zero when
# forming the nuclear-norm subgradient U_r V_r^T.
EPS_RANK = 1e-8


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array; 1-D input becomes a row vector."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise InputError(f"{name}: non-finite entry at ({i}, {j})")
    return arr


class Value:
    """One tape node: a matrix, its gradient accumulator, and its adjoint rule."""

    __slots__ = ("value", "grad", "tape", "_backward")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.grad = np.zeros_like(value)
        self.tape = tape
        # the op that records this node sets it; its closure holds the operands
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise DimensionError(f"item: expected a 1x1 value, got {self.shape}")
        return float(self.value[0, 0])

    # -- method/operator sugar over the module-level ops --------------------

    def exp(self) -> "Value":
        return exp(self)

    def log(self) -> "Value":
        return log(self)

    def sqrt(self) -> "Value":
        return sqrt(self)

    def sum(self) -> "Value":
        return sum_all(self)

    def trace(self) -> "Value":
        return trace(self)

    def transpose(self) -> "Value":
        return transpose(self)

    @property
    def T(self) -> "Value":
        return transpose(self)

    def __matmul__(self, other: "Value") -> "Value":
        return matmul(self, other)

    def __add__(self, other) -> "Value":
        if isinstance(other, Value):
            return add(self, other)
        return add_scalar(self, float(other))

    def __radd__(self, other) -> "Value":
        return add_scalar(self, float(other))

    def __sub__(self, other: "Value") -> "Value":
        return sub(self, other)

    def __mul__(self, other) -> "Value":
        if isinstance(other, Value):
            return hadamard(self, other)
        return scale(self, float(other))

    def __rmul__(self, other) -> "Value":
        return scale(self, float(other))

    def __neg__(self) -> "Value":
        return scale(self, -1.0)

    def __repr__(self) -> str:
        return f"Value(shape={self.shape})"


class Tape:
    """Append-only record of Values; owns backward traversal."""

    def __init__(self):
        self._nodes: list[Value] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, x, name: str = "leaf") -> Value:
        """Record an input matrix. Gradients accumulate into leaf.grad."""
        node = Value(as_matrix(x, name), self)
        self._nodes.append(node)
        return node

    def _record(self, value: np.ndarray) -> Value:
        node = Value(value, self)
        self._nodes.append(node)
        return node

    def backward(self, root: Value) -> None:
        """Seed root.grad with ones and run adjoints in reverse creation order.

        Consumes the tape: afterwards every node has lost its adjoint rule, the
        tape holds no nodes, and a second call raises InputError.
        """
        if root.tape is not self:
            raise InputError("backward: root value belongs to a different tape")
        if self._consumed:
            raise InputError("backward: this tape was already consumed by an earlier backward")
        self._consumed = True
        root.grad = root.grad + np.ones_like(root.value)
        try:
            for node in reversed(self._nodes):
                if node._backward is not None and node.grad.any():
                    node._backward()
        finally:
            # each adjoint closure holds its own node, and the tape holds them all
            for node in self._nodes:
                node._backward = None
            self._nodes = []


def _join(a: Value, b: Value) -> Tape:
    if a.tape is not b.tape:
        raise InputError("operands belong to different tapes")
    return a.tape


# ---------------------------------------------------------------------------
# operations


def matmul(a: Value, b: Value) -> Value:
    """Matrix product. Adjoints: dA = g B^T, dB = A^T g."""
    tape = _join(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = tape._record(a.value @ b.value)

    def backward():
        a.grad += out.grad @ b.value.T
        b.grad += a.value.T @ out.grad

    out._backward = backward
    return out


def _require_same_shape(op: str, a: Value, b: Value) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes differ, {a.shape} vs {b.shape}")


def add(a: Value, b: Value) -> Value:
    tape = _join(a, b)
    _require_same_shape("add", a, b)
    out = tape._record(a.value + b.value)

    def backward():
        a.grad += out.grad
        b.grad += out.grad

    out._backward = backward
    return out


def sub(a: Value, b: Value) -> Value:
    tape = _join(a, b)
    _require_same_shape("sub", a, b)
    out = tape._record(a.value - b.value)

    def backward():
        a.grad += out.grad
        b.grad -= out.grad

    out._backward = backward
    return out


def scale(a: Value, s: float) -> Value:
    """Multiply every entry by the constant s."""
    s = float(s)
    out = a.tape._record(a.value * s)

    def backward():
        a.grad += out.grad * s

    out._backward = backward
    return out


def add_scalar(a: Value, c: float) -> Value:
    """Add the constant c to every entry."""
    c = float(c)
    out = a.tape._record(a.value + c)

    def backward():
        a.grad += out.grad

    out._backward = backward
    return out


def hadamard(a: Value, b: Value) -> Value:
    """Elementwise product."""
    tape = _join(a, b)
    _require_same_shape("hadamard", a, b)
    out = tape._record(a.value * b.value)

    def backward():
        a.grad += out.grad * b.value
        b.grad += out.grad * a.value

    out._backward = backward
    return out


def exp(a: Value) -> Value:
    out = a.tape._record(np.exp(a.value))

    def backward():
        a.grad += out.grad * out.value

    out._backward = backward
    return out


def log(a: Value) -> Value:
    """Natural log; every entry must be strictly positive."""
    if a.value.size and np.min(a.value) <= 0.0:
        i, j = np.argwhere(a.value <= 0.0)[0]
        raise DomainError(f"log: nonpositive entry {a.value[i, j]!r} at ({i}, {j})")
    out = a.tape._record(np.log(a.value))

    def backward():
        a.grad += out.grad / a.value

    out._backward = backward
    return out


def sqrt(a: Value) -> Value:
    """Elementwise square root; zero entries get subgradient 0."""
    if a.value.size and np.min(a.value) < 0.0:
        i, j = np.argwhere(a.value < 0.0)[0]
        raise DomainError(f"sqrt: negative entry {a.value[i, j]!r} at ({i}, {j})")
    root = np.sqrt(a.value)
    out = a.tape._record(root)

    def backward():
        with np.errstate(divide="ignore"):
            factor = np.where(a.value > 0.0, 0.5 / root, 0.0)
        a.grad += out.grad * factor

    out._backward = backward
    return out


def clamp_min(a: Value, floor: float) -> Value:
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    floor = float(floor)
    out = a.tape._record(np.maximum(a.value, floor))

    def backward():
        a.grad += out.grad * (a.value > floor)

    out._backward = backward
    return out


def leaky_relu_array(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """x for x > 0, slope * x otherwise, on a plain array."""
    return np.where(x > 0.0, x, float(slope) * x)


def leaky_relu(a: Value, slope: float = 0.01) -> Value:
    """x for x > 0, slope * x otherwise."""
    slope = float(slope)
    out = a.tape._record(leaky_relu_array(a.value, slope))

    def backward():
        a.grad += out.grad * np.where(a.value > 0.0, 1.0, slope)

    out._backward = backward
    return out


def softmax_rows_array(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array, with the usual max-shift for stability."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows(a: Value) -> Value:
    """Row-wise softmax, computed with the usual max-shift for stability."""
    s = softmax_rows_array(a.value)
    out = a.tape._record(s)

    def backward():
        # ds_ij/da_ik = s_ij (delta_jk - s_ik)
        inner = (out.grad * s).sum(axis=1, keepdims=True)
        a.grad += s * (out.grad - inner)

    out._backward = backward
    return out


def sum_all(a: Value) -> Value:
    """Sum of all entries, as a 1x1 matrix."""
    out = a.tape._record(np.array([[a.value.sum()]]))

    def backward():
        a.grad += out.grad[0, 0]

    out._backward = backward
    return out


def trace(a: Value) -> Value:
    """Trace of a square matrix, as a 1x1 matrix."""
    n, m = a.shape
    if n != m:
        raise DimensionError(f"trace: matrix must be square, got {a.shape}")
    out = a.tape._record(np.array([[np.trace(a.value)]]))

    def backward():
        a.grad += out.grad[0, 0] * np.eye(n)

    out._backward = backward
    return out


def transpose(a: Value) -> Value:
    out = a.tape._record(a.value.T.copy())

    def backward():
        a.grad += out.grad.T

    out._backward = backward
    return out


def add_rowvec(a: Value, b: Value) -> Value:
    """Add the 1 x m row vector b to every row of the n x m matrix a."""
    tape = _join(a, b)
    if b.shape[0] != 1 or b.shape[1] != a.shape[1]:
        raise DimensionError(f"add_rowvec: expected (1, {a.shape[1]}) row, got {b.shape}")
    out = tape._record(a.value + b.value)

    def backward():
        a.grad += out.grad
        b.grad += out.grad.sum(axis=0, keepdims=True)

    out._backward = backward
    return out


def vstack(a: Value, b: Value) -> Value:
    """Stack rows of a on top of rows of b."""
    tape = _join(a, b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"vstack: column counts differ, {a.shape} vs {b.shape}")
    n = a.shape[0]
    out = tape._record(np.vstack([a.value, b.value]))

    def backward():
        a.grad += out.grad[:n]
        b.grad += out.grad[n:]

    out._backward = backward
    return out


def pairwise_sqdist(a: Value, b: Value) -> Value:
    """All squared Euclidean distances between rows of a and rows of b.

    out[i, j] = |a_i - b_j|^2, computed via the expansion
    |a_i|^2 + |b_j|^2 - 2 a_i . b_j and clamped at zero against round-off.
    """
    tape = _join(a, b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"pairwise_sqdist: row lengths differ, {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    sq = (av * av).sum(axis=1, keepdims=True) + (bv * bv).sum(axis=1) - 2.0 * (av @ bv.T)
    np.maximum(sq, 0.0, out=sq)
    out = tape._record(sq)

    def backward():
        g = out.grad
        a.grad += 2.0 * (g.sum(axis=1, keepdims=True) * av - g @ bv)
        b.grad += 2.0 * (g.sum(axis=0)[:, None] * bv - g.T @ av)

    out._backward = backward
    return out


def triplet_hinge(d: Value, labels, margin: float) -> Value:
    """Batch-all triplet hinge sum, as a 1x1 matrix.

    Sums max{d_ij - d_ik + margin, 0} over anchors i, same-class j != i and
    other-class k, reading anchor rows of the n x n matrix d. Each class is
    handled on its d[own, own] and d[own, other] blocks. A triple is active
    where (d_ij - d_ik) + margin > 0; the adjoint adds each entry's active
    count at d_ij and subtracts it at d_ik, times the upstream gradient.
    """
    n = d.shape[0]
    labels = np.asarray(labels)
    if d.shape != (n, n) or labels.shape != (n,):
        raise DimensionError(f"triplet_hinge: expected a square matrix and one label "
                             f"per row, got {d.shape} and {labels.shape}")
    margin = float(margin)
    total = 0.0
    counts = np.zeros((n, n))
    for c in np.unique(labels):
        own = np.flatnonzero(labels == c)
        other = np.flatnonzero(labels != c)
        rows = d.value[own]
        expr = (rows[:, own, None] - rows[:, None, other]) + margin
        active = expr > 0.0
        active[np.arange(own.size), np.arange(own.size)] = False   # j == i
        total += expr[active].sum()
        counts[np.ix_(own, own)] = active.sum(axis=2)
        counts[np.ix_(own, other)] = -active.sum(axis=1)
    out = d.tape._record(np.array([[total]]))

    def backward():
        d.grad += out.grad[0, 0] * counts

    out._backward = backward
    return out


def nuclear_norm(a: Value) -> Value:
    """Sum of singular values, as a 1x1 matrix.

    The adjoint uses the subgradient U_r V_r^T restricted to singular triplets
    with sigma > EPS_RANK * sigma_max. Repeated singular values get no special
    handling; the subgradient is still a valid element of the subdifferential.
    """
    try:
        u, s, vt = np.linalg.svd(a.value, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"nuclear_norm: SVD failed to converge for {a.shape} matrix "
            f"within the LAPACK iteration limit ({err})") from err
    out = a.tape._record(np.array([[s.sum()]]))

    def backward():
        if s.size == 0 or s[0] <= 0.0:
            return  # zero matrix: subgradient 0
        keep = s > EPS_RANK * s[0]
        a.grad += out.grad[0, 0] * (u[:, keep] @ vt[keep, :])

    out._backward = backward
    return out
