"""Reverse-mode automatic differentiation over dense float64 matrices.

A Tape records every Value in creation order. backward(root) seeds the root
gradient with ones and replays the stored adjoint rules in exact reverse
creation order, accumulating into each Value's grad. There is no graph
pruning and no topological sort: reverse tape order is already a valid
evaluation order, and it keeps replays bitwise deterministic.

Grad buffers are lazy: a node has none until the first adjoint reaches it,
the first write stores 0.0 + delta (so -0.0 becomes +0.0, as in a
zero-filled buffer), and backward skips every node without one. .grad
reads as a zero matrix while there is none. Data goes on the tape as constants
(Tape.constant): they take no gradient, an op whose operands are all
constants records a constant, and no adjoint is computed for a constant
operand, so training spends nothing on the gradient of its inputs. A leaf
made with copy=False wraps the caller's array; the model's parameter leaves
alias its tensors that way.

backward consumes its tape. Once the reverse pass ends, every node drops its
adjoint rule and the tape drops its node list, so no reference cycle is left
and the tape is freed by reference counting as soon as the caller lets go of
it; values and grads stay readable. A second backward on the same tape
raises InputError. Inference needs no tape at all: model.forward_probs
repeats the tape ops' forward arithmetic on plain arrays (it shares
softmax_rows_array with softmax_rows), so it gives the same bits.
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

    __slots__ = ("value", "_grad", "constant", "tape", "_backward")

    def __init__(self, value: np.ndarray, tape: "Tape", constant: bool = False):
        self.value = value
        self._grad: np.ndarray | None = None  # made by the first adjoint that reaches it
        self.constant = constant
        self.tape = tape
        # the op that records this node sets it; its closure holds the operands
        self._backward: Callable[[], None] | None = None

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient; a zero matrix when none has reached the node."""
        return np.zeros_like(self.value) if self._grad is None else self._grad

    @grad.setter
    def grad(self, g: np.ndarray) -> None:
        self._grad = g

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

    @property
    def T(self) -> "Value":
        return transpose(self)

    def __matmul__(self, other: "Value") -> "Value":
        return matmul(self, other)

    def __add__(self, other: "Value") -> "Value":
        return add(self, other)

    def __sub__(self, other: "Value") -> "Value":
        return sub(self, other)

    def __mul__(self, other) -> "Value":
        if isinstance(other, Value):
            return hadamard(self, other)
        return scale(self, float(other))

    def __repr__(self) -> str:
        return f"Value(shape={self.shape})"


class Tape:
    """Append-only record of Values; owns backward traversal."""

    def __init__(self):
        self._nodes: list[Value] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, x, name: str = "leaf", *, copy: bool = True) -> Value:
        """Record an input matrix. Gradients accumulate into leaf.grad.

        With copy=False a 2-D float64 array is wrapped as it is, unchecked:
        the caller vouches that it is finite and leaves it unchanged until
        backward has run.
        """
        node = Value(as_matrix(x, name) if copy else x, self)
        self._nodes.append(node)
        return node

    def constant(self, x, name: str = "constant") -> Value:
        """Record an input matrix that takes no gradient; its grad reads zeros."""
        node = Value(as_matrix(x, name), self, constant=True)
        self._nodes.append(node)
        return node

    def _record(self, value: np.ndarray, *operands: Value) -> Value:
        node = Value(value, self, constant=all(v.constant for v in operands))
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
        root._grad = root.grad + np.ones_like(root.value)
        try:
            for node in reversed(self._nodes):
                if node._backward is not None and node._grad is not None and node._grad.any():
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


def _accumulate(node: Value, delta: np.ndarray, owned: bool = False) -> None:
    """node.grad += delta; a constant takes nothing.

    The first write stores 0.0 + delta: the bits of a zero-filled buffer
    plus delta, signed zeros included. owned says that delta is a temporary
    of the caller's, which then becomes the buffer.
    """
    if node.constant:
        return
    if node._grad is None:
        node._grad = np.add(delta, 0.0, out=delta if owned else None)
    else:
        node._grad += delta


# ---------------------------------------------------------------------------
# operations


def matmul(a: Value, b: Value) -> Value:
    """Matrix product. Adjoints: dA = g B^T, dB = A^T g."""
    tape = _join(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = tape._record(a.value @ b.value, a, b)

    def backward():
        if not a.constant:
            _accumulate(a, out._grad @ b.value.T, owned=True)
        if not b.constant:
            _accumulate(b, a.value.T @ out._grad, owned=True)

    out._backward = backward
    return out


def _require_same_shape(op: str, a: Value, b: Value) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes differ, {a.shape} vs {b.shape}")


def add(a: Value, b: Value) -> Value:
    tape = _join(a, b)
    _require_same_shape("add", a, b)
    out = tape._record(a.value + b.value, a, b)

    def backward():
        _accumulate(a, out._grad)
        _accumulate(b, out._grad)

    out._backward = backward
    return out


def sub(a: Value, b: Value) -> Value:
    tape = _join(a, b)
    _require_same_shape("sub", a, b)
    out = tape._record(a.value - b.value, a, b)

    def backward():
        _accumulate(a, out._grad)
        if not b.constant:  # x + (-g) rounds as x - g
            _accumulate(b, -out._grad, owned=True)

    out._backward = backward
    return out


def scale(a: Value, s: float) -> Value:
    """Multiply every entry by the constant s."""
    s = float(s)
    out = a.tape._record(a.value * s, a)

    def backward():
        _accumulate(a, out._grad * s, owned=True)

    out._backward = backward
    return out


def hadamard(a: Value, b: Value) -> Value:
    """Elementwise product."""
    tape = _join(a, b)
    _require_same_shape("hadamard", a, b)
    out = tape._record(a.value * b.value, a, b)

    def backward():
        if not a.constant:
            _accumulate(a, out._grad * b.value, owned=True)
        if not b.constant:
            _accumulate(b, out._grad * a.value, owned=True)

    out._backward = backward
    return out


def exp(a: Value) -> Value:
    out = a.tape._record(np.exp(a.value), a)

    def backward():
        _accumulate(a, out._grad * out.value, owned=True)

    out._backward = backward
    return out


def log(a: Value) -> Value:
    """Natural log; every entry must be strictly positive."""
    if a.value.size and np.min(a.value) <= 0.0:
        i, j = np.argwhere(a.value <= 0.0)[0]
        raise DomainError(f"log: nonpositive entry {a.value[i, j]!r} at ({i}, {j})")
    out = a.tape._record(np.log(a.value), a)

    def backward():
        _accumulate(a, out._grad / a.value, owned=True)

    out._backward = backward
    return out


def sqrt(a: Value) -> Value:
    """Elementwise square root; zero entries get subgradient 0."""
    if a.value.size and np.min(a.value) < 0.0:
        i, j = np.argwhere(a.value < 0.0)[0]
        raise DomainError(f"sqrt: negative entry {a.value[i, j]!r} at ({i}, {j})")
    root = np.sqrt(a.value)
    out = a.tape._record(root, a)

    def backward():
        with np.errstate(divide="ignore"):
            factor = np.where(a.value > 0.0, 0.5 / root, 0.0)
        _accumulate(a, out._grad * factor, owned=True)

    out._backward = backward
    return out


def clamp_min(a: Value, floor: float) -> Value:
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    floor = float(floor)
    out = a.tape._record(np.maximum(a.value, floor), a)

    def backward():
        _accumulate(a, out._grad * (a.value > floor), owned=True)

    out._backward = backward
    return out


def leaky_relu(a: Value, slope: float = 0.01) -> Value:
    """x for x > 0, slope * x otherwise."""
    slope = float(slope)
    out = a.tape._record(np.where(a.value > 0.0, a.value, slope * a.value), a)

    def backward():
        _accumulate(a, out._grad * np.where(a.value > 0.0, 1.0, slope), owned=True)

    out._backward = backward
    return out


def softmax_rows_array(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array, with the usual max-shift for stability."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows(a: Value) -> Value:
    """Row-wise softmax, computed with the usual max-shift for stability."""
    s = softmax_rows_array(a.value)
    out = a.tape._record(s, a)

    def backward():
        # ds_ij/da_ik = s_ij (delta_jk - s_ik)
        inner = (out._grad * s).sum(axis=1, keepdims=True)
        _accumulate(a, s * (out._grad - inner), owned=True)

    out._backward = backward
    return out


def sum_all(a: Value) -> Value:
    """Sum of all entries, as a 1x1 matrix."""
    out = a.tape._record(np.array([[a.value.sum()]]), a)

    def backward():
        _accumulate(a, np.full(a.shape, out._grad[0, 0]), owned=True)

    out._backward = backward
    return out


def trace(a: Value) -> Value:
    """Trace of a square matrix, as a 1x1 matrix."""
    n, m = a.shape
    if n != m:
        raise DimensionError(f"trace: matrix must be square, got {a.shape}")
    out = a.tape._record(np.array([[np.trace(a.value)]]), a)

    def backward():
        _accumulate(a, out._grad[0, 0] * np.eye(n), owned=True)

    out._backward = backward
    return out


def transpose(a: Value) -> Value:
    out = a.tape._record(a.value.T.copy(), a)

    def backward():
        _accumulate(a, out._grad.T)

    out._backward = backward
    return out


def take(a: Value, rows, cols=None) -> Value:
    """The rows a[rows], or with cols the entries a[rows[k], cols[k]] as a column.

    The indices are constants. The adjoint scatters the upstream gradient
    back with np.add.at, so a repeated index accumulates every pick.
    """
    rows = np.asarray(rows, dtype=np.intp)
    index = rows if cols is None else (rows, np.asarray(cols, dtype=np.intp))
    if rows.ndim != 1 or (cols is not None and index[1].shape != rows.shape):
        raise DimensionError(f"take: expected one 1-D index array per axis, got rows "
                             f"{rows.shape} and cols {None if cols is None else index[1].shape}")
    picked = a.value[index]
    out = a.tape._record(picked if cols is None else picked.reshape(-1, 1), a)

    def backward():
        if a.constant:
            return
        if a._grad is None:
            a._grad = np.zeros_like(a.value)
        np.add.at(a._grad, index, out._grad if cols is None else out._grad[:, 0])

    out._backward = backward
    return out


def _centered(x: np.ndarray) -> np.ndarray:
    x = x - x.mean(axis=0, keepdims=True)
    return x - x.mean(axis=1, keepdims=True)


def center(a: Value) -> Value:
    """H_n a H_m for the n x m matrix a, H_k = I - (1/k) 1 1^T, in O(nm).

    Subtracts the column means, then the row means of what is left. The
    centering matrices are symmetric, so the op is its own adjoint.
    """
    out = a.tape._record(_centered(a.value), a)

    def backward():
        _accumulate(a, _centered(out._grad), owned=True)

    out._backward = backward
    return out


def add_rowvec(a: Value, b: Value) -> Value:
    """Add the 1 x m row vector b to every row of the n x m matrix a."""
    tape = _join(a, b)
    if b.shape[0] != 1 or b.shape[1] != a.shape[1]:
        raise DimensionError(f"add_rowvec: expected (1, {a.shape[1]}) row, got {b.shape}")
    out = tape._record(a.value + b.value, a, b)

    def backward():
        _accumulate(a, out._grad)
        if not b.constant:
            _accumulate(b, out._grad.sum(axis=0, keepdims=True), owned=True)

    out._backward = backward
    return out


def vstack(a: Value, b: Value) -> Value:
    """Stack rows of a on top of rows of b."""
    tape = _join(a, b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"vstack: column counts differ, {a.shape} vs {b.shape}")
    n = a.shape[0]
    out = tape._record(np.vstack([a.value, b.value]), a, b)

    def backward():
        _accumulate(a, out._grad[:n])
        _accumulate(b, out._grad[n:])

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
    out = tape._record(sq, a, b)

    def backward():
        g = out._grad
        if not a.constant:
            _accumulate(a, 2.0 * (g.sum(axis=1, keepdims=True) * av - g @ bv), owned=True)
        if not b.constant:
            _accumulate(b, 2.0 * (g.sum(axis=0)[:, None] * bv - g.T @ av), owned=True)

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
    out = d.tape._record(np.array([[total]]), d)

    def backward():
        _accumulate(d, out._grad[0, 0] * counts, owned=True)

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
    out = a.tape._record(np.array([[s.sum()]]), a)

    def backward():
        if s.size == 0 or s[0] <= 0.0:
            return  # zero matrix: subgradient 0
        keep = s > EPS_RANK * s[0]
        _accumulate(a, out._grad[0, 0] * (u[:, keep] @ vt[keep, :]), owned=True)

    out._backward = backward
    return out
