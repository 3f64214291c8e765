"""Reverse-mode automatic differentiation over dense float64 matrices.

A Tape records every Value in creation order. Each op computes its value and
an adjoint rule backward(g), which takes the gradient g of the op's output
and accumulates into its operands; Tape._record stores both as one node.
backward(root) seeds the root gradient with ones and replays the rules in
exact reverse creation order, passing each node its own grad. There is no
graph pruning and no topological sort: reverse tape order is already a
valid evaluation order, and it keeps replays bitwise deterministic.

The ops here are the ones training records between its own nodes: add, the
row gather take and vstack. Every other node lives beside its arithmetic,
and its adjoint computes its operands' gradients directly on plain arrays:
model.dense (a layer or the head), kernels.kbw_sq (around nuclear_norm, a
plain-array function here), losses.l_cls, l_dmc, l_trip and
total_objective, and train's wd term. Each gives the bits of the composed
ops it stands for, by the zero-sign rule stated at _accumulate.

Grad buffers are lazy: a node has none until the first adjoint reaches it,
and backward skips every node without one. .grad reads as a zero matrix
while there is none. Data goes on the tape as constants (Tape.constant):
they take no gradient, an op whose operands are all constants records a
constant, and no adjoint is computed for a constant operand, so training
spends nothing on the gradient of its inputs. A leaf made with copy=False
wraps the caller's array; the model's parameter leaves alias its tensors
that way.

backward consumes its tape. When the reverse pass ends, the tape drops its
node list, so it is freed by reference counting once the caller lets go of
it, and every node drops its adjoint rule, whose closure holds the op's
operands, so a node the caller keeps does not hold the graph below it.
Values and grads stay readable. A second backward raises InputError.
Inference needs no tape at all: model.forward_probs repeats the layers'
forward arithmetic on plain arrays (it shares leaky_relu_array and
softmax_rows_array with them), so it gives the same bits.

A tape may carry a helper, a one-worker ThreadPoolExecutor that train opens
for a whole run or not at all. both() runs two independent whole
computations at once, the second on the helper, whenever it is given one.
The model's layers use it for the two batches' products of one weight and
for a layer's two adjoint products. Each result is the product the caller
would have computed alone, and adjoints still accumulate in tape order, so
a tape with a helper gives the same bits as one without.
"""
from __future__ import annotations

import os
from concurrent.futures import Executor
from typing import Callable

import numpy as np

from .errors import DimensionError, InputError, NumericalError

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
        # backward(g) of the op that made this node, set by Tape._record
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient; a zero matrix when none has reached the node."""
        return np.zeros_like(self.value) if self._grad is None else self._grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise DimensionError(f"item: expected a 1x1 value, got {self.shape}")
        return float(self.value[0, 0])

    def __add__(self, other: "Value") -> "Value":
        return add(self, other)

    def __repr__(self) -> str:
        return f"Value(shape={self.shape})"


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def both(helper: Executor | None, first: Callable, second: Callable) -> tuple:
    """(first(), second()). With a helper, second runs on it while the
    calling thread runs first; without, the caller runs first, then second.
    The helper's job has ended when this returns or raises."""
    if helper is None:
        return first(), second()
    pending = helper.submit(second)
    try:
        done = first()
    finally:
        pending.exception()  # waits; should first raise, its error is the one raised
    return done, pending.result()


class Tape:
    """Append-only record of Values; owns backward traversal. helper, when
    given, is the worker the nodes recorded on it hand work with both()."""

    def __init__(self, helper: Executor | None = None):
        self._nodes: list[Value] = []
        self._consumed = False
        self.helper = helper

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

    def _record(self, value: np.ndarray, backward: Callable[[np.ndarray], None],
                *operands: Value) -> Value:
        """Append an op's output node. backward(g) receives the node's gradient
        and accumulates the operands' adjoints; it runs once, during backward."""
        node = Value(value, self, constant=all(v.constant for v in operands))
        node._backward = backward
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
                if node._backward is not None and node._grad is not None:
                    node._backward(node._grad)
        finally:
            # each adjoint closure holds its operands: drop them, so that a
            # node the caller keeps does not keep the graph below it alive
            for node in self._nodes:
                node._backward = None
            self._nodes = []


def _join(a: Value, b: Value) -> Tape:
    if a.tape is not b.tape:
        raise InputError("operands belong to different tapes")
    return a.tape


def _accumulate(node: Value, delta: np.ndarray, owned: bool = False) -> None:
    """node.grad += delta; a constant takes nothing. owned says that delta is
    a temporary of the caller's, which then becomes the buffer.

    The zero-sign rule: the first write stores 0.0 + delta, so no grad buffer
    holds -0.0, and adding -0.0 to +0.0 gives +0.0. No adjoint divides by or
    branches on a gradient, so a zero's sign inside an adjoint never reaches
    a grad byte: an adjoint computes its gradients directly and still gives
    the bits of the composed ops it replaces, whatever zeros they added.
    """
    if node.constant:
        return
    if node._grad is None:
        node._grad = np.add(delta, 0.0, out=delta if owned else None)
    else:
        node._grad += delta


# ---------------------------------------------------------------------------
# operations: each records its value and backward(g) with tape._record


def add(a: Value, b: Value) -> Value:
    tape = _join(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return tape._record(a.value + b.value, backward, a, b)


def leaky_relu_array(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """x for x > 0, slope * x otherwise, as max(x, slope * x) with no masked
    select, written into out, or else into slope * x's buffer. For +0.0 <=
    slope <= 1 this is the select's value bit for bit, signed zeros
    included: slope * x has x's sign and lies between 0 and x."""
    sx = np.multiply(x, slope)
    return np.maximum(x, sx, out=sx if out is None else out)


def softmax_rows_array(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array, with the usual max-shift for stability."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pairwise_sqdist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All squared Euclidean distances between rows of a and rows of b,
    |a_i|^2 + |b_j|^2 - 2 a_i . b_j, clamped at zero against round-off."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"pairwise_sqdist: row lengths differ, {a.shape} vs {b.shape}")
    sq = (a * a).sum(axis=1, keepdims=True) + (b * b).sum(axis=1) - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def take(a: Value, rows) -> Value:
    """The rows a[rows]. The indices are constants. The adjoint scatters the
    upstream gradient back with np.add.at, so a repeated row accumulates
    every pick.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1:
        raise DimensionError(f"take: expected a 1-D row index, got shape {rows.shape}")

    def backward(g):
        if a.constant:
            return
        if a._grad is None:
            a._grad = np.zeros_like(a.value)
        np.add.at(a._grad, rows, g)

    return a.tape._record(a.value[rows], backward, a)


def vstack(a: Value, b: Value) -> Value:
    """Stack rows of a on top of rows of b."""
    tape = _join(a, b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"vstack: column counts differ, {a.shape} vs {b.shape}")
    n = a.shape[0]

    def backward(g):
        _accumulate(a, g[:n])
        _accumulate(b, g[n:])

    return tape._record(np.vstack([a.value, b.value]), backward, a, b)


def nuclear_norm(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The sum of a's singular values, with the factors u, s, vt of its thin
    SVD, from which a caller forms a subgradient. A LAPACK failure to
    converge raises NumericalError."""
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"nuclear_norm: SVD failed to converge for {a.shape} matrix "
            f"within the LAPACK iteration limit ({err})") from err
    return s.sum(), u, s, vt
