"""Kernels and the distribution distances built on them.

Three distances live here:

* kbw_sq       kernel Bures-Wasserstein squared distance between two samples,
               differentiable through the tape (the training objective's
               alignment term is built from it),
* closed_form_bures
               the classical Bures metric between covariance matrices,
               computed by symmetric eigendecomposition (used as an
               independent oracle for the linear-kernel case),
* exact_wasserstein_sq
               exact squared Wasserstein cost between equal-size uniform
               samples, solved as a minimum-cost assignment.

Importing this module loads numpy alone: optimal_assignment, bjda's one user
of scipy, imports scipy's solver when a process first calls it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Value, as_matrix, pairwise_sqdist_matrix
from .errors import ConfigError, DimensionError, InputError

GAUSSIAN = "gaussian"
LINEAR = "linear"
KERNEL_KINDS = (GAUSSIAN, LINEAR)

# Singular values at or below EPS_RANK * sigma_max are treated as zero when
# kbw_sq forms the nuclear-norm subgradient U_r V_r^T.
EPS_RANK = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus an optional fixed Gaussian bandwidth.

    bandwidth_sq is sigma^2 in k(x, y) = exp(-|x - y|^2 / sigma^2). When None,
    the bandwidth comes from the mean-distance heuristic, gaussian_bandwidth:
    kbw_sq takes it once over the pooled rows of both samples and uses it for
    all three of its Gram matrices (one kernel, one RKHS). The linear kernel
    takes no bandwidth_sq.
    """
    kind: str = GAUSSIAN
    bandwidth_sq: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.bandwidth_sq is not None:
            bw = float(self.bandwidth_sq)
            if self.kind == LINEAR:
                raise ConfigError(f"the linear kernel takes no bandwidth_sq, got {bw!r}")
            if not np.isfinite(bw) or bw <= 0.0:
                raise ConfigError(f"bandwidth_sq must be finite and > 0, got {self.bandwidth_sq!r}")
            object.__setattr__(self, "bandwidth_sq", bw)


def gaussian_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared Euclidean distance over all pairs (a_i, b_j); 1.0 if that is zero.

    Computed without the n x m distance matrix, in O((n + m) d): with mu_a and
    mu_b the row means, the mean of |a_i - b_j|^2 is

        (1/n) sum_i |a_i - mu_a|^2 + (1/m) sum_j |b_j - mu_b|^2 + |mu_a - mu_b|^2.

    Returned as a plain scalar: the bandwidth is held fixed (not
    differentiated through) wherever the kernel itself is differentiated.
    When b is a, as kbw_sq's pooled rows are, the rows are read and their
    spread taken once: the gap is exactly 0, so the mean is the spread
    doubled, the same bits the two-sided sum gives.
    """
    same = b is a
    a = as_matrix(a, "a")
    b = a if same else as_matrix(b, "b")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InputError("gaussian_bandwidth: need at least one row on each side")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"gaussian_bandwidth: row lengths differ, {a.shape} vs {b.shape}")
    # measured from one row, so that identical rows give exactly 0 and the fallback
    shift = a[0].copy()
    a -= shift
    mu_a = a.mean(axis=0)
    dev_a = a - mu_a
    spread_a = np.vdot(dev_a, dev_a) / a.shape[0]
    if same:
        mean = float(spread_a + spread_a)
    else:
        b -= shift
        mu_b = b.mean(axis=0)
        dev_b = b - mu_b
        gap = mu_a - mu_b
        mean = float(spread_a + np.vdot(dev_b, dev_b) / b.shape[0] + np.vdot(gap, gap))
    return mean if mean > 0.0 else 1.0


def _centered(x: np.ndarray) -> np.ndarray:
    """H_n x H_m for the n x m matrix x, H_k = I - (1/k) 1 1^T, in O(nm):
    the column means come off, then the row means of what is left."""
    x = x - x.mean(axis=0, keepdims=True)
    return x - x.mean(axis=1, keepdims=True)


def _gram(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """K[i, j] = k(a_i, b_j) for a spec whose Gaussian bandwidth is fixed."""
    if spec.kind == LINEAR:
        return a @ b.T
    return np.exp(pairwise_sqdist_matrix(a, b) * (-1.0 / spec.bandwidth_sq))


def _gram_adjoint(a: np.ndarray, b: np.ndarray, k: np.ndarray, spec: KernelSpec,
                  dk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients in a and in b of <dk, K> for K = _gram(a, b, spec).

    Gaussian: the chain through exp and pairwise_sqdist's adjoint, with
    D = dk * K * (-1/sigma^2): 2 (rowsum(D) a - D b) and 2 (colsum(D) b - D^T a).
    """
    if spec.kind == LINEAR:
        return dk @ b, dk.T @ a
    dd = dk * k
    dd *= -1.0 / spec.bandwidth_sq
    return (2.0 * (dd.sum(axis=1, keepdims=True) * a - dd @ b),
            2.0 * (dd.sum(axis=0)[:, None] * b - dd.T @ a))


def _self_term(k: np.ndarray) -> float:
    """(1/r) tr(H K H) for an r x r Gram matrix K: tr(H K H) = tr K - 1^T K 1 / r."""
    r = k.shape[0]
    return (np.trace(k) - k.sum() / r) / r


def _self_term_grad(x: np.ndarray, k: np.ndarray, spec: KernelSpec, coef: float) -> np.ndarray:
    """Gradient in x of coef * _self_term(K) for K = _gram(x, x, spec).

    The gradient in K is coef * H / r. x sits on both sides of K, and K and H
    are symmetric, so the two sides' shares of _gram_adjoint are equal.
    """
    r = x.shape[0]
    if spec.kind == LINEAR:   # d/dx tr(H x x^T) = 2 H x
        return (2.0 * coef / r) * (x - x.mean(axis=0))
    # (coef / r) (H o K) (-1/sigma^2), with -1/r for H: its diagonal adds
    # nothing, because k(x_i, x_i) does not move with x_i
    dd = k * (coef / (r * r * spec.bandwidth_sq))
    return 4.0 * (dd.sum(axis=1, keepdims=True) * x - dd @ x)


def kbw_sq(a, b, spec: KernelSpec = KernelSpec(),
           tape: Tape | None = None) -> Value:
    """Squared kernel Bures-Wasserstein distance between two samples.

    With n rows of a and m rows of b, and H_k = I - (1/k) 1 1^T the
    centering matrix of size k:

        (1/n) tr(H_n K_aa H_n) + (1/m) tr(H_m K_bb H_m)
        - (2 / sqrt(n m)) |H_n K_ab H_m|_*

    clamped at zero, as one tape node. It holds the centered cross-Gram
    matrix H_n K_ab H_m and its autodiff.nuclear_norm, with the SVD
    factors, and takes each self term as (tr K - 1^T K 1 / r) / r, with the
    closed-form gradient H / r in K. This is the distance between two
    covariance operators only when K_aa, K_bb and K_ab come from one kernel,
    so a Gaussian kernel without a fixed bandwidth gets one
    gaussian_bandwidth over the pooled rows of a and b.

    The adjoint passes gradient only while the value is above 0. It adds
    the self terms' gradients into a and then b, then the cross term's: the
    nuclear norm's subgradient U_r V_r^T (Ionescu et al., ICCV 2015) over
    the singular triplets with sigma > EPS_RANK * sigma_max, centered
    (centering is symmetric) and taken through the cross-Gram into a and b.
    Repeated singular values get no special handling; the subgradient is
    still a valid element of the subdifferential. A plain-array sample goes
    on the tape as a constant.
    """
    if tape is None:
        tape = a.tape if isinstance(a, Value) else (b.tape if isinstance(b, Value) else Tape())
    av = a if isinstance(a, Value) else tape.constant(a, "a")
    bv = b if isinstance(b, Value) else tape.constant(b, "b")
    n, m = av.shape[0], bv.shape[0]
    if n < 2 or m < 2:
        raise InputError(f"kbw_sq: need at least 2 rows per sample, got n={n}, m={m}")
    if av.shape[1] != bv.shape[1]:
        raise DimensionError(f"kbw_sq: feature dims differ, {av.shape} vs {bv.shape}")
    ad._join(av, bv)

    x, y = av.value, bv.value
    if spec.kind == GAUSSIAN and spec.bandwidth_sq is None:
        pooled = np.vstack([x, y])
        spec = KernelSpec(GAUSSIAN, gaussian_bandwidth(pooled, pooled))
    k_xy = _gram(x, y, spec)
    coupling, u, s, vt = ad.nuclear_norm(_centered(k_xy))
    k_xx, k_yy = _gram(x, x, spec), _gram(y, y, spec)
    weight = 2.0 / np.sqrt(n * m)
    dist_sq = _self_term(k_xx) + _self_term(k_yy) - weight * float(coupling)

    def backward(g):
        if dist_sq <= 0.0:
            return
        if not av.constant:
            ad._accumulate(av, _self_term_grad(x, k_xx, spec, g[0, 0]), owned=True)
        if not bv.constant:
            ad._accumulate(bv, _self_term_grad(y, k_yy, spec, g[0, 0]), owned=True)
        if s[0] <= 0.0:
            return   # a zero cross-Gram matrix: subgradient 0
        keep = s > EPS_RANK * s[0]
        d_gram = g[0, 0] * -weight * (u[:, keep] @ vt[keep, :])
        dx, dy = _gram_adjoint(x, y, k_xy, spec, _centered(d_gram))
        ad._accumulate(av, dx, owned=True)
        ad._accumulate(bv, dy, owned=True)

    return tape._record(np.array([[max(dist_sq, 0.0)]]), backward, av, bv)


def _sym_eig_clamped(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sym = 0.5 * (s + s.T)
    w, v = np.linalg.eigh(sym)
    return np.maximum(w, 0.0), v


def closed_form_bures(s1: np.ndarray, s2: np.ndarray) -> float:
    """Bures distance between two symmetric PSD matrices.

        d = sqrt( tr S1 + tr S2 - 2 tr (S1^1/2 S2 S1^1/2)^1/2 )

    The cross term tr (S1^1/2 S2 S1^1/2)^1/2 equals the nuclear norm of
    S1^1/2 S2^1/2 and is computed that way: singular values of the product
    of roots carry absolute error O(eps * sigma_max), whereas eigenvalues
    of the squared matrix S1^1/2 S2 S1^1/2 lose half the digits near zero.
    Matrix square roots go through symmetric eigendecomposition with
    eigenvalues clamped at zero.  The bracket is snapped to zero when it
    falls below round-off scale, eps * (tr S1 + tr S2) up to a small
    constant, because cancellation noise at that level would otherwise be
    amplified by the outer square root.
    """
    s1 = as_matrix(s1, "s1")
    s2 = as_matrix(s2, "s2")
    for name, s in (("s1", s1), ("s2", s2)):
        if s.shape[0] != s.shape[1]:
            raise DimensionError(f"closed_form_bures: {name} must be square, got {s.shape}")
    if s1.shape != s2.shape:
        raise DimensionError(f"closed_form_bures: sizes differ, {s1.shape} vs {s2.shape}")
    w1, v1 = _sym_eig_clamped(s1)
    w2, v2 = _sym_eig_clamped(s2)
    root1 = (v1 * np.sqrt(w1)) @ v1.T
    root2 = (v2 * np.sqrt(w2)) @ v2.T
    cross = float(np.linalg.svd(root1 @ root2, compute_uv=False).sum())
    scale = float(np.trace(s1) + np.trace(s2))
    bracket = scale - 2.0 * cross
    if bracket <= 256.0 * np.finfo(np.float64).eps * abs(scale):
        return 0.0
    return float(np.sqrt(bracket))


def optimal_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost row-to-column assignment of a square cost matrix.

    Returns (cols, total) where cols[i] is the column matched to row i. The
    solver, scipy's linear_sum_assignment, is imported by the first call.
    """
    cost = as_matrix(cost, "cost")
    if cost.shape[0] != cost.shape[1]:
        raise InputError(f"optimal_assignment: cost matrix must be square, got {cost.shape}")
    # 0.35-0.55 s and 49 MB of RSS on 2 vCPUs (scipy 1.17), paid only by wd and --kind ot
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return cols, float(cost[rows, cols].sum())


def exact_wasserstein_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Exact squared Wasserstein cost between equal-size uniform samples.

    (1/n) min over permutations pi of sum_i |a_i - b_pi(i)|^2.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise InputError(f"exact_wasserstein_sq: sample sizes differ, {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise InputError("exact_wasserstein_sq: need at least one point per sample")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"exact_wasserstein_sq: feature dims differ, {a.shape} vs {b.shape}")
    _, total = optimal_assignment(pairwise_sqdist_matrix(a, b))
    return total / a.shape[0]
