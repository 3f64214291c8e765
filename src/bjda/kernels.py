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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .autodiff import Tape, Value, as_matrix
from .errors import ConfigError, DimensionError, InputError

GAUSSIAN = "gaussian"
LINEAR = "linear"
KERNEL_KINDS = (GAUSSIAN, LINEAR)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus an optional fixed Gaussian bandwidth.

    bandwidth_sq is sigma^2 in k(x, y) = exp(-|x - y|^2 / sigma^2). When None,
    the bandwidth comes from the mean-distance heuristic: kbw_sq takes it once
    from the pooled rows of both samples and uses it for all three of its
    Gram matrices (one kernel, one RKHS); a lone kernel_matrix call takes it
    from the pairs of that matrix.
    """
    kind: str = GAUSSIAN
    bandwidth_sq: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.bandwidth_sq is not None:
            bw = float(self.bandwidth_sq)
            if not np.isfinite(bw) or bw <= 0.0:
                raise ConfigError(f"bandwidth_sq must be finite and > 0, got {self.bandwidth_sq!r}")
            object.__setattr__(self, "bandwidth_sq", bw)


def pairwise_sqdist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain-array version of the pairwise squared-distance op (clamped at 0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"pairwise_sqdist: row lengths differ, {a.shape} vs {b.shape}")
    sq = (a * a).sum(axis=1, keepdims=True) + (b * b).sum(axis=1) - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def gaussian_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of all pairwise squared Euclidean distances; 1.0 if that is zero.

    Returned as a plain scalar: the bandwidth is held fixed (not
    differentiated through) wherever the kernel itself is differentiated.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InputError("gaussian_bandwidth: need at least one row on each side")
    mean = float(pairwise_sqdist_matrix(a, b).mean())
    return mean if mean > 0.0 else 1.0


def _as_value(x, tape: Tape | None, name: str) -> Value:
    if isinstance(x, Value):
        return x
    if tape is None:
        raise InputError(f"{name}: plain matrices need an explicit tape")
    return tape.leaf(x, name)


def kernel_matrix(a, b, spec: KernelSpec = KernelSpec(),
                  tape: Tape | None = None) -> Value:
    """Kernel matrix K[i, j] = k(a_i, b_j), differentiable w.r.t. a and b.

    a and b may be Values on a shared tape or plain matrices (then a tape is
    required). A Gaussian spec without a fixed bandwidth takes the heuristic
    from the pairs of this one matrix.
    """
    if tape is None:
        if isinstance(a, Value):
            tape = a.tape
        elif isinstance(b, Value):
            tape = b.tape
    av = _as_value(a, tape, "a")
    bv = _as_value(b, tape, "b")
    if av.shape[1] != bv.shape[1]:
        raise DimensionError(f"kernel_matrix: feature dims differ, {av.shape} vs {bv.shape}")
    if spec.kind == LINEAR:
        return av @ bv.T
    sigma_sq = spec.bandwidth_sq
    if sigma_sq is None:
        sigma_sq = gaussian_bandwidth(av.value, bv.value)
    return ad.scale(ad.pairwise_sqdist(av, bv), -1.0 / sigma_sq).exp()


def kbw_sq(a, b, spec: KernelSpec = KernelSpec(),
           tape: Tape | None = None) -> Value:
    """Squared kernel Bures-Wasserstein distance between two samples.

    With n rows of a and m rows of b, and H_k = I - (1/k) 1 1^T the
    centering matrix of size k:

        (1/n) tr(H_n K_aa H_n) + (1/m) tr(H_m K_bb H_m)
        - (2 / sqrt(n m)) |H_n K_ab H_m|_*

    clamped at zero, with each centered Gram matrix one autodiff.center node.
    This is the distance between two covariance operators only when K_aa,
    K_bb and K_ab come from one kernel, so a Gaussian kernel without a fixed
    bandwidth gets one heuristic bandwidth from the pooled rows of a and b.
    """
    if tape is None:
        tape = a.tape if isinstance(a, Value) else (b.tape if isinstance(b, Value) else Tape())
    av = _as_value(a, tape, "a")
    bv = _as_value(b, tape, "b")
    n, m = av.shape[0], bv.shape[0]
    if n < 2 or m < 2:
        raise InputError(f"kbw_sq: need at least 2 rows per sample, got n={n}, m={m}")
    if av.shape[1] != bv.shape[1]:
        raise DimensionError(f"kbw_sq: feature dims differ, {av.shape} vs {bv.shape}")

    if spec.kind == GAUSSIAN and spec.bandwidth_sq is None:
        pooled = np.vstack([av.value, bv.value])
        spec = KernelSpec(GAUSSIAN, gaussian_bandwidth(pooled, pooled))

    k_aa = kernel_matrix(av, av, spec, tape)
    k_bb = kernel_matrix(bv, bv, spec, tape)
    k_ab = kernel_matrix(av, bv, spec, tape)

    term_a = ad.scale(ad.center(k_aa).trace(), 1.0 / n)
    term_b = ad.scale(ad.center(k_bb).trace(), 1.0 / m)
    coupling = ad.nuclear_norm(ad.center(k_ab))
    dist_sq = term_a + term_b - ad.scale(coupling, 2.0 / np.sqrt(n * m))
    return ad.clamp_min(dist_sq, 0.0)


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

    Returns (cols, total) where cols[i] is the column matched to row i.
    """
    cost = as_matrix(cost, "cost")
    if cost.shape[0] != cost.shape[1]:
        raise InputError(f"optimal_assignment: cost matrix must be square, got {cost.shape}")
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
