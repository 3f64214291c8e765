"""Finite-difference verification of every tape operation and every loss.

Each case builds a scalar from leaf inputs, runs one backward pass, and
compares the accumulated leaf gradients against central differences of the
same forward construction. The central-difference oracle is independent of
the tape's adjoint rules: it only calls the scalar forward, perturbing one
input entry at a time. Non-scalar op outputs are contracted against a fixed
random weight matrix so the incoming adjoint is non-uniform. The end-to-end
case runs the trainer's own objective.

Gaussian bandwidths are pinned inside the cases: the training losses treat
the bandwidth (like the margin entropies, prototypes, and pseudo-labels) as
a per-iteration constant, so the checked function holds them fixed too.
Instances are searched deterministically until every hinge argument, argmin
gap, and activation pre-image clears its kink by a safe margin.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import losses as L
from .autodiff import Tape, Value
from .errors import NumericalError
from .kernels import KernelSpec
from .model import ModelDims, PARAM_NAMES, forward_f, forward_g, init_xavier
from .train import RunMetrics, TrainConfig, batch_constants, l_da, objective

OP_TOL = 1e-4        # blanket bound every op-level case must meet
END_TO_END_TOL = 1e-3
FD_STEP = 1e-4


def central_difference(f: Callable[[np.ndarray], float], x0: np.ndarray,
                       h: float = FD_STEP) -> np.ndarray:
    """Numeric gradient of f at x0, entry by entry: (f(x+h) - f(x-h)) / (2h)."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                  floor: float = 1e-8) -> float:
    """Largest entrywise deviation, normalized by the numeric gradient scale.

    A global scale (rather than per-entry) keeps near-zero entries from
    inflating the ratio on otherwise well-conditioned inputs.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.size == 0:
        return 0.0
    denom = max(float(np.max(np.abs(numeric))), floor)
    return float(np.max(np.abs(analytic - numeric))) / denom


@dataclass
class CheckCase:
    name: str
    inputs: list[np.ndarray]
    build: Callable[[Tape, Sequence[Value]], Value]
    tol: float


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def run_case(case: CheckCase) -> CheckResult:
    tape = Tape()
    leaves = [tape.leaf(x, f"in{i}") for i, x in enumerate(case.inputs)]
    out = case.build(tape, leaves)
    tape.backward(out)
    analytic = [leaf.grad.copy() for leaf in leaves]

    worst = 0.0
    for i in range(len(case.inputs)):
        def forward(x, i=i):
            t = Tape()
            ls = [t.leaf(x if j == i else inp, f"in{j}")
                  for j, inp in enumerate(case.inputs)]
            return case.build(t, ls).item()

        numeric = central_difference(forward, case.inputs[i])
        worst = max(worst, max_rel_error(analytic[i], numeric))
    return CheckResult(case.name, worst, case.tol)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [run_case(c) for c in build_cases(seed)]


# ---------------------------------------------------------------------------
# case construction


def _weighted(op: Callable[..., Value], weights: np.ndarray):
    """Contract an op's matrix output to a scalar against fixed weights."""
    def build(tape: Tape, leaves: Sequence[Value]) -> Value:
        return (op(tape, leaves) * tape.leaf(weights, "w")).sum()
    return build


def _away_from(rng: np.random.Generator, shape, pivot: float, margin: float,
               span: float = 1.0) -> np.ndarray:
    """Entries at distance [margin, margin + span] from pivot, either side."""
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return pivot + sign * (margin + span * rng.random(shape))


def _separated_singular_matrix(rng: np.random.Generator,
                               shape=(5, 4)) -> np.ndarray:
    """Random matrix with well-separated singular values (gaps >= 0.3)."""
    n, m = shape
    k = min(n, m)
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m, k)))
    sigma = 2.0 - 0.4 * np.arange(k)   # 2.0, 1.6, 1.2, ...
    return (u * sigma) @ v.T


def _op_cases(rng: np.random.Generator) -> list[CheckCase]:
    n3x4 = rng.standard_normal((3, 4))
    m3x4 = rng.standard_normal((3, 4))
    cases = [
        CheckCase("matmul", [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
                  _weighted(lambda t, l: l[0] @ l[1], rng.standard_normal((3, 2))), 1e-6),
        CheckCase("add", [n3x4.copy(), m3x4.copy()],
                  _weighted(lambda t, l: l[0] + l[1], rng.standard_normal((3, 4))), 1e-6),
        CheckCase("sub", [n3x4.copy(), m3x4.copy()],
                  _weighted(lambda t, l: l[0] - l[1], rng.standard_normal((3, 4))), 1e-6),
        CheckCase("scale", [rng.standard_normal((3, 3))],
                  _weighted(lambda t, l: ad.scale(l[0], -1.7), rng.standard_normal((3, 3))), 1e-6),
        CheckCase("add_scalar", [rng.standard_normal((3, 3))],
                  _weighted(lambda t, l: ad.add_scalar(l[0], 0.9), rng.standard_normal((3, 3))), 1e-6),
        CheckCase("hadamard", [rng.standard_normal((4, 3)), rng.standard_normal((4, 3))],
                  _weighted(lambda t, l: l[0] * l[1], rng.standard_normal((4, 3))), 1e-6),
        CheckCase("exp", [rng.uniform(-1.5, 1.5, (3, 4))],
                  _weighted(lambda t, l: l[0].exp(), rng.standard_normal((3, 4))), 1e-6),
        CheckCase("log", [rng.uniform(0.5, 2.0, (3, 4))],
                  _weighted(lambda t, l: l[0].log(), rng.standard_normal((3, 4))), 1e-6),
        CheckCase("sqrt", [rng.uniform(0.4, 2.0, (3, 4))],
                  _weighted(lambda t, l: l[0].sqrt(), rng.standard_normal((3, 4))), 1e-6),
        CheckCase("clamp_min", [_away_from(rng, (4, 4), 0.25, 0.15)],
                  _weighted(lambda t, l: ad.clamp_min(l[0], 0.25), rng.standard_normal((4, 4))), 1e-6),
        CheckCase("leaky_relu", [_away_from(rng, (4, 4), 0.0, 0.1)],
                  _weighted(lambda t, l: ad.leaky_relu(l[0], 0.01), rng.standard_normal((4, 4))), 1e-6),
        CheckCase("softmax_rows", [rng.standard_normal((4, 5))],
                  _weighted(lambda t, l: ad.softmax_rows(l[0]), rng.standard_normal((4, 5))), 1e-6),
        CheckCase("sum", [rng.standard_normal((4, 3))],
                  lambda t, l: l[0].sum(), 1e-6),
        CheckCase("trace", [rng.standard_normal((4, 4))],
                  lambda t, l: l[0].trace(), 1e-6),
        CheckCase("transpose", [rng.standard_normal((3, 5))],
                  _weighted(lambda t, l: l[0].T, rng.standard_normal((5, 3))), 1e-6),
        CheckCase("add_rowvec", [rng.standard_normal((4, 3)), rng.standard_normal((1, 3))],
                  _weighted(lambda t, l: ad.add_rowvec(l[0], l[1]), rng.standard_normal((4, 3))), 1e-6),
        CheckCase("vstack", [rng.standard_normal((3, 4)), rng.standard_normal((2, 4))],
                  _weighted(lambda t, l: ad.vstack(l[0], l[1]), rng.standard_normal((5, 4))), 1e-6),
        CheckCase("pairwise_sqdist", [rng.standard_normal((4, 3)), rng.standard_normal((5, 3))],
                  _weighted(lambda t, l: ad.pairwise_sqdist(l[0], l[1]),
                            rng.standard_normal((4, 5))), 1e-5),
        CheckCase("nuclear_norm", [_separated_singular_matrix(rng)],
                  lambda t, l: ad.nuclear_norm(l[0]), 1e-4),
        _triplet_hinge_case(rng),
    ]
    return cases


def _triplet_hinge_case(rng: np.random.Generator) -> CheckCase:
    """Hinge sum on a positive 7x7 matrix, every hinge argument off its kink."""
    labels = np.array([0, 0, 1, 1, 2, 2, 3])
    margin = 0.7
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(7, dtype=bool)
    for attempt in range(500):
        d = np.random.default_rng([int(rng.integers(2 ** 32)), attempt]).uniform(0.2, 2.0, (7, 7))
        expr = np.concatenate([(d[i, pos[i]][:, None] - d[i, ~same[i]][None, :]).ravel()
                               for i in range(7)]) + margin
        if np.abs(expr).min() >= 0.1 and (expr > 0).sum() >= 2:
            break
    else:
        raise NumericalError("triplet_hinge gradcheck: no kink-free instance found")
    return CheckCase("triplet_hinge", [d],
                     lambda t, l: ad.triplet_hinge(l[0], labels, margin), 1e-6)


def _l_cls_case(rng: np.random.Generator) -> CheckCase:
    logits = rng.standard_normal((4, 3))
    y = L.one_hot(np.array([0, 2, 1, 0]), 3)

    def build(tape, leaves):
        return L.l_cls(ad.softmax_rows(leaves[0]), y)

    return CheckCase("l_cls", [logits], build, 1e-4)


def _l_da_case(rng: np.random.Generator) -> CheckCase:
    g_s = rng.standard_normal((4, 3))
    g_t = rng.standard_normal((5, 3))
    t_logits = rng.standard_normal((5, 3))
    y_s = L.one_hot(np.array([0, 1, 2, 0]), 3)
    spec = KernelSpec("gaussian", bandwidth_sq=2.0)

    def build(tape, leaves):
        y_t = ad.softmax_rows(leaves[2])
        return l_da(leaves[0], y_s, leaves[1], y_t, spec)

    return CheckCase("l_da", [g_s, g_t, t_logits], build, 1e-4)


def _dmc_clearances(g: np.ndarray, labels: np.ndarray, protos: np.ndarray,
                    alphas: np.ndarray) -> tuple[float, float, np.ndarray]:
    """How far an l_dmc instance sits from its kinks: the smallest
    row-to-prototype distance (sqrt), the smallest gap between the two
    nearest other-class prototypes (argmin tie), and every hinge argument."""
    rows = np.arange(g.shape[0])
    dist = np.sqrt(((g[:, None, :] - protos[None, :, :]) ** 2).sum(-1))
    other = np.ones(dist.shape, dtype=bool)
    other[rows, labels] = False
    neg_sorted = np.sort(np.where(other, dist, np.inf), axis=1)
    expr = dist[rows, labels] - neg_sorted[:, 0] + alphas
    return dist.min(), (neg_sorted[:, 1] - neg_sorted[:, 0]).min(), expr


def _l_dmc_case(rng: np.random.Generator) -> CheckCase:
    labels = np.array([0, 1, 2, 0, 1])
    probs = np.array([[0.7, 0.2, 0.1],
                      [0.15, 0.7, 0.15],
                      [0.1, 0.1, 0.8],
                      [0.4, 0.35, 0.25],
                      [0.25, 0.5, 0.25]])
    protos = L.Prototypes(3, 2)
    protos.update(np.array([[1.5, 0.0], [-1.2, 1.0], [0.0, -1.4]]),
                  np.array([0, 1, 2]))
    alphas = L.entropy_margins(probs)

    for attempt in range(500):
        g = np.random.default_rng([int(rng.integers(2 ** 32)), attempt]).normal(0.0, 1.2, (5, 2))
        nearest, tie_gap, expr = _dmc_clearances(g, labels, protos.vectors, alphas)
        # clear of every kink, and not almost everything inactive
        if (nearest >= 0.2 and min(tie_gap, np.abs(expr).min()) >= 0.1
                and (expr > 0.1).sum() >= 2):
            break
    else:
        raise NumericalError("l_dmc gradcheck: no kink-free instance found")

    def build(tape, leaves):
        return L.l_dmc(leaves[0], labels, probs, protos)[0]

    return CheckCase("l_dmc", [g], build, 1e-4)


def _l_trip_case(rng: np.random.Generator) -> CheckCase:
    labels = np.array([0, 0, 1, 1, 2, 2])
    margin = 0.7
    for attempt in range(500):
        g = np.random.default_rng([int(rng.integers(2 ** 32)), attempt]).normal(0.0, 1.0, (6, 2))
        dist = np.sqrt(np.maximum(((g[:, None, :] - g[None, :, :]) ** 2).sum(-1), 0.0))
        off = ~np.eye(6, dtype=bool)
        if dist[off].min() < 0.2:
            continue
        ok = True
        active = 0
        same = labels[:, None] == labels[None, :]
        for i in range(6):
            pos = same[i] & off[i]
            neg = ~same[i]
            expr = dist[i, pos][:, None] - dist[i, neg][None, :] + margin
            if np.abs(expr).min() < 0.1:
                ok = False
                break
            active += int((expr > 0).sum())
        if ok and active >= 2:
            break
    else:
        raise NumericalError("l_trip gradcheck: no kink-free instance found")

    def build(tape, leaves):
        return L.l_trip(leaves[0], labels, margin)[0]

    return CheckCase("l_trip", [g], build, 1e-4)


def _end_to_end_case(rng: np.random.Generator) -> CheckCase:
    """The trainer's objective (variant full, lambda1 0.5, lambda2 0.3)
    against FD in every parameter.

    Pseudo-labels, margin entropies, and prototypes are frozen at the base
    point by the trainer's own batch_constants, exactly as one iteration
    treats them.
    """
    dims = ModelDims(4, 6, 5, 3)
    cfg = TrainConfig(kernel=KernelSpec("gaussian", bandwidth_sq=2.0))
    # two source rows per class: prototypes are then proper means, never
    # exactly equal to any single row (a zero distance sits on a sqrt kink)
    ys = np.array([0, 0, 1, 1, 2, 2])

    def forward(tape, leaves, xs, xt):
        g_s = forward_g(leaves, tape.leaf(xs, "xs"))
        g_t = forward_g(leaves, tape.leaf(xt, "xt"))
        return g_s, g_t, forward_f(leaves, g_s), forward_f(leaves, g_t)

    for attempt in range(500):
        inst = np.random.default_rng([int(rng.integers(2 ** 32)), attempt])
        params = init_xavier(dims, int(inst.integers(2 ** 32)))
        xs = inst.normal(0.0, 1.5, (6, 4))
        xt = inst.normal(0.0, 1.5, (4, 4))

        pre_s = xs @ params.tensors["w1"] + params.tensors["b1"]
        pre_t = xt @ params.tensors["w1"] + params.tensors["b1"]
        if min(np.abs(pre_s).min(), np.abs(pre_t).min()) < 0.02:
            continue  # leaky_relu kink too close

        tape = Tape()
        g_s, g_t, probs_s, probs_t = forward(
            tape, {n: tape.leaf(params.tensors[n], n) for n in PARAM_NAMES}, xs, xt)
        const = batch_constants(cfg, g_s, probs_s, probs_t, ys, L.Prototypes(3, 5))
        nearest, tie_gap, expr = _dmc_clearances(
            np.vstack([g_s.value, g_t.value]), const.margin_labels, const.protos.vectors,
            L.entropy_margins(const.margin_probs))
        if min(nearest, tie_gap, np.abs(expr).min()) >= 0.05:
            break
    else:
        raise NumericalError("end-to-end gradcheck: no kink-free instance found")

    def build(tape, leaf_list):
        outs = forward(tape, dict(zip(PARAM_NAMES, leaf_list)), xs, xt)
        return objective(cfg, *outs, const, RunMetrics())[0]

    inputs = [params.tensors[n].copy() for n in PARAM_NAMES]
    return CheckCase("end_to_end", inputs, build, END_TO_END_TOL)


def build_cases(seed: int = 0) -> list[CheckCase]:
    rng = np.random.default_rng([seed, 0xC0FFEE])
    cases = _op_cases(rng)
    cases.append(_l_cls_case(rng))
    cases.append(_l_da_case(rng))
    cases.append(_l_dmc_case(rng))
    cases.append(_l_trip_case(rng))
    cases.append(_end_to_end_case(rng))
    return cases
