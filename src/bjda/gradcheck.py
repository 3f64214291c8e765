"""Finite-difference verification of every tape node training records.

Each case builds a scalar from leaf inputs, runs one backward pass, and
compares the accumulated leaf gradients against central differences of the
same forward construction. The central-difference oracle is independent of
the tape's adjoint rules: it only calls the scalar forward, perturbing one
input entry at a time. Non-scalar node outputs are contracted against a fixed
random weight matrix so the incoming adjoint is non-uniform. The end-to-end
case runs the trainer's own objective, with the paired forward_g of a
training step; end_to_end_helper runs it again on a tape whose helper, a
one-worker pool, takes every pair of products, as in a run that opens one,
so the concurrent adjoints are audited too.

Gaussian bandwidths are pinned inside the cases: the training losses treat
the bandwidth (like the margin entropies, prototypes, and pseudo-labels) as
a per-iteration constant, so the checked function holds them fixed too.
The pin hides that training's default auto bandwidth, the mean distance of
the batch's own features, moves with the parameters but takes no gradient:
with TrainConfig()'s auto bandwidth, end_to_end's max relative error exceeds
END_TO_END_TOL at seeds 0, 1 and 2, so training does not follow the loss's
gradient. The pin stays until sigma is on the tape.
Instances are searched deterministically until every hinge argument, argmin
gap, and activation pre-image clears its kink, and the best transport
assignment its runner-up, by a safe margin.
"""
from __future__ import annotations

import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import losses as L
from .autodiff import Tape, Value
from .errors import NumericalError
from .kernels import KernelSpec, kbw_sq
from .model import ModelDims, PARAM_NAMES, dense, forward_f, forward_g, init_xavier
from .train import (RunMetrics, TrainConfig, _check_seed, _wd_loss, batch_constants, l_da,
                    objective)

END_TO_END_TOL = 1e-3
FD_STEP = 1e-4
END_TO_END_CONFIG = TrainConfig(kernel_bandwidth_sq=2.0)   # the pinned bandwidth


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
    helper: bool = False   # the analytic pass runs on a tape with a one-worker pool


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def run_case(case: CheckCase) -> CheckResult:
    with ThreadPoolExecutor(max_workers=1) if case.helper else contextlib.nullcontext() as helper:
        tape = Tape(helper)
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
    """Contract an op's matrix output to the scalar <output, weights>, as one
    node whose adjoint passes the upstream gradient times weights."""
    def build(tape: Tape, leaves: Sequence[Value]) -> Value:
        out = op(tape, leaves)
        return tape._record(np.array([[np.vdot(out.value, weights)]]),
                            lambda g: ad._accumulate(out, g[0, 0] * weights, owned=True), out)
    return build


def _softmax(tape: Tape, logits: Value) -> Value:
    """Row softmax of logits: the head's node with an identity weight and a zero bias."""
    c = logits.shape[1]
    return dense(logits, tape.constant(np.eye(c), "eye"), tape.constant(np.zeros((1, c)), "zero"),
                 "softmax")


def _layer_case(rng: np.random.Generator) -> CheckCase:
    """dense with leaky ReLU, its pre-activations at least 0.1 from the kink."""
    for attempt in range(500):
        inst = np.random.default_rng([int(rng.integers(2 ** 32)), attempt])
        x, w, b = inst.normal(size=(3, 4)), inst.normal(size=(4, 3)), inst.normal(size=(1, 3))
        if np.abs(x @ w + b).min() >= 0.1:
            return CheckCase("layer_leaky", [x, w, b], _weighted(
                lambda t, l: dense(*l, "leaky"), rng.standard_normal((3, 3))), 1e-6)
    raise NumericalError("layer gradcheck: no kink-free instance found")


def _node_cases(rng: np.random.Generator) -> list[CheckCase]:
    return [
        CheckCase("add", [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))],
                  _weighted(lambda t, l: l[0] + l[1], rng.standard_normal((3, 4))), 1e-6),
        CheckCase("take_rows", [rng.standard_normal((3, 3))],
                  _weighted(lambda t, l: ad.take(l[0], [2, 0, 2]), rng.standard_normal((3, 3))), 1e-6),
        CheckCase("vstack", [rng.standard_normal((3, 4)), rng.standard_normal((2, 4))],
                  _weighted(lambda t, l: ad.vstack(l[0], l[1]), rng.standard_normal((5, 4))), 1e-6),
        _layer_case(rng),
        CheckCase("layer_linear", [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                                   rng.standard_normal((1, 2))],
                  _weighted(lambda t, l: dense(*l), rng.standard_normal((3, 2))), 1e-6),
        CheckCase("head", [rng.standard_normal((4, 3)), rng.standard_normal((3, 5)),
                           rng.standard_normal((1, 5))],
                  _weighted(lambda t, l: dense(*l, "softmax"), rng.standard_normal((4, 5))), 1e-6),
        CheckCase("objective", [rng.standard_normal((1, 1)) for _ in range(3)],
                  lambda t, l: L.total_objective(*l, 0.5, 0.3), 1e-6),
    ]


def _hinge_args(d: np.ndarray, labels: np.ndarray, margin: float) -> np.ndarray:
    """Every batch-all triplet hinge argument (d_ij - d_ik) + margin of d."""
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(labels.size, dtype=bool)
    return np.concatenate([(d[i, pos[i]][:, None] - d[i, ~same[i]][None, :]).ravel()
                           for i in range(labels.size)]) + margin


def _l_cls_case(rng: np.random.Generator) -> CheckCase:
    logits = rng.standard_normal((4, 3))
    y = L.one_hot(np.array([0, 2, 1, 0]), 3)

    def build(tape, leaves):
        return L.l_cls(_softmax(tape, leaves[0]), y)

    return CheckCase("l_cls", [logits], build, 1e-4)


def _l_da_case(rng: np.random.Generator) -> CheckCase:
    g_s = rng.standard_normal((4, 3))
    g_t = rng.standard_normal((5, 3))
    t_logits = rng.standard_normal((5, 3))
    y_s = L.one_hot(np.array([0, 1, 2, 0]), 3)
    spec = KernelSpec("gaussian", bandwidth_sq=2.0)

    def build(tape, leaves):
        y_t = _softmax(tape, leaves[2])
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
        if dist[~np.eye(6, dtype=bool)].min() < 0.2:
            continue
        expr = _hinge_args(dist, labels, margin)
        if np.abs(expr).min() >= 0.1 and (expr > 0).sum() >= 2:
            break
    else:
        raise NumericalError("l_trip gradcheck: no kink-free instance found")

    def build(tape, leaves):
        return L.l_trip(leaves[0], labels, margin)[0]

    return CheckCase("l_trip", [g], build, 1e-4)


def _wd_case(rng: np.random.Generator) -> CheckCase:
    """The wd term on 4 + 4 rows, its best assignment cheaper than every
    other permutation by at least 0.1, so no step of the differences flips it."""
    n = 4
    y_s = L.one_hot(np.array([0, 1, 2, 0]), 3)
    rows = np.arange(n)
    for attempt in range(500):
        inst = np.random.default_rng([int(rng.integers(2 ** 32)), attempt])
        g_s, g_t = inst.normal(0.0, 1.0, (2, n, 2))
        logits = inst.normal(0.0, 1.0, (n, 3))
        cost = (ad.pairwise_sqdist_matrix(g_s, g_t)
                + ad.pairwise_sqdist_matrix(y_s, ad.softmax_rows_array(logits)))
        totals = np.sort([cost[rows, list(p)].sum() for p in itertools.permutations(rows)])
        if totals[1] - totals[0] >= 0.1:
            break
    else:
        raise NumericalError("wd gradcheck: no instance with a clear best assignment found")

    def build(tape, leaves):
        return _wd_loss(leaves[0], leaves[1], y_s, _softmax(tape, leaves[2]))

    return CheckCase("wd", [g_s, g_t, logits], build, 1e-4)


def _end_to_end_case(rng: np.random.Generator) -> CheckCase:
    """The trainer's objective (variant full, lambda1 0.5, lambda2 0.3)
    against FD in every parameter.

    Pseudo-labels, margin entropies, and prototypes are frozen at the base
    point by the trainer's own batch_constants, exactly as one iteration
    treats them, and the input rows go on the tape as constants, as train()
    records them.
    """
    dims = ModelDims(4, 6, 5, 3)
    cfg = END_TO_END_CONFIG
    # two source rows per class: prototypes are then proper means, never
    # exactly equal to any single row (a zero distance sits on a sqrt kink)
    ys = np.array([0, 0, 1, 1, 2, 2])

    def forward(tape, leaves, xs, xt):
        g_s, g_t = forward_g(leaves, tape.constant(xs, "xs"), tape.constant(xt, "xt"))
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
    _check_seed(seed)
    rng = np.random.default_rng([seed, 0xC0FFEE])
    cases = _node_cases(rng)
    cases.append(_l_cls_case(rng))
    cases.append(_l_da_case(rng))
    cases.append(_l_dmc_case(rng))
    cases.append(_l_trip_case(rng))
    cases.append(_wd_case(rng))
    end_to_end = _end_to_end_case(rng)
    cases += [end_to_end, replace(end_to_end, name="end_to_end_helper", helper=True)]
    # drawn last, so no earlier case's instance depends on them
    for kind, bandwidth_sq, (n, m, d) in (("gaussian", 2.0, (4, 5, 3)), ("linear", None, (5, 6, 2))):
        spec = KernelSpec(kind, bandwidth_sq)
        cases.append(CheckCase(f"kbw_sq_{kind}", [rng.standard_normal((n, d)),
                                                  rng.standard_normal((m, d))],
                               lambda t, l, spec=spec: kbw_sq(l[0], l[1], spec), 1e-4))
    return cases
