"""Mini-batch adaptation training loop, SGD with momentum, evaluation, and
the multi-variant sweep used for ablation tables.

Per iteration: draw one source and one target mini-batch (epoch-style
shuffles, reshuffled when exhausted), push both through the extractor,
refresh class prototypes from the source batch, predict target
pseudo-labels, assemble the variant's objective, backprop, and take one SGD
step. All randomness comes from generators derived from cfg.seed, so a
(config, data, seed) triple reproduces its metrics byte for byte.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from . import losses as L
from .autodiff import Tape
from .data import Dataset
from .errors import ConfigError, InputError, NumericalError
from .kernels import KernelSpec, kbw_sq, optimal_assignment, pairwise_sqdist_matrix
from .losses import LossBreakdown, Prototypes, one_hot
from .model import (ModelDims, ModelParams, forward_f, forward_g,
                    hard_pseudo_labels, init_xavier, make_leaves, predict_probs)

VARIANTS = ("full", "no_da", "no_dmc", "triplet", "source_only", "wd")

# which loss slots each variant fills: (alignment slot, contrastive slot)
_VARIANT_TERMS = {
    "full": ("kbw", "dmc"),
    "no_da": (None, "dmc"),
    "no_dmc": ("kbw", None),
    "triplet": ("kbw", "trip"),
    "source_only": (None, None),
    "wd": ("wd", "dmc"),
}


@dataclass(frozen=True)
class TrainConfig:
    lambda1: float = 0.5
    lambda2: float = 0.3
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    t_max: int = 300
    batch_source: int = 64
    batch_target: int = 64
    seed: int = 0
    variant: str = "full"
    triplet_margin: float = 1.0
    confidence_threshold: float = 0.8
    pl: bool = False
    kernel: KernelSpec = field(default_factory=KernelSpec)
    leaky_slope: float = 0.01
    proto_mode: str = "batch"
    ema_decay: float = 0.9
    hidden_dim: int = 1024
    feat_dim: int = 512
    eval_every: int = 50

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError(f"lambda1/lambda2 must be >= 0, got "
                              f"({self.lambda1}, {self.lambda2})")
        if self.lr <= 0 or not math.isfinite(self.lr):
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        if self.batch_source < 2 or self.batch_target < 2:
            raise ConfigError("batch sizes must be >= 2 (centering needs two rows), got "
                              f"({self.batch_source}, {self.batch_target})")
        if not 0 < self.confidence_threshold < 1:
            raise ConfigError(f"confidence_threshold must be in (0, 1), "
                              f"got {self.confidence_threshold}")
        if self.triplet_margin < 0:
            raise ConfigError(f"triplet_margin must be >= 0, got {self.triplet_margin}")
        if self.proto_mode not in L.PROTO_MODES:
            raise ConfigError(f"proto_mode must be one of {L.PROTO_MODES}, "
                              f"got {self.proto_mode!r}")
        if not 0 <= self.ema_decay < 1:
            raise ConfigError(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if self.hidden_dim < 1 or self.feat_dim < 1:
            raise ConfigError(f"hidden_dim/feat_dim must be >= 1, got "
                              f"({self.hidden_dim}, {self.feat_dim})")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.variant == "wd" and self.batch_source != self.batch_target:
            raise ConfigError("variant 'wd' needs equal batch sizes (one-to-one transport), "
                              f"got ({self.batch_source}, {self.batch_target})")


@dataclass
class IterationRecord:
    iteration: int
    breakdown: LossBreakdown
    target_acc: float | None
    pl_accept: float | None


@dataclass
class RunMetrics:
    records: list[IterationRecord] = field(default_factory=list)
    proto_skips: int = 0          # rows dropped from the margin loss, no usable prototype
    label_term_skips: int = 0     # iterations whose label-alignment term was skipped
    dmc_target_skips: int = 0     # iterations whose margin loss lost its target rows
    trip_degenerate: int = 0      # single-class batches seen by the triplet loss

    def to_jsonl(self) -> str:
        lines = []
        for r in self.records:
            b = r.breakdown
            lines.append(json.dumps({
                "iter": r.iteration,
                "l_cls": b.l_cls, "l_da": b.l_da, "l_dmc": b.l_dmc, "total": b.total,
                "target_acc": r.target_acc, "pl_accept": r.pl_accept,
            }))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class EvalResult:
    accuracy: float
    per_class: dict[int, float]
    predictions: np.ndarray
    n_unlabeled: int


class EpochSampler:
    """Without-replacement mini-batches; reshuffles whenever a pass runs dry.

    Batches larger than the dataset are capped at the dataset size.
    """

    def __init__(self, n: int, batch: int, rng: np.random.Generator):
        if n < 1:
            raise InputError("sampler: empty dataset")
        self.n = n
        self.batch = min(batch, n)
        self.rng = rng
        self._perm = None
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._perm is None or self._pos + self.batch > self.n:
            self._perm = self.rng.permutation(self.n)
            self._pos = 0
        out = self._perm[self._pos:self._pos + self.batch]
        self._pos += self.batch
        return out


def sgd_update(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
               lr: float, momentum: float, weight_decay: float) -> None:
    """In place: v <- momentum v + grad + weight_decay theta; theta <- theta - lr v."""
    velocity *= momentum
    velocity += grad
    velocity += weight_decay * theta
    theta -= lr * velocity


def _check_pair(source: Dataset, target: Dataset) -> None:
    if len(source) == 0 or len(target) == 0:
        raise InputError("training needs non-empty source and target datasets")
    if source.dim != target.dim:
        raise InputError(f"feature dims differ: source {source.dim}, target {target.dim}")
    if source.class_count != target.class_count:
        raise InputError(f"class counts differ: source {source.class_count}, "
                         f"target {target.class_count}")
    if source.class_count < 2:
        raise InputError(f"need at least 2 classes, got {source.class_count}")
    if np.any(source.labels < 0):
        raise InputError("source dataset must be fully labeled")


def _select_rows(tape: Tape, value, idx: np.ndarray):
    """Differentiable row gather: one-hot selection matrix times the value."""
    sel = np.zeros((idx.shape[0], value.shape[0]))
    sel[np.arange(idx.shape[0]), idx] = 1.0
    return tape.leaf(sel, "select") @ value


def _wd_loss(tape: Tape, g_s, g_t, y_s_1h: np.ndarray, probs_t):
    """Exact-transport stand-in for the alignment loss.

    One assignment is solved on the detached joint cost (feature + label
    squared distances); gradients then flow through the matched pairs only.
    """
    cost = (pairwise_sqdist_matrix(g_s.value, g_t.value)
            + pairwise_sqdist_matrix(y_s_1h, probs_t.value))
    cols, _ = optimal_assignment(cost)
    n = cost.shape[0]
    perm = np.zeros((n, n))
    perm[np.arange(n), cols] = 1.0
    mask = tape.leaf(perm, "transport")
    feat = (ad.pairwise_sqdist(g_s, g_t) * mask).sum()
    label = (ad.pairwise_sqdist(tape.leaf(y_s_1h, "y_s"), probs_t) * mask).sum()
    return ad.scale(feat + label, 1.0 / n)


def train(source: Dataset, target: Dataset,
          cfg: TrainConfig = TrainConfig()) -> tuple[ModelParams, RunMetrics]:
    """Run the adaptation loop; returns final parameters and per-iteration metrics."""
    cfg.validate()
    _check_pair(source, target)

    c_count = source.class_count
    dims = ModelDims(source.dim, cfg.hidden_dim, cfg.feat_dim, c_count)
    params = init_xavier(dims, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])
    sampler_s = EpochSampler(len(source), cfg.batch_source, rng)
    sampler_t = EpochSampler(len(target), cfg.batch_target, rng)
    protos = Prototypes(c_count, cfg.feat_dim, cfg.proto_mode, cfg.ema_decay)
    metrics = RunMetrics()

    da_kind, con_kind = _VARIANT_TERMS[cfg.variant]
    want_da = da_kind is not None and cfg.lambda1 > 0.0
    want_con = con_kind is not None and cfg.lambda2 > 0.0

    has_target_labels = bool(np.any(target.labels >= 0))

    for it in range(1, cfg.t_max + 1):
        idx_s = sampler_s.next()
        idx_t = sampler_t.next()
        xs, ys = source.features[idx_s], source.labels[idx_s]
        xt = target.features[idx_t]

        tape = Tape()
        leaves = make_leaves(tape, params)
        g_s = forward_g(leaves, tape.leaf(xs, "x_s"), cfg.leaky_slope)
        g_t = forward_g(leaves, tape.leaf(xt, "x_t"), cfg.leaky_slope)
        # squared norms must stay clear of the float64 overflow line (~1e308)
        peak = max(np.abs(g_s.value).max(initial=0.0), np.abs(g_t.value).max(initial=0.0))
        if not math.isfinite(peak) or peak > 1e100:
            raise NumericalError(f"feature magnitudes blew up at iteration {it}; the run diverged")
        probs_s = forward_f(leaves, g_s)
        probs_t = forward_f(leaves, g_t)

        protos.update(g_s.value, ys)
        pseudo, conf = hard_pseudo_labels(probs_t.value)
        if cfg.pl:
            keep = np.flatnonzero(conf > cfg.confidence_threshold)
            pl_accept = keep.shape[0] / conf.shape[0]
        else:
            keep = np.arange(idx_t.shape[0])
            pl_accept = None

        y_s_1h = one_hot(ys, c_count)

        da_term = None
        if want_da:
            if da_kind == "wd":
                da_term = _wd_loss(tape, g_s, g_t, y_s_1h, probs_t)
            else:
                da_term = kbw_sq(g_s, g_t, cfg.kernel, tape)
                if keep.shape[0] >= 2:
                    y_t_kept = probs_t if keep.shape[0] == idx_t.shape[0] \
                        else _select_rows(tape, probs_t, keep)
                    da_term = da_term + kbw_sq(tape.leaf(y_s_1h, "y_s"), y_t_kept,
                                               cfg.kernel, tape)
                else:
                    metrics.label_term_skips += 1

        con_term = None
        if want_con:
            if keep.shape[0] >= 2:
                g_all = ad.vstack(g_s, _select_rows(tape, g_t, keep))
                labels_all = np.concatenate([ys, pseudo[keep]])
                probs_all = np.vstack([probs_s.value, probs_t.value[keep]])
            else:
                metrics.dmc_target_skips += 1
                g_all, labels_all, probs_all = g_s, ys, probs_s.value
            if con_kind == "dmc":
                con_term, skipped = L.l_dmc(g_all, labels_all, probs_all, protos)
                metrics.proto_skips += skipped
            else:
                con_term, degenerate = L.l_trip(g_all, labels_all, cfg.triplet_margin)
                metrics.trip_degenerate += degenerate

        cls_term = L.l_cls(probs_s, y_s_1h)
        objective = L.total_objective(cls_term, da_term, con_term,
                                      cfg.lambda1, cfg.lambda2)
        total = objective.item()
        if not math.isfinite(total):
            raise NumericalError(f"non-finite loss {total!r} at iteration {it}")

        tape.backward(objective)
        for name in leaves:
            sgd_update(params.tensors[name], leaves[name].grad,
                       params.velocities[name], cfg.lr, cfg.momentum, cfg.weight_decay)

        target_acc = None
        if has_target_labels and (it % cfg.eval_every == 0 or it == cfg.t_max):
            target_acc = evaluate(params, target, cfg.leaky_slope).accuracy

        metrics.records.append(IterationRecord(
            it,
            LossBreakdown(
                l_cls=cls_term.item(),
                l_da=da_term.item() if da_term is not None else 0.0,
                l_dmc=con_term.item() if con_term is not None else 0.0,
                total=total,
                lambda1=cfg.lambda1, lambda2=cfg.lambda2),
            target_acc, pl_accept))

    return params, metrics


def _no_labels(data: Dataset) -> InputError:
    return InputError(f"evaluate: dataset {data.name!r} has no labeled rows")


def evaluate(params: ModelParams, data: Dataset, leaky_slope: float = 0.01,
             chunk: int = 1024) -> EvalResult:
    """Accuracy over the labeled rows; unlabeled rows are excluded and counted."""
    preds = np.empty(len(data), dtype=np.int64)
    for start in range(0, len(data), chunk):
        probs = predict_probs(params, data.features[start:start + chunk], leaky_slope)
        preds[start:start + chunk] = hard_pseudo_labels(probs)[0]
    labeled = data.labels >= 0
    n_unlabeled = int((~labeled).sum())
    if not labeled.any():
        raise _no_labels(data)
    hits = preds[labeled] == data.labels[labeled]
    per_class = {}
    for c in np.unique(data.labels[labeled]):
        sel = data.labels[labeled] == c
        per_class[int(c)] = float(hits[sel].mean())
    return EvalResult(float(hits.mean()), per_class, preds, n_unlabeled)


# ---------------------------------------------------------------------------
# variant/seed sweep


@dataclass
class SuiteCell:
    variant: str
    seed: int
    accuracy: float | None
    error: str | None = None


@dataclass
class SuiteResult:
    cells: list[SuiteCell]

    def summary(self) -> list[tuple[str, float, float]]:
        """Per-variant mean and sample (n-1) std over the successful cells."""
        out = []
        seen = []
        for cell in self.cells:
            if cell.variant not in seen:
                seen.append(cell.variant)
        for variant in seen:
            accs = [c.accuracy for c in self.cells
                    if c.variant == variant and c.accuracy is not None]
            if not accs:
                out.append((variant, float("nan"), float("nan")))
                continue
            mean = float(np.mean(accs))
            std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
            out.append((variant, mean, std))
        return out


def _run_cell(source: Dataset, target: Dataset, cfg: TrainConfig) -> SuiteCell:
    try:
        _, metrics = train(source, target, cfg)
        # train evaluated the final parameters whenever the target has labels
        acc = metrics.records[-1].target_acc
        if acc is None:
            raise _no_labels(target)
        return SuiteCell(cfg.variant, cfg.seed, acc)
    except Exception as err:  # keep the sweep alive; the cell records why
        return SuiteCell(cfg.variant, cfg.seed, None, f"{type(err).__name__}: {err}")


def run_suite(source: Dataset, target: Dataset, cfg: TrainConfig,
              variants: list[str] | tuple[str, ...] = VARIANTS,
              seeds: list[int] | tuple[int, ...] = (0, 1, 2, 3, 4),
              jobs: int = 1) -> SuiteResult:
    """Train every (variant, seed) cell from a shared base config.

    Cells are independent (own model, own RNG); jobs > 1 runs them in a
    thread pool. Results keep the requested order either way.
    """
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}")
    configs = [replace(cfg, variant=v, seed=s) for v in variants for s in seeds]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(lambda c: _run_cell(source, target, c), configs))
    else:
        cells = [_run_cell(source, target, c) for c in configs]
    return SuiteResult(cells)
