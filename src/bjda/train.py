"""Mini-batch adaptation training loop, SGD with momentum, evaluation, and
the multi-variant sweep used for ablation tables.

Per iteration: draw one source and one target mini-batch (epoch-style
shuffles, reshuffled when exhausted), push both through the extractor,
refresh class prototypes from the source batch, predict target
pseudo-labels, assemble the variant's objective, backprop, and take one SGD
step. All randomness comes from generators derived from cfg.seed, so a
(config, data, seed) triple reproduces its metrics byte for byte.

train() decides once per run, in _open_helper, whether it opens a helper:
a one-worker thread pool, joined before train returns or raises. Its tapes
carry it, so the two batches' forward products and a layer's two adjoint
products run at once; the SGD step hands it half of each tensor's rows and
evaluate half its chunks. Each job computes what the caller would, so the
bytes do not depend on the helper.
"""
from __future__ import annotations

import contextlib
import json
import math
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from . import losses as L
from .autodiff import Tape, Value
from .data import Dataset
from .errors import ConfigError, DimensionError, InputError, NumericalError
from .kernels import GAUSSIAN, KernelSpec, kbw_sq, optimal_assignment
from .losses import Prototypes, one_hot
from .model import (DEFAULT_FEAT, DEFAULT_HIDDEN, ModelDims, ModelParams, check_finite, forward_f,
                    forward_g, forward_probs, hard_pseudo_labels, hidden_array, init_xavier,
                    make_leaves)

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


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters, one config key per field. A kernel_bandwidth_sq
    of None (`auto`) takes the mean-distance heuristic; the LeakyReLU slope is
    model.LEAKY_SLOPE, not a key."""
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
    kernel_kind: str = GAUSSIAN
    kernel_bandwidth_sq: float | None = None
    proto_mode: str = "batch"
    ema_decay: float = 0.9
    hidden_dim: int = DEFAULT_HIDDEN
    feat_dim: int = DEFAULT_FEAT
    eval_every: int = 50

    @property
    def kernel(self) -> KernelSpec:
        return KernelSpec(self.kernel_kind, self.kernel_bandwidth_sq)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        self.kernel  # KernelSpec rejects an unknown kind and a bandwidth <= 0
        _check_seed(self.seed)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError(f"lambda1/lambda2 must be >= 0, got "
                              f"({self.lambda1}, {self.lambda2})")
        if self.lr <= 0:
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
    """One metrics.jsonl line: its fields are the line's keys, in order."""
    iter: int
    l_cls: float
    l_da: float
    l_dmc: float
    total: float
    target_acc: float | None = None  # set at evaluation iterations
    pl_accept: float | None = None   # the share of target rows kept, with pl on


@dataclass
class RunMetrics:
    """A run's records, then summary.json's counters in its order."""
    records: list[IterationRecord] = field(default_factory=list)
    final_per_class_accuracy: dict[int, float] | None = None  # class -> final accuracy
    proto_skips: int = 0          # rows dropped from the margin loss, no usable prototype
    label_term_skips: int = 0     # iterations whose label-alignment term was skipped
    dmc_target_skips: int = 0     # iterations whose margin loss lost its target rows
    trip_degenerate: int = 0      # single-class batches seen by the triplet loss
    train_threads: int = 1        # 2 when the run opened a helper, else 1

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.records)


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


# Rows evaluate labels at a time, through the collapsed head where its
# rounding bound proves them, else through one forward_probs call.
EVAL_CHUNK = 1024


def sgd_update(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
               lr: float, momentum: float, weight_decay: float,
               scratch: np.ndarray | None = None,
               helper: Executor | None = None) -> None:
    """In place: v <- momentum v + grad + weight_decay theta; theta <- theta - lr v.

    scratch, an array of theta's shape, holds the two products in turn, so a
    caller that passes one allocates nothing here. Given a helper, a tensor
    of two or more rows has the first half of its rows updated there while
    the caller updates the rest; both halves are done when this returns.
    The operations and their order are the formula's for every entry either
    way, and so are the bits.
    """
    if scratch is None:
        scratch = np.empty_like(theta)

    def update(t, g, v, s) -> None:
        v *= momentum
        v += g
        v += np.multiply(t, weight_decay, out=s)
        t -= np.multiply(v, lr, out=s)

    arrays = (theta, grad, velocity, scratch)
    half = theta.shape[0] // 2
    if half == 0 or helper is None:
        update(*arrays)
    else:
        ad.both(helper, lambda: update(*(x[half:] for x in arrays)),
                lambda: update(*(x[:half] for x in arrays)))


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


# The alignment terms live here, not in losses: perfbench's tracer wraps
# kbw_sq and optimal_assignment by their names in this module.
def l_da(g_s: Value, y_s_onehot: np.ndarray, g_t: Value, y_t_soft: Value | None,
         spec: KernelSpec = KernelSpec()) -> Value:
    """Feature and label marginal alignment (not joint): kbw_sq on features plus
    kbw_sq on label vectors, blind to balanced target labels all moved one class along.

    y_s_onehot rows are true source labels (constants); y_t_soft rows are
    predicted target probabilities and must each sum to 1 within 1e-6. With
    y_t_soft None the label term is left out, as training does when fewer
    than two target rows pass the pl gate.
    """
    tape = g_s.tape
    if y_t_soft is None:
        return kbw_sq(g_s, g_t, spec, tape)
    rowsums = y_t_soft.value.sum(axis=1)
    if rowsums.size and np.max(np.abs(rowsums - 1.0)) > 1e-6:
        raise InputError("l_da: y_t_soft rows must sum to 1 (off by more than 1e-6)")
    if y_s_onehot.shape[1] != y_t_soft.shape[1]:
        raise DimensionError(
            f"l_da: class counts differ, {y_s_onehot.shape} vs {y_t_soft.shape}")
    feat = kbw_sq(g_s, g_t, spec, tape)
    label = kbw_sq(tape.constant(y_s_onehot, "y_s"), y_t_soft, spec, tape)
    return feat + label


def _wd_loss(g_s: Value, g_t: Value, y_s_1h: np.ndarray, probs_t: Value) -> Value:
    """Exact-transport stand-in for the alignment loss, as one tape node.

    One assignment is solved on the summed feature and label squared-distance
    matrices; the loss is the mean matched cost, so gradients flow through
    the matched pairs only. The adjoint reads the matched rows in O(n d):
    with v the upstream gradient over n and inv = argsort(cols), g_s takes
    2 (v g_s - v g_t[cols]), g_t 2 (v g_t - v g_s[inv]) and probs_t
    2 (v probs_t - v y_s[inv]).
    """
    gs, gt, pt = g_s.value, g_t.value, probs_t.value
    feat = ad.pairwise_sqdist_matrix(gs, gt)
    label = ad.pairwise_sqdist_matrix(y_s_1h, pt)
    cols, _ = optimal_assignment(feat + label)
    rows = np.arange(cols.shape[0])
    k = 1.0 / rows.shape[0]

    def backward(grad):
        v = grad[0, 0] * k
        inv = np.argsort(cols)
        ad._accumulate(probs_t, 2.0 * (v * pt - v * y_s_1h[inv]), owned=True)
        ad._accumulate(g_s, 2.0 * (v * gs - v * gt[cols]), owned=True)
        ad._accumulate(g_t, 2.0 * (v * gt - v * gs[inv]), owned=True)

    value = (np.array([[feat[rows, cols].sum()]]) + label[rows, cols].sum()) * k
    return g_s.tape._record(value, backward, g_s, g_t, probs_t)


def _kept_rows(value: Value, keep: np.ndarray) -> Value:
    """Differentiable row gather; the value itself when every row is kept."""
    if keep.shape[0] == value.shape[0]:
        return value
    return ad.take(value, keep)


@dataclass
class BatchConstants:
    """What one iteration's objective holds fixed; no gradient reaches these."""
    labels_s: np.ndarray      # source labels
    keep: np.ndarray          # target rows that passed the pl gate (all when pl is off)
    margin_labels: np.ndarray  # source labels, then the kept rows' pseudo-labels
    margin_probs: np.ndarray  # the probabilities behind the entropy margins, same rows
    protos: Prototypes


def batch_constants(cfg: TrainConfig, g_s: Value, probs_s: Value, probs_t: Value,
                    labels_s: np.ndarray, protos: Prototypes) -> BatchConstants:
    """Refresh the prototypes from the source batch, where l_dmc reads them,
    and freeze the constants.

    The margin rows take the kept target rows only when at least two passed
    the gate; otherwise they are the source rows alone.
    """
    if _VARIANT_TERMS[cfg.variant][1] == "dmc" and cfg.lambda2 > 0.0:
        protos.update(g_s.value, labels_s)
    pseudo, conf = hard_pseudo_labels(probs_t.value)
    keep = (np.flatnonzero(conf > cfg.confidence_threshold) if cfg.pl
            else np.arange(conf.shape[0]))
    if keep.shape[0] >= 2:
        margin_labels = np.concatenate([labels_s, pseudo[keep]])
        margin_probs = np.vstack([probs_s.value, probs_t.value[keep]])
    else:
        margin_labels, margin_probs = labels_s, probs_s.value
    return BatchConstants(labels_s, keep, margin_labels, margin_probs, protos)


def objective(cfg: TrainConfig, g_s: Value, g_t: Value, probs_s: Value, probs_t: Value,
              const: BatchConstants, metrics: RunMetrics) -> tuple[Value, IterationRecord]:
    """One iteration's objective, cls + lambda1 * alignment + lambda2 * margin,
    with the terms the variant fills, and its record, 0 for a term left out
    and iter 0 until the caller sets it; counts skipped terms into metrics.

    Gradient flows through the forward Values only. A term whose weight is 0
    is not built at all.
    """
    da_kind, con_kind = _VARIANT_TERMS[cfg.variant]
    enough_target = const.keep.shape[0] >= 2
    y_s_1h = one_hot(const.labels_s, probs_s.shape[1])

    da_term = None
    if da_kind is not None and cfg.lambda1 > 0.0:
        if da_kind == "wd":
            da_term = _wd_loss(g_s, g_t, y_s_1h, probs_t)
        else:
            metrics.label_term_skips += not enough_target
            y_t = _kept_rows(probs_t, const.keep) if enough_target else None
            da_term = l_da(g_s, y_s_1h, g_t, y_t, cfg.kernel)

    con_term = None
    if con_kind is not None and cfg.lambda2 > 0.0:
        metrics.dmc_target_skips += not enough_target
        g_all = ad.vstack(g_s, _kept_rows(g_t, const.keep)) if enough_target else g_s
        if con_kind == "dmc":
            con_term, skipped = L.l_dmc(g_all, const.margin_labels, const.margin_probs,
                                        const.protos)
            metrics.proto_skips += skipped
        else:
            con_term, degenerate = L.l_trip(g_all, const.margin_labels, cfg.triplet_margin)
            metrics.trip_degenerate += degenerate

    cls_term = L.l_cls(probs_s, y_s_1h)
    total = L.total_objective(cls_term, da_term, con_term, cfg.lambda1, cfg.lambda2)
    return total, IterationRecord(0, cls_term.item(),
                                  da_term.item() if da_term is not None else 0.0,
                                  con_term.item() if con_term is not None else 0.0,
                                  total.item())


def _step(cfg: TrainConfig, params: ModelParams, scratch: dict[str, np.ndarray],
          protos: Prototypes, metrics: RunMetrics, helper: Executor | None, it: int,
          xs: np.ndarray, ys: np.ndarray,
          xt: np.ndarray) -> tuple[IterationRecord, dict[str, Value]]:
    """One iteration's forward, objective, backward and SGD step, on the run's
    helper if any. Returns its record, less target_acc, and the parameter
    leaves, whose grads the backward made last; the rest of the tape dies here."""
    tape = Tape(helper)
    try:
        leaves = make_leaves(tape, params)
    except NumericalError as err:  # the previous step's update made it
        raise NumericalError(f"{err}, at iteration {it}; the run diverged") from err
    g_s, g_t = forward_g(leaves, tape.constant(xs, "x_s"), tape.constant(xt, "x_t"))
    # squared norms must stay clear of the float64 overflow line (~1e308)
    peak = max(np.abs(g_s.value).max(initial=0.0), np.abs(g_t.value).max(initial=0.0))
    if not math.isfinite(peak) or peak > 1e100:
        raise NumericalError(f"feature magnitudes blew up at iteration {it}; the run diverged")
    probs_s = forward_f(leaves, g_s)
    probs_t = forward_f(leaves, g_t)

    const = batch_constants(cfg, g_s, probs_s, probs_t, ys, protos)
    loss, record = objective(cfg, g_s, g_t, probs_s, probs_t, const, metrics)
    if not math.isfinite(record.total):
        raise NumericalError(f"non-finite loss {record.total!r} at iteration {it}")
    record.iter = it
    record.pl_accept = const.keep.shape[0] / xt.shape[0] if cfg.pl else None

    tape.backward(loss)
    for name in leaves:
        sgd_update(params.tensors[name], leaves[name].grad, params.velocities[name],
                   cfg.lr, cfg.momentum, cfg.weight_decay, scratch[name], helper)
    return record, leaves


def train(source: Dataset, target: Dataset,
          cfg: TrainConfig = TrainConfig()) -> tuple[ModelParams, RunMetrics]:
    """Run the adaptation loop; returns final parameters and per-iteration
    metrics. A NumericalError that ends the run carries them as .metrics."""
    cfg.validate()
    _check_pair(source, target)

    c_count = source.class_count
    params = init_xavier(ModelDims(source.dim, cfg.hidden_dim, cfg.feat_dim, c_count), cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])
    sampler_s = EpochSampler(len(source), cfg.batch_source, rng)
    sampler_t = EpochSampler(len(target), cfg.batch_target, rng)
    # a sampler caps its batch at the dataset's rows; the drawn sizes pass the config's checks too
    drawn = (sampler_s.batch, sampler_t.batch)
    try:
        replace(cfg, batch_source=drawn[0], batch_target=drawn[1]).validate()
    except ConfigError as err:
        data, key = (source, "batch_source") if drawn[0] < drawn[1] else (target, "batch_target")
        raise InputError(f"dataset {data.name!r} has {len(data)} row(s), so {key}="
                         f"{getattr(cfg, key)} draws {min(drawn)}: {err}") from None
    protos = Prototypes(c_count, cfg.feat_dim, cfg.proto_mode, cfg.ema_decay)
    metrics = RunMetrics()
    has_target_labels = bool(np.any(target.labels >= 0))
    # one SGD scratch buffer per run, viewed at each tensor's shape
    flat = np.empty(max(t.size for t in params.tensors.values()))
    scratch = {name: flat[:t.size].reshape(t.shape) for name, t in params.tensors.items()}

    # The previous step's leaves, and with them its parameter grads, are let
    # go only once the next step has made its own. Were every array of a step
    # freed when it returns, the top of the C heap would empty, and malloc
    # would hand it back to the kernel and fault it in again on the next step:
    # ~400 page faults per iteration at 128/64 in some runs and almost none in
    # others, as the heap's layout falls.
    held = None
    with _open_helper(drawn, params.dims) as helper:
        metrics.train_threads = 1 if helper is None else 2
        try:
            for it in range(1, cfg.t_max + 1):
                idx_s = sampler_s.next()
                idx_t = sampler_t.next()
                record, held = _step(cfg, params, scratch, protos, metrics, helper, it,
                                     source.features[idx_s], source.labels[idx_s],
                                     target.features[idx_t])
                if has_target_labels and (it % cfg.eval_every == 0 or it == cfg.t_max):
                    held = None  # evaluate's buffers take the grads' place
                    result = evaluate(params, target, helper=helper)
                    record.target_acc = result.accuracy
                    metrics.final_per_class_accuracy = result.per_class
                metrics.records.append(record)
        except NumericalError as err:
            err.metrics = metrics
            raise

    return params, metrics


# Multiply-adds of a run's larger extractor product on its smaller batch
# from which the run opens a helper. On 2 vCPUs with 1 BLAS thread one
# submit-and-wait round trip to the helper took 18 us, a 64x128x64 product
# 15 us, 64x128x1024 206 us and 64x1024x512 902 us. 2^22 keeps the helper out
# of every run at the 128/64 widths and gives it those of the default 1024/512.
HELPER_FLOOR = 1 << 22


def _open_helper(drawn: tuple[int, int], dims: ModelDims) -> contextlib.AbstractContextManager:
    """A one-worker pool for one train() call, or a context that gives None.

    It opens on the main thread with two usable CPUs when min(drawn batch
    sizes) x hidden x max(input_dim, feat) reaches HELPER_FLOOR. run_suite's
    --jobs workers already fill the CPUs, and cli._load_pair forks only
    while the process runs one thread, as it does until the pool's first job
    and again once the pool is joined.
    """
    work = min(drawn) * dims.hidden * max(dims.input_dim, dims.feat)
    if (work >= HELPER_FLOOR and ad.usable_cpus() >= 2
            and threading.current_thread() is threading.main_thread()):
        return ThreadPoolExecutor(max_workers=1)
    return contextlib.nullcontext()


def _no_labels(data: Dataset) -> InputError:
    return InputError(f"evaluate: dataset {data.name!r} has no labeled rows")


def evaluate(params: ModelParams, data: Dataset,
             helper: Executor | None = None) -> EvalResult:
    """Accuracy over the labeled rows; unlabeled rows are excluded and counted.

    Rows are labeled EVAL_CHUNK at a time with the argmax of forward_probs,
    the pass of predict_probs, so a reloaded checkpoint predicts the same
    labels: from the collapsed head h (W2 Wc) where a rounding bound proves
    them, else from forward_probs on the whole chunk. Given a helper and two
    or more chunks, autodiff.both runs the second of two strided halves of
    the chunks there while the caller runs the first; a nonempty half
    reuses one hidden-layer buffer. A chunk's arithmetic does not depend on
    its thread, so neither do the predictions. A non-finite parameter raises
    NumericalError naming it.
    """
    check_finite(params, "evaluate")
    d = params.dims
    if data.dim != d.input_dim:
        raise DimensionError(f"evaluate: dataset {data.name!r} has {data.dim} columns, "
                             f"the model takes {d.input_dim}")
    n = len(data)
    starts = range(0, n, EVAL_CHUNK)
    preds = np.empty(n, dtype=np.int64)
    t = params.tensors
    wc, abs_wc = t["wc"], np.abs(t["wc"])
    wh, c = t["w2"] @ wc, t["b2"] @ wc + t["bc"]
    m, r = np.abs(t["w2"]) @ abs_wc, np.abs(t["b2"]) @ abs_wc + np.abs(t["bc"])
    # A row's label is proved when its collapsed top-two gap clears slack.
    # By the gamma_n bound for products and sums (Higham, Accuracy and
    # Stability of Numerical Algorithms, 3.5), in any summation order, both
    # forward_probs' (h W2 + b2) Wc + bc and the collapsed h wh + c lie within
    # gamma_n B of this h's exact logits, n = hidden + feat + 3 and B = |h|
    # |W2| |Wc| + |b2| |Wc| + |bc|; the computed bound is at least (1 -
    # gamma_n) B. So a gap over 8 gamma_n max_c bound, above 4 gamma_n B,
    # keeps forward_probs' top class, and the 64u term its lead over 60u:
    # then softmax shifts the runner-up below -60u, exp (faithful to an ulp)
    # puts it below 1 - 58u, and dividing it and exp(0) = 1 by the row sum
    # leaves them many ulps apart, so argmax's tie rule never fires. NaN or
    # inf fails the test.
    u = 2.0 ** -53
    gamma = (d.hidden + d.feat + 3) * u / (1.0 - (d.hidden + d.feat + 3) * u)

    def predict(half: range) -> None:
        h = np.empty((min(EVAL_CHUNK, n), d.hidden)) if half else None
        for start in half:
            x = data.features[start:start + EVAL_CHUNK]
            k = x.shape[0]
            if d.classes >= 2:
                logits = hidden_array(t, x, h[:k]) @ wh + c
                bound = np.abs(h[:k], out=h[:k]) @ m + r
                top2 = np.partition(logits, d.classes - 2, axis=1)[:, -2:]
                slack = (8.0 * gamma * bound.max(axis=1)
                         + 64.0 * u * (1.0 + np.abs(logits).max(axis=1)))
                if np.all(top2[:, 1] - top2[:, 0] > slack):
                    preds[start:start + k] = np.argmax(logits, axis=1)
                    continue
            probs = forward_probs(t, x, h[:k])
            preds[start:start + k] = hard_pseudo_labels(probs)[0]

    ad.both(helper if len(starts) >= 2 else None, lambda: predict(starts[0::2]),
            lambda: predict(starts[1::2]))

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
        for variant in dict.fromkeys(c.variant for c in self.cells):  # first-seen order
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
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if not variants or not seeds:
        raise ConfigError("the suite needs at least one variant and one seed")
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}")
    for s in seeds:  # a bad seed fails the sweep before any cell runs
        _check_seed(s)
    configs = [replace(cfg, variant=v, seed=s) for v in variants for s in seeds]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(lambda c: _run_cell(source, target, c), configs))
    else:
        cells = [_run_cell(source, target, c) for c in configs]
    return SuiteResult(cells)
