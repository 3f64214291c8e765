"""Training losses: classification and the two prototype/margin contrastive
terms, with the prototype state and the weighted total. The alignment terms
(l_da and the wd transport loss) live in bjda.train, beside the objective
that combines them with these.

Everything here returns 1x1 tape Values so the trainer can combine terms and
run one backward pass. Quantities the gradient must NOT flow through
(prediction probabilities used as margins, prototype coordinates, pseudo
labels) are taken as plain arrays, never tape Values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .errors import ConfigError, DimensionError, InputError

PROB_FLOOR = 1e-12
PROTO_MODES = ("batch", "ema")


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    """Rows of the identity picked by label; labels must lie in [0, C)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise InputError(f"one_hot: label out of range [0, {class_count})")
    out = np.zeros((labels.shape[0], class_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def entropy_margins(probs: np.ndarray) -> np.ndarray:
    """Per-row Shannon entropy -sum_c p_c ln p_c, probs clamped at 1e-12."""
    p = np.maximum(np.asarray(probs, dtype=np.float64), PROB_FLOOR)
    return -(p * np.log(p)).sum(axis=1)


@dataclass
class Prototypes:
    """Per-class feature centroids with presence flags.

    batch mode recomputes each present class's centroid from the given batch;
    ema mode blends it into the running value with factor decay once a class
    has been seen. Updates take plain arrays: prototypes are constants to the
    gradient.
    """
    class_count: int
    feat_dim: int
    mode: str = "batch"
    decay: float = 0.9
    vectors: np.ndarray = field(init=False)
    present: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.mode not in PROTO_MODES:
            raise ConfigError(f"prototype mode must be one of {PROTO_MODES}, got {self.mode!r}")
        if not 0.0 <= self.decay < 1.0:
            raise ConfigError(f"prototype decay must be in [0, 1), got {self.decay!r}")
        self.vectors = np.zeros((self.class_count, self.feat_dim))
        self.present = np.zeros(self.class_count, dtype=bool)

    def update(self, features: np.ndarray, labels: np.ndarray) -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.shape != (labels.shape[0], self.feat_dim):
            raise DimensionError(
                f"prototype update: got features {features.shape} for {labels.shape[0]} labels")
        if self.mode == "batch":
            self.vectors[:] = 0.0
            self.present[:] = False
        for c in np.unique(labels):
            mean = features[labels == c].mean(axis=0)
            if self.mode == "ema" and self.present[c]:
                self.vectors[c] = self.decay * self.vectors[c] + (1.0 - self.decay) * mean
            else:
                self.vectors[c] = mean
            self.present[c] = True


@dataclass
class LossBreakdown:
    """Scalar loss terms of one iteration; disabled terms are logged as 0."""
    l_cls: float
    l_da: float
    l_dmc: float
    total: float


def l_cls(pred_probs: Value, y_onehot: np.ndarray) -> Value:
    """Mean cross-entropy -(1/n) sum_i sum_c y_ic ln p_ic.

    Probabilities are clamped at 1e-12 before the log, so saturated softmax
    outputs cannot produce infinities.
    """
    n, c = pred_probs.shape
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.shape != (n, c):
        raise DimensionError(f"l_cls: labels {y.shape} do not match predictions {(n, c)}")
    if n == 0:
        raise InputError("l_cls: empty batch")
    y_leaf = pred_probs.tape.leaf(y, "y_onehot")
    logp = ad.clamp_min(pred_probs, PROB_FLOOR).log()
    return ad.scale((logp * y_leaf).sum(), -1.0 / n)


def l_dmc(g: Value, labels: np.ndarray, pred_probs: np.ndarray,
          protos: Prototypes) -> tuple[Value, int]:
    """Discriminative margin loss against class prototypes.

    Per row i with label y_i, with Dist the (non-squared) Euclidean distance
    and alpha_i the prediction entropy:

        max{ Dist(g_i, p_yi) - min_{c != y_i} Dist(g_i, p_c) + alpha_i, 0 }

    averaged over the rows that are not skipped, so its weight against the
    mean cross-entropy does not grow with the batch size. alpha_i, pred_probs
    and the prototypes are constants; gradient flows only through g_i. Rows
    whose own prototype is absent, or with no other prototype present, are
    skipped; the skip count is returned.
    Ties in the min go to the lowest class index.
    """
    n = g.shape[0]
    labels = np.asarray(labels)
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    if labels.shape[0] != n or pred_probs.shape[0] != n:
        raise DimensionError(f"l_dmc: got {n} feature rows, {labels.shape[0]} labels, "
                             f"{pred_probs.shape[0]} probability rows")
    if g.shape[1] != protos.feat_dim:
        raise DimensionError(f"l_dmc: feature dim {g.shape[1]} != prototype dim {protos.feat_dim}")
    if labels.size and (labels.min() < 0 or labels.max() >= protos.class_count):
        raise InputError(f"l_dmc: label out of range [0, {protos.class_count})")

    tape = g.tape
    c_count = protos.class_count
    own_present = protos.present[labels]
    other_present = protos.present[None, :] & (labels[:, None] != np.arange(c_count)[None, :])
    valid = own_present & other_present.any(axis=1)
    skipped = int(n - valid.sum())
    if not valid.any():
        return tape.leaf(np.zeros((1, 1)), "l_dmc_zero"), skipped

    dist = ad.pairwise_sqdist(g, tape.leaf(protos.vectors, "protos")).sqrt()

    # negative class: nearest *present* other-class prototype, on detached
    # distances, first index winning ties
    masked = np.where(other_present, dist.value, np.inf)
    neg_idx = np.argmin(masked, axis=1)

    pos_mask = np.zeros((n, c_count))
    neg_mask = np.zeros((n, c_count))
    rows = np.arange(n)[valid]
    pos_mask[rows, labels[valid]] = 1.0
    neg_mask[rows, neg_idx[valid]] = 1.0

    ones_c = tape.leaf(np.ones((c_count, 1)), "ones")
    d_pos = (dist * tape.leaf(pos_mask, "pos_mask")) @ ones_c
    d_neg = (dist * tape.leaf(neg_mask, "neg_mask")) @ ones_c
    margins = (entropy_margins(pred_probs) * valid).reshape(n, 1)
    hinge = ad.clamp_min(d_pos - d_neg + tape.leaf(margins, "margins"), 0.0)
    return ad.scale(hinge.sum(), 1.0 / (n - skipped)), skipped


def l_trip(g: Value, labels: np.ndarray, margin: float) -> tuple[Value, int]:
    """Batch-all triplet loss over every (anchor, positive, negative) triple.

    For anchor i, every same-class j != i is a positive and every other-class
    k is a negative, each triple contributing
    max{ Dist(g_i, g_j) - Dist(g_i, g_k) + margin, 0 }. The loss is the sum
    over all valid triples, not a per-row mean like l_dmc, so its weight
    against the mean cross-entropy grows with the batch. A batch with fewer
    than two classes contributes 0; the second return flags that case.
    """
    margin = float(margin)
    if margin < 0.0:
        raise ConfigError(f"l_trip: margin must be >= 0, got {margin}")
    n = g.shape[0]
    labels = np.asarray(labels)
    if labels.shape[0] != n:
        raise DimensionError(f"l_trip: got {n} feature rows for {labels.shape[0]} labels")
    if np.unique(labels).size < 2:
        return g.tape.leaf(np.zeros((1, 1)), "l_trip_zero"), 1
    dist = ad.pairwise_sqdist(g, g).sqrt()
    return ad.triplet_hinge(dist, labels, margin), 0


def total_objective(cls_term: Value, da_term: Value | None, con_term: Value | None,
                    lambda1: float, lambda2: float) -> Value:
    """Weighted sum cls + lambda1 * da + lambda2 * con of whichever terms exist."""
    lambda1 = float(lambda1)
    lambda2 = float(lambda2)
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ConfigError(f"loss weights must be >= 0, got ({lambda1}, {lambda2})")
    total = cls_term
    if da_term is not None:
        total = total + ad.scale(da_term, lambda1)
    if con_term is not None:
        total = total + ad.scale(con_term, lambda2)
    return total
