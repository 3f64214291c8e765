"""Training losses: classification and the two prototype/margin contrastive
terms, with the prototype state and the weighted total. The alignment terms
(l_da and the wd transport loss) live in bjda.train, beside the objective
that combines them with these.

Each loss returns a 1x1 tape Value so the trainer can combine terms and
run one backward pass. Quantities the gradient must NOT flow through
(prediction probabilities used as margins, prototype coordinates, pseudo
labels) are taken as plain arrays, never tape Values, and held inside the
loss's node. l_cls, l_dmc, l_trip and total_objective record one node
each; l_trip's holds the counts of triplet_hinge, a plain-array function.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .errors import ConfigError, DimensionError, DomainError, InputError

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
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise InputError(f"prototype update: label out of range [0, {self.class_count})")
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


def l_cls(pred_probs: Value, y_onehot: np.ndarray) -> Value:
    """Mean cross-entropy -(1/n) sum_i sum_c y_ic ln p_ic, as one tape node.

    Probabilities are clamped at 1e-12 before the log, so saturated softmax
    outputs cannot produce infinities; gradient passes only where p > 1e-12.
    """
    n, c = pred_probs.shape
    y = ad.as_matrix(y_onehot, "y_onehot")
    if y.shape != (n, c):
        raise DimensionError(f"l_cls: labels {y.shape} do not match predictions {(n, c)}")
    if n == 0:
        raise InputError("l_cls: empty batch")
    p = pred_probs.value
    clamped = np.maximum(p, PROB_FLOOR)
    k = -1.0 / n

    def backward(grad):
        ad._accumulate(pred_probs, grad[0, 0] * k * y / clamped * (p > PROB_FLOOR), owned=True)

    value = np.array([[(np.log(clamped) * y).sum()]]) * k
    return pred_probs.tape._record(value, backward, pred_probs)


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

    One tape node. Its adjoint gives each active row's distance to its own
    prototype the upstream gradient over the row count, and its distance to
    the negative that gradient negated, and takes both through the square
    root and the distances into g.
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
        return tape.constant(np.zeros((1, 1)), "l_dmc_zero"), skipped

    gv, protos_v = g.value, protos.vectors.copy()
    sq = ad.pairwise_sqdist_matrix(gv, protos_v)
    dist = np.sqrt(sq)

    # negative class: nearest *present* other-class prototype, first index
    # winning ties
    neg_idx = np.argmin(np.where(other_present, dist, np.inf), axis=1)

    # a skipped row reads its own prototype twice: its hinge argument is 0
    rows = np.arange(n)
    neg_cols = np.where(valid, neg_idx, labels)
    margins = (entropy_margins(pred_probs) * valid).reshape(n, 1)
    arg = (dist[rows, labels] - dist[rows, neg_cols]).reshape(n, 1) + margins
    k = 1.0 / (n - skipped)

    def backward(grad):
        d_arg = grad[0, 0] * k * (arg[:, 0] > 0.0)
        d_dist = np.zeros_like(dist)
        d_dist[rows, neg_cols] = -d_arg
        d_dist[rows, labels] = d_arg   # a skipped row's d_arg is 0
        with np.errstate(divide="ignore"):
            d_sq = d_dist * np.where(sq > 0.0, 0.5 / dist, 0.0)
        ad._accumulate(g, 2.0 * (d_sq.sum(axis=1, keepdims=True) * gv - d_sq @ protos_v),
                       owned=True)

    value = np.array([[np.maximum(arg, 0.0).sum()]]) * k
    return tape._record(value, backward, g), skipped


def triplet_hinge(d: np.ndarray, labels, margin: float) -> tuple[float, np.ndarray]:
    """Batch-all triplet hinge sum of an n x n distance matrix d, and its counts.

    Sums max{d_ij - d_ik + margin, 0} over anchors i, same-class j != i and
    other-class k, reading anchor rows of d. Every entry of d must be >= 0
    (a -0.0 counts as +0.0) and margin finite and >= 0. Rounding is
    monotone, so the float test (d_ij - d_ik) + margin > 0 is monotone in
    d_ik: it holds exactly when d_ik < T_ij, the smallest float q with
    (d_ij - q) + margin <= 0, found by one-ulp steps down from
    fl(d_ij + margin), or from one ulp above it where that sum rounded down.
    One argsort of each anchor row sorts packed uint64 keys: the bits of the
    non-negative float, T_ij at same-class columns and d_ik at the others,
    shifted left one place, so their integer order is the float order, with
    a low bit of 1 at other-class columns, so a threshold sorts before an
    equal distance, and a key of 0 at j == i, so no negative lies below it.
    The counts are running sums over that order: counts[i, j] is the number
    of negatives below T_ij, counts[i, k] minus the number of thresholds
    above d_ik. The counts are exact, and they are the sum's gradient in d.
    The sum is <counts, d> + margin * (active triples), so it rounds like
    that dot product: its error scales with sum |counts * d|, not with the
    hinge sum, and hinges tiny against the distances can lose every digit of
    it. O(n^2 log n) time, O(n^2) memory.
    """
    n = d.shape[0]
    labels = np.asarray(labels)
    if d.shape != (n, n) or labels.shape != (n,):
        raise DimensionError(f"triplet_hinge: expected a square matrix and one label "
                             f"per row, got {d.shape} and {labels.shape}")
    margin = float(margin)
    if not 0.0 <= margin < np.inf:
        raise ConfigError(f"triplet_hinge: margin must be finite and >= 0, got {margin}")
    if d.size and not d.min() >= 0.0:
        i, j = np.argwhere(~(d >= 0.0))[0]
        raise DomainError(f"triplet_hinge: negative or NaN entry {d[i, j]!r} at ({i}, {j})")
    same = labels[:, None] == labels
    other = ~same
    pos = d[same]
    t = pos + margin
    # T_ij is stepped on t's bits: t >= 0, so a step of 1 is one ulp, and
    # below +0.0 the bits wrap to a NaN, which never passes the test
    bits = t.view(np.uint64)
    bits += (pos - t) + margin > 0.0   # t rounded down and is active; one ulp up never is
    while True:
        down = (pos - (bits - 1).view(np.float64)) + margin <= 0.0
        if not down.any():
            break
        bits -= down
    keys = d.view(np.uint64) << 1   # drops the sign bit: -0.0 keys as +0.0
    keys |= other
    keys[same] = bits << 1
    np.fill_diagonal(keys, 0)
    order = np.argsort(keys, axis=1)
    order += n * np.arange(n)[:, None]   # flat indices
    is_neg = other.take(order)
    negs_before = np.cumsum(is_neg, axis=1)
    thresholds_after = np.count_nonzero(same, axis=1)[:, None] - np.arange(1, n + 1) + negs_before
    counts = np.empty((n, n))
    counts.ravel()[order] = np.where(is_neg, -thresholds_after, negs_before)
    # each active triple adds +1 at (i, j) and -1 at (i, k)
    return np.vdot(counts, d) + margin * (np.abs(counts).sum() / 2), counts


def l_trip(g: Value, labels: np.ndarray, margin: float) -> tuple[Value, int]:
    """Batch-all triplet loss over every (anchor, positive, negative) triple.

    For anchor i, every same-class j != i is a positive and every other-class
    k is a negative, each triple contributing
    max{ Dist(g_i, g_j) - Dist(g_i, g_k) + margin, 0 }. The loss is the sum
    over all valid triples, not a per-row mean like l_dmc, so its weight
    against the mean cross-entropy grows with the batch. A batch with fewer
    than two classes contributes 0; the second return flags that case.

    One tape node. Its adjoint takes the upstream gradient times
    triplet_hinge's counts through the square root, then through the
    distances into g, the anchors' side and then the other side.
    """
    margin = float(margin)
    if not 0.0 <= margin < np.inf:
        raise ConfigError(f"l_trip: margin must be finite and >= 0, got {margin}")
    n = g.shape[0]
    labels = np.asarray(labels)
    if labels.shape[0] != n:
        raise DimensionError(f"l_trip: got {n} feature rows for {labels.shape[0]} labels")
    if np.unique(labels).size < 2:
        return g.tape.constant(np.zeros((1, 1)), "l_trip_zero"), 1
    gv = g.value
    sq = ad.pairwise_sqdist_matrix(gv, gv)
    dist = np.sqrt(sq)
    total, counts = triplet_hinge(dist, labels, margin)

    def backward(grad):
        with np.errstate(divide="ignore"):
            d_sq = grad[0, 0] * counts * np.where(sq > 0.0, 0.5 / dist, 0.0)
        ad._accumulate(g, 2.0 * (d_sq.sum(axis=1, keepdims=True) * gv - d_sq @ gv), owned=True)
        ad._accumulate(g, 2.0 * (d_sq.sum(axis=0)[:, None] * gv - d_sq.T @ gv), owned=True)

    return g.tape._record(np.array([[total]]), backward, g), 0


def total_objective(cls_term: Value, da_term: Value | None, con_term: Value | None,
                    lambda1: float, lambda2: float) -> Value:
    """Weighted sum cls + lambda1 * da + lambda2 * con of whichever terms
    exist, as one tape node; cls_term itself when neither does. The adjoint
    adds the upstream gradient times each weight (1 for cls) into its term,
    in the order the composed form's adds reach them: the last term, cls,
    then the first term."""
    lambda1 = float(lambda1)
    lambda2 = float(lambda2)
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ConfigError(f"loss weights must be >= 0, got ({lambda1}, {lambda2})")
    terms = [(t, w) for t, w in ((da_term, lambda1), (con_term, lambda2)) if t is not None]
    if not terms:
        return cls_term
    value = cls_term.value
    for term, weight in terms:
        ad._join(cls_term, term)
        if term.shape != cls_term.shape:
            raise DimensionError(f"total_objective: shapes differ, {cls_term.shape} vs {term.shape}")
        value = value + term.value * weight
    order = [*reversed(terms[1:]), (cls_term, 1.0), terms[0]]

    def backward(g):
        for term, weight in order:
            ad._accumulate(term, g * weight, owned=True)

    return cls_term.tape._record(value, backward, cls_term, *(t for t, _ in terms))
