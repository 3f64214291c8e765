"""Feature extractor + classifier head, parameter init, and checkpoints.

The network is deliberately small and fixed in shape: a two-layer extractor
x -> leaky_relu(x W1 + b1) W2 + b2 followed by a softmax classifier head.
Hidden and feature widths are configurable; defaults are 1024 and 512. The
LeakyReLU slope is the constant LEAKY_SLOPE, so a checkpoint, which stores
the dims and tensors only, determines its model's predictions.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Value
from .errors import ConfigError, DimensionError, NumericalError, ParseError

CHECKPOINT_MAGIC = b"BJDA"
CHECKPOINT_VERSION = 1
PARAM_NAMES = ("w1", "b1", "w2", "b2", "wc", "bc")
DEFAULT_HIDDEN = 1024
DEFAULT_FEAT = 512
LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class ModelDims:
    input_dim: int
    hidden: int = DEFAULT_HIDDEN
    feat: int = DEFAULT_FEAT
    classes: int = 2

    def __post_init__(self):
        for name in ("input_dim", "hidden", "feat", "classes"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"model dims: {name} must be a positive int, got {v!r}")

    def param_shapes(self) -> dict[str, tuple[int, int]]:
        return {
            "w1": (self.input_dim, self.hidden), "b1": (1, self.hidden),
            "w2": (self.hidden, self.feat), "b2": (1, self.feat),
            "wc": (self.feat, self.classes), "bc": (1, self.classes),
        }


@dataclass
class ModelParams:
    """Parameter tensors plus per-parameter momentum buffers."""
    dims: ModelDims
    tensors: dict[str, np.ndarray]
    velocities: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        shapes = self.dims.param_shapes()
        for name in PARAM_NAMES:
            if self.tensors[name].shape != shapes[name]:
                raise ConfigError(f"param {name}: expected shape {shapes[name]}, "
                                  f"got {self.tensors[name].shape}")
        if not self.velocities:
            self.velocities = {n: np.zeros(shapes[n]) for n in PARAM_NAMES}


def init_xavier(dims: ModelDims, seed: int) -> ModelParams:
    """Xavier-uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases.

    Weight matrices are drawn in the fixed order w1, w2, wc from a generator
    seeded with `seed`, so the same seed always gives the same parameters.
    """
    rng = np.random.default_rng(seed)
    shapes = dims.param_shapes()

    def draw(shape):
        bound = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-bound, bound, size=shape)

    tensors = {}
    for w, b in (("w1", "b1"), ("w2", "b2"), ("wc", "bc")):
        tensors[w] = draw(shapes[w])
        tensors[b] = np.zeros(shapes[b])
    return ModelParams(dims, tensors)


def check_finite(params: ModelParams, where: str) -> None:
    """Raise NumericalError naming the first parameter with a non-finite entry."""
    for name in PARAM_NAMES:
        t = params.tensors[name]
        if not np.isfinite(t).all():
            i, j = np.argwhere(~np.isfinite(t))[0]
            raise NumericalError(f"{where}: parameter {name} has a non-finite "
                                 f"entry at ({i}, {j})")


def make_leaves(tape: Tape, params: ModelParams) -> dict[str, Value]:
    """Record every parameter tensor on the tape; grads land in leaf.grad.

    The leaves wrap params.tensors without a copy, so an update made after
    backward shows through them. A non-finite parameter (a diverged SGD
    step) raises NumericalError naming it.
    """
    check_finite(params, "make_leaves")
    return {name: tape.leaf(params.tensors[name], name, copy=False) for name in PARAM_NAMES}


def _fit(x: Value, w: Value, b: Value) -> Tape:
    """The tape of x, W and b, once x W + b is defined."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise DimensionError(f"dense: x {x.shape}, W {w.shape} and b {b.shape} do not fit")
    ad._join(x, b)
    return ad._join(x, w)


def dense(x: Value, w: Value, b: Value, act: str | None = None,
          xw: np.ndarray | None = None) -> Value:
    """One tape node for act(x W + b), act None, "leaky" (LEAKY_SLOPE) or
    "softmax" over rows; xw, when given, is x W, already computed.

    The adjoint takes d, the gradient at x W + b, through the activation;
    b gets d's column sums, W gets x^T d and x gets d W^T. When x takes a
    gradient and the tape has a helper, the helper computes x^T d while the
    caller computes d W^T.
    """
    tape = _fit(x, w, b)
    z = x.value @ w.value if xw is None else xw
    z += b.value
    if act == "leaky":
        out = ad.leaky_relu_array(z, LEAKY_SLOPE, out=z)
    else:
        out = ad.softmax_rows_array(z) if act == "softmax" else z

    def backward(g):
        if act == "leaky":
            # 1 where the pre-activation is > 0, and so out is, else the slope
            d = (out > 0.0).astype(np.float64)
            np.maximum(d, LEAKY_SLOPE, out=d)
            np.multiply(g, d, out=d)
        elif act == "softmax":   # ds_ij/dz_ik = s_ij (delta_jk - s_ik)
            d = out * (g - (g * out).sum(axis=1, keepdims=True))
        else:
            d = g
        ad._accumulate(b, d.sum(axis=0, keepdims=True), owned=True)
        if x.constant:
            ad._accumulate(w, x.value.T @ d, owned=True)
        else:
            dx, dw = ad.both(tape.helper, lambda: d @ w.value.T, lambda: x.value.T @ d)
            ad._accumulate(x, dx, owned=True)
            ad._accumulate(w, dw, owned=True)

    return tape._record(out, backward, x, w, b)


def forward_g(leaves: dict[str, Value], x_s: Value, x_t: Value) -> tuple[Value, Value]:
    """Feature extractor leaky_relu(x W1 + b1) W2 + b2 (linear output) on a
    source and a target batch, one dense node per layer and batch.

    Each layer records the source's node, then the target's, and a tape with
    a helper computes the weight's two products at once (autodiff.both). In
    the reverse pass every parameter still takes the target's adjoint before
    the source's, as when the two batches' passes are recorded in turn.
    """
    pair = (x_s, x_t)
    for w, b, act in ((leaves["w1"], leaves["b1"], "leaky"), (leaves["w2"], leaves["b2"], None)):
        for x in pair:
            _fit(x, w, b)
        products = ad.both(w.tape.helper, lambda: pair[0].value @ w.value,
                           lambda: pair[1].value @ w.value)
        pair = tuple(dense(x, w, b, act, xw) for x, xw in zip(pair, products))
    return pair


def forward_f(leaves: dict[str, Value], g: Value) -> Value:
    """Classifier head softmax(g Wc + bc) as one dense node; rows sum to 1."""
    return dense(g, leaves["wc"], leaves["bc"], "softmax")


def predict_probs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Inference-only forward pass on plain arrays: no tape, no grad buffers.

    x gets the checks a tape leaf gives it; a non-finite parameter raises
    NumericalError naming it. The pass is forward_probs.
    """
    x = ad.as_matrix(x, "x")
    if x.shape[1] != params.tensors["w1"].shape[0]:
        raise DimensionError(f"predict_probs: x has {x.shape[1]} columns, "
                             f"the model takes {params.tensors['w1'].shape[0]}")
    check_finite(params, "predict_probs")
    return forward_probs(params.tensors, x)


def hidden_array(tensors: dict[str, np.ndarray], x: np.ndarray,
                 h: np.ndarray | None = None) -> np.ndarray:
    """forward_probs' hidden layer leaky_relu(x W1 + b1), written into h
    (rows x hidden) when given, with the bits of the tape's."""
    h = np.matmul(x, tensors["w1"], out=h)
    h += tensors["b1"]
    return ad.leaky_relu_array(h, LEAKY_SLOPE, out=h)


def forward_probs(tensors: dict[str, np.ndarray], x: np.ndarray,
                  h: np.ndarray | None = None) -> np.ndarray:
    """forward_f of forward_g's features for x, on plain, unchecked arrays.

    Runs the arithmetic of forward_g and forward_f op for op, so the result
    equals the tape's forward bit for bit. h (rows x hidden), when given, is
    the buffer the hidden layer is written into. train.evaluate labels
    through the collapsed head W2 Wc where it proves the same argmax.
    """
    g = hidden_array(tensors, x, h) @ tensors["w2"]
    g += tensors["b2"]
    return ad.softmax_rows_array(g @ tensors["wc"] + tensors["bc"])


def hard_pseudo_labels(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise argmax labels (ties -> lowest index) and their probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.argmax(probs, axis=1)
    conf = probs[np.arange(probs.shape[0]), labels]
    return labels.astype(np.int64), conf


# ---------------------------------------------------------------------------
# checkpoint file: magic, u32 version, u32 dims (input, hidden, feat, classes),
# then w1, b1, w2, b2, wc, bc as row-major little-endian float64


def save_checkpoint(params: ModelParams, path) -> None:
    d = params.dims
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<5I", CHECKPOINT_VERSION,
                             d.input_dim, d.hidden, d.feat, d.classes))
        for name in PARAM_NAMES:
            fh.write(np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; momentum buffers come back zeroed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24 or raw[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a model checkpoint (bad magic)")
    version, input_dim, hidden, feat, classes = struct.unpack_from("<5I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    try:
        dims = ModelDims(input_dim, hidden, feat, classes)
    except ConfigError as err:
        raise ParseError(f"{path}: invalid dimensions in header: {err}") from err
    shapes = dims.param_shapes()
    expected = 24 + sum(r * c for r, c in shapes.values()) * 8
    if len(raw) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for dims "
                         f"{(input_dim, hidden, feat, classes)}, got {len(raw)}")
    offset = 24
    tensors = {}
    for name in PARAM_NAMES:
        r, c = shapes[name]
        n = r * c * 8
        tensors[name] = np.frombuffer(raw[offset:offset + n], dtype="<f8").reshape(r, c).copy()
        offset += n
    return ModelParams(dims, tensors)
