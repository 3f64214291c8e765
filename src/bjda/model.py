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


def forward_g(leaves: dict[str, Value], x_s: Value, x_t: Value) -> tuple[Value, Value]:
    """Feature extractor leaky_relu(x W1 + b1) W2 + b2 (linear output) on a
    source and a target batch.

    Each layer records the source's node, then the target's, and the
    weight's two products go through autodiff.matmul_pair, so a tape with a
    helper computes them at once. In the reverse pass every parameter still
    takes the target's adjoint before the source's, as when the two
    batches' passes are recorded one after the other.
    """
    z_s, z_t = ad.matmul_pair(x_s, x_t, leaves["w1"])
    h_s, h_t = (ad.leaky_relu(ad.add_rowvec(z, leaves["b1"]), LEAKY_SLOPE) for z in (z_s, z_t))
    z_s, z_t = ad.matmul_pair(h_s, h_t, leaves["w2"])
    return ad.add_rowvec(z_s, leaves["b2"]), ad.add_rowvec(z_t, leaves["b2"])


def forward_f(leaves: dict[str, Value], g: Value) -> Value:
    """Classifier head: softmax over g Wc + bc; rows sum to 1."""
    return ad.softmax_rows(ad.add_rowvec(g @ leaves["wc"], leaves["bc"]))


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
