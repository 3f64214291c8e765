"""Each node that training records in one piece against the tape_ops
oracles it replaced: its value and every leaf's gradient equal the
composition's bit for bit, on a plain tape and on one whose helper, a
one-worker pool, takes every pair of products."""
import contextlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_ops as ops
from bjda.autodiff import Tape
from bjda.errors import DimensionError
from bjda.kernels import KernelSpec, kbw_sq
from bjda.losses import total_objective
from bjda.model import PARAM_NAMES, dense, forward_f, forward_g

# an upstream or prior weight of either zero flips the sign of zero products
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.3]), st.floats(-1e3, 1e3))
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def run(build, inputs, constant, upstreams, prior, pooled):
    """The bytes of build's outputs and of each input's gradient after a
    backward pass from the sum of <output, upstream> over the outputs. Inputs
    marked constant go on the tape as constants. With prior, prior * (the
    sum of every input's entries) joins the root after the outputs, so its
    gradient reaches the inputs first. pooled gives the tape a one-worker
    pool as its helper."""
    with ThreadPoolExecutor(max_workers=1) if pooled else contextlib.nullcontext() as helper:
        tape = Tape(helper)
        values = [tape.constant(x) if c else tape.leaf(x) for x, c in zip(inputs, constant)]
        outs = build(*values)
        outs = outs if isinstance(outs, tuple) else (outs,)
        root = None
        for out, upstream in zip(outs, upstreams):
            term = ops.sum_all(ops.hadamard(out, tape.constant(upstream)))
            root = term if root is None else root + term
        if prior is not None:
            for v in values:
                root = root + ops.scale(ops.sum_all(v), prior)
        tape.backward(root)
    return [out.value.tobytes() for out in outs], [v.grad.tobytes() for v in values]


def assert_same_bits(fused, composed, inputs, constant, upstreams, prior):
    for pooled in (False, True):
        want = run(composed, inputs, constant, upstreams, prior, pooled)
        assert run(fused, inputs, constant, upstreams, prior, pooled) == want


def grid(draw, rng, shape):
    """Entries on a small integer grid, so sums tie and hit 0 exactly,
    sometimes scaled off it."""
    x = rng.integers(-2, 3, size=shape).astype(float)
    return x * draw(st.floats(0.01, 3.0)) if draw(st.booleans()) else x


@st.composite
def layer_batches(draw):
    n, k, m = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inputs = [grid(draw, rng, (n, k)), grid(draw, rng, (k, m)), grid(draw, rng, (1, m))]
    upstream = np.array(draw(st.lists(WEIGHTS, min_size=n * m, max_size=n * m))).reshape(n, m)
    act = draw(st.sampled_from([None, "leaky", "softmax"]))
    constant = [draw(st.booleans()), False, False]   # x is a constant in the first layer
    return act, inputs, constant, upstream, draw(st.one_of(st.none(), WEIGHTS))


@EXAMPLES
@given(layer_batches())
def test_a_layer_and_the_head_match_their_composed_ops_bit_for_bit(batch):
    act, inputs, constant, upstream, prior = batch
    assert_same_bits(lambda x, w, b: dense(x, w, b, act),
                     lambda x, w, b: ops.dense_composed(x, w, b, act),
                     inputs, constant, [upstream], prior)


@st.composite
def model_batches(draw):
    k, hidden, feat, c = (draw(st.integers(1, 4)) for _ in range(4))
    n_s, n_t = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = {"w1": (k, hidden), "b1": (1, hidden), "w2": (hidden, feat), "b2": (1, feat),
              "wc": (feat, c), "bc": (1, c)}
    inputs = [grid(draw, rng, shapes[name]) for name in PARAM_NAMES]
    inputs += [grid(draw, rng, (n_s, k)), grid(draw, rng, (n_t, k))]
    upstreams = [rng.normal(size=shape) for shape in ((n_s, feat), (n_t, feat), (n_s, c), (n_t, c))]
    return inputs, upstreams, draw(st.one_of(st.none(), WEIGHTS))


def model_step(forward, head):
    """The features and both heads' probabilities of a training step."""
    def build(*values):
        leaves = dict(zip(PARAM_NAMES, values))
        g_s, g_t = forward(leaves, *values[len(PARAM_NAMES):])
        return g_s, g_t, head(leaves, g_s), head(leaves, g_t)
    return build


def head_composed(leaves, g):
    return ops.dense_composed(g, leaves["wc"], leaves["bc"], "softmax")


@EXAMPLES
@given(model_batches())
def test_a_steps_model_nodes_match_the_composed_ops_bit_for_bit(batch):
    # forward_g's four nodes, recorded in another order than the ten they
    # replace, still accumulate into every parameter in the same order
    inputs, upstreams, prior = batch
    assert_same_bits(model_step(forward_g, forward_f),
                     model_step(ops.forward_g_composed, head_composed), inputs,
                     [False] * len(PARAM_NAMES) + [True, True], upstreams, prior)


KERNELS = [KernelSpec(), KernelSpec(bandwidth_sq=1.5), KernelSpec("linear")]


@st.composite
def kbw_batches(draw):
    n, m, d = draw(st.integers(2, 7)), draw(st.integers(2, 7)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = grid(draw, rng, (n, d))
    # b: a's rows (distance 0, clamped), or rows of its own
    b = a.copy() if draw(st.integers(0, 4)) == 0 else grid(draw, rng, (m, d))
    spec = draw(st.sampled_from(KERNELS))
    constant = [draw(st.booleans()), False]   # l_da's label term takes a constant a
    return spec, [a, b], constant, np.array([[draw(WEIGHTS)]]), draw(st.one_of(st.none(), WEIGHTS))


@EXAMPLES
@given(kbw_batches())
def test_kbw_sq_matches_its_three_nodes_bit_for_bit(batch):
    spec, inputs, constant, upstream, prior = batch
    assert_same_bits(lambda a, b: kbw_sq(a, b, spec), lambda a, b: ops.kbw_sq_composed(a, b, spec),
                     inputs, constant, [upstream], prior)


@st.composite
def objective_batches(draw):
    terms = draw(st.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
    # values off any grid, so that sums round and their order shows
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = [rng.normal(scale=100.0, size=(1, 1)) for _ in range(3)]
    lambdas = [draw(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 0.3]), st.just(rng.uniform(0, 10))))
               for _ in range(2)]
    return terms, values, lambdas, np.array([[draw(WEIGHTS)]]), draw(st.one_of(st.none(), WEIGHTS))


@EXAMPLES
@given(objective_batches())
def test_the_objective_matches_its_scales_and_adds_bit_for_bit(batch):
    (with_da, with_con), values, lambdas, upstream, prior = batch

    def call(objective):
        def build(cls, da, con):
            return objective(cls, da if with_da else None, con if with_con else None, *lambdas)
        return build

    assert_same_bits(call(total_objective), call(ops.total_objective_composed), values,
                     [False] * 3, [upstream], prior)


def test_each_model_node_and_kbw_sq_is_one_node():
    tape = Tape()
    x, w, b = (tape.leaf(np.ones(shape)) for shape in ((3, 2), (2, 4), (1, 4)))
    for act in (None, "leaky", "softmax"):
        before = len(tape)
        dense(x, w, b, act)
        assert len(tape) - before == 1
    before = len(tape)
    kbw_sq(x, tape.leaf(np.zeros((4, 2))), KernelSpec("linear"))
    assert len(tape) - before == 2   # the array's leaf and the node
    cls, da, con = (tape.leaf(np.ones((1, 1))) for _ in range(3))
    before = len(tape)
    total_objective(cls, da, con, 0.5, 0.3)
    assert len(tape) - before == 1


def test_a_layer_rejects_operands_that_do_not_fit():
    tape = Tape()
    leaves = {name: tape.leaf(np.ones(shape)) for name, shape in
              (("w1", (3, 4)), ("b1", (1, 4)), ("w2", (4, 2)), ("b2", (1, 2)))}
    for x, w, b in (((2, 2), (3, 4), (1, 4)), ((2, 3), (3, 4), (4, 1)), ((2, 3), (3, 4), (1, 3))):
        with pytest.raises(DimensionError, match="dense"):
            dense(*(tape.leaf(np.ones(shape)) for shape in (x, w, b)))
    with pytest.raises(DimensionError, match="dense"):   # before either product runs
        forward_g(leaves, tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 2))))
