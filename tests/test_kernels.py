"""Kernel matrices and the three distribution distances."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_ops as ops
from bjda import autodiff as ad
from bjda.autodiff import Tape
from bjda.errors import ConfigError, DimensionError, InputError
from bjda.kernels import (KernelSpec, _centered, _gram, closed_form_bures,
                          exact_wasserstein_sq, gaussian_bandwidth,
                          kbw_sq, optimal_assignment, pairwise_sqdist_matrix)


def kbw_value(a, b, spec=KernelSpec()) -> float:
    return kbw_sq(a, b, spec, tape=Tape()).item()


# ---------------------------------------------------------------------------
# bandwidth heuristic


def test_bandwidth_two_point_hand_value():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert gaussian_bandwidth(pts, pts) == 2.0  # (0 + 4 + 4 + 0) / 4


def test_bandwidth_single_pair_hand_value():
    assert gaussian_bandwidth(np.array([[0.0]]), np.array([[3.0]])) == 9.0


def test_bandwidth_degenerate_fallback():
    pts = np.ones((4, 3))
    assert gaussian_bandwidth(pts, pts) == 1.0


def test_bandwidth_falls_back_for_identical_rows_whose_mean_rounds():
    # five rows of 0.3 read 1.1e-16 through the distance matrix, and a mean
    # taken without the shift misses most rows like these
    assert gaussian_bandwidth(np.full((5, 3), 0.3), np.full((5, 3), 0.3)) == 1.0
    rng = np.random.default_rng(14)
    for _ in range(200):
        row = rng.normal(size=(1, int(rng.integers(1, 9))))
        pts = np.repeat(row, int(rng.integers(2, 130)), axis=0)
        assert gaussian_bandwidth(pts, pts[:2]) == 1.0


def test_bandwidth_of_one_array_equals_that_of_its_copy():
    # gaussian_bandwidth(p, p) reads p once; the two-sided formula on a copy
    # must give the same bits, the identical-row fallback included
    rng = np.random.default_rng(21)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        pts = rng.normal(size=(rows, cols)) * rng.uniform(0.01, 50.0) + rng.uniform(-5.0, 5.0)
        if rng.random() < 0.25:
            pts[:] = pts[0]
        got = gaussian_bandwidth(pts, pts)
        assert got.hex() == gaussian_bandwidth(pts, pts.copy()).hex()
        if rows == 1 or np.all(pts == pts[0]):
            assert got == 1.0


def test_bandwidth_rejects_empty():
    with pytest.raises(InputError):
        gaussian_bandwidth(np.zeros((0, 2)), np.zeros((3, 2)))


def test_bandwidth_closed_form_matches_the_mean_pairwise_distance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(int(rng.integers(1, 30)), d)) * rng.uniform(0.1, 5.0)
        b = rng.normal(size=(int(rng.integers(1, 30)), d)) + rng.uniform(-3.0, 3.0)
        want = pairwise_sqdist_matrix(a, b).mean()
        assert gaussian_bandwidth(a, b) == pytest.approx(want, rel=1e-12)
        pooled = np.vstack([a, b])
        assert gaussian_bandwidth(pooled, pooled) == \
            pytest.approx(pairwise_sqdist_matrix(pooled, pooled).mean(), rel=1e-12)
    with pytest.raises(DimensionError):
        gaussian_bandwidth(np.ones((2, 2)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# kernel matrices


def test_kernel_spec_validates():
    with pytest.raises(ConfigError):
        KernelSpec(kind="cubic")
    with pytest.raises(ConfigError):
        KernelSpec(bandwidth_sq=0.0)
    with pytest.raises(ConfigError):
        KernelSpec(bandwidth_sq=float("nan"))
    with pytest.raises(ConfigError, match="linear kernel takes no bandwidth_sq"):
        KernelSpec(kind="linear", bandwidth_sq=2.0)


def test_gaussian_self_similarity_is_one():
    x = np.random.default_rng(0).normal(size=(5, 3))
    k = _gram(x, x, KernelSpec(bandwidth_sq=gaussian_bandwidth(x, x)))
    assert np.allclose(np.diag(k), 1.0, atol=1e-15)
    assert k.max() <= 1.0 and k.min() > 0.0


def test_gaussian_fixed_bandwidth_hand_value():
    a = np.array([[0.0]])
    b = np.array([[2.0]])
    k = _gram(a, b, KernelSpec(bandwidth_sq=2.0))
    assert k[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-15)


def test_linear_kernel_orthogonal_vectors():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    k = _gram(a, b, KernelSpec(kind="linear"))
    assert k[0, 0] == 0.0


def test_kbw_sq_mixed_value_and_array():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    d = kbw_sq(a, np.zeros((3, 2)), KernelSpec(bandwidth_sq=1.0))
    assert d.tape is tape and len(tape) == 3   # a, the array as a constant, one node


# ---------------------------------------------------------------------------
# kbw_sq axioms


def test_kbw_self_distance_vanishes():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.normal(size=(rng.integers(2, 9), rng.integers(1, 5)))
        assert kbw_value(a, a) <= 1e-8
        assert kbw_value(a, a, KernelSpec(kind="linear")) <= 1e-8


def test_kbw_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = rng.normal(size=(rng.integers(2, 8), 3))
        b = rng.normal(size=(rng.integers(2, 8), 3))
        assert abs(kbw_value(a, b) - kbw_value(b, a)) <= 1e-10


def test_kbw_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.normal(size=(rng.integers(2, 8), 2))
        b = a + 1e-9 * rng.normal(size=a.shape)  # near-identical stresses the clamp
        assert kbw_value(a, b[: max(2, rng.integers(2, a.shape[0] + 1))]) >= 0.0


AXIOMS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FIXED_SPECS = st.one_of(st.just(KernelSpec("linear")),
                        st.floats(0.25, 8.0).map(lambda s2: KernelSpec("gaussian", s2)))
SPECS = st.one_of(st.just(KernelSpec("gaussian")), FIXED_SPECS)


@st.composite
def sample_pairs(draw):
    """Two small samples of one width, with rows at scales from 0.1 to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    scale = draw(st.floats(0.1, 3.0))
    return tuple(scale * rng.normal(size=(draw(st.integers(2, 8)), d)) for _ in range(2))


def roundoff(*samples) -> float:
    """A round-off tolerance for kbw_sq of these samples: its Gaussian terms
    are at most 1, its linear ones scale with the rows' squared norms."""
    return 1e-10 * (1.0 + max(float((x * x).sum(axis=1).max()) for x in samples))


@AXIOMS
@given(sample_pairs(), SPECS)
def test_kbw_axiom_symmetry(pair, spec):
    a, b = pair
    assert abs(kbw_value(a, b, spec) - kbw_value(b, a, spec)) <= roundoff(a, b)


@AXIOMS
@given(sample_pairs(), SPECS)
def test_kbw_axiom_self_distance_is_zero_and_never_negative(pair, spec):
    a = pair[0]
    assert 0.0 <= kbw_value(a, a, spec) <= roundoff(a)


@AXIOMS
@given(sample_pairs(), SPECS, st.randoms(use_true_random=False))
def test_kbw_axiom_row_permutations(pair, spec, random):
    a, b = pair
    pa, pb = (x[random.sample(range(x.shape[0]), x.shape[0])] for x in pair)
    assert abs(kbw_value(pa, pb, spec) - kbw_value(a, b, spec)) <= roundoff(a, b)


@AXIOMS
@given(sample_pairs(), SPECS, st.floats(-5.0, 5.0))
def test_kbw_axiom_a_shared_shift(pair, spec, shift):
    a, b = pair
    c = shift * np.linspace(1.0, -0.5, a.shape[1])
    moved = kbw_value(a + c, b + c, spec)
    assert abs(moved - kbw_value(a, b, spec)) <= roundoff(a + c, b + c)


@AXIOMS
@given(sample_pairs(), FIXED_SPECS)
def test_kbw_axiom_each_row_listed_twice_is_the_same_distribution(pair, spec):
    # a fixed kernel only: the auto bandwidth pools the rows, whose mix changes
    a, b = pair
    twice = np.vstack([a, a])
    assert abs(kbw_value(twice, b, spec) - kbw_value(a, b, spec)) <= roundoff(a, b)


def test_kbw_gaussian_matches_random_fourier_features():
    """An oracle independent of the Gram route: with random Fourier features
    z(x) = sqrt(2/D) cos(W x + b), W ~ N(0, 2/sigma^2 I) and b ~ U[0, 2 pi)
    (Rahimi & Recht, NeurIPS 2007), z(x) . z(y) estimates exp(-|x - y|^2 /
    sigma^2) with a standard deviation of at most 1/sqrt(D), and the Bures
    distance between the covariances of z approaches the Gaussian kbw_sq at
    that rate. Over 60 draws at D = 256, 512 and 1024 on these samples the
    error stayed under 1.8/sqrt(D); the test allows 3/sqrt(D). A bandwidth
    off by a factor of 2 moves the exact value by more than 0.29."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(20, 3)), rng.normal(size=(25, 3)) + 0.7
    sigma_sq = 2.0
    exact = kbw_value(a, b, KernelSpec("gaussian", sigma_sq))
    assert exact == pytest.approx(0.649, abs=1e-3)

    def covariance(z):
        z = z - z.mean(axis=0, keepdims=True)
        return z.T @ z / z.shape[0]

    for dim in (256, 1024):
        draw = np.random.default_rng(dim)
        w = draw.normal(scale=np.sqrt(2.0 / sigma_sq), size=(3, dim))
        phase = draw.uniform(0.0, 2.0 * np.pi, size=dim)
        za, zb = (np.sqrt(2.0 / dim) * np.cos(x @ w + phase) for x in (a, b))
        oracle = closed_form_bures(covariance(za), covariance(zb)) ** 2
        assert abs(oracle - exact) <= 3.0 / np.sqrt(dim)


def test_kbw_requires_two_rows_per_sample():
    with pytest.raises(InputError):
        kbw_value(np.ones((1, 2)), np.ones((3, 2)))


def test_kbw_rejects_feature_mismatch():
    with pytest.raises(DimensionError):
        kbw_value(np.ones((3, 2)), np.ones((3, 4)))


def test_kbw_shared_bandwidth_still_a_metric_like_quantity():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(5, 3))
    d_ab = kbw_value(a, b)
    d_ba = kbw_value(b, a)
    assert d_ab >= 0.0
    assert abs(d_ab - d_ba) <= 1e-10
    assert kbw_value(a, a) <= 1e-8


def test_kbw_gaussian_uses_one_pooled_bandwidth_for_all_three_grams():
    """With no fixed bandwidth, K_aa, K_bb and K_ab share one kernel: the
    bandwidth heuristic taken over the pooled rows of both samples."""
    rng = np.random.default_rng(6)
    a = rng.normal(size=(7, 3))
    b = 0.2 * rng.normal(size=(5, 3)) + 1.0  # different spread and location
    pooled = np.vstack([a, b])
    pinned = KernelSpec(bandwidth_sq=gaussian_bandwidth(pooled, pooled))
    want = kbw_sq(a, b, pinned).item()

    assert kbw_sq(a, b).item() == want  # plain arrays, own tape
    tape = Tape()
    assert kbw_sq(tape.leaf(a, "a"), tape.leaf(b, "b")).item() == want


def resolve(spec, bandwidth_sq):
    return spec if spec.kind == "linear" or spec.bandwidth_sq else KernelSpec(bandwidth_sq=bandwidth_sq)


def gram_reference(av, bv, spec):
    """Kernel matrix composed of tape ops: a matmul, or three Gaussian nodes."""
    if spec.kind == "linear":
        return ops.matmul(av, ops.transpose(bv))
    return ops.exp(ops.scale(ops.pairwise_sqdist(av, bv), -1.0 / spec.bandwidth_sq))


def center_reference(x):
    """The double-centering tape op, H_n x H_m, which is its own adjoint."""
    def backward(g):
        ad._accumulate(x, _centered(g), owned=True)

    return x.tape._record(_centered(x.value), backward, x)


def kbw_sq_reference(av, bv, spec):
    """kbw_sq as the composition that preceded the fused ops, kept as an
    oracle: 21 nodes with a Gaussian kernel (18 with the linear one), three
    Gram matrices, three centerings, two traces, the nuclear norm, five scalar
    nodes and a clamp, with the auto bandwidth the mean of the full pooled
    (n + m)^2 distance matrix."""
    n, m = av.shape[0], bv.shape[0]
    pooled = np.vstack([av.value, bv.value])
    mean = pairwise_sqdist_matrix(pooled, pooled).mean()
    spec = resolve(spec, mean if mean > 0.0 else 1.0)
    term_a = ops.scale(ops.trace(center_reference(gram_reference(av, av, spec))), 1.0 / n)
    term_b = ops.scale(ops.trace(center_reference(gram_reference(bv, bv, spec))), 1.0 / m)
    coupling = ops.nuclear_norm(center_reference(gram_reference(av, bv, spec)))
    dist_sq = ops.sub(term_a + term_b, ops.scale(coupling, 2.0 / np.sqrt(n * m)))
    return ops.clamp_min(dist_sq, 0.0)


def kbw_with_grads(op, a, b, spec):
    tape = Tape()
    av, bv = tape.leaf(a), tape.leaf(b)
    before = len(tape)
    out = op(av, bv, spec)
    nodes = len(tape) - before
    tape.backward(out)
    return out.item(), av.grad, bv.grad, nodes


KBW_SPECS = [KernelSpec(), KernelSpec(bandwidth_sq=2.0), KernelSpec("linear")]
KBW_IDS = ["gaussian-auto", "gaussian-fixed", "linear"]


@pytest.mark.parametrize("spec", KBW_SPECS, ids=KBW_IDS)
def test_kbw_three_nodes_match_the_composed_reference(spec):
    # kbw_sq's one node and the three-node form it replaced, the oracle it
    # matches bit for bit in test_nodes
    rng = np.random.default_rng(12)
    for _ in range(40):
        n, m, d = (int(v) for v in rng.integers((2, 2, 1), (40, 40, 9)))
        a = rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0)
        b = rng.normal(size=(m, d)) * rng.uniform(0.2, 3.0) + rng.uniform(-2.0, 2.0)
        ref_value, ref_a, ref_b, ref_nodes = kbw_with_grads(kbw_sq_reference, a, b, spec)
        assert ref_nodes == (18 if spec.kind == "linear" else 21)
        scale = max(np.abs(ref_a).max(), np.abs(ref_b).max())
        for op, want_nodes in ((kbw_sq, 1), (ops.kbw_sq_composed, 3)):
            value, grad_a, grad_b, nodes = kbw_with_grads(op, a, b, spec)
            assert nodes == want_nodes
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert np.abs(grad_a - ref_a).max() <= 1e-10 * scale
            assert np.abs(grad_b - ref_b).max() <= 1e-10 * scale


@pytest.mark.parametrize("spec", KBW_SPECS, ids=KBW_IDS)
def test_kbw_clamped_at_zero_passes_no_gradient_like_the_reference(spec):
    rng = np.random.default_rng(13)
    clamped = 0
    for _ in range(40):
        a = rng.normal(size=(int(rng.integers(2, 12)), int(rng.integers(1, 5))))
        value, grad_a, grad_b, _ = kbw_with_grads(kbw_sq, a, a.copy(), spec)
        ref_value, ref_a, ref_b, _ = kbw_with_grads(kbw_sq_reference, a, a.copy(), spec)
        assert 0.0 <= value <= 1e-12 and 0.0 <= ref_value <= 1e-12
        # unclamped, what is left is round-off through singular values near
        # the nuclear norm's rank cutoff, in either construction
        for grad in (grad_a, grad_b, ref_a, ref_b):
            assert np.abs(grad).max() <= 1e-6
        if value == 0.0:
            clamped += 1
            assert not grad_a.any() and not grad_b.any()
    assert clamped > 0


def test_kbw_linear_matches_closed_form_bures():
    """Linear-kernel distance vs the covariance-space oracle on centered data."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 5))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
        a = a - a.mean(axis=0, keepdims=True)
        b = b - b.mean(axis=0, keepdims=True)
        got = kbw_value(a, b, KernelSpec(kind="linear"))
        want = closed_form_bures(a.T @ a / n, b.T @ b / n) ** 2
        assert got == pytest.approx(want, rel=1e-6, abs=1e-10)


# ---------------------------------------------------------------------------
# closed-form oracle


def test_bures_identical_covariances():
    assert closed_form_bures(np.eye(2), np.eye(2)) == 0.0


def test_bures_diagonal_hand_value():
    d = closed_form_bures(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
    assert d == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_bures_against_zero_matrix():
    s1 = np.diag([2.0, 3.0])
    d = closed_form_bures(s1, np.zeros((2, 2)))
    assert d == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_bures_symmetry_and_self_identity():
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.normal(size=(4, 4))
        s1 = x @ x.T
        y = rng.normal(size=(4, 4))
        s2 = y @ y.T
        assert closed_form_bures(s1, s1) <= 1e-10
        assert abs(closed_form_bures(s1, s2) - closed_form_bures(s2, s1)) <= 1e-10


def test_bures_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        closed_form_bures(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(DimensionError):
        closed_form_bures(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# exact assignment transport


def brute_force_wasserstein_sq(a: np.ndarray, b: np.ndarray) -> float:
    cost = pairwise_sqdist_matrix(a, b)
    n = a.shape[0]
    best = min(cost[np.arange(n), perm].sum()
               for perm in map(list, itertools.permutations(range(n))))
    return best / n


def test_wasserstein_identical_samples():
    x = np.random.default_rng(7).normal(size=(5, 2))
    assert exact_wasserstein_sq(x, x) == 0.0


def test_wasserstein_two_point_hand_value():
    a = np.array([[0.0], [1.0]])
    b = np.array([[1.0], [2.0]])
    assert exact_wasserstein_sq(a, b) == 1.0


def test_wasserstein_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        assert exact_wasserstein_sq(a, b) == brute_force_wasserstein_sq(a, b)


def test_wasserstein_rejects_unequal_counts():
    with pytest.raises(InputError):
        exact_wasserstein_sq(np.ones((2, 2)), np.ones((3, 2)))


def test_optimal_assignment_returns_square_permutation():
    cost = np.array([[2.0, 1.0], [1.0, 2.0]])
    cols, total = optimal_assignment(cost)
    assert sorted(cols) == [0, 1]
    assert total == 2.0  # picks the two off-diagonal ones
    with pytest.raises(InputError):
        optimal_assignment(np.ones((2, 3)))
