"""Acceptance gate: one test per numbered release criterion.

The terminal summary (see conftest) prints a PASS/FAIL line per criterion.
Tolerances, instance counts, and runtime budgets here are the release
contract; they must not be loosened to make a run green.
"""
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

import tape_ops as ops
from bjda import autodiff as ad
from bjda.autodiff import Tape
from bjda.cli import main
from bjda.data import SynthSpec, gen_rotated_blobs, save_csv
from bjda.gradcheck import run_all
from bjda.kernels import (
    KernelSpec,
    _gram,
    closed_form_bures,
    exact_wasserstein_sq,
    gaussian_bandwidth,
    kbw_sq,
    pairwise_sqdist_matrix,
)
from bjda.losses import Prototypes, l_cls, l_dmc, l_trip, one_hot, total_objective
from bjda.train import sgd_update

FAST = ["--set", "hidden_dim=16", "--set", "feat_dim=8", "--set", "t_max=8",
        "--set", "batch_source=12", "--set", "batch_target=12",
        "--set", "eval_every=4"]


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_data")
    spec = SynthSpec(classes=3, dim=5, per_class=12, shift_angle=30.0,
                     noise_sigma=0.25)
    source, target = gen_rotated_blobs(spec)
    save_csv(source, root / "source.csv")
    save_csv(target, root / "target.csv")
    return str(root / "source.csv"), str(root / "target.csv")


def test_criterion_1_kernel_distance_matches_covariance_oracle():
    """Linear-kernel alignment distance equals the closed-form covariance
    distance squared, relative error 1e-6, on 25 random centered instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(5, 51))
        xa = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
        xb = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
        xa = xa - xa.mean(axis=0, keepdims=True)
        xb = xb - xb.mean(axis=0, keepdims=True)
        got = kbw_sq(xa, xb, KernelSpec("linear")).item()
        oracle = closed_form_bures(xa.T @ xa / n, xb.T @ xb / n) ** 2
        assert abs(got - oracle) / oracle <= 1e-6
    assert time.perf_counter() - started < 5.0


def test_criterion_2_assignment_cost_matches_brute_force():
    """Exact transport cost equals the exhaustive-permutation minimum,
    bit for bit, on 50 random instances with up to 6 points."""
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        cost = pairwise_sqdist_matrix(a, b)
        brute = min(cost[np.arange(n), perm].sum()
                    for perm in itertools.permutations(range(n)))
        assert exact_wasserstein_sq(a, b) == brute / n
    assert time.perf_counter() - started < 5.0


def test_criterion_3_distance_axioms():
    """Self-distance, symmetry, and nonnegativity of both distances over
    100 random inputs per axiom."""
    rng = np.random.default_rng(303)

    for i in range(100):
        spec = KernelSpec("gaussian" if i % 2 == 0 else "linear")
        x = rng.normal(size=(int(rng.integers(2, 31)), int(rng.integers(1, 7))))
        assert kbw_sq(x, x.copy(), spec).item() <= 1e-8

    for i in range(100):
        spec = KernelSpec("gaussian" if i % 2 == 0 else "linear")
        n, m, d = rng.integers(2, 25), rng.integers(2, 25), rng.integers(1, 6)
        a = rng.normal(size=(int(n), int(d)))
        b = rng.normal(size=(int(m), int(d)))
        ab = kbw_sq(a, b, spec).item()
        ba = kbw_sq(b, a, spec).item()
        assert abs(ab - ba) <= 1e-10
        assert ab >= 0.0

    for _ in range(100):
        a = rng.normal(size=(8, 3))
        b = a + 1e-9 * rng.normal(size=a.shape)  # clamp stress, near-identical
        assert kbw_sq(a, b).item() >= 0.0

    for i in range(100):
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(d, d)) * rng.uniform(0.1, 10.0)
        s = x @ x.T
        if i % 3 == 0:
            k = max(1, d - 2)
            s = x[:, :k] @ x[:, :k].T  # rank-deficient corner
        assert closed_form_bures(s, s.copy()) <= 1e-10


def test_criterion_4_finite_difference_gradient_suite():
    """Every tape op and every loss passes its central-difference audit."""
    started = time.perf_counter()
    results = run_all(0)
    failures = [f"{r.name} ({r.max_rel_err:.2e} > {r.tol:.0e})"
                for r in results if not r.passed]
    assert not failures, "gradient checks failed: " + ", ".join(failures)
    assert time.perf_counter() - started < 30.0


def test_criterion_5_adaptation_gap(benchmark_runs):
    """Full training beats source-only by 10+ points on the pinned benchmark
    (4 classes, 32 dims, 200/class, 40 degree shift, noise 0.25, 128/64
    widths, t_max 300, seeds 0-4), inside 120 s for the whole grid."""
    assert benchmark_runs.elapsed_seconds < 120.0
    gap = benchmark_runs.means["full"] - benchmark_runs.means["source_only"]
    per_variant = ", ".join(
        f"{v} {benchmark_runs.means[v]:.3f} +- {benchmark_runs.stds[v]:.3f}"
        for v in benchmark_runs.means)
    assert gap >= 0.10, (
        f"mean adaptation gap {gap * 100:+.1f} points, need +10.0; mean +- std "
        f"target accuracy over seeds {benchmark_runs.seeds}: {per_variant}"
    )


def test_criterion_6_ablation_ordering(benchmark_runs):
    """Removing either loss term never helps by more than one point."""
    full = benchmark_runs.means["full"]
    assert full >= benchmark_runs.means["no_dmc"] - 0.01
    assert full >= benchmark_runs.means["no_da"] - 0.01


def test_criterion_7_zero_weights_reduce_to_source_only(csv_pair, tmp_path, capsys):
    """Zero loss weights reproduce the source-only run byte for byte."""
    source, target = csv_pair
    out_a = tmp_path / "zeroed"
    out_b = tmp_path / "source_only"
    assert main(["train", "--source", source, "--target", target,
                 "--out", str(out_a), "--set", "lambda1=0.0",
                 "--set", "lambda2=0.0"] + FAST) == 0
    assert main(["train", "--source", source, "--target", target,
                 "--out", str(out_b), "--set", "variant=source_only"] + FAST) == 0
    capsys.readouterr()
    assert (out_a / "metrics.jsonl").read_bytes() == \
           (out_b / "metrics.jsonl").read_bytes()
    assert (out_a / "model.bin").read_bytes() == \
           (out_b / "model.bin").read_bytes()


def test_criterion_8_repeated_runs_are_byte_identical(csv_pair, tmp_path, capsys):
    """The same train command twice yields identical metrics and checkpoint."""
    source, target = csv_pair
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    for out in (out_a, out_b):
        assert main(["train", "--source", source, "--target", target,
                     "--out", str(out)] + FAST) == 0
    capsys.readouterr()
    assert (out_a / "metrics.jsonl").read_bytes() == \
           (out_b / "metrics.jsonl").read_bytes()
    assert (out_a / "model.bin").read_bytes() == \
           (out_b / "model.bin").read_bytes()


def test_criterion_9_hand_computed_spot_values():
    """Frozen hand-arithmetic values for every layer of the stack."""
    # bandwidth heuristic
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert gaussian_bandwidth(pts, pts) == 2.0
    assert gaussian_bandwidth(np.array([[0.0]]), np.array([[3.0]])) == 9.0

    # gaussian kernel entry at fixed bandwidth
    k = _gram(np.array([[0.0]]), np.array([[2.0]]), KernelSpec(bandwidth_sq=2.0))
    assert k[0, 0] == np.exp(-2.0)

    # closed-form covariance distances
    d = closed_form_bures(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
    assert abs(d - np.sqrt(2.0)) <= 1e-12
    zero = closed_form_bures(np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)))
    assert abs(zero - np.sqrt(6.0)) <= 1e-12

    # exact transport on shifted point sets
    assert exact_wasserstein_sq(np.array([[0.0], [1.0]]),
                                np.array([[1.0], [2.0]])) == 1.0

    # classification loss
    tape = Tape()
    for c in (2, 3, 10):
        probs = tape.leaf(np.full((4, c), 1.0 / c), "p")
        y = one_hot(np.zeros(4, dtype=int), c)
        assert abs(l_cls(probs, y).item() - np.log(c)) <= 1e-12
    half = tape.leaf(np.array([[0.5, 0.5]]), "h")
    assert abs(l_cls(half, one_hot(np.array([0]), 2)).item()
               - np.log(2.0)) <= 1e-12

    # margin loss worked example
    protos = Prototypes(2, 2)
    protos.update(np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([0, 1]))
    g = tape.leaf(np.array([[0.0, 0.0]]), "g")
    dmc, _ = l_dmc(g, np.array([0]), np.array([[0.5, 0.5]]), protos)
    assert abs(dmc.item() - (np.log(2.0) - 0.5)) <= 1e-9

    # triplet hinges: d_pos 1, d_neg 2 clamps at margin 0.5, leaves 0.5 at 1.5
    pts3 = tape.leaf(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), "t")
    low, _ = l_trip(pts3, np.array([0, 0, 1]), 0.5)
    high, _ = l_trip(pts3, np.array([0, 0, 1]), 1.5)
    assert abs(low.item() - 0.5) <= 1e-12
    assert abs(high.item() - 2.0) <= 1e-12

    # weighted objective
    parts = [tape.leaf(np.array([[v]]), "part") for v in (1.0, 2.0, 3.0)]
    assert total_objective(*parts, 0.5, 0.3).item() == 2.9

    # one SGD step
    theta = np.array([[1.0]])
    velocity = np.array([[0.0]])
    sgd_update(theta, np.array([[0.1]]), velocity, 0.1, 0.9, 0.0)
    assert theta[0, 0] == 0.99
    assert velocity[0, 0] == 0.1

    # activation and reduction spot values
    assert np.array_equal(ad.softmax_rows_array(np.array([[0.0, 0.0]])), np.array([[0.5, 0.5]]))
    assert ad.leaky_relu_array(np.array([[-1.0]]), 0.01)[0, 0] == -0.01
    assert ops.trace(tape.leaf(np.eye(3))).item() == 3.0
    assert ad.nuclear_norm(np.diag([3.0, -4.0]))[0] == pytest.approx(7.0, abs=1e-12)
    two = ad.pairwise_sqdist_matrix(np.array([[0.0], [2.0]]), np.array([[0.0], [2.0]]))
    assert np.array_equal(two, np.array([[0.0, 4.0], [4.0, 0.0]]))
