"""Training loop, SGD semantics, evaluation, and the variant sweep."""
import functools
import importlib
import json
import math
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bjda.autodiff import Tape
from bjda.data import Dataset, SynthSpec, gen_rotated_blobs
from bjda.errors import ConfigError, InputError, NumericalError
from bjda.losses import one_hot
from bjda.model import (PARAM_NAMES, ModelDims, forward_f, forward_g, hard_pseudo_labels,
                        init_xavier, make_leaves, predict_probs)
from bjda.train import (
    EpochSampler,
    TrainConfig,
    evaluate,
    l_da,
    run_suite,
    sgd_update,
    train,
)

BASE = TrainConfig(hidden_dim=16, feat_dim=8, t_max=20, batch_source=16,
                   batch_target=16, eval_every=10)


@functools.lru_cache(maxsize=None)
def small_pair():
    spec = SynthSpec(classes=3, dim=6, per_class=20, shift_angle=30.0,
                     noise_sigma=0.25)
    return gen_rotated_blobs(spec)


# ---------------------------------------------------------------- sgd

def test_sgd_hand_step():
    theta = np.array([[1.0]])
    velocity = np.array([[0.0]])
    sgd_update(theta, np.array([[0.1]]), velocity, 0.1, 0.9, 0.0)
    assert theta[0, 0] == 0.99
    assert velocity[0, 0] == 0.1


def test_sgd_second_step_accumulates_momentum():
    theta = np.array([[1.0]])
    velocity = np.array([[0.0]])
    for _ in range(2):
        sgd_update(theta, np.array([[0.1]]), velocity, 0.1, 0.9, 0.0)
    assert abs(velocity[0, 0] - 0.19) <= 1e-15
    assert abs(theta[0, 0] - 0.971) <= 1e-15


def test_sgd_weight_decay_couples_into_velocity():
    theta = np.array([[1.0]])
    velocity = np.array([[0.0]])
    sgd_update(theta, np.array([[0.0]]), velocity, 0.1, 0.0, 0.1)
    assert velocity[0, 0] == 0.1
    assert theta[0, 0] == 0.99


def test_weight_decay_shrinks_weights_monotonically():
    theta = np.full((3, 3), 2.0)
    velocity = np.zeros((3, 3))
    zero = np.zeros((3, 3))
    norms = [np.linalg.norm(theta)]
    for _ in range(30):
        sgd_update(theta, zero, velocity, 0.01, 0.9, 0.5)
        norms.append(np.linalg.norm(theta))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_sgd_scratch_gives_the_formulas_bits():
    rng = np.random.default_rng(3)
    theta, grad, velocity = (rng.normal(size=(4, 5)) for _ in range(3))
    expected_v = velocity * 0.9 + grad + 0.01 * theta
    expected_theta = theta - 0.1 * expected_v
    for scratch in (None, np.full((4, 5), np.nan)):
        t, v = theta.copy(), velocity.copy()
        sgd_update(t, grad, v, 0.1, 0.9, 0.01, scratch)
        assert np.array_equal(v, expected_v) and np.array_equal(t, expected_theta)


# ---------------------------------------------------------------- sampler

def test_sampler_epoch_batches_are_disjoint():
    sampler = EpochSampler(10, 4, np.random.default_rng(0))
    b1, b2 = sampler.next(), sampler.next()
    assert len(set(b1) | set(b2)) == 8
    b3 = sampler.next()  # tail of 2 dropped, fresh epoch
    assert b3.shape == (4,)


def test_sampler_caps_batch_at_dataset_size():
    sampler = EpochSampler(5, 64, np.random.default_rng(0))
    batch = sampler.next()
    assert sorted(batch.tolist()) == list(range(5))


def test_sampler_is_deterministic_per_seed():
    a = EpochSampler(12, 5, np.random.default_rng(7))
    b = EpochSampler(12, 5, np.random.default_rng(7))
    for _ in range(6):
        assert np.array_equal(a.next(), b.next())


def test_sampler_rejects_empty_dataset():
    with pytest.raises(InputError):
        EpochSampler(0, 4, np.random.default_rng(0))


# ---------------------------------------------------------------- config

def test_config_validation_rejects_bad_values():
    from dataclasses import replace
    bad = [
        dict(variant="bogus"),
        dict(lambda1=-0.1),
        dict(lambda2=-1.0),
        dict(lr=0.0),
        dict(lr=float("inf")),
        dict(momentum=1.0),
        dict(weight_decay=-0.1),
        dict(t_max=0),
        dict(batch_source=1),
        dict(batch_target=0),
        dict(confidence_threshold=0.0),
        dict(confidence_threshold=1.0),
        dict(triplet_margin=-1.0),
        dict(proto_mode="sliding"),
        dict(ema_decay=1.0),
        dict(hidden_dim=0),
        dict(feat_dim=0),
        dict(eval_every=0),
        dict(variant="wd", batch_source=16, batch_target=24),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            replace(BASE, **kwargs).validate()
    BASE.validate()


def test_train_rejects_mismatched_dataset_pairs():
    source, target = small_pair()
    empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), 3)
    with pytest.raises(InputError):
        train(empty, target, BASE)
    narrow = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 0]), 3)
    with pytest.raises(InputError):
        train(source, narrow, BASE)
    other_c = Dataset(target.features, target.labels, 4)
    with pytest.raises(InputError):
        train(source, other_c, BASE)
    part = Dataset(source.features, np.where(source.labels == 0, -1,
                                             source.labels), 3)
    with pytest.raises(InputError):
        train(part, target, BASE)
    one_class = Dataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 1)
    with pytest.raises(InputError):
        train(one_class, one_class, BASE)


# ---------------------------------------------------------------- loop

def test_train_is_bitwise_deterministic():
    source, target = small_pair()
    p1, m1 = train(source, target, BASE)
    p2, m2 = train(source, target, BASE)
    assert m1.to_jsonl() == m2.to_jsonl()
    for name in p1.tensors:
        assert np.array_equal(p1.tensors[name], p2.tensors[name])


def test_zero_weights_reduce_to_source_only_bitwise():
    from dataclasses import replace
    source, target = small_pair()
    p_full, m_full = train(source, target,
                           replace(BASE, variant="full", lambda1=0.0, lambda2=0.0))
    p_src, m_src = train(source, target, replace(BASE, variant="source_only"))
    assert m_full.to_jsonl() == m_src.to_jsonl()
    for name in p_full.tensors:
        assert np.array_equal(p_full.tensors[name], p_src.tensors[name])


def test_breakdown_identity_holds_every_iteration():
    source, target = small_pair()
    _, metrics = train(source, target, BASE)
    for r in metrics.records:
        b = r.breakdown
        recomposed = b.l_cls + BASE.lambda1 * b.l_da + BASE.lambda2 * b.l_dmc
        assert abs(b.total - recomposed) <= 1e-12


def test_variant_loss_slots():
    from dataclasses import replace
    source, target = small_pair()
    short = replace(BASE, t_max=5)

    _, m = train(source, target, replace(short, variant="no_da"))
    assert all(r.breakdown.l_da == 0.0 for r in m.records)
    assert any(r.breakdown.l_dmc > 0.0 for r in m.records)

    _, m = train(source, target, replace(short, variant="no_dmc"))
    assert all(r.breakdown.l_dmc == 0.0 for r in m.records)
    assert m.records[0].breakdown.l_da > 0.0

    _, m = train(source, target, replace(short, variant="source_only"))
    assert all(r.breakdown.l_da == 0.0 and r.breakdown.l_dmc == 0.0
               for r in m.records)

    _, m = train(source, target, replace(short, variant="triplet"))
    assert all(r.breakdown.l_dmc >= 0.0 for r in m.records)

    _, m = train(source, target, replace(short, variant="wd"))
    assert m.records[0].breakdown.l_da > 0.0


def test_metrics_jsonl_shape_and_eval_cadence():
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, t_max=7, eval_every=3)
    _, metrics = train(source, target, cfg)
    lines = metrics.to_jsonl().splitlines()
    assert len(lines) == 7
    rows = [json.loads(line) for line in lines]
    assert [r["iter"] for r in rows] == list(range(1, 8))
    for r in rows:
        assert set(r) == {"iter", "l_cls", "l_da", "l_dmc", "total",
                          "target_acc", "pl_accept"}
    evaluated = [r["iter"] for r in rows if r["target_acc"] is not None]
    assert evaluated == [3, 6, 7]


def test_unlabeled_target_trains_without_accuracy():
    source, target = small_pair()
    hidden = Dataset(target.features, np.full(len(target), -1), 3)
    _, metrics = train(source, hidden, BASE)
    assert all(r.target_acc is None for r in metrics.records)


def test_high_threshold_skips_every_target_contribution():
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, pl=True, confidence_threshold=0.999999, t_max=10)
    _, metrics = train(source, target, cfg)
    assert metrics.label_term_skips == 10
    assert metrics.dmc_target_skips == 10
    assert all(r.pl_accept == 0.0 for r in metrics.records)


def test_pl_accept_is_recorded_only_when_filtering():
    from dataclasses import replace
    source, target = small_pair()
    _, plain = train(source, target, replace(BASE, t_max=3))
    assert all(r.pl_accept is None for r in plain.records)
    _, gated = train(source, target,
                     replace(BASE, t_max=3, pl=True, confidence_threshold=0.34))
    assert all(r.pl_accept is not None and 0.0 <= r.pl_accept <= 1.0
               for r in gated.records)


def test_pl_label_term_is_l_da_on_exactly_the_kept_rows():
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, t_max=1, pl=True)
    # the first iteration's batches and forward pass, drawn as train draws them
    rng = np.random.default_rng([cfg.seed, 1])
    sampler_s = EpochSampler(len(source), cfg.batch_source, rng)
    sampler_t = EpochSampler(len(target), cfg.batch_target, rng)
    idx_s, idx_t = sampler_s.next(), sampler_t.next()
    params = init_xavier(ModelDims(source.dim, cfg.hidden_dim, cfg.feat_dim,
                                   source.class_count), cfg.seed)
    tape = Tape()
    leaves = make_leaves(tape, params)
    g_s = forward_g(leaves, tape.leaf(source.features[idx_s], "x_s"))
    g_t = forward_g(leaves, tape.leaf(target.features[idx_t], "x_t"))
    probs_t = forward_f(leaves, g_t).value
    # a threshold halfway between two confidences keeps the top half
    conf = hard_pseudo_labels(probs_t)[1]
    ranked = np.sort(conf)
    half = ranked.shape[0] // 2
    threshold = (ranked[half - 1] + ranked[half]) / 2.0
    keep = np.flatnonzero(conf > threshold)
    assert 2 <= keep.shape[0] < idx_t.shape[0]
    expected = l_da(g_s, one_hot(source.labels[idx_s], source.class_count), g_t,
                    tape.leaf(probs_t[keep], "y_t_kept"), cfg.kernel).item()

    _, metrics = train(source, target, replace(cfg, confidence_threshold=threshold))
    record = metrics.records[0]
    assert record.pl_accept == keep.shape[0] / idx_t.shape[0]
    assert record.breakdown.l_da == expected
    assert metrics.label_term_skips == 0


def test_divergent_run_aborts_with_iteration_index():
    from dataclasses import replace
    source, target = small_pair()
    with pytest.raises(NumericalError, match="iteration"):
        train(source, target, replace(BASE, lr=1e20, t_max=10))


def test_bjda_train_names_the_module_and_train_the_function():
    import bjda.train as module
    assert isinstance(module, types.ModuleType)
    assert module.train is train


# ---------------------------------------------------------------- eval

def test_evaluate_accuracy_is_class_weighted_mean():
    source, _ = small_pair()
    params = init_xavier_params()
    res = evaluate(params, source)
    counts = np.bincount(source.labels, minlength=3)
    weighted = sum(res.per_class[c] * counts[c] for c in res.per_class)
    assert abs(res.accuracy - weighted / counts.sum()) <= 1e-12


def init_xavier_params():
    from bjda.model import ModelDims
    return init_xavier(ModelDims(6, hidden=16, feat=8, classes=3), 0)


def test_evaluate_skips_and_counts_unlabeled_rows():
    source, _ = small_pair()
    params = init_xavier_params()
    preds = evaluate(params, source).predictions
    labels = preds.copy()
    labels[:10] = -1
    ds = Dataset(source.features, labels, 3)
    res = evaluate(params, ds)
    assert res.n_unlabeled == 10
    assert res.accuracy == 1.0


def test_evaluate_adversarial_labels_score_zero():
    source, _ = small_pair()
    params = init_xavier_params()
    preds = evaluate(params, source).predictions
    ds = Dataset(source.features, (preds + 1) % 3, 3)
    assert evaluate(params, ds).accuracy == 0.0


def test_evaluate_rejects_fully_unlabeled_data():
    source, _ = small_pair()
    params = init_xavier_params()
    ds = Dataset(source.features, np.full(len(source), -1), 3)
    with pytest.raises(InputError):
        evaluate(params, ds)


def test_evaluate_chunking_does_not_change_predictions():
    source, _ = small_pair()
    params = init_xavier_params()
    whole = evaluate(params, source, chunk=1024)
    for chunk in (1, 7, len(source) - 1, len(source)):
        pieces = evaluate(params, source, chunk=chunk)
        assert np.array_equal(whole.predictions, pieces.predictions)
        assert whole.accuracy == pieces.accuracy


def test_evaluate_does_not_depend_on_the_worker_count(monkeypatch):
    # three full chunks and a ragged one of 7 rows
    rng = np.random.default_rng(8)
    rows = 3 * 1024 + 7
    labels = rng.integers(-1, 3, size=rows)
    data = Dataset(rng.normal(size=(rows, 6)), labels, 3, "ragged")
    params = init_xavier_params()
    reference = np.concatenate([
        hard_pseudo_labels(predict_probs(params, data.features[i:i + 1024]))[0]
        for i in range(0, rows, 1024)])
    train_module = importlib.import_module("bjda.train")
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(train_module, "_usable_cpus", lambda cpus=cpus: cpus)
        results.append(evaluate(params, data))
    for res in results:
        assert np.array_equal(res.predictions, reference)
        assert res.accuracy == results[0].accuracy
        assert res.per_class == results[0].per_class
        assert res.n_unlabeled == int((labels < 0).sum())


# ---------------------------------------------------------------- suite

def test_suite_cells_follow_requested_order_and_stats():
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, t_max=10)
    result = run_suite(source, target, cfg,
                       variants=("source_only", "no_da"), seeds=(0, 1))
    assert [(c.variant, c.seed) for c in result.cells] == [
        ("source_only", 0), ("source_only", 1), ("no_da", 0), ("no_da", 1)]
    summary = dict((v, (m, s)) for v, m, s in result.summary())
    accs = [c.accuracy for c in result.cells if c.variant == "source_only"]
    assert summary["source_only"][0] == float(np.mean(accs))
    assert summary["source_only"][1] == float(np.std(accs, ddof=1))


def test_suite_single_seed_reports_zero_std():
    from dataclasses import replace
    source, target = small_pair()
    result = run_suite(source, target, replace(BASE, t_max=5),
                       variants=("source_only",), seeds=(3,))
    (_, _, std), = result.summary()
    assert std == 0.0


def test_suite_isolates_failing_cells():
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, t_max=5, batch_source=16, batch_target=12)
    result = run_suite(source, target, cfg,
                       variants=("wd", "source_only"), seeds=(0,))
    wd_cell, src_cell = result.cells
    assert wd_cell.accuracy is None
    assert "equal batch sizes" in wd_cell.error
    assert src_cell.error is None and src_cell.accuracy is not None
    summary = dict((v, (m, s)) for v, m, s in result.summary())
    assert math.isnan(summary["wd"][0])


def test_suite_cell_on_an_unlabeled_target_fails_with_the_evaluate_error():
    from dataclasses import replace
    source, target = small_pair()
    hidden = Dataset(target.features, np.full(len(target), -1), 3, name="hidden")
    result = run_suite(source, hidden, replace(BASE, t_max=3),
                       variants=("source_only",), seeds=(0,))
    (cell,) = result.cells
    assert cell.accuracy is None
    assert cell.error == "InputError: evaluate: dataset 'hidden' has no labeled rows"


def test_suite_cell_accuracy_is_the_final_evaluation():
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, t_max=7, variant="no_da", seed=2)
    params, metrics = train(source, target, cfg)
    (cell,) = run_suite(source, target, cfg, variants=("no_da",), seeds=(2,)).cells
    assert cell.accuracy == metrics.records[-1].target_acc
    assert cell.accuracy == evaluate(params, target, cfg.leaky_slope).accuracy


def test_suite_rejects_unknown_variants():
    source, target = small_pair()
    with pytest.raises(ConfigError):
        run_suite(source, target, BASE, variants=("magic",), seeds=(0,))


def test_suite_parallel_matches_serial():
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, t_max=10)
    serial = run_suite(source, target, cfg,
                       variants=("source_only", "no_da"), seeds=(0, 1), jobs=1)
    threaded = run_suite(source, target, cfg,
                         variants=("source_only", "no_da"), seeds=(0, 1), jobs=4)
    assert [(c.variant, c.seed, c.accuracy) for c in serial.cells] == \
           [(c.variant, c.seed, c.accuracy) for c in threaded.cells]


def test_concurrent_runs_match_serial_runs_bitwise():
    # each run owns its SGD scratch and evaluate buffers: three runs at once,
    # switching threads often, write what the same runs write one after the
    # other. The tensors are wide enough that numpy drops the GIL inside the
    # SGD products, so a scratch buffer shared between runs gets overwritten.
    source, target = gen_rotated_blobs(SynthSpec(classes=3, dim=6, per_class=400,
                                                 shift_angle=30.0, noise_sigma=0.25))
    configs = [TrainConfig(variant="full", hidden_dim=512, feat_dim=256, t_max=30,
                           batch_source=16, batch_target=16, eval_every=10, seed=seed)
               for seed in (0, 1, 2)]

    def outputs(run):
        params, metrics = run
        return metrics.to_jsonl(), b"".join(params.tensors[n].tobytes() for n in PARAM_NAMES)

    serial = [outputs(train(source, target, cfg)) for cfg in configs]
    start = threading.Barrier(len(configs))

    def run(cfg):
        start.wait(timeout=60)
        return outputs(train(source, target, cfg))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            futures = [pool.submit(run, cfg) for cfg in configs]
            concurrent = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
