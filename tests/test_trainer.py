"""Training loop, SGD semantics, evaluation, and the variant sweep."""
import contextlib
import functools
import importlib
import json
import math
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bjda import autodiff as ad
from bjda import train as train_module
from bjda.autodiff import Tape
from bjda.data import Dataset, SynthSpec, gen_rotated_blobs
from bjda.errors import ConfigError, InputError, NumericalError
from bjda.losses import Prototypes, one_hot
from bjda.model import (LEAKY_SLOPE, PARAM_NAMES, ModelDims, forward_f, forward_g,
                        hard_pseudo_labels, init_xavier, load_checkpoint, make_leaves,
                        predict_probs, save_checkpoint)
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


@pytest.mark.parametrize("variant, rows, broken", [
    ("wd", 10, "variant 'wd' needs equal batch sizes (one-to-one transport)"),
    ("full", 1, "batch sizes must be >= 2 (centering needs two rows)"),
])
def test_train_checks_the_batch_sizes_it_draws(variant, rows, broken):
    # the sampler caps a batch at the dataset's rows, past the config's checks
    from dataclasses import replace
    source, target = small_pair()
    small = Dataset(target.features[:rows], target.labels[:rows], 3, "target")
    with pytest.raises(InputError) as err:
        train(source, small, replace(BASE, variant=variant))
    assert str(err.value) == (f"dataset 'target' has {rows} row(s), so batch_target=16 "
                              f"draws {rows}: {broken}, got (16, {rows})")


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
        recomposed = r.l_cls + BASE.lambda1 * r.l_da + BASE.lambda2 * r.l_dmc
        assert abs(r.total - recomposed) <= 1e-12


def test_variant_loss_slots():
    from dataclasses import replace
    source, target = small_pair()
    short = replace(BASE, t_max=5)

    _, m = train(source, target, replace(short, variant="no_da"))
    assert all(r.l_da == 0.0 for r in m.records)
    assert any(r.l_dmc > 0.0 for r in m.records)

    _, m = train(source, target, replace(short, variant="no_dmc"))
    assert all(r.l_dmc == 0.0 for r in m.records)
    assert m.records[0].l_da > 0.0

    _, m = train(source, target, replace(short, variant="source_only"))
    assert all(r.l_da == 0.0 and r.l_dmc == 0.0
               for r in m.records)

    _, m = train(source, target, replace(short, variant="triplet"))
    assert all(r.l_dmc >= 0.0 for r in m.records)

    _, m = train(source, target, replace(short, variant="wd"))
    assert m.records[0].l_da > 0.0


@pytest.mark.parametrize("variant, lambda2, refreshes", [
    ("full", 0.3, True), ("no_da", 0.3, True), ("wd", 0.3, True), ("full", 0.0, False),
    ("no_dmc", 0.3, False), ("triplet", 0.3, False), ("source_only", 0.3, False)])
def test_prototypes_refresh_only_where_l_dmc_reads_them(monkeypatch, variant, lambda2,
                                                        refreshes):
    from dataclasses import replace
    source, target = small_pair()
    cfg = replace(BASE, variant=variant, lambda2=lambda2, t_max=6, proto_mode="ema")
    calls = []
    update = Prototypes.update

    def counted(self, features, labels):
        calls.append(labels)
        update(self, features, labels)

    monkeypatch.setattr(Prototypes, "update", counted)
    run = _run_bytes(train(source, target, cfg))
    assert len(calls) == (cfg.t_max if refreshes else 0)

    # a run that refreshes them every step has the same bytes
    constants = train_module.batch_constants

    def every_step(cfg, g_s, probs_s, probs_t, labels_s, protos):
        before = len(calls)
        const = constants(cfg, g_s, probs_s, probs_t, labels_s, protos)
        if len(calls) == before:
            protos.update(g_s.value, labels_s)
        return const

    monkeypatch.setattr(train_module, "batch_constants", every_step)
    calls.clear()
    assert _run_bytes(train(source, target, cfg)) == run
    assert len(calls) == cfg.t_max


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
    g_s, g_t = forward_g(leaves, tape.leaf(source.features[idx_s], "x_s"),
                         tape.leaf(target.features[idx_t], "x_t"))
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
    assert record.l_da == expected
    assert metrics.label_term_skips == 0


def test_divergent_run_aborts_with_iteration_index():
    from dataclasses import replace
    source, target = small_pair()
    with pytest.raises(NumericalError, match="iteration"):
        train(source, target, replace(BASE, lr=1e20, t_max=10))


def test_no_thread_outlives_train(monkeypatch):
    # floor 0 and two CPUs: every train() call opens a helper thread and
    # gives it every pair of products, SGD half and evaluate half
    from dataclasses import replace
    monkeypatch.setattr(train_module, "HELPER_FLOOR", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    source, target = small_pair()
    before = threading.active_count()
    _, metrics = train(source, target, BASE)
    assert metrics.train_threads == 2
    assert threading.active_count() == before
    with pytest.raises(NumericalError, match="diverged"):
        train(source, target, replace(BASE, variant="triplet", lr=0.1, t_max=200))
    assert threading.active_count() == before


def test_no_helper_off_the_main_thread_or_on_one_cpu(monkeypatch):
    monkeypatch.setattr(train_module, "HELPER_FLOOR", 0)
    source, target = small_pair()
    monkeypatch.setattr(ad, "usable_cpus", lambda: 1)
    assert train(source, target, BASE)[1].train_threads == 1
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(train, source, target, BASE).result()[1].train_threads == 1


def test_a_run_opens_a_pool_once_its_drawn_batches_reach_the_floor(monkeypatch):
    # 60 rows a side cap batches of 100 at 60: 60 x 16 x max(6, 4) = 5760
    # multiply-adds, where the config's 100 would give 9600
    from dataclasses import replace
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    source, target = small_pair()
    cfg = replace(BASE, feat_dim=4, batch_source=100, batch_target=100, t_max=3)
    for floor, threads in ((5760, 2), (5761, 1)):
        monkeypatch.setattr(train_module, "HELPER_FLOOR", floor)
        assert train(source, target, cfg)[1].train_threads == threads


@pytest.mark.parametrize("per_class, threads", [(3, 1), (4, 2)])
def test_a_wide_run_whose_sampler_caps_the_batch_opens_a_pool_from_the_floor(
        monkeypatch, per_class, threads):
    # at the default 1024/512 widths the samplers cap 64 at the 2 x per_class
    # rows: 8 x 1024 x 512 multiply-adds are the floor, 2^22; 6 rows fall under it
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    source, target = gen_rotated_blobs(SynthSpec(classes=2, dim=6, per_class=per_class))
    assert train(source, target, TrainConfig(t_max=2))[1].train_threads == threads


def _run_bytes(run) -> tuple[str, bytes]:
    params, metrics = run
    return metrics.to_jsonl(), b"".join(params.tensors[n].tobytes() for n in PARAM_NAMES)


@pytest.mark.parametrize("per_class", [200, 525])
def test_a_narrow_run_opens_no_pool_whatever_its_target_rows(monkeypatch, per_class):
    # 128/64 wide on 32 dims and 4 classes: 64 x 128 x 64 multiply-adds are
    # under the floor, so neither an 800-row nor a 2100-row target, whose
    # evaluate has a second half of chunks, starts a thread
    source, target = gen_rotated_blobs(SynthSpec(classes=4, dim=32, per_class=per_class,
                                                 shift_angle=40.0, noise_sigma=0.25))
    cfg = TrainConfig(hidden_dim=128, feat_dim=64, t_max=20, eval_every=10)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    started = []
    thread_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert train(source, target, cfg)[1].train_threads == 1 and started == []


def test_sgd_update_returns_with_the_helpers_half_done():
    # the helper's half of the rows queues behind a job that holds the
    # helper for 0.1 s; sgd_update must still return with every row updated,
    # since the next tensor's update reuses the scratch rows the helper writes
    rng = np.random.default_rng(4)
    theta, grad, velocity = (rng.normal(size=(7, 5)) for _ in range(3))
    expected_v = velocity * 0.9 + grad + 0.01 * theta
    expected_theta = theta - 0.1 * expected_v
    with ThreadPoolExecutor(max_workers=1) as helper:
        helper.submit(time.sleep, 0.1)
        sgd_update(theta, grad, velocity, 0.1, 0.9, 0.01, np.full((7, 5), np.nan), helper)
        assert np.array_equal(velocity, expected_v) and np.array_equal(theta, expected_theta)


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


def test_evaluate_chunking_does_not_change_predictions(monkeypatch):
    source, _ = small_pair()
    params = init_xavier_params()
    whole = evaluate(params, source)
    train_module = importlib.import_module("bjda.train")
    for chunk in (1, 7, len(source) - 1, len(source)):
        monkeypatch.setattr(train_module, "EVAL_CHUNK", chunk)
        pieces = evaluate(params, source)
        assert np.array_equal(whole.predictions, pieces.predictions)
        assert whole.accuracy == pieces.accuracy


def test_evaluate_does_not_depend_on_the_worker_count():
    # three full chunks and a ragged one of 7 rows, evaluated on the caller
    # alone and with a one-worker pool that takes the second half
    rng = np.random.default_rng(8)
    rows = 3 * 1024 + 7
    labels = rng.integers(-1, 3, size=rows)
    data = Dataset(rng.normal(size=(rows, 6)), labels, 3, "ragged")
    params = init_xavier_params()
    reference = np.concatenate([
        hard_pseudo_labels(predict_probs(params, data.features[i:i + 1024]))[0]
        for i in range(0, rows, 1024)])
    with ThreadPoolExecutor(max_workers=1) as helper:
        results = [evaluate(params, data), evaluate(params, data, helper=helper)]
    for res in results:
        assert np.array_equal(res.predictions, reference)
        assert res.accuracy == results[0].accuracy
        assert res.per_class == results[0].per_class
        assert res.n_unlabeled == int((labels < 0).sum())


class _CountingPool(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(max_workers=1)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize("rows, submits", [(800, 0), (2100, 1)])
def test_evaluate_hands_the_pool_only_a_second_chunk(rows, submits):
    # a one-chunk target stays on the caller; a three-chunk one sends its second half
    rng = np.random.default_rng(rows)
    data = Dataset(rng.normal(size=(rows, 32)), rng.integers(0, 4, size=rows), 4)
    params = init_xavier(ModelDims(32, 1024, 512, 4), 0)
    with _CountingPool() as pool:
        pooled = evaluate(params, data, helper=pool)
    assert pool.submits == submits
    assert np.array_equal(pooled.predictions, evaluate(params, data).predictions)


def _evaluate_two_ways(monkeypatch, params, data):
    """evaluate's predictions with no helper and with a one-worker pool,
    each checked against the per-chunk reference
    hard_pseudo_labels(predict_probs(chunk)). Returns the reference and, per
    run, how many chunks fell back to forward_probs."""
    train_module = importlib.import_module("bjda.train")
    calls = []
    forward_probs = train_module.forward_probs
    monkeypatch.setattr(train_module, "forward_probs",
                        lambda *args: calls.append(1) or forward_probs(*args))
    reference = np.concatenate([
        hard_pseudo_labels(predict_probs(params, data.features[i:i + 1024]))[0]
        for i in range(0, len(data), 1024)])
    fallbacks = []
    for helper in (None, ThreadPoolExecutor(max_workers=1)):
        calls.clear()
        with helper or contextlib.nullcontext():
            assert np.array_equal(evaluate(params, data, helper=helper).predictions, reference)
        fallbacks.append(len(calls))
    return reference, fallbacks


def _ragged_data(dim, classes, seed=8):
    # three full chunks and a ragged one of 7 rows
    rng = np.random.default_rng(seed)
    rows = 3 * 1024 + 7
    return Dataset(rng.normal(size=(rows, dim)), rng.integers(0, classes, size=rows), classes)


def test_evaluate_takes_the_collapsed_head_on_a_trained_model(monkeypatch):
    source, target = small_pair()
    params, _ = train(source, target, BASE)
    _, fallbacks = _evaluate_two_ways(monkeypatch, params, _ragged_data(6, 3))
    assert fallbacks == [0, 0]


def test_evaluate_falls_back_on_an_exact_tie_and_the_lower_class_wins(monkeypatch):
    # head columns 1 and 2 equal, with biases that put them first on every row
    params = init_xavier_params()
    params.tensors["wc"][:, 2] = params.tensors["wc"][:, 1]
    params.tensors["bc"][0, 1:] = 5.0
    reference, fallbacks = _evaluate_two_ways(monkeypatch, params, _ragged_data(6, 3))
    assert fallbacks == [4, 4]
    assert (reference == 1).all()


def test_evaluate_keeps_the_exact_labels_on_a_near_tie(monkeypatch):
    # head column 2 is column 1 plus noise far below the logits' rounding;
    # the collapsed head's unguarded argmax gets some rows wrong
    params = init_xavier(ModelDims(16, hidden=64, feat=32, classes=3), 0)
    t = params.tensors
    rng = np.random.default_rng(5)
    t["wc"][:, 2] = t["wc"][:, 1] + 1e-16 * rng.normal(size=32)
    data = Dataset(rng.normal(size=(1024, 16)), rng.integers(0, 3, size=1024), 3)
    z = data.features @ t["w1"] + t["b1"]
    h = np.where(z > 0.0, z, LEAKY_SLOPE * z)
    unguarded = np.argmax(h @ (t["w2"] @ t["wc"]) + (t["b2"] @ t["wc"] + t["bc"]), axis=1)
    reference, _ = _evaluate_two_ways(monkeypatch, params, data)
    assert (unguarded != reference).any()


def test_a_one_class_checkpoint_predicts_class_zero(monkeypatch, tmp_path):
    save_checkpoint(init_xavier(ModelDims(6, hidden=16, feat=8, classes=1), 0), tmp_path / "m.bin")
    params = load_checkpoint(tmp_path / "m.bin")
    data = _ragged_data(6, 1)
    reference, fallbacks = _evaluate_two_ways(monkeypatch, params, data)
    assert (reference == 0).all() and fallbacks == [4, 4]
    assert evaluate(params, data).accuracy == 1.0


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
    assert cell.accuracy == evaluate(params, target).accuracy


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


def test_a_helper_run_beside_another_run_matches_its_one_thread_run(monkeypatch):
    # three threads on at most two CPUs, switching often: a run on the main
    # thread with a helper taking every pair of products, SGD half and
    # evaluate half (floor 0), and a second run beside it, which opens no
    # helper, must write what the first run writes on one thread alone
    from dataclasses import replace
    monkeypatch.setattr(train_module, "HELPER_FLOOR", 0)
    source, target = gen_rotated_blobs(SynthSpec(classes=3, dim=6, per_class=400,
                                                 shift_angle=30.0, noise_sigma=0.25))
    cfg = TrainConfig(hidden_dim=512, feat_dim=256, t_max=20, batch_source=32,
                      batch_target=32, eval_every=10)

    monkeypatch.setattr(ad, "usable_cpus", lambda: 1)
    alone = _run_bytes(train(source, target, cfg))
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            beside = pool.submit(train, source, target, replace(cfg, seed=1))
            params, metrics = train(source, target, cfg)
            assert beside.result(timeout=120)[1].train_threads == 1
    finally:
        sys.setswitchinterval(interval)
    assert metrics.train_threads == 2
    assert _run_bytes((params, metrics)) == alone


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

    serial = [_run_bytes(train(source, target, cfg)) for cfg in configs]
    start = threading.Barrier(len(configs))

    def run(cfg):
        start.wait(timeout=60)
        return _run_bytes(train(source, target, cfg))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            futures = [pool.submit(run, cfg) for cfg in configs]
            concurrent = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
