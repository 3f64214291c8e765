"""The benchmark's own tests: python3 -m pytest perfbench -q

They run every workload shrunk to a few iterations and rows, so they check
the harness and its tracing, not the program's speed.
"""
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
from bjda.data import SynthSpec, gen_rotated_blobs  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"t_max": 3, "per_class": 12}


def tiny_rep(name, tmp_path, traced, seeds=(7,), t_max=TINY["t_max"],
             per_class=TINY["per_class"]):
    wl = WORKLOADS[name]
    source, target = harness.write_inputs(wl, per_class, tmp_path)
    argv = harness.command_argv(wl, source, target, tmp_path / "out", list(seeds), t_max)
    rep = harness.run_rep(argv, list(seeds), traced)
    assert rep.ok, rep.crash or rep.output
    return rep, tmp_path / "out"


def test_inputs_equal_the_programs_default_pair():
    labels, source, target = harness.rotated_blobs(32, 200)
    src, tgt = gen_rotated_blobs(SynthSpec())
    assert (labels == src.labels).all() and (labels == tgt.labels).all()
    assert (source == src.features).all() and (target == tgt.features).all()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        {name: unit for name, (unit, _) in harness.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    run = harness.run_workload(name, seed=3, seconds=0, trace=bool(trace), work_dir=tmp_path,
                               **TINY)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], run["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)), (metric["name"], got)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_are_non_negative_and_children_fit_their_parents(name, tmp_path):
    rep, _ = tiny_rep(name, tmp_path, traced=True, seeds=(1, 2))
    spans = rep.tracer.spans
    assert len(spans) > 10
    for own in rep.tracer.self_times():
        assert own >= 0.0
    for span in spans:
        assert span.end >= span.start
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end
            assert span.duration <= parent.duration


def test_traced_narrow_train_writes_the_same_bytes(tmp_path):
    wl = WORKLOADS["narrow_train"]
    outputs = []
    for traced in (False, True):
        rep, out = tiny_rep("narrow_train", tmp_path / str(traced), traced,
                            t_max=wl.t_max, per_class=wl.per_class)
        outputs.append(((out / "metrics.jsonl").read_bytes(), (out / "model.bin").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == wl.t_max


def test_expected_call_that_never_happens_is_missing_not_zero(tmp_path):
    rep, _ = tiny_rep("narrow_train", tmp_path, traced=True)
    plain, _ = tiny_rep("narrow_train", tmp_path, traced=False)
    wl = dataclasses.replace(WORKLOADS["narrow_train"],
                             expected_spans=WORKLOADS["narrow_train"].expected_spans
                             | {"losses.l_trip"})
    metrics = harness.per_layer([plain, rep], wl, TINY["t_max"], import_s=0.1)
    assert metrics["losses.l_trip_ms"]["value"] is None
    assert "never called" in metrics["losses.l_trip_ms"]["missing"]
    assert metrics["losses.l_dmc_ms"]["value"] > 0


def test_hook_time_is_taken_out_of_the_enclosing_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None, on_call=lambda args: time.sleep(0.05))
    outer = tracer.wrap("outer", lambda: inner())
    tracer.wrap("root", lambda: outer())()
    root, outer_span, _ = tracer.spans
    assert outer_span.hook_s >= 0.05 and root.hook_s == 0.0
    durations, own = tracer.durations(), tracer.self_times()
    assert durations[0] < root.duration - 0.04 and durations[1] < outer_span.duration - 0.04
    assert own[1] < 0.01 and own[0] < 0.01


@pytest.mark.parametrize("name", ["narrow_train", "suite_grid"])
def test_setup_only_invocation_stops_at_the_training_call(name, tmp_path):
    wl = WORKLOADS[name]
    source, target = harness.write_inputs(wl, TINY["per_class"], tmp_path)
    argv = harness.command_argv(wl, source, target, tmp_path / "out", [1, 2], TINY["t_max"])
    seconds = harness.time_setup(argv)
    assert seconds is not None and seconds > 0
    assert not (tmp_path / "out").exists()
    assert harness.cli.train is harness.train_mod.train
