"""End-to-end command-line behavior: artifacts, literals, exit codes."""
import dataclasses
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tape_ops as ops
from bjda import autodiff as ad
from bjda import cli, gradcheck
from bjda.cli import emit_config, main, parse_config
from bjda.data import SynthSpec, gen_rotated_blobs, load_csv, save_csv
from bjda.errors import ConfigError, NumericalError
from bjda.gradcheck import CheckCase
from bjda.model import hard_pseudo_labels, load_checkpoint, predict_probs
from bjda.train import VARIANTS, TrainConfig, evaluate

train_module = importlib.import_module("bjda.train")

FAST = ["--set", "hidden_dim=16", "--set", "feat_dim=8", "--set", "t_max=6",
        "--set", "batch_source=12", "--set", "batch_target=12",
        "--set", "eval_every=3"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    spec = SynthSpec(classes=3, dim=5, per_class=12, shift_angle=30.0,
                     noise_sigma=0.25)
    source, target = gen_rotated_blobs(spec)
    save_csv(source, root / "source.csv")
    save_csv(target, root / "target.csv")
    unlabeled = target
    unlabeled.labels = np.full(len(target), -1)
    save_csv(unlabeled, root / "target_unlabeled.csv")
    return root


# ---------------------------------------------------------------- synth

def test_synth_writes_identical_files_per_seed(tmp_path, capsys):
    args = ["synth", "--classes", "3", "--dim", "4", "--per-class", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("source.csv", "target.csv", "spec.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_train_exits_4_when_a_parameter_turns_non_finite(data_dir, tmp_path, capsys,
                                                        monkeypatch):
    train_module = importlib.import_module("bjda.train")
    real_init = train_module.init_xavier

    def poisoned(dims, seed):
        params = real_init(dims, seed)
        params.tensors["w2"][1, 0] = np.nan
        return params

    monkeypatch.setattr(train_module, "init_xavier", poisoned)
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--out", str(tmp_path / "run")] + FAST)
    assert code == 4
    assert ("numerical error: make_leaves: parameter w2 has a non-finite entry at (1, 0)"
            in capsys.readouterr().err)


def test_synth_rejects_single_class(tmp_path, capsys):
    code = main(["synth", "--classes", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- train

def test_train_writes_all_artifacts(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--out", str(out)] + FAST)
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"trained variant=full seed=0 for 6 iterations; "
                     r"target accuracy \d\.\d{4}", stdout)

    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 6
    row = json.loads(lines[0])
    assert set(row) == {"iter", "l_cls", "l_da", "l_dmc", "total",
                        "target_acc", "pl_accept"}

    params = load_checkpoint(out / "model.bin")
    assert params.dims.input_dim == 5
    assert params.dims.classes == 3

    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"status", "error", "final_target_accuracy", "final_per_class_accuracy",
                            "proto_skips", "label_term_skips",
                            "dmc_target_skips", "trip_degenerate", "tape_nodes", "train_threads",
                            "config", "wall_clock_seconds", "load_seconds", "numpy_version",
                            "blas", "blas_threads", "blas_threads_env"}
    assert summary["status"] == "ok" and summary["error"] is None
    # test_training_records_a_fixed_number_of_tape_nodes pins 22 for full
    assert summary["tape_nodes"] == 22
    assert summary["train_threads"] == 1  # 16/8 wide: under the floor, the run opens no pool
    assert 0.0 <= summary["final_target_accuracy"] <= 1.0
    assert summary["final_target_accuracy"] == json.loads(lines[-1])["target_acc"]
    assert summary["config"]["variant"] == "full"
    assert summary["config"]["t_max"] == "6"
    assert summary["wall_clock_seconds"] > 0.0
    assert summary["load_seconds"] > 0.0
    assert summary["numpy_version"] == np.__version__
    assert summary["blas"] == cli._blas()
    assert summary["blas_threads_env"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "1",
                                           "MKL_NUM_THREADS": None}


def test_summary_blas_is_numpys_library_or_null(monkeypatch):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert cli._blas() == {"name": blas["name"], "version": blas["version"]}
    assert all(isinstance(v, str) and v for v in cli._blas().values())

    def show_config():  # numpy 1.24's signature: no mode, prints only
        return None

    monkeypatch.setattr(np, "show_config", show_config)
    assert cli._blas() == {"name": None, "version": None}


@pytest.mark.parametrize("threads", [1, 2])
def test_summary_blas_threads_is_the_count_openblas_reports(threads, data_dir, tmp_path):
    # a fresh process, so OpenBLAS reads the variable when numpy loads it
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = tmp_path / "run"
    subprocess.run([sys.executable, "-m", "bjda.cli", "train",
                    "--source", str(data_dir / "source.csv"),
                    "--target", str(data_dir / "target.csv"), "--out", str(out), *FAST],
                   env=env, check=True, capture_output=True)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blas_threads"] in (threads, None)
    assert summary["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == str(threads)


@pytest.fixture(scope="module")
def blobs_dir(tmp_path_factory):
    """The 40-degree rotated-blobs pair at the synth defaults: 800 rows a file."""
    root = tmp_path_factory.mktemp("blobs")
    for dataset, name in zip(gen_rotated_blobs(SynthSpec(shift_angle=40.0)),
                             ("source.csv", "target.csv")):
        save_csv(dataset, root / name)
    return root


def _train_on_cpus(cpus, blobs_dir, out, monkeypatch, capsys, keys):
    monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
    code = main(["train", "--source", str(blobs_dir / "source.csv"),
                 "--target", str(blobs_dir / "target.csv"), "--out", str(out)]
                + [arg for key in keys for arg in ("--set", key)])
    err = capsys.readouterr().err
    if code != 0:
        return code, err, None, None
    files = [(out / name).read_bytes() for name in ("metrics.jsonl", "model.bin")]
    return code, err, files, json.loads((out / "summary.json").read_text())["train_threads"]


# perfbench's regime. Within 40 iterations at the default lr no target row
# of a 128/64 model passes the gate, so the label term and the margin loss's
# target rows are skipped, except under triplet, whose features grow: some
# of its rows pass, and those go through take
PL_REGIME = ["pl=true", "confidence_threshold=0.95", "proto_mode=ema"]


@pytest.mark.parametrize("variant, regime",
                         [pytest.param(v, [], id=v) for v in VARIANTS]
                         + [pytest.param(v, PL_REGIME, id=f"{v}-pl") for v in VARIANTS])
def test_train_writes_the_same_bytes_on_one_thread_and_two(blobs_dir, tmp_path, capsys,
                                                         monkeypatch, variant, regime):
    # floor 0: with two CPUs every pair of products, SGD half and evaluate
    # chunk goes to the helper; triplet at lr 0.01 diverges at iteration 28
    monkeypatch.setattr(train_module, "HELPER_FLOOR", 0)
    diverges = variant == "triplet" and not regime
    keys = ["hidden_dim=128", "feat_dim=64", "t_max=40", "eval_every=20", f"variant={variant}"]
    keys += (["lr=0.01"] if diverges else []) + regime
    one, two = (_train_on_cpus(cpus, blobs_dir, tmp_path / f"cpus{cpus}", monkeypatch, capsys,
                               keys) for cpus in (1, 2))
    assert one[:3] == two[:3]
    if diverges:
        assert one[0] == 4 and "at iteration 28; the run diverged" in one[1]
    else:
        assert one[0] == 0 and (one[3], two[3]) == (1, 2)


def test_a_diverged_run_leaves_its_records_and_a_summary_but_no_model(blobs_dir, tmp_path,
                                                                      capsys):
    # the triplet run above, which diverges at iteration 28, against the same
    # config stopped at 27 iterations. Every 9th iteration is evaluated, so
    # iteration 27's record holds an accuracy in both runs
    keys = ["hidden_dim=128", "feat_dim=64", "eval_every=9", "variant=triplet", "lr=0.01"]
    runs = {}
    for t_max in (40, 27):
        out = tmp_path / f"t{t_max}"
        out.mkdir()
        (out / "model.bin").write_bytes(b"an earlier run's model")
        code = main(["train", "--source", str(blobs_dir / "source.csv"),
                     "--target", str(blobs_dir / "target.csv"), "--out", str(out)]
                    + [arg for key in keys + [f"t_max={t_max}"] for arg in ("--set", key)])
        summary = json.loads((out / "summary.json").read_text())
        runs[t_max] = code, capsys.readouterr().err, (out / "metrics.jsonl").read_bytes(), summary
    message = "feature magnitudes blew up at iteration 28; the run diverged"
    code, err, records, summary = runs[40]
    assert (code, err) == (4, f"numerical error: {message}\n")
    assert not (tmp_path / "t40" / "model.bin").exists()
    assert (summary["status"], summary["error"]) == ("diverged", message)
    assert runs[27][0] == 0 and (runs[27][3]["status"], runs[27][3]["error"]) == ("ok", None)
    assert len(records.splitlines()) == 27 and records == runs[27][2]
    assert summary["final_target_accuracy"] == runs[27][3]["final_target_accuracy"]


def test_the_pair_load_forks_again_after_an_in_process_train(blobs_dir, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(train_module, "HELPER_FLOOR", 0)
    monkeypatch.setattr(cli, "PAIR_FORK_FLOOR", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    paths = (blobs_dir / "source.csv", blobs_dir / "target.csv")
    assert cli._fork_pays(paths)
    code, _, _, threads = _train_on_cpus(2, blobs_dir, tmp_path / "run", monkeypatch, capsys,
                                         ["hidden_dim=16", "feat_dim=8", "t_max=3"])
    assert (code, threads) == (0, 2)
    assert cli._fork_pays(paths)


def test_reloaded_checkpoint_scores_the_summary_accuracy(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--out", str(out)] + FAST) == 0
    capsys.readouterr()
    target = load_csv(data_dir / "target.csv")
    probs = predict_probs(load_checkpoint(out / "model.bin"), target.features)
    acc = float((hard_pseudo_labels(probs)[0] == target.labels).mean())
    assert acc == json.loads((out / "summary.json").read_text())["final_target_accuracy"]


def test_summary_per_class_accuracy_is_the_saved_models(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--out", str(out)] + FAST) == 0
    capsys.readouterr()
    per_class = evaluate(load_checkpoint(out / "model.bin"),
                         load_csv(data_dir / "target.csv")).per_class
    assert len(per_class) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_per_class_accuracy"] == {str(c): acc for c, acc in per_class.items()}


def test_train_config_file_with_set_overrides(data_dir, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("t_max = 5\nvariant = source_only\nhidden_dim = 16\n"
                        "feat_dim = 8\nbatch_source = 12\nbatch_target = 12\n")
    out = tmp_path / "run"
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--config", str(cfg_file), "--set", "t_max=7",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 7
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["variant"] == "source_only"


def test_summary_config_written_as_lines_reproduces_the_run(data_dir, tmp_path):
    # the README's recipe: each `config` entry of summary.json as a
    # key = value line
    overrides = FAST + ["--set", "variant=wd", "--set", "kernel_bandwidth_sq=2.5"]
    data = ["--source", str(data_dir / "source.csv"), "--target", str(data_dir / "target.csv")]
    assert main(["train"] + data + ["--out", str(tmp_path / "a")] + overrides) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    fed = tmp_path / "fed.cfg"
    fed.write_text("".join(f"{key} = {value}\n" for key, value in summary["config"].items()))
    assert parse_config(fed.read_text()) == parse_config("\n".join(overrides[1::2]))
    assert main(["train"] + data + ["--config", str(fed), "--out", str(tmp_path / "b")]) == 0
    for name in ("metrics.jsonl", "model.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_unlabeled_target_reports_no_accuracy(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target_unlabeled.csv"),
                 "--out", str(out)] + FAST)
    assert code == 0
    assert "target accuracy n/a" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_target_accuracy"] is None
    assert summary["final_per_class_accuracy"] is None
    assert all(json.loads(line)["target_acc"] is None
               for line in (out / "metrics.jsonl").read_text().splitlines())


def test_summary_carries_the_skip_counters(data_dir, tmp_path):
    # a confidence gate nothing clears skips the label term and the target
    # margin rows on every iteration
    out = tmp_path / "run"
    assert main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"), "--out", str(out),
                 "--set", "pl=true", "--set", "confidence_threshold=0.999999"]
                + FAST) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["label_term_skips"] == 6
    assert summary["dmc_target_skips"] == 6
    assert isinstance(summary["proto_skips"], int)
    assert summary["trip_degenerate"] == 0


# ---------------------------------------------------------------- exit codes

def test_missing_input_file_exits_3(tmp_path, capsys):
    code = main(["train", "--source", str(tmp_path / "nope.csv"),
                 "--target", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_bad_override_exits_2(data_dir, tmp_path, capsys):
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--set", "lr=fast", "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("key", ["lambda1", "lambda2", "weight_decay", "triplet_margin",
                                 "lr", "momentum", "confidence_threshold", "ema_decay"])
def test_non_finite_float_keys_exit_2_before_training(data_dir, tmp_path, capsys, key, raw):
    out = tmp_path / "o"
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--set", f"{key}={raw}", "--out", str(out)] + FAST)
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {key} must be finite, got {raw}"
    assert not out.exists()


def test_a_negative_seed_exits_2_before_training(data_dir, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--set", "seed=-1", "--out", str(out)] + FAST)
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: seed must be >= 0, got -1"
    assert not out.exists()


def test_divergent_run_exits_4(data_dir, tmp_path, capsys):
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--set", "lr=1e20", "--out", str(tmp_path / "o")] + FAST)
    assert code == 4
    assert "numerical error" in capsys.readouterr().err


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- pair load

def _fork_always(monkeypatch) -> list:
    """Make every pair load fork; the list returned records each fork."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "PAIR_FORK_FLOOR", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    return calls


@pytest.fixture
def forks(monkeypatch):
    return _fork_always(monkeypatch)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_pair_load_equals_the_serial_load(data_dir, forks):
    paths = (data_dir / "source.csv", data_dir / "target_unlabeled.csv")
    pair = cli._load_pair(*paths, ("source", "target"))
    assert len(forks) == 1
    _assert_no_child_left()
    for got, path, name in zip(pair, paths, ("source", "target")):
        want = load_csv(path, name=name)
        assert got.features.dtype == want.features.dtype
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.dtype == want.labels.dtype
        assert np.array_equal(got.labels, want.labels)
        assert (got.class_count, got.name) == (want.class_count, want.name)


_GOOD = "# classes=2\nlabel,f0\n0,1.5\n1,-2.0\n"
_BAD = "# classes=2\nlabel,f0\n0,1.5\n1,oops\n"


# a missing file has no size, so that load stays serial; a directory has
# one, and the child fails to open it
@pytest.mark.parametrize("source_text, target_text, forked", [
    (_GOOD, _BAD, 2), (_BAD, _GOOD, 2), (_BAD, _BAD.replace("0,1.5", "5,1.5"), 2),
    (_GOOD, None, 0), (_GOOD, "dir", 2),
], ids=["bad target line", "bad source line", "both bad", "missing target",
        "target is a directory"])
def test_forked_pair_load_fails_as_the_serial_load(tmp_path, capsys, monkeypatch,
                                                   source_text, target_text, forked):
    source = _write(tmp_path / "source.csv", source_text)
    target = tmp_path / "target.csv"
    if target_text == "dir":
        target.mkdir()
    elif target_text is not None:
        _write(target, target_text)
    argv = ["distance", "--a", source, "--b", str(target)]

    outcomes, calls = [], []
    for fork in (False, True):
        if fork:
            calls = _fork_always(monkeypatch)
        with pytest.raises(Exception) as caught:
            cli._load_pair(source, target, ("a", "b"))
        code = main(argv)
        outcomes.append((type(caught.value), str(caught.value), code,
                         capsys.readouterr().err))
    assert len(calls) == forked
    _assert_no_child_left()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == (3 if target_text in (None, "dir") else 2)


def test_a_child_that_exits_non_zero_after_sending_is_not_trusted(data_dir, forks,
                                                                  monkeypatch):
    dump = pickle.dump

    def send_then_fail(dataset, pipe, **kwargs):
        dump(dataset, pipe, **kwargs)
        raise OSError("after the send")

    parsed_here = []

    def load_here(path, **kwargs):
        parsed_here.append(path)
        return load_csv(path, **kwargs)

    monkeypatch.setattr(pickle, "dump", send_then_fail)
    monkeypatch.setattr(cli, "load_csv", load_here)
    paths = (data_dir / "source.csv", data_dir / "target.csv")
    cli._load_pair(*paths, ("source", "target"))
    assert len(forks) == 1
    _assert_no_child_left()
    assert parsed_here == list(paths)


def test_train_writes_the_same_bytes_whether_the_pair_load_forks(data_dir, tmp_path,
                                                                 monkeypatch):
    argv = ["train", "--source", str(data_dir / "source.csv"),
            "--target", str(data_dir / "target.csv")] + FAST
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    calls = _fork_always(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "forked")]) == 0
    assert len(calls) == 1
    _assert_no_child_left()
    for name in ("metrics.jsonl", "model.bin"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "forked" / name).read_bytes()


def test_a_pair_under_the_floor_loads_without_forking(tmp_path, monkeypatch):
    # the rotated-blobs pair at the synth defaults, as the narrow benchmark
    # workloads write it
    source, target = gen_rotated_blobs(SynthSpec(shift_angle=40.0))
    paths = (tmp_path / "source.csv", tmp_path / "target.csv")
    for dataset, path in zip((source, target), paths):
        save_csv(dataset, path)
        assert 500_000 < path.stat().st_size < cli.PAIR_FORK_FLOOR

    def fork():
        raise AssertionError("forked under the floor")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    loaded = cli._load_pair(*paths, ("source", "target"))
    assert [len(d) for d in loaded] == [len(source), len(target)]


# ---------------------------------------------------------------- distance

def _write(path, text):
    path.write_text(text)
    return str(path)


def test_distance_kbw_self_is_near_zero(data_dir, capsys):
    src = str(data_dir / "source.csv")
    assert main(["distance", "--a", src, "--b", src]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("(kbw distance, gaussian kernel)")
    assert float(out.split()[0]) < 1e-4


def test_distance_prints_twelve_decimals(data_dir, capsys):
    code = main(["distance", "--a", str(data_dir / "source.csv"),
                 "--b", str(data_dir / "target.csv"), "--kernel", "linear"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"\d+\.\d{12} \(kbw distance, linear kernel\)", out)


@pytest.mark.parametrize("command", [
    ["distance", "--kernel", "linear", "--bandwidth-sq", "2.0"],
    ["train", "--set", "kernel_kind=linear", "--set", "kernel_bandwidth_sq=2.0"] + FAST,
], ids=["distance", "train"])
def test_a_bandwidth_for_the_linear_kernel_exits_2(data_dir, tmp_path, capsys, command):
    a, b = str(data_dir / "source.csv"), str(data_dir / "target.csv")
    files = ["--a", a, "--b", b] if command[0] == "distance" else \
        ["--source", a, "--target", b, "--out", str(tmp_path / "o")]
    assert main(command + files) == 2
    assert capsys.readouterr().err.strip() == \
        "error: the linear kernel takes no bandwidth_sq, got 2.0"
    assert not (tmp_path / "o").exists()


def test_distance_exact_transport_literal(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "label,f0\n0,0\n0,1\n")
    b = _write(tmp_path / "b.csv", "label,f0\n0,1\n0,2\n")
    assert main(["distance", "--kind", "ot", "--a", a, "--b", b]) == 0
    assert capsys.readouterr().out.strip() == "1.000000000000 (squared)"


def test_distance_bures_self_is_exactly_zero(data_dir, capsys):
    src = str(data_dir / "source.csv")
    assert main(["distance", "--kind", "bures", "--a", src, "--b", src]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.000000000000 (bures distance between feature covariances)"


def test_distance_bures_rejects_an_empty_sample_by_name(data_dir, tmp_path, capsys):
    empty = _write(tmp_path / "empty.csv", "label,f0\n")
    src = str(data_dir / "source.csv")
    for argv, name in ((["--a", empty, "--b", src], "a"), (["--a", src, "--b", empty], "b")):
        assert main(["distance", "--kind", "bures"] + argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: bures: dataset {name!r} has no rows\n"


@pytest.mark.parametrize("rows", ["", "0,1\n"], ids=["0 rows", "1 row"])
def test_distance_kbw_rejects_a_short_sample_by_name(data_dir, tmp_path, capsys, rows):
    short = _write(tmp_path / "short.csv", "label,f0\n" + rows)
    src = str(data_dir / "source.csv")
    for argv, name in ((["--a", short, "--b", src], "a"), (["--a", src, "--b", short], "b")):
        assert main(["distance", "--kind", "kbw"] + argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: kbw: dataset {name!r} has {rows.count(chr(10))} row(s), "
                       "kbw_sq needs at least 2\n")


def test_distance_ot_unequal_sizes_exits_2(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "label,f0\n0,0\n0,1\n")
    b = _write(tmp_path / "b.csv", "label,f0\n0,1\n")
    assert main(["distance", "--kind", "ot", "--a", a, "--b", b]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- import footprint

# Runs cli.main on argv in an interpreter that has imported nothing else, and
# prints, last, whether scipy's solver was loaded after import bjda and after
# the command. Other tests in this process import the solver already.
FRESH_MAIN = """
import json, sys
import bjda
from bjda import cli
loaded = ["scipy.optimize" in sys.modules]
code = cli.main(sys.argv[1:])
loaded.append("scipy.optimize" in sys.modules)
print(json.dumps(loaded))
sys.exit(code)
"""


def _fresh_main(argv):
    """(stdout before the flags line, [loaded after import, loaded after the command])."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out, _, flags = done.stdout.rstrip("\n").rpartition("\n")
    return out, json.loads(flags)


@pytest.mark.parametrize("argv", [
    ["synth", "--classes", "3", "--dim", "4", "--per-class", "5"],
    *(["train", *FAST, "--set", f"variant={v}"] for v in VARIANTS if v != "wd"),
    ["distance", "--kind", "kbw"],
    ["distance", "--kind", "bures"],
], ids=["synth", *(v for v in VARIANTS if v != "wd"), "kbw", "bures"])
def test_a_command_that_solves_no_assignment_never_loads_scipy(data_dir, tmp_path, argv):
    a, b = str(data_dir / "source.csv"), str(data_dir / "target.csv")
    files = {"synth": ["--out", str(tmp_path / "o")],
             "train": ["--source", a, "--target", b, "--out", str(tmp_path / "o")],
             "distance": ["--a", a, "--b", b]}[argv[0]]
    assert _fresh_main(argv + files)[1] == [False, False]


@pytest.mark.parametrize("argv", [["train", *FAST, "--set", "variant=wd"],
                                  ["distance", "--kind", "ot"]], ids=["wd", "ot"])
def test_an_assignment_loads_scipy_and_writes_the_in_process_bytes(data_dir, tmp_path, capsys,
                                                                  argv):
    a, b = str(data_dir / "source.csv"), str(data_dir / "target.csv")

    def files(side):
        return (["--source", a, "--target", b, "--out", str(tmp_path / side)]
                if argv[0] == "train" else ["--a", a, "--b", b])

    stdout, loaded = _fresh_main(argv + files("fresh"))
    assert loaded == [False, True]
    assert main(argv + files("here")) == 0
    assert capsys.readouterr().out.rstrip("\n") == stdout != ""
    for name in ("metrics.jsonl", "model.bin") if argv[0] == "train" else ():
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_passes_and_lists_every_case(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all 16 gradient checks passed" in out
    for name in ("layer_leaky", "layer_linear", "head", "objective", "l_cls", "l_dmc", "l_trip",
                 "wd", "end_to_end", "end_to_end_helper", "kbw_sq_gaussian", "kbw_sq_linear"):
        assert re.search(rf"^{name}\s+max rel err", out, re.M)


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_passes_every_case_at_more_seeds(seed):
    # every fused adjoint computes its gradient directly, so audit it past
    # criterion 4's seed 0, at the same tolerances
    results = gradcheck.run_all(seed)
    assert len(results) == 16
    assert [f"{r.name} {r.max_rel_err:.2e}" for r in results if not r.passed] == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_end_to_end_fails_without_its_pinned_bandwidth(monkeypatch, seed):
    # the auto bandwidth moves with the parameters but takes no gradient, so
    # training does not follow its objective's gradient. Putting the
    # bandwidth on the tape (ROADMAP item 2, step B) flips this test; the
    # pin and this test then go
    monkeypatch.setattr(gradcheck, "END_TO_END_CONFIG", TrainConfig())
    case = next(c for c in gradcheck.build_cases(seed) if c.name == "end_to_end")
    assert gradcheck.run_case(case).max_rel_err > gradcheck.END_TO_END_TOL


def test_gradcheck_flags_a_broken_gradient(monkeypatch, capsys):
    # forward depends on the input value, but the tape never sees the leaf,
    # so the analytic gradient is zero while finite differences are not
    def constant_route(seed=0):
        def build(tape, leaves):
            detached = tape.leaf(leaves[0].value * 2.0, "detached")
            return ops.matmul(ops.matmul(tape.constant(np.ones((1, 2))), detached),
                              tape.constant(np.ones((2, 1))))
        return [CheckCase("broken", [np.ones((2, 2))], build, 1e-4)]

    monkeypatch.setattr("bjda.gradcheck.build_cases", constant_route)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "1 of 1 checks failed" in out
    assert re.search(r"^broken\s+max rel err .*FAIL", out, re.M)


@pytest.mark.parametrize("argv", [
    ["synth", "--projection-seed", "-1"], ["synth", "--sample-seed", "-1"],
    ["gradcheck", "--seed", "-1"],
], ids=["projection seed", "sample seed", "gradcheck seed"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "pair")] if argv[0] == "synth" else []
    assert main(argv + out) == 2
    assert re.fullmatch(r"error: .*seed must be >= 0, got -1\n", capsys.readouterr().err)
    assert not (tmp_path / "pair").exists()


# ---------------------------------------------------------------- suite

def test_suite_writes_results_and_summary(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["suite", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--variants", "source_only,no_da", "--seeds", "0,1",
                 "--out", str(out)] + FAST)
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "variant,seed,accuracy"
    assert len(rows) == 5
    assert rows[1].startswith("source_only,0,")
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "variant,mean,std"
    assert len(summary) == 3
    stdout = capsys.readouterr().out
    assert re.search(r"source_only: mean accuracy \d\.\d{4} \(std \d\.\d{4}\)",
                     stdout)


def test_suite_failed_cells_in_results_stderr_and_summary(data_dir, tmp_path,
                                                         capsys, monkeypatch):
    # wd fails on every seed (unequal batches); source_only fails on seed 1 only
    train_module = importlib.import_module("bjda.train")
    real_train = train_module.train

    def flaky(source, target, cfg):
        if cfg.variant == "source_only" and cfg.seed == 1:
            raise NumericalError("injected failure")
        return real_train(source, target, cfg)

    monkeypatch.setattr(train_module, "train", flaky)
    out = tmp_path / "sweep"
    fast = [a.replace("batch_target=12", "batch_target=10") for a in FAST]
    code = main(["suite", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--variants", "wd,source_only", "--seeds", "0,1",
                 "--out", str(out)] + fast)
    assert code == 0
    rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()]
    assert rows[0] == ["variant", "seed", "accuracy"]
    assert [r[2] for r in rows[1:3] + rows[4:]] == ["failed"] * 3
    ok_acc = rows[3][2]
    assert rows[3][:2] == ["source_only", "0"] and float(ok_acc) >= 0.0
    err = capsys.readouterr().err
    assert "cell (wd, 0) failed: ConfigError:" in err
    assert "cell (source_only, 1) failed: NumericalError: injected failure" in err
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1] == "wd,nan,nan"
    assert summary[2] == f"source_only,{ok_acc},0"


@pytest.mark.parametrize("target", ["target.csv", "target_unlabeled.csv"])
def test_suite_writes_the_same_files_for_every_jobs_count(data_dir, tmp_path, capsys,
                                                          monkeypatch, target):
    # six cells, the wd ones failing on unequal batches, and every cell
    # failing on the unlabeled target; --jobs 7 asks for more workers than cells
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 8)
    fast = [a.replace("batch_target=12", "batch_target=10") for a in FAST]
    written, errors = [], []
    for jobs in (1, 2, 3, 7):
        out = tmp_path / f"jobs{jobs}"
        assert main(["suite", "--source", str(data_dir / "source.csv"),
                     "--target", str(data_dir / target), "--variants", "wd,source_only,no_da",
                     "--seeds", "0,1", "--jobs", str(jobs), "--out", str(out)] + fast) == 0
        written.append([(out / name).read_bytes() for name in ("results.csv", "summary.csv")])
        errors.append(capsys.readouterr().err)
    assert len(calls) == 0 + 1 + 2 + 5
    _assert_no_child_left()
    assert written[1:] == written[:1] * 3 and errors[1:] == errors[:1] * 3
    assert written[0][0].count(b"failed") == (2 if target == "target.csv" else 6)


def test_suite_rejects_malformed_seeds(data_dir, tmp_path, capsys):
    code = main(["suite", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--seeds", "0,x", "--out", str(tmp_path / "s")])
    assert code == 2
    capsys.readouterr()


def test_suite_checks_every_seed_before_running_a_cell(data_dir, tmp_path, capsys,
                                                       monkeypatch):
    train_module = importlib.import_module("bjda.train")
    ran = []
    monkeypatch.setattr(train_module, "train", lambda *args: ran.append(args))
    out = tmp_path / "s"
    code = main(["suite", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--seeds", "0,1,-1", "--out", str(out)] + FAST)
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: seed must be >= 0, got -1"
    assert ran == [] and not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--jobs", "0"], "error: jobs must be >= 1, got 0"),
    (["--jobs", "-2"], "error: jobs must be >= 1, got -2"),
    (["--variants", ","], "error: the suite needs at least one variant and one seed"),
], ids=["jobs-0", "jobs-negative", "variants-empty"])
def test_suite_rejects_bad_jobs_and_empty_variants(data_dir, tmp_path, capsys,
                                                   flags, message):
    out = tmp_path / "s"
    code = main(["suite", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--out", str(out)] + flags + FAST)
    assert code == 2
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


# ---------------------------------------------------------------- config

def test_config_round_trips_through_emit_and_parse():
    # the linear kernel takes no bandwidth, so the two kernel keys change
    # in two configs
    every_other_key_changed = TrainConfig(
        lambda1=1.5, lambda2=0.25, lr=0.01, momentum=0.5, weight_decay=0.001, t_max=7,
        batch_source=16, batch_target=16, seed=3, variant="wd", triplet_margin=0.5,
        confidence_threshold=0.6, pl=True, proto_mode="ema", ema_decay=0.75,
        hidden_dim=32, feat_dim=16, eval_every=5)
    changed = (dataclasses.replace(every_other_key_changed, kernel_kind="linear"),
               dataclasses.replace(every_other_key_changed, kernel_bandwidth_sq=1.5))
    defaults = TrainConfig()
    assert all(any(getattr(cfg, f.name) != getattr(defaults, f.name) for cfg in changed)
               for f in dataclasses.fields(TrainConfig))
    for cfg in (defaults, *changed,
                TrainConfig(variant="triplet", pl=True, lambda1=1.25,
                            kernel_kind="linear", seed=9,
                            hidden_dim=64, feat_dim=32),
                TrainConfig(kernel_kind="gaussian", kernel_bandwidth_sq=2.5,
                            confidence_threshold=0.95, proto_mode="ema")):
        assert parse_config(emit_config(cfg)) == cfg


def test_config_parser_rejects_bad_text():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("shared_bandwidth = false\n")  # kbw_sq has one kernel only
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("leaky_slope = 0.01\n")  # the slope is model.LEAKY_SLOPE
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("lr = 0.1\nlr = 0.2\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("lr 0.1\n")
    with pytest.raises(ConfigError, match="expected a float"):
        parse_config("lr = fast\n")
    with pytest.raises(ConfigError, match="expected true/false"):
        parse_config("pl = yes\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("t_max = 3.5\n")


def test_config_parser_ignores_comments_and_blanks():
    cfg = parse_config("# a comment\n\nlr = 0.25\n")
    assert cfg.lr == 0.25


def test_config_bandwidth_auto_round_trip():
    cfg = parse_config("kernel_bandwidth_sq = auto\n",
                       base=TrainConfig(kernel_kind="gaussian", kernel_bandwidth_sq=2.0))
    assert cfg.kernel.bandwidth_sq is None
    assert "kernel_bandwidth_sq = auto" in emit_config(cfg)


def test_config_validation_failures_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config("lr = -1.0\n")
    with pytest.raises(ConfigError):
        parse_config("variant = magic\n")
