"""End-to-end command-line behavior: artifacts, literals, exit codes."""
import importlib
import json
import re

import numpy as np
import pytest

from bjda.cli import emit_config, main, parse_config
from bjda.data import SynthSpec, gen_rotated_blobs, save_csv
from bjda.errors import ConfigError, NumericalError
from bjda.gradcheck import CheckCase
from bjda.kernels import KernelSpec
from bjda.model import load_checkpoint
from bjda.train import TrainConfig

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

def test_train_writes_all_artifacts(data_dir, tmp_path, capsys):
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
    assert set(summary) == {"final_target_accuracy", "proto_skips", "label_term_skips",
                            "dmc_target_skips", "trip_degenerate", "config",
                            "wall_clock_seconds"}
    assert 0.0 <= summary["final_target_accuracy"] <= 1.0
    assert summary["final_target_accuracy"] == json.loads(lines[-1])["target_acc"]
    assert summary["config"]["variant"] == "full"
    assert summary["config"]["t_max"] == "6"
    assert summary["wall_clock_seconds"] > 0.0


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
                                 "leaky_slope"])
def test_non_finite_float_keys_exit_2_before_training(data_dir, tmp_path, capsys, key, raw):
    out = tmp_path / "o"
    code = main(["train", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--set", f"{key}={raw}", "--out", str(out)] + FAST)
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {key} must be finite, got {raw}"
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


def test_distance_ot_unequal_sizes_exits_2(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "label,f0\n0,0\n0,1\n")
    b = _write(tmp_path / "b.csv", "label,f0\n0,1\n")
    assert main(["distance", "--kind", "ot", "--a", a, "--b", b]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_passes_and_lists_every_case(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all 27 gradient checks passed" in out
    for name in ("nuclear_norm", "triplet_hinge", "l_dmc", "end_to_end"):
        assert re.search(rf"^{name}\s+max rel err", out, re.M)


def test_gradcheck_flags_a_broken_gradient(monkeypatch, capsys):
    # forward depends on the input value, but the tape never sees the leaf,
    # so the analytic gradient is zero while finite differences are not
    def constant_route(seed=0):
        def build(tape, leaves):
            return tape.leaf(leaves[0].value * 2.0, "detached").sum()
        return [CheckCase("broken", [np.ones((2, 2))], build, 1e-4)]

    monkeypatch.setattr("bjda.gradcheck.build_cases", constant_route)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "1 of 1 checks failed" in out
    assert re.search(r"^broken\s+max rel err .*FAIL", out, re.M)


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


def test_suite_rejects_malformed_seeds(data_dir, tmp_path, capsys):
    code = main(["suite", "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv"),
                 "--seeds", "0,x", "--out", str(tmp_path / "s")])
    assert code == 2
    capsys.readouterr()


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
    for cfg in (TrainConfig(),
                TrainConfig(variant="triplet", pl=True, lambda1=1.25,
                            kernel=KernelSpec("linear"), seed=9,
                            hidden_dim=64, feat_dim=32),
                TrainConfig(kernel=KernelSpec("gaussian", 2.5),
                            confidence_threshold=0.95, proto_mode="ema")):
        assert parse_config(emit_config(cfg)) == cfg


def test_config_parser_rejects_bad_text():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("shared_bandwidth = false\n")  # kbw_sq has one kernel only
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
                       base=TrainConfig(kernel=KernelSpec("gaussian", 2.0)))
    assert cfg.kernel.bandwidth_sq is None
    assert "kernel_bandwidth_sq = auto" in emit_config(cfg)


def test_config_validation_failures_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config("lr = -1.0\n")
    with pytest.raises(ConfigError):
        parse_config("variant = magic\n")
