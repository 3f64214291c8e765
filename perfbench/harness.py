"""Runs one workload in-process through bjda.cli.main, checks what each
invocation wrote, and turns the timings into the metrics of BENCHMARK.json.

A run repeats the workload's bjda command until the run's seconds are used
up, and reports medians over the repetitions. Untraced repetitions only
time the training call that cli.main makes, and between them set-up-only
invocations (cli.main cut off at its training call) add samples of
setup_s. A traced run pairs each untraced repetition with a traced one at
the same seed, so the two can be compared byte for byte and the tracing
overhead read off directly.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Span, Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
CLASSES = 4
# set-up-only invocations take this share of each untraced round, at most
# SETUP_PER_ROUND of them: a 50 ms set-up is too short to time steadily
# from the few full invocations that a run of the slower workloads holds
SETUP_SHARE = 0.1
SETUP_PER_ROUND = 10

# the package's `bjda.train` attribute is the train() function, which
# shadows the submodule of the same name; go through the module registry
cli = importlib.import_module("bjda.cli")
train_mod = importlib.import_module("bjda.train")
losses_mod = importlib.import_module("bjda.losses")
kernels_mod = importlib.import_module("bjda.kernels")
autodiff_mod = importlib.import_module("bjda.autodiff")
model_mod = importlib.import_module("bjda.model")

# per-layer metric -> (unit, span it is read from)
PER_LAYER = {
    "autodiff.backward_ms": ("ms", "autodiff.backward"),
    "autodiff.nuclear_norm_ms": ("ms", "autodiff.nuclear_norm"),
    "autodiff.nodes_per_tape": ("count", "autodiff.backward"),
    "autodiff.tape_mb": ("MB", "autodiff.backward"),
    "autodiff.tapes_alive": ("count", "autodiff.backward"),
    "kernels.kbw_sq_ms": ("ms", "kernels.kbw_sq"),
    "kernels.kbw_sq_self_ms": ("ms", "kernels.kbw_sq"),
    "kernels.gaussian_bandwidth_ms": ("ms", "kernels.gaussian_bandwidth"),
    "kernels.optimal_assignment_ms": ("ms", "kernels.optimal_assignment"),
    "losses.l_dmc_ms": ("ms", "losses.l_dmc"),
    "losses.l_cls_ms": ("ms", "losses.l_cls"),
    "losses.l_trip_ms": ("ms", "losses.l_trip"),
    "model.forward_ms": ("ms", "model.forward"),
    "model.make_leaves_ms": ("ms", "model.make_leaves"),
    "train.sgd_update_ms": ("ms", "train.sgd_update"),
    "train.evaluate_ms": ("ms", "train.evaluate"),
    "train.evaluate_rows_per_s": ("rows/s", "train.evaluate"),
    "train.loop_self_ms": ("ms", "train.loop"),
    "train.cell_s": ("s", "train.loop"),
    "data.load_csv_s": ("s", "data.load_csv"),
    "data.load_csv_rows_per_s": ("rows/s", "data.load_csv"),
    "cli.artifacts_ms": ("ms", None),
    "cli.import_s": ("s", None),
    "trace.iters_per_s_delta": ("1/s", None),
}
END_TO_END_UNITS = {
    "setup_s": "s", "iters_per_s": "1/s", "run_s": "s", "suite_s": "s",
    "peak_rss_mb": "MB", "target_acc": "fraction", "ok_share": "fraction",
}


class CheckError(Exception):
    """An output file of a successful invocation is wrong."""


class _SetupDone(Exception):
    """Raised in place of the training call, to end a set-up-only invocation."""


# ---------------------------------------------------------------------------
# inputs


def rotated_blobs(dim: int, per_class: int, classes: int = CLASSES, shift_deg: float = 50.0,
                  noise: float = 0.25) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rotated-blobs pair, drawn by the benchmark itself so that its
    inputs do not change when the program's generator does. With the
    defaults and dim=32, per_class=200 it equals bjda's default synth pair."""
    basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, 2)))
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.repeat(np.arange(classes), per_class)
    theta = np.deg2rad(shift_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    domains = []
    for domain in (0, 1):
        rng = np.random.default_rng([0, domain])
        coords = centers[labels] + noise * rng.standard_normal((labels.size, 2))
        if domain == 1:
            coords = coords @ rot.T
        domains.append(coords @ basis.T)
    return labels, domains[0], domains[1]


def _write_csv(path: Path, labels: np.ndarray, features: np.ndarray, classes: int) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(f"# classes={classes}\n")
        fh.write(",".join(["label"] + [f"f{i}" for i in range(features.shape[1])]) + "\n")
        np.savetxt(fh, np.column_stack([labels, features]),
                   fmt=["%d"] + ["%.17g"] * features.shape[1], delimiter=",")
    tmp.replace(path)


def write_inputs(wl: Workload, per_class: int, data_dir: Path) -> tuple[Path, Path]:
    """Source and target CSVs; cached under a digest of their contents."""
    labels, source, target = rotated_blobs(wl.dim, per_class)
    digest = hashlib.sha256(labels.tobytes() + source.tobytes() + target.tobytes()).hexdigest()
    folder = data_dir / f"{wl.dim}x{per_class}-{digest[:16]}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = folder / "source.csv", folder / "target.csv"
    for path, features in zip(paths, (source, target)):
        if not path.is_file():
            _write_csv(path, labels, features, CLASSES)
    return paths


def cell_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def command_argv(wl: Workload, source: Path, target: Path, out: Path,
                 seeds: list[int], t_max: int) -> list[str]:
    keys = list(wl.keys) + [f"t_max={t_max}"]
    if wl.eval_every is not None:
        keys.append(f"eval_every={wl.eval_every}")
    argv = [wl.command, "--source", str(source), "--target", str(target), "--out", str(out)]
    if wl.command == "train":
        keys += [f"variant={wl.variants[0]}", f"seed={seeds[0]}"]
    else:
        argv += ["--variants", ",".join(wl.variants), "--seeds", ",".join(map(str, seeds)),
                 "--jobs", str(wl.jobs)]
    for key in keys:
        argv += ["--set", key]
    return argv


# ---------------------------------------------------------------------------
# one invocation


@dataclass
class Rep:
    seeds: tuple[int, ...]
    traced: bool
    tracer: Tracer
    rc: int = 0
    output: str = ""
    crash: str | None = None
    cells: int = 1
    accuracies: list = field(default_factory=list)   # None for a failed cell
    cell_errors: list = field(default_factory=list)
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.crash is None

    @property
    def failed_cells(self) -> int:
        return self.cells if not self.ok else sum(a is None for a in self.accuracies)

    @property
    def main(self) -> Span:
        return self.tracer.spans[0]  # cli.main is the outermost call

    @property
    def phase(self) -> Span:
        """The training call cli.main makes: train() or run_suite()."""
        return next(s for s in self.tracer.spans
                    if s.parent == 0 and s.name in ("train.loop", "cli.run_suite"))


def install(tracer: Tracer, traced: bool) -> None:
    """Wrap the training call always, and every layer when traced."""
    patches = [(cli, "train", "train.loop", {}), (cli, "run_suite", "cli.run_suite", {})]
    if traced:
        patches += [
            (cli, "load_csv", "data.load_csv", {"rows": lambda args, result: len(result)}),
            (cli, "save_checkpoint", "cli.save_checkpoint", {}),
            (train_mod, "train", "train.loop", {}),
            (train_mod, "make_leaves", "model.make_leaves", {}),
            (train_mod, "forward_g", "model.forward", {}),
            (train_mod, "forward_f", "model.forward", {}),
            (train_mod, "kbw_sq", "kernels.kbw_sq", {}),
            (train_mod, "optimal_assignment", "kernels.optimal_assignment", {}),
            (train_mod, "sgd_update", "train.sgd_update", {}),
            (train_mod, "evaluate", "train.evaluate",
             {"rows": lambda args, result: len(result.predictions)}),
            (losses_mod, "l_dmc", "losses.l_dmc", {}),
            (losses_mod, "l_trip", "losses.l_trip", {}),
            (losses_mod, "l_cls", "losses.l_cls", {}),
            (kernels_mod, "gaussian_bandwidth", "kernels.gaussian_bandwidth", {}),
            (autodiff_mod, "nuclear_norm", "autodiff.nuclear_norm", {}),
            (autodiff_mod.Tape, "backward", "autodiff.backward",
             {"on_call": tracer.record_backward}),
        ]
    for owner, attr, name, hooks in patches:
        if hasattr(owner, attr):  # a name that is gone shows up as a missing span
            tracer.patch(owner, attr, name, **hooks)


def run_rep(argv: list[str], seeds: list[int], traced: bool, cells: int = 1) -> Rep:
    gc.collect()  # start each invocation without the previous one's tape cycles
    rep = Rep(tuple(seeds), traced, Tracer(), cells=cells)
    install(rep.tracer, traced)
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            rep.rc = rep.tracer.wrap("cli.main", cli.main)(argv)
    except Exception:  # a crash is a failed invocation; keep its traceback
        rep.crash = traceback.format_exc()
    finally:
        rep.tracer.restore()
    rep.output = buffer.getvalue()
    return rep


def time_setup(argv: list[str]) -> float | None:
    """Seconds from entering cli.main to its training call, which is cut
    off, so nothing is trained or written. None if the call is never made."""
    gc.collect()
    reached = []

    def stop(*args, **kwargs):
        reached.append(time.perf_counter())
        raise _SetupDone

    originals = {attr: getattr(cli, attr) for attr in ("train", "run_suite")}
    for attr in originals:
        setattr(cli, attr, stop)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            started = time.perf_counter()
            cli.main(argv)
    except _SetupDone:
        pass
    finally:
        for attr, original in originals.items():
            setattr(cli, attr, original)
    return reached[0] - started if reached else None


# ---------------------------------------------------------------------------
# output checks


def _expected_dims(wl: Workload) -> tuple[int, int, int, int]:
    defaults = train_mod.TrainConfig()
    keys = dict(k.split("=", 1) for k in wl.keys)
    return (wl.dim, int(keys.get("hidden_dim", defaults.hidden_dim)),
            int(keys.get("feat_dim", defaults.feat_dim)), CLASSES)


def check_train(rep: Rep, out: Path, wl: Workload, *, t_max: int) -> None:
    metrics = (out / "metrics.jsonl").read_bytes()
    lines = metrics.decode().splitlines()
    if len(lines) != t_max:
        raise CheckError(f"metrics.jsonl has {len(lines)} records, expected {t_max}")
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        if rec["iter"] != i:
            raise CheckError(f"metrics.jsonl record {i} has iter {rec['iter']}")
        bad = [k for k in ("l_cls", "l_da", "l_dmc", "total")
               if not isinstance(rec[k], (int, float)) or not math.isfinite(rec[k])]
        if bad:
            raise CheckError(f"metrics.jsonl iter {i}: non-finite {bad}")
    dims = model_mod.load_checkpoint(out / "model.bin").dims
    got = (dims.input_dim, dims.hidden, dims.feat, dims.classes)
    if got != _expected_dims(wl):
        raise CheckError(f"model.bin dims {got}, expected {_expected_dims(wl)}")
    acc = json.loads((out / "summary.json").read_text())["final_target_accuracy"]
    if not isinstance(acc, float) or not 0.0 <= acc <= 1.0:
        raise CheckError(f"summary.json final_target_accuracy {acc!r}")
    rep.accuracies = [acc]
    rep.digest = hashlib.sha256(metrics + (out / "model.bin").read_bytes()).hexdigest()


def check_suite(rep: Rep, out: Path, wl: Workload) -> None:
    results = (out / "results.csv").read_bytes()
    summary = (out / "summary.csv").read_bytes()
    rows = [line.split(",") for line in results.decode().splitlines()]
    cells = [(v, str(s)) for v in wl.variants for s in rep.seeds]
    if rows[0] != ["variant", "seed", "accuracy"] or [tuple(r[:2]) for r in rows[1:]] != cells:
        raise CheckError(f"results.csv rows {[r[:2] for r in rows]} do not match cells {cells}")
    for variant, seed, acc in rows[1:]:
        if acc == "failed":
            rep.accuracies.append(None)
            prefix = f"cell ({variant}, {seed}) failed: "
            rep.cell_errors.append(next((line for line in rep.output.splitlines()
                                         if line.startswith(prefix)), prefix + "(no message)"))
            continue
        value = float(acc)
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"results.csv accuracy {acc} for ({variant}, {seed})")
        rep.accuracies.append(value)
    summary_variants = [line.split(",")[0] for line in summary.decode().splitlines()[1:]]
    if summary_variants != list(wl.variants):
        raise CheckError(f"summary.csv variants {summary_variants}, expected {list(wl.variants)}")
    rep.digest = hashlib.sha256(results + summary).hexdigest()


def check_repeats(reps: list[Rep]) -> list[str]:
    """Invocations at one seed (and one thread count: a run has one) must
    write byte-identical outputs, traced or not."""
    first: dict[tuple, Rep] = {}
    problems = []
    for rep in reps:
        if rep.digest is None:
            continue
        ref = first.setdefault(rep.seeds, rep)
        if rep.digest != ref.digest:
            problems.append(f"seeds {rep.seeds}: outputs differ between repetitions "
                            f"(traced={ref.traced} vs traced={rep.traced})")
    return problems


# ---------------------------------------------------------------------------
# metrics


def _iters_per_s(rep: Rep, t_max: int) -> float:
    return rep.cells * t_max / rep.phase.duration


def end_to_end(reps: list[Rep], t_max: int, setups: list[float]) -> dict[str, float]:
    ok = [r for r in reps if r.ok]
    first_per_seed = {}
    for rep in ok:
        first_per_seed.setdefault(rep.seeds, rep)
    accs = [a for rep in first_per_seed.values() for a in rep.accuracies if a is not None]
    attempted = sum(r.cells for r in reps)
    return {
        "setup_s": statistics.median([r.phase.start - r.main.start for r in ok] + setups),
        "iters_per_s": statistics.median(_iters_per_s(r, t_max) for r in ok),
        "run_s": statistics.median(r.main.duration for r in ok),
        "suite_s": statistics.median(r.phase.duration for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "target_acc": statistics.median(accs) if accs else 0.0,
        "ok_share": 1.0 - sum(r.failed_cells for r in reps) / attempted,
    }


def layer_values(rep: Rep) -> dict[str, float | None]:
    """Per-layer values of one traced invocation, totals over the invocation."""
    t = rep.tracer
    durations = t.durations()
    own = t.self_times()

    def total(name):
        return sum(d for s, d in zip(t.spans, durations) if s.name == name)

    def own_total(name):
        return sum(own[i] for i, s in enumerate(t.spans) if s.name == name)

    def rate(name):
        seconds = total(name)
        return sum(s.rows for s in t.named(name)) / seconds if seconds > 0 else 0.0

    stats = t.backward_stats
    tape_bytes = [s.tape_bytes for s in stats]
    return {
        "autodiff.backward_ms": total("autodiff.backward") * 1e3,
        "autodiff.nuclear_norm_ms": total("autodiff.nuclear_norm") * 1e3,
        "autodiff.nodes_per_tape": statistics.fmean(s.nodes for s in stats) if stats else 0.0,
        "autodiff.tape_mb": (None if None in tape_bytes
                             else max(tape_bytes, default=0) / 1e6),
        "autodiff.tapes_alive": max((s.tapes_alive for s in stats), default=0),
        "kernels.kbw_sq_ms": total("kernels.kbw_sq") * 1e3,
        "kernels.kbw_sq_self_ms": own_total("kernels.kbw_sq") * 1e3,
        "kernels.gaussian_bandwidth_ms": total("kernels.gaussian_bandwidth") * 1e3,
        "kernels.optimal_assignment_ms": total("kernels.optimal_assignment") * 1e3,
        "losses.l_dmc_ms": total("losses.l_dmc") * 1e3,
        "losses.l_cls_ms": total("losses.l_cls") * 1e3,
        "losses.l_trip_ms": total("losses.l_trip") * 1e3,
        "model.forward_ms": total("model.forward") * 1e3,
        "model.make_leaves_ms": total("model.make_leaves") * 1e3,
        "train.sgd_update_ms": total("train.sgd_update") * 1e3,
        "train.evaluate_ms": total("train.evaluate") * 1e3,
        "train.evaluate_rows_per_s": rate("train.evaluate"),
        "train.loop_self_ms": own_total("train.loop") * 1e3,
        "train.cell_s": statistics.median(d for s, d in zip(t.spans, durations)
                                          if s.name == "train.loop")
                        if t.named("train.loop") else 0.0,
        "data.load_csv_s": total("data.load_csv"),
        "data.load_csv_rows_per_s": rate("data.load_csv"),
        "cli.artifacts_ms": (rep.main.end - rep.phase.end) * 1e3,
    }


def per_layer(reps: list[Rep], wl: Workload, t_max: int, import_s: float) -> dict:
    traced = [r for r in reps if r.ok and r.traced]
    plain = [r for r in reps if r.ok and not r.traced]
    per_rep = [layer_values(r) for r in traced]
    metrics = {}
    for name, (unit, span) in PER_LAYER.items():
        if name == "cli.import_s":
            metrics[name] = {"value": import_s, "unit": unit}
            continue
        if name == "trace.iters_per_s_delta":
            delta = (statistics.median(_iters_per_s(r, t_max) for r in traced)
                     - statistics.median(_iters_per_s(r, t_max) for r in plain))
            metrics[name] = {"value": delta, "unit": unit}
            continue
        values = [v[name] for v in per_rep]
        called = span is None or all(r.tracer.named(span) for r in traced)
        if span in wl.expected_spans and not called:
            metrics[name] = {"value": None, "unit": unit,
                             "missing": f"{span} was never called, though {wl.name} should call it"}
        elif None in values:
            metrics[name] = {"value": None, "unit": unit,
                             "missing": "the tape no longer exposes its nodes"}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def split_report(rep: Rep) -> list[str]:
    """Where a traced training call's time went: each span directly under
    it, children included, largest first."""
    t = rep.tracer
    durations = t.durations()
    loops = {i for i, s in enumerate(t.spans) if s.name == "train.loop"}
    loop_total = sum(durations[i] for i in loops)
    shares: dict[str, float] = {}
    for span, duration in zip(t.spans, durations):
        if span.parent in loops:
            shares[span.name] = shares.get(span.name, 0.0) + duration
    own = t.self_times()
    shares["train.loop (self)"] = sum(own[i] for i in loops)
    return [f"{name:<28}{seconds * 1e3:10.1f} ms {100 * seconds / loop_total:6.1f}%"
            for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1])]


# ---------------------------------------------------------------------------
# a whole run


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
                 t_max: int | None = None, per_class: int | None = None,
                 work_dir: Path = WORK_DIR) -> dict:
    """Run one workload for `seconds` and return the result line plus a report.

    t_max and per_class shrink the workload for the benchmark's own tests.
    """
    wl = WORKLOADS[name]
    t_max = t_max or wl.t_max
    seeds = cell_seeds(seed, wl.seeds)
    source, target = write_inputs(wl, per_class or wl.per_class, work_dir / "data")
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir))
    # untraced, a run revisits its first seed once to compare bytes; traced,
    # each traced invocation is compared with its untraced twin
    if trace:
        min_rounds = 1
    else:
        min_rounds = 2 if wl.command == "suite" else len(seeds) + 1
    check = check_suite if wl.command == "suite" else functools.partial(check_train, t_max=t_max)
    reps: list[Rep] = []
    setups: list[float] = []
    problems: list[str] = []
    started = time.perf_counter()
    try:
        rounds = 0
        while True:
            round_start = time.perf_counter()
            rep_seeds = seeds if wl.command == "suite" else [seeds[rounds % len(seeds)]]
            # alternate which twin goes first, so neither always pays for a cold start
            order = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
            for traced in order:
                out = run_dir / f"rep{len(reps)}"
                argv = command_argv(wl, source, target, out, rep_seeds, t_max)
                rep = run_rep(argv, rep_seeds, traced, cells=len(wl.variants) * len(rep_seeds))
                reps.append(rep)
                if rep.ok:
                    try:
                        check(rep, out, wl)
                    except (CheckError, OSError, ValueError, KeyError) as err:
                        problems.append(f"rep {len(reps) - 1}: {err}")
                shutil.rmtree(out, ignore_errors=True)
            if not trace and rep.ok:
                setup = rep.phase.start - rep.main.start
                share = SETUP_SHARE * (time.perf_counter() - round_start)
                for _ in range(min(SETUP_PER_ROUND, int(share / setup))):
                    value = time_setup(argv)
                    if value is None:
                        problems.append(f"rep {len(reps) - 1}: a set-up-only invocation "
                                        "never reached the training call")
                    else:
                        setups.append(value)
            rounds += 1
            now = time.perf_counter()
            if rounds >= min_rounds and now - started + (now - round_start) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems += check_repeats(reps)

    if not any(r.ok for r in reps if r.traced == trace):
        raise RuntimeError(f"{name}: every invocation failed:\n" +
                           "\n".join(r.crash or r.output for r in reps))
    if trace:
        metrics = per_layer(reps, wl, t_max, import_s)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(reps, t_max, setups).items()}
    failures = [r.crash or r.output.strip() for r in reps if not r.ok]
    failures += [e for r in reps for e in r.cell_errors]
    return {
        "result": {"correct": not problems, "attempted": sum(r.cells for r in reps),
                   "failed": sum(r.failed_cells for r in reps),
                   "metrics": metrics},
        "problems": problems,
        "failures": failures,
        "reps": [{"seeds": list(r.seeds), "traced": r.traced, "ok": r.ok,
                  "run_s": r.main.duration,
                  "iters_per_s": _iters_per_s(r, t_max) if r.ok else None}
                 for r in reps],
        "setups": setups,
        "split": split_report(next(r for r in reps if r.traced and r.ok)) if trace else [],
    }
