"""Command-line front end.

Subcommands: synth (write a synthetic benchmark pair), train (one run,
writing metrics.jsonl, model.bin, summary.json), distance (standalone
distance between two feature CSVs), gradcheck (finite-difference audit of
every tape node training records), suite (variant x seed sweep to CSV).

Exit codes: 0 success, 2 usage or configuration error, 3 file I/O error,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import pickle
import signal
import sys
import threading
import time
import typing
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Dataset, SynthSpec, gen_rotated_blobs, load_csv, save_csv
from .errors import (ConfigError, DimensionError, DomainError, InputError, NumericalError,
                     ParseError, ValidationError)
from .gradcheck import run_all
from .kernels import (GAUSSIAN, KERNEL_KINDS, KernelSpec, closed_form_bures,
                      exact_wasserstein_sq, kbw_sq)
from .model import save_checkpoint
from .train import VARIANTS, RunMetrics, TrainConfig, run_suite, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_USAGE_ERRORS = (ConfigError, InputError, DimensionError, DomainError,
                 ParseError, ValidationError)


# ---------------------------------------------------------------------------
# config file: one "key = value" per line, one key per TrainConfig field


def _key_type(hint) -> tuple[type, bool]:
    """A field's scalar type, and whether the field may also hold None."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return (args[0], True) if args else (hint, False)


_HINTS = typing.get_type_hints(TrainConfig)
_CONFIG_KEYS = {f.name: _key_type(_HINTS[f.name]) for f in dataclasses.fields(TrainConfig)}


def _render(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg: TrainConfig) -> str:
    """Render a config as key = value lines; parse_config inverts this."""
    return "".join(f"{key} = {_render(getattr(cfg, key))}\n" for key in _CONFIG_KEYS)


def _parse_scalar(key: str, raw: str):
    want, optional = _CONFIG_KEYS[key]
    if optional and raw == "auto":
        return None
    if want is bool:
        if raw not in ("true", "false"):
            raise ConfigError(f"config key {key}: expected true/false, got {raw!r}")
        return raw == "true"
    if want in (int, float):
        try:
            return want(raw)
        except ValueError:
            kind = "an integer" if want is int else "a float"
            raise ConfigError(f"config key {key}: expected {kind}, got {raw!r}") from None
    return raw


def parse_config(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse key = value lines; unknown and repeated keys are rejected."""
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        seen[key] = _parse_scalar(key, raw)

    cfg = dataclasses.replace(base if base is not None else TrainConfig(), **seen)
    cfg.validate()
    return cfg


def _config_and_data(args) -> tuple[TrainConfig, Dataset, Dataset]:
    """The config file, then each --set in order, over the defaults; then
    the source and target CSVs."""
    cfg = TrainConfig()
    texts = ([Path(args.config).read_text()] if args.config else []) + (args.set or [])
    for text in texts:
        cfg = parse_config(text, base=cfg)
    return (cfg, *_load_pair(args.source, args.target, ("source", "target")))


# ---------------------------------------------------------------------------
# loading a pair of CSVs

# Bytes the smaller CSV of a pair must hold before _load_pair parses the two
# at once. On 2 vCPUs a bare fork, exit and wait took 4.5 ms at 80-170 MB RSS
# and 5.3 ms at 550 MB; a forked load of two 134 KB files took 7-8 ms longer
# than parsing one. load_csv parses 40-75 MB/s, so the overlap pays from
# about 0.3-0.6 MB. At 4 MB it saves 55-100 ms, seven to thirteen times its
# cost, and small pairs, whose saving would be lost in run-to-run noise,
# stay serial.
PAIR_FORK_FLOOR = 4_000_000


def _fork_pays(paths) -> bool:
    try:
        smaller = min(os.path.getsize(p) for p in paths)
    except OSError:  # the serial load reports it
        return False
    return (hasattr(os, "fork") and ad.usable_cpus() >= 2 and threading.active_count() == 1
            and smaller >= PAIR_FORK_FLOOR)


def _load_pair(first, second, names: tuple[str, str]) -> tuple[Dataset, Dataset]:
    """load_csv both files; when _fork_pays, a forked child parses the second
    while this process parses the first. The process forks only while it
    runs a single thread, since a fork copies no other thread.

    The child pickles its Dataset into a pipe. If it fails in any way,
    the second file is parsed here, so every error, and the order in which
    errors surface, is the serial load's. No child outlives the call.
    """
    if not _fork_pays((first, second)):
        return load_csv(first, name=names[0]), load_csv(second, name=names[1])
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            dataset = load_csv(second, name=names[1])
            with open(write_fd, "wb") as pipe:
                pickle.dump(dataset, pipe, protocol=5)
            code = 0
        finally:
            os._exit(code)  # never return into the parent's stack
    os.close(write_fd)
    received = None
    with open(read_fd, "rb") as pipe:
        try:
            loaded = load_csv(first, name=names[0])
            # a stream cut short means the child failed; parse here
            with contextlib.suppress(EOFError, pickle.UnpicklingError):
                received = pickle.load(pipe)
        finally:
            if received is None:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
    if received is None or status != 0:
        received = load_csv(second, name=names[1])
    return loaded, received


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = SynthSpec(classes=args.classes, dim=args.dim, per_class=args.per_class,
                     shift_angle=args.shift_angle, noise_sigma=args.noise_sigma,
                     projection_seed=args.projection_seed, sample_seed=args.sample_seed)
    source, target = gen_rotated_blobs(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(source, out / "source.csv")
    save_csv(target, out / "target.csv")
    (out / "spec.json").write_text(json.dumps(dataclasses.asdict(spec), indent=2) + "\n")
    print(f"wrote {out / 'source.csv'} and {out / 'target.csv'} "
          f"({spec.classes} classes x {spec.per_class} rows each)")
    return EXIT_OK


def _blas() -> dict:
    """numpy's BLAS library, {"name", "version"}, each None where numpy
    cannot say: numpy before 1.25 has no show_config(mode="dicts")."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {key: blas.get(key) for key in ("name", "version")}


def _blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS reports, asked through the library
    numpy's linalg extension links; None where that is another BLAS."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        query = getattr(lib, symbol, None)
        if query is not None:  # ctypes' default restype, c_int, is the query's
            return query()
    return None


def cmd_train(args) -> int:
    started = time.monotonic()
    cfg, source, target = _config_and_data(args)
    load = time.monotonic() - started

    out = Path(args.out)
    started = time.monotonic()
    try:
        params, metrics = train(source, target, cfg)
    except NumericalError as err:  # a diverged run leaves its records and why it stopped
        _write_run(out, err.metrics, cfg, load, time.monotonic() - started, err)
        (out / "model.bin").unlink(missing_ok=True)
        raise
    _write_run(out, metrics, cfg, load, time.monotonic() - started, None)
    save_checkpoint(params, out / "model.bin")
    final_acc = metrics.records[-1].target_acc
    acc_text = "n/a" if final_acc is None else f"{final_acc:.4f}"
    print(f"trained variant={cfg.variant} seed={cfg.seed} for {cfg.t_max} iterations; "
          f"target accuracy {acc_text}")
    return EXIT_OK


def _write_run(out: Path, metrics: RunMetrics, cfg: TrainConfig, load: float, wall: float,
               error: NumericalError | None) -> None:
    """metrics.jsonl and summary.json of a run that finished (error None) or diverged."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.jsonl").write_text(metrics.to_jsonl())
    summary = {
        "status": "ok" if error is None else "diverged",
        "error": None if error is None else str(error),
        # train evaluated the final parameters whenever the target has labels
        "final_target_accuracy": metrics.records[-1].target_acc if metrics.records else None,
        **{f.name: getattr(metrics, f.name) for f in dataclasses.fields(metrics)
           if f.name != "records"},
        "config": dict(line.split(" = ", 1) for line in emit_config(cfg).splitlines()),
        "wall_clock_seconds": wall,
        "load_seconds": load,
        "numpy_version": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {var: os.environ.get(var) for var in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _covariance(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=0, keepdims=True)
    return centered.T @ centered / x.shape[0]


def cmd_distance(args) -> int:
    a, b = _load_pair(args.a, args.b, ("a", "b"))
    if args.kind == "kbw":
        for data in (a, b):
            if len(data) < 2:
                raise InputError(f"kbw: dataset {data.name!r} has {len(data)} row(s), "
                                 "kbw_sq needs at least 2")
        spec = KernelSpec(args.kernel, args.bandwidth_sq)
        sq = kbw_sq(a.features, b.features, spec, tape=None)
        print(f"{np.sqrt(sq.item()):.12f} (kbw distance, {spec.kind} kernel)")
    elif args.kind == "bures":
        for data in (a, b):
            if len(data) == 0:
                raise InputError(f"bures: dataset {data.name!r} has no rows")
        d = closed_form_bures(_covariance(a.features), _covariance(b.features))
        print(f"{d:.12f} (bures distance between feature covariances)")
    else:
        cost = exact_wasserstein_sq(a.features, b.features)
        print(f"{cost:.12f} (squared)")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_all(args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max rel err {r.max_rel_err:.3e}  "
              f"(tol {r.tol:.0e})  {status}")
        failures += 0 if r.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


def cmd_suite(args) -> int:
    cfg, source, target = _config_and_data(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    result = run_suite(source, target, cfg, variants, seeds, jobs=args.jobs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w") as fh:
        fh.write("variant,seed,accuracy\n")
        for cell in result.cells:
            acc = "failed" if cell.accuracy is None else f"{cell.accuracy:.17g}"
            fh.write(f"{cell.variant},{cell.seed},{acc}\n")
    with open(out / "summary.csv", "w") as fh:
        fh.write("variant,mean,std\n")
        for variant, mean, std in result.summary():
            fh.write(f"{variant},{mean:.17g},{std:.17g}\n")
    for cell in result.cells:
        if cell.error:
            print(f"cell ({cell.variant}, {cell.seed}) failed: {cell.error}", file=sys.stderr)
    for variant, mean, std in result.summary():
        print(f"{variant}: mean accuracy {mean:.4f} (std {std:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjda",
        description="Feature and label marginal alignment trainer and distance toolbox "
                    "for precomputed feature vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a rotated-blobs benchmark pair")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--shift-angle", type=float, default=50.0)
    p.add_argument("--noise-sigma", type=float, default=0.25)
    p.add_argument("--projection-seed", type=int, default=0)
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run one training configuration")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", help="key = value file; defaults apply otherwise")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distance", help="distance between two feature CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kind", choices=("kbw", "bures", "ot"), default="kbw")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default=GAUSSIAN)
    p.add_argument("--bandwidth-sq", type=float, default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("gradcheck", help="finite-difference audit of gradients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("suite", help="variant x seed sweep, results to CSV")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--variants", default=",".join(VARIANTS))
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
