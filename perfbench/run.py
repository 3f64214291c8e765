"""Benchmark entry point: run one workload and print its result.

    python3 perfbench/run.py --workload narrow_train --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/bjda. Human-readable lines
come first; the last line of standard output is the result as one JSON
object. --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones. The workloads are described in README.md next to this file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (imports no numpy)

# One BLAS thread on every workload: at these sizes it is faster or about as
# fast as two, and two lock-stepped threads stall whenever the host
# deschedules one of them (a two-thread wide_train run fell from ~20 to
# 3 iter/s while the host's steal time rose). suite_grid still uses both
# cores through its two workers.
BLAS_THREADS = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "bjda" / "__init__.py").is_file():
        print(f"error: no bjda sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy first loads it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import harness  # imports numpy, scipy and bjda
    import_s = time.perf_counter() - started
    if src not in Path(harness.cli.__file__).resolve().parents:
        print(f"error: bjda was imported from {harness.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from environment import environment

    env = environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        run = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                   import_s=import_s)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for rep in run["reps"]:
        print("rep " + json.dumps(rep))
    if run["setups"]:
        print("setups " + json.dumps(run["setups"]))
    for line in run["split"]:
        print("split " + line)
    for text in run["failures"]:
        print("failure " + text.replace("\n", " | "))
    for text in run["problems"]:
        print("problem " + text)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
