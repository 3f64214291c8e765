"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--seconds N] [--workloads a,b]
                               [--trace 1] [--out summary.json]

Each (seed, workload) pair is one run of run.py in its own process, seeds in
the outer loop so that slow drift of the machine spreads over all
workloads. For each metric it prints the median over seeds, the quartiles
and their distance as a share of the median (the spread), next to the
metric's bound from BENCHMARK.json. Every run's output checks must pass.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    env, ok = None, True
    for seed in seeds:
        for wl in workloads:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            env = env or json.loads(lines[0][len("env "):])
            result = json.loads(lines[-1])
            problems = [line for line in lines if line.startswith(("problem", "failure"))]
            if not result["correct"] or result["failed"] or problems:
                ok = False
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']} wall={time.perf_counter() - started:.1f}s "
                  + " ".join(problems), flush=True)
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values[wl].setdefault(name, []).append(metric["value"])

    summary = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "env": env,
               "workloads": {}}
    for wl in workloads:
        print(f"\n{wl}")
        summary["workloads"][wl] = {}
        for name, metric in declared.items():
            if name not in values[wl]:
                print(f"  {name:<28} missing")
                continue
            s = summarise(values[wl][name])
            s["unit"] = metric["unit"]
            summary["workloads"][wl][name] = s
            bound = metric.get("bound")
            tail = f"  bound {bound:.2f}  spread/bound {s['spread'] / bound:.2f}" if bound else ""
            print(f"  {name:<28} {s['median']:14.6g} {metric['unit']:<8} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{tail}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
