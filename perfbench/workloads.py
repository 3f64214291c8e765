"""The benchmark's workloads. Why each exists is in README.md next to this
file. This module imports nothing heavy, so run.py can check the workload's
name before it sets the BLAS thread count and imports numpy."""
from __future__ import annotations

from dataclasses import dataclass

# BENCH_CONFIG of the test suite, minus t_max and eval_every
NARROW_KEYS = ("pl=true", "confidence_threshold=0.95", "proto_mode=ema",
               "hidden_dim=128", "feat_dim=64")
WIDE_KEYS = ("pl=true", "confidence_threshold=0.95", "proto_mode=ema")
SUITE_VARIANTS = ("full", "source_only", "no_da", "no_dmc", "wd")

# spans every training workload must show in a traced run
_TRAIN_SPANS = frozenset({
    "data.load_csv", "train.loop", "model.make_leaves", "model.forward",
    "kernels.kbw_sq", "kernels.gaussian_bandwidth", "autodiff.nuclear_norm",
    "losses.l_cls", "autodiff.backward", "train.sgd_update", "train.evaluate",
})


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # bjda subcommand: "train" or "suite"
    keys: tuple[str, ...]        # --set keys; t_max, eval_every and seed are added
    t_max: int
    eval_every: int | None       # None keeps the program's default
    seeds: int                   # model seeds drawn from the benchmark seed: train
                                 # cycles them over repetitions, suite grids them all
    expected_spans: frozenset
    dim: int = 32
    per_class: int = 200
    variants: tuple[str, ...] = ("full",)
    jobs: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("narrow_train", "train", NARROW_KEYS, t_max=300, eval_every=300,
             seeds=12,
             expected_spans=_TRAIN_SPANS | {"losses.l_dmc", "cli.save_checkpoint"}),
    Workload("wide_train", "train", WIDE_KEYS, t_max=100, eval_every=None,
             seeds=2, dim=128, per_class=5000,
             expected_spans=_TRAIN_SPANS | {"losses.l_dmc", "cli.save_checkpoint"}),
    Workload("suite_grid", "suite", NARROW_KEYS, t_max=300, eval_every=300,
             seeds=2, variants=SUITE_VARIANTS, jobs=2,
             expected_spans=_TRAIN_SPANS | {"losses.l_dmc", "kernels.optimal_assignment",
                                            "cli.run_suite"}),
    # the triplet variant diverges from iteration 69 on at seed 0; 40
    # iterations keep every seed tried clear of it
    Workload("triplet_narrow", "train", NARROW_KEYS, t_max=40, eval_every=40,
             seeds=4, variants=("triplet",),
             expected_spans=_TRAIN_SPANS | {"losses.l_trip", "cli.save_checkpoint"}),
)}
