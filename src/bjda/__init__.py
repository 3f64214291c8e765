"""Feature and label marginal alignment for unsupervised domain adaptation.

Aligns a labeled source sample with an unlabeled target sample by minimizing
kernel Bures-Wasserstein distances between their feature marginals and
between their label marginals (not yet their joint distribution), alongside
cross-entropy on the source and a prototype margin loss. It runs on a small
self-contained reverse-mode autodiff tape over float64 matrices.
"""
from .autodiff import Tape, Value
from .data import Dataset, SynthSpec, gen_rotated_blobs, load_csv, save_csv
from .kernels import (KernelSpec, closed_form_bures, exact_wasserstein_sq,
                      gaussian_bandwidth, kbw_sq)
from .losses import (Prototypes, entropy_margins, l_cls, l_dmc, l_trip, one_hot,
                     total_objective)
from .model import (ModelDims, ModelParams, forward_f, forward_g,
                    hard_pseudo_labels, init_xavier, load_checkpoint,
                    make_leaves, predict_probs, save_checkpoint)
from .train import (EvalResult, RunMetrics, SuiteResult, TrainConfig,
                    evaluate, l_da, run_suite, sgd_update)

__version__ = "0.1.0"

__all__ = [
    "Tape", "Value",
    "Dataset", "SynthSpec", "gen_rotated_blobs", "load_csv", "save_csv",
    "KernelSpec", "closed_form_bures", "exact_wasserstein_sq",
    "gaussian_bandwidth", "kbw_sq",
    "Prototypes", "entropy_margins", "l_cls", "l_da", "l_dmc", "l_trip",
    "one_hot", "total_objective",
    "ModelDims", "ModelParams", "forward_f", "forward_g",
    "hard_pseudo_labels", "init_xavier", "load_checkpoint", "make_leaves",
    "predict_probs", "save_checkpoint",
    "EvalResult", "RunMetrics", "SuiteResult", "TrainConfig",
    "evaluate", "run_suite", "sgd_update",
    "__version__",
]
