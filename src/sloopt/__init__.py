"""First-order methods for smooth objectives whose gradients are only
locally Lipschitz: an epoch-based solver with ball-constrained subroutines,
plus gradient-descent and Bregman proximal gradient baselines and a
benchmark harness."""

from .baselines import BpgConfig, bpg_step, bpg_subproblem, gd_fixed, run_bpg
from .core import (CountingOracle, ObjectiveOracle, RunResult, SloConfig,
                   Subroutine, Termination)
from .harness import ExperimentSpec, run_experiment, summarize
from .lipschitz import estimate_l1, estimate_l2
from .problems import (LinearNetProblem, PlantedTensorProblem, QuarticProblem,
                       SymTensorProblem, generate_planted_labels,
                       generate_planted_tensor, uniform_init)
from .slo import check_epoch_descent, run_slo
from .subroutines import LsParams, a_gp, a_ls, a_ng

__all__ = [
    "BpgConfig", "CountingOracle", "ExperimentSpec", "LinearNetProblem",
    "LsParams", "ObjectiveOracle", "PlantedTensorProblem", "QuarticProblem", "RunResult", "SloConfig",
    "Subroutine", "SymTensorProblem", "Termination", "a_gp", "a_ls", "a_ng",
    "bpg_step", "bpg_subproblem", "check_epoch_descent", "estimate_l1",
    "estimate_l2", "gd_fixed", "generate_planted_labels",
    "generate_planted_tensor", "run_bpg", "run_experiment", "run_slo",
    "summarize", "uniform_init",
]

__version__ = "0.1.0"
