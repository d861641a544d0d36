"""Adaptive vs standard MCMC laboratory.

Discrete-time random-walk Metropolis with multiplicative scale tuning, the
coupled diffusion that arises as its continuous-time limit, Monte-Carlo
verification of the limit coefficients, and the KS/ESJD diagnostics used to
compare the adaptive and fixed-scale samplers.
"""

from .chains import (
    AdaptiveConfig,
    ChainTrajectory,
    run_amcmc,
    run_smcmc,
)
from .coeffs import (
    COEFF_KINDS,
    CoeffRow,
    EvalPoint,
    limit_coefficient,
)
from .experiments import (
    DiscreteRow,
    ExperimentSpec,
    SdeRow,
    emit_csv,
    load_csv,
    print_summary,
    run_experiment,
)
from .sde import (
    EnsembleResult,
    EulerConfig,
    drift,
    run_ensemble,
    run_ensembles,
)
from .stats import RunSummary, chain_summary, esjd, ks_pvalue, ks_statistic
from .targets import TARGET_KINDS, TargetModel, make_target

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "ChainTrajectory",
    "CoeffRow",
    "COEFF_KINDS",
    "DiscreteRow",
    "EnsembleResult",
    "EulerConfig",
    "EvalPoint",
    "ExperimentSpec",
    "RunSummary",
    "SdeRow",
    "TARGET_KINDS",
    "TargetModel",
    "chain_summary",
    "drift",
    "emit_csv",
    "esjd",
    "ks_pvalue",
    "ks_statistic",
    "limit_coefficient",
    "load_csv",
    "make_target",
    "print_summary",
    "run_amcmc",
    "run_ensemble",
    "run_ensembles",
    "run_experiment",
    "run_smcmc",
    "__version__",
]
