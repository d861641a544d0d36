"""Adaptive vs standard MCMC laboratory.

Discrete-time random-walk Metropolis with multiplicative scale tuning, the
coupled diffusion that arises as its continuous-time limit, Monte-Carlo
verification of the limit coefficients, and the KS/ESJD diagnostics used to
compare the adaptive and fixed-scale samplers.
"""

from .chains import (
    AdaptiveConfig,
    ChainState,
    ChainTrajectory,
    EmbeddedConfig,
    amcmc_step,
    run_amcmc,
    run_embedded,
    run_smcmc,
)
from .coeffs import (
    COEFF_KINDS,
    CoeffRow,
    CoefficientEstimate,
    EvalPoint,
    convergence_report,
    estimate_coefficient,
    limit_coefficient,
)
from .experiments import (
    DiscreteRow,
    ExperimentSpec,
    SdeRow,
    emit_csv,
    load_csv,
    print_summary,
    run_coeff_experiment,
    run_discrete_experiment,
    run_experiment,
    run_sde_experiment,
)
from .sde import (
    EnsembleResult,
    EulerConfig,
    SdeState,
    drift,
    euler_step,
    run_ensemble,
    run_ensembles,
)
from .stats import RunSummary, chain_summary, esjd, ks_pvalue, ks_statistic
from .targets import TARGET_KINDS, TargetModel, make_target

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "ChainState",
    "ChainTrajectory",
    "CoeffRow",
    "COEFF_KINDS",
    "CoefficientEstimate",
    "DiscreteRow",
    "EmbeddedConfig",
    "EnsembleResult",
    "EulerConfig",
    "EvalPoint",
    "ExperimentSpec",
    "RunSummary",
    "SdeRow",
    "SdeState",
    "TARGET_KINDS",
    "TargetModel",
    "amcmc_step",
    "chain_summary",
    "convergence_report",
    "drift",
    "emit_csv",
    "esjd",
    "estimate_coefficient",
    "euler_step",
    "ks_pvalue",
    "ks_statistic",
    "limit_coefficient",
    "load_csv",
    "make_target",
    "print_summary",
    "run_amcmc",
    "run_coeff_experiment",
    "run_discrete_experiment",
    "run_embedded",
    "run_ensemble",
    "run_ensembles",
    "run_experiment",
    "run_sde_experiment",
    "run_smcmc",
    "__version__",
]
