"""Discrete-time random-walk Metropolis chains with multiplicative scale tuning.

The adaptive chain proposes Y ~ N(x, theta^2), accepts with probability
min{1, psi(Y)/psi(x)}, and then retunes the proposal scale through

    theta_n = theta_{n-1} * exp((xi_n - p) / sqrt(n)),

where xi_n is the acceptance indicator and p the benchmark acceptance
level.  Two algebraically equivalent formulations are provided (propose
then accept, or draw the Bernoulli indicator first); both consume one
normal and one uniform draw per step in that order, so trajectories under
a shared seed coincide exactly, not just in distribution.

The time-embedded versions run on a 1/n grid with 1/sqrt(n)-scaled
increments and benchmark p_n = 1 - p/sqrt(n); they are the discrete
approximations whose limits the diffusion simulator integrates.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .seeding import stream_rng
from .targets import TargetModel

FORMULATIONS = ("propose_then_accept", "bernoulli_first")


class ChainState(NamedTuple):
    x: float
    theta: float
    xi: int
    step: int


@dataclass(frozen=True)
class AdaptiveConfig:
    """Run parameters for the adaptive chain (and the fixed-scale variant)."""

    p: float
    theta0: float
    n_samples: int
    x0: float = 0.0
    burn_in: int = 0
    seed: int = 0
    formulation: str = "propose_then_accept"

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("benchmark p must lie in (0, 1)")
        if not 0.0 < self.theta0 < math.inf:
            raise ValueError("theta0 must be positive and finite")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0 <= self.burn_in < self.n_samples:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_samples")
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")


def embedded_benchmark(p: float, n: int) -> float:
    """Acceptance benchmark p_n = 1 - p/sqrt(n) of the chain at resolution n,
    which must be at least 1 and large enough that p_n > 0."""
    if n < 1:
        raise ValueError(f"resolution n must be at least 1, got {n}")
    p_n = 1.0 - p / math.sqrt(n)
    if p_n <= 0.0:
        raise ValueError(f"p/sqrt(n) = {p / math.sqrt(n):.3g} >= 1: "
                         "resolution too small for the chosen benchmark p")
    return p_n


@dataclass(frozen=True)
class EmbeddedConfig:
    """Parameters of the n-th continuous-time approximation on a 1/n grid."""

    n_resolution: int
    horizon_t: float
    p: float
    theta0: float
    x0: float = 0.0
    seed: int = 0
    adaptive: bool = True

    def __post_init__(self):
        if not 0.0 < self.horizon_t < math.inf:
            raise ValueError("horizon_t must be positive and finite")
        if not 0.0 < self.p < math.inf:
            raise ValueError("benchmark p must be positive and finite")
        if not 0.0 < self.theta0 < math.inf:
            raise ValueError("theta0 must be positive and finite")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        embedded_benchmark(self.p, self.n_resolution)
        if not math.isfinite(self.n_resolution * self.horizon_t):
            raise ValueError(f"step count n*horizon_t = {self.n_resolution * self.horizon_t} "
                             "must be finite")

    @property
    def p_n(self) -> float:
        """Grid-level acceptance benchmark 1 - p/sqrt(n)."""
        return embedded_benchmark(self.p, self.n_resolution)

    @property
    def n_steps(self) -> int:
        return math.ceil(self.n_resolution * self.horizon_t)


@dataclass
class ChainTrajectory:
    """Recorded (x, theta, xi) path, one entry per completed step."""

    x: np.ndarray
    theta: np.ndarray
    xi: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    @property
    def acceptance_count(self) -> int:
        return int(self.xi.sum())

    def state(self, i: int) -> ChainState:
        return ChainState(float(self.x[i]), float(self.theta[i]), int(self.xi[i]), i + 1)


def _accept(log_u: float, log_ratio: float) -> bool:
    # u < min(1, ratio) in log space; an off-support proposal has
    # log_ratio = -inf and is always rejected.
    return log_u < log_ratio


def amcmc_step(state: ChainState, config: AdaptiveConfig, target: TargetModel,
               rng: np.random.Generator) -> ChainState:
    """Advance the adaptive chain one step.

    Consumes one standard normal and one uniform draw, in that order, under
    either formulation.  The proposal scale is the incoming state's theta;
    the returned state carries the retuned theta for iteration n = step + 1.
    """
    eps = rng.standard_normal()
    u = rng.random()
    log_u = math.log(u) if u > 0.0 else -math.inf
    n = state.step + 1
    theta = state.theta

    if config.formulation == "propose_then_accept":
        y = state.x + theta * eps
        log_ratio = target.log_density(y) - target.log_density(state.x)
        if _accept(log_u, log_ratio):
            x_new, xi = y, 1
        else:
            x_new, xi = state.x, 0
    else:
        log_ratio = target.log_density(state.x + theta * eps) - target.log_density(state.x)
        xi = 1 if _accept(log_u, log_ratio) else 0
        x_new = state.x + theta * (xi * eps)

    theta_new = theta * math.exp((xi - config.p) / math.sqrt(n))
    return ChainState(x_new, theta_new, xi, n)


def _metropolis(target: TargetModel, seed: int, x0: float, theta0: float, steps: int,
                benchmark=None, sqrt_n: float = 1.0,
                decaying: bool = True) -> ChainTrajectory:
    """The per-step loop of every chain, on plain floats.

    Step i draws one standard normal and then one uniform from
    stream_rng(seed), proposes x + (theta/sqrt_n) * eps and accepts when
    log u < log psi(y) - log psi(x), carrying log psi(x) between steps.
    With a benchmark, theta is then retuned by exp((xi - benchmark)/r),
    where r is sqrt(i + 1) for a decaying gain and sqrt_n otherwise.
    """
    rng = stream_rng(seed)
    normal, uniform = rng.standard_normal, rng.random
    log_density = target.log_density
    log, exp, sqrt, inf = math.log, math.exp, math.sqrt, math.inf
    x, theta = float(x0), theta0  # an int or numpy x0 would miss the float branch
    lp_x = log_density(x)
    xs = np.empty(steps)
    thetas = np.empty(steps)
    xis = np.empty(steps, dtype=np.int8)
    for i in range(steps):
        eps = normal()
        u = uniform()
        log_u = log(u) if u > 0.0 else -inf
        y = x + (theta / sqrt_n) * eps
        lp_y = log_density(y)
        if log_u < lp_y - lp_x:
            x, lp_x, xi = y, lp_y, 1
        else:
            xi = 0
        if benchmark is not None:
            theta = theta * exp((xi - benchmark) / (sqrt(i + 1) if decaying else sqrt_n))
        xs[i] = x
        thetas[i] = theta
        xis[i] = xi
    return ChainTrajectory(x=xs, theta=thetas, xi=xis)


def run_amcmc(config: AdaptiveConfig, target: TargetModel) -> ChainTrajectory:
    """Adaptive chain: n_samples repeated steps from (x0, theta0).

    The propose-then-accept formulation runs on the shared loop; the
    Bernoulli-first one steps through amcmc_step, so the two remain
    independent implementations of the same chain.
    """
    if config.formulation == "propose_then_accept":
        return _metropolis(target, config.seed, config.x0, config.theta0,
                           config.n_samples, benchmark=config.p)
    rng = stream_rng(config.seed)
    state = ChainState(config.x0, config.theta0, 0, 0)
    n = config.n_samples
    xs = np.empty(n)
    thetas = np.empty(n)
    xis = np.empty(n, dtype=np.int8)
    for i in range(n):
        state = amcmc_step(state, config, target, rng)
        xs[i] = state.x
        thetas[i] = state.theta
        xis[i] = state.xi
    return ChainTrajectory(x=xs, theta=thetas, xi=xis)


def run_smcmc(config: AdaptiveConfig, target: TargetModel) -> ChainTrajectory:
    """Standard MH chain: identical mechanics, theta fixed at theta0."""
    return _metropolis(target, config.seed, config.x0, config.theta0, config.n_samples)


def run_embedded(config: EmbeddedConfig, target: TargetModel) -> ChainTrajectory:
    """Embedded chain on the 1/n grid, adaptive or fixed-scale ("X SMC").

    Step i proposes x + (theta/sqrt(n)) * eps, accepts by density ratio, and
    when adaptive retunes theta by exp((xi - p_n)/sqrt(n)) with
    p_n = 1 - p/sqrt(n).  Values between grid points are the previous grid
    value (piecewise-constant interpolation).
    """
    return _metropolis(target, config.seed, config.x0, config.theta0, config.n_steps,
                       benchmark=config.p_n if config.adaptive else None,
                       sqrt_n=math.sqrt(config.n_resolution), decaying=False)
