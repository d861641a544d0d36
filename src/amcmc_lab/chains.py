"""Discrete-time random-walk Metropolis chains with multiplicative scale tuning.

The adaptive chain proposes Y ~ N(x, theta^2), accepts with probability
min{1, psi(Y)/psi(x)}, and then retunes the proposal scale through

    theta_n = theta_{n-1} * exp((xi_n - p) / sqrt(n)),

where xi_n is the acceptance indicator and p the benchmark acceptance
level.  Every config spells the standard chain p = None: its theta stays
at theta0.  Two algebraically equivalent formulations are provided (propose
then accept, or draw the Bernoulli indicator first); both take one normal
and one uniform draw per step from the chain's two streams, so
trajectories under a shared seed coincide exactly, not just in
distribution.  Chains run in lockstep batches through one array step,
metropolis_step; amcmc_step is its scalar oracle.  run_chains takes a
batch as AdaptiveConfigs, which check every run parameter, and
run_amcmc and run_smcmc are its one-config case.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .seeding import stream_rng
from .targets import TargetModel

FORMULATIONS = ("propose_then_accept", "bernoulli_first")
STEP_CHUNK = 512  # steps of draws run_chains reads from each of its streams at a time


class ChainState(NamedTuple):
    x: float
    theta: float
    xi: int
    step: int


@dataclass(frozen=True)
class AdaptiveConfig:
    """Run parameters for the adaptive chain, or (p None) the fixed-scale one."""

    p: float
    theta0: float
    n_samples: int
    x0: float = 0.0
    burn_in: int = 0
    seed: int = 0
    formulation: str = "propose_then_accept"

    def __post_init__(self):
        if self.p is not None and not 0.0 < self.p < 1.0:
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


@dataclass
class ChainTrajectory:
    """Recorded (x, theta, xi) path, one entry per completed step; theta and
    xi are None when only x was recorded."""

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


def chain_streams(seed: int):
    """Chain `seed`'s streams of standard normals and of uniforms, one of each per step."""
    return stream_rng(seed, 0), stream_rng(seed, 1)


def amcmc_step(state: ChainState, config: AdaptiveConfig, target: TargetModel,
               streams) -> ChainState:
    """Advance the chain one step, drawing one standard normal and one
    uniform from ``streams`` (a chain_streams pair) under either
    formulation.  The proposal scale is the incoming state's theta; the
    returned state carries the retuned theta for iteration n = step + 1,
    or the same theta when config.p is None.
    """
    normals, uniforms = streams
    eps = normals.standard_normal()
    u = uniforms.random()
    log_u = float(np.log(u)) if u > 0.0 else -math.inf
    n = state.step + 1
    theta = state.theta

    # u < min(1, ratio) in log space; an off-support proposal has
    # log_ratio = -inf and is always rejected.
    y = state.x + theta * eps
    xi = 1 if log_u < target.log_density(y) - target.log_density(state.x) else 0
    if config.formulation == "propose_then_accept":
        x_new = y if xi else state.x
    else:
        x_new = state.x + theta * (xi * eps)

    if config.p is not None:
        theta = float(theta * np.exp((xi - config.p) / math.sqrt(n)))
    return ChainState(x_new, theta, xi, n)


def metropolis_step(x, lp_x, scale, eps, log_u, target: TargetModel):
    """One random-walk Metropolis step of a batch of chains: the proposal
    y = x + scale * eps, log psi(y), and the accept mask
    log u < log psi(y) - log psi(x), never true off the support."""
    y = x + scale * eps
    lp_y = target.log_density(y)
    return y, lp_y, log_u < lp_y - lp_x


_SHARED_FIELDS = ("n_samples", "x0", "burn_in")


# An off-support start gives -inf - -inf, and a uniform of 0 gives log(0).
@np.errstate(invalid="ignore", divide="ignore")
def run_chains(target: TargetModel, configs, x_only: bool = False) -> list:
    """Trajectories of the configs' chains advanced in lockstep, each
    reading chain_streams(seed) STEP_CHUNK steps at a time.

    The configs must agree on n_samples, x0 and burn_in; each brings its
    seed, theta0 and benchmark p.  Step i proposes with scale theta and
    retunes theta by exp((xi - p)/sqrt(i + 1)), unless p is None.  Every
    chain runs propose-then-accept, whatever its formulation.  A chain's
    float operations are amcmc_step's and its own, so its bits do not
    depend on the batch.  With x_only, theta and xi are not recorded
    (None), and x is recorded from step burn_in on: entry i of a
    trajectory is then step burn_in + i.  A full record starts at step 0.

    A chunk's draws and both values of each retuning factor (xi = 1 and 0;
    1.0 for a fixed scale) are laid out step-major, so each step reads and
    records contiguous rows, and the recorded rows go chain-major once per
    chunk.
    """
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    for name in _SHARED_FIELDS:
        if any(getattr(c, name) != getattr(first, name) for c in configs):
            raise ValueError(f"chains run together must share {name}")
    n_steps, burn_in = first.n_samples, first.burn_in if x_only else 0
    streams = [chain_streams(c.seed) for c in configs]
    adapts = np.array([c.p is not None for c in configs])
    adapting = adapts.any()
    benchmark = np.array([0.0 if c.p is None else c.p for c in configs])
    width, chunk = len(streams), min(STEP_CHUNK, n_steps)
    eps, log_u = np.empty((2, chunk, width))
    x, theta = np.full(width, float(first.x0)), np.array([c.theta0 for c in configs], float)
    lp_x = target.log_density(x)
    dtypes = (float,) if x_only else (float, float, np.int8)  # x, theta, xi
    paths = [np.empty((width, n_steps - burn_in), dtype) for dtype in dtypes]
    rows = [np.empty((chunk, width), dtype) for dtype in dtypes]

    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        for c, (normals, uniforms) in enumerate(streams):
            eps[:m, c], log_u[:m, c] = normals.standard_normal(m), uniforms.random(m)
        np.log(log_u[:m], out=log_u[:m])
        if adapting:
            r = np.sqrt(np.arange(start + 1.0, start + m + 1.0))
            up, down = (np.where(adapts, np.exp((xi - benchmark) / r[:, None]), 1.0)
                        for xi in (1.0, 0.0))
        for j in range(m):
            y, lp_y, accept = metropolis_step(x, lp_x, theta, eps[j], log_u[j], target)
            np.copyto(x, y, where=accept)
            np.copyto(lp_x, lp_y, where=accept)
            if adapting:
                factor = down[j]  # this step's row, now xi's factor
                np.copyto(factor, up[j], where=accept)
                theta *= factor
            rows[0][j] = x
            if not x_only:
                rows[1][j], rows[2][j] = theta, accept
        kept = max(start, burn_in)  # the chunk's first recorded step
        if kept < start + m:
            for path, row in zip(paths, rows):
                path[:, kept - burn_in:start + m - burn_in] = row[kept - start:m].T
    if x_only:
        return [ChainTrajectory(x, None, None) for x in paths[0]]
    return [ChainTrajectory(*arrays) for arrays in zip(*paths)]


def run_amcmc(config: AdaptiveConfig, target: TargetModel) -> ChainTrajectory:
    """Chain of a config, adaptive or (p None) fixed-scale: n_samples steps.

    The propose-then-accept formulation is run_chains' one-chain case; the
    Bernoulli-first one steps through amcmc_step, so the two remain
    independent implementations of the same chain.
    """
    if config.formulation == "propose_then_accept":
        return run_chains(target, [config])[0]
    streams = chain_streams(config.seed)
    states = [ChainState(config.x0, config.theta0, 0, 0)]
    for _ in range(config.n_samples):
        states.append(amcmc_step(states[-1], config, target, streams))
    x, theta, xi, _ = zip(*states[1:])
    return ChainTrajectory(x=np.array(x), theta=np.array(theta), xi=np.array(xi, np.int8))


def run_smcmc(config: AdaptiveConfig, target: TargetModel) -> ChainTrajectory:
    """Standard MH chain: identical mechanics, theta fixed at theta0 whatever p is."""
    return run_chains(target, [replace(config, p=None)])[0]
