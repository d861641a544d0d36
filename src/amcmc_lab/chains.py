"""Discrete-time random-walk Metropolis chains with multiplicative scale tuning.

The adaptive chain proposes Y ~ N(x, theta^2), accepts with probability
min{1, psi(Y)/psi(x)}, and then retunes the proposal scale through

    theta_n = theta_{n-1} * exp((xi_n - p) / sqrt(n)),

where xi_n is the acceptance indicator and p the benchmark acceptance
level.  Every config spells the standard chain p = None: its theta stays
at theta0.  Each step takes one normal and one uniform draw from the
chain's two streams.  Chains run in lockstep batches through one array
step, metropolis_step.  run_chains takes a batch as AdaptiveConfigs, which
check every run parameter; a single chain is a batch of one.  The scalar
oracle of a step, under both of the chain's algebraically equivalent
formulations (propose then accept, or draw the Bernoulli indicator
first), is tests/test_chains.py::amcmc_step.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .seeding import stream_rng
from .targets import TargetModel

STEP_CHUNK = 512  # steps of draws run_chains reads from each of its streams at a time


@dataclass(frozen=True)
class AdaptiveConfig:
    """Run parameters for the adaptive chain, or (p None) the fixed-scale one."""

    p: float
    theta0: float
    n_samples: int
    x0: float = 0.0
    burn_in: int = 0
    seed: int = 0

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


@dataclass
class ChainTrajectory:
    """Recorded (x, theta, xi) path, one entry per completed step; theta and
    xi are None when only x was recorded."""

    x: np.ndarray
    theta: np.ndarray
    xi: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


def chain_streams(*key):
    """The streams of standard normals and of uniforms, one of each per
    step, keyed key: a chain's (seed,), or a coefficient batch's (seed, b)."""
    return stream_rng(*key, 0), stream_rng(*key, 1)


def metropolis_step(x, lp_x, scale, eps, log_u, target: TargetModel, out):
    """One random-walk Metropolis step of a batch of chains, written into
    the caller's buffers out = (y, lp_y, log_ratio, accept): the proposal
    y = x + scale * eps, log psi(y), the log ratio log psi(y) - log psi(x),
    and the accept mask log u < log ratio, never true off the support.

    The buffers share no memory with the inputs or with each other, except
    that log_ratio may be y itself for a caller that does not read y: the
    ratio is written once the density has read y.  The step allocates no
    array of its own: about 3-3.5 us of a lockstep step at width 30.
    """
    y, lp_y, log_ratio, accept = out
    np.multiply(scale, eps, log_ratio)
    np.add(x, log_ratio, y)
    target.log_density(y, out=lp_y)
    np.subtract(lp_y, lp_x, log_ratio)
    np.less(log_u, log_ratio, accept)


_SHARED_FIELDS = ("n_samples", "x0", "burn_in")


# An off-support start gives -inf - -inf, and a uniform of 0 gives log(0).
@np.errstate(invalid="ignore", divide="ignore")
def run_chains(target: TargetModel, configs, x_only: bool = False) -> list:
    """Trajectories of the configs' chains advanced in lockstep, each
    reading chain_streams(seed) STEP_CHUNK steps at a time.

    The configs must agree on n_samples, x0 and burn_in; each brings its
    seed, theta0 and benchmark p.  Step i proposes with scale theta and
    retunes theta by exp((xi - p)/sqrt(i + 1)), unless p is None.  A
    chain's float operations are its own, so its bits do not depend on the
    batch.  With x_only, theta and xi are not recorded
    (None), and x is recorded from step burn_in on: entry i of a
    trajectory is then step burn_in + i.  A full record starts at step 0.

    A chunk's draws and both values of each retuning factor (xi = 1 and 0;
    1.0 for a fixed scale) are laid out step-major, so each step reads and
    records contiguous rows, and the recorded rows go chain-major once per
    chunk.  A step allocates no array but the exponential density's support
    mask: metropolis_step writes into the runner's buffers, one masked copy
    takes an accepted proposal's (y, log psi(y)) into the stacked
    (x, log psi(x)), the step's down row takes xi's factor and its up row
    the retuned theta, so the up rows are the chunk's record of theta.
    About 7-9 us a step at width 30 and 17-24 us at 200, on a shared
    2-vCPU x86-64 host.
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
    theta = np.array([c.theta0 for c in configs], float)
    # (x, log psi(x)) and the proposal's (y, log psi(y)): one masked copy
    # takes both rows of an accepted proposal
    state, proposal = np.empty((2, 2, width))
    x, lp_x = state
    x.fill(first.x0)
    target.log_density(x, out=lp_x)
    accept = np.empty(width, bool)
    out = (*proposal, np.empty(width), accept)
    dtypes = (float,) if x_only else (float, float, np.int8)  # x, theta, xi
    paths = [np.empty((width, n_steps - burn_in), dtype) for dtype in dtypes]
    nothing = itertools.repeat(None)  # stands in for the rows a run does not have
    x_rows = np.empty((chunk, width))
    xi_rows = nothing if x_only else np.empty((chunk, width), np.int8)

    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        for c, (normals, uniforms) in enumerate(streams):
            eps[:m, c], log_u[:m, c] = normals.standard_normal(m), uniforms.random(m)
        np.log(log_u[:m], out=log_u[:m])
        ups = downs = nothing
        if adapting:
            r = np.sqrt(np.arange(start + 1.0, start + m + 1.0))
            ups, downs = (np.where(adapts, np.exp((xi - benchmark) / r[:, None]), 1.0)
                          for xi in (1.0, 0.0))
        for e, lu, up, down, x_row, xi_row in zip(eps[:m], log_u[:m], ups, downs, x_rows,
                                                  xi_rows):
            metropolis_step(x, lp_x, theta, e, lu, target, out)
            np.copyto(state, proposal, where=accept)
            if adapting:
                # the down row takes xi's factor, and the up row the retuned theta
                np.putmask(down, accept, up)
                theta = np.multiply(theta, down, up)
            x_row[...] = x
            if not x_only:
                xi_row[...] = accept
        kept = max(start, burn_in)  # the chunk's first recorded step
        if kept < start + m:
            thetas = ups if adapting else np.broadcast_to(theta, (m, width))
            for path, rows in zip(paths, (x_rows, thetas, xi_rows)):
                path[:, kept - burn_in:start + m - burn_in] = rows[kept - start:m].T
    if x_only:
        return [ChainTrajectory(x, None, None) for x in paths[0]]
    return [ChainTrajectory(*arrays) for arrays in zip(*paths)]

