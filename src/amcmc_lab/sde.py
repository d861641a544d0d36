"""Euler integration of the coupled (X, theta) diffusion and its fixed-scale limit.

The coupled dynamics are

    dX     = (theta^2 / 2) * (psi'/psi)(X) dt + theta dW
    dtheta = theta * (p - theta/sqrt(2*pi) * |psi'|/psi (X)) dt

with no Brownian term on theta (the diffusion matrix has a zero row).  The
fixed-scale variant freezes theta at theta0, which for the normal target is
an Ornstein-Uhlenbeck process with stationary variance 1 for every theta.

For the exponential target the positive half-line is preserved by
reflecting X across zero after each step (the default) or by holding the
previous position when a step would exit the support.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .seeding import stream_rng
from .targets import TargetModel

SQRT_2PI = math.sqrt(2.0 * math.pi)
THETA_FLOOR = 1e-12
BOUNDARY_MODES = ("reflect", "hold")
STEP_CHUNK = 512  # Euler steps of increments drawn per path at a time
_DRAW_ROWS = 256  # paths drawn into the path-major buffer before its copy


class SdeState(NamedTuple):
    x: float
    theta: float


@dataclass(frozen=True)
class EulerConfig:
    """Mesh, horizon and drift parameters for an Euler run."""

    h: float
    horizon_t: float
    p: float
    theta0: float
    x0: float = 0.0
    n_paths: int = 1
    seed: int = 0
    adaptive: bool = True
    boundary_mode: str = "reflect"

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError("mesh size h must be positive and finite")
        if not 0.0 < self.horizon_t < math.inf:
            raise ValueError("horizon_t must be positive and finite")
        if not 0.0 < self.p < math.inf:
            raise ValueError("drift benchmark p must be positive and finite")
        if not 0.0 < self.theta0 < math.inf:
            raise ValueError("theta0 must be positive and finite")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")

    @property
    def n_steps(self) -> int:
        return math.ceil(self.horizon_t / self.h)


@dataclass
class EnsembleResult:
    """Terminal values of an ensemble of independent Euler paths."""

    x_t: np.ndarray
    theta_t_all: np.ndarray
    theta_floor_hits: int

    @property
    def theta_t_mean(self) -> float:
        return float(self.theta_t_all.mean())


def drift(target: TargetModel, state: SdeState, p: float):
    """Drift components (b_x, b_theta) of the coupled dynamics at a state."""
    s = target.score(state.x)
    theta = state.theta
    b_x = 0.5 * theta * theta * s
    b_theta = theta * (p - theta * np.abs(s) / SQRT_2PI)
    return b_x, b_theta


def euler_step(target: TargetModel, state: SdeState, config: EulerConfig, z) -> SdeState:
    """One Euler update; `state` fields and `z` may be scalars or arrays.

    The theta update is noiseless.  If it lands at or below zero it is
    clamped to THETA_FLOOR; the true dynamics keep theta positive, so a
    clamp means the mesh is too coarse for the chosen p.
    """
    h = config.h
    sqrt_h = math.sqrt(h)
    s = target.score(state.x)
    if config.adaptive:
        theta = state.theta
        x_new = state.x + h * 0.5 * theta * theta * s + sqrt_h * theta * z
        theta_raw = theta + h * theta * (config.p - theta * np.abs(s) / SQRT_2PI)
        theta_new = np.where(theta_raw <= 0.0, THETA_FLOOR, theta_raw)
    else:
        theta0 = config.theta0
        x_new = state.x + h * 0.5 * theta0 * theta0 * s + sqrt_h * theta0 * z
        theta_new = state.theta

    if target.boundary_policy == "reflect_at_zero":
        if config.boundary_mode == "reflect":
            x_new = np.abs(x_new)
        else:
            x_new = np.where(x_new >= 0.0, x_new, state.x)

    if np.ndim(x_new) == 0:
        return SdeState(float(x_new), float(theta_new))
    return SdeState(np.asarray(x_new, float), np.asarray(theta_new, float))


def run_ensemble(target: TargetModel, config: EulerConfig) -> EnsembleResult:
    """Integrate n_paths independent paths to the horizon; see run_ensembles."""
    return run_ensembles(target, [config])[0]


def _draw_chunk(rngs, drawn, z) -> None:
    """Fill the step-major z (steps x paths) with the next len(z) draws of
    every path's stream.

    A step then reads one contiguous row of z; reading a column of a
    path-major buffer as wide as the ensembles costs more than the copy
    through the small path-major buffer ``drawn``.
    """
    m, width = z.shape
    for first in range(0, width, len(drawn)):
        rows = drawn[:width - first, :m]
        for row, rng in zip(rows, rngs[first:first + len(rows)]):
            rng.standard_normal(out=row)
        z[:, first:first + len(rows)] = rows.T


_SHARED_FIELDS = ("h", "horizon_t", "x0", "theta0", "n_paths", "boundary_mode")


def run_ensembles(target: TargetModel, configs) -> list:
    """Integrate ensembles that share a mesh as one wide array of paths.

    The configs must agree on every field but ``seed``, ``p`` and
    ``adaptive``.  Path k of an ensemble draws its Gaussian increments from
    the stream (seed, k), STEP_CHUNK steps at a time into a reused buffer;
    draws made in chunks give the bits of one whole draw, and every path
    takes the float operations of ``euler_step`` in the same order, so each
    result is identical however the ensembles are grouped or scheduled.
    Memory is bounded by the chunk, not by the horizon.  Returns one
    EnsembleResult per config, in the order given.
    """
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    for name in _SHARED_FIELDS:
        if any(getattr(c, name) != getattr(first, name) for c in configs):
            raise ValueError(f"ensembles run together must share {name}")

    # Adaptive ensembles first, so the theta update touches a leading slice.
    order = sorted(range(len(configs)), key=lambda i: not configs[i].adaptive)
    ordered = [configs[i] for i in order]
    n, n_steps, h = first.n_paths, first.n_steps, first.h
    n_adaptive = sum(c.adaptive for c in configs)
    width, a = n * len(configs), n * n_adaptive  # a: paths of adaptive ensembles
    rngs = [stream_rng(c.seed, k) for c in ordered for k in range(n)]
    z = np.empty((min(STEP_CHUNK, n_steps), width))
    drawn = np.empty((min(_DRAW_ROWS, width), len(z)))

    x = np.full(width, first.x0)
    x_new = np.empty(width)
    theta = np.full(width, first.theta0)
    theta_a = theta[:a]
    p = np.repeat([c.p for c in ordered[:n_adaptive]], n)
    half_h, sqrt_h = h * 0.5, math.sqrt(h)
    # The scales of the drift and of the noise: h/2 theta^2 and sqrt(h) theta.
    # Only their adaptive slice changes from step to step.
    drift_scale = half_h * theta * theta
    noise_scale = sqrt_h * theta
    term = np.empty(width)
    rate, gain = np.empty(a), np.empty(a)
    boundary = first.boundary_mode if target.boundary_policy == "reflect_at_zero" else None
    keep = np.empty(width, bool)
    floor_hits = np.zeros(n_adaptive, np.int64)

    for start in range(0, n_steps, STEP_CHUNK):
        m = min(STEP_CHUNK, n_steps - start)
        _draw_chunk(rngs, drawn, z[:m])
        for j in range(m):
            # x + h/2 theta^2 s + sqrt(h) theta z, operation by operation as
            # euler_step evaluates it, so every path gets the same bits
            s = target.score(x)
            if a:
                np.multiply(half_h, theta_a, out=drift_scale[:a])
                drift_scale[:a] *= theta_a
                np.multiply(sqrt_h, theta_a, out=noise_scale[:a])
            np.multiply(drift_scale, s, out=term)
            np.add(x, term, out=x_new)
            np.multiply(noise_scale, z[j], out=term)
            x_new += term
            if boundary == "reflect":
                np.abs(x_new, out=x)
            elif boundary == "hold":
                np.greater_equal(x_new, 0.0, out=keep)
                np.copyto(x, x_new, where=keep)
            else:
                x, x_new = x_new, x
            if a:
                # theta + h theta (p - theta |s| / sqrt(2 pi)), in that order
                np.abs(s[:a], out=rate)
                np.multiply(theta_a, rate, out=rate)
                rate /= SQRT_2PI
                np.subtract(p, rate, out=rate)
                np.multiply(h, theta_a, out=gain)
                gain *= rate
                theta_a += gain
                # Clamps and floor hits need a minimum (NaN aside) at or
                # below the floor; checking it first costs one pass, not two.
                if np.fmin.reduce(theta_a) <= THETA_FLOOR:
                    theta_a[theta_a <= 0.0] = THETA_FLOOR
                    floor_hits += np.count_nonzero(
                        (theta_a == THETA_FLOOR).reshape(n_adaptive, n), axis=1)

    results = [None] * len(configs)
    for slot, i in enumerate(order):
        paths = slice(slot * n, (slot + 1) * n)
        results[i] = EnsembleResult(
            x_t=x[paths].copy(),
            theta_t_all=theta[paths].copy(),
            theta_floor_hits=int(floor_hits[slot]) if slot < n_adaptive else 0,
        )
    return results
