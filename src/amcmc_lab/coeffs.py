"""Monte-Carlo verification of the one-step drift/diffusion coefficients.

For the embedded chain at resolution n, the n-scaled conditional one-step
moments

    B1  = n E[dX],   B2  = n E[dtheta],
    A11 = n E[dX^2], A22 = n E[dtheta^2], A12 = n E[dX dtheta]

converge, as n grows, to the drift and squared-diffusion coefficients of
the limiting dynamics:

    B1 -> theta^2/2 * psi'/psi,  B2 -> theta (p - theta/sqrt(2 pi) |psi'|/psi),
    A11 -> theta^2,              A22 -> 0,  A12 -> 0.

estimate_coefficient draws independent one-step transitions from a fixed
state and averages the requested scaled moment; coeff_row sets an estimate
against its analytic limit, and convergence_report tabulates such rows along
a grid of resolutions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import embedded_benchmark
from .sde import SdeState, drift
from .seeding import stream_rng
from .targets import TargetModel

COEFF_KINDS = ("B1", "B2", "A11", "A22", "A12")

_BATCH = 1 << 19
_MIN_DRAWS = 1_000


@dataclass(frozen=True)
class EvalPoint:
    """State (x, theta) plus benchmark p at which moments are evaluated."""

    x: float
    theta: float
    p: float
    target: TargetModel

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if not 0.0 < self.p < math.inf:
            raise ValueError("benchmark p must be positive and finite")
        if not math.isfinite(self.x):
            raise ValueError("x must be finite")
        if not self.target.in_support(self.x):
            raise ValueError(f"x={self.x} outside the support of the {self.target.kind} target")
        if self.target.kind == "exp" and self.x == 0.0:
            # the limits need the two-sided score, which the boundary lacks
            raise ValueError("x=0.0 is the boundary of the exp target; the limits need x > 0")


@dataclass(frozen=True)
class CoefficientEstimate:
    kind: str
    n: int
    estimate: float
    std_error: float
    n_draws: int


@dataclass(frozen=True)
class CoeffRow:
    kind: str
    target: str
    x: float
    theta: float
    p: float
    n: int
    estimate: float
    std_error: float
    limit: float
    z: float


class _RunningMoment:
    """Streaming count/sum/sum-of-squares accumulator."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray):
        self.count += values.size
        self.total += float(values.sum())
        self.total_sq += float(np.square(values).sum())

    def mean(self) -> float:
        return self.total / self.count

    def std_error(self) -> float:
        if self.count < 2:
            return 0.0
        var = (self.total_sq - self.total * self.total / self.count) / (self.count - 1)
        return math.sqrt(max(var, 0.0) / self.count)


def simulate_moments(point: EvalPoint, n: int, n_draws: int, seed: int,
                     kinds=COEFF_KINDS) -> dict:
    """Estimate several scaled moments from one shared set of transitions.

    Batch b of draws comes from the stream (seed, b) with a fixed batch
    size, so each kind's estimate is identical whether computed alone or
    together with the others.
    """
    if n_draws < _MIN_DRAWS:
        raise ValueError(f"n_draws must be at least {_MIN_DRAWS}")
    for kind in kinds:
        if kind not in COEFF_KINDS:
            raise ValueError(f"unknown coefficient kind {kind!r}")
    p_n = embedded_benchmark(point.p, n)

    target = point.target
    x, theta = point.x, point.theta
    sqrt_n = math.sqrt(n)
    lp_x = target.log_density(x)
    acc = {kind: _RunningMoment() for kind in kinds}

    for batch, start in enumerate(range(0, n_draws, _BATCH)):
        m = min(_BATCH, n_draws - start)
        rng = stream_rng(seed, batch)
        eps = rng.standard_normal(m)
        u = rng.random(m)
        y = x + (theta / sqrt_n) * eps
        log_ratio = target.log_density(y) - lp_x
        with np.errstate(divide="ignore"):
            xi = np.log(u) < log_ratio
        dx = (theta / sqrt_n) * np.where(xi, eps, 0.0)
        dtheta = theta * np.expm1((xi.astype(float) - p_n) / sqrt_n)
        for kind in kinds:
            if kind == "B1":
                values = n * dx
            elif kind == "B2":
                values = n * dtheta
            elif kind == "A11":
                values = n * dx * dx
            elif kind == "A22":
                values = n * dtheta * dtheta
            else:
                values = n * dx * dtheta
            acc[kind].add(values)

    return {
        kind: CoefficientEstimate(kind, n, acc[kind].mean(), acc[kind].std_error(), n_draws)
        for kind in kinds
    }


def estimate_coefficient(kind: str, point: EvalPoint, n: int, n_draws: int,
                         seed: int = 0) -> CoefficientEstimate:
    """Monte-Carlo estimate of one n-scaled one-step moment at a state."""
    return simulate_moments(point, n, n_draws, seed, kinds=(kind,))[kind]


def limit_coefficient(kind: str, point: EvalPoint) -> float:
    """Analytic large-n limit of the corresponding scaled moment; B1 and B2
    are the drift of the coupled diffusion at (x, theta)."""
    theta = point.theta
    if kind in ("A22", "A12"):
        return 0.0
    if kind == "A11":
        return theta * theta
    if kind not in ("B1", "B2"):
        raise ValueError(f"unknown coefficient kind {kind!r}")
    b_x, b_theta = drift(point.target, SdeState(point.x, theta), point.p)
    return float(b_x if kind == "B1" else b_theta)


def coeff_row(point: EvalPoint, estimate: CoefficientEstimate) -> CoeffRow:
    """The row of an estimate at a point: its analytic limit and z-score."""
    limit = limit_coefficient(estimate.kind, point)
    if estimate.std_error > 0.0:
        z = (estimate.estimate - limit) / estimate.std_error
    else:
        z = 0.0 if estimate.estimate == limit else math.inf
    return CoeffRow(estimate.kind, point.target.kind, point.x, point.theta, point.p,
                    estimate.n, estimate.estimate, estimate.std_error, limit, z)


def convergence_report(kind: str, point: EvalPoint, n_grid, n_draws: int,
                       seed: int = 0) -> list:
    """Estimates along an ascending resolution grid, with limit and z-score.

    The same seed is reused for every n (common random numbers), so the
    rows differ only through the resolution.
    """
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    return [coeff_row(point, estimate_coefficient(kind, point, n, n_draws, seed))
            for n in n_grid]
