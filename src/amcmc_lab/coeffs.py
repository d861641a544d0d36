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
state and averages the requested scaled moment; convergence_report tabulates
the estimates along a grid of resolutions against the analytic limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sde import SQRT_2PI
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
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")
        if self.p <= 0.0:
            raise ValueError("benchmark p must be positive")
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
class ConvergenceRow:
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


def _check_resolution(point: EvalPoint, n: int) -> float:
    """Return p_n = 1 - p/sqrt(n), rejecting degenerate resolutions."""
    p_n = 1.0 - point.p / math.sqrt(n)
    if p_n <= 0.0:
        raise ValueError(
            f"p/sqrt(n) = {point.p / math.sqrt(n):.3g} >= 1: "
            "resolution too small for the chosen benchmark p"
        )
    return p_n


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
    p_n = _check_resolution(point, n)

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
    """Analytic large-n limit of the corresponding scaled moment."""
    theta = point.theta
    if kind in ("A22", "A12"):
        return 0.0
    if kind == "A11":
        return theta * theta
    s = point.target.score(point.x)
    if kind == "B1":
        return 0.5 * theta * theta * s
    if kind == "B2":
        return theta * (point.p - theta * abs(s) / SQRT_2PI)
    raise ValueError(f"unknown coefficient kind {kind!r}")


def convergence_report(kind: str, point: EvalPoint, n_grid, n_draws: int,
                       seed: int = 0) -> list:
    """Estimates along an ascending resolution grid, with limit and z-score.

    The same seed is reused for every n (common random numbers), so the
    rows differ only through the resolution.
    """
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    limit = limit_coefficient(kind, point)
    rows = []
    for n in n_grid:
        est = estimate_coefficient(kind, point, n, n_draws, seed)
        if est.std_error > 0.0:
            z = (est.estimate - limit) / est.std_error
        else:
            z = 0.0 if est.estimate == limit else math.inf
        rows.append(ConvergenceRow(n, est.estimate, est.std_error, limit, z))
    return rows
