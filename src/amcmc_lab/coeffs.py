"""Monte-Carlo verification of the one-step drift/diffusion coefficients.

For the embedded chain at resolution n, the n-scaled conditional one-step
moments

    B1  = n E[dX],   B2  = n E[dtheta],
    A11 = n E[dX^2], A22 = n E[dtheta^2], A12 = n E[dX dtheta]

converge, as n grows, to the drift and squared-diffusion coefficients of
the limiting dynamics:

    B1 -> theta^2/2 * psi'/psi,  B2 -> theta (p - theta/sqrt(2 pi) |psi'|/psi),
    A11 -> theta^2,              A22 -> 0,  A12 -> 0.

The chain at resolution n proposes with scale theta/sqrt(n) and retunes
theta by exp((xi - p_n)/sqrt(n)); embedded_benchmark gives p_n = 1 - p/sqrt(n).
simulate_moments draws independent one-step transitions from a fixed state,
averages the requested scaled moments over them, and sets each against its
analytic limit in a row.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .chains import metropolis_step
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
        if self.p is None:
            raise ValueError("benchmark p is None: coeff mode has no fixed-scale arm")
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


def embedded_benchmark(p: float, n: int) -> float:
    """Acceptance benchmark p_n = 1 - p/sqrt(n) of the chain at resolution n,
    which must be at least 1, at most the largest float, and large enough
    that p_n > 0."""
    if n < 1:
        raise ValueError(f"resolution n must be at least 1, got {n}")
    if not n <= sys.float_info.max:
        raise ValueError(f"resolution n must be at most {sys.float_info.max:.6g}, "
                         "the largest float")
    p_n = 1.0 - p / math.sqrt(n)
    if p_n <= 0.0:
        raise ValueError(f"p/sqrt(n) = {p / math.sqrt(n):.3g} >= 1: "
                         "resolution too small for the chosen benchmark p")
    return p_n


# No overflow warning: a row that overflowed is not finite, and is refused below.
@np.errstate(over="ignore", invalid="ignore")
def simulate_moments(point: EvalPoint, n: int, n_draws: int, seed: int,
                     kinds=COEFF_KINDS) -> dict:
    """Rows of several scaled moments, in kinds order, estimated from one
    shared set of transitions and set against their analytic limits.

    Each transition is one metropolis_step from the fixed state.  Batch b
    of draws comes from the stream (seed, b) with a fixed batch size, so
    each kind's row is identical whether computed alone or together with
    the others.  A row whose estimate, standard error or limit is not
    finite raises ValueError.
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
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(m))
        _, _, xi = metropolis_step(x, lp_x, theta / sqrt_n, eps, log_u, target)
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

    rows = {}
    for kind in kinds:
        estimate, std_error = acc[kind].mean(), acc[kind].std_error()
        limit = limit_coefficient(kind, point)
        if not all(map(math.isfinite, (estimate, std_error, limit))):
            raise ValueError(f"coeff cell x={x!r}, theta={theta!r}, p={point.p!r}, n={n}, "
                             f"kind {kind}: estimate {estimate!r}, std_error "
                             f"{std_error!r}, limit {limit!r} are not all finite")
        if std_error > 0.0:
            z = (estimate - limit) / std_error
        else:
            z = 0.0 if estimate == limit else math.inf
        rows[kind] = CoeffRow(kind, target.kind, x, theta, point.p, n, estimate, std_error,
                              limit, z)
    return rows


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

