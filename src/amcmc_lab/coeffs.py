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
analytic limit in a row.  A transition's values are fixed by its accept
flag xi and by eps xi, eps its standard normal: with scale = theta/sqrt(n)
and dtheta d1 if accepted and d0 if not,

    B1 = n scale eps xi,  A11 = n scale^2 (eps xi)^2,  A12 = n scale d1 eps xi,
    B2 = n d1 or n d0,    A22 = n d1^2 or n d0^2.

So every kind's sum and sum of squares over N transitions follows from
four statistics of them (coefficient scoring v2): K = sum xi, S1 = sum
eps xi, S2 = sum (eps xi)^2 and S4 = sum (eps xi)^4.  _kind_sums holds
those formulas, and fixes their float order.

Every kind takes n_draws draws, except B2 on the cauchy target, whose
heavy tail takes CAUCHY_B2_DRAW_FACTOR times as many.  Each reads a prefix
of one sequence of transitions (coefficient contract v3): batch b of
_BATCH transitions reads its normals from stream_rng(seed, b, 0) and its
uniforms from stream_rng(seed, b, 1), the pair chains.chain_streams gives
a chain, and transition i of a batch reads normal i and uniform i.  A
fill of a stream in pieces gives the bits of one whole fill, so a kind
with c draws reads the first c transitions whatever the other kinds read.
A call steps each batch once, one slice of at most _SLICE transitions at
a time, and sums two prefixes: K over every stepped transition, all that
cauchy B2 reads, and K, S1, S2 and S4 over the first n_draws, what every
other kind reads.  K is a whole number, so its sum is exact in any order;
the S sums are ndarray.sum of each slice cut at n_draws, added in slice
order within a batch and in batch order over batches.  A call that none
of B1, A11 and A12 reads sums no S.  The calling thread and a
seeding.Helper thread take a call's batches one at a time until none is
left; each holds one set of slice-sized buffers, so a call's draw memory
is two slices whatever its number of draws, and a batch's statistics are
folded into the call's totals as soon as every earlier batch's are.
"""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .chains import chain_streams, metropolis_step
from .sde import drift
from .seeding import Helper
from .targets import TargetModel

COEFF_KINDS = ("B1", "B2", "A11", "A22", "A12")

_BATCH = 1 << 19
_SLICE = 1 << 14  # most transitions of a slice: about L2
_MIN_DRAWS = 1_000
CAUCHY_B2_DRAW_FACTOR = 4

# The kinds whose values read eps xi; B2 and A22 read the accept flag alone.
_DX_KINDS = ("B1", "A11", "A12")


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


def _kind_sums(kind: str, n: int, scale: float, d0: float, d1: float, count, stats) -> tuple:
    """Sum and sum of squares of kind's values over count transitions whose
    statistics are stats = (K, S1, S2, S4), in this float order."""
    k, s1, s2, s4 = stats
    if kind not in _DX_KINDS:  # a value per outcome, v1 if accepted and v0 if not
        v1, v0 = (n * d1, n * d0) if kind == "B2" else (n * d1 * d1, n * d0 * d0)
        rejected = count - k
        return v1 * k + v0 * rejected, v1 * v1 * k + v0 * v0 * rejected
    # a factor times eps xi (B1, A12) or (eps xi)^2 (A11)
    factor, total, total_sq = {"B1": (n * scale, s1, s2), "A11": (n * scale * scale, s2, s4),
                               "A12": (n * scale * d1, s1, s2)}[kind]
    return factor * total, factor * factor * total_sq


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


# No overflow warning: a row that overflowed is not finite, and is refused
# below.  The helper thread runs under the same errstate.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def simulate_moments(point: EvalPoint, n: int, n_draws: int, seed: int,
                     kinds=COEFF_KINDS) -> dict:
    """Rows of several scaled moments, in kinds order, estimated from
    shared transitions and set against their analytic limits.

    Each kind is estimated from n_draws transitions, except B2 on the
    cauchy target, from CAUCHY_B2_DRAW_FACTOR * n_draws.  Each transition
    is one metropolis_step from the fixed state, and a kind with c draws
    reads the first c transitions of the call (coefficient contract v3),
    so its row is the same alone or with other kinds.  Each batch is
    stepped once, up to the end of the longest kind, one slice of at most
    _SLICE transitions at a time.  A slice counts its accepts K; over the
    first n_draws it counts them again and, if B1, A11 or A12 is asked
    for, writes eps xi and its square and fourth power over its buffers
    and sums each.  A batch adds its slice statistics in slice order, and
    the call its batch statistics in batch order once every earlier
    batch's are in, so a finished batch waits only for one still running.
    The calling thread and a seeding.Helper thread each take the next
    batch until none is left, so no bit depends on which thread ran a
    batch.  _kind_sums turns each kind's statistics into its sum and sum
    of squares.  An unknown kind, or fewer than _MIN_DRAWS draws for a
    kind, is refused before any draw.  A row whose estimate, standard
    error or limit is not finite raises ValueError.
    """
    for kind in kinds:
        if kind not in COEFF_KINDS:
            raise ValueError(f"unknown coefficient kind {kind!r}")
    target = point.target
    b2_draws = n_draws * CAUCHY_B2_DRAW_FACTOR if target.kind == "cauchy" else n_draws
    draws = [b2_draws if kind == "B2" else n_draws for kind in kinds]
    if min(draws, default=_MIN_DRAWS) < _MIN_DRAWS:
        raise ValueError(f"n_draws must be at least {_MIN_DRAWS}" if n_draws in draws else
                         f"B2 on cauchy takes {CAUCHY_B2_DRAW_FACTOR} x n_draws = {b2_draws} "
                         f"draws, fewer than {_MIN_DRAWS}")
    p_n = embedded_benchmark(point.p, n)

    x, theta = point.x, point.theta
    sqrt_n = math.sqrt(n)
    scale = theta / sqrt_n
    lp_x = target.log_density(x)
    # dtheta = theta expm1((xi - p_n)/sqrt(n)) at xi = 0 and at xi = 1
    d0, d1 = (theta * np.expm1((np.array([0.0, 1.0]) - p_n) / sqrt_n)).tolist()
    longest = max(draws, default=0)
    width = min(_SLICE, longest)  # of the buffers
    sums_dx = any(kind in _DX_KINDS for kind in kinds)

    # the batches' statistics K (every stepped transition) and K, S1, S2,
    # S4 (the first n_draws), added in batch order: not sum(), whose
    # compensation would change the bits.  A batch done before an earlier
    # one waits in done until that one is in.
    totals = np.zeros(5)
    done, lock = {}, threading.Lock()
    folded = 0  # the batches folded into totals

    def fold(batch, batch_stats):
        nonlocal folded, totals
        with lock:
            done[batch] = batch_stats
            while folded in done:
                # a batch past n_draws adds S sums of +0.0, which move no
                # bit: totals start at +0.0, so none is ever -0.0
                totals += done.pop(folded)
                folded += 1

    def run(batches):
        """Step each batch this thread takes, and sum and fold its statistics."""
        eps = None
        for batch in batches:
            normals, uniforms = chain_streams(seed, batch)
            if eps is None:  # this thread's one buffer set
                eps, u = np.empty(width), np.empty(width)
                proposal, accept = np.empty((2, width)), np.empty(width, bool)
            start = batch * _BATCH
            stepped = min(longest - start, _BATCH)
            short = n_draws - start  # of its transitions, those among the first n_draws
            batch_stats = np.zeros(5)
            for lo in range(0, stepped, _SLICE):
                m = min(_SLICE, stepped - lo)
                step = normals.standard_normal(out=eps[:m])
                log_u = np.log(uniforms.random(out=u[:m]), out=u[:m])
                (y, lp_y), xi = proposal[:, :m], accept[:m]
                # y is not read here, so the log ratio goes over it
                metropolis_step(x, lp_x, scale, step, log_u, target, (y, lp_y, y, xi))
                batch_stats[0] += np.count_nonzero(xi)
                if lo >= short:
                    continue
                # the step has read eps, y and lp_y: e = eps xi, e^2 and e^4
                # go over them.  xi goes to y as floats first: a bool factor
                # is cast in a 64 KiB buffer
                powers = ()
                if sums_dx:
                    np.copyto(y, xi)
                    e = np.multiply(step, y, out=step)
                    powers = e, np.square(e, out=y), np.square(y, out=lp_y)
                cut = min(short - lo, m)
                batch_stats[1:2 + len(powers)] += [np.count_nonzero(xi[:cut]),
                                                   *(power[:cut].sum() for power in powers)]
            fold(batch, batch_stats)

    with Helper() as helper:
        helper.share(run, range(-(-longest // _BATCH)))()

    every_k, *first = totals.tolist()
    rows = {}
    for kind, count in zip(kinds, draws):
        # B2's count is the longest, so its K is over every stepped transition
        stats = (every_k, *first[1:]) if kind == "B2" else first
        total, total_sq = _kind_sums(kind, n, scale, d0, d1, count, stats)
        estimate = total / count
        var = (total_sq - total * total / count) / (count - 1)
        std_error = math.sqrt(max(var, 0.0) / count)
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
    b_x, b_theta = drift(point.target, (point.x, theta), point.p)
    return float(b_x if kind == "B1" else b_theta)

