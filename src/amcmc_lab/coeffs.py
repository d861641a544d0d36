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
analytic limit in a row.  Each kind has its own number of draws (n_draws,
or its entry in draws_of), and the contract (coefficient contract v2) is
per kind: its transitions come in batches of _BATCH draws, batch b from
the stream (seed, b), only the last batch shorter, and within a batch
each of its pieces (below), in order, draws its normals and then its
uniforms.  A call's units of work are the distinct (batch, length) pairs
its kinds read; each is stepped once, for every kind that reads it, so
kinds of different lengths share their common full batches.  A unit is
drawn, stepped, and its moment values formed and summed, piece by piece:
the pieces are the ones numpy's pairwise sum splits the unit into (halve,
rounding the first half down to a multiple of 8, until a piece holds at
most _SLICE values), and the piece sums are added back along the same
split.  Each piece sum is the subtree numpy's sum computes for those
values, and each kind's row is summed on its own, so each unit total is
bit for bit the sum of a whole-batch array of that kind's values, whoever
shares the unit.  The calling thread and a seeding.Helper thread take a
call's units one at a time until none is left; each holds one set of
piece-sized buffers, so a call's draw memory is two pieces whatever its
number of draws.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chains import metropolis_step
from .sde import drift
from .seeding import Helper, stream_rng
from .targets import TargetModel

COEFF_KINDS = ("B1", "B2", "A11", "A22", "A12")

_BATCH = 1 << 19
_SLICE = 1 << 14  # most draws of a piece: about L2
_MIN_DRAWS = 1_000

# Each kind's value is n times its factors, multiplied in this order.
_FACTORS = {"B1": ("dx",), "B2": ("dtheta",), "A11": ("dx", "dx"),
            "A22": ("dtheta", "dtheta"), "A12": ("dx", "dtheta")}


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


def _half(m: int) -> int:
    """Where numpy's pairwise sum splits m values: at half, rounded down to
    a multiple of its 8-wide unroll."""
    half = m // 2
    return half - half % 8


def _pieces(m: int) -> list:
    """(lo, hi) bounds of the pieces of m values: numpy's pairwise split,
    applied until a piece holds at most _SLICE values.  A full batch gives
    32 pieces of _SLICE."""
    if m <= _SLICE:
        return [(0, m)]
    half = _half(m)
    return _pieces(half) + [(half + lo, half + hi) for lo, hi in _pieces(m - half)]


def _fold(sums, m: int):
    """The sums of the _pieces(m), in order, added along the split that made
    them: the sum numpy gives the m values, bit for bit."""
    # one iterator for the whole recursion (iter of an iterator is itself),
    # and no recursive closure: that is a reference cycle, which would keep
    # each unit's piece sums alive until the garbage collector runs
    sums = iter(sums)
    if m <= _SLICE:
        return next(sums)
    half = _half(m)
    return _fold(sums, half) + _fold(sums, m - half)


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


def _units(draws):
    """The units of work of kinds with these draw counts, in batch order:
    (batch, length, readers), one per distinct (batch, length) pair that
    the kinds read, readers the indices of the kinds that read it.  A C
    iterator that makes each unit when it is taken, so the two threads of a
    seeding.Helper can share it, and a huge count builds nothing up front."""
    segments, done = [], 0
    for count in sorted(set(draws)):
        full, rest = divmod(count, _BATCH)
        # full batches done..full-1 are read by every kind with full or more
        readers = tuple(i for i, d in enumerate(draws) if d // _BATCH >= full)
        segments.append(zip(range(done, full), itertools.repeat(_BATCH),
                            itertools.repeat(readers)))
        if rest:
            segments.append([(full, rest, tuple(i for i, d in enumerate(draws) if d == count))])
        done = full
    return itertools.chain(*segments)


# No overflow warning: a row that overflowed is not finite, and is refused
# below.  The helper thread runs under the same errstate.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def simulate_moments(point: EvalPoint, n: int, n_draws: int, seed: int,
                     kinds=COEFF_KINDS, *, draws_of=None) -> dict:
    """Rows of several scaled moments, in kinds order, estimated from
    shared transitions and set against their analytic limits.

    Each kind is estimated from n_draws transitions, or from draws_of[kind]
    if draws_of names it.  Each transition is one metropolis_step from the
    fixed state.  Batch b of a kind's draws comes from the stream (seed, b)
    with a fixed batch size, each of its _pieces drawing its normals and
    then its uniforms, so each kind's row is identical whether computed
    alone or together with others, of any lengths.  Each distinct (batch,
    length) of the kinds is one unit, stepped once for the kinds that read
    it.  A unit is drawn, stepped, and its moment values formed and
    summed, one of its _pieces at a time; _fold adds the piece sums along
    numpy's pairwise split, so the rows are those of summing whole-batch
    arrays.  The calling thread and a seeding.Helper thread each take the
    next unit until none is left, and each kind adds its unit sums in
    batch order, so no bit depends on which thread ran a unit.  An unknown
    kind, or fewer than _MIN_DRAWS draws for a kind, is refused before any
    draw.  A row whose estimate, standard error or limit is not finite
    raises ValueError.
    """
    draws_of = draws_of or {}
    for kind in (*kinds, *draws_of):
        if kind not in COEFF_KINDS:
            raise ValueError(f"unknown coefficient kind {kind!r}")
    draws = [draws_of.get(kind, n_draws) for kind in kinds]
    for kind, count in [*zip(kinds, draws), *draws_of.items()]:
        if count < _MIN_DRAWS:
            name = f"draws_of[{kind!r}]" if kind in draws_of else "n_draws"
            raise ValueError(f"{name} must be at least {_MIN_DRAWS}")
    p_n = embedded_benchmark(point.p, n)

    target = point.target
    x, theta = point.x, point.theta
    sqrt_n = math.sqrt(n)
    scale = theta / sqrt_n
    lp_x = target.log_density(x)
    # dtheta = theta expm1((xi - p_n)/sqrt(n)) at xi = 0 and at xi = 1
    d0, d1 = theta * np.expm1((np.array([0.0, 1.0]) - p_n) / sqrt_n)
    piece = min(_SLICE, max(draws, default=0))

    def run(pending):
        """The (2, readers) sums and sums of squares of each unit this
        thread takes, with its readers, by (batch, length)."""
        sums = {}
        for batch, m, readers in pending:
            rng = stream_rng(seed, batch)
            if not sums:  # this thread's one buffer set
                eps, u, values = np.empty(piece), np.empty(piece), np.empty((len(kinds), piece))
                proposal, accept = np.empty((2, piece)), np.empty(piece, bool)
            factors = [_FACTORS[kinds[i]] for i in readers]
            reads_dx = any("dx" in kind_factors for kind_factors in factors)
            reads_dtheta = any("dtheta" in kind_factors for kind_factors in factors)
            piece_sums = []
            for lo, hi in _pieces(m):
                # the contract's order: the piece's normals, then its uniforms
                step = rng.standard_normal(out=eps[:hi - lo])
                log_u = np.log(rng.random(out=u[:hi - lo]), out=u[:hi - lo])
                (y, lp_y), xi = proposal[:, :hi - lo], accept[:hi - lo]
                # y is not read here, so the log ratio goes over it
                metropolis_step(x, lp_x, scale, step, log_u, target, (y, lp_y, y, xi))
                terms = {}
                if reads_dx:  # the step has read eps: it holds dx from here on
                    terms["dx"] = np.multiply(scale, np.where(xi, step, 0.0), out=step)
                if reads_dtheta:
                    terms["dtheta"] = np.where(xi, d1, d0)
                rows = values[:len(readers), :hi - lo]
                for row, kind_factors in zip(rows, factors):
                    np.multiply(n, terms[kind_factors[0]], out=row)
                    for factor in kind_factors[1:]:
                        row *= terms[factor]
                # Each row's sum is numpy's pairwise sum of that row alone.
                piece_sum = np.empty((2, len(readers)))
                rows.sum(axis=1, out=piece_sum[0])
                np.square(rows, out=rows).sum(axis=1, out=piece_sum[1])
                piece_sums.append(piece_sum)
            sums[batch, m] = list(readers), _fold(piece_sums, m)
        return sums

    with Helper() as helper:
        sums, theirs = helper.share(run, _units(draws))()
    sums.update(theirs)
    # each kind reads one unit a batch: in batch order, unit by unit; not
    # sum(), whose compensation would change the bits
    totals = np.zeros((2, len(kinds)))
    for unit in sorted(sums):
        readers, unit_sums = sums[unit]
        totals[:, readers] += unit_sums

    rows = {}
    for kind, count, total, total_sq in zip(kinds, draws, *totals.tolist()):
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

