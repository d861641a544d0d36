"""Euler integration of the coupled (X, theta) diffusion and its fixed-scale limit.

The coupled dynamics are

    dX     = (theta^2 / 2) * (psi'/psi)(X) dt + theta dW
    dtheta = theta * (p - theta/sqrt(2*pi) * |psi'|/psi (X)) dt

with no Brownian term on theta (the diffusion matrix has a zero row).  The
fixed-scale variant, a config with p None, freezes theta at theta0: for the
normal target an Ornstein-Uhlenbeck process of stationary variance 1 at
every theta.

For the exponential target the positive half-line is preserved by
reflecting X across zero after each step; every ensemble's start is
checked against the target's support once, before any draw.

run_ensembles steps ensembles that share a mesh as one array, EULER_CHUNK
steps at a time, while a seeding.Helper thread draws the normals of the
next chunk: the calling thread's wall time is the stepping plus the draws
the helper has not taken.  Ensembles that share a seed share one stream,
drawn once: a grid seeds the adaptive cells of one (h, replicate) alike,
so they step on the same increments.  Its step (Euler scheme v2) carries
the noise scale sigma = sqrt(h) theta in place of theta, which lets X's
drift and sigma's share one square and folds h into constants; it differs
from stepping theta by rounding only.  The step gives, path by path, the
bits of the one-step oracle euler_step in tests/test_sde.py, writes into
arrays allocated once per call, and folds the exponential's constant score
away (see run_ensembles).
"""

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .seeding import Helper, stream_rng
from .targets import _HALF, TargetModel, _constant

SQRT_2PI = math.sqrt(2.0 * math.pi)
THETA_FLOOR = 1e-12
EULER_CHUNK = 32  # steps of draws per buffer (run_ensembles keeps two) and per unit of work


@dataclass(frozen=True)
class EulerConfig:
    """Mesh, horizon and drift parameters for an Euler run; p None fixes theta."""

    h: float
    horizon_t: float
    p: float
    theta0: float
    x0: float = 0.0
    n_paths: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError("mesh size h must be positive and finite")
        if not 0.0 < self.horizon_t < math.inf:
            raise ValueError("horizon_t must be positive and finite")
        if not math.isfinite(self.horizon_t / self.h):
            raise ValueError(f"step count horizon_t/h = {self.horizon_t / self.h} "
                             "must be finite")
        if self.p is not None and not 0.0 < self.p < math.inf:
            raise ValueError("drift benchmark p must be positive and finite")
        if not 0.0 < self.theta0 < math.inf:
            raise ValueError("theta0 must be positive and finite")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        # n_steps steps of h must reach the horizon, not stop short of it or
        # pass it; the message names the steps that rounding up would take
        if not math.isclose(self.n_steps * self.h, self.horizon_t, rel_tol=1e-9):
            ceil = math.ceil(self.horizon_t / self.h)
            raise ValueError(f"horizon_t={self.horizon_t!r} is not a whole number of steps "
                             f"of h={self.h!r}: n_steps={ceil} would reach "
                             f"T={ceil * self.h!r}")

    @property
    def n_steps(self) -> int:
        return round(self.horizon_t / self.h)


@dataclass
class EnsembleResult:
    """Terminal values of an ensemble of independent Euler paths."""

    x_t: np.ndarray
    theta_t_all: np.ndarray
    theta_floor_hits: int

    @property
    def theta_t_mean(self) -> float:
        return float(self.theta_t_all.mean())


def drift(target: TargetModel, state, p: float):
    """Drift components (b_x, b_theta) of the coupled dynamics at a state,
    any (x, theta) pair."""
    x, theta = state
    s = target.score(x)
    b_x = 0.5 * theta * theta * s
    b_theta = theta * (p - theta * np.abs(s) / SQRT_2PI)
    return b_x, b_theta


_SHARED_FIELDS = ("h", "horizon_t", "x0", "theta0", "n_paths")


# A diverging ensemble overflows to inf and then NaN; its caller checks the
# terminal values, so numpy's warnings would only say it twice.
@np.errstate(over="ignore", invalid="ignore")
def run_ensembles(target: TargetModel, configs) -> list:
    """Integrate ensembles that share a mesh as one wide array of paths.

    The configs must agree on every field but ``seed`` and ``p`` (None for
    a fixed scale).  An ensemble draws its Gaussian increments from the one
    stream stream_rng(seed): one standard normal per path per step, in
    step-major order.  Ensembles with equal seeds read one stream, drawn
    once, so each gets the bits it would get alone.  Each distinct seed's
    stream is read EULER_CHUNK steps at a time into two buffers of one row
    per seed: while the calling thread steps one chunk, the next chunk's
    seeds are shared out, one at a time, through a seeding.Helper.  A
    seed's chunk is drawn by one thread, after its previous chunk, so
    chunked draws give the bits of one whole (n_steps, n_paths) draw
    whichever thread makes them and whatever the chunk size.

    A path's state is (x, sigma), sigma = sqrt(h) theta.  With s the score
    at x and u = sigma^2 / 2, a step takes x to x + u s + sigma z and sigma
    to sigma (1 + h p) - k u |s|, k = 2 sqrt(h) / sqrt(2 pi); a sigma at or
    below 0 is clamped to sqrt(h) THETA_FLOOR and counted.  A fixed-scale
    ensemble's sigma and u are set once.  theta_T is sigma_T / sqrt(h),
    THETA_FLOOR itself on the floor, and theta0 itself at a fixed scale.
    Every path takes the float operations of the test oracle
    ``tests/test_sde.py::euler_step`` in the same order, so each result is
    identical however the ensembles are grouped or scheduled.  The one
    difference is exp's constant score s = -1: its step runs x - u where
    the oracle runs x + u s, and u k where it runs k (u |s|).  Multiplying
    by -1 or by 1 is exact, x - u is x + (-u) and products commute in IEEE
    arithmetic, so the bits are the same.  The step writes the score and
    its other intermediates into arrays allocated once per call; only a
    cauchy or t2 score takes a temporary, its denominator.  Memory is
    bounded by the chunk, not by the horizon.  Returns one EnsembleResult
    per config, in the order given.  An x0 off the target's support raises
    ValueError before any stream opens, in the words of the grid's own
    start check.
    """
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    for name in _SHARED_FIELDS:
        if any(getattr(c, name) != getattr(first, name) for c in configs):
            raise ValueError(f"ensembles run together must share {name}")
    # The start is checked once, before any stream opens: a reflected x is
    # >= 0 or NaN, so no step leaves the support.  exp's score, the constant
    # -1, is folded into the step, and its paths are reflected at zero.
    if not target.in_support(first.x0):
        raise ValueError(f"x0={first.x0} outside the support of the {target.kind} target")
    exp = target.kind == "exp"

    # Adaptive ensembles first, so the theta update touches a leading slice.
    order = sorted(range(len(configs)), key=lambda i: configs[i].p is None)
    ordered = [configs[i] for i in order]
    n, n_steps, h = first.n_paths, first.n_steps, first.h
    n_adaptive = sum(c.p is not None for c in configs)
    width, a = n * len(configs), n * n_adaptive  # a: paths of adaptive ensembles
    seeds = list(dict.fromkeys(c.seed for c in ordered))
    rngs = [stream_rng(seed) for seed in seeds]
    # seed, step, path; chunk k is drawn into buffers[k % 2].  Two arrays,
    # not one of twice the size: the allocator can place each in heap memory
    # that earlier blocks freed, which keeps the peak RSS down.
    buffers = [np.empty((len(seeds), min(EULER_CHUNK, n_steps), n)) for _ in range(2)]
    n_chunks = math.ceil(n_steps / EULER_CHUNK)

    def draw(k, units):
        m = min(EULER_CHUNK, n_steps - k * EULER_CHUNK)
        for i in units:  # an iterator both threads share: each seed goes to one
            rngs[i].standard_normal(out=buffers[k % 2][i, :m])
        return m

    x = np.full(width, first.x0)
    x_new = np.empty(width)
    # The state is (x, sigma), sigma = sqrt(h) theta the noise scale, and
    # u = sigma^2 / 2 = h/2 theta^2 the drift scale.  Only their adaptive
    # slice changes from step to step; the fixed slice's are set here, once.
    sqrt_h = math.sqrt(h)
    sigma = np.full(width, sqrt_h * first.theta0)
    u = sigma * sigma * 0.5
    sigma_a, u_a = sigma[:a], u[:a]
    # sigma's update sigma (1 + h p) - k u |s|, k = 2 sqrt(h) / sqrt(2 pi):
    # 1 + h p per path, and k, like 1/2, a read-only 0-d array (see
    # targets._constant)
    hp1 = 1.0 + h * np.repeat([c.p for c in ordered[:n_adaptive]], n)
    k = _constant(2.0 * sqrt_h / SQRT_2PI)
    sigma_floor = sqrt_h * THETA_FLOOR
    s = np.empty(width)  # the score at x, unless it is exp's constant
    s_a = s[:a]
    term = np.empty(width)
    # the same arrays, one row per ensemble, to meet z's step slices
    sigma_rows, term_rows = sigma.reshape(-1, n), term.reshape(-1, n)
    # Runs of consecutive ensembles on one seed, each as (its rows of
    # sigma_rows and term_rows, its seed's rows of z), for one broadcast
    # multiply a run.  When every seed is distinct, z's rows line up with
    # the ensembles' and one run, all rows, takes them all.
    if len(seeds) == len(configs):
        runs = [(sigma_rows, term_rows, slice(None))]
    else:
        runs, start = [], 0
        for seed, run in itertools.groupby(c.seed for c in ordered):
            stop = start + len(list(run))
            runs.append((sigma_rows[start:stop], term_rows[start:stop], seeds.index(seed)))
            start = stop
    rate = np.empty(a)
    floor_hits = np.zeros(n_adaptive, np.int64)

    # While this thread steps a chunk, the helper draws the next (see
    # seeding.Helper); this thread draws what it has left once it has stepped.
    with Helper() as helper:
        finish = helper.share(partial(draw, 0), range(len(seeds)))
        for chunk in range(n_chunks):
            m, z = finish()[0], buffers[chunk % 2]
            if chunk + 1 < n_chunks:
                finish = helper.share(partial(draw, chunk + 1), range(len(seeds)))
            for j in range(m):
                # x + u s + sigma z, operation by operation as the test
                # oracle tests/test_sde.py::euler_step evaluates it, so
                # every path gets the same bits.
                # Each is a ufunc call with its out passed by position: an
                # augmented assignment (a *= b) costs about twice the overhead.
                if a:
                    np.multiply(sigma_a, sigma_a, u_a)
                    np.multiply(u_a, _HALF, u_a)
                if exp:
                    np.subtract(x, u, x_new)
                else:
                    target.score(x, s)
                    np.multiply(u, s, term)
                    np.add(x, term, x_new)
                for sigma_run, term_run, row in runs:
                    np.multiply(sigma_run, z[row, j], term_run)
                np.add(x_new, term, x_new)
                if exp:
                    np.abs(x_new, x)
                else:
                    x, x_new = x_new, x
                if a:
                    # sigma (1 + h p) - (|s| u) k, in that order
                    if exp:
                        np.multiply(u_a, k, rate)
                    else:
                        np.abs(s_a, rate)
                        np.multiply(rate, u_a, rate)
                        np.multiply(rate, k, rate)
                    np.multiply(sigma_a, hp1, sigma_a)
                    np.subtract(sigma_a, rate, sigma_a)
                    # Clamps and floor hits need a minimum (NaN aside) at or
                    # below the floor; checking it first costs one pass, not two.
                    if np.fmin.reduce(sigma_a) <= sigma_floor:
                        sigma_a[sigma_a <= 0.0] = sigma_floor
                        floor_hits += np.count_nonzero(
                            (sigma_a == sigma_floor).reshape(n_adaptive, n), axis=1)

    # theta_T: sigma_T / sqrt(h) on the adaptive slice, THETA_FLOOR itself
    # where a path ends on the floor, and theta0 itself on the fixed slice
    theta = np.full(width, first.theta0)
    np.divide(sigma_a, sqrt_h, theta[:a])
    theta[:a][sigma_a == sigma_floor] = THETA_FLOOR

    results = [None] * len(configs)
    for slot, i in enumerate(order):
        paths = slice(slot * n, (slot + 1) * n)
        results[i] = EnsembleResult(
            x_t=x[paths].copy(),
            theta_t_all=theta[paths].copy(),
            theta_floor_hits=int(floor_hits[slot]) if slot < n_adaptive else 0,
        )
    return results
