import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from amcmc_lab import TARGET_KINDS, make_target

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_make_target_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_target("laplace")


def test_normal_density_at_zero():
    assert make_target("normal").density(0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-15)


def test_cauchy_cdf_at_zero_is_half():
    assert make_target("cauchy").cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_exp_density_outside_support_is_zero():
    target = make_target("exp")
    assert target.density(-1.0) == 0.0
    assert target.log_density(-1.0) == -math.inf
    assert target.density(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("kind,x,expected", [
    ("normal", 1.0, -1.0),
    ("cauchy", 1.0, -1.0),
    ("t2", 0.0, 0.0),
    ("t2", 1.0, -1.0),
    ("exp", 3.7, -1.0),
])
def test_score_closed_forms(kind, x, expected):
    assert make_target(kind).score(x) == pytest.approx(expected, abs=1e-15)


def test_score_errors_at_exp_boundary():
    target = make_target("exp")
    # one-sided at the boundary, where reflected paths can land
    assert target.score(0.0) == -1.0
    assert target.score(-0.0) == -1.0
    with pytest.raises(ValueError):
        target.score(-0.5)
    with pytest.raises(ValueError):
        target.score(np.array([1.0, 0.0, -1e-300]))


@pytest.mark.parametrize("kind,x,expected", [
    ("t2", 0.0, 0.5),
    ("exp", 1.0, 1.0 - math.exp(-1.0)),
    ("cauchy", 1.0, 0.75),
])
def test_cdf_closed_forms(kind, x, expected):
    assert make_target(kind).cdf(x) == pytest.approx(expected, rel=1e-12)


def test_cdf_limits_and_monotonicity():
    grid = np.linspace(-50.0, 50.0, 401)
    for kind in TARGET_KINDS:
        target = make_target(kind)
        values = np.asarray(target.cdf(grid))
        assert np.all(np.diff(values) >= -1e-15)
        assert target.cdf(-1e12) == pytest.approx(0.0, abs=1e-9)
        assert target.cdf(1e12) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_score_matches_numerical_log_density_derivative(kind):
    target = make_target(kind)
    if kind == "exp":
        grid = np.linspace(0.1, 5.0, 101)
    else:
        grid = np.linspace(-5.0, 5.0, 101)
    step = 1e-5
    numeric = (target.log_density(grid + step) - target.log_density(grid - step)) / (2 * step)
    assert np.allclose(numeric, target.score(grid), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("kind,lo,hi", [
    ("normal", -40.0, 40.0),
    ("cauchy", -1e4, 1e4),
    ("t2", -1e4, 1e4),
    ("exp", 0.0, 50.0),
])
def test_density_integrates_to_cdf_difference(kind, lo, hi):
    target = make_target(kind)
    # split at the mode so the adaptive quadrature sees the peak at an endpoint
    mid = 0.0 if lo < 0.0 else 0.5 * (lo + hi)
    mass = (quad(target.density, lo, mid, limit=200)[0]
            + quad(target.density, mid, hi, limit=200)[0])
    assert mass == pytest.approx(target.cdf(hi) - target.cdf(lo), abs=1e-6)


@pytest.mark.parametrize("kind", ["normal", "cauchy", "t2"])
def test_score_is_odd_for_symmetric_targets(kind):
    target = make_target(kind)
    for x in (0.3, 1.7, 4.2):
        assert target.score(-x) == -target.score(x)


def test_vectorized_evaluation_matches_scalar():
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    for kind in ("normal", "cauchy", "t2"):
        target = make_target(kind)
        for method in (target.log_density, target.score, target.cdf):
            batch = method(xs)
            assert batch.shape == xs.shape
            assert batch == pytest.approx([method(float(x)) for x in xs])


def test_target_metadata():
    exp = make_target("exp")
    assert exp.support == (0.0, math.inf)
    assert not exp.in_support(-0.1)
    normal = make_target("normal")
    assert normal.support == (-math.inf, math.inf)
    assert normal.in_support(-1e300)


# Signed magnitudes from 1e-300 to 1e300, the special values, and anything
# else a float can be; exp's negative half-line comes with the sign.
_PROBES = st.one_of(
    st.builds(lambda mantissa, exponent, sign: sign * mantissa * 10.0 ** exponent,
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 299),
              st.sampled_from((1.0, -1.0))),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf)),
    st.floats(allow_nan=False),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kind=st.sampled_from(TARGET_KINDS), x=_PROBES, seed=st.integers(0, 2**32 - 1))
@example(kind="exp", x=-0.0, seed=0)
@example(kind="cauchy", x=1e-300, seed=0)
@example(kind="t2", x=-1e300, seed=0)
def test_float_log_density_matches_array_path_bit_for_bit(kind, x, seed):
    # with x, a batch of the values a chain visits: the scalar oracle
    # amcmc_step passes floats, the lockstep runner arrays of them
    target = make_target(kind)
    chain_like = 3.0 * np.random.default_rng(seed).standard_normal(50)
    for value in [x, *map(float, chain_like)]:
        with np.errstate(over="ignore"):
            fast = target.log_density(value)
            vector = target.log_density(np.array([value]))[0]
        assert type(fast) is float
        assert struct.pack("<d", fast) == struct.pack("<d", vector), value


# Each density's plain expression: log_density runs its operations in this
# order, into a buffer.
_PLAIN_LOG_DENSITY = {
    "normal": lambda x: -0.5 * x * x - 0.5 * math.log(2.0 * math.pi),
    "cauchy": lambda x: -math.log(math.pi) - np.log1p(x * x),
    "t2": lambda x: -math.log(2.0 * math.sqrt(2.0)) - 1.5 * np.log1p(0.5 * x * x),
    "exp": lambda x: np.where(x >= 0.0, -x, -np.inf),
}
# x * x overflows at 1.5e154 where 0.5 * x * x does not, and is subnormal
# at 1e-160: there the order of a formula's products shows in its bits.
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
          1.5e154, -1.5e154, 1e-160, -1.0, -0.5, -1e-300)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(TARGET_KINDS),
       xs=st.lists(st.one_of(_PROBES, st.floats(), st.sampled_from(_EDGES)),
                   min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
@example(kind="exp", xs=list(_EDGES), seed=0)
@example(kind="normal", xs=list(_EDGES), seed=0)
@example(kind="cauchy", xs=list(_EDGES), seed=0)
@example(kind="t2", xs=list(_EDGES), seed=0)
def test_log_density_into_a_buffer_matches_the_allocating_form_bit_for_bit(kind, xs, seed):
    # one formula per density: written into a used buffer, into a fresh
    # one, one float at a time (out-of-place ufuncs on numpy scalars) and by
    # the plain expression, the bits agree, NaN included (exp maps NaN to -inf)
    target = make_target(kind)
    x = np.array(xs)
    buffer = np.random.default_rng(seed).standard_normal(len(x))  # stale values
    with np.errstate(over="ignore", invalid="ignore"):
        written = target.log_density(x, out=buffer)
        fresh = target.log_density(x)
        one_by_one = np.array([target.log_density(v) for v in xs])
        plain = _PLAIN_LOG_DENSITY[kind](x)
    assert written is buffer
    assert written.tobytes() == fresh.tobytes() == one_by_one.tobytes() == plain.tobytes(), xs
    if kind == "exp":
        assert np.all(written[np.isnan(x) | (x < 0.0)] == -np.inf)


_SCORE_EDGES = (0.0, -0.0, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan)
# Each score's plain expression, whose operations score runs in this order
_PLAIN_SCORE = {
    "normal": lambda x: -x,
    "cauchy": lambda x: -2.0 * x / (1.0 + x * x),
    "t2": lambda x: -3.0 * x / (2.0 + x * x),
    "exp": lambda x: np.full_like(x, -1.0),
}


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_score_into_a_buffer_matches_the_allocating_form_bit_for_bit(kind):
    # the Euler step writes the score into its own buffer: the same bits as
    # a fresh array, as one float at a time and as the plain expression, on
    # the edge values and on a grid where a reordered formula would show
    target = make_target(kind)
    grid = 10.0 * np.random.default_rng(5).standard_normal(2000)
    # the exponential's score refuses x < 0; NaN and -0.0 pass its check
    x = np.array([v for v in [*_SCORE_EDGES, *grid] if kind != "exp" or not v < 0.0])
    buffer = np.full_like(x, 7.0)  # stale values
    with np.errstate(over="ignore", invalid="ignore"):
        written = target.score(x, out=buffer)
        fresh = target.score(x)
        floats = [target.score(float(v)) for v in x]
        plain = _PLAIN_SCORE[kind](x)
    assert written is buffer and all(type(v) is float for v in floats)
    one_by_one = np.array(floats)
    assert written.tobytes() == fresh.tobytes() == one_by_one.tobytes() == plain.tobytes()


def _ndtr_oracle_pieces():
    rng = np.random.default_rng(20240517)
    edges = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 1e-300, math.inf]
    yield np.array(edges + [-e for e in edges] + [math.nan])
    # 64 ulps either side of each branch switch and of erfc's underflow
    # point, a = sqrt(2 MAXLOG)
    for switch in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)):
        near = switch + np.spacing(switch) * np.arange(-64, 65)
        yield np.concatenate([near, -near])
    band = np.linspace(37.0, 39.0, 200_001)
    yield band
    yield -band
    yield from np.array_split(np.linspace(-60.0, 60.0, 2_400_001), 4)
    for scale in (0.3, 1.0, 3.0, 10.0, 30.0):
        yield scale * rng.standard_normal(500_000)


def test_normal_cdf_matches_scipy_ndtr_bit_for_bit():
    # scipy's compiled ndtr is the oracle: the port must give the same bits
    # on the branch edges (sqrt(1/2), 1 and 8 in x = a / sqrt 2), erfc's
    # underflow band, a dense grid and random points at several scales
    from scipy.special import ndtr
    cdf = make_target("normal").cdf
    checked = 0
    for points in _ndtr_oracle_pieces():
        got, want = cdf(points), ndtr(points)
        mismatched = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert mismatched.size == 0, points[mismatched[:10]]
        checked += points.size
    assert checked >= 5_000_000


def test_normal_cdf_special_values_and_shapes():
    from scipy.special import ndtr
    cdf = make_target("normal").cdf
    assert cdf(0.0) == 0.5 and cdf(-0.0) == 0.5
    assert cdf(math.inf) == 1.0 and cdf(-math.inf) == 0.0
    assert math.isnan(cdf(math.nan))
    for x in (-1.5, 0.2, 40.0):
        assert type(cdf(x)) is float
        assert struct.pack("<d", cdf(x)) == struct.pack("<d", float(ndtr(x)))
        assert struct.pack("<d", cdf(np.array(x))) == struct.pack("<d", float(ndtr(x)))
    grid = np.linspace(-9.0, 9.0, 24).reshape(2, 3, 4)
    batch = cdf(grid)
    assert batch.shape == grid.shape
    assert batch.view(np.uint64).tolist() == ndtr(grid).view(np.uint64).tolist()
    assert cdf(np.empty((0, 3))).shape == (0, 3)


def test_importing_the_cli_leaves_scipy_unloaded():
    # the package needs only numpy at run time; scipy is the tests' oracle
    code = "import sys, amcmc_lab.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
