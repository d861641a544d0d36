import math

import numpy as np
import pytest

from amcmc_lab import EvalPoint, limit_coefficient, make_target
from amcmc_lab.coeffs import COEFF_KINDS, embedded_benchmark, simulate_moments
from amcmc_lab.sde import SQRT_2PI

NORMAL = make_target("normal")
POINT = EvalPoint(x=1.0, theta=1.0, p=0.5, target=NORMAL)


def test_limit_values():
    assert limit_coefficient("B1", POINT) == pytest.approx(-0.5, abs=1e-15)
    assert limit_coefficient("B2", POINT) == pytest.approx(0.5 - 1.0 / SQRT_2PI, abs=1e-15)
    assert limit_coefficient("A11", POINT) == 1.0
    assert limit_coefficient("A22", POINT) == 0.0
    assert limit_coefficient("A12", POINT) == 0.0


def test_limit_at_the_mode():
    point = EvalPoint(x=0.0, theta=2.0, p=0.3, target=NORMAL)
    assert limit_coefficient("B1", point) == 0.0
    assert limit_coefficient("B2", point) == pytest.approx(0.6, abs=1e-15)
    assert limit_coefficient("A11", point) == 4.0


def test_limit_rejects_unknown_kind():
    with pytest.raises(ValueError):
        limit_coefficient("B3", POINT)


def test_eval_point_validation():
    with pytest.raises(ValueError):
        EvalPoint(x=-1.0, theta=1.0, p=0.5, target=make_target("exp"))
    for boundary in (0.0, -0.0):  # the score is one-sided there
        with pytest.raises(ValueError):
            EvalPoint(x=boundary, theta=1.0, p=0.5, target=make_target("exp"))
    with pytest.raises(ValueError):
        EvalPoint(x=1.0, theta=0.0, p=0.5, target=NORMAL)
    with pytest.raises(ValueError, match="no fixed-scale arm"):
        EvalPoint(x=1.0, theta=1.0, p=None, target=NORMAL)


def test_estimate_is_deterministic():
    a = simulate_moments(POINT, 10_000, 50_000, 3, ("B1",))["B1"]
    b = simulate_moments(POINT, 10_000, 50_000, 3, ("B1",))["B1"]
    assert a == b
    assert a.std_error > 0.0


def test_estimate_matches_shared_simulation():
    shared = simulate_moments(POINT, 10_000, 20_000, seed=7)
    for kind in COEFF_KINDS:
        solo = simulate_moments(POINT, 10_000, 20_000, 7, (kind,))[kind]
        assert solo == shared[kind]


def test_estimate_requires_feasible_resolution():
    assert embedded_benchmark(0.5, 100) == pytest.approx(0.95)
    with pytest.raises(ValueError):
        simulate_moments(EvalPoint(x=1.0, theta=1.0, p=2.5, target=NORMAL), 4, 2_000, 0,
                         ("B1",))
    with pytest.raises(ValueError, match="resolution"):
        simulate_moments(POINT, 0, 2_000, 0, ("B1",))
    # a whole number past the largest float is refused before it is converted
    with pytest.raises(ValueError, match="resolution n must be at most"):
        simulate_moments(POINT, 10**400, 2_000, 0, ("B1",))
    with pytest.raises(ValueError):
        simulate_moments(POINT, 100, 10, 0, ("B1",))


def test_drift_estimates_near_limits():
    # high resolution so the O(1/sqrt(n)) finite-n bias sits well below noise
    for kind in ("B1", "B2", "A11"):
        est = simulate_moments(POINT, 1_000_000, 100_000, 11, (kind,))[kind]
        limit = limit_coefficient(kind, POINT)
        assert abs(est.estimate - limit) <= 4.0 * est.std_error


def test_a11_estimate_at_the_mode():
    point = EvalPoint(x=0.0, theta=2.0, p=0.5, target=NORMAL)
    est = simulate_moments(point, 1_000_000, 100_000, 13, ("A11",))["A11"]
    assert abs(est.estimate - 4.0) <= 3.0 * est.std_error


def test_b1_sign_follows_score():
    for kind_name in ("normal", "cauchy", "t2"):
        target = make_target(kind_name)
        for x in (-1.0, 2.0):
            point = EvalPoint(x=x, theta=1.0, p=0.5, target=target)
            est = simulate_moments(point, 10_000, 400_000, 19, ("B1",))["B1"]
            assert math.copysign(1.0, est.estimate) == math.copysign(1.0, target.score(x))


def test_scale_noise_vanishes_with_resolution():
    estimates = [
        simulate_moments(POINT, n, 100_000, 23, ("A22",))["A22"].estimate
        for n in (100, 10_000, 1_000_000)
    ]
    assert estimates[0] > estimates[1] > estimates[2] >= 0.0


def test_b1_centered_at_symmetric_point():
    point = EvalPoint(x=0.0, theta=1.0, p=0.5, target=NORMAL)
    for n in (100, 10_000):
        est = simulate_moments(point, n, 100_000, 29, ("B1",))["B1"]
        assert abs(est.estimate) <= 3.0 * est.std_error


def test_rows_shape_and_tail_z():
    # one seed for every n (common random numbers)
    rows = [simulate_moments(POINT, n, 100_000, 31, ("B1",))["B1"]
            for n in (100, 10_000, 1_000_000)]
    assert [row.n for row in rows] == [100, 10_000, 1_000_000]
    for row in rows:
        assert row.limit == pytest.approx(-0.5)
        if row.std_error > 0:
            assert row.z == pytest.approx((row.estimate - row.limit) / row.std_error)
    assert abs(rows[-1].z) < 3.0


def test_exponential_target_point():
    point = EvalPoint(x=1.0, theta=0.5, p=0.5, target=make_target("exp"))
    assert limit_coefficient("B1", point) == pytest.approx(-0.125)
    est = simulate_moments(point, 10_000, 200_000, 37, ("B1",))["B1"]
    assert abs(est.estimate - (-0.125)) <= 4.0 * est.std_error


def test_every_public_name_resolves():
    # a star import looks up every name in __all__: a stale one is an AttributeError
    exec("from amcmc_lab import *", {})
