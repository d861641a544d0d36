import math

import numpy as np
import pytest

from amcmc_lab import (
    EvalPoint,
    convergence_report,
    estimate_coefficient,
    limit_coefficient,
    make_target,
)
from amcmc_lab.coeffs import COEFF_KINDS, simulate_moments
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


def test_estimate_is_deterministic():
    a = estimate_coefficient("B1", POINT, 10_000, 50_000, seed=3)
    b = estimate_coefficient("B1", POINT, 10_000, 50_000, seed=3)
    assert a == b
    assert a.n_draws == 50_000
    assert a.std_error > 0.0


def test_estimate_matches_shared_simulation():
    shared = simulate_moments(POINT, 10_000, 20_000, seed=7)
    for kind in COEFF_KINDS:
        solo = estimate_coefficient(kind, POINT, 10_000, 20_000, seed=7)
        assert solo == shared[kind]


def test_estimate_requires_feasible_resolution():
    with pytest.raises(ValueError):
        estimate_coefficient("B1", EvalPoint(x=1.0, theta=1.0, p=2.5, target=NORMAL),
                             n=4, n_draws=2_000)
    with pytest.raises(ValueError):
        estimate_coefficient("B1", POINT, n=100, n_draws=10)


def test_drift_estimates_near_limits():
    # high resolution so the O(1/sqrt(n)) finite-n bias sits well below noise
    for kind in ("B1", "B2", "A11"):
        est = estimate_coefficient(kind, POINT, 1_000_000, 100_000, seed=11)
        limit = limit_coefficient(kind, POINT)
        assert abs(est.estimate - limit) <= 4.0 * est.std_error


def test_a11_estimate_at_the_mode():
    point = EvalPoint(x=0.0, theta=2.0, p=0.5, target=NORMAL)
    est = estimate_coefficient("A11", point, 1_000_000, 100_000, seed=13)
    assert abs(est.estimate - 4.0) <= 3.0 * est.std_error


def test_b1_sign_follows_score():
    for kind_name in ("normal", "cauchy", "t2"):
        target = make_target(kind_name)
        for x in (-1.0, 2.0):
            point = EvalPoint(x=x, theta=1.0, p=0.5, target=target)
            est = estimate_coefficient("B1", point, 10_000, 400_000, seed=19)
            assert math.copysign(1.0, est.estimate) == math.copysign(1.0, target.score(x))


def test_scale_noise_vanishes_with_resolution():
    estimates = [
        estimate_coefficient("A22", POINT, n, 100_000, seed=23).estimate
        for n in (100, 10_000, 1_000_000)
    ]
    assert estimates[0] > estimates[1] > estimates[2] >= 0.0


def test_b1_centered_at_symmetric_point():
    point = EvalPoint(x=0.0, theta=1.0, p=0.5, target=NORMAL)
    for n in (100, 10_000):
        est = estimate_coefficient("B1", point, n, 100_000, seed=29)
        assert abs(est.estimate) <= 3.0 * est.std_error


def test_convergence_report_shape_and_tail_z():
    rows = convergence_report("B1", POINT, (100, 10_000, 1_000_000), 100_000, seed=31)
    assert [row.n for row in rows] == [100, 10_000, 1_000_000]
    for row in rows:
        assert row.limit == pytest.approx(-0.5)
        if row.std_error > 0:
            assert row.z == pytest.approx((row.estimate - row.limit) / row.std_error)
    assert abs(rows[-1].z) < 3.0


def test_convergence_report_requires_ascending_grid():
    with pytest.raises(ValueError):
        convergence_report("B1", POINT, (10_000, 100), 10_000)


def test_exponential_target_point():
    point = EvalPoint(x=1.0, theta=0.5, p=0.5, target=make_target("exp"))
    assert limit_coefficient("B1", point) == pytest.approx(-0.125)
    est = estimate_coefficient("B1", point, 10_000, 200_000, seed=37)
    assert abs(est.estimate - (-0.125)) <= 4.0 * est.std_error
