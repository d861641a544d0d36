import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcmc_lab import chain_summary, esjd, ks_pvalue, ks_statistic, make_target
from amcmc_lab.seeding import stream_rng
from amcmc_lab.stats import format_pvalue


def ks_brute_force(sample, cdf):
    """Independent oracle: sup ECDF deviation via a double loop over jump points."""
    m = len(sample)
    worst = 0.0
    for t in sample:
        f = cdf(t)
        at_or_below = sum(1 for s in sample if s <= t) / m
        strictly_below = sum(1 for s in sample if s < t) / m
        worst = max(worst, abs(at_or_below - f), abs(strictly_below - f))
    return worst


def test_ks_single_sample_at_median():
    target = make_target("normal")
    assert ks_statistic([0.0], target) == pytest.approx(0.5, abs=1e-15)


def test_ks_three_point_sample_against_oracle():
    target = make_target("normal")
    sample = [-1.0, 0.0, 1.0]
    oracle = ks_brute_force(sample, target.cdf)
    d = ks_statistic(sample, target)
    assert d == pytest.approx(oracle, abs=1e-14)
    assert d == pytest.approx(0.174678, abs=1e-6)


def test_ks_equioscillating_quantile_sample():
    # points placed at the (i - 1/2)/m quantiles achieve the minimal D = 1/(2m)
    target = make_target("cauchy")
    m = 25
    q = (np.arange(1, m + 1) - 0.5) / m
    sample = np.tan(math.pi * (q - 0.5))
    assert ks_statistic(sample, target) == pytest.approx(0.5 / m, abs=1e-12)


def test_ks_statistic_empty_sample_errors():
    with pytest.raises(ValueError):
        ks_statistic([], make_target("normal"))


def test_ks_statistic_permutation_invariant():
    target = make_target("t2")
    rng = stream_rng(11)
    sample = rng.standard_normal(40)
    shuffled = sample.copy()
    rng.shuffle(shuffled)
    assert ks_statistic(sample, target) == ks_statistic(shuffled, target)


def test_ks_statistic_small_on_target_quantile_sample():
    target = make_target("normal")
    from scipy.special import ndtri
    sample = ndtri(stream_rng(5).random(1000))
    assert ks_statistic(sample, target) < 0.065


def test_ks_pvalue_endpoints():
    assert ks_pvalue(0.0, 100) == 1.0
    assert ks_pvalue(1.0, 100) < 1e-80


def test_ks_pvalue_against_reference_cell():
    # D = 0.0153 on 9000 retained samples; the reference prints 0.02883 and
    # the plain asymptotic series gives ~0.0295
    p = ks_pvalue(0.0153, 9000)
    assert p == pytest.approx(0.0295, abs=5e-4)
    assert p == pytest.approx(0.02883, abs=5e-3)


def test_ks_pvalue_tiny_for_poorly_mixed_cell():
    assert ks_pvalue(0.1369, 9000) < 1e-100


def test_ks_pvalue_strictly_decreasing_in_d():
    m = 9000
    grid = np.arange(0.01, 0.201, 0.01)
    values = [ks_pvalue(float(d), m) for d in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ks_pvalue_validates_inputs():
    with pytest.raises(ValueError):
        ks_pvalue(1.5, 100)
    with pytest.raises(ValueError):
        ks_pvalue(0.1, 0)


def test_esjd_examples():
    assert esjd([0.0, 1.0, 3.0]) == pytest.approx(2.5, abs=1e-15)
    assert esjd(np.zeros(10)) == 0.0
    assert esjd([0.0, 1.0] * 8) == pytest.approx(1.0, abs=1e-15)


def test_esjd_burn_in_and_errors():
    chain = [0.0, 1.0, 3.0, 4.0]
    assert esjd(chain, 1) == pytest.approx((4.0 + 1.0) / 2)
    with pytest.raises(ValueError):
        esjd(chain, 3)
    with pytest.raises(ValueError):
        esjd([1.0], 0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    values=st.lists(st.floats(-50, 50), min_size=2, max_size=30),
    shift=st.floats(-1e3, 1e3),
)
def test_esjd_shift_invariant(values, shift):
    chain = np.asarray(values)
    assert esjd(chain + shift) == pytest.approx(esjd(chain), rel=1e-9, abs=1e-9)


def test_chain_summary_fields():
    target = make_target("normal")
    chain = np.concatenate([np.full(5, 3.0), stream_rng(2).standard_normal(200)])
    summary = chain_summary(chain, target, burn_in=5)
    assert summary.d == ks_statistic(chain[5:], target)
    assert summary.p_value == ks_pvalue(summary.d, 200)
    assert summary.esjd == esjd(chain, 5)
    assert 0.0 <= summary.d <= 1.0
    assert 0.0 <= summary.p_value <= 1.0


def test_format_pvalue_floor():
    assert format_pvalue(1e-20) == "<2.2e-16"
    assert format_pvalue(0.0295) == "0.0295"
