import contextlib
import inspect
import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcmc_lab.chains
import amcmc_lab.coeffs
import amcmc_lab.sde
from amcmc_lab import (AdaptiveConfig, ChainTrajectory, EulerConfig, EvalPoint,
                       limit_coefficient, make_target)
from amcmc_lab.chains import chain_streams, metropolis_step
from amcmc_lab.coeffs import (
    _BATCH,
    _MIN_DRAWS,
    _SLICE,
    CAUCHY_B2_DRAW_FACTOR,
    COEFF_KINDS,
    CoeffRow,
    _kind_sums,
    embedded_benchmark,
    simulate_moments,
)
from amcmc_lab.experiments import CoeffCell
from amcmc_lab.sde import SQRT_2PI
from amcmc_lab.seeding import stream_rng

NORMAL = make_target("normal")
POINT = EvalPoint(x=1.0, theta=1.0, p=0.5, target=NORMAL)
CAUCHY = EvalPoint(x=2.0, theta=1.0, p=0.5, target=make_target("cauchy"))


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


def test_public_surface_is_pinned():
    # a name joins or leaves the package on purpose; the one-step Euler
    # oracle (SdeState, euler_step) lives in tests/test_sde.py, and the
    # scalar Metropolis oracle (ChainState, amcmc_step), with both of the
    # chain's formulations, in tests/test_chains.py, not here.  One chain
    # or ensemble is a batch of one: run_chains and run_ensembles are the
    # only runners, and exp paths are always reflected
    assert set(amcmc_lab.__all__) == {
        "AdaptiveConfig", "ChainTrajectory", "CoeffRow", "COEFF_KINDS",
        "DiscreteRow", "EnsembleResult", "EulerConfig", "EvalPoint", "ExperimentSpec",
        "RunSummary", "SdeRow", "TARGET_KINDS", "TargetModel",
        "chain_summary", "drift", "emit_csv", "esjd", "ks_pvalue", "ks_statistic",
        "limit_coefficient", "load_csv", "make_target", "print_summary", "run_chains",
        "run_ensembles", "run_experiment", "__version__",
    }
    for name in ("euler_step", "SdeState", "run_ensemble", "BOUNDARY_MODES"):
        assert not hasattr(amcmc_lab.sde, name)
    for name in ("amcmc_step", "ChainState", "FORMULATIONS", "run_amcmc", "run_smcmc"):
        assert not hasattr(amcmc_lab.chains, name)
    assert [field.name for field in fields(AdaptiveConfig)] == [
        "p", "theta0", "n_samples", "x0", "burn_in", "seed"]
    assert not hasattr(ChainTrajectory, "state")
    assert [field.name for field in fields(EulerConfig)] == [
        "h", "horizon_t", "p", "theta0", "x0", "n_paths", "seed"]
    # the kind alone says how a target is treated at its support's edge
    assert [field.name for field in fields(amcmc_lab.TargetModel)] == ["kind", "support"]
    assert [field.name for field in fields(amcmc_lab.RunSummary)] == ["d", "p_value", "esjd"]
    assert not hasattr(amcmc_lab.ExperimentSpec, "effective_x0")
    assert list(inspect.signature(amcmc_lab.emit_csv).parameters) == ["rows", "destination"]
    # each kind's number of draws follows from n_draws and the target alone
    assert list(inspect.signature(simulate_moments).parameters) == [
        "point", "n", "n_draws", "seed", "kinds"]
    assert [field.name for field in fields(CoeffCell)] == [
        "point", "n", "n_draws", "seed", "kinds"]


def stepped_batches(point, n, longest, seed):
    """Each batch's normals and accept flags under coefficient contract v3:
    the batch's normals drawn whole from stream_rng(seed, batch, 0) and its
    uniforms from stream_rng(seed, batch, 1), up to the end of the longest
    reader, then one metropolis_step of each from the point.  Run it under
    the errstate of simulate_moments."""
    x, target = point.x, point.target
    lp_x = target.log_density(x)
    for batch, start in enumerate(range(0, longest, _BATCH)):
        m = min(_BATCH, longest - start)
        eps = stream_rng(seed, batch, 0).standard_normal(m)
        u = stream_rng(seed, batch, 1).random(m)
        xi = np.empty(m, bool)
        metropolis_step(x, lp_x, point.theta / math.sqrt(n), eps, np.log(u), target,
                        (*np.empty((3, m)), xi))
        yield eps, xi


def slice_sums(values):
    """The ndarray.sum of each _SLICE-long slice of values, added in order."""
    total = 0.0
    for lo in range(0, len(values), _SLICE):
        total += values[lo:lo + _SLICE].sum()
    return total


def draw_counts(point, n_draws, kinds):
    """Each kind's number of draws: n_draws, and CAUCHY_B2_DRAW_FACTOR
    times as many for B2 on the cauchy target."""
    factor = CAUCHY_B2_DRAW_FACTOR if point.target.kind == "cauchy" else 1
    return {kind: n_draws * factor if kind == "B2" else n_draws for kind in kinds}


def plain_moments(point, n, n_draws, seed, kinds=COEFF_KINDS):
    """The rows of simulate_moments by its plain estimator: each kind's
    statistics K, S1, S2 and S4 over its prefix of each whole batch, the
    accept count and the slice sums of e = eps xi, e^2 and e^4, added up
    batch by batch, then its sums by _kind_sums.  Each kind takes its
    draw_counts."""
    p_n = embedded_benchmark(point.p, n)
    theta, sqrt_n = point.theta, math.sqrt(n)
    d0, d1 = (theta * np.expm1((np.array([0.0, 1.0]) - p_n) / sqrt_n)).tolist()
    draws = draw_counts(point, n_draws, kinds)
    stats = {kind: [0.0, 0.0, 0.0, 0.0] for kind in kinds}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for batch, (eps, xi) in enumerate(stepped_batches(point, n, max(draws.values()),
                                                          seed)):
            for kind, count in draws.items():
                end = count - batch * _BATCH
                if end <= 0:
                    continue
                e = eps[:end] * xi[:end]
                e2 = e * e
                batch_stats = (np.count_nonzero(xi[:end]), slice_sums(e), slice_sums(e2),
                               slice_sums(e2 * e2))
                stats[kind] = [total + float(value)
                               for total, value in zip(stats[kind], batch_stats)]
        sums = {kind: (count, *_kind_sums(kind, n, theta / sqrt_n, d0, d1, count, stats[kind]))
                for kind, count in draws.items()}
    return rows_of(point, n, sums)


def per_kind_moments(point, n, n_draws, seed, kinds=COEFF_KINDS):
    """The rows of simulate_moments under coefficient scoring v1: whole-batch
    arrays of each kind's values over its prefix of the batch, each summed
    and squared and summed, batch by batch, over the transitions of
    contract v3."""
    p_n = embedded_benchmark(point.p, n)
    theta, sqrt_n = point.theta, math.sqrt(n)
    draws = draw_counts(point, n_draws, kinds)
    sums = {kind: [0, 0.0, 0.0] for kind in kinds}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for batch, (eps, xi) in enumerate(stepped_batches(point, n, max(draws.values()),
                                                          seed)):
            dx = (theta / sqrt_n) * np.where(xi, eps, 0.0)
            dtheta = theta * np.expm1((xi.astype(float) - p_n) / sqrt_n)
            for kind, count in draws.items():
                end = count - batch * _BATCH
                if end <= 0:
                    continue
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
                values = values[:end]
                sums[kind][0] += values.size
                sums[kind][1] += float(values.sum())
                sums[kind][2] += float(np.square(values).sum())
    return rows_of(point, n, sums)


def rows_of(point, n, sums):
    """CoeffRows, as simulate_moments forms them, from each kind's (count,
    sum, sum of squares)."""
    rows = {}
    for kind, (count, total, total_sq) in sums.items():
        estimate = total / count
        var = (total_sq - total * total / count) / (count - 1)
        std_error = math.sqrt(max(var, 0.0) / count)
        limit = limit_coefficient(kind, point)
        if std_error > 0.0:
            z = (estimate - limit) / std_error
        else:
            z = 0.0 if estimate == limit else math.inf
        rows[kind] = CoeffRow(kind, point.target.kind, point.x, point.theta, point.p, n,
                              estimate, std_error, limit, z)
    return rows


def bits(rows):
    # floats as hex, so a signed zero has to meet the same signed zero
    return {kind: tuple(v.hex() if isinstance(v, float) else v for v in astuple(row))
            for kind, row in rows.items()}


ORACLE_CELLS = {
    "normal": (POINT, 10_000),
    "cauchy": (EvalPoint(x=2.0, theta=1.5, p=0.5, target=make_target("cauchy")), 1_000_000),
    "t2": (EvalPoint(x=-1.0, theta=2.38, p=0.25, target=make_target("t2")), 100),
    "exp": (EvalPoint(x=1.0, theta=0.5, p=0.5, target=make_target("exp")), 10_000),
    # near the boundary: about 40% of the proposals leave the support
    "exp-boundary": (EvalPoint(x=0.05, theta=2.0, p=0.5, target=make_target("exp")), 100),
}
# Two full batches and a partial one, which is a single slice.
ORACLE_DRAWS = 2 * _BATCH + 12_345
# Two full batches and a partial one of four slices, the last one short.
UNEVEN_DRAWS = 2 * _BATCH + 3 * _SLICE + 12_345


@pytest.mark.parametrize("point, n, n_draws", [
    pytest.param(point, n, n_draws, id=name + suffix)
    for suffix, n_draws in [("", ORACLE_DRAWS), ("-uneven", UNEVEN_DRAWS)]
    for name, (point, n) in ORACLE_CELLS.items()
])
def test_rows_match_the_plain_estimator_bit_for_bit(point, n, n_draws):
    expected = bits(plain_moments(point, n, n_draws, 41))
    assert bits(simulate_moments(point, n, n_draws, 41)) == expected
    for kinds in [(kind,) for kind in COEFF_KINDS] + [("B1", "A11", "A22", "A12")]:
        got = bits(simulate_moments(point, n, n_draws, 41, kinds))
        assert got == {kind: expected[kind] for kind in kinds}


@pytest.mark.parametrize("point, n, n_draws", [
    pytest.param(point, n, n_draws, id=name + suffix)
    for suffix, n_draws in [("", ORACLE_DRAWS), ("-uneven", UNEVEN_DRAWS)]
    for name, (point, n) in ORACLE_CELLS.items()
])
def test_scoring_v2_moves_only_rounding(point, n, n_draws):
    # coefficient scoring v2 takes each kind's sums from the statistics K,
    # S1, S2 and S4; v1 summed whole-batch arrays of each kind's values.
    # The same transitions give the same rows up to rounding (measured
    # here over contract v3's transitions and slice sums: 5.8e-14 relative
    # on estimates, 4.1e-16 on standard errors)
    got = simulate_moments(point, n, n_draws, 41)
    for kind, expected in per_kind_moments(point, n, n_draws, 41).items():
        assert math.isclose(got[kind].estimate, expected.estimate, rel_tol=1e-12)
        assert math.isclose(got[kind].std_error, expected.std_error, rel_tol=1e-12)


class FailingDensity:
    """The normal target, but its log density raises on call number fail_at
    (counted over both threads); the thread count then is kept."""

    kind = "normal"

    def __init__(self, fail_at):
        self.calls, self.fail_at = itertools.count(1), fail_at
        self.error, self.threads_at_failure = RuntimeError("log density failed"), None

    def in_support(self, x):
        return NORMAL.in_support(x)

    def log_density(self, x, out=None):
        if next(self.calls) == self.fail_at:
            self.threads_at_failure = threading.active_count()
            raise self.error
        return NORMAL.log_density(x, out)


def test_simulate_moments_joins_its_helper_on_return_and_on_raise():
    # one helper thread runs batches during the call, and none is left after
    # it, also when the log density raises midway through the second batch
    before = threading.active_count()
    simulate_moments(POINT, 10_000, 3 * _BATCH, 5, ("B1", "A12"))
    assert threading.active_count() == before

    target = FailingDensity(fail_at=1 + (3 * _BATCH // amcmc_lab.coeffs._SLICE) // 2)
    point = EvalPoint(x=1.0, theta=1.0, p=0.5, target=target)
    with pytest.raises(RuntimeError) as raised:
        simulate_moments(point, 10_000, 3 * _BATCH, 5, ("B1", "A12"))
    assert raised.value is target.error
    assert target.threads_at_failure == before + 1
    assert threading.active_count() == before


@pytest.mark.parametrize("slow_side", ["helper", "caller"])
def test_simulate_moments_split_the_batches_between_the_threads(monkeypatch, slow_side):
    # the helper takes batches until none is left, the calling thread takes
    # the ones the helper has not, each batch is run once, and no bit
    # depends on which thread ran a batch
    caller = threading.get_ident()
    taken = []  # (batch, whether the calling thread ran it), as taken

    def slow_stream(seed, batch):
        on_caller = threading.get_ident() == caller
        taken.append((batch, on_caller))
        if on_caller == (slow_side == "caller"):
            time.sleep(0.5)
        return chain_streams(seed, batch)

    n_draws = 4 * _BATCH + 1_000
    expected = bits(simulate_moments(POINT, 10_000, n_draws, 43, ("B2", "A11")))
    monkeypatch.setattr(amcmc_lab.coeffs, "chain_streams", slow_stream)
    assert bits(simulate_moments(POINT, 10_000, n_draws, 43, ("B2", "A11"))) == expected
    assert sorted(batch for batch, _ in taken) == list(range(5))
    on_caller = sum(flag for _, flag in taken)
    if slow_side == "helper":
        # a helper asleep in the first batch it takes leaves the rest
        assert on_caller >= 4
    else:
        # a calling thread asleep in a batch leaves the helper the rest
        assert on_caller <= 1


def test_each_batch_goes_to_one_thread_under_fast_switching(monkeypatch):
    # 2000 tiny batches and a thread switch every microsecond: the two
    # threads share one iterator, and each batch is still taken once (a
    # Python-level counter read and then bumped failed here in 1 of 3 runs)
    monkeypatch.setattr(amcmc_lab.coeffs, "_BATCH", 1 << 4)
    taken = []

    def recording_stream(seed, batch):
        taken.append(batch)
        return chain_streams(seed, batch)

    expected = bits(simulate_moments(POINT, 10_000, 2000 << 4, 59, ("B1", "A22")))
    monkeypatch.setattr(amcmc_lab.coeffs, "chain_streams", recording_stream)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bits(simulate_moments(POINT, 10_000, 2000 << 4, 59, ("B1", "A22")))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert sorted(taken) == list(range(2000))


def test_an_overflow_in_either_thread_ends_in_one_clean_error():
    # each batch's proposals overflow the log density in both threads, so
    # every one is rejected, and the row's limit theta^2/2 psi'/psi
    # overflows; the helper thread inherits the caller's errstate
    # (seeding.Helper), and no warning reaches a filter
    point = EvalPoint(x=0.5, theta=1e200, p=0.5, target=NORMAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kind B1: estimate"):
            simulate_moments(point, 100, 2 * _BATCH, 53, ("B1",))


def test_a_row_whose_factor_overflows_is_refused_even_with_no_accept():
    # at theta = 1e160 every proposal overflows the log density and is
    # rejected, and A12's factor n scale d1 overflows: inf times its zero
    # sums is nan, so the row is refused.  Coefficient scoring v1 wrote
    # estimate 0, std_error 0 and z 0 here, a perfect score made of overflow
    point = EvalPoint(x=0.5, theta=1e160, p=0.5, target=NORMAL)
    with pytest.raises(ValueError, match="kind A12: estimate nan"):
        simulate_moments(point, 100, 2_000, 3, ("A12",))


def traced_peak(n_draws):
    tracemalloc.start()
    try:
        simulate_moments(POINT, 10_000, n_draws, 47, ("B1", "A11", "A22", "A12"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_moments_memory_is_two_buffer_sets():
    # each thread holds one set of slice-sized buffers, whatever the batch
    # size or the number of draws: 2^14 normals, uniforms, a two-row
    # proposal and accept flags, 528 KiB, so two sets are 1.03 MiB, and the
    # call peaked at 1.05 MiB here (1.19 MiB while eps xi took a bool
    # factor, which numpy casts through a 64 KiB buffer in each thread).
    # With a (5, 2^14) row of per-kind values in each set (coefficient
    # scoring v1) it peaked at 2.3 MiB, a
    # thread that held one batch's normals, 8 bytes a draw, at 10.1 MiB,
    # and the whole-array estimator at 37 MiB
    simulate_moments(POINT, 10_000, 2_000, 47, ("B1",))  # imports the helper's pool
    peak = traced_peak(2_000_000)
    assert peak <= 3 << 19
    # 4 times the draws, 12 more batches, peak no higher: each batch's sums
    # are folded in once every earlier batch's are (kept to the end of the
    # call, they read +3 KiB here, and +84 KiB while a unit's piece sums
    # lived on in a reference cycle until the garbage collector ran)
    assert traced_peak(8_000_000) <= peak + (8 << 10)


def test_simulate_moments_memory_is_flat_in_the_number_of_units(monkeypatch):
    # at 2^8 draws a batch, 125 000 and 500 000 draws are 489 and 1954
    # batches; a batch's sums wait only for the batches before it, so 4
    # times the batches peak no higher (kept to the end of the call, they read
    # +600 KiB here, and would hold about 0.5 GB for 10^12 draws)
    monkeypatch.setattr(amcmc_lab.coeffs, "_BATCH", 1 << 8)
    simulate_moments(POINT, 10_000, 2_000, 47, ("B1",))  # imports the helper's pool
    peak = traced_peak(125_000)
    assert traced_peak(500_000) <= peak + (64 << 10)


# Batches of four slices of 2^6 transitions, so that a few thousand draws
# cross many slice and batch ends.
SMALL_SLICE, SMALL_BATCH = 1 << 6, 1 << 8


@contextlib.contextmanager
def small_batches():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amcmc_lab.coeffs, "_SLICE", SMALL_SLICE)
        patch.setattr(amcmc_lab.coeffs, "_BATCH", SMALL_BATCH)
        yield patch


# A count one short of, at or one past the end of a slice, and so of a batch
# when the slice is a batch's last.
EDGE_COUNTS = st.builds(lambda slices, offset: slices * SMALL_SLICE + offset,
                        st.integers(-(-_MIN_DRAWS // SMALL_SLICE) + 1, 80),
                        st.sampled_from((-1, 0, 1)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_draws=EDGE_COUNTS)
def test_one_call_with_per_kind_counts_matches_the_alone_calls_at_the_edges(n_draws):
    # on cauchy the four kinds end at n_draws and B2 at four times as many,
    # each kind reading a prefix of the call's transitions, so its row is
    # its row alone, bit for bit, wherever n_draws ends a slice or a batch
    with small_batches():
        got = simulate_moments(CAUCHY, 10_000, n_draws, 89)
        for kind in COEFF_KINDS:
            alone = simulate_moments(CAUCHY, 10_000, n_draws, 89, (kind,))
            assert bits({kind: got[kind]}) == bits(alone)


def test_chunked_fills_of_both_streams_equal_a_whole_fill():
    # what contract v3 rests on: a batch's normals and uniforms filled a
    # slice at a time, each into the start of one buffer, are the bits of
    # one whole fill, so a kind with c draws reads the first c transitions
    m = _BATCH + 12_345
    buffer = np.empty(_SLICE)
    for stream, fill in ((0, "standard_normal"), (1, "random")):
        whole = getattr(stream_rng(103, 1, stream), fill)(m)
        rng = stream_rng(103, 1, stream)
        chunks = [getattr(rng, fill)(out=buffer[:min(_SLICE, m - lo)]).tobytes()
                  for lo in range(0, m, _SLICE)]
        assert b"".join(chunks) == whole.tobytes()


def stepped_widths(patch):
    """The widths of the metropolis_step calls that simulate_moments makes
    while patch holds."""
    widths = []

    def counted(x, lp_x, scale, eps, *args):
        widths.append(len(eps))
        return metropolis_step(x, lp_x, scale, eps, *args)

    patch.setattr(amcmc_lab.coeffs, "metropolis_step", counted)
    return widths


def test_a_cauchy_cell_steps_each_transition_once(monkeypatch):
    # a cauchy cell of the coeff grid at --draws 1000000: B1, A11, A22 and
    # A12 read the first 10^6 of B2's 4 * 10^6 transitions, so the call
    # steps 4 * 10^6 (contract v2 stepped 4 475 712: batch 1 twice)
    widths = stepped_widths(monkeypatch)
    simulate_moments(CAUCHY, 10_000, 1_000_000, 97)
    assert sum(widths) == 4_000_000
    assert max(widths) == _SLICE


@settings(max_examples=40, deadline=None, derandomize=True)
@given(point=st.sampled_from((POINT, CAUCHY)), n_draws=st.integers(_MIN_DRAWS, 6_000),
       kinds=st.lists(st.sampled_from(COEFF_KINDS), min_size=1, unique=True))
def test_a_call_steps_exactly_its_longest_count(point, n_draws, kinds):
    with small_batches() as patch:
        widths = stepped_widths(patch)
        simulate_moments(point, 10_000, n_draws, 101, tuple(kinds))
    # n_draws, or four times as many when B2 on cauchy is asked for
    factor = CAUCHY_B2_DRAW_FACTOR if point is CAUCHY and "B2" in kinds else 1
    assert sum(widths) == factor * n_draws
    assert max(widths) <= SMALL_SLICE


def test_a_full_batch_is_32_even_pieces(monkeypatch):
    # a batch is stepped and summed one slice at a time in the thread's
    # slice-sized buffers: a full batch is 32 slices of _SLICE
    widths = stepped_widths(monkeypatch)
    simulate_moments(POINT, 10_000, _BATCH, 107, ("B1",))
    assert widths == [_SLICE] * 32


def awkward_values(rng, m):
    """Mixed signs, magnitudes from 1e-75 to 1e75 (so that fourth powers
    stay finite), and signed zeros."""
    values = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-75.0, 75.0, m)
    zeros = rng.random(m) < 0.05
    values[zeros] = np.copysign(0.0, values[zeros])
    return values


def float_bits(values):
    return [float(v).hex() for v in values]


class FedStreams:
    """A batch's two streams whose normals are values, in order, and whose
    uniforms are all 0.5."""

    def __init__(self, values):
        self.values, self.taken = values, 0

    def standard_normal(self, out):
        out[...] = self.values[self.taken:self.taken + len(out)]
        self.taken += len(out)
        return out

    def random(self, out):
        out.fill(0.5)
        return out


class Summed(Exception):
    """Raised by _kind_sums in place of scoring, with its count and stats."""


# Lengths at and around slice ends, and up to a full batch.
SPLIT_LENGTHS = ([1, 7, 8, 129, _SLICE, _SLICE + 1, 3 * _SLICE + 5, 330_016, 475_712, _BATCH]
                 + np.random.default_rng(67).integers(1, _BATCH + 1, 50).tolist())


@pytest.mark.parametrize("m", SPLIT_LENGTHS)
def test_piece_sums_fold_to_numpys_sum_bit_for_bit(monkeypatch, m):
    # simulate_moments sums a batch's e = eps xi, e^2 and e^4 one slice at
    # a time in its slice-sized buffers and adds the slice sums in order:
    # the statistics of m fed normals, all accepted, are the in-order total
    # of ndarray.sum() of each slice of the whole arrays, and of a one-slice
    # batch numpy's sum of the whole array
    e = awkward_values(np.random.default_rng(m), m)
    monkeypatch.setattr(amcmc_lab.coeffs, "_MIN_DRAWS", 1)
    monkeypatch.setattr(amcmc_lab.coeffs, "chain_streams",
                        lambda seed, batch: (FedStreams(e),) * 2)
    monkeypatch.setattr(amcmc_lab.coeffs, "metropolis_step",
                        lambda x, lp_x, scale, eps, log_u, target, out: out[3].fill(True))

    def summed(kind, n, scale, d0, d1, count, stats):
        raise Summed(count, stats)

    monkeypatch.setattr(amcmc_lab.coeffs, "_kind_sums", summed)
    with pytest.raises(Summed) as caught:
        simulate_moments(POINT, 10_000, m, 0, ("B1",))
    count, stats = caught.value.args
    e2 = e * e
    powers = e, e2, e2 * e2
    assert count == m
    assert float_bits(stats) == float_bits([m, *map(slice_sums, powers)])
    if m <= _SLICE:
        assert float_bits(stats[1:]) == float_bits(0.0 + power.sum() for power in powers)


def test_each_unit_goes_to_one_thread_under_fast_switching(monkeypatch):
    # at 2^4 draws a batch on cauchy, B1's 12 007 draws read batches 0-749
    # and the first 7 transitions of batch 750, and B2's 48 028 read
    # batches 0-3000 and a 12-draw batch 3001; each batch is a unit,
    # stepped once for both kinds, and under a thread switch every
    # microsecond each is still taken once (contract v2 took batch 750
    # twice, as a 7-draw unit and a full one)
    monkeypatch.setattr(amcmc_lab.coeffs, "_BATCH", 1 << 4)
    taken = []

    def recording_stream(seed, batch):
        taken.append(batch)
        return chain_streams(seed, batch)

    args = (CAUCHY, 10_000, (750 << 4) + 7, 83)
    expected = bits({**simulate_moments(*args, ("B1",)), **simulate_moments(*args, ("B2",))})
    monkeypatch.setattr(amcmc_lab.coeffs, "chain_streams", recording_stream)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bits(simulate_moments(*args, ("B1", "B2")))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert sorted(taken) == list(range(3002))


class Opened(Exception):
    """Raised in place of opening a stream."""


def refuse_streams(seed, batch):
    raise Opened


def test_the_units_are_made_as_they_are_taken(monkeypatch):
    # a 10^12-draw kind is 1.9e6 batches: the first batch is taken, and its
    # streams opened, before any other batch or buffer exists; units built
    # up front would peak above 100 MiB here
    monkeypatch.setattr(amcmc_lab.coeffs, "chain_streams", refuse_streams)
    tracemalloc.start()
    try:
        with pytest.raises(Opened):
            simulate_moments(POINT, 10_000, 10**12, 71, ("B1", "B2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("point, kinds, n_draws, message", [
    pytest.param(POINT, ("B1", "B3"), 2_000, "unknown coefficient kind 'B3'", id="unknown-kind"),
    # B2's 3996 draws on cauchy do not save B1's 999
    pytest.param(CAUCHY, ("B1", "B2"), 999, "n_draws must be at least 1000", id="n_draws"),
    pytest.param(CAUCHY, ("B2",), 200,
                 "B2 on cauchy takes 4 x n_draws = 800 draws, fewer than 1000", id="cauchy-B2"),
])
def test_a_bad_draw_count_is_refused_before_any_stream(monkeypatch, point, kinds, n_draws,
                                                       message):
    monkeypatch.setattr(amcmc_lab.coeffs, "chain_streams", refuse_streams)
    with pytest.raises(ValueError, match=message):
        simulate_moments(point, 10_000, n_draws, 73, kinds)
