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

import amcmc_lab.chains
import amcmc_lab.coeffs
import amcmc_lab.sde
from amcmc_lab import (AdaptiveConfig, ChainTrajectory, EvalPoint, limit_coefficient,
                       make_target)
from amcmc_lab.chains import metropolis_step
from amcmc_lab.coeffs import (
    _BATCH,
    _SLICE,
    COEFF_KINDS,
    CoeffRow,
    _fold,
    _pieces,
    embedded_benchmark,
    simulate_moments,
)
from amcmc_lab.sde import SQRT_2PI
from amcmc_lab.seeding import stream_rng

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


def test_public_surface_is_pinned():
    # a name joins or leaves the package on purpose; the one-step Euler
    # oracle (SdeState, euler_step) lives in tests/test_sde.py, and the
    # scalar Metropolis oracle (ChainState, amcmc_step), with both of the
    # chain's formulations, in tests/test_chains.py, not here
    assert set(amcmc_lab.__all__) == {
        "AdaptiveConfig", "ChainTrajectory", "CoeffRow", "COEFF_KINDS",
        "DiscreteRow", "EnsembleResult", "EulerConfig", "EvalPoint", "ExperimentSpec",
        "RunSummary", "SdeRow", "TARGET_KINDS", "TargetModel",
        "chain_summary", "drift", "emit_csv", "esjd", "ks_pvalue", "ks_statistic",
        "limit_coefficient", "load_csv", "make_target", "print_summary", "run_amcmc",
        "run_ensemble", "run_ensembles", "run_experiment", "run_smcmc", "__version__",
    }
    assert not hasattr(amcmc_lab.sde, "euler_step")
    assert not hasattr(amcmc_lab.sde, "SdeState")
    for name in ("amcmc_step", "ChainState", "FORMULATIONS"):
        assert not hasattr(amcmc_lab.chains, name)
    assert [field.name for field in fields(AdaptiveConfig)] == [
        "p", "theta0", "n_samples", "x0", "burn_in", "seed"]
    assert not hasattr(ChainTrajectory, "state")


def v2_draws(rng, m):
    """A batch's normals and uniforms under coefficient contract v2: each
    of its pieces, in order, draws its normals and then its uniforms."""
    draws = [(rng.standard_normal(hi - lo), rng.random(hi - lo)) for lo, hi in _pieces(m)]
    return tuple(map(np.concatenate, zip(*draws)))


def v1_draws(rng, m):
    """The same under contract v1: all of the batch's normals first."""
    return rng.standard_normal(m), rng.random(m)


def plain_moments(point, n, n_draws, seed, kinds=COEFF_KINDS, draw=v2_draws):
    """The rows of simulate_moments by its plain estimator: whole-batch
    arrays of each kind's values, summed batch by batch, the batch's
    normals and uniforms drawn whole in the order draw gives."""
    p_n = embedded_benchmark(point.p, n)
    x, theta, target = point.x, point.theta, point.target
    sqrt_n = math.sqrt(n)
    lp_x = target.log_density(x)
    sums = {kind: [0, 0.0, 0.0] for kind in kinds}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for batch, start in enumerate(range(0, n_draws, _BATCH)):
            m = min(_BATCH, n_draws - start)
            rng = stream_rng(seed, batch)
            eps, u = draw(rng, m)
            log_u = np.log(u)
            xi = np.empty(m, bool)
            metropolis_step(x, lp_x, theta / sqrt_n, eps, log_u, target,
                            (*np.empty((3, m)), xi))
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
                sums[kind][0] += values.size
                sums[kind][1] += float(values.sum())
                sums[kind][2] += float(np.square(values).sum())
    rows = {}
    for kind in kinds:
        count, total, total_sq = sums[kind]
        estimate = total / count
        var = (total_sq - total * total / count) / (count - 1)
        std_error = math.sqrt(max(var, 0.0) / count)
        limit = limit_coefficient(kind, point)
        if std_error > 0.0:
            z = (estimate - limit) / std_error
        else:
            z = 0.0 if estimate == limit else math.inf
        rows[kind] = CoeffRow(kind, target.kind, x, theta, point.p, n, estimate, std_error,
                              limit, z)
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
# Two full batches and a partial one, which is a single piece.
ORACLE_DRAWS = 2 * _BATCH + 12_345
# Two full batches and a partial one longer than _SLICE and not a multiple
# of 8, which splits into uneven pieces.
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


@pytest.mark.parametrize("n_draws, v1_agrees", [(2_000, True), (_SLICE + 8, False),
                                                (ORACLE_DRAWS, False)])
def test_only_a_batch_of_several_pieces_tells_the_draw_orders_apart(n_draws, v1_agrees):
    # v2 draws each piece's normals and then its uniforms; v1 drew all of a
    # batch's normals first.  A one-piece batch (the 2000 draws of every
    # coeff-* golden pin but coeff-cauchy-batches) reads the same stream in
    # both orders, and a batch of several pieces does not.
    point, n = ORACLE_CELLS["cauchy"]
    got = bits(simulate_moments(point, n, n_draws, 41))
    assert got == bits(plain_moments(point, n, n_draws, 41))
    assert (got == bits(plain_moments(point, n, n_draws, 41, draw=v1_draws))) == v1_agrees


def awkward_values(rng, m):
    """Mixed signs, magnitudes from 1e-300 to 1e300, and signed zeros."""
    values = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-300.0, 300.0, m)
    zeros = rng.random(m) < 0.05
    values[zeros] = np.copysign(0.0, values[zeros])
    return values


def float_bits(values):
    return [float(v).hex() for v in values]


SPLIT_LENGTHS = ([1, 7, 8, 129, _SLICE, _SLICE + 1, 3 * _SLICE + 5, 330_016, 475_712, _BATCH]
                 + np.random.default_rng(67).integers(1, _BATCH + 1, 50).tolist())


@pytest.mark.parametrize("m", SPLIT_LENGTHS)
def test_piece_sums_fold_to_numpys_sum_bit_for_bit(m):
    # simulate_moments sums a batch one (kinds, piece) view at a time and
    # folds the piece sums; that is ndarray.sum() of the whole batch only if
    # the pieces follow numpy's own pairwise split, and each row of the view
    # is summed as that row alone
    pieces = _pieces(m)
    assert [lo for lo, _ in pieces] == [0] + [hi for _, hi in pieces[:-1]]
    assert pieces[-1][1] == m and all(0 < hi - lo <= _SLICE for lo, hi in pieces)
    rng = np.random.default_rng(m)
    batch = np.stack([awkward_values(rng, m), awkward_values(rng, m), rng.standard_normal(m)])
    values = np.empty((3, _SLICE))
    piece_sums = []
    for lo, hi in pieces:
        rows = values[:, :hi - lo]
        rows[...] = batch[:, lo:hi]
        piece_sums.append(rows.sum(axis=1))
        assert float_bits(piece_sums[-1]) == float_bits(row.sum() for row in rows)
    assert float_bits(_fold(piece_sums, m)) == float_bits(row.sum() for row in batch)


def test_a_full_batch_is_32_even_pieces():
    assert _pieces(_BATCH) == [(lo, lo + _SLICE) for lo in range(0, _BATCH, _SLICE)]


class FailingDensity:
    """The normal target, but its log density raises on call number fail_at
    (counted over both threads); the thread count then is kept."""

    kind, boundary_policy = "normal", "none"

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
        return stream_rng(seed, batch)

    n_draws = 4 * _BATCH + 1_000
    expected = bits(simulate_moments(POINT, 10_000, n_draws, 43, ("B2", "A11")))
    monkeypatch.setattr(amcmc_lab.coeffs, "stream_rng", slow_stream)
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
        return stream_rng(seed, batch)

    expected = bits(simulate_moments(POINT, 10_000, 2000 << 4, 59, ("B1", "A22")))
    monkeypatch.setattr(amcmc_lab.coeffs, "stream_rng", recording_stream)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bits(simulate_moments(POINT, 10_000, 2000 << 4, 59, ("B1", "A22")))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert sorted(taken) == list(range(2000))


def test_an_overflow_in_either_thread_ends_in_one_clean_error():
    # each batch overflows (n dx)^2; the helper thread inherits the caller's
    # errstate (seeding.Helper), and no warning reaches a filter
    point = EvalPoint(x=0.5, theta=1e200, p=0.5, target=NORMAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kind B1: estimate"):
            simulate_moments(point, 100, 2 * _BATCH, 53, ("B1",))


def traced_peak(n_draws):
    tracemalloc.start()
    try:
        simulate_moments(POINT, 10_000, n_draws, 47, ("B1", "A11", "A22", "A12"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_moments_memory_is_two_buffer_sets():
    # each thread holds one set of piece-sized buffers, whatever the batch
    # size or the number of draws; a thread that held one batch's normals,
    # 8 bytes a draw, peaked at 10.1 MiB here, and the whole-array
    # estimator at 37 MiB
    simulate_moments(POINT, 10_000, 2_000, 47, ("B1",))  # imports the helper's pool
    peak = traced_peak(2_000_000)
    assert peak <= 3 << 20
    # 4 times the draws, 12 more units, peak no higher: each unit's sums are
    # folded in once every earlier unit's are (kept to the end of the call,
    # they read +3 KiB here, and +84 KiB while a unit's piece sums lived on
    # in a reference cycle until the garbage collector ran)
    assert traced_peak(8_000_000) <= peak + (8 << 10)


def test_simulate_moments_memory_is_flat_in_the_number_of_units(monkeypatch):
    # at 2^8 draws a batch, 125 000 and 500 000 draws are 489 and 1954
    # units; a unit's sums wait only for the units before it, so 4 times
    # the units peak no higher (kept to the end of the call, they read
    # +600 KiB here, and would hold about 0.5 GB for 10^12 draws)
    monkeypatch.setattr(amcmc_lab.coeffs, "_BATCH", 1 << 8)
    simulate_moments(POINT, 10_000, 2_000, 47, ("B1",))  # imports the helper's pool
    peak = traced_peak(125_000)
    assert traced_peak(500_000) <= peak + (64 << 10)


def per_budget_calls(point, n, n_draws, seed, kinds, draws_of):
    """The rows of one simulate_moments call per draw count, each over the
    kinds that take that many draws."""
    budgets = {}
    for kind in kinds:
        budgets.setdefault(draws_of.get(kind, n_draws), []).append(kind)
    rows = {}
    for count, group in sorted(budgets.items()):
        rows.update(simulate_moments(point, n, count, seed, tuple(group)))
    return rows


CAUCHY = EvalPoint(x=2.0, theta=1.0, p=0.5, target=make_target("cauchy"))


@pytest.mark.parametrize("point, n", [(POINT, 10_000), (CAUCHY, 1_000_000)],
                         ids=["normal", "cauchy"])
@pytest.mark.parametrize("n_draws, draws_of", [
    # B2 longer: batch 0 is a full batch all five kinds share; at batch 1
    # B2 reads a full batch and the others a partial one of 3 pieces and 5
    # draws, and B2 ends in a 7-draw batch 3 of its own
    pytest.param(_BATCH + 3 * _SLICE + 5, {"B2": 3 * _BATCH + 7}, id="longer"),
    # A11 and A12 shorter: A11 shares full batch 0 and ends in a partial
    # batch 1, and A12's one batch is a partial batch 0
    pytest.param(2 * _BATCH + 100, {"A11": _BATCH + 75_712, "A12": 2_000}, id="shorter"),
])
def test_one_call_with_per_kind_counts_matches_the_per_budget_calls(point, n, n_draws,
                                                                    draws_of):
    expected = bits(per_budget_calls(point, n, n_draws, 67, COEFF_KINDS, draws_of))
    got = simulate_moments(point, n, n_draws, 67, draws_of=draws_of)
    assert list(got) == list(COEFF_KINDS)
    assert bits(got) == expected


def test_each_unit_goes_to_one_thread_under_fast_switching(monkeypatch):
    # two counts at 2^4 draws a batch: batches 0-1999 are full units both
    # kinds read, batch 2000 holds a 7-draw unit of B1 and a full one of
    # B2, and B2 goes on alone to a 5-draw batch 3000; under a thread
    # switch every microsecond each unit is still taken once
    monkeypatch.setattr(amcmc_lab.coeffs, "_BATCH", 1 << 4)
    taken = []

    def recording_stream(seed, batch):
        taken.append(batch)
        return stream_rng(seed, batch)

    args = (POINT, 10_000, (2000 << 4) + 7, 83, ("B1", "B2"))
    draws_of = {"B2": (3000 << 4) + 5}
    expected = bits(per_budget_calls(*args, draws_of))
    monkeypatch.setattr(amcmc_lab.coeffs, "stream_rng", recording_stream)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bits(simulate_moments(*args, draws_of=draws_of))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert sorted(taken) == [*range(2001), *range(2000, 3001)]


class Opened(Exception):
    """Raised in place of opening a stream."""


def refuse_streams(seed, batch):
    raise Opened


def test_the_units_are_made_as_they_are_taken(monkeypatch):
    # a 10^12-draw kind is 1.9e6 batches: the first unit is taken, and its
    # stream opened, before any other unit or buffer exists; units built up
    # front would peak above 100 MiB here
    monkeypatch.setattr(amcmc_lab.coeffs, "stream_rng", refuse_streams)
    tracemalloc.start()
    try:
        with pytest.raises(Opened):
            simulate_moments(POINT, 10_000, 2_000, 71, ("B1", "B2"), draws_of={"B2": 10**12})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kinds, draws_of, message", [
    (("B1",), {"B3": 2_000}, "unknown coefficient kind 'B3'"),
    (("B1", "B2"), {"B2": 999}, r"draws_of\['B2'\] must be at least 1000"),
    # a count is refused even for a kind the call does not estimate
    (("B1",), {"A22": 10}, r"draws_of\['A22'\] must be at least 1000"),
    (("B1", "B2"), {"B2": 4_000}, "n_draws must be at least 1000"),
])
def test_a_bad_draw_count_is_refused_before_any_stream(monkeypatch, kinds, draws_of,
                                                       message):
    monkeypatch.setattr(amcmc_lab.coeffs, "stream_rng", refuse_streams)
    n_draws = 999 if message.startswith("n_draws") else 2_000
    with pytest.raises(ValueError, match=message):
        simulate_moments(POINT, 10_000, n_draws, 73, kinds, draws_of=draws_of)


def test_a_kind_with_its_own_count_needs_no_valid_n_draws():
    # B2 alone at 4000 draws does not read n_draws, as a cauchy grid of
    # --kind B2 --draws 999 asks
    rows = simulate_moments(POINT, 10_000, 999, 79, ("B2",), draws_of={"B2": 4_000})
    assert bits(rows) == bits(simulate_moments(POINT, 10_000, 4_000, 79, ("B2",)))
