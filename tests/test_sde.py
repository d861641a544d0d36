import functools
import math
import sys
import threading
import time
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amcmc_lab.sde
from amcmc_lab import (
    TARGET_KINDS,
    EulerConfig,
    ExperimentSpec,
    TargetModel,
    drift,
    ks_pvalue,
    ks_statistic,
    make_target,
    run_ensembles,
)
from amcmc_lab import experiments
from amcmc_lab.sde import EULER_CHUNK, SQRT_2PI, THETA_FLOOR
from amcmc_lab.seeding import stream_rng

NORMAL = make_target("normal")
CAUCHY = make_target("cauchy")
EXP = make_target("exp")


def test_drift_at_the_mode():
    b_x, b_theta = drift(NORMAL, SdeState(0.0, 1.0), p=0.5)
    assert b_x == 0.0
    assert b_theta == pytest.approx(0.5, abs=1e-15)


def test_drift_normal_spot_value():
    b_x, b_theta = drift(NORMAL, SdeState(1.0, 2.0), p=0.5)
    assert b_x == pytest.approx(-2.0, abs=1e-12)
    assert b_theta == pytest.approx(2.0 * (0.5 - 2.0 / SQRT_2PI), abs=1e-12)
    assert b_theta == pytest.approx(-0.595769, abs=1e-6)


def test_drift_cauchy_spot_value():
    b_x, b_theta = drift(CAUCHY, SdeState(1.0, 1.0), p=0.3)
    assert b_x == pytest.approx(-0.5, abs=1e-12)
    assert b_theta == pytest.approx(0.3 - 1.0 / SQRT_2PI, abs=1e-12)
    assert b_theta == pytest.approx(-0.098942, abs=1e-6)


def test_drift_outside_support_errors():
    with pytest.raises(ValueError):
        drift(EXP, SdeState(-1.0, 1.0), p=0.5)


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_drift_takes_any_x_theta_pair(kind):
    # a plain tuple, the oracle's SdeState and a pair of 0-d arrays give the
    # same bits: coeffs.limit_coefficient passes a plain tuple
    target, x, theta = make_target(kind), 0.7, 1.3
    pairs = [(x, theta), SdeState(x, theta), (np.array(x), np.array(theta))]
    bits = [np.array(drift(target, pair, p=0.4), float).tobytes() for pair in pairs]
    assert bits[0] == bits[1] == bits[2]


def test_one_step_moment_consistency():
    # increment mean ~ h * b_x and variance ~ h * theta^2, within 4 MC errors
    config = EulerConfig(h=0.01, horizon_t=1.0, p=0.5, theta0=1.0)
    state = SdeState(x=np.full(1_000_000, 1.0), theta=np.full(1_000_000, 1.0))
    z = stream_rng(301).standard_normal(1_000_000)
    increments = euler_step(NORMAL, state, config, z).x - 1.0
    m = increments.size
    b_x, _ = drift(NORMAL, SdeState(1.0, 1.0), p=0.5)
    mean_se = math.sqrt(0.01) * 1.0 / math.sqrt(m)
    assert increments.mean() == pytest.approx(0.01 * b_x, abs=4 * mean_se)
    var_se = 0.01 * math.sqrt(2.0 / m)
    assert increments.var() == pytest.approx(0.01 * 1.0, abs=4 * var_se)


def test_run_ensemble_deterministic():
    config = EulerConfig(h=0.01, horizon_t=0.5, p=2.0, theta0=1.0, n_paths=64, seed=5)
    (a,) = run_ensembles(NORMAL, [config])
    (b,) = run_ensembles(NORMAL, [config])
    assert np.array_equal(a.x_t, b.x_t)
    assert np.array_equal(a.theta_t_all, b.theta_t_all)
    assert a.theta_floor_hits == b.theta_floor_hits
    assert len(a.x_t) == 64 and len(a.theta_t_all) == 64


def test_single_path_single_step_matches_euler_step():
    config = EulerConfig(h=0.05, horizon_t=0.05, p=1.0, theta0=2.0, x0=0.3,
                         n_paths=1, seed=17)
    (result,) = run_ensembles(NORMAL, [config])
    z = stream_rng(17).standard_normal(1)[0]
    manual = euler_step(NORMAL, SdeState(0.3, 2.0), config, z)
    assert result.x_t[0] == manual.x
    assert result.theta_t_all[0] == manual.theta


def test_ensemble_reference_band_normal():
    # mesh 0.0005, benchmark 5.0: terminal sample is near-stationary
    # (reference single run: p-value 0.4774, theta(T) = 14.424)
    config = EulerConfig(h=0.0005, horizon_t=1.0, p=5.0, theta0=1.0,
                         n_paths=1000, seed=2)
    (result,) = run_ensembles(NORMAL, [config])
    d = ks_statistic(result.x_t, NORMAL)
    assert ks_pvalue(d, 1000) > 1e-3
    assert 11.0 < result.theta_t_mean < 18.0


def test_ensemble_fixed_well_tuned_scale_reaches_stationarity():
    # fixed scale 2.38 relaxes within T=1 (reference prints p-value 0.5273 at
    # this mesh; the unstated starting scale there is consistent with 2.38)
    config = EulerConfig(h=0.0001, horizon_t=1.0, p=None, theta0=2.38,
                         n_paths=400, seed=12)
    (result,) = run_ensembles(NORMAL, [config])
    d = ks_statistic(result.x_t, NORMAL)
    assert ks_pvalue(d, 400) > 0.01
    assert np.all(result.theta_t_all == 2.38)


def test_exponential_ensemble_stays_on_half_line():
    config = EulerConfig(h=0.005, horizon_t=1.0, p=2.0, theta0=1.0, x0=1.0,
                         n_paths=200, seed=9)
    (result,) = run_ensembles(EXP, [config])
    assert np.all(result.x_t >= 0.0)


def test_reflection_keeps_every_visited_point_nonnegative():
    config = EulerConfig(h=0.01, horizon_t=1.0, p=3.0, theta0=1.0, x0=0.2)
    state = SdeState(0.2, 1.0)
    rng = stream_rng(33)
    for _ in range(2000):
        state = euler_step(EXP, state, config, rng.standard_normal())
        assert state.x >= 0.0


def test_ou_stationary_variance_single_path():
    # fixed-scale dynamics for the normal target: OU with stationary variance
    # 1 regardless of theta; checked where the time-average estimator is
    # tight enough for the band (the full theta sweep lives in acceptance)
    theta = 2.38
    config = EulerConfig(h=0.01, horizon_t=200.0, p=None, theta0=theta,
                         n_paths=1, seed=0)
    inside = 0
    for seed in range(10):
        state = SdeState(0.0, theta)
        z = stream_rng(seed).standard_normal(config.n_steps)
        xs = np.empty(config.n_steps)
        for i in range(config.n_steps):
            state = euler_step(NORMAL, state, config, z[i])
            xs[i] = state.x
        inside += 0.85 <= xs[config.n_steps // 2:].var() <= 1.15
    assert inside >= 8, f"only {inside}/10 seeds inside the variance band"


EXACT_LAW_CELLS = ((0.01, 1.0), (0.1, 2.0), (0.5, 1.0))  # (h, theta)
EXACT_LAW_TERMS = {"scheme": (1.0, 1.0), "drift x1.05": (1.05, 1.0),
                   "noise x1.02": (1.0, 1.02)}  # factors of the drift and noise terms


def _euler_law(h, theta, x0, k):
    """Mean and sd of k fixed-scale Euler steps on N(0,1) from x0: the step
    x <- a x + sqrt(h) theta z, a = 1 - h theta^2 / 2, is an AR(1)."""
    a = 1.0 - h * theta * theta / 2.0
    return a ** k * x0, math.sqrt(h * theta * theta * (1.0 - a ** (2 * k)) / (1.0 - a * a))


@functools.cache
def _euler_law_pvalues(cell):
    """KS p-value, one per EXACT_LAW_TERMS entry, of 2^19 terminal values at
    T = 1 from x0 = 1 at the cell's (h, theta) against _euler_law: 16
    ensembles of 32 768 paths, seeds 970_000 + 100 c + j at the c-th cell.

    Each ensemble is run by run_ensembles and simulated here on its stream
    of normals, once per entry, with the drift and noise terms scaled by the
    entry's factors; the scheme's entry must be run_ensembles' bit for bit.
    """
    h, theta = cell
    drift_factor, noise_factor = np.array(list(EXACT_LAW_TERMS.values())).T[:, :, None]
    n = 32_768
    samples = []
    for j in range(16):
        config = EulerConfig(h=h, horizon_t=1.0, p=None, theta0=theta, x0=1.0, n_paths=n,
                             seed=970_000 + 100 * EXACT_LAW_CELLS.index(cell) + j)
        normals = stream_rng(config.seed)
        x = np.full((len(EXACT_LAW_TERMS), n), config.x0)
        for _ in range(config.n_steps):
            # euler_step's operations, each term scaled by its factor
            x = (x + drift_factor * (h * 0.5 * theta * theta * NORMAL.score(x))
                 + noise_factor * (math.sqrt(h) * theta * normals.standard_normal(n)))
        assert x[0].tobytes() == run_ensembles(NORMAL, [config])[0].x_t.tobytes()
        samples.append(x)
    mean, sd = _euler_law(h, theta, 1.0, config.n_steps)
    return [ks_pvalue(ks_statistic((x_t - mean) / sd, NORMAL), x_t.size)
            for x_t in np.concatenate(samples, axis=1)]


@pytest.mark.parametrize("cell", EXACT_LAW_CELLS)
def test_fixed_scale_euler_scheme_has_its_exact_law(cell):
    # at any mesh, not only as h -> 0: KS p-value at least 1e-3
    assert _euler_law_pvalues(cell)[0] >= 1e-3


@pytest.mark.parametrize("term", list(EXACT_LAW_TERMS)[1:])
@pytest.mark.parametrize("cell", EXACT_LAW_CELLS)
def test_euler_law_oracle_sees_a_scaled_term(cell, term):
    # negative controls: the drift term x 1.05 or the noise term x 1.02
    # gives a KS p-value below 1e-3 against the scheme's law
    assert _euler_law_pvalues(cell)[list(EXACT_LAW_TERMS).index(term)] < 1e-3


def test_euler_config_validation():
    with pytest.raises(ValueError):
        EulerConfig(h=0.0, horizon_t=1.0, p=1.0, theta0=1.0)
    with pytest.raises(ValueError):
        EulerConfig(h=0.01, horizon_t=1.0, p=-1.0, theta0=1.0)
    with pytest.raises(ValueError):
        EulerConfig(h=0.01, horizon_t=1.0, p=1.0, theta0=1.0, n_paths=0)
    # p None is the fixed-scale limit: no range check on p
    assert EulerConfig(h=0.01, horizon_t=1.0, p=None, theta0=1.0).p is None


@pytest.mark.parametrize("horizon_t,n_steps", [
    (0.07, 7), (0.14, 14), (0.28, 28), (0.56, 56), (1.11, 111),
])
def test_euler_config_takes_decimal_horizons_in_whole_steps(horizon_t, n_steps):
    # horizon_t / 0.01 lies just above n_steps for each of these
    assert EulerConfig(h=0.01, horizon_t=horizon_t, p=1.0, theta0=1.0).n_steps == n_steps


def test_euler_config_refuses_a_horizon_between_mesh_points():
    # three steps of 0.3 stop short of T = 1 and four would pass it
    with pytest.raises(ValueError) as raised:
        EulerConfig(h=0.3, horizon_t=1.0, p=1.0, theta0=1.0)
    assert str(raised.value) == ("horizon_t=1.0 is not a whole number of steps of h=0.3: "
                                 "n_steps=4 would reach T=1.2")


class SdeState(NamedTuple):
    x: float
    theta: float


def euler_step(target: TargetModel, state: SdeState, config: EulerConfig, z) -> SdeState:
    """One Euler update; `state` fields and `z` may be scalars or arrays.

    The bit-for-bit oracle of run_ensembles' step, written as plain
    expressions.  The theta update is noiseless.  If it lands at or below
    zero it is clamped to THETA_FLOOR; the true dynamics keep theta
    positive, so a clamp means the mesh is too coarse for the chosen p.
    """
    h = config.h
    sqrt_h = math.sqrt(h)
    s = target.score(state.x)
    if config.p is not None:
        theta = state.theta
        x_new = state.x + h * 0.5 * theta * theta * s + sqrt_h * theta * z
        theta_raw = theta + h * theta * (config.p - theta * np.abs(s) / SQRT_2PI)
        theta_new = np.where(theta_raw <= 0.0, THETA_FLOOR, theta_raw)
    else:
        theta0 = config.theta0
        x_new = state.x + h * 0.5 * theta0 * theta0 * s + sqrt_h * theta0 * z
        theta_new = state.theta

    if target.kind == "exp":
        x_new = np.abs(x_new)

    if np.ndim(x_new) == 0:
        return SdeState(float(x_new), float(theta_new))
    return SdeState(np.asarray(x_new, float), np.asarray(theta_new, float))


# The oracle's own anchors: single steps worked out by hand.
def test_euler_step_zero_noise_zero_score():
    config = EulerConfig(h=0.01, horizon_t=1.0, p=0.5, theta0=1.0)
    new = euler_step(NORMAL, SdeState(0.0, 1.0), config, z=0.0)
    assert new.x == 0.0
    assert new.theta == pytest.approx(1.005, abs=1e-15)


def test_euler_step_fixed_scale():
    config = EulerConfig(h=0.01, horizon_t=1.0, p=None, theta0=1.0)
    new = euler_step(NORMAL, SdeState(1.0, 1.0), config, z=1.0)
    assert new.x == pytest.approx(1.0 - 0.005 + 0.1, abs=1e-15)
    assert new.theta == 1.0


def test_euler_step_reflects_exponential_target():
    config = EulerConfig(h=0.01, horizon_t=1.0, p=0.5, theta0=1.0)
    new = euler_step(EXP, SdeState(0.05, 1.0), config, z=-1.0)
    # raw move 0.05 - 0.005 - 0.1 = -0.055 is reflected across zero
    assert new.x == pytest.approx(0.055, abs=1e-15)


def test_euler_step_clamps_scale_at_floor():
    config = EulerConfig(h=0.5, horizon_t=1.0, p=0.001, theta0=100.0)
    new = euler_step(NORMAL, SdeState(3.0, 100.0), config, z=0.0)
    assert new.theta == THETA_FLOOR


def whole_matrix_oracle(target, config):
    """The ensemble as a loop over euler_step, with every increment drawn
    up front, step-major, from the ensemble's one stream:
    (x_t, theta_t_all, theta_floor_hits)."""
    z = stream_rng(config.seed).standard_normal((config.n_steps, config.n_paths))
    state = SdeState(np.full(config.n_paths, config.x0), np.full(config.n_paths, config.theta0))
    floor_hits = 0
    for i in range(config.n_steps):
        state = euler_step(target, state, config, z[i])
        if config.p is not None:
            floor_hits += int(np.count_nonzero(state.theta == THETA_FLOOR))
    return state.x, state.theta, floor_hits


def same_bits(a, b):
    # Bit for bit, signed zeros included; a NaN only has to meet a NaN, as
    # numpy's loops may order the operands of a NaN-on-NaN step either way.
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def assert_matches_oracle(target, configs):
    with np.errstate(over="ignore", invalid="ignore"):  # coarse meshes may blow up
        results = run_ensembles(target, configs)
        oracles = [whole_matrix_oracle(target, config) for config in configs]
    assert len(results) == len(configs)
    for result, (x_t, theta_t_all, floor_hits) in zip(results, oracles):
        assert same_bits(result.x_t, x_t)
        assert same_bits(result.theta_t_all, theta_t_all)
        assert result.theta_floor_hits == floor_hits


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(TARGET_KINDS),
    n_steps=st.sampled_from((1, 2, 37, EULER_CHUNK - 1, EULER_CHUNK, EULER_CHUNK + 1,
                             2 * EULER_CHUNK + 7)),
    h=st.sampled_from((1e-3, 0.01, 0.05, 0.5)),
    theta0=st.floats(0.1, 100.0),
    x0=st.floats(-3.0, 3.0),
    n_paths=st.integers(1, 4),
    ensembles=st.lists(st.tuples(st.booleans(), st.floats(1e-3, 20.0), st.integers(0, 2**63)),
                       min_size=1, max_size=4),
)
# a coarse mesh with a small p: theta clamps at the floor on the first step
@example(kind="normal", n_steps=EULER_CHUNK + 1, h=0.5, theta0=100.0, x0=3.0, n_paths=3,
         ensembles=[(False, 1.0, 5), (True, 0.001, 6), (True, 0.01, 7)])
# the same on exp, whose step folds its constant score into the theta update
@example(kind="exp", n_steps=EULER_CHUNK + 1, h=0.5, theta0=100.0, x0=3.0, n_paths=3,
         ensembles=[(True, 0.001, 6)])
def test_run_ensembles_match_the_euler_step_oracle(kind, n_steps, h, theta0, x0, n_paths,
                                                   ensembles):
    # chunked draws and one wide array per mesh give every bit of the
    # whole-matrix loop over euler_step, field by field and ensemble by
    # ensemble; an ensemble drawn as not adaptive runs at a fixed scale
    target = make_target(kind)
    if kind == "exp":
        x0 = abs(x0)
    configs = [EulerConfig(h=h, horizon_t=n_steps * h, p=p if adaptive else None,
                           theta0=theta0, x0=x0, n_paths=n_paths, seed=seed)
               for adaptive, p, seed in ensembles]
    assert configs[0].n_steps == n_steps
    assert_matches_oracle(target, configs)


def test_run_ensembles_count_floor_hits_per_ensemble():
    # on a mesh this coarse some paths of each adaptive ensemble clamp
    configs = [EulerConfig(h=0.5, horizon_t=20.0, p=p, theta0=3.0, n_paths=20, seed=seed)
               for p, seed in ((None, 1), (0.001, 2), (0.5, 3))]
    hits = [result.theta_floor_hits for result in run_ensembles(NORMAL, configs)]
    assert hits[0] == 0 and 0 < hits[1] != hits[2] > 0
    assert_matches_oracle(NORMAL, configs)


@pytest.mark.parametrize("kind,h,theta0,ensembles", [
    # a contiguous adaptive group on one seed, as a grid's (h, replicate)
    # gives it, and the standard ensemble on a seed of its own
    ("normal", 0.01, 1.0, [(1.0, 7), (2.0, 7), (2.5, 7), (None, 8)]),
    # a non-contiguous repeat: A, B, A
    ("cauchy", 0.01, 1.0, [(1.0, 7), (2.0, 8), (3.0, 7)]),
    # an adaptive and a standard ensemble on one seed
    ("t2", 0.01, 1.0, [(2.0, 7), (None, 7)]),
    # all three on the half-line
    ("exp", 0.01, 1.0, [(2.0, 7), (3.0, 7), (None, 7), (1.0, 8), (4.0, 7)]),
    # theta clamps at the floor in ensembles that share a seed
    ("normal", 0.5, 100.0, [(0.001, 6), (None, 6), (0.01, 6), (1.0, 5)]),
])
def test_run_ensembles_on_shared_seeds_give_each_ensemble_its_bits_alone(
        kind, h, theta0, ensembles):
    # ensembles on one seed read one stream, drawn once: each still gets
    # the bits it gets when it runs alone, and the oracle's
    target = make_target(kind)
    configs = [EulerConfig(h=h, horizon_t=(2 * EULER_CHUNK + 7) * h, p=p, theta0=theta0,
                           x0=1.0, n_paths=5, seed=seed)
               for p, seed in ensembles]
    with np.errstate(over="ignore", invalid="ignore"):
        together = run_ensembles(target, configs)
        alone = [run_ensembles(target, [config])[0] for config in configs]
    for got, want in zip(together, alone):
        assert same_bits(got.x_t, want.x_t) and same_bits(got.theta_t_all, want.theta_t_all)
        assert got.theta_floor_hits == want.theta_floor_hits
    assert_matches_oracle(target, configs)


def test_run_ensembles_open_one_stream_per_distinct_seed_and_draw_it_once_a_chunk(
        monkeypatch):
    # six ensembles on three seeds, over three chunks: three streams, each
    # drawn once a chunk, in order, whichever ensembles read it
    opened, drawn = [], []  # seeds; (seed, rows drawn so far by its stream)

    class SpyStream:
        def __init__(self, seed):
            opened.append(seed)
            self.rng, self.seed, self.rows = stream_rng(seed), seed, 0

        def standard_normal(self, out):
            drawn.append((self.seed, self.rows))
            self.rows += len(out)
            self.rng.standard_normal(out=out)

    h = 0.01
    configs = [EulerConfig(h=h, horizon_t=(2 * EULER_CHUNK + 7) * h, p=p, theta0=1.0,
                           n_paths=3, seed=seed)
               for p, seed in ((1.0, 7), (2.0, 8), (None, 7), (3.0, 7), (None, 9), (0.5, 8))]
    expected = run_ensembles(NORMAL, configs)
    monkeypatch.setattr(amcmc_lab.sde, "stream_rng", SpyStream)
    got = run_ensembles(NORMAL, configs)
    assert all(same_bits(g.x_t, e.x_t) and same_bits(g.theta_t_all, e.theta_t_all)
               for g, e in zip(got, expected))
    assert sorted(opened) == [7, 8, 9]
    assert sorted(drawn) == [(seed, k * EULER_CHUNK) for seed in (7, 8, 9) for k in range(3)]


@pytest.mark.parametrize("field,value", [
    ("h", 0.02), ("horizon_t", 2.0), ("x0", 0.5), ("theta0", 2.0), ("n_paths", 3),
])
def test_run_ensembles_reject_configs_that_do_not_share_a_mesh(field, value):
    base = dict(h=0.01, horizon_t=1.0, p=1.0, theta0=1.0, x0=0.0, n_paths=2)
    configs = [EulerConfig(**base, seed=1), EulerConfig(**{**base, field: value}, seed=2)]
    with pytest.raises(ValueError, match=field):
        run_ensembles(NORMAL, configs)


def test_run_ensembles_refuse_an_exp_start_off_the_support_before_any_draw(monkeypatch):
    # the step never reads exp's score, so its support check runs once, at x0
    def no_stream(seed):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(amcmc_lab.sde, "stream_rng", no_stream)
    configs = [EulerConfig(h=0.01, horizon_t=1.0, p=p, theta0=1.0, x0=-0.5, n_paths=2,
                           seed=seed) for seed, p in ((1, 2.0), (2, None))]
    with pytest.raises(ValueError, match="outside the support of the exp target"):
        run_ensembles(EXP, configs)


@pytest.mark.parametrize("kind", ["exp", "normal"])
@pytest.mark.parametrize("x0", [-1.0, -5e-324, -0.0, 0.0, 0.5])
def test_run_ensembles_state_the_start_rule_in_the_grid_words(monkeypatch, kind, x0):
    # exactly the starts off the support are refused, before any stream
    # opens, with the message of the grid's own start check; -0.0 and 0.0
    # are on exp's closed half-line and run
    opened = []

    def recorded_stream(seed):
        opened.append(seed)
        return stream_rng(seed)

    monkeypatch.setattr(amcmc_lab.sde, "stream_rng", recorded_stream)
    target = make_target(kind)
    configs = [EulerConfig(h=0.01, horizon_t=0.1, p=p, theta0=1.0, x0=x0, n_paths=3,
                           seed=seed) for seed, p in ((1, 2.0), (2, None))]
    if kind == "exp" and x0 in (-1.0, -5e-324):
        spec = ExperimentSpec(mode="sde", target=kind, hp_cells=((0.01, 2.0),),
                              horizon_t=0.1, n_paths=3, x0=x0, replicates=1)
        with pytest.raises(ValueError) as grid:
            experiments.sde_jobs(spec)
        with pytest.raises(ValueError) as direct:
            run_ensembles(target, configs)
        assert str(direct.value) == str(grid.value) == (
            f"x0={x0} outside the support of the {kind} target")
        assert opened == []
    else:
        results = run_ensembles(target, configs)
        assert opened == [1, 2]
        assert all(target.in_support(result.x_t) for result in results)


class FailingScore:
    """The normal target, but its score raises on call number fail_at; the
    thread count at that moment is kept in threads_at_failure."""

    kind = "normal"

    def __init__(self, fail_at):
        self.calls, self.fail_at = 0, fail_at
        self.error, self.threads_at_failure = RuntimeError("score failed"), None

    def in_support(self, x):
        return NORMAL.in_support(x)

    def score(self, x, out=None):
        self.calls += 1
        if self.calls == self.fail_at:
            self.threads_at_failure = threading.active_count()
            raise self.error
        return NORMAL.score(x, out)


def test_run_ensembles_join_their_draw_thread_on_return_and_on_raise():
    # one helper thread draws while the call runs, and none is left after it,
    # also when the score raises midway through chunk 2 as chunk 3 is drawn
    h = 0.01
    config = EulerConfig(h=h, horizon_t=3 * EULER_CHUNK * h, p=2.0, theta0=1.0,
                         n_paths=1000, seed=5)
    before = threading.active_count()
    run_ensembles(NORMAL, [config])
    assert threading.active_count() == before

    target = FailingScore(fail_at=EULER_CHUNK + EULER_CHUNK // 2)
    with pytest.raises(RuntimeError) as raised:
        run_ensembles(target, [config])
    assert raised.value is target.error
    assert target.threads_at_failure == before + 1
    assert threading.active_count() == before


@pytest.mark.parametrize("slow_side", ["helper", "caller"])
def test_run_ensembles_split_each_chunk_of_draws_between_the_threads(monkeypatch, slow_side):
    # the helper draws a chunk's ensembles until none is left, the calling
    # thread draws the ones the helper has not taken, each ensemble's chunk
    # is drawn once, and no bit depends on which thread drew it
    caller = threading.get_ident()
    drawn_on_caller = {}  # seed: one flag per chunk, in order

    class SlowStream:
        """stream_rng(seed), but its draws sleep first on the slow side."""

        def __init__(self, seed):
            self.rng, self.flags = stream_rng(seed), drawn_on_caller.setdefault(seed, [])

        def standard_normal(self, out):
            on_caller = threading.get_ident() == caller
            if on_caller == (slow_side == "caller"):
                time.sleep(0.2)
            self.flags.append(on_caller)
            self.rng.standard_normal(out=out)

    h = 0.01
    configs = [EulerConfig(h=h, horizon_t=(2 * EULER_CHUNK + 7) * h, p=p, theta0=1.0,
                           n_paths=3, seed=seed)
               for seed, p in ((1, None), (2, 2.0), (3, 0.5), (4, 2.0), (5, 1.0))]
    expected = run_ensembles(NORMAL, configs)
    monkeypatch.setattr(amcmc_lab.sde, "stream_rng", SlowStream)
    for got, want in zip(run_ensembles(NORMAL, configs), expected):
        assert same_bits(got.x_t, want.x_t) and same_bits(got.theta_t_all, want.theta_t_all)
    per_chunk = [sum(flags[k] for flags in drawn_on_caller.values()) for k in range(3)]
    assert sorted(drawn_on_caller) == [1, 2, 3, 4, 5]
    assert all(len(flags) == 3 for flags in drawn_on_caller.values())
    if slow_side == "helper":
        # a helper asleep in the first ensemble it takes leaves the rest
        assert all(on_caller >= 4 for on_caller in per_chunk)
    else:
        # a calling thread asleep in an ensemble leaves the helper the rest
        assert all(on_caller <= 1 for on_caller in per_chunk)


def test_each_ensemble_chunk_is_drawn_once_under_fast_switching(monkeypatch):
    # 300 one-path ensembles over 3 chunks and a thread switch every
    # microsecond: both threads read one iterator per chunk, and each
    # ensemble's chunk is still drawn by one of them, once, in order
    drawn = []  # (seed, rows drawn so far by that stream)

    class RecordingStream:
        def __init__(self, seed):
            self.rng, self.seed, self.rows = stream_rng(seed), seed, 0

        def standard_normal(self, out):
            drawn.append((self.seed, self.rows))
            self.rows += len(out)
            self.rng.standard_normal(out=out)

    h = 0.01
    configs = [EulerConfig(h=h, horizon_t=(2 * EULER_CHUNK + 7) * h, p=2.0, theta0=1.0,
                           seed=seed) for seed in range(300)]
    expected = run_ensembles(NORMAL, configs)
    monkeypatch.setattr(amcmc_lab.sde, "stream_rng", RecordingStream)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_ensembles(NORMAL, configs)
    finally:
        sys.setswitchinterval(interval)
    assert all(same_bits(g.x_t, e.x_t) for g, e in zip(got, expected))
    assert sorted(drawn) == [(seed, k * EULER_CHUNK) for seed in range(300) for k in range(3)]


def test_run_ensembles_memory_is_two_chunks_of_draws():
    # 5 ensembles of 1000 paths over 300 steps hold two EULER_CHUNK-step
    # chunks of normals, 2.6 MB at 32 steps; 256-step chunks held 20.5 MB
    h = 0.01
    configs = [EulerConfig(h=h, horizon_t=300 * h, p=p, theta0=1.0, n_paths=1000, seed=seed)
               for seed, p in ((1, None), (2, 2.0), (3, 0.5), (4, 2.0), (5, 1.0))]
    tracemalloc.start()
    try:
        run_ensembles(NORMAL, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 5 * EULER_CHUNK * 1000 * 8 + (1 << 20)


def test_euler_block_memory_is_its_two_chunk_buffers():
    # a bench block: 8 cauchy ensembles of 1000 paths, one per p of the
    # reference h = 0.01 cell and its fixed scale.  Its peak is the two
    # chunk buffers of draws plus working arrays of at most 32 steps'
    # width, and under 6 MiB (64-step chunks peaked at 8.61 MiB)
    configs = [EulerConfig(h=0.01, horizon_t=1.0, p=p, theta0=1.0, n_paths=1000, seed=seed)
               for seed, p in enumerate((0.5, 1.0, 2.0, 2.5, 2.75, 3.0, 3.5, None))]
    width = 8 * 1000
    tracemalloc.start()
    try:
        run_ensembles(CAUCHY, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * EULER_CHUNK + 32) * 8 * width
    assert peak < 6 << 20


def test_euler_block_buffers_hold_a_row_per_distinct_seed():
    # the bench block's shape again, but its seven adaptive ensembles on one
    # seed, as a grid's (h, replicate) gives them: two seeds' chunk buffers
    # (1 MiB) and working arrays, not eight seeds' (4 MiB)
    configs = [EulerConfig(h=0.01, horizon_t=1.0, p=p, theta0=1.0, n_paths=1000,
                           seed=1 if p is None else 0)
               for p in (0.5, 1.0, 2.0, 2.5, 2.75, 3.0, 3.5, None)]
    n, width = 1000, 8 * 1000
    tracemalloc.start()
    try:
        run_ensembles(CAUCHY, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * 2 * EULER_CHUNK * n + 32 * width) * 8


def test_run_ensemble_memory_is_flat_in_the_horizon():
    # increments are drawn in step chunks: sixteen times the horizon takes
    # no more memory (the whole increment matrix at 16T would be 12.8 MB)
    def peak_bytes(horizon_t):
        config = EulerConfig(h=0.01, horizon_t=horizon_t, p=2.0, theta0=1.0, n_paths=100,
                             seed=3)
        tracemalloc.start()
        try:
            run_ensembles(NORMAL, [config])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak_bytes(160.0) - peak_bytes(10.0)) < 1 << 20


def test_exponential_ensemble_starts_on_the_boundary():
    # the score is one-sided at x = 0, so paths that sit there run on
    config = EulerConfig(h=0.01, horizon_t=0.5, p=2.0, theta0=1.0, x0=0.0, n_paths=50,
                         seed=4)
    (result,) = run_ensembles(EXP, [config])
    assert np.all(result.x_t >= 0.0)
    assert_matches_oracle(EXP, [config])
