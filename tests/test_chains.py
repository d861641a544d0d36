import functools
import math
import struct
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcmc_lab import (
    TARGET_KINDS,
    AdaptiveConfig,
    ChainTrajectory,
    make_target,
)
from amcmc_lab.chains import STEP_CHUNK, chain_streams, metropolis_step, run_chains
from amcmc_lab.coeffs import EvalPoint, embedded_benchmark, simulate_moments
from amcmc_lab.stats import chain_summary, ks_pvalue, ks_statistic
from amcmc_lab.targets import _ndtr


NORMAL = make_target("normal")
T2 = make_target("t2")


def test_run_amcmc_deterministic_and_sized():
    config = AdaptiveConfig(p=0.4, theta0=1.5, n_samples=500, seed=42)
    (first,) = run_chains(NORMAL, [config])
    (second,) = run_chains(NORMAL, [config])
    assert len(first) == 500
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.theta, second.theta)
    assert np.array_equal(first.xi, second.xi)


def test_single_step_run_equals_one_advanced_state():
    config = AdaptiveConfig(p=0.3, theta0=2.0, x0=0.7, n_samples=1, seed=9)
    (trajectory,) = run_chains(NORMAL, [config])
    manual = amcmc_step(ChainState(0.7, 2.0, 0, 0), config, NORMAL, chain_streams(9))
    assert ChainState(trajectory.x[0], trajectory.theta[0], trajectory.xi[0], 1) == manual


def test_formulations_coincide_under_shared_seed():
    # run_chains proposes and then accepts; the oracle draws the Bernoulli
    # indicator first and moves by theta * (xi * eps)
    config = AdaptiveConfig(p=0.35, theta0=0.8, x0=-1.0, n_samples=400, seed=77)
    assert chain_bytes(run_chains(NORMAL, [config])[0]) == chain_bytes(
        oracle_chain(NORMAL, config, bernoulli_first=True))


def test_higher_benchmark_raises_acceptance_rate():
    # stochastic-approximation fixed point: theta shrinks until acceptance ~ p
    # (seeds 0-9, run in lockstep)
    low, high = (run_chains(NORMAL, [AdaptiveConfig(p=p, theta0=1.0, n_samples=3000, seed=seed)
                                     for seed in range(10)])
                 for p in (0.10, 0.75))
    for lo, hi in zip(low, high):
        assert hi.xi.mean() > lo.xi.mean()


def test_diminishing_adaptation_bound():
    config = AdaptiveConfig(p=0.25, theta0=2.38, n_samples=2000, seed=5)
    (trajectory,) = run_chains(NORMAL, [config])
    log_theta = np.log(np.concatenate([[config.theta0], trajectory.theta]))
    steps = np.arange(1, len(trajectory) + 1)
    bound = max(config.p, 1 - config.p) / np.sqrt(steps)
    assert np.all(np.abs(np.diff(log_theta)) <= bound * (1 + 1e-9))


def test_theta_stays_positive():
    config = AdaptiveConfig(p=0.9, theta0=1e-3, n_samples=5000, seed=3)
    (trajectory,) = run_chains(NORMAL, [config])
    assert trajectory.theta.min() > 0.0


def test_reference_cell_ks_pvalue_scale():
    # starting scale 2.38, benchmark 0.5: retained-sample KS p-value is of
    # order 1e-2 (reference single run: D = 0.0153, p = 0.02883)
    chains = run_chains(NORMAL, [AdaptiveConfig(p=0.5, theta0=2.38, n_samples=10_000, seed=seed)
                                 for seed in range(5)], x_only=True)
    ps = [chain_summary(chain.x, NORMAL, 1_000).p_value for chain in chains]
    assert 3e-3 < float(np.median(ps)) < 0.2


def test_smcmc_theta_constant_and_p_ignored():
    # p None is the fixed-scale spelling: theta stays at theta0, the
    # oracle's Bernoulli-first run gives the same bytes, and so does a batch
    # whose other chains adapt to benchmarks 0.3 and 0.9
    config = AdaptiveConfig(p=None, theta0=0.7, n_samples=300, seed=8)
    (trajectory,) = run_chains(NORMAL, [config])
    assert np.all(trajectory.theta == 0.7)
    batched = run_chains(NORMAL, [config, replace(config, p=0.3), replace(config, p=0.9)])[0]
    for chain in (oracle_chain(NORMAL, config, bernoulli_first=True), batched):
        assert chain_bytes(chain) == chain_bytes(trajectory)


def test_smcmc_small_scale_mixes_poorly():
    # reference: D = 0.1369 for fixed scale 0.10
    config = AdaptiveConfig(p=None, theta0=0.10, n_samples=10_000, burn_in=1_000, seed=0)
    summary = chain_summary(run_chains(NORMAL, [config])[0].x, NORMAL, 1_000)
    assert 0.08 < summary.d < 0.25


def test_smcmc_reference_scale_esjd_band():
    # reference: ESJD = 0.71047 for fixed scale 2.38
    config = AdaptiveConfig(p=None, theta0=2.38, n_samples=10_000, burn_in=1_000, seed=0)
    summary = chain_summary(run_chains(NORMAL, [config])[0].x, NORMAL, 1_000)
    assert 0.5 < summary.esjd < 0.9


def _iact(x, c=5.0):
    """Integrated autocorrelation time of a chain, 1 + 2 sum_k rho_k, summed
    up to the first lag M >= c * tau(M) (Sokal's self-consistent window)."""
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * x.size)
    rho = np.fft.irfft(f * np.conj(f))[:x.size]
    taus = 2.0 * np.cumsum(rho / rho[0]) - 1.0
    return taus[np.argmax(np.arange(x.size) >= c * taus)]


def test_smcmc_preserves_target_distribution():
    # fixed scale 2.38 (seeds 0-9, in lockstep)
    # passes the KS test at level 0.001 in >= 8/10 replicates.  ks_pvalue
    # takes its draws as independent, so the 90 000 retained draws count as
    # 90 000 / tau, tau their integrated autocorrelation time (about 4.4).
    # Scored against t2, the same draws must fail.
    chains = run_chains(NORMAL, [AdaptiveConfig(p=None, theta0=2.38, n_samples=100_000,
                                                seed=seed) for seed in range(10)], x_only=True)
    passed = rejected = 0
    for chain in chains:
        x = chain.x[10_000:]
        m = int(x.size / _iact(x))
        passed += ks_pvalue(ks_statistic(x, NORMAL), m) >= 0.001
        rejected += ks_pvalue(ks_statistic(x, T2), m) < 0.001
    assert passed >= 8
    assert rejected == 10


def _acceptance_z(sigma, scored_at):
    """z of the mean acceptance, over steps 1000 on, of 100 fixed-scale
    chains (seeds 0-99) of 10^4 steps on N(0,1) at scale sigma, against
    (2/pi) arctan(2/scored_at), the stationary acceptance at that scale.
    The standard error is the spread across chains over sqrt(100)."""
    chains = run_chains(NORMAL, [AdaptiveConfig(p=None, theta0=sigma, n_samples=10_000,
                                                seed=seed) for seed in range(100)])
    rates = np.array([chain.xi[1_000:].mean() for chain in chains])
    exact = 2.0 / math.pi * math.atan(2.0 / scored_at)
    return (rates.mean() - exact) / (rates.std(ddof=1) / math.sqrt(rates.size))


@pytest.mark.parametrize("sigma", [0.1, 1.0, 2.38, 10.0])
def test_fixed_scale_acceptance_matches_its_closed_form(sigma):
    # random-walk Metropolis on N(0,1) with N(0, sigma^2) steps accepts at
    # stationarity with probability (2/pi) arctan(2/sigma): within 4 SE
    assert abs(_acceptance_z(sigma, sigma)) < 4.0


@pytest.mark.parametrize("sigma", [1.0, 2.38, 10.0])
def test_fixed_scale_acceptance_oracle_sees_a_two_percent_scale_error(sigma):
    # negative control: chains at 1.02 sigma fall outside 4 SE of the
    # value at sigma (at sigma = 0.1 the curve is too flat to see 2%)
    assert abs(_acceptance_z(1.02 * sigma, sigma)) >= 4.0


_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(64)


def _stationary_esjd(sigma, panels=16, cut=12.0, halved=True):
    """sigma^2 E[eps^2 2 Phi(-sigma |eps| / 2)], eps ~ N(0,1): the stationary
    ESJD of random-walk Metropolis on N(0,1) with N(0, sigma^2) steps, whose
    acceptance given eps is 2 Phi(-sigma |eps| / 2).  The integrand is even
    with a kink at eps = 0, so it is twice the integral over [0, cut], by
    64-node Gauss-Legendre on equal panels that start at the kink; past
    cut = 12 the normal density is below 1e-31.  With halved False the
    acceptance misses its division by 2, 2 Phi(-sigma |eps|), which is the
    acceptance at scale 2 sigma: a negative control."""
    nodes, weights = _GAUSS_LEGENDRE
    edges = np.linspace(0.0, cut, panels + 1)
    half = 0.5 if halved else 1.0
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        eps = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        f = eps * eps * 2.0 * _ndtr(-half * sigma * eps) * np.exp(-0.5 * eps * eps)
        total += 0.5 * (hi - lo) * np.dot(weights, f)
    return sigma * sigma * 2.0 * total / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("sigma, expected", [
    (0.1, 0.00936), (1.0, 0.45018), (2.38, 0.74403), (10.0, 0.32390)])
def test_stationary_esjd_quadrature_matches_scipy_quad(sigma, expected):
    from scipy.integrate import quad
    from scipy.special import ndtr

    def integrand(eps):
        return eps * eps * 2.0 * ndtr(-0.5 * sigma * eps) * math.exp(-0.5 * eps * eps)

    reference = 2.0 * sigma * sigma * quad(integrand, 0.0, math.inf, epsabs=1e-14,
                                           epsrel=1e-13)[0] / math.sqrt(2.0 * math.pi)
    assert _stationary_esjd(sigma) == pytest.approx(reference, rel=1e-12)
    assert round(_stationary_esjd(sigma), 5) == expected


def _esjd_argmax(halved=True):
    """The scale at which _stationary_esjd is largest, by bounded Brent
    search over [0.5, 6] to 1e-8."""
    from scipy.optimize import minimize_scalar

    return minimize_scalar(lambda sigma: -_stationary_esjd(sigma, halved=halved),
                           bounds=(0.5, 6.0), method="bounded", options={"xatol": 1e-8}).x


def test_one_dimensional_optimum_accepts_at_the_papers_benchmark():
    # the fixed-scale chain on N(0,1) moves furthest per step at sigma =
    # 2.426, where it accepts (2/pi) arctan(2/sigma) = 0.4389: the 0.44 of
    # Gelman, Roberts & Gilks (1996) that the paper takes as its benchmark,
    # computed here rather than cited
    sigma = _esjd_argmax()
    assert 2.41 <= sigma <= 2.44
    assert 0.435 <= 2.0 / math.pi * math.atan(2.0 / sigma) <= 0.443


def test_one_dimensional_optimum_oracle_sees_an_acceptance_missing_its_halving():
    # negative control: the acceptance 2 Phi(-sigma |eps|), that of scale
    # 2 sigma, peaks at half the scale, 1.213, outside the band
    assert not 2.41 <= _esjd_argmax(halved=False) <= 2.44


ESJD_SCALES = (0.1, 1.0, 2.38, 10.0, 1.02, 10.2)  # the last two: 1.02 x 1 and 1.02 x 10


@functools.cache
def _fixed_scale_esjds(sigma):
    """The esjd column of 200 fixed-scale chains of 10^4 steps on N(0,1) at
    scale sigma, burn-in 1000, run as one batch and scored as a discrete
    block scores them (seeds 950_000 + 1000 k + i for the k-th scale of
    ESJD_SCALES)."""
    first = 950_000 + 1000 * ESJD_SCALES.index(sigma)
    configs = [AdaptiveConfig(p=None, theta0=sigma, n_samples=10_000, burn_in=1_000,
                              seed=seed) for seed in range(first, first + 200)]
    chains = run_chains(NORMAL, configs, x_only=True)
    return np.array([chain_summary(chain.x, NORMAL).esjd for chain in chains])


def _esjd_z(sigma, scored_at):
    """z of the mean esjd at scale sigma against the stationary ESJD at
    scored_at; the standard error is the spread across chains over sqrt(200)."""
    esjds = _fixed_scale_esjds(sigma)
    std_error = esjds.std(ddof=1) / math.sqrt(esjds.size)
    return (esjds.mean() - _stationary_esjd(scored_at)) / std_error


@pytest.mark.parametrize("sigma", [0.1, 1.0, 2.38, 10.0])
def test_fixed_scale_esjd_matches_its_closed_form(sigma):
    assert abs(_esjd_z(sigma, sigma)) < 4.0


@pytest.mark.parametrize("sigma, control", [(1.0, 1.02), (10.0, 10.2)])
def test_fixed_scale_esjd_oracle_sees_a_two_percent_scale_error(sigma, control):
    # negative control: chains at 1.02 sigma fall outside 4 SE of the ESJD
    # at sigma; near the optimum, about 2.43, the curve is too flat to see 2%
    assert abs(_esjd_z(control, sigma)) >= 4.0


FIXED_POINT_PS = (0.25, 0.5, 0.75)


def _fixed_point_scale(p):
    """sigma*(p) = 2/tan(pi p/2): the scale at which random-walk Metropolis
    on N(0,1) accepts at rate p, (2/pi) arctan(2/sigma) = p."""
    return 2.0 / math.tan(math.pi * p / 2.0)


@functools.cache
def _adaptive_fixed_point(p):
    """Mean acceptance over steps 1000 on, and final theta, of 1000
    adaptive chains of 10^4 steps on N(0,1) from theta0 = 2.38 at
    benchmark p, run together (seeds 940_000 + 1000 k + i for the k-th p
    of FIXED_POINT_PS)."""
    first = 940_000 + 1000 * FIXED_POINT_PS.index(p)
    chains = run_chains(NORMAL, [AdaptiveConfig(p=p, theta0=2.38, n_samples=10_000, seed=seed)
                                 for seed in range(first, first + 1000)])
    return (np.array([chain.xi[1_000:].mean() for chain in chains]),
            np.array([chain.theta[-1] for chain in chains]))


def _median_theta_z(p, scored_at):
    """z of the median final theta at benchmark p against scored_at; the
    standard error of a median is sqrt(pi/2) times that of a mean."""
    finals = _adaptive_fixed_point(p)[1]
    std_error = math.sqrt(math.pi / 2.0) * finals.std(ddof=1) / math.sqrt(finals.size)
    return (np.median(finals) - scored_at) / std_error


@pytest.mark.parametrize("p", FIXED_POINT_PS)
def test_adaptive_chain_settles_at_its_fixed_point(p):
    # the stochastic-approximation fixed point: the chain accepts at rate p,
    # and its scale settles at sigma*(p), each within 4 SE across chains
    rates = _adaptive_fixed_point(p)[0]
    assert abs(rates.mean() - p) < 4.0 * rates.std(ddof=1) / math.sqrt(rates.size)
    assert abs(_median_theta_z(p, _fixed_point_scale(p))) < 4.0


@pytest.mark.parametrize("p", FIXED_POINT_PS)
def test_adaptive_fixed_point_oracle_sees_a_two_percent_scale_error(p):
    # negative control: the same medians fall outside 4 SE of 1.02 sigma*(p)
    assert abs(_median_theta_z(p, 1.02 * _fixed_point_scale(p))) >= 4.0


def test_embedded_config_validation():
    # the 1/n-grid benchmark p_n = 1 - p/sqrt(n) that coeff mode runs at
    with pytest.raises(ValueError):
        embedded_benchmark(2.5, 4)
    with pytest.raises(ValueError, match="resolution"):
        embedded_benchmark(0.5, 0)
    assert embedded_benchmark(0.5, 100) == pytest.approx(0.95)


def test_embedded_adaptive_scale_update():
    # a one-step transition at resolution 100 multiplies theta by
    # exp((1 - p_n)/10) when accepted and by exp(-p_n/10) when rejected, so
    # dtheta takes two values only: B2 fixes the share a of accepted steps,
    # and A22 must then be a v_acc^2 + (1 - a) v_rej^2
    n, theta = 100, 1.5
    p_n = embedded_benchmark(0.5, n)
    point = EvalPoint(x=1.0, theta=theta, p=0.5, target=NORMAL)
    rows = simulate_moments(point, n, 20_000, 13, ("B2", "A22"))
    v_acc = theta * (math.exp((1 - p_n) / 10.0) - 1.0)
    v_rej = theta * (math.exp(-p_n / 10.0) - 1.0)
    a = (rows["B2"].estimate / n - v_rej) / (v_acc - v_rej)
    assert 0.0 < a < 1.0
    assert rows["A22"].estimate / n == pytest.approx(a * v_acc ** 2 + (1 - a) * v_rej ** 2,
                                                     rel=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(p=1.5, theta0=1.0, n_samples=10)
    with pytest.raises(ValueError):
        AdaptiveConfig(p=0.5, theta0=-1.0, n_samples=10)
    with pytest.raises(ValueError):
        AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10, burn_in=10)
    with pytest.raises(ValueError, match="burn_in"):
        AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10, burn_in=-1)
    with pytest.raises(ValueError, match="theta0"):
        AdaptiveConfig(p=0.5, theta0=math.nan, n_samples=10)
    with pytest.raises(ValueError, match="x0"):
        AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10, x0=math.inf)
    assert AdaptiveConfig(p=None, theta0=1.0, n_samples=10).p is None  # a fixed scale


class ChainState(NamedTuple):
    x: float
    theta: float
    xi: int
    step: int


def amcmc_step(state: ChainState, config: AdaptiveConfig, target, streams,
               bernoulli_first: bool = False) -> ChainState:
    """Advance the chain one step, drawing one standard normal and one
    uniform from ``streams`` (a chain_streams pair).  The scalar oracle of
    the lockstep runner's step, under either formulation: propose then
    accept (y if accepted, else x), or, with bernoulli_first, draw the
    indicator xi first and move by theta * (xi * eps).  The proposal scale
    is the incoming state's theta; the returned state carries the retuned
    theta for iteration n = step + 1, or the same theta when config.p is
    None.
    """
    normals, uniforms = streams
    eps = normals.standard_normal()
    u = uniforms.random()
    log_u = float(np.log(u)) if u > 0.0 else -math.inf
    n = state.step + 1
    theta = state.theta

    # u < min(1, ratio) in log space; an off-support proposal has
    # log_ratio = -inf and is always rejected.
    y = state.x + theta * eps
    xi = 1 if log_u < target.log_density(y) - target.log_density(state.x) else 0
    if bernoulli_first:
        x_new = state.x + theta * (xi * eps)
    else:
        x_new = y if xi else state.x

    if config.p is not None:
        theta = float(theta * np.exp((xi - config.p) / math.sqrt(n)))
    return ChainState(x_new, theta, xi, n)


class Scripted:
    """Stand-in stream feeding predetermined draws, normal or uniform."""

    def __init__(self, values):
        self._values = iter(values)

    def standard_normal(self):
        return next(self._values)

    random = standard_normal


def scripted_streams(normals, uniforms):
    """A chain's normal and uniform streams, scripted for amcmc_step."""
    return Scripted(normals), Scripted(uniforms)


def test_accepted_step_updates_scale_and_position():
    # tiny proposal from the mode is near-certain to be accepted
    config = AdaptiveConfig(p=0.238, theta0=2.0, n_samples=10)
    state = ChainState(x=0.0, theta=2.0, xi=0, step=3)
    rng = scripted_streams([0.1], [0.5])
    new = amcmc_step(state, config, NORMAL, rng)
    assert new.xi == 1
    assert new.x == pytest.approx(0.2)
    assert new.step == 4
    assert new.theta == pytest.approx(2.0 * math.exp((1 - 0.238) / 2.0), rel=1e-15)
    assert new.theta == pytest.approx(2.9275, abs=1e-4)


def test_rejected_step_shrinks_scale_only():
    config = AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10)
    state = ChainState(x=0.0, theta=1.0, xi=1, step=99)
    rng = scripted_streams([10.0], [0.9])  # ratio exp(-50) vs u = 0.9
    new = amcmc_step(state, config, NORMAL, rng)
    assert new.xi == 0
    assert new.x == 0.0
    assert new.theta == pytest.approx(math.exp(-0.05), rel=1e-15)


def test_acceptance_probability_boundary():
    # from the mode, proposing y = 1 is accepted with probability exp(-1/2)
    config = AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10)
    state = ChainState(x=0.0, theta=1.0, xi=0, step=0)
    threshold = math.exp(-0.5)
    accepted = amcmc_step(state, config, NORMAL, scripted_streams([1.0], [threshold - 1e-12]))
    rejected = amcmc_step(state, config, NORMAL, scripted_streams([1.0], [threshold + 1e-12]))
    assert accepted.xi == 1
    assert rejected.xi == 0


def test_off_support_proposal_is_rejected():
    config = AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10)
    state = ChainState(x=1.0, theta=1.0, xi=0, step=0)
    new = amcmc_step(state, config, make_target("exp"), scripted_streams([-5.0], [1e-300]))
    assert new.xi == 0
    assert new.x == 1.0


def oracle_chain(target, config, bernoulli_first=False) -> ChainTrajectory:
    """A config's chain from its x0: amcmc_step, under the formulation
    bernoulli_first picks, stepped by hand n_samples times on
    chain_streams(seed)."""
    n = config.n_samples
    streams = chain_streams(config.seed)
    state = ChainState(config.x0, config.theta0, 0, 0)
    chain = ChainTrajectory(np.empty(n), np.empty(n), np.empty(n, dtype=np.int8))
    for i in range(n):
        state = amcmc_step(state, config, target, streams, bernoulli_first)
        chain.x[i], chain.theta[i], chain.xi[i] = state.x, state.theta, state.xi
    return chain


def chain_bytes(chain):
    """A trajectory's (x, theta, xi) bytes."""
    return chain.x.tobytes(), chain.theta.tobytes(), chain.xi.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(TARGET_KINDS),
    seed=st.integers(0, 2**63),
    p=st.one_of(st.none(), st.floats(0.05, 0.95)),
    theta0=st.floats(0.01, 50.0),
    x0=st.floats(-5.0, 5.0),
    n=st.one_of(st.integers(1, 400),
                st.sampled_from((STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + 7))),
)
def test_shared_loop_matches_amcmc_step_oracle(kind, seed, p, theta0, x0, n):
    # a chain run alone, and a batch that mixes fixed-scale (None) and
    # adaptive benchmarks as a grid block does: amcmc_step, stepped by hand
    # on a chain's two streams, is the scalar oracle of each.  A negative
    # x0 starts exp off its support.
    target = make_target(kind)
    config = AdaptiveConfig(p=p, theta0=theta0, x0=x0, n_samples=n, seed=seed)
    block = [config, replace(config, seed=seed + 1, theta0=theta0 / 2, p=None),
             replace(config, seed=seed + 2, theta0=2 * theta0, p=0.3)]
    trajectories = run_chains(target, [config]) + run_chains(target, block)
    for trajectory, chain in zip(trajectories, block[:1] + block):
        assert chain_bytes(trajectory) == chain_bytes(oracle_chain(target, chain))


@pytest.mark.parametrize("n", [1, STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1,
                               2 * STEP_CHUNK + 7])
@pytest.mark.parametrize("embedded", [False, True])
@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_retuning_factor_tables_match_the_scalar_oracles(kind, embedded, n):
    # run_chains builds both retuning factors of every step of a chunk up
    # front, 1.0 for a fixed scale; a block mixing adaptive and fixed-scale
    # chains, run across the chunk edges, is each chain's scalar loop bit
    # for bit, at benchmarks p and at the 1/n-grid's p_n near 1 (n = 400)
    target = make_target(kind)
    block = [AdaptiveConfig(p=p, theta0=theta0, x0=0.5, n_samples=n, seed=seed)
             for seed, theta0, p in [(11, 1.3, 0.25), (12, 0.4, None), (13, 2.5, 0.7),
                                     (14, 6.0, None)]]
    if embedded:
        block = [replace(c, p=None if c.p is None else embedded_benchmark(c.p, 400))
                 for c in block]
    oracles = [oracle_chain(target, config) for config in block]
    for trajectory, oracle in zip(run_chains(target, block), oracles):
        assert chain_bytes(trajectory) == chain_bytes(oracle)


@pytest.mark.parametrize("burn_in", [1, STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1,
                                     2 * STEP_CHUNK + 6])
def test_x_only_records_from_the_burn_in_on(burn_in):
    # a block that records x from its configs' burn_in on holds the
    # oracle's positions from that step on, bit for bit, whichever chunk the
    # burn-in ends in; a full record of the same block starts at step 0
    target = make_target("cauchy")
    block = [AdaptiveConfig(p=p, theta0=theta0, x0=0.5, n_samples=2 * STEP_CHUNK + 7,
                            burn_in=burn_in, seed=seed)
             for seed, theta0, p in [(21, 2.38, 0.5), (22, 0.4, None), (23, 10.0, 0.234)]]
    oracles = [oracle_chain(target, config).x.tobytes() for config in block]
    for trajectory, xs in zip(run_chains(target, block, x_only=True), oracles):
        assert trajectory.theta is None and trajectory.xi is None
        assert trajectory.x.tobytes() == xs[8 * burn_in:]
    for trajectory, xs in zip(run_chains(target, block), oracles):
        assert trajectory.x.tobytes() == xs


@pytest.mark.parametrize("burn_in, x_only", [(-1, True), (10, True)])
def test_run_chains_refuses_a_burn_in_it_cannot_record_from(burn_in, x_only):
    # a block records x from its configs' burn_in on: a negative burn-in, or
    # one that leaves no step to record, is refused before any chain runs
    with pytest.raises(ValueError, match="burn_in"):
        run_chains(NORMAL, [AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10, burn_in=burn_in,
                                           seed=1)], x_only=x_only)


@pytest.mark.parametrize("x_only", [False, True])
@pytest.mark.parametrize("field, value", [("n_samples", 11), ("x0", 0.5), ("burn_in", 3)])
def test_run_chains_refuses_configs_that_do_not_share_a_run(field, value, x_only):
    # chains run together share their length, start and burn-in; each brings
    # its own seed, scale and benchmark
    config = AdaptiveConfig(p=0.5, theta0=1.0, n_samples=10, seed=1)
    block = [config, replace(config, seed=2, theta0=2.0, p=None, **{field: value})]
    with pytest.raises(ValueError, match=f"^chains run together must share {field}$"):
        run_chains(NORMAL, block, x_only=x_only)


def _bits(value) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(TARGET_KINDS),
    p=st.one_of(st.none(), st.floats(0.05, 0.95)),
    chains=st.lists(st.tuples(
        st.floats(-5.0, 5.0),  # x: negative starts exp off its support
        st.floats(0.01, 50.0),  # theta
        st.integers(0, 10**6),  # steps taken so far
        st.floats(-6.0, 6.0),  # eps
        st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),  # u
    ), min_size=1, max_size=40),
)
def test_metropolis_step_matches_amcmc_step_oracle(kind, p, chains):
    # the batch kernel plus the runner's gain update (none at a fixed scale,
    # p None), fed the draws that amcmc_step reads from its streams, gives
    # its states bit for bit
    target = make_target(kind)
    x, theta, step, eps, u = (np.array(column, float) for column in zip(*chains))
    y, _, _, accept = out = (*np.empty((3, len(chains))), np.empty(len(chains), bool))
    with np.errstate(invalid="ignore", divide="ignore"):
        lp_x = target.log_density(x)
        # a first step on the same buffers, from other draws: none of its
        # values may leak into the step checked below
        metropolis_step(x, lp_x, 2.0 * theta, -eps, np.log(1.0 - u), target, out)
        metropolis_step(x, lp_x, theta, eps, np.log(u), target, out)
    x_new = np.where(accept, y, x)
    theta_new = theta if p is None else theta * np.exp((accept - p) / np.sqrt(step + 1))
    config = AdaptiveConfig(p=p, theta0=1.0, n_samples=1)
    for c, (x0, theta0, n, e, v) in enumerate(chains):
        state = amcmc_step(ChainState(x0, theta0, 0, n), config, target,
                           scripted_streams([e], [v]))
        assert state.xi == accept[c]
        assert _bits(state.x) == _bits(x_new[c])
        assert _bits(state.theta) == _bits(theta_new[c])
