"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import concurrent.futures
import math
import os
import time

import numpy as np
import pytest

from amcmc_lab import (
    AdaptiveConfig,
    EulerConfig,
    EvalPoint,
    drift,
    ks_pvalue,
    ks_statistic,
    limit_coefficient,
    make_target,
    run_chains,
    run_ensembles,
)
from amcmc_lab.cli import main
from amcmc_lab.coeffs import COEFF_KINDS, simulate_moments
from amcmc_lab.sde import SQRT_2PI
from amcmc_lab.seeding import child_seed, stream_rng
from amcmc_lab.stats import chain_summary

from test_chains import oracle_chain
from test_sde import SdeState, euler_step

SEEDS_11 = tuple(range(11))
SEEDS_10 = tuple(range(10))

COEFF_X = {"normal": (-1.0, 0.5, 2.0), "cauchy": (-1.0, 0.5, 2.0),
           "t2": (-1.0, 0.5, 2.0), "exp": (0.5, 1.0, 2.0)}
COEFF_THETA = (0.5, 1.0, 2.0)
COEFF_N = 1_000_000
COEFF_DRAWS = 1_000_000
KS_STRIDE = 10


def report(number: int, label: str, ok: bool, detail: str, elapsed: float) -> str:
    line = (f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} "
            f"({detail}) [{elapsed:.1f}s]")
    print(line, flush=True)
    return line


def median(values) -> float:
    return float(np.median(np.asarray(values, float)))


def thinned_ks_pvalue(chain, target, burn_in: int) -> float:
    """KS p-value of every KS_STRIDE-th retained draw of a chain.

    ks_pvalue assumes independent draws.  Consecutive states of a
    random-walk chain are not: the (2.38, 0.25) normal cell has an
    integrated autocorrelation time of about 6, so the p-value of all 9000
    retained draws sits near 1e-4 on a correct chain.  A stride of about
    1.6 autocorrelation times brings the test close to its nominal size.
    """
    thinned = np.asarray(chain, float)[burn_in::KS_STRIDE]
    return ks_pvalue(ks_statistic(thinned, target), thinned.size)


def test_criterion_1_coefficient_limits():
    start = time.monotonic()
    failures = []
    cell = 0
    for kind_name in ("normal", "cauchy", "t2", "exp"):
        target = make_target(kind_name)
        for x in COEFF_X[kind_name]:
            for theta in COEFF_THETA:
                point = EvalPoint(x=x, theta=theta, p=0.5, target=target)
                seed = child_seed(0, cell)
                cell += 1
                # B2 on cauchy takes four times COEFF_DRAWS
                estimates = simulate_moments(point, COEFF_N, COEFF_DRAWS, seed)
                for kind in COEFF_KINDS:
                    est = estimates[kind]
                    limit = limit_coefficient(kind, point)
                    gap = abs(est.estimate - limit)
                    if kind in ("A22", "A12"):
                        ok = abs(est.estimate) <= max(4 * est.std_error, 1e-2)
                    else:
                        ok = gap <= 4 * est.std_error
                    if not ok:
                        failures.append(
                            f"{kind}/{kind_name}/x={x}/theta={theta}: "
                            f"est={est.estimate:.5g} limit={limit:.5g} "
                            f"se={est.std_error:.3g}")
    elapsed = time.monotonic() - start
    detail = f"180 cells, {len(failures)} outside tolerance"
    if failures:
        detail += "; " + "; ".join(failures[:4])
    line = report(1, "coefficient limits", not failures and elapsed < 300, detail, elapsed)
    assert not failures, line
    assert elapsed < 300, line


def test_criterion_2_spot_numeric_checks():
    start = time.monotonic()
    b_x, b_theta = drift(make_target("normal"), SdeState(1.0, 2.0), p=0.5)
    expected_theta_drift = 2.0 * (0.5 - 2.0 / SQRT_2PI)
    drift_ok = (abs(b_x - (-2.0)) <= 1e-12
                and abs(b_theta - expected_theta_drift) <= 1e-12)
    point = EvalPoint(x=1.0, theta=1.0, p=0.5, target=make_target("normal"))
    b2 = limit_coefficient("B2", point)
    b2_ok = abs(b2 - (0.5 - 1.0 / SQRT_2PI)) <= 1e-6
    elapsed = time.monotonic() - start
    line = report(2, "spot numeric checks", drift_ok and b2_ok,
                  f"drift=({b_x:.12f}, {b_theta:.12f}), B2 limit={b2:.9f}", elapsed)
    assert drift_ok and b2_ok, line


def test_criterion_3_discrete_reference_bands():
    start = time.monotonic()
    normal = make_target("normal")
    t2 = make_target("t2")
    common = dict(n_samples=10_000, burn_in=1_000)
    adaptive = [AdaptiveConfig(p=0.25, theta0=2.38, seed=seed, **common) for seed in SEEDS_11]
    # seeds 0-10 at fixed scale 0.10, then at fixed scale 2.38
    fixed = [AdaptiveConfig(p=None, theta0=theta0, seed=seed, **common)
             for theta0 in (0.10, 2.38) for seed in SEEDS_11]
    chains = run_chains(normal, adaptive + fixed)
    slow, tuned = chains[11:22], chains[22:]
    adaptive_p = [thinned_ks_pvalue(chain.x, normal, 1_000) for chain in chains[:11]]
    # negative controls for the thinned p-value: a chain that mixes too
    # slowly, and a correct chain scored against the wrong target
    standard_p = [thinned_ks_pvalue(chain.x, normal, 1_000) for chain in slow]
    t2_p = [thinned_ks_pvalue(chain.x, normal, 1_000) for chain in run_chains(t2, adaptive)]
    standard_d = [chain_summary(chain.x, normal, 1_000).d for chain in slow]
    standard_esjd = [chain_summary(chain.x, normal, 1_000).esjd for chain in tuned]
    n_thinned = len(range(1_000, 10_000, KS_STRIDE))
    med_p = median(adaptive_p)
    med_d = median(standard_d)
    med_e = median(standard_esjd)
    med_control = {"standard(0.10)": median(standard_p),
                   "adaptive(2.38,0.25) on t2": median(t2_p)}
    ok_p = med_p > 0.01
    ok_control = all(value < 0.01 for value in med_control.values())
    ok_d = med_d > 0.05
    ok_e = 0.5 <= med_e <= 0.9
    elapsed = time.monotonic() - start
    detail = (f"adaptive(2.38,0.25) median_p={med_p:.3g} need>0.01 "
              f"{'ok' if ok_p else 'FAIL'} (every {KS_STRIDE}th retained draw, "
              f"{n_thinned} draws); controls "
              + ", ".join(f"{name} median_p={value:.3g}"
                          for name, value in med_control.items())
              + f" need<0.01 {'ok' if ok_control else 'FAIL'}; "
              f"standard(0.10) median_D={med_d:.4f} "
              f"{'ok' if ok_d else 'FAIL'}; standard(2.38) median_ESJD={med_e:.4f} "
              f"{'ok' if ok_e else 'FAIL'}")
    line = report(3, "discrete reference bands",
                  ok_p and ok_control and ok_d and ok_e and elapsed < 120,
                  detail, elapsed)
    assert ok_d, line
    assert ok_e, line
    assert elapsed < 120, line
    assert ok_p, line
    assert ok_control, line


def test_criterion_4_heavy_tail_ordering():
    start = time.monotonic()
    wins = {}
    for kind_name in ("cauchy", "t2"):
        target = make_target(kind_name)
        common = dict(theta0=0.10, n_samples=10_000, burn_in=1_000)
        chains = run_chains(target, [AdaptiveConfig(p=p, seed=seed, **common)
                                     for p in (0.5, None) for seed in SEEDS_11])
        count = 0
        for adaptive, standard in zip(chains[:11], chains[11:]):
            d_adaptive = chain_summary(adaptive.x, target, 1_000).d
            d_standard = chain_summary(standard.x, target, 1_000).d
            count += d_adaptive < d_standard
        wins[kind_name] = count
    ok = all(count >= 9 for count in wins.values())
    elapsed = time.monotonic() - start
    line = report(4, "heavy-tail ordering", ok,
                  f"adaptive beats standard in {wins['cauchy']}/11 (cauchy), "
                  f"{wins['t2']}/11 (t2); need >=9", elapsed)
    assert ok, line


def test_criterion_5_sde_reference_bands():
    start = time.monotonic()
    normal = make_target("normal")
    cauchy = make_target("cauchy")
    configs = [EulerConfig(h=0.0005, horizon_t=1.0, p=5.0, theta0=1.0, n_paths=1000,
                           seed=seed) for seed in SEEDS_11]
    p_values = [ks_pvalue(ks_statistic(result.x_t, normal), 1000)
                for result in run_ensembles(normal, configs)]
    med_p = median(p_values)
    ok_normal = med_p > 0.01

    configs = ([EulerConfig(h=0.01, horizon_t=1.0, p=2.75, theta0=1.0, n_paths=1000,
                            seed=seed) for seed in SEEDS_11]
               + [EulerConfig(h=0.01, horizon_t=1.0, p=None, theta0=1.0, n_paths=1000,
                              seed=1000 + seed) for seed in SEEDS_11])
    d = [ks_statistic(result.x_t, cauchy) for result in run_ensembles(cauchy, configs)]
    adaptive_d, standard_d = d[:11], d[11:]
    med_adaptive = median(adaptive_d)
    med_standard = median(standard_d)
    ok_cauchy = med_adaptive < med_standard
    elapsed = time.monotonic() - start
    detail = (f"normal h=5e-4 p=5 median_p={med_p:.3g} need>0.01 "
              f"{'ok' if ok_normal else 'FAIL'}; cauchy h=0.01 adaptive_D="
              f"{med_adaptive:.4f} vs standard_D={med_standard:.4f} "
              f"{'ok' if ok_cauchy else 'FAIL'}")
    line = report(5, "sde reference bands",
                  ok_normal and ok_cauchy and elapsed < 180, detail, elapsed)
    assert ok_normal, line
    assert ok_cauchy, line
    assert elapsed < 180, line


def test_criterion_6_ou_stationary_variance():
    start = time.monotonic()
    normal = make_target("normal")
    counts, horizons = {}, {}
    for theta in (0.5, 1.0, 2.38):
        # The fixed-scale step at (theta, h, T) has the law of the theta = 1
        # step at (h * theta^2, T * theta^2), so every leg gets the theta = 2.38
        # leg's theta^2 T ~ 1133: the time-average variance then has the same
        # spread (sd ~ sqrt(8 / (theta^2 T))) for every theta.
        cfg = EulerConfig(h=0.01, horizon_t=200.0 * (2.38 / theta) ** 2, p=None,
                          theta0=theta, n_paths=1, seed=0)
        horizons[theta] = cfg.horizon_t
        n_steps = cfg.n_steps
        xs = np.empty((len(SEEDS_10), n_steps))
        state = SdeState(np.zeros(len(SEEDS_10)), np.full(len(SEEDS_10), theta))
        z = np.stack([stream_rng(seed).standard_normal(n_steps) for seed in SEEDS_10])
        for i in range(n_steps):
            state = euler_step(normal, state, cfg, z[:, i])
            xs[:, i] = state.x
        second_half = xs[:, n_steps // 2:]
        variances = second_half.var(axis=1)
        counts[theta] = int(np.count_nonzero((variances >= 0.85) & (variances <= 1.15)))
    ok = all(count >= 8 for count in counts.values())
    elapsed = time.monotonic() - start
    detail = ", ".join(f"theta={theta} T={horizons[theta]:.1f}: {count}/10 in [0.85,1.15]"
                       for theta, count in counts.items()) + "; need >=8 each"
    line = report(6, "OU stationary variance", ok, detail, elapsed)
    assert ok, line


def test_criterion_7_exactness_properties():
    start = time.monotonic()
    problems = []

    # 7a: formulation equivalence on 100 random configurations
    meta = stream_rng(777)
    kinds = ("normal", "cauchy", "t2", "exp")
    for i in range(100):
        kind_name = kinds[int(meta.integers(len(kinds)))]
        target = make_target(kind_name)
        x0 = float(meta.uniform(0.2, 3.0) if kind_name == "exp" else meta.uniform(-2, 2))
        common = dict(p=float(meta.uniform(0.05, 0.95)),
                      theta0=float(meta.uniform(0.1, 5.0)),
                      x0=x0,
                      n_samples=int(meta.integers(50, 300)),
                      seed=int(meta.integers(1 << 32)))
        (a,) = run_chains(target, [AdaptiveConfig(**common)])
        b = oracle_chain(target, AdaptiveConfig(**common), bernoulli_first=True)
        if not (np.array_equal(a.x, b.x) and np.array_equal(a.theta, b.theta)
                and np.array_equal(a.xi, b.xi)):
            problems.append(f"formulations diverge on config {i}")
            break

    # 7b: diminishing-adaptation bound on 100 random adaptive runs, in one batch
    meta = stream_rng(778)
    configs = [AdaptiveConfig(p=float(meta.uniform(0.05, 0.95)),
                              theta0=float(meta.uniform(0.1, 5.0)),
                              n_samples=400, seed=int(meta.integers(1 << 32)))
               for _ in range(100)]
    trajectories = run_chains(make_target("normal"), configs)
    for i, (config, trajectory) in enumerate(zip(configs, trajectories)):
        log_theta = np.log(np.concatenate([[config.theta0], trajectory.theta]))
        bound = max(config.p, 1 - config.p) / np.sqrt(np.arange(1, 401))
        if not np.all(np.abs(np.diff(log_theta)) <= bound * (1 + 1e-9)):
            problems.append(f"adaptation bound violated on run {i}")
            break

    # 7c: KS p-value against a high-precision series evaluation
    import mpmath as mp
    mp.mp.dps = 40

    def pvalue_oracle(d, m):
        lam = mp.sqrt(m) * mp.mpf(d)
        total = mp.mpf(0)
        for k in range(1, 400):
            total += (-1) ** (k - 1) * mp.exp(-2 * k * k * lam * lam)
        return float(min(mp.mpf(1), max(mp.mpf(0), 2 * total)))

    worst = 0.0
    for d in (0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5):
        for m in (10, 100, 1000, 9000, 100000):
            worst = max(worst, abs(ks_pvalue(d, m) - pvalue_oracle(d, m)))
    if worst > 1e-10:
        problems.append(f"ks_pvalue off by {worst:.2e} from the series oracle")

    # 7d: KS statistic against a brute-force double-loop ECDF oracle
    from test_stats import ks_brute_force
    meta = stream_rng(779)
    for i in range(100):
        kind_name = kinds[int(meta.integers(len(kinds)))]
        target = make_target(kind_name)
        size = int(meta.integers(1, 41))
        sample = meta.standard_normal(size) * float(meta.uniform(0.5, 3.0))
        if meta.random() < 0.3:
            sample = np.round(sample)  # force ties
        d_fast = ks_statistic(sample, target)
        d_slow = ks_brute_force(list(sample), target.cdf)
        if abs(d_fast - d_slow) > 1e-12:
            problems.append(f"ks_statistic disagrees with oracle on sample {i}")
            break

    elapsed = time.monotonic() - start
    detail = "equivalence, adaptation bound, p-value series, ECDF oracle all exact" \
        if not problems else "; ".join(problems)
    line = report(7, "exactness properties", not problems, detail, elapsed)
    assert not problems, line


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    start = time.monotonic()
    pools = []  # the keyword arguments of each process pool a run opens

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    outputs = {}
    for name, args in {
        "discrete": ["discrete", "--target", "normal", "--theta0", "1.0",
                     "--theta0", "2.38", "--p", "0.5", "--n-samples", "500",
                     "--burn-in", "50", "--replicates", "2", "--seed", "11"],
        "sde": ["sde", "--target", "normal", "--h", "0.01", "--p", "2.0",
                "--paths", "50", "--horizon", "0.2", "--replicates", "2",
                "--seed", "11"],
    }.items():
        payloads = []
        pools.clear()
        for run, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"{name}_{run}.csv"
            code = main(args + ["--workers", workers, "--out", str(out)])
            assert code == 0
            payloads.append(out.read_bytes())
        # the --workers 2 run, and only it, opens a pool of two processes
        # (a one-core host runs every block in the calling process)
        two = pools == [{"max_workers": 2}] or os.cpu_count() == 1
        outputs[name] = (payloads[0] == payloads[1], payloads[0] == payloads[2] and two)
    ok = all(repeat and parallel for repeat, parallel in outputs.values())
    elapsed = time.monotonic() - start
    detail = ", ".join(
        f"{name}: repeat={'ok' if repeat else 'FAIL'} "
        f"parallel={'ok' if parallel else 'FAIL'}"
        for name, (repeat, parallel) in outputs.items())
    line = report(8, "CLI determinism", ok, detail, elapsed)
    assert ok, line
