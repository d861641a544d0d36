"""Workload table of the benchmark.

Each workload is a closed loop: one caller runs its CLI invocations back to
back with ``--workers 1`` in a fresh process.  Job and work counts are
written out here from the reference grids in ``experiments.py``, not read
from the program, so a grid that silently changes fails the row-count gate
instead of rescaling the throughput.  Why each workload was chosen is
recorded in ``BENCHMARK.json``.
"""

from dataclasses import dataclass

ROWS_PER_COEFF_POINT = 5  # one row per kind: B1, B2, A11, A22, A12


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what it must produce."""

    argv: tuple
    target: str
    jobs: int  # cells x replicates, or coeff evaluation points
    work: int  # chain-steps, path-steps or transitions


@dataclass(frozen=True)
class Workload:
    calls: tuple
    smoke_calls: tuple  # same modes and code paths on smaller grids
    # Per-step target paths the workload runs, each with the element count it
    # runs them at; they are micro-timed at that shape, the others read 0.
    micro: dict
    # Kinds of work the workload spends its time on; their kernels in
    # calibrate.py give the host's slowness for it.
    kinds: tuple

    def plan(self, smoke: bool) -> tuple:
        return self.smoke_calls if smoke else self.calls


def _path_steps(paths: int, ensembles_per_h: dict) -> int:
    # Euler runs to T=1 take 1/h steps; every mesh used here divides 1.
    return paths * sum(round(1.0 / h) * count for h, count in ensembles_per_h.items())


def _discrete(target: str, extra: tuple, chains: int, steps: int) -> Call:
    argv = ("discrete", "--target", target, "--replicates", "1") + extra
    return Call(argv, target, chains, chains * steps)


def _sde(target: str, extra: tuple, paths: int, ensembles_per_h: dict) -> Call:
    argv = ("sde", "--target", target, "--replicates", "1") + extra
    return Call(argv, target, sum(ensembles_per_h.values()), _path_steps(paths, ensembles_per_h))


def _coeff(extra: tuple, points: int, draws: int) -> Call:
    argv = ("coeff", "--target", "cauchy", "--draws", str(draws)) + extra
    # the heavy-tailed cauchy B2 moment draws four times the budget
    return Call(argv, "cauchy", points, points * 5 * draws)


# Reference grids: 6 theta0 x (4 adaptive p + 1 standard arm) chains of 1e4
# steps; sde ensembles per mesh h are the adaptive (h, p) cells plus one
# standard arm; coeff points are 3 x by 3 theta by 3 n.
_SDE_CAUCHY = {1e-4: 3 + 1, 5e-4: 5 + 1, 1e-3: 4 + 1, 5e-3: 5 + 1, 1e-2: 7 + 1}
_SDE_EXP = {1e-4: 5 + 1, 5e-4: 7 + 1, 1e-3: 3 + 1, 5e-3: 3 + 1, 1e-2: 3 + 1}

_SMOKE_DISCRETE = ("--theta0", "1.0", "--theta0", "10.0", "--p", "0.25", "--p", "0.5",
                   "--n-samples", "2000", "--burn-in", "200")
_SMOKE_SDE = ("--h", "0.001", "--h", "0.01", "--p", "2.0", "--p", "5.0", "--paths", "200")
_SMOKE_SDE_GRID = {1e-3: 2 + 1, 1e-2: 2 + 1}

WORKLOADS = {
    "discrete": Workload(
        calls=(_discrete("normal", (), 30, 10_000), _discrete("exp", (), 30, 10_000)),
        smoke_calls=(_discrete("normal", _SMOKE_DISCRETE, 6, 2000),
                     _discrete("exp", _SMOKE_DISCRETE, 6, 2000)),
        # one scalar call per chain step; KS on the 9000 retained draws
        micro={"targets.log_density_scalar_ns": 1, "targets.cdf_ns_per_elem": 9000},
        kinds=("scalar",),  # a chain step is numpy-scalar arithmetic
    ),
    "sde": Workload(
        calls=(_sde("cauchy", (), 1000, _SDE_CAUCHY), _sde("exp", (), 1000, _SDE_EXP)),
        smoke_calls=(_sde("cauchy", _SMOKE_SDE, 200, _SMOKE_SDE_GRID),
                     _sde("exp", _SMOKE_SDE, 200, _SMOKE_SDE_GRID)),
        # one score call per Euler step over the paths; KS on the final X
        micro={"targets.score_ns_per_elem": 1000, "targets.cdf_ns_per_elem": 1000},
        # Euler steps on 1000-wide arrays; one seeded stream per path
        kinds=("small_array", "scalar"),
    ),
    "coeff": Workload(
        calls=(_coeff((), 27, 1_000_000),),
        smoke_calls=(_coeff(("--x", "0.5", "--x", "2.0", "--theta0", "1.0"), 6, 200_000),),
        # one array call per batch of transitions
        micro={"targets.log_density_ns_per_elem": 1 << 19},
        kinds=("big_array",),  # transitions in 2^19-element batches
    ),
}
