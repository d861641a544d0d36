"""Batch experiment runner: grids of chains/ensembles -> diagnostic rows -> CSV.

Three modes mirror the three kinds of study the package supports:

* ``discrete`` -- adaptive chains over a (theta0, p) grid plus a fixed-scale
  arm per theta0, each scored by KS statistic, asymptotic p-value and ESJD
  on the retained samples.
* ``sde``      -- Euler ensembles over (h, p) cells plus a fixed-scale arm
  per mesh size, scored by KS on the terminal sample, with the ensemble
  mean of the terminal tuning parameter.
* ``coeff``    -- Monte-Carlo one-step moment estimates along a resolution
  grid against their analytic limits.

Every cell x replicate owns an RNG stream derived from (seed, cell index,
replicate), except that the adaptive sde cells of one (h, replicate) share
the stream of the mesh's first adaptive cell, so they step on the same
increments.  Rows are emitted in sorted coordinate order, so output is
byte-identical no matter how many workers execute the grid.
"""

import contextlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .chains import AdaptiveConfig, run_chains
# CAUCHY_B2_DRAW_FACTOR is named here for the cli's --draws help
from .coeffs import CAUCHY_B2_DRAW_FACTOR, COEFF_KINDS, CoeffRow, EvalPoint, simulate_moments
from .sde import EULER_CHUNK, EulerConfig, run_ensembles
from .seeding import child_seed
from .stats import chain_summary, format_pvalue, ks_pvalue, ks_statistic
from .targets import TARGET_KINDS, make_target

MODES = ("discrete", "sde", "coeff")
ARMS = ("adaptive", "standard", "both")

DISCRETE_THETA0_GRID = (0.10, 0.25, 1.0, 2.38, 10.0, 20.0)
DISCRETE_P_GRIDS = {
    "normal": (0.10, 0.25, 0.50, 0.75),
    "cauchy": (0.10, 0.234, 0.50, 0.75),
    "t2": (0.10, 0.234, 0.50, 0.75),
    "exp": (0.10, 0.25, 0.50, 0.75),
}

_SDE_CELLS_NORMAL = (
    (0.0001, (1.0, 2.0, 2.5)),
    (0.0005, (4.5, 5.0, 5.5, 6.0)),
    (0.001, (4.0, 5.0, 5.5, 6.0, 6.5, 7.5, 8.0)),
    (0.005, (0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
    (0.01, (1.0, 1.5, 2.0, 3.0)),
)
SDE_CELL_GRIDS = {
    "normal": _SDE_CELLS_NORMAL,
    "t2": _SDE_CELLS_NORMAL,
    "exp": (
        (0.0001, (1.5, 2.0, 2.5, 3.0, 20.0)),
        (0.0005, (2.0, 2.5, 3.0, 3.5, 4.0, 4.25, 4.5)),
        (0.001, (1.5, 2.0, 2.5)),
        (0.005, (5.5, 6.0, 6.5)),
        (0.01, (6.0, 6.5, 7.0)),
    ),
    "cauchy": (
        (0.0001, (5.0, 7.0, 8.0)),
        (0.0005, (3.0, 4.0, 4.5, 6.0, 7.0)),
        (0.001, (0.5, 5.0, 6.0, 7.0)),
        (0.005, (2.0, 2.5, 3.0, 3.5, 4.0)),
        (0.01, (0.5, 1.0, 2.0, 2.5, 2.75, 3.0, 3.5)),
    ),
}

SDE_THETA0_GRID = (1.0,)  # sde mode takes a single theta0

# Paths of same-h ensembles advanced as one array: bounds a block's memory
# on the default 11-replicate grid, whose widest mesh holds 44 000 paths.
# Its two increment buffers hold a row per distinct seed, about 4.2 MB at
# 8192 paths of distinct seeds, and less where adaptive cells share one.
SDE_BLOCK_PATHS = 8192
# Chain-steps of a lockstep block: at most 16 MB of recorded positions.  The
# default 330-chain grid of 10^4 steps packs into blocks of 200 and 130
# chains, wide enough to spread the fixed cost of a step's numpy calls
# (7-9 us a step at width 30, 17-24 us at 200: 0.1 us a chain-step).
DISCRETE_BLOCK_STEPS = 2_000_000
# Bytes of recorded positions of one chain, 8 a step past the burn-in.  A
# longer chain would run alone in a block of its own, so discrete_jobs
# refuses it instead.
DISCRETE_CHAIN_BYTES = 1 << 30
# Bytes of one seed's two chunk buffers of draws, 8 a path per step, in
# run_ensembles: sde_jobs refuses more paths than fit.
SDE_BUFFER_BYTES = 1 << 29
# Jobs of one discrete or sde grid, cells x replicates.  A job costs about
# 0.5 KB and 31 us to build (300 000 took 155 MB and 9.2 s), so 100 000 is
# about 50 MB and 3 s, 300 times the largest reference grid (330 jobs);
# _jobs refuses a larger grid before it builds any job.
MAX_GRID_JOBS = 100_000

COEFF_THETA_GRID = (0.5, 1.0, 2.0)
COEFF_X_GRIDS = {
    "normal": (-1.0, 0.5, 2.0),
    "cauchy": (-1.0, 0.5, 2.0),
    "t2": (-1.0, 0.5, 2.0),
    "exp": (0.5, 1.0, 2.0),
}
COEFF_N_GRID = (100, 10_000, 1_000_000)


def default_sde_cells(target: str):
    """Flat (h, p) adaptive cells of the reference grid for a target."""
    return tuple((h, p) for h, ps in SDE_CELL_GRIDS[target] for p in ps)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully pinned experiment grid; run_experiment runs it."""

    mode: str
    target: str
    theta0_grid: tuple = ()
    p_grid: tuple = ()
    hp_cells: tuple = ()
    x_grid: tuple = ()
    n_grid: tuple = ()
    n_draws: int = 100_000
    kinds: tuple = COEFF_KINDS
    n_samples: int = 10_000
    burn_in: int = 1_000
    n_paths: int = 1_000
    horizon_t: float = 1.0
    x0: float = None
    seed: int = 0
    replicates: int = 11
    arm: str = "both"
    workers: int = 1


@dataclass(frozen=True)
class DiscreteRow:
    target: str
    mode: str
    arm: str
    theta0: float
    p: float
    seed: int
    replicate: int
    d: float
    p_value: float
    esjd: float


@dataclass(frozen=True)
class SdeRow:
    target: str
    mode: str
    arm: str
    h: float
    p: float
    seed: int
    replicate: int
    d: float
    p_value: float
    theta_t_mean: float


_CSV_HEADERS = {
    DiscreteRow: "target,mode,arm,theta0,p,seed,replicate,D,p_value,esjd",
    SdeRow: "target,mode,arm,h,p,seed,replicate,D,p_value,theta_T_mean",
    CoeffRow: "kind,target,x,theta,p,n,estimate,std_error,limit,z",
}


def _common_checks(spec: ExperimentSpec):
    if spec.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if spec.target not in TARGET_KINDS:
        raise ValueError(f"target must be one of {TARGET_KINDS}")
    if spec.replicates < 1:
        raise ValueError("replicates must be at least 1")
    if spec.arm not in ARMS:
        raise ValueError(f"arm must be one of {ARMS}")
    if spec.workers < 1:
        raise ValueError("workers must be at least 1")


def _start(spec: ExperimentSpec) -> float:
    """The grid's x0: spec.x0, by default 0.0, or 1.0 for an exp sde grid.

    It is refused off the target's support: a chain would never reach the
    support from there if its scale shrinks first, and an Euler path's
    drift, the score, is undefined there.  A non-finite x0 is left to the
    configs."""
    x0 = spec.x0
    if x0 is None:
        x0 = 1.0 if spec.mode == "sde" and spec.target == "exp" else 0.0
    if math.isfinite(x0) and not make_target(spec.target).in_support(x0):
        raise ValueError(f"x0={x0} outside the support of the {spec.target} target")
    return x0


def _processes(workers: int) -> int:
    # A pool starts every worker up front: never more than the cores to run them.
    return min(workers, os.cpu_count() or 1)


def _map_jobs(fn, payloads, workers: int):
    # ... and never more than there are jobs.
    workers = min(_processes(workers), len(payloads))
    if workers <= 1:
        return [fn(payload) for payload in payloads]
    # imported here, so that a run that opens no pool never loads the
    # process-pool stack (multiprocessing, subprocess, socket)
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(payloads) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


def _p_key(p):
    return math.inf if p is None else p


@dataclass(frozen=True)
class Job:
    """One cell x replicate of a grid: its row coordinates and seeded config."""

    target: str
    seed: int  # the spec's seed, as the row reports it
    replicate: int
    config: object  # AdaptiveConfig or EulerConfig, seeded for this replicate

    @property
    def arm(self) -> str:
        """The row's arm, read off the config: p None is the fixed scale."""
        return "standard" if self.config.p is None else "adaptive"


def _reject_none_p(ps):
    if any(p is None for p in ps):
        raise ValueError("p None is the fixed scale, which a grid asks for with "
                         "arm='standard', not with a None p")


def _jobs(spec: ExperimentSpec, adaptive_cells, make_config, share=False):
    """Jobs of the spec's arms in coordinate order, every replicate: the
    adaptive (group, p) cells unless spec.arm is 'standard', and unless it
    is 'adaptive' one standard (group, None) cell per group, which sorts last.

    The config of replicate r of the idx-th cell in that order is seeded
    with child_seed(spec.seed, idx, r).  With ``share``, every adaptive cell
    of a group takes the seed of the group's first adaptive cell, so the
    adaptive configs of one (group, r) share a seed and the standard
    config keeps its own.  A grid of more than MAX_GRID_JOBS jobs is
    refused before any is built.
    """
    adaptive_cells = tuple(adaptive_cells)  # read twice: an iterator would be spent
    cells = set() if spec.arm == "standard" else set(adaptive_cells)
    if spec.arm != "adaptive":
        cells.update((group, None) for group, _ in adaptive_cells)
    n_jobs = len(cells) * spec.replicates
    if n_jobs > MAX_GRID_JOBS:
        raise ValueError(f"{len(cells)} cells x {spec.replicates} replicates = {n_jobs} "
                         f"jobs, past the cap of {MAX_GRID_JOBS}")
    first_of = {}  # group: the index of its first adaptive cell
    jobs = []
    for idx, (group, p) in enumerate(sorted(cells, key=lambda c: (c[0], _p_key(c[1])))):
        seed_idx = first_of.setdefault(group, idx) if share and p is not None else idx
        jobs.extend(Job(spec.target, spec.seed, rep,
                        make_config(group, p, child_seed(spec.seed, seed_idx, rep)))
                    for rep in range(spec.replicates))
    return jobs


def _blocks(jobs, size, budget, parts, key=lambda job: None, group=None):
    """Consecutive jobs of equal key packed into blocks of at most budget
    units, each job `size` units (one job if a single job is larger), and
    of at most len(jobs) // parts jobs, so that there are at least `parts`
    blocks for `parts` processes to share whenever there are that many jobs.

    Consecutive jobs of equal ``group`` (each job its own group if None)
    go to one block: a group that does not fit in the last block starts a
    new one, and only a group larger than a block is split, into whole
    blocks and a last part."""
    per_block = max(1, min(budget // size, len(jobs) // parts))
    runs = ([job] for job in jobs) if group is None else (
        list(run) for _, run in itertools.groupby(jobs, group))
    blocks = []
    for run in runs:
        last = blocks[-1] if blocks else []
        if last and len(last) + len(run) <= per_block and key(last[0]) == key(run[0]):
            last.extend(run)
        else:
            blocks.extend(run[i:i + per_block] for i in range(0, len(run), per_block))
    return blocks


def discrete_jobs(spec: ExperimentSpec):
    """One job per (theta0, p) adaptive cell and per theta0 standard cell,
    per replicate."""
    _common_checks(spec)
    if spec.mode != "discrete":
        raise ValueError("spec.mode must be 'discrete'")
    theta0_grid = tuple(sorted(set(spec.theta0_grid))) or DISCRETE_THETA0_GRID
    _reject_none_p(spec.p_grid)
    p_grid = tuple(sorted(set(spec.p_grid))) or DISCRETE_P_GRIDS[spec.target]
    # The configs check every other value; the standard arm's never see p.
    if any(not 0.0 < p < 1.0 for p in p_grid):
        raise ValueError("discrete-mode p values must lie in (0, 1)")
    # a row's ESJD needs two retained draws
    if not 0 <= spec.burn_in <= spec.n_samples - 2:
        raise ValueError("burn_in must leave at least two retained samples "
                         "(0 <= burn_in <= n_samples - 2)")
    x0 = _start(spec)
    recorded = 8 * (spec.n_samples - spec.burn_in)  # a block records from burn_in on
    if recorded > DISCRETE_CHAIN_BYTES:
        raise ValueError(f"n_samples={spec.n_samples} with burn_in={spec.burn_in} would "
                         f"record {recorded} bytes of positions per chain, past the cap "
                         f"of {DISCRETE_CHAIN_BYTES} ({DISCRETE_CHAIN_BYTES // 8} steps)")

    def make_config(theta0, p, run_seed):
        return AdaptiveConfig(
            p=p,
            theta0=theta0,
            n_samples=spec.n_samples,
            x0=x0,
            burn_in=spec.burn_in,
            seed=run_seed,
        )

    return _jobs(spec, itertools.product(theta0_grid, p_grid), make_config)


def sde_jobs(spec: ExperimentSpec):
    """One job per (h, p) adaptive cell and per h standard cell, per
    replicate, in (h, replicate, cell) order: the order run_experiment packs
    them in.  The adaptive jobs of one (h, replicate) share a seed (see
    _jobs), so the ensembles of a block that share it draw its increments
    once."""
    _common_checks(spec)
    if spec.mode != "sde":
        raise ValueError("spec.mode must be 'sde'")
    _reject_none_p(p for _, p in spec.hp_cells)
    hp_cells = tuple(sorted(set(spec.hp_cells))) or default_sde_cells(spec.target)
    if len(spec.theta0_grid) > 1:
        raise ValueError("sde mode takes a single theta0")
    (theta0,) = spec.theta0_grid or SDE_THETA0_GRID
    # The configs check every other value; the standard arm's never see p.
    if any(not 0.0 < p < math.inf for _, p in hp_cells):
        raise ValueError("sde-mode p values must be positive and finite")
    x0 = _start(spec)

    buffer_bytes = 2 * EULER_CHUNK * 8 * spec.n_paths
    if buffer_bytes > SDE_BUFFER_BYTES:
        raise ValueError(f"n_paths={spec.n_paths} would draw into {buffer_bytes} bytes of "
                         f"buffers per seed, past the cap of {SDE_BUFFER_BYTES} "
                         f"({SDE_BUFFER_BYTES // (2 * EULER_CHUNK * 8)} paths)")

    def make_config(h, p, run_seed):
        return EulerConfig(h=h, horizon_t=spec.horizon_t, p=p, theta0=theta0, x0=x0,
                           n_paths=spec.n_paths, seed=run_seed)

    jobs = _jobs(spec, hp_cells, make_config, share=True)
    jobs.sort(key=lambda job: (job.config.h, job.replicate))  # stable: cells stay in order
    return jobs


@dataclass(frozen=True)
class CoeffCell:
    """One (point, n) cell of a coeff grid: the arguments of its one
    simulate_moments call, which sets each kind's draws from n_draws."""

    point: EvalPoint
    n: int
    n_draws: int
    seed: int
    kinds: tuple


def coeff_cells(spec: ExperimentSpec):
    """One cell per (x, theta) point and resolution n, point-major, n-minor.

    The idx-th cell in that order is seeded with child_seed(spec.seed, idx).
    """
    _common_checks(spec)
    if spec.mode != "coeff":
        raise ValueError("spec.mode must be 'coeff'")
    if len(spec.p_grid) > 1:
        raise ValueError("coeff mode takes a single p")
    x_grid = tuple(sorted(set(spec.x_grid))) or COEFF_X_GRIDS[spec.target]
    theta_grid = tuple(sorted(set(spec.theta0_grid))) or COEFF_THETA_GRID
    for n in spec.n_grid:
        if not (isinstance(n, int) or float(n).is_integer()):
            raise ValueError(f"resolution n must be a whole number, got {n!r}")
    n_grid = tuple(sorted(set(int(n) for n in spec.n_grid))) or COEFF_N_GRID
    p = spec.p_grid[0] if spec.p_grid else 0.5
    kinds = tuple(dict.fromkeys(spec.kinds)) or COEFF_KINDS

    target = make_target(spec.target)
    # Bad points fail here, a bad n or kind in the first block.
    points = [EvalPoint(x=x, theta=theta, p=p, target=target)
              for x in x_grid for theta in theta_grid]
    return [CoeffCell(point, n, spec.n_draws, child_seed(spec.seed, idx), kinds)
            for idx, (point, n) in enumerate(itertools.product(points, n_grid))]


# Block functions are module-level so they can cross a process boundary.

def _discrete_block(jobs) -> list:
    """Rows of a run of discrete jobs, whose chains advance in lockstep."""
    target = make_target(jobs[0].target)
    chains = run_chains(target, [job.config for job in jobs], x_only=True)
    rows = []
    for job, chain in zip(jobs, chains):
        # the chain holds the retained draws only
        summary = chain_summary(chain.x, target)
        rows.append(DiscreteRow(job.target, "discrete", job.arm, job.config.theta0,
                                job.config.p, job.seed, job.replicate, summary.d,
                                summary.p_value, summary.esjd))
    return rows


def _sde_block(jobs) -> list:
    """Rows of consecutive same-h jobs, whose ensembles run as one array."""
    target = make_target(jobs[0].target)
    results = run_ensembles(target, [job.config for job in jobs])
    rows = []
    for job, result in zip(jobs, results):
        nan = int(np.isnan(result.x_t).sum())
        if nan:
            p = "" if job.config.p is None else f", p={job.config.p!r}"
            raise ValueError(f"sde cell h={job.config.h!r}, arm={job.arm}{p}: {nan} of "
                             f"{len(result.x_t)} terminal values are NaN (the "
                             "ensemble diverged)")
        d = ks_statistic(result.x_t, target)
        p_value = ks_pvalue(d, job.config.n_paths)
        rows.append(SdeRow(job.target, "sde", job.arm, job.config.h, job.config.p,
                           job.seed, job.replicate, d, p_value, result.theta_t_mean))
    return rows


def _coeff_block(cell: CoeffCell) -> list:
    """Rows of one coeff cell: one simulate_moments call, whose kinds read
    prefixes of the transitions it steps once, n_draws each or more for
    cauchy B2, and whose batches the calling thread shares with one helper
    thread."""
    return list(simulate_moments(cell.point, cell.n, cell.n_draws, cell.seed,
                                 cell.kinds).values())


def run_experiment(spec: ExperimentSpec):
    """The rows of a spec's grid, the same whatever spec.workers is.

    A mode splits its grid into blocks, the unit of work of one process: a
    run of discrete jobs of at most DISCRETE_BLOCK_STEPS chain-steps, a run
    of same-h sde jobs of at most SDE_BLOCK_PATHS paths, or a coeff cell.
    An sde block holds whole (h, replicate) groups, whose adaptive jobs
    share a seed, unless a group alone is wider than a block.
    Discrete and sde grids split into at least as many blocks as there are
    processes to run them (see _blocks).
    Every block is built, and so the grid's input checked, before any of
    them runs; a coeff n or kind is checked in its block, before any draw.
    Discrete and sde rows come in coordinate order, coeff rows kind-major.
    """
    parts = _processes(spec.workers)
    if spec.mode == "discrete":
        blocks = _blocks(discrete_jobs(spec), spec.n_samples, DISCRETE_BLOCK_STEPS, parts)
        run_block = _discrete_block
    elif spec.mode == "sde":
        blocks = _blocks(sde_jobs(spec), spec.n_paths, SDE_BLOCK_PATHS, parts,
                         lambda job: job.config.h, lambda job: (job.config.h, job.replicate))
        run_block = _sde_block
    else:
        blocks, run_block = coeff_cells(spec), _coeff_block
    rows = [row for rows in _map_jobs(run_block, blocks, spec.workers) for row in rows]
    if spec.mode == "sde":
        rows.sort(key=lambda r: (r.h, _p_key(r.p), r.replicate))
    elif spec.mode == "coeff":
        rows.sort(key=lambda r: (COEFF_KINDS.index(r.kind), r.x, r.theta, r.n))
    return rows


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def emit_csv(rows, destination) -> None:
    """Write homogeneous rows as UTF-8, LF-terminated, comma-separated CSV.

    ``destination`` is a path or a writable text file, written by
    write_lines.  Floats are printed as their shortest round-trip decimals.
    Every run yields rows, so an empty row set is refused and nothing is
    written.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    row_class = type(rows[0])
    if any(type(r) is not row_class for r in rows):
        raise ValueError("rows must all have the same mode")
    names = [f.name for f in fields(row_class)]
    lines = [_CSV_HEADERS[row_class]]
    for row in rows:
        lines.append(",".join(_format_field(getattr(row, name)) for name in names))
    write_lines(lines, destination)


def write_lines(lines, destination) -> None:
    """Write LF-terminated UTF-8 lines to a path or a writable text file.

    A path holds either its previous bytes or the whole new file, never
    part of it: a temp file next to it replaces it only once every byte is
    on disk.  A write that fails raises an OSError naming the path.
    """
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    destination = os.fspath(destination)
    directory, name = os.path.split(os.path.abspath(destination))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(temp, destination)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temp)
        if isinstance(exc, OSError):
            # name the file asked for, not its temp file
            raise OSError(exc.errno, exc.strerror, destination) from exc
        raise


_HEADER_TYPES = {header: row_class for row_class, header in _CSV_HEADERS.items()}


def load_csv(source):
    """Read back a CSV produced by emit_csv into typed rows."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0]
    if header not in _HEADER_TYPES:
        raise ValueError(f"unrecognized CSV header: {header!r}")
    row_class = _HEADER_TYPES[header]
    # one converter per column; an empty field reads None
    parsers = [f.type if f.type in (int, float) else str for f in fields(row_class)]
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(parsers):
            raise ValueError(f"malformed CSV line: {line!r}")
        rows.append(row_class(*[parse(part) if part else None
                                for parse, part in zip(parsers, parts)]))
    return rows


def _median(values):
    """statistics.median of a nonempty iterable, without importing it (and
    decimal and fractions with it): the middle value, or the mean of the
    two middle ones."""
    values = sorted(values)
    half = len(values) // 2
    return values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2


def print_summary(rows, file=None) -> None:
    """Human-readable per-cell medians, one line per cell."""
    out = file if file is not None else sys.stdout
    rows = list(rows)
    if not rows:
        print("(no rows)", file=out)
        return
    if isinstance(rows[0], CoeffRow):
        _print_coeff_summary(rows, out)
        return

    sde = isinstance(rows[0], SdeRow)
    group_name = "h" if sde else "theta0"
    tail_name = "theta_T(med)" if sde else "esjd(med)"
    cells = {}
    for row in rows:
        key = ((row.h if sde else row.theta0), row.arm, _p_key(row.p))
        cells.setdefault(key, []).append(row)

    summary = []
    for (group, arm, _), cell_rows in sorted(cells.items()):
        summary.append({
            "group": group,
            "arm": arm,
            "p": cell_rows[0].p,
            "d": _median(r.d for r in cell_rows),
            "p_value": _median(r.p_value for r in cell_rows),
            "tail": _median((r.theta_t_mean if sde else r.esjd) for r in cell_rows),
        })

    print(f"{group_name:>10} {'p':>8} {'arm':>9} {'D(med)':>10} "
          f"{'p_value(med)':>13} {tail_name:>13}", file=out)
    for entry in summary:
        p_text = "" if entry["p"] is None else f"{entry['p']:g}"
        print(f"{entry['group']:>10g} {p_text:>8} {entry['arm']:>9} "
              f"{entry['d']:>10.4f} {format_pvalue(entry['p_value']):>13} "
              f"{entry['tail']:>13.4f}", file=out)


def _print_coeff_summary(rows, out) -> None:
    print(f"{'kind':>5} {'x':>7} {'theta':>6} {'n':>9} {'estimate':>12} "
          f"{'std_error':>11} {'limit':>12} {'z':>8}", file=out)
    for row in rows:
        print(f"{row.kind:>5} {row.x:>7g} {row.theta:>6g} {row.n:>9} "
              f"{row.estimate:>12.6f} {row.std_error:>11.2e} "
              f"{row.limit:>12.6f} {row.z:>8.2f}", file=out)
