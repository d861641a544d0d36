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
replicate), and rows are emitted in sorted coordinate order, so output is
byte-identical no matter how many workers execute the grid.
"""

import contextlib
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .chains import AdaptiveConfig, run_amcmc, run_smcmc
from .coeffs import COEFF_KINDS, CoeffRow, EvalPoint, coeff_row, simulate_moments
from .sde import EulerConfig, run_ensembles
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

# Paths of same-h ensembles advanced as one array: bounds a block's memory
# (about 34 MB of increment buffer at 8192 paths) on the default
# 11-replicate grid, whose widest mesh holds 44 000 paths.
SDE_BLOCK_PATHS = 8192

COEFF_THETA_GRID = (0.5, 1.0, 2.0)
COEFF_X_GRIDS = {
    "normal": (-1.0, 0.5, 2.0),
    "cauchy": (-1.0, 0.5, 2.0),
    "t2": (-1.0, 0.5, 2.0),
    "exp": (0.5, 1.0, 2.0),
}
COEFF_N_GRID = (100, 10_000, 1_000_000)
CAUCHY_B2_DRAW_FACTOR = 4


def default_sde_cells(target: str):
    """Flat (h, p) adaptive cells of the reference grid for a target."""
    return tuple((h, p) for h, ps in SDE_CELL_GRIDS[target] for p in ps)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully pinned experiment grid; see the mode-specific runners."""

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
    theta0: float = 1.0
    x0: float = None
    seed: int = 0
    replicates: int = 11
    arm: str = "both"
    ks_correction: str = "none"
    boundary_mode: str = "reflect"
    workers: int = 1

    def effective_x0(self) -> float:
        if self.x0 is not None:
            return self.x0
        if self.mode == "sde" and self.target == "exp":
            return 1.0
        return 0.0


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


def _map_jobs(fn, payloads, workers: int):
    # A pool starts every worker up front: never more than there are jobs
    # or cores to run them.
    workers = min(workers, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(payload) for payload in payloads]
    chunk = max(1, len(payloads) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


def _p_key(p):
    return math.inf if p is None else p


@dataclass(frozen=True)
class Job:
    """One cell x replicate of a grid: its row coordinates and seeded config."""

    target: str
    arm: str
    group: float  # theta0 (discrete) or h (sde)
    p: float  # None on the standard arm
    seed: int  # the spec's seed, as the row reports it
    replicate: int
    ks_correction: str
    config: object  # AdaptiveConfig or EulerConfig, seeded for this replicate


def _jobs(spec: ExperimentSpec, cells, make_config):
    """Jobs of (arm, group, p) cells in coordinate order, every replicate.

    The config of replicate r of the idx-th cell in that order is seeded
    with child_seed(spec.seed, idx, r).
    """
    return [
        Job(spec.target, arm, group, p, spec.seed, rep, spec.ks_correction,
            make_config(arm, group, p, child_seed(spec.seed, idx, rep)))
        for idx, (arm, group, p) in enumerate(
            sorted(cells, key=lambda c: (c[1], c[0], _p_key(c[2]))))
        for rep in range(spec.replicates)
    ]


def run_chain(job: Job):
    """The chain of a discrete job: adaptive or fixed-scale as its arm says."""
    run = run_amcmc if job.arm == "adaptive" else run_smcmc
    return run(job.config, make_target(job.target))


# Job functions are module-level so they can cross a process boundary.

def _discrete_job(job: Job) -> DiscreteRow:
    target = make_target(job.target)
    summary = chain_summary(run_chain(job).x, target, job.config.burn_in, job.ks_correction)
    return DiscreteRow(job.target, "discrete", job.arm, job.group, job.p, job.seed,
                       job.replicate, summary.d, summary.p_value, summary.esjd)


def _sde_block(jobs) -> list:
    """Rows of consecutive same-h jobs, whose ensembles run as one array."""
    target = make_target(jobs[0].target)
    results = run_ensembles(target, [job.config for job in jobs])
    rows = []
    for job, result in zip(jobs, results):
        d = ks_statistic(result.x_t, target)
        p_value = ks_pvalue(d, job.config.n_paths, job.ks_correction)
        rows.append(SdeRow(job.target, "sde", job.arm, job.group, job.p, job.seed,
                           job.replicate, d, p_value, result.theta_t_mean))
    return rows


def discrete_jobs(spec: ExperimentSpec):
    """One job per (theta0, p) adaptive cell and per theta0 standard cell,
    per replicate."""
    _common_checks(spec)
    if spec.mode != "discrete":
        raise ValueError("spec.mode must be 'discrete'")
    theta0_grid = tuple(sorted(set(spec.theta0_grid))) or DISCRETE_THETA0_GRID
    p_grid = tuple(sorted(set(spec.p_grid))) or DISCRETE_P_GRIDS[spec.target]
    # The configs check every other value; the standard arm's never see p.
    if any(not 0.0 < p < 1.0 for p in p_grid):
        raise ValueError("discrete-mode p values must lie in (0, 1)")

    cells = []
    for theta0 in theta0_grid:
        if spec.arm in ("adaptive", "both"):
            cells.extend(("adaptive", theta0, p) for p in p_grid)
        if spec.arm in ("standard", "both"):
            cells.append(("standard", theta0, None))

    def make_config(arm, theta0, p, run_seed):
        return AdaptiveConfig(
            p=p if p is not None else 0.5,  # placeholder; the standard arm ignores p
            theta0=theta0,
            n_samples=spec.n_samples,
            x0=spec.effective_x0(),
            burn_in=spec.burn_in,
            seed=run_seed,
        )

    return _jobs(spec, cells, make_config)


def run_discrete_experiment(spec: ExperimentSpec):
    """One row per job of discrete_jobs(spec), in coordinate order."""
    return _map_jobs(_discrete_job, discrete_jobs(spec), spec.workers)


def sde_jobs(spec: ExperimentSpec):
    """One job per (h, p) adaptive cell and per h standard cell, per replicate."""
    _common_checks(spec)
    if spec.mode != "sde":
        raise ValueError("spec.mode must be 'sde'")
    hp_cells = tuple(sorted(set(spec.hp_cells))) or default_sde_cells(spec.target)
    # The configs check every other value; the standard arm's never see p.
    if any(not 0.0 < p < math.inf for _, p in hp_cells):
        raise ValueError("sde-mode p values must be positive and finite")

    cells = []
    if spec.arm in ("adaptive", "both"):
        cells.extend(("adaptive", h, p) for h, p in hp_cells)
    if spec.arm in ("standard", "both"):
        cells.extend(("standard", h, None) for h in sorted({h for h, _ in hp_cells}))

    def make_config(arm, h, p, run_seed):
        return EulerConfig(
            h=h,
            horizon_t=spec.horizon_t,
            p=p if p is not None else 1.0,  # placeholder; the standard arm ignores p
            theta0=spec.theta0,
            x0=spec.effective_x0(),
            n_paths=spec.n_paths,
            seed=run_seed,
            adaptive=(arm == "adaptive"),
            boundary_mode=spec.boundary_mode,
        )

    return _jobs(spec, cells, make_config)


def _sde_blocks(jobs):
    """Consecutive same-h jobs packed into blocks of at most SDE_BLOCK_PATHS
    paths (one job if a single ensemble is wider); a block is the unit of
    work of one process."""
    blocks = []
    for job in jobs:
        block = blocks[-1] if blocks else None
        if (block and block[0].group == job.group
                and (len(block) + 1) * job.config.n_paths <= SDE_BLOCK_PATHS):
            block.append(job)
        else:
            blocks.append([job])
    return [tuple(block) for block in blocks]


def run_sde_experiment(spec: ExperimentSpec):
    """One row per job of sde_jobs(spec), in coordinate order."""
    blocks = _sde_blocks(sde_jobs(spec))
    return [row for rows in _map_jobs(_sde_block, blocks, spec.workers) for row in rows]


def coeff_draws(spec: ExperimentSpec, kind: str) -> int:
    """Draw budget per kind; the heavy-tailed Cauchy B2 moment gets extra."""
    if spec.target == "cauchy" and kind == "B2":
        return spec.n_draws * CAUCHY_B2_DRAW_FACTOR
    return spec.n_draws


def run_coeff_experiment(spec: ExperimentSpec):
    """Moment estimates with limits and z-scores over (x, theta) x n grids."""
    _common_checks(spec)
    if spec.mode != "coeff":
        raise ValueError("spec.mode must be 'coeff'")
    x_grid = tuple(sorted(set(spec.x_grid))) or COEFF_X_GRIDS[spec.target]
    theta_grid = tuple(sorted(set(spec.theta0_grid))) or COEFF_THETA_GRID
    n_grid = tuple(sorted(set(int(n) for n in spec.n_grid))) or COEFF_N_GRID
    p = spec.p_grid[0] if spec.p_grid else 0.5
    kinds = tuple(spec.kinds) or COEFF_KINDS

    target = make_target(spec.target)
    # Bad points fail here, a bad n or kind in the first simulate_moments call.
    points = [EvalPoint(x=x, theta=theta, p=p, target=target)
              for x in x_grid for theta in theta_grid]
    rows = []
    cell = 0
    for point in points:
        for n in n_grid:
            seed = child_seed(spec.seed, cell)
            by_draws = {}
            for kind in kinds:
                by_draws.setdefault(coeff_draws(spec, kind), []).append(kind)
            estimates = {}
            for draws, group in sorted(by_draws.items()):
                estimates.update(simulate_moments(point, n, draws, seed, tuple(group)))
            rows.extend(coeff_row(point, estimates[kind]) for kind in kinds)
            cell += 1
    rows.sort(key=lambda r: (COEFF_KINDS.index(r.kind), r.x, r.theta, r.n))
    return rows


def run_experiment(spec: ExperimentSpec):
    runner = {
        "discrete": run_discrete_experiment,
        "sde": run_sde_experiment,
        "coeff": run_coeff_experiment,
    }[spec.mode]
    return runner(spec)


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def _header_and_lines(rows, row_type):
    header = _CSV_HEADERS[row_type]
    lines = [header]
    names = [f.name for f in fields(row_type)]
    for row in rows:
        lines.append(",".join(_format_field(getattr(row, name)) for name in names))
    return lines


def emit_csv(rows, destination, row_type=None) -> None:
    """Write homogeneous rows as UTF-8, LF-terminated, comma-separated CSV.

    ``destination`` is a path or a writable text file, written by
    write_lines.  Floats are printed as their shortest round-trip decimals.
    ``row_type`` is only needed for an empty row set, where a header-only
    file is produced.
    """
    rows = list(rows)
    if rows:
        inferred = type(rows[0])
        if row_type is not None and row_type is not inferred:
            raise ValueError("row_type disagrees with the rows")
        row_type = inferred
        if any(type(r) is not row_type for r in rows):
            raise ValueError("rows must all have the same mode")
    elif row_type is None:
        raise ValueError("an empty row set needs an explicit row_type")
    write_lines(_header_and_lines(rows, row_type), destination)


def write_lines(lines, destination) -> None:
    """Write LF-terminated UTF-8 lines to a path or a writable text file.

    A path holds either its previous bytes or the whole new file, never
    part of it: a temp file next to it replaces it only once every byte is
    on disk.
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
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


_HEADER_TYPES = {header: row_type for row_type, header in _CSV_HEADERS.items()}


def _parse_field(row_type, name, text):
    if text == "":
        return None
    kind = {f.name: f.type for f in fields(row_type)}[name]
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


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
    row_type = _HEADER_TYPES[header]
    names = [f.name for f in fields(row_type)]
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"malformed CSV line: {line!r}")
        rows.append(row_type(**{
            name: _parse_field(row_type, name, part)
            for name, part in zip(names, parts)
        }))
    return rows


def print_summary(rows, file=None) -> None:
    """Human-readable per-cell medians, flagging the best p per group.

    ``best_in_group`` marks, within each mesh size (sde) or starting scale
    (discrete), the adaptive cell with the highest median KS p-value.
    """
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
            "d": statistics.median(r.d for r in cell_rows),
            "p_value": statistics.median(r.p_value for r in cell_rows),
            "tail": statistics.median((r.theta_t_mean if sde else r.esjd) for r in cell_rows),
        })
    best = {}
    for entry in summary:
        if entry["arm"] != "adaptive":
            continue
        key = entry["group"]
        if key not in best or entry["p_value"] > best[key]["p_value"]:
            best[key] = entry

    print(f"{group_name:>10} {'p':>8} {'arm':>9} {'D(med)':>10} "
          f"{'p_value(med)':>13} {tail_name:>13} {'best_in_group':>13}", file=out)
    for entry in summary:
        flag = 1 if best.get(entry["group"]) is entry else 0
        p_text = "" if entry["p"] is None else f"{entry['p']:g}"
        print(f"{entry['group']:>10g} {p_text:>8} {entry['arm']:>9} "
              f"{entry['d']:>10.4f} {format_pvalue(entry['p_value']):>13} "
              f"{entry['tail']:>13.4f} {flag:>13}", file=out)


def _print_coeff_summary(rows, out) -> None:
    print(f"{'kind':>5} {'x':>7} {'theta':>6} {'n':>9} {'estimate':>12} "
          f"{'std_error':>11} {'limit':>12} {'z':>8}", file=out)
    for row in rows:
        print(f"{row.kind:>5} {row.x:>7g} {row.theta:>6g} {row.n:>9} "
              f"{row.estimate:>12.6f} {row.std_error:>11.2e} "
              f"{row.limit:>12.6f} {row.z:>8.2f}", file=out)
