"""Command-line harness.

Subcommands:

* ``discrete`` -- adaptive vs fixed-scale chains on a (theta0, p) grid
* ``sde``      -- adaptive vs fixed-scale Euler ensembles on an (h, p) grid
* ``coeff``    -- one-step moment estimates against their analytic limits

Each run prints a summary table to stdout and, with --out, writes the full
per-replicate rows as CSV.  Grids default to the built-in reference grids
for the chosen target; repeatable flags override them.  Every other unset
flag takes ExperimentSpec's default.  Nothing is written unless the whole
grid completes, and the exit code is nonzero on any error.
"""

import argparse
import os
import sys
from dataclasses import fields

from .chains import run_amcmc
from .coeffs import COEFF_KINDS
from .experiments import (
    ARMS,
    ExperimentSpec,
    discrete_jobs,
    emit_csv,
    print_summary,
    run_experiment,
    sde_jobs,
    write_lines,
)
from .sde import BOUNDARY_MODES, run_ensemble
from .targets import TARGET_KINDS, make_target


def _add_common(parser):
    parser.add_argument("--target", choices=TARGET_KINDS, required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="write per-replicate rows as CSV")
    parser.add_argument("--workers", type=int,
                        help="parallel worker processes (output is identical)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI; a flag's dest is the ExperimentSpec field it sets, and an
    unset flag leaves that field at the spec's default."""
    parser = argparse.ArgumentParser(
        prog="amcmc-lab",
        description="Adaptive vs standard MCMC comparison experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    discrete = sub.add_parser("discrete", help="discrete-time chain grid")
    _add_common(discrete)
    discrete.add_argument("--theta0", type=float, action="append", dest="theta0_grid",
                          help="starting proposal scale (repeatable)")
    discrete.add_argument("--p", type=float, action="append", dest="p_grid",
                          help="benchmark acceptance level (repeatable)")
    discrete.add_argument("--n-samples", type=int)
    discrete.add_argument("--burn-in", type=int)
    discrete.add_argument("--x0", type=float)
    discrete.add_argument("--replicates", type=int)
    discrete.add_argument("--arm", choices=ARMS)
    discrete.add_argument("--dump-trajectory", metavar="FILE",
                          help="debug: write step,x,theta,xi for a single-cell grid")

    # --h and --p are crossed into hp_cells; --theta0 is repeatable only so
    # that a second value is refused.
    sde = sub.add_parser("sde", help="Euler ensemble grid")
    _add_common(sde)
    sde.add_argument("--h", type=float, action="append",
                     help="mesh size (repeatable)")
    sde.add_argument("--p", type=float, action="append",
                     help="drift benchmark (repeatable; crossed with --h)")
    sde.add_argument("--theta0", type=float, action="append", dest="theta0_grid")
    sde.add_argument("--x0", type=float)
    sde.add_argument("--paths", type=int, dest="n_paths")
    sde.add_argument("--horizon", type=float, dest="horizon_t")
    sde.add_argument("--replicates", type=int)
    sde.add_argument("--arm", choices=ARMS)
    sde.add_argument("--boundary", choices=BOUNDARY_MODES, dest="boundary_mode",
                     help="support repair for the exponential target")
    sde.add_argument("--dump-terminal", metavar="FILE",
                     help="debug: write the terminal sample of a single-cell "
                          "grid as a one-column CSV")

    coeff = sub.add_parser("coeff", help="one-step moment verification grid")
    _add_common(coeff)
    coeff.add_argument("--kind", choices=COEFF_KINDS, action="append", dest="kinds",
                       help="coefficient kind (repeatable; default all)")
    coeff.add_argument("--x", type=float, action="append", dest="x_grid",
                       help="evaluation point (repeatable)")
    coeff.add_argument("--theta0", type=float, action="append", dest="theta0_grid")
    # repeatable only so that ExperimentSpec refuses a second value
    coeff.add_argument("--p", type=float, action="append", dest="p_grid")
    coeff.add_argument("--n", type=int, action="append", dest="n_grid",
                       help="embedding resolution (repeatable)")
    coeff.add_argument("--draws", type=int, dest="n_draws")

    return parser


def _spec_from_args(args) -> ExperimentSpec:
    names = {field.name for field in fields(ExperimentSpec)}
    values = {name: tuple(value) if isinstance(value, list) else value
              for name, value in vars(args).items() if name in names and value is not None}
    if args.mode == "sde":
        if (args.h is None) != (args.p is None):
            raise ValueError("sde mode needs both --h and --p, or neither")
        if args.h is not None:
            values["hp_cells"] = tuple((h, p) for h in args.h for p in args.p)
    return ExperimentSpec(**values)


def _dump_job(spec, args):
    """The job whose row a requested dump reproduces: replicate 0 of the
    grid's single cell of the dumped arm, or None when no dump is asked."""
    if getattr(args, "dump_trajectory", None):
        arm = "standard" if spec.arm == "standard" else "adaptive"
        jobs, flag, grid = (discrete_jobs(spec), "--dump-trajectory",
                            "one --theta0 and, for the adaptive arm, one --p")
    elif getattr(args, "dump_terminal", None):
        if spec.arm == "both":
            raise ValueError("--dump-terminal needs --arm adaptive or --arm standard")
        arm = spec.arm
        jobs, flag, grid = (sde_jobs(spec), "--dump-terminal",
                            "one --h and, for the adaptive arm, one --p")
    else:
        return None
    chosen = [job for job in jobs if job.arm == arm and job.replicate == 0]
    if len(chosen) != 1:
        raise ValueError(f"{flag} needs a single-cell grid ({grid})")
    return chosen[0]


def _check_destinations(args) -> None:
    """Refuse a file to write that names no file (an empty path, one that
    ends in a separator, or a directory) or whose directory is missing or
    not a directory, before any of the grid runs."""
    for flag in ("out", "dump_trajectory", "dump_terminal"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        name = f"--{flag.replace('_', '-')}"
        if not os.path.basename(path) or os.path.isdir(path):
            raise ValueError(f"{name} {path!r}: names no file to write")
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise ValueError(f"{name} {path}: its directory is missing or not a directory")


def _dump_trajectory(job, destination: str) -> None:
    """Debug export of one chain as step,x,theta,xi rows."""
    trajectory = run_amcmc(job.config, make_target(job.target))
    rows = zip(trajectory.x.tolist(), trajectory.theta.tolist(), trajectory.xi.tolist())
    lines = [f"{step},{x!r},{theta!r},{xi}" for step, (x, theta, xi) in enumerate(rows, 1)]
    write_lines(["step,x,theta,xi"] + lines, destination)


def _dump_terminal(job, destination: str) -> None:
    """Debug export of one ensemble's terminal sample, one value per line."""
    result = run_ensemble(make_target(job.target), job.config)
    write_lines(["x_T"] + [repr(float(v)) for v in result.x_t], destination)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        # a bad dump request or destination fails before any work
        dump = _dump_job(spec, args)
        _check_destinations(args)
        rows = run_experiment(spec)
        print_summary(rows)
        if getattr(args, "dump_trajectory", None):
            _dump_trajectory(dump, args.dump_trajectory)
            print(f"wrote trajectory to {args.dump_trajectory}")
        if getattr(args, "dump_terminal", None):
            _dump_terminal(dump, args.dump_terminal)
            print(f"wrote terminal sample to {args.dump_terminal}")
        # written last, so that a run that fails replaces no --out file
        if args.out is not None:
            emit_csv(rows, args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
