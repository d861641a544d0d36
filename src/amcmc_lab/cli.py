"""Command-line harness.

Subcommands:

* ``discrete`` -- adaptive vs fixed-scale chains on a (theta0, p) grid
* ``sde``      -- adaptive vs fixed-scale Euler ensembles on an (h, p) grid
* ``coeff``    -- one-step moment estimates against their analytic limits

Each run prints a summary table to stdout and, with --out, writes the full
per-replicate rows as CSV.  Grids default to the built-in reference grids
for the chosen target; repeatable flags override them.  Nothing is written
unless the whole grid completes, and the exit code is nonzero on any error.
"""

import argparse
import sys

from .coeffs import COEFF_KINDS
from .experiments import (
    ARMS,
    ExperimentSpec,
    discrete_jobs,
    emit_csv,
    print_summary,
    run_chain,
    run_experiment,
    sde_jobs,
    write_lines,
)
from .sde import BOUNDARY_MODES, run_ensemble
from .stats import KS_CORRECTIONS
from .targets import TARGET_KINDS, make_target


def _add_common(parser):
    parser.add_argument("--target", choices=TARGET_KINDS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write per-replicate rows as CSV")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (output is identical)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amcmc-lab",
        description="Adaptive vs standard MCMC comparison experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    discrete = sub.add_parser("discrete", help="discrete-time chain grid")
    _add_common(discrete)
    discrete.add_argument("--theta0", type=float, action="append", default=None,
                          help="starting proposal scale (repeatable)")
    discrete.add_argument("--p", type=float, action="append", default=None,
                          help="benchmark acceptance level (repeatable)")
    discrete.add_argument("--n-samples", type=int, default=10_000)
    discrete.add_argument("--burn-in", type=int, default=1_000)
    discrete.add_argument("--x0", type=float, default=None)
    discrete.add_argument("--replicates", type=int, default=11)
    discrete.add_argument("--arm", choices=ARMS, default="both")
    discrete.add_argument("--ks-correction", choices=KS_CORRECTIONS, default="none")
    discrete.add_argument("--dump-trajectory", default=None, metavar="FILE",
                          help="debug: write step,x,theta,xi for a single-cell grid")

    sde = sub.add_parser("sde", help="Euler ensemble grid")
    _add_common(sde)
    sde.add_argument("--h", type=float, action="append", default=None,
                     help="mesh size (repeatable)")
    sde.add_argument("--p", type=float, action="append", default=None,
                     help="drift benchmark (repeatable; crossed with --h)")
    sde.add_argument("--theta0", type=float, action="append", default=None)
    sde.add_argument("--x0", type=float, default=None)
    sde.add_argument("--paths", type=int, default=1_000)
    sde.add_argument("--horizon", type=float, default=1.0)
    sde.add_argument("--replicates", type=int, default=11)
    sde.add_argument("--arm", choices=ARMS, default="both")
    sde.add_argument("--ks-correction", choices=KS_CORRECTIONS, default="none")
    sde.add_argument("--boundary", choices=BOUNDARY_MODES, default="reflect",
                     help="support repair for the exponential target")
    sde.add_argument("--dump-terminal", default=None, metavar="FILE",
                     help="debug: write the terminal sample of a single-cell "
                          "grid as a one-column CSV")

    coeff = sub.add_parser("coeff", help="one-step moment verification grid")
    _add_common(coeff)
    coeff.add_argument("--kind", choices=COEFF_KINDS, action="append", default=None,
                       help="coefficient kind (repeatable; default all)")
    coeff.add_argument("--x", type=float, action="append", default=None,
                       help="evaluation point (repeatable)")
    coeff.add_argument("--theta0", type=float, action="append", default=None)
    coeff.add_argument("--p", type=float, default=None)
    coeff.add_argument("--n", type=int, action="append", default=None,
                       help="embedding resolution (repeatable)")
    coeff.add_argument("--draws", type=int, default=100_000)

    return parser


def _spec_from_args(args) -> ExperimentSpec:
    common = dict(mode=args.mode, target=args.target, seed=args.seed,
                  workers=args.workers)
    if args.mode == "discrete":
        return ExperimentSpec(
            theta0_grid=tuple(args.theta0 or ()),
            p_grid=tuple(args.p or ()),
            n_samples=args.n_samples,
            burn_in=args.burn_in,
            x0=args.x0,
            replicates=args.replicates,
            arm=args.arm,
            ks_correction=args.ks_correction,
            **common,
        )
    if args.mode == "sde":
        theta0_list = args.theta0 or [1.0]
        if len(theta0_list) != 1:
            raise ValueError("sde mode takes a single --theta0")
        hp_cells = ()
        if (args.h is None) != (args.p is None):
            raise ValueError("sde mode needs both --h and --p, or neither")
        if args.h is not None:
            hp_cells = tuple((h, p) for h in args.h for p in args.p)
        return ExperimentSpec(
            hp_cells=hp_cells,
            theta0=theta0_list[0],
            x0=args.x0,
            n_paths=args.paths,
            horizon_t=args.horizon,
            replicates=args.replicates,
            arm=args.arm,
            ks_correction=args.ks_correction,
            boundary_mode=args.boundary,
            **common,
        )
    return ExperimentSpec(
        kinds=tuple(args.kind or COEFF_KINDS),
        x_grid=tuple(args.x or ()),
        theta0_grid=tuple(args.theta0 or ()),
        p_grid=(args.p,) if args.p is not None else (),
        n_grid=tuple(args.n or ()),
        n_draws=args.draws,
        **common,
    )


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


def _dump_trajectory(job, destination: str) -> None:
    """Debug export of one chain as step,x,theta,xi rows."""
    trajectory = run_chain(job)
    lines = ["step,x,theta,xi"]
    for i in range(len(trajectory)):
        state = trajectory.state(i)
        lines.append(f"{state.step},{state.x!r},{state.theta!r},{state.xi}")
    write_lines(lines, destination)


def _dump_terminal(job, destination: str) -> None:
    """Debug export of one ensemble's terminal sample, one value per line."""
    result = run_ensemble(make_target(job.target), job.config)
    write_lines(["x_T"] + [repr(float(v)) for v in result.x_t], destination)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        dump = _dump_job(spec, args)  # a bad dump request fails before any work
        rows = run_experiment(spec)
        print_summary(rows)
        if args.out is not None:
            emit_csv(rows, args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
        if getattr(args, "dump_trajectory", None):
            _dump_trajectory(dump, args.dump_trajectory)
            print(f"wrote trajectory to {args.dump_trajectory}")
        if getattr(args, "dump_terminal", None):
            _dump_terminal(dump, args.dump_terminal)
            print(f"wrote terminal sample to {args.dump_terminal}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
