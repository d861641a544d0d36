"""One fresh benchmark process: import the CLI, run a workload's calls, report.

    python3 bench/child.py --result FILE [--setup-only]
    python3 bench/child.py --result FILE --workload W --seed N --out DIR
                           [--smoke] [--trace --spans FILE]
    python3 bench/child.py --result FILE --micro --workload W --seed N [--smoke]

Set-up ends when ``amcmc_lab.cli`` is imported; the parent, which knows when
it started this process on the same monotonic clock, turns that into
``setup_s``.  Workload calls go through ``amcmc_lab.cli.main(argv)`` only.
"""

import json
import sys
import time

import amcmc_lab.cli

SETUP_END = time.monotonic()

import argparse  # noqa: E402  (everything below is outside set-up)
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _run_call(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash fails this call's jobs; the run goes on
        traceback.print_exc()
        return 1


def run_workload(args) -> dict:
    from tracer import LapClock, Tracer

    main = amcmc_lab.cli.main
    tracer = laps = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        main = tracer.span("cli.main", main)  # the root span, layer cli
    else:
        laps = LapClock(WORKLOADS[args.workload].kinds)
        laps.install()
    calls = []
    for index, call in enumerate(WORKLOADS[args.workload].plan(args.smoke)):
        csv_path = os.path.join(args.out, f"call{index}.csv")
        argv = list(call.argv) + ["--seed", str(args.seed), "--workers", "1",
                                  "--out", csv_path]
        if laps:
            laps.mark()
        start = time.perf_counter()
        rc = _run_call(main, argv)
        end = time.perf_counter()
        if laps:
            laps.mark()
        calls.append({"rc": rc, "wall_s": end - start, "csv": csv_path,
                      **(laps.take() if laps else {})})
    result = {"calls": calls,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(args.spans, "w", encoding="utf-8") as handle:
            for name, start, end, parent in tracer.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")
    return result


def _ns_per(fn, arg, calls, elements=1, repeats=5) -> float:
    """Median over repeats of ns per element for ``calls`` calls of fn(arg)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn(arg)
        times.append((time.perf_counter_ns() - start) / (calls * elements))
    return statistics.median(times)


MICRO_METHODS = {"targets.score_ns_per_elem": "score",
                 "targets.log_density_ns_per_elem": "log_density",
                 "targets.cdf_ns_per_elem": "cdf"}


def micro_timings(args) -> dict:
    """Per-element costs of the target paths the workload runs, at its shapes.

    The workloads call these once per chain step, Euler step or batch, far too
    often for a span each, so they are timed here instead, averaged over the
    workload's targets.  A path the workload does not run reads 0.  Scalar
    log-density points straddle zero so the exponential target also takes
    its off-support branch.
    """
    import numpy as np
    from amcmc_lab.targets import make_target

    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    targets = [make_target(kind)
               for kind in sorted({call.target for call in workload.plan(args.smoke)})]
    timings = dict.fromkeys(["targets.log_density_scalar_ns", *MICRO_METHODS], 0.0)
    for name, size in workload.micro.items():
        costs = []
        for target in targets:
            if name == "targets.log_density_scalar_ns":
                points = [float(v) for v in 2.0 * rng.standard_normal(2000)]

                def scalar_log_density(points, log_density=target.log_density):
                    for x in points:
                        log_density(x)

                costs.append(_ns_per(scalar_log_density, points, 1, len(points)))
            else:
                # sorted as the KS statistic sorts, positive for the exp support
                sample = np.sort(np.abs(rng.standard_normal(size)) + 0.5)
                method = getattr(target, MICRO_METHODS[name])
                costs.append(_ns_per(method, sample, max(3, 200_000 // size), size))
        timings[name] = statistics.fmean(costs)
    return timings


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = {"setup_end": SETUP_END}
    if args.micro:
        result["micro"] = micro_timings(args)
    elif not args.setup_only:
        result.update(run_workload(args))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
