"""amcmc-lab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload {discrete,sde,coeff} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Every repetition is a fresh ``bench/child.py`` process
that runs the workload's CLI calls back to back (a closed loop with one
caller).  Repetitions continue while the next one is projected to end
within ``--seconds``, with at least three untraced, or one untraced and one
traced with ``--trace 1``.

``--trace 0`` reports the end-to-end metrics.  Times are in reference
seconds: each is divided by the host's slowness measured next to it
(``calibrate.py``), because a shared host's speed drifts by up to 1.8x.  The
workload's time is assembled job by job from per-job medians over
repetitions.  ``setup_s`` is the median of set-up-only processes, each
scaled by a reference process that only imports numpy, run around it.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics, the tracing overhead, and spans under ``.bench_out/trace``.
Every repetition's CSV output passes the correctness gate; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` runs
the same calls on reduced grids.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from calibrate import IMPORT_REFERENCE_S, import_reference_s, slowness  # noqa: E402
from workloads import ROWS_PER_COEFF_POINT, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
MIN_UNTRACED_REPS = 3
DEADLINE_S = 170.0  # every run must exit within 180 s
# Row fields that are results; the remaining fields identify the job a row
# belongs to (a coeff point has one row per kind).
MEASURED_FIELDS = {"kind", "d", "p_value", "esjd", "theta_t_mean",
                   "estimate", "std_error", "limit", "z"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Runner:
    """Spawns child processes for one run, within one deadline."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.scratch = OUT / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self._count = 0

    def child(self, *extra) -> dict:
        """Run bench/child.py; return its result with ``setup_s`` added."""
        self._count += 1
        result_path = self.scratch / f"child{self._count}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path),
               "--workload", self.workload, "--seed", str(self.seed)]
        if self.smoke:
            cmd.append("--smoke")
        cmd.extend(extra)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("a repetition ran past the deadline") from None
        if stderr:
            sys.stderr.write(stderr)
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"child exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["setup_end"] - spawned
        return result

    def repetition(self, index: int, traced: bool) -> dict:
        started = time.monotonic()
        out = self.scratch / f"rep{index}"
        out.mkdir(parents=True)
        extra = ["--out", str(out)]
        if traced:
            spans = OUT / "trace" / f"{self.workload}-seed{self.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            extra += ["--trace", "--spans", str(spans)]
        rep = self.child(*extra)
        rep["traced"] = traced
        rep["gate"] = [gate(call, result)
                       for call, result in zip(self.plan(), rep["calls"])]
        rep["wall_s"] = sum(result["wall_s"] for result in rep["calls"])
        rep["elapsed_s"] = time.monotonic() - started
        return rep

    def plan(self):
        return WORKLOADS[self.workload].plan(self.smoke)

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _row_ok(row) -> bool:
    for name, value in vars(row).items():
        if isinstance(value, float) and not math.isfinite(value):
            return False
    d = getattr(row, "d", 0.0)
    p_value = getattr(row, "p_value", 0.0)
    return (0.0 <= d <= 1.0 and 0.0 <= p_value <= 1.0
            and getattr(row, "esjd", 0.0) >= 0.0
            and getattr(row, "theta_t_mean", 1.0) > 0.0
            and getattr(row, "std_error", 0.0) >= 0.0)


def gate(call, result) -> dict:
    """Reload one call's CSV and count the jobs it failed.

    A nonzero exit, a missing or unreadable file, or a row count other than
    the grid's fails every job of the call; otherwise a job fails when any
    of its rows has a non-finite or out-of-range field.
    """
    from amcmc_lab.experiments import load_csv

    verdict = {"jobs": call.jobs, "failed": call.jobs, "sha256": None, "load_csv_s": 0.0}
    path = Path(result["csv"])
    if result["rc"] != 0 or not path.exists():
        return verdict
    data = path.read_bytes()
    verdict["sha256"] = hashlib.sha256(data).hexdigest()
    start = time.perf_counter()
    try:
        rows = load_csv(str(path))
    except ValueError:
        return verdict
    verdict["load_csv_s"] = time.perf_counter() - start
    per_job = ROWS_PER_COEFF_POINT if call.argv[0] == "coeff" else 1
    if len(rows) != call.jobs * per_job:
        return verdict
    jobs = {}
    for row in rows:
        key = tuple(v for k, v in vars(row).items() if k not in MEASURED_FIELDS)
        jobs.setdefault(key, []).append(_row_ok(row))
    if len(jobs) != call.jobs:
        return verdict
    verdict["failed"] = sum(not all(oks) for oks in jobs.values())
    return verdict


def ref_wall(reps: list) -> float:
    """Wall time of the workload in reference seconds, segment by segment.

    Every repetition runs the same jobs in the same order, so the i-th
    segment of a call (one job, see ``tracer.LapClock``) is the same work in
    each.  A segment's time is divided by the mean host slowness at its two
    ends; the median of that over repetitions is its reference time, and
    the segments' reference times add up to the workload's.
    """
    total = 0.0
    for index in range(len(reps[0]["calls"])):
        runs = []
        for rep in reps:
            call = rep["calls"][index]
            slow = call["slowness"]
            runs.append([seconds * 2.0 / (a + b)
                         for seconds, a, b in zip(call["segments"], slow, slow[1:])])
        if len({len(segments) for segments in runs}) != 1:
            raise BenchError("repetitions of one seed ran different numbers of jobs")
        total += sum(statistics.median(times) for times in zip(*runs))
    return total


def end_to_end(runner: Runner, seconds: float) -> tuple:
    work = sum(call.work for call in runner.plan())
    setups = []
    try:
        references = [import_reference_s()]
        for _ in range(SETUP_PROBES):
            raw = runner.child("--setup-only")["setup_s"]
            references.append(import_reference_s())
            setups.append(raw * 2.0 / sum(references[-2:]) * IMPORT_REFERENCE_S)
    except subprocess.SubprocessError as exc:
        raise BenchError(f"the import reference failed: {exc}") from None
    reps = []
    while len(reps) < MIN_UNTRACED_REPS or (
            runner.elapsed() + statistics.median(r["elapsed_s"] for r in reps) <= seconds):
        reps.append(runner.repetition(len(reps), traced=False))
    wall = ref_wall(reps)
    metrics = {
        "ref_wall_s": wall,
        "ref_work_per_s": work / wall,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_s": statistics.median(setups),
    }
    return reps, metrics


def per_layer(runner: Runner, seconds: float) -> tuple:
    reps = []
    while len(reps) < 2 or (
            runner.elapsed() + statistics.median(r["elapsed_s"] for r in reps) <= seconds):
        reps.append(runner.repetition(len(reps), traced=len(reps) % 2 == 1))
    micro = runner.child("--micro")["micro"]
    traced = [rep for rep in reps if rep["traced"]]
    layers = [layer_metrics(rep, micro) for rep in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    return reps, metrics


def layer_metrics(rep: dict, micro: dict) -> dict:
    trace = rep["trace"]
    self_s, calls, counts, facts = (trace["self_s"], trace["calls"], trace["counts"],
                                    trace["facts"])
    span_time = trace["span_s"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    chains_self = self_s.get("chains", 0.0)
    steps = facts["chains.steps"]
    sde_self = self_s.get("sde", 0.0)
    path_steps = facts["sde.path_steps"]
    seeding_self = self_s.get("seeding", 0.0)
    streams = calls.get("seeding.stream_rng", 0)
    coeffs_self = self_s.get("coeffs", 0.0)
    draws = facts["coeffs.draws"]
    return {
        "experiments.jobs": sum(g["jobs"] for g in rep["gate"]),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "experiments.emit_csv_s": span_time.get("experiments.emit_csv", 0.0),
        "experiments.load_csv_s": sum(g["load_csv_s"] for g in rep["gate"]),
        "cli.self_s": self_s.get("cli", 0.0),
        "chains.calls": calls.get("chains.run_amcmc", 0) + calls.get("chains.run_smcmc", 0),
        "chains.steps": steps,
        "chains.amcmc_step_calls": counts.get("chains.amcmc_step", 0),
        "chains.self_s": chains_self,
        "chains.ns_per_step": ratio(chains_self, steps, 1e9),
        "chains.accept_rate": ratio(facts["chains.accepted"], steps),
        "targets.log_density_calls": counts.get("targets.log_density", 0),
        "targets.score_calls": counts.get("targets.score", 0),
        "targets.cdf_calls": counts.get("targets.cdf", 0),
        **micro,
        "sde.ensembles": calls.get("sde.run_ensemble", 0),
        "sde.path_steps": path_steps,
        "sde.euler_step_calls": counts.get("sde.euler_step", 0),
        "sde.self_s": sde_self,
        "sde.ns_per_path_step": ratio(sde_self, path_steps, 1e9),
        "sde.draw_bytes_max": facts["sde.draw_bytes_max"],
        "sde.theta_floor_hits": facts["sde.theta_floor_hits"],
        "seeding.streams": streams,
        "seeding.us_per_stream": ratio(seeding_self, streams, 1e6),
        "seeding.self_s": seeding_self,
        "coeffs.calls": calls.get("coeffs.simulate_moments", 0),
        "coeffs.draws": draws,
        "coeffs.self_s": coeffs_self,
        "coeffs.ns_per_draw": ratio(coeffs_self, draws, 1e9),
        "stats.ks_calls": calls.get("stats.ks_statistic", 0),
        "stats.ks_samples": facts["stats.ks_samples"],
        "stats.self_s": self_s.get("stats", 0.0),
        "trace.wall_s": rep["wall_s"],
        "trace.child_share": ratio(trace["child_layers_s"], rep["wall_s"]),
        "trace.overhead_s": trace["overhead_s"],
    }


def report(args, reps, metrics, units) -> dict:
    attempted = sum(g["jobs"] for rep in reps for g in rep["gate"])
    failed = sum(g["failed"] for rep in reps for g in rep["gate"])
    digests = [tuple(g["sha256"] for g in rep["gate"]) for rep in reps]
    absent = sorted({name for rep in reps for name in rep.get("trace", {}).get("absent", ())})
    repeatable = all(d == digests[0] for d in digests) and None not in digests[0]
    kind = "traced and untraced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions ({kind})")
    for name, value in metrics.items():
        print(f"  {name:34} {value!r} {units[name]}")
    slow = [x for rep in reps if not rep["traced"] for call in rep["calls"]
            for x in call["slowness"]]
    print(f"  {'host slowness (median of marks)':34} {statistics.median(slow):.3f}")
    print(f"  {'repetition wall_s (raw)':34} " + " ".join(
        f"{rep['wall_s']:.4f}{'t' if rep['traced'] else ''}" for rep in reps))
    if args.trace:
        drift = (statistics.median(r["wall_s"] for r in reps if r["traced"])
                 - statistics.median(r["wall_s"] for r in reps if not r["traced"]))
        print(f"  {'traced - untraced wall_s':34} {drift:+.4f} s (drift-dominated; "
              "trace.overhead_s is the wrapper-cost estimate)")
    print(f"  {'failed_frac':34} {failed / attempted!r} ({failed}/{attempted} jobs)")
    for index, digest in enumerate(digests[0]):
        print(f"  csv sha256 call{index} {digest}"
              f"{'' if repeatable else ' (differs across repetitions)'}")
    if absent:
        print(f"  absent spans: {', '.join(absent)}")
    return {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="same workloads and code paths on reduced grids")
    args = parser.parse_args(argv)
    if not (SRC / "amcmc_lab" / "cli.py").is_file():
        print(f"error: no amcmc_lab package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, str(SRC))
    runner = Runner(args.workload, args.seed, args.smoke)
    runner.scratch.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        reps, metrics = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    result = report(args, reps, metrics, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
