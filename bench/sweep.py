"""Record result sets of many benchmark runs, and compare two of them.

    python3 bench/sweep.py record --out FILE [--runs 10]
    python3 bench/sweep.py compare BASE.json NEW.json

``record`` runs ``bench/run.py`` for seeds 1..runs on every workload of
``BENCHMARK.json``, for its ``run_seconds`` (workloads interleaved, so drift
in machine load spreads over all of them), plus one traced run per workload
on seed 1, and writes every result line together with the machine facts.
It prints each end-to-end metric's median, quartiles and spread
(interquartile range over median) against the metric's bound.

``compare`` prints, for each workload and end-to-end metric, both sides'
median and quartiles and the ratio of medians.  A metric is *unresolved*
where either side's spread is wider than its bound, unless every new run
reads better than every base run; it *regressed* where the new median is
worse than the base median by more than the bound.  Two sets taken with
different run lengths or different ``BENCHMARK.json`` are refused.  CSV
digests and ``chains.accept_rate`` are facts that must not move unless a
stream-contract change is declared: a change is flagged, not gated.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from run import load_spec  # noqa: E402


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "absent"
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "cache_sizes": caches,
            "python": platform.python_version(), **versions, "git_revision": revision}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["sha256"] = [line.split()[3] for line in lines if line.strip().startswith("csv sha256")]
    return result


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def values_of(runs, metric: str) -> list:
    return [run["metrics"][metric]["value"] for run in runs]


def print_spreads(result_set: dict) -> None:
    print(f"{'workload':9} {'metric':14} {'unit':5} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  note")
    for workload, runs in result_set["runs"].items():
        for declared in result_set["spec"]["end_to_end"]:
            metric, bound = declared["name"], declared["bound"]
            values = values_of(runs, metric)
            q1, median, q3 = quartiles(values)
            width = spread(values)
            note = "ok" if width < bound / 3 else ("wide" if width <= bound else "OVER BOUND")
            print(f"{workload:9} {metric:12} {declared['unit']:5} {len(values):>3} {q1:>12.6g} {median:>12.6g} "
                  f"{q3:>12.6g} {width:>7.3f} {bound:>6}  {note}")
        digests = {tuple(run["sha256"]) for run in runs}
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"{workload:9} failed_frac {failed}/{attempted}; "
              f"{len(digests)} distinct CSV digest sets over {len(runs)} seeds")
    for workload, runs in result_set["traced"].items():
        for run in runs:
            m = run["metrics"]
            print(f"{workload:9} traced seed {run['seed']}: wall {m['trace.wall_s']['value']:.3f} s, "
                  f"overhead {m['trace.overhead_s']['value']:+.3f} s, "
                  f"child-layer share {m['trace.child_share']['value']:.3f}")


def record(args) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    result_set = {"machine": machine_facts(), "spec": spec, "seconds": seconds,
                  "runs": {w: [] for w in workloads}, "traced": {w: [] for w in workloads}}
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            result = run_once(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            result_set["runs"][workload].append(result)
    for workload in workloads:
        result_set["traced"][workload].append(run_once(workload, 1, seconds, 1))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result_set, handle, indent=1)
        handle.write("\n")
    print_spreads(result_set)
    return 0


def _all_better(base, new, better: str) -> bool:
    return max(new) < min(base) if better == "lower" else min(new) > max(base)


def compare(args) -> int:
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    for key in ("seconds", "spec"):
        if base.get(key) != new.get(key):
            print(f"error: the result sets differ in {key}; they are not comparable",
                  file=sys.stderr)
            return 2
    metrics = base["spec"]["end_to_end"]
    print(f"base {base['machine']['git_revision'][:12]}  new {new['machine']['git_revision'][:12]}")
    print(f"{'workload':9} {'metric':14} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'new/base':>8}  verdict")
    regressed = False
    for workload in base["runs"]:
        if workload not in new["runs"]:
            print(f"{workload:9} absent from the new result set")
            continue
        for metric in metrics:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            old_values = values_of(base["runs"][workload], name)
            new_values = values_of(new["runs"][workload], name)
            bq1, bmed, bq3 = quartiles(old_values)
            nq1, nmed, nq3 = quartiles(new_values)
            ratio = nmed / bmed
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            if (max(spread(old_values), spread(new_values)) > bound
                    and not _all_better(old_values, new_values, better)):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed = True
            elif -worse > max(spread(old_values), bound):
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:9} {name:14} {bmed:>12.6g} [{bq1:.6g}, {bq3:.6g}]"
                  f"{'':>2} {nmed:>12.6g} [{nq1:.6g}, {nq3:.6g}] {ratio:>8.4f}  {verdict}")
        _flag_changes(workload, "CSV digests", base["runs"], new["runs"],
                      lambda run: run["sha256"])
        _flag_changes(workload, "chains.accept_rate", base["traced"], new["traced"],
                      lambda run: run["metrics"]["chains.accept_rate"]["value"])
    return 1 if regressed else 0


def _flag_changes(workload: str, what: str, base_runs: dict, new_runs: dict, fact) -> None:
    """Print whether a fact that must not move is equal on the seeds both sets ran."""
    old = {run["seed"]: fact(run) for run in base_runs.get(workload, [])}
    new = {run["seed"]: fact(run) for run in new_runs.get(workload, [])}
    shared = sorted(old.keys() & new.keys())
    differ = [seed for seed in shared if old[seed] != new[seed]]
    print(f"{workload:9} {what} identical on {len(shared) - len(differ)} of {len(shared)} "
          "shared seeds" + (f", CHANGED on seeds {differ}: declare a stream-contract change"
                            if differ else "") + " (reported, not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--out", required=True)
    rec.add_argument("--runs", type=int, default=10)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
