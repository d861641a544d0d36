"""The benchmark's own tests, on the reduced (smoke) grids; under a minute.

    python3 bench/selftest.py

Checks the result-line contract of every workload with and without tracing,
that the workload table matches the reference grids, the correctness gate,
the compare verdicts, and that a directory without the package yields an
error exit and no result.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import sweep  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

SPEC = run.load_spec()
SCRATCH = run.OUT / "selftest"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class ResultContract(unittest.TestCase):
    def check(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        for metric in result["metrics"].values():
            self.assertTrue(math.isfinite(metric["value"]))
        return result["metrics"]

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)
                for name in ("ref_wall_s", "ref_work_per_s", "peak_rss_mb", "setup_s"):
                    self.assertGreater(metrics[name]["value"], 0.0)

    def test_every_workload_traced(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                metrics = self.check(name, 1)
                value = {k: m["value"] for k, m in metrics.items()}
                plan = workload.smoke_calls
                self.assertEqual(value["experiments.jobs"], sum(c.jobs for c in plan))
                work = sum(c.work for c in plan)
                counted = {"discrete": value["chains.steps"], "sde": value["sde.path_steps"],
                           "coeff": value["coeffs.draws"]}[name]
                self.assertEqual(counted, work)
                self.assertGreaterEqual(value["trace.child_share"], 0.9)
                self.assertGreater(value["trace.overhead_s"], 0.0)
                for micro in ("targets.log_density_scalar_ns", "targets.score_ns_per_elem",
                              "targets.log_density_ns_per_elem", "targets.cdf_ns_per_elem"):
                    timed = value[micro] > 0.0
                    self.assertEqual(timed, micro in workload.micro, micro)


class WorkloadTable(unittest.TestCase):
    """The hand-written job and work counts agree with the reference grids."""

    def test_reference_grids(self):
        from amcmc_lab import experiments as ex

        for call in WORKLOADS["discrete"].calls:
            chains = len(ex.DISCRETE_THETA0_GRID) * (len(ex.DISCRETE_P_GRIDS[call.target]) + 1)
            self.assertEqual((call.jobs, call.work), (chains, chains * 10_000))
        for call in WORKLOADS["sde"].calls:
            cells = ex.default_sde_cells(call.target)
            meshes = [h for h, _ in cells] + sorted({h for h, _ in cells})
            self.assertEqual(call.jobs, len(meshes))
            self.assertEqual(call.work, 1000 * sum(math.ceil(1.0 / h) for h in meshes))
        (call,) = WORKLOADS["coeff"].calls
        points = (len(ex.COEFF_X_GRIDS["cauchy"]) * len(ex.COEFF_THETA_GRID)
                  * len(ex.COEFF_N_GRID))
        self.assertEqual(call.jobs, points)
        self.assertEqual(call.work, points * (1 + ex.CAUCHY_B2_DRAW_FACTOR) * 1_000_000)


class Gate(unittest.TestCase):
    HEADER = "target,mode,arm,theta0,p,seed,replicate,D,p_value,esjd\n"

    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.call = Call(("discrete",), "normal", jobs=2, work=0)

    def gate(self, text, rc=0):
        path = SCRATCH / "gate.csv"
        path.write_text(self.HEADER + text)
        return run.gate(self.call, {"rc": rc, "csv": str(path)})

    def test_good_rows_pass(self):
        verdict = self.gate("normal,discrete,adaptive,1.0,0.5,0,0,0.1,0.5,0.2\n"
                            "normal,discrete,standard,1.0,,0,0,0.1,0.5,0.2\n")
        self.assertEqual(verdict["failed"], 0)
        self.assertEqual(len(verdict["sha256"]), 64)

    def test_out_of_range_row_fails_its_job(self):
        verdict = self.gate("normal,discrete,adaptive,1.0,0.5,0,0,0.1,1.5,0.2\n"
                            "normal,discrete,standard,1.0,,0,0,0.1,0.5,nan\n")
        self.assertEqual(verdict["failed"], 2)
        verdict = self.gate("normal,discrete,adaptive,1.0,0.5,0,0,0.1,1.5,0.2\n"
                            "normal,discrete,standard,1.0,,0,0,0.1,0.5,0.2\n")
        self.assertEqual(verdict["failed"], 1)

    def test_missing_rows_or_exit_code_fail_every_job(self):
        self.assertEqual(self.gate("normal,discrete,adaptive,1.0,0.5,0,0,0.1,0.5,0.2\n")["failed"], 2)
        good = ("normal,discrete,adaptive,1.0,0.5,0,0,0.1,0.5,0.2\n"
                "normal,discrete,standard,1.0,,0,0,0.1,0.5,0.2\n")
        self.assertEqual(self.gate(good, rc=1)["failed"], 2)


class RefWall(unittest.TestCase):
    @staticmethod
    def rep(segments, slowness):
        return {"calls": [{"segments": segments, "slowness": slowness}]}

    def test_segments_are_scaled_by_slowness_then_take_their_median(self):
        reps = [self.rep([1.0, 2.0], [1.0, 1.0, 1.0]),
                self.rep([1.5, 4.0], [1.0, 2.0, 2.0]),  # the host slowed down
                self.rep([3.0, 2.0], [1.0, 1.0, 1.0])]  # the first job was disturbed
        self.assertAlmostEqual(run.ref_wall(reps), 3.0)

    def test_repetitions_with_other_job_counts_are_refused(self):
        reps = [self.rep([1.0, 2.0], [1.0, 1.0, 1.0]), self.rep([3.0], [1.0, 1.0])]
        with self.assertRaises(run.BenchError):
            run.ref_wall(reps)


class Compare(unittest.TestCase):
    def result_set(self, walls, seconds=30, accept_rate=0.4):
        spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                                "bound": 0.1}]}
        runs = [{"metrics": {"wall_s": {"value": w}}, "seed": seed, "sha256": ["x"]}
                for seed, w in enumerate(walls)]
        traced = [{"metrics": {"chains.accept_rate": {"value": accept_rate}}, "seed": 1}]
        return {"machine": {"git_revision": "r"}, "spec": spec, "seconds": seconds,
                "runs": {"w": runs}, "traced": {"w": traced}}

    def compare(self, base, new):
        paths = []
        for name, result_set in (("base", base), ("new", new)):
            path = SCRATCH / f"{name}.json"
            path.write_text(json.dumps(result_set))
            paths.append(str(path))
        return subprocess.run([sys.executable, str(BENCH / "sweep.py"), "compare", *paths],
                              capture_output=True, text=True, timeout=60)

    def verdict(self, base, new):
        proc = self.compare(self.result_set(base), self.result_set(new))
        line = next(l for l in proc.stdout.splitlines() if l.startswith("w ") and "wall_s" in l)
        return proc.returncode, line.split()[-1]

    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def test_verdicts(self):
        steady = [10.0, 10.1, 9.9, 10.05, 9.95]
        self.assertEqual(self.verdict(steady, [v * 1.01 for v in steady]), (0, "bound"))
        self.assertEqual(self.verdict(steady, [v * 1.3 for v in steady]), (1, "REGRESSED"))
        self.assertEqual(self.verdict(steady, [v * 0.7 for v in steady]), (0, "better"))
        noisy = [10.0, 14.0, 7.0, 12.0, 8.0]
        self.assertEqual(self.verdict(steady, noisy)[1], "unresolved")

    def test_sets_of_other_run_length_are_refused(self):
        steady = [10.0, 10.1, 9.9, 10.05, 9.95]
        proc = self.compare(self.result_set(steady), self.result_set(steady, seconds=10))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("seconds", proc.stderr)

    def test_accept_rate_change_is_flagged(self):
        steady = [10.0, 10.1, 9.9, 10.05, 9.95]
        proc = self.compare(self.result_set(steady), self.result_set(steady))
        self.assertIn("chains.accept_rate identical on 1 of 1", proc.stdout)
        proc = self.compare(self.result_set(steady), self.result_set(steady, accept_rate=0.5))
        self.assertEqual(proc.returncode, 0)
        self.assertIn("chains.accept_rate identical on 0 of 1 shared seeds, CHANGED",
                      proc.stdout)

    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        self.assertEqual(sweep.quartiles(values), (1.5, 3.0, 4.5))


class Tracing(unittest.TestCase):
    def test_absent_name_is_reported_not_raised(self):
        import amcmc_lab.cli  # noqa: F401
        import tracer

        saved = tracer.SPANNED
        tracer.SPANNED = saved + (("amcmc_lab.experiments", "no_such_function"),)
        try:
            spans = tracer.Tracer()
            spans.install()
        finally:
            tracer.SPANNED = saved
        self.assertEqual(spans.absent, ["experiments.no_such_function"])


class MissingPackage(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "discrete", "--seed", "1", "--seconds", "10",
                     "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
