"""Spans and counters installed around the package's public functions.

The wrappers live in the benchmark, not in the program: ``install`` rebinds
every module-level name in ``amcmc_lab`` that refers to a traced function,
so re-exports (``cli.emit_csv``) and internal calls (``stats.ks_statistic``
from ``chain_summary``) all pass through the same span.  A span's layer is
the module that defines the function.  Per-step calls are only counted; a
span per call would cost more than the call.
"""

import statistics
import sys
import time

from calibrate import slowness

# Names as the runner looks them up; a name a later version drops is
# reported as absent.
SPANNED = (
    ("amcmc_lab.experiments", "run_experiment"),
    ("amcmc_lab.experiments", "print_summary"),
    ("amcmc_lab.experiments", "emit_csv"),
    ("amcmc_lab.experiments", "run_amcmc"),
    ("amcmc_lab.experiments", "run_smcmc"),
    ("amcmc_lab.experiments", "run_ensemble"),
    ("amcmc_lab.experiments", "simulate_moments"),
    ("amcmc_lab.experiments", "chain_summary"),
    ("amcmc_lab.experiments", "ks_statistic"),
    ("amcmc_lab.experiments", "ks_pvalue"),
    ("amcmc_lab.sde", "stream_rng"),
)
COUNTED_FUNCTIONS = (("amcmc_lab.chains", "amcmc_step"), ("amcmc_lab.sde", "euler_step"))
COUNTED_METHODS = ("log_density", "score", "cdf")

CHILD_LAYERS = ("chains", "sde", "coeffs", "stats", "seeding")


def _observe_chain(args, result, facts):
    facts["chains.steps"] += len(result.x)
    facts["chains.accepted"] += int(result.xi.sum())


def _observe_ensemble(args, result, facts):
    config = args[1]
    path_steps = config.n_paths * config.n_steps
    facts["sde.path_steps"] += path_steps
    facts["sde.draw_bytes_max"] = max(facts["sde.draw_bytes_max"], path_steps * 8)
    facts["sde.theta_floor_hits"] += result.theta_floor_hits


def _observe_moments(args, result, facts):
    facts["coeffs.draws"] += args[2]


def _observe_ks(args, result, facts):
    facts["stats.ks_samples"] += len(args[0])


OBSERVERS = {
    "chains.run_amcmc": _observe_chain,
    "chains.run_smcmc": _observe_chain,
    "sde.run_ensemble": _observe_ensemble,
    "coeffs.simulate_moments": _observe_moments,
    "stats.ks_statistic": _observe_ks,
}
FACTS = ("chains.steps", "chains.accepted", "sde.path_steps", "sde.draw_bytes_max",
         "sde.theta_floor_hits", "coeffs.draws", "stats.ks_samples")


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus call counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = {}
        self.facts = dict.fromkeys(FACTS, 0)
        self.absent = []

    def span(self, name, fn):
        spans, stack, facts = self.spans, self._stack, self.facts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, facts)
            return result

        return traced

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every traced and counted name in the loaded package."""
        for module_name, attr in SPANNED:
            original = self._find(module_name, attr)
            if original is not None:
                name = f"{original.__module__.split('.')[-1]}.{original.__name__}"
                rebind(original, self.span(name, original))
        for module_name, attr in COUNTED_FUNCTIONS:
            original = self._find(module_name, attr)
            if original is not None:
                name = f"{module_name.split('.')[-1]}.{attr}"
                rebind(original, self.counter(name, original))
        model = sys.modules["amcmc_lab.targets"].TargetModel
        for method in COUNTED_METHODS:
            original = getattr(model, method, None)
            if original is None:
                self.absent.append(f"targets.{method}")
            else:
                setattr(model, method, self.counter(f"targets.{method}", original))

    def _find(self, module_name, attr):
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            self.absent.append(f"{module_name.split('.')[-1]}.{attr}")
        return original


    def summary(self) -> dict:
        """Per-layer self time, span counts, the counters and the overhead.

        The tracing overhead is estimated as the number of wrapped calls
        times the cost of one wrapper, timed here; a traced-minus-untraced
        wall time would be dominated by drift in machine speed.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, span_s, calls = {}, {}, {}
        covered = 0.0
        for (name, start, end, parent), inner in zip(spans, child_time):
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + (end - start - inner)
            span_s[name] = span_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            parent_layer = spans[parent][0].split(".")[0] if parent >= 0 else None
            if layer in CHILD_LAYERS and parent_layer not in CHILD_LAYERS:
                covered += end - start
        counts = {name: cell[0] for name, cell in self.counts.items()}
        span_cost, counter_cost = wrapper_costs()
        return {
            "self_s": self_s,
            "span_s": span_s,
            "calls": calls,
            "counts": counts,
            "facts": dict(self.facts),
            "child_layers_s": covered,
            "overhead_s": len(spans) * span_cost + sum(counts.values()) * counter_cost,
            "absent": list(self.absent),
        }


def rebind(original, wrapper):
    """Point every module-level name in ``amcmc_lab`` bound to original at wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "amcmc_lab":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# Entry points of one job each: a chain, an Euler ensemble, a moment batch.
LAP_POINTS = (
    ("amcmc_lab.experiments", "run_amcmc"),
    ("amcmc_lab.experiments", "run_smcmc"),
    ("amcmc_lab.experiments", "run_ensemble"),
    ("amcmc_lab.experiments", "simulate_moments"),
)


class LapClock:
    """Marks at the entry of every job, for untraced repetitions.

    The marks of a CLI call split its wall time into consecutive segments,
    one per job plus what comes before the first.  Each mark also takes the
    host's ``slowness``, so every segment has it at both of its ends; the
    kernels run between segments, outside them.  A mark costs 0.5 to 1.5 ms.
    """

    def __init__(self, kinds):
        self.kinds = kinds
        self.marks = []

    def mark(self):
        before = time.perf_counter()
        speed = slowness(self.kinds)
        self.marks.append((before, time.perf_counter(), speed))

    def install(self):
        for module_name, attr in LAP_POINTS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:  # a dropped name only makes segments coarser
                rebind(original, self._lapped(original))

    def _lapped(self, fn):
        mark = self.mark

        def lapped(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)

        return lapped

    def take(self) -> dict:
        """Segment durations and the slowness at their ends; then reset."""
        marks, self.marks = self.marks, []
        return {"segments": [b[0] - a[1] for a, b in zip(marks, marks[1:])],
                "slowness": [m[2] for m in marks]}


def wrapper_costs(calls=20_000, repeats=5) -> tuple:
    """Seconds that a span and a counter wrapper add to one call (medians)."""
    def bare():
        pass

    probe = Tracer()
    variants = (bare, probe.span("probe.span", bare), probe.counter("probe.counter", bare))
    times = ([], [], [])
    for _ in range(repeats):
        for fn, samples in zip(variants, times):
            probe.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - start) / calls)
    bare_s, span_s, counter_s = (statistics.median(samples) for samples in times)
    return span_s - bare_s, counter_s - bare_s
