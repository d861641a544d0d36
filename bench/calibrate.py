"""Host speed, from reference kernels timed next to each measured interval.

On the shared 2-vCPU host of the first baseline, the speed of both vCPUs
drifts together by up to 1.8x, over periods from a few seconds to minutes.
CPU time drifts with wall time, so the slowdown is not time stolen by other
guests, and pinning to one vCPU does not avoid it.  Raw wall times of whole
30 s runs then spread by 0.2 to 0.4 of their median from run to run.

``slowness`` times fixed kernels that each do one kind of work the
workloads do: numpy-scalar and ``math`` arithmetic in a Python loop
(``scalar``), numpy ufunc calls on a 4096-element array (``small_array``),
and ufuncs streaming over 2 MB arrays (``big_array``).  One kernel alone
tracks the host's slowdown for its kind of work, not for the others, so a
workload names the kinds it does (``workloads.py``).  ``slowness`` returns
the mean of those kernels' times relative to their times in ``KERNELS``,
taken on that host at its fast speed.  An interval divided by the slowness
around it reads in reference seconds.  ``import_reference_s`` does the same
for set-up.  Neither uses code of the program, so a change to the program
moves reference seconds as it moves seconds.
"""

import math
import subprocess
import sys
import time

import numpy as np

REPEATS = 3  # best of three, so a preemption in one does not count
# Wall time of a fresh interpreter that only imports numpy, on that host at
# its fast speed.
IMPORT_REFERENCE_S = 0.135

_SMALL = np.linspace(1.0, 2.0, 1 << 12)
_SMALL_OUT = np.empty_like(_SMALL)
_BIG = np.linspace(1.0, 2.0, 1 << 18)
_BIG_OUT = np.empty_like(_BIG)


def _scalar():
    x = np.float64(0.5)
    total = 0.0
    for _ in range(300):
        x = x * 1.0001 + 0.1
        total += math.exp(-float(x) * 1e-3) - float(np.log1p(x))
    return total


def _small_array():
    for _ in range(20):
        np.multiply(_SMALL, _SMALL, out=_SMALL_OUT)
        np.add(_SMALL_OUT, 1.0, out=_SMALL_OUT)
        np.sqrt(_SMALL_OUT, out=_SMALL_OUT)
    return float(_SMALL_OUT.sum())


def _big_array():
    np.multiply(_BIG, 1.5, out=_BIG_OUT)
    np.add(_BIG_OUT, _BIG, out=_BIG_OUT)
    return float(_BIG_OUT.sum())


# kind: (kernel, best-of-three time at about the 5th percentile of 5370
# marks taken over 30 runs on the baseline host, a 2-vCPU KVM Xeon)
KERNELS = {
    "scalar": (_scalar, 145e-6),
    "small_array": (_small_array, 190e-6),
    "big_array": (_big_array, 500e-6),
}


def slowness(kinds) -> float:
    """The host's current time for fixed work of these kinds, relative to
    its time at its fast speed."""
    ratios = []
    for kind in kinds:
        kernel, reference = KERNELS[kind]
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        ratios.append(best / reference)
    return sum(ratios) / len(ratios)


def import_reference_s() -> float:
    """Wall time of a fresh interpreter that only imports numpy.

    Set-up is process start and imports, which the kernels above do not
    track (normalised by them, set-up spread 0.27 of its median; normalised
    by this, 0.07; raw, 0.12 within one minute).
    """
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - start
