"""Deterministic RNG stream derivation, and the one helper thread that
shares a call's units of work with the calling thread.

Every stochastic routine in the package draws from a generator built here,
so that identical (seed, key) always reproduces identical output no matter
how the surrounding work is scheduled.
"""

import contextvars
from operator import itemgetter

import numpy as np

_MASK64 = (1 << 64) - 1


def _normalize(value) -> int:
    return int(value) & _MASK64


def stream_rng(*key) -> np.random.Generator:
    """Generator for the stream identified by an integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence([_normalize(k) for k in key]))


def child_seed(*key) -> int:
    """Collision-resistant 64-bit seed derived from an integer key tuple."""
    ss = np.random.SeedSequence([_normalize(k) for k in key])
    return int(ss.generate_state(1, np.uint64)[0])


class Helper:
    """One helper thread that takes units of work beside the calling thread.

    ``finish = helper.share(work, units)`` starts ``work(pending)`` on the
    helper, where ``pending`` is one iterator over ``units`` (an iterator
    built of C ones only: a range, an enumerate or a chain of zips of
    ranges) that the calling thread reads too; ``finish()`` runs
    ``work(pending)`` here, waits for the helper and returns ``(mine,
    theirs)``.  The iterator is a C one, each next() one step under the
    interpreter lock, so each unit goes to one thread, and a thread that
    gets no core holds up only the unit it is on.  The helper runs in a
    copy of the caller's context, so it keeps the caller's ``np.errstate``.
    Which thread ran a unit varies; the caller folds the results in a fixed
    order.  Leaving the ``with`` block, on return or on raise, shuts the
    last shared iterator's gate, so the helper takes no further unit
    however many are left, and joins it.
    """

    def __enter__(self):
        # imported here, so that a run that opens no helper never loads
        # concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(max_workers=1)
        self._open = []
        return self

    def share(self, work, units):
        # zip reads the gate first, and the gate ends once _open is empty
        self._open = [True]
        gate = iter(self._open.__len__, 0)
        pending = map(itemgetter(1), zip(gate, units))
        theirs = self._pool.submit(contextvars.copy_context().run, work, pending)
        return lambda: (work(pending), theirs.result())

    def __exit__(self, *exc_info):
        self._open.clear()
        self._pool.shutdown()
