"""Deterministic RNG stream derivation.

Every stochastic routine in the package draws from a generator built here,
so that identical (seed, key) always reproduces identical output no matter
how the surrounding work is scheduled.
"""

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
