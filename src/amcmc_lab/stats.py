"""Goodness-of-fit and mixing diagnostics: one-sample KS and ESJD."""

import math
from dataclasses import dataclass

import numpy as np

from .targets import TargetModel

_SERIES_TOL = 1e-12
_PVALUE_DISPLAY_FLOOR = 1e-16


@dataclass(frozen=True)
class RunSummary:
    """Diagnostics of one experiment cell."""

    d: float
    p_value: float
    esjd: float


def ks_statistic(sample, target: TargetModel) -> float:
    """Sup distance between the sample's empirical CDF and the target CDF."""
    sample = np.asarray(sample, float)
    if sample.size == 0:
        raise ValueError("KS statistic of an empty sample")
    m = sample.size
    f = np.asarray(target.cdf(np.sort(sample)), float)
    i = np.arange(1, m + 1)
    d_plus = np.max(i / m - f)
    d_minus = np.max(f - (i - 1) / m)
    return float(max(d_plus, d_minus))


def ks_pvalue(d: float, m: int) -> float:
    """Asymptotic two-sided p-value of the one-sample KS statistic.

    Kolmogorov series 2 * sum_k (-1)^(k-1) exp(-2 k^2 lambda^2) with
    lambda = sqrt(m) * d, truncated once a term drops below 1e-12 and
    clamped to [0, 1].
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("KS statistic must lie in [0, 1]")
    if m < 1:
        raise ValueError("sample size must be positive")
    lam = math.sqrt(m) * d
    if lam < 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < _SERIES_TOL:
            break
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def esjd(chain, burn_in: int = 0) -> float:
    """Mean squared consecutive jump over the retained part of a chain."""
    chain = np.asarray(chain, float)
    if burn_in < 0 or burn_in > chain.size - 2:
        raise ValueError("need at least two retained samples past the burn-in")
    jumps = np.diff(chain[burn_in:])
    return float(np.mean(jumps * jumps))


def chain_summary(chain, target: TargetModel, burn_in: int = 0) -> RunSummary:
    """KS and ESJD diagnostics of a chain after discarding the burn-in."""
    chain = np.asarray(chain, float)
    retained = chain[burn_in:]
    d = ks_statistic(retained, target)
    return RunSummary(
        d=d,
        p_value=ks_pvalue(d, retained.size),
        esjd=esjd(chain, burn_in),
    )


def format_pvalue(p: float) -> str:
    """Human-readable p-value with the conventional tiny-value floor."""
    if p < _PVALUE_DISPLAY_FLOOR:
        return "<2.2e-16"
    return f"{p:.4g}"
