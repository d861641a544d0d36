"""One-dimensional target densities with exact score and CDF.

Four benchmark targets are supported: the standard normal, the standard
Cauchy, Student-t with 2 degrees of freedom, and the unit-rate exponential.
All densities carry their exact normalizing constants because the KS
diagnostics need true CDFs, and ratios are evaluated in log space so that
far-tail points cannot overflow.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

TARGET_KINDS = ("normal", "cauchy", "t2", "exp")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_2SQRT2 = math.log(2.0 * math.sqrt(2.0))


def _maybe_scalar(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


@dataclass(frozen=True)
class TargetModel:
    """Immutable 1-D target density; all methods are pure functions.

    ``support`` is the closed-interval hull of the region where the density
    is positive.  ``boundary_policy`` records how a simulation that leaves
    the support should be repaired ("reflect_at_zero" for the exponential,
    "none" otherwise); enforcement lives with the simulators.
    """

    kind: str
    support: tuple
    boundary_policy: str

    def in_support(self, x) -> bool:
        lo, hi = self.support
        return bool(np.all((np.asarray(x, float) >= lo) & (np.asarray(x, float) <= hi)))

    def log_density(self, x):
        x = np.asarray(x, float)
        if self.kind == "normal":
            out = -0.5 * x * x - _LOG_SQRT_2PI
        elif self.kind == "cauchy":
            out = -_LOG_PI - np.log1p(x * x)
        elif self.kind == "t2":
            out = -_LOG_2SQRT2 - 1.5 * np.log1p(0.5 * x * x)
        else:
            out = np.where(x >= 0.0, -x, -np.inf)
        return _maybe_scalar(out)

    def density(self, x):
        return _maybe_scalar(np.exp(self.log_density(x)))

    def score(self, x):
        """d/dx log density(x) on the support.

        At the exponential's boundary x = 0 (and -0.0) it is the one-sided
        derivative -1: reflected and held Euler paths can land exactly there.
        """
        x = np.asarray(x, float)
        if self.kind == "exp":
            if np.any(x < 0.0):
                raise ValueError("score of the exponential target requires x >= 0")
            out = np.full_like(x, -1.0)
        elif self.kind == "normal":
            out = -x
        elif self.kind == "cauchy":
            out = -2.0 * x / (1.0 + x * x)
        else:
            out = -3.0 * x / (2.0 + x * x)
        return _maybe_scalar(out)

    def cdf(self, x):
        x = np.asarray(x, float)
        if self.kind == "normal":
            out = ndtr(x)
        elif self.kind == "cauchy":
            out = 0.5 + np.arctan(x) / math.pi
        elif self.kind == "t2":
            out = 0.5 + x / (2.0 * np.sqrt(2.0 + x * x))
        else:
            out = np.where(x > 0.0, -np.expm1(-np.maximum(x, 0.0)), 0.0)
        return _maybe_scalar(out)


def make_target(kind: str) -> TargetModel:
    """Build one of the supported targets: "normal", "cauchy", "t2", "exp"."""
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}; expected one of {TARGET_KINDS}")
    if kind == "exp":
        return TargetModel(kind=kind, support=(0.0, math.inf), boundary_policy="reflect_at_zero")
    return TargetModel(kind=kind, support=(-math.inf, math.inf), boundary_policy="none")
