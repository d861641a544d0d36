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

TARGET_KINDS = ("normal", "cauchy", "t2", "exp")


def _constant(value):
    # a read-only 0-d array: a ufunc takes one faster than a Python float,
    # with the same value and bits
    array = np.array(value)
    array.flags.writeable = False
    return array


# log_density's and score's constants
_LOG_SQRT_2PI = _constant(0.5 * math.log(2.0 * math.pi))
_NEG_LOG_PI = _constant(-math.log(math.pi))
_NEG_LOG_2SQRT2 = _constant(-math.log(2.0 * math.sqrt(2.0)))
_NEG_HALF, _ZERO, _HALF, _THREE_HALVES = map(_constant, (-0.5, 0.0, 0.5, 1.5))
_NEG_ONE, _NEG_INF = map(_constant, (-1.0, -math.inf))
# (c, d) of the heavy-tailed scores c x / (d + x * x)
_SCORE_RATIONAL = {"cauchy": tuple(map(_constant, (-2.0, 1.0))),
                   "t2": tuple(map(_constant, (-3.0, 2.0)))}

# Cephes ndtr/erf/erfc coefficients, highest degree first.  P/Q and R/S are
# erfc's rationals on [1, 8) and [8, inf); T/U is erf's rational in x^2 on
# |x| < 1.  Q, S and U omit their leading coefficient 1 (p1evl).
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_NDTR_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_NDTR_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
# Cephes erfc returns 0 once -z*z < -MAXLOG.  In float64 that is exactly
# z > sqrt(MAXLOG): the square of sqrt(MAXLOG) rounds to at most MAXLOG and
# that of the next float above it to more.
_ERFC_UNDERFLOW_Z = math.sqrt(_MAXLOG)


def _maybe_scalar(arr):
    # numpy scalars and arrays both carry .ndim; np.ndim would go through
    # the array-function dispatcher on every density, score and CDF call
    return float(arr) if arr.ndim == 0 else arr


def _fresh(x):
    """(x, o): x as a float array and where a formula writes without out.

    o is a fresh array of x's shape, or None for a 0-d x: its ufuncs then
    run out of place and return numpy scalars, since an in-place ufunc on
    one element takes numpy's slow iterator path.
    """
    x = np.asarray(x, float)
    return x, (np.empty_like(x) if x.ndim else None)


def _polevl(x, coef):
    # Horner in Cephes polevl's order, in place
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    # as _polevl with a leading coefficient 1 (Cephes p1evl)
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf_small(x):
    """Cephes erf on |x| <= 1."""
    w = x * x
    return x * _polevl(w, _NDTR_T) / _p1evl(w, _NDTR_U)


def _erfc_large(z, num, den):
    """Cephes erfc on 1 <= z <= sqrt(MAXLOG) with the rational num/den.

    exp(-z^2) is the C library's exp, the one Cephes calls: numpy's own
    vectorised exp differs from it in the last bit for some arguments.
    """
    e = np.fromiter(map(math.exp, (-z * z).tolist()), float, count=z.size)
    return (e * _polevl(z, num)) / _p1evl(z, den)


def _ndtr(a):
    """Standard normal CDF of the float array a, bit for bit Cephes ``ndtr``.

    These are scipy.special.ndtr's values: scipy compiles the same Cephes code.

    Each element evaluates only its own branch: 0.5 + 0.5 erf(x) for
    |x| < sqrt(1/2) with x = a sqrt(1/2), else 0.5 erfc(|x|), reflected to
    1 - y for x > 0.  NaN stays NaN; erfc underflows to 0 past sqrt(MAXLOG).
    """
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)
    central = z < _SQRT1_2
    y[central] = 0.5 + 0.5 * _erf_small(x[central])
    near = ~central & (z < 1.0)
    y[near] = 0.5 * (1.0 - _erf_small(z[near]))
    mid = (z >= 1.0) & (z < 8.0)
    y[mid] = 0.5 * _erfc_large(z[mid], _NDTR_P, _NDTR_Q)
    far = (z >= 8.0) & (z <= _ERFC_UNDERFLOW_Z)
    y[far] = 0.5 * _erfc_large(z[far], _NDTR_R, _NDTR_S)
    y[z > _ERFC_UNDERFLOW_Z] = 0.0
    upper = ~central & (x > 0.0)
    y[upper] = 1.0 - y[upper]
    return y.reshape(a.shape)


@dataclass(frozen=True)
class TargetModel:
    """Immutable 1-D target density; all methods are pure functions.

    ``support`` is the closed-interval hull of the region where the density
    is positive.  Only the exponential's is bounded; how a simulation keeps
    to it (sde.run_ensembles reflects at zero) lives with the simulators.
    """

    kind: str
    support: tuple

    def in_support(self, x) -> bool:
        lo, hi = self.support
        return bool(np.all((np.asarray(x, float) >= lo) & (np.asarray(x, float) <= hi)))

    def log_density(self, x, out=None):
        """log psi(x), -inf off the support (and at NaN for the exponential).

        With out, a float array of x's shape that shares no memory with x,
        the values are written there and out is returned.  Without it an
        array x gets a fresh buffer and a 0-d x out-of-place ufuncs, by the
        same operations, in the order of each formula's plain expression.
        """
        o = out
        if o is None:
            x, o = _fresh(x)
        if self.kind == "normal":  # -0.5 * x * x - log sqrt(2 pi)
            y = np.multiply(x, _NEG_HALF, o)
            y = np.multiply(y, x, o)
            y = np.subtract(y, _LOG_SQRT_2PI, o)
        elif self.kind == "cauchy":  # -log pi - log1p(x * x)
            y = np.multiply(x, x, o)
            y = np.log1p(y, o)
            y = np.subtract(_NEG_LOG_PI, y, o)
        elif self.kind == "t2":  # -log(2 sqrt 2) - 1.5 * log1p(0.5 * x * x)
            y = np.multiply(x, _HALF, o)
            y = np.multiply(y, x, o)
            y = np.log1p(y, o)
            y = np.multiply(y, _THREE_HALVES, o)
            y = np.subtract(_NEG_LOG_2SQRT2, y, o)
        else:  # -x where x >= 0, else -inf: NaN reads -inf
            keep = np.greater_equal(x, _ZERO)
            if o is None:
                y = np.negative(x) if keep else _NEG_INF
            else:
                o.fill(np.inf)
                np.copyto(o, x, where=keep)
                y = np.negative(o, o)
        return _maybe_scalar(y) if out is None else y

    def density(self, x):
        return _maybe_scalar(np.exp(self.log_density(x)))

    def score(self, x, out=None):
        """d/dx log density(x) on the support; ``out`` as for log_density.

        At the exponential's boundary x = 0 (and -0.0) it is the one-sided
        derivative -1: reflected Euler paths can land exactly there.
        The heavy-tailed scores take one temporary, their denominator.
        """
        o = out
        if o is None:
            x, o = _fresh(x)
        if self.kind == "exp":
            if np.any(x < 0.0):
                raise ValueError("score of the exponential target requires x >= 0")
            if o is None:
                y = _NEG_ONE
            else:
                o.fill(-1.0)
                y = o
        elif self.kind == "normal":  # -x
            y = np.negative(x, o)
        else:  # c * x / (d + x * x)
            c, d = _SCORE_RATIONAL[self.kind]
            y = np.multiply(c, x, o)
            den = np.multiply(x, x)  # a numpy scalar for a 0-d x
            den = np.add(d, den, None if o is None else den)
            y = np.divide(y, den, o)
        return _maybe_scalar(y) if out is None else y

    def cdf(self, x):
        x = np.asarray(x, float)
        if self.kind == "normal":
            out = _ndtr(x)
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
    lo = 0.0 if kind == "exp" else -math.inf
    return TargetModel(kind=kind, support=(lo, math.inf))
