"""Special functions underpinning the distance-inference routines.

Self-contained implementations of the scaled modified Bessel function
exp(-x) I0(x), the noncentral chi-square CDF with 2 degrees of freedom
(scalar, and broadcast over arrays), and the one root solver:
invert_monotone, the generalized inverse inf{x >= lo : f(x) >= target} of
a nondecreasing f, which finds its own upper bracket and returns lo for a
target an atom at lo covers.
All of it is deterministic: a float series for small arguments (with a
numpy twin for arrays), and one fixed Gauss-Legendre rule for large ones
that scalar and array calls share. The accuracy contracts are stated per
function; a root comes within tol, by default ROOT_TOL = 1e-10.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "BracketError",
    "ConvergenceError",
    "bessel_i0_scaled",
    "noncentral_chisq2_cdf",
    "invert_monotone",
]


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class BracketError(ValueError):
    """A nondecreasing function never reaches the target value."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


# exp(-x) underflows near x = 745; stay clear of it on the fast paths
_EXP_LIMIT = 700.0
# stop series when the unaccounted Poisson weight drops below this
_POISSON_TAIL = 1e-14
# [0, 1] results may stray this far outside before we call it a failure
_PROB_SLACK = 1e-9
# absolute root tolerance of invert_monotone
ROOT_TOL = 1e-10
# power series / asymptotic crossover for I0
_I0_SERIES_LIMIT = 50.0
_DIRECT_LIMIT = 2.0 * _EXP_LIMIT  # G2's direct series holds up to this x and nu
# Rice quadrature beyond it: 18 equal panels of [-9, top] with 8 Gauss-Legendre
# nodes each, in blocks of _RICE_ROWS elements to bound memory. The nodes and
# weights on [-1, 1] are written out, correctly rounded from a 50-digit solve,
# so that every platform sums the same bits and numpy.polynomial stays unloaded.
_RICE_CUT, _RICE_PANELS, _RICE_ROWS = 9.0, 18, 1 << 8
_GL_NODES = np.array([-0.9602898564975363, -0.7966664774136267, -0.525532409916329,
                      -0.1834346424956498, 0.1834346424956498, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975363])
_GL_WEIGHTS = np.array([0.10122853629037626, 0.22238103445337448, 0.31370664587788727,
                        0.362683783378362, 0.362683783378362, 0.31370664587788727,
                        0.22238103445337448, 0.10122853629037626])
_RICE_NODES = ((np.arange(_RICE_PANELS)[:, None] + 0.5 + 0.5 * _GL_NODES) / _RICE_PANELS).ravel()
_RICE_WEIGHTS = np.tile(_GL_WEIGHTS, _RICE_PANELS) / (2 * _RICE_PANELS * math.sqrt(2 * math.pi))
# c_k of I0e(z) ~ (2 pi z)^{-1/2} sum_k c_k z^{-k}; 11 terms are exact to float for z > 500
_I0E_ASYMPTOTIC = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 11)]).tolist()


# Argument checks shared by every module: each returns the value as a
# float (or int, or the squared ratio to sigma) and raises DomainError
# naming the argument otherwise.


def require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
    return value


def require_open_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


def require_squared_ratio(name: str, value, sigma: float, **inputs):
    """(value/sigma)^2 for sigma > 0 and a nonnegative float or array value.

    The ratio is formed before the square, so the result depends on value
    and sigma only through value/sigma and leaves float range only when
    the square itself does. Its DomainError names value (unless it is an
    array), then any keyword inputs that produced it, then sigma.
    """
    is_array = isinstance(value, np.ndarray)
    ratio = (float(value.max()) if is_array else value) / sigma
    if not math.isfinite(ratio * ratio):
        given = {**({} if is_array else {name: value}), **inputs, "sigma": sigma}
        got = ", ".join(f"{k}={v!r}" for k, v in given.items())
        raise DomainError(f"({name}/sigma)^2 must stay finite, got {got}")
    if is_array:
        ratio = value / sigma  # no element exceeds the peak checked above
    return ratio * ratio


def require_count(name: str, value: int, minimum: int) -> int:
    try:
        ok = not isinstance(value, bool) and int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        ok = False  # int() refuses nan, infinities and non-numbers
    if not ok:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x), safe for arbitrarily large x.

    For x > 50 uses the asymptotic series
    (2 pi x)^{-1/2} * sum_k a_k / x^k with a_k = ((2k-1)!!)^2 / (k! 8^k),
    whose terms fall for every k < 60 (by a ratio below 0.6), summed to
    1e-17 of the total; below that, exp(-x) times the power series.
    Relative error <= 1e-12.
    """
    x = require_nonnegative("x", x)
    if x <= _I0_SERIES_LIMIT:
        # I0(x) = sum_k (x^2/4)^k / (k!)^2; all terms positive, no cancellation
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        k = 0
        while term > total * 1e-17:
            k += 1
            term *= q / (k * k)
            total += term
            if k > 1000:
                raise ConvergenceError(f"I0 power series stalled at x={x!r}")
        return math.exp(-x) * total
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        total += term
        if term < total * 1e-17:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def _as_probability(p: float, context: str) -> float:
    if p < 0.0:
        if p < -_PROB_SLACK:
            raise ConvergenceError(f"{context} produced {p!r}, outside [0, 1]")
        return 0.0
    if p > 1.0:
        if p > 1.0 + _PROB_SLACK:
            raise ConvergenceError(f"{context} produced {p!r}, outside [0, 1]")
        return 1.0
    return p


def _cdf_series_direct(lam: float, h: float) -> float:
    # Poisson(lam) mixture of central chi-square CDFs, both recurrences
    # started from k = 0; valid while exp(-lam) and exp(-h) are normal.
    w = math.exp(-lam)
    cumw = w
    t = math.exp(-h)
    q = t  # Poisson(h) CDF at k, i.e. upper tail of P(chi2_{2(k+1)} <= 2h)
    g = 1.0 - q
    acc = w * g
    k = 0
    while 1.0 - cumw > _POISSON_TAIL:
        k += 1
        w *= lam / k
        cumw += w
        t *= h / k
        q += t
        g = 1.0 - q
        if g <= 0.0:
            break  # remaining factors vanish at float precision
        acc += w * g
        if k > 100000:
            raise ConvergenceError(f"mixture series stalled at lam={lam!r}, h={h!r}")
    return acc


def _g2_rice(x: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # G2 for 1-d arrays with max(x, nu) > _DIRECT_LIMIT from the Rice density
    # of |Z + mu| in u = |Z + mu| - a, a = |mu| = sqrt(nu), with no cancellation:
    #   G2 = int_{-a}^{top} (a+u) e^{-u^2/2} I0e(a(a+u)) du,  top = (x - nu)/(sqrt(x) + a).
    # The mass beyond |u| = 9 is below 1e-18, so top <= -9 gives 0 and top >= 9
    # gives 1. Otherwise a > 28: the lower limit is -9, a(a+u) > 500 and, with S
    # the asymptotic series of I0e, the integrand is sqrt(1 + u/a) e^{-u^2/2} S / sqrt(2 pi).
    a = np.sqrt(nu)
    top = (x - nu) / (np.sqrt(x) + a)
    out = (top >= _RICE_CUT).astype(float)
    inner = np.flatnonzero(np.abs(top) < _RICE_CUT)
    for start in range(0, inner.size, _RICE_ROWS):
        i = inner[start : start + _RICE_ROWS]
        span = top[i] + _RICE_CUT
        u = span[:, None] * _RICE_NODES - _RICE_CUT
        ai = a[i, None]
        r = 1.0 / (ai * (ai + u))
        s = _I0E_ASYMPTOTIC[-1]
        for c in _I0E_ASYMPTOTIC[-2::-1]:
            s = s * r + c
        f = np.sqrt(1.0 + u / ai) * np.exp(-0.5 * u * u) * s
        # a row sum, not f @ w: BLAS may order the sum by the row count,
        # and a scalar call must equal its element of a vector call
        out[i] = (f * _RICE_WEIGHTS).sum(axis=1) * span
    return out


def noncentral_chisq2_cdf(x: float, nu: float) -> float:
    """CDF of the noncentral chi-square law with 2 df and noncentrality nu.

    While x and nu stay at or below 1400, sums the Poisson mixture
        sum_k e^{-lam} lam^k / k! * P(chi2_{2(k+1)} <= x),  lam = nu / 2,
    by recurrences from k = 0 until the unaccounted Poisson weight falls
    below 1e-14. Beyond that, integrates the Rice density of sqrt(chi2)
    by a fixed 144-node Gauss-Legendre rule, in the same time at any nu.
    Absolute error <= 1e-12; results are clamped to [0, 1] (straying more
    than 1e-9 outside raises ConvergenceError).
    """
    x = require_nonnegative("x", x)
    nu = require_nonnegative("nu", nu)
    if max(x, nu) <= _DIRECT_LIMIT:
        p = _cdf_series_direct(0.5 * nu, 0.5 * x)
    else:
        p = float(_g2_rice(np.array([x]), np.array([nu]))[0])
    return _as_probability(p, f"noncentral_chisq2_cdf({x!r}, {nu!r})")


def _cdf_grid(x, nu) -> np.ndarray:
    """noncentral_chisq2_cdf broadcast over arrays of x and nu.

    Elements with x and nu at or below 1400 take the direct series, the rest
    the Rice quadrature, which gives each of them its scalar call's bits.
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    shape = np.broadcast_shapes(x.shape, nu.shape)
    if math.prod(shape) == 0:
        return np.zeros(shape)
    for name, values in (("x", x), ("nu", nu)):
        if not np.all(np.isfinite(values)) or values.min() < 0.0:
            raise DomainError(f"{name} values must be finite and nonnegative")
    # vector twin of the direct series, w and t in the shapes of nu and x;
    # lam = 0 where nu is large keeps exp(-lam) normal and the loop finite,
    # and the Rice quadrature then fills in every element with a large argument
    lam = np.where(nu > _DIRECT_LIMIT, 0.0, 0.5 * nu)
    h = 0.5 * x
    w = np.exp(-lam)
    cumw = w.copy()
    t = np.exp(-h)
    q = t.copy()
    acc = np.zeros(shape)  # an array even when x and nu are both 0-d
    acc += w * (1.0 - q)
    k = 0
    while 1.0 - cumw.min() > _POISSON_TAIL:
        k += 1
        w *= lam / k
        cumw += w
        t *= h / k
        q += t
        g = np.maximum(1.0 - q, 0.0)
        if not g.any():
            break  # remaining factors vanish at float precision
        acc += w * g
        if k > 100000:
            raise ConvergenceError(f"vector mixture series stalled at nu up to {float(nu.max())!r}")
    large = np.maximum(x, nu) > _DIRECT_LIMIT
    acc[large] = _g2_rice(np.broadcast_to(x, shape)[large], np.broadcast_to(nu, shape)[large])
    bad = (acc < -_PROB_SLACK) | (acc > 1.0 + _PROB_SLACK)
    if bad.any():
        raise ConvergenceError("vector G2 left [0, 1]")
    return np.clip(acc, 0.0, 1.0)


def invert_monotone(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = ROOT_TOL,
) -> float:
    """inf{x >= lo : f(x) >= target} for a nondecreasing f, by bisection.

    Returns lo itself when f(lo) >= target, so an atom of a CDF at lo
    needs no special case. Otherwise hi is a first guess: while
    f(hi) < target, lo moves up to hi and hi to lo + 2^k (hi - lo) for the
    caller's lo and hi, at most 200 times, and BracketError names the
    target and the last hi if f never gets there. Each point is evaluated
    once. Bisection of the last [lo, hi] stops when the bracket width
    drops below tol (or float resolution, whichever comes first) and
    returns the bracket midpoint.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    if not (math.isfinite(target) and float(tol) > 0.0):
        raise DomainError(f"target must be finite and tol positive, got {target!r}, {tol!r}")
    if f(lo) >= target:
        return lo
    lo0 = lo
    doublings = 0
    while f(hi) < target:
        if doublings == 200:
            raise BracketError(f"f stays below target {target!r} up to f({hi!r})")
        lo, hi = hi, hi + (hi - lo0)
        doublings += 1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket already at float resolution
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
