"""Special functions underpinning the distance-inference routines.

Self-contained implementations of the scaled modified Bessel function
exp(-x) I0(x), the noncentral chi-square CDF with 2 degrees of freedom
(scalar, and broadcast over arrays), and the one root solver:
invert_monotone, the generalized inverse inf{x >= 0 : f(x) >= target} of
a nondecreasing f, which finds its own upper bracket anywhere in the float
range and returns 0 for a target an atom at 0 covers.
All of it is deterministic: a float series for small arguments (with a
numpy twin for arrays), and one fixed Gauss-Legendre rule for large ones
that scalar and array calls share. The accuracy contracts are stated per
function; a root comes within tol, by default ROOT_TOL = 1e-10.
"""

from __future__ import annotations

import math
import sys
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
# the largest float, where invert_monotone's bracket ends
_FLOAT_MAX = math.nextafter(math.inf, 0.0)
# the most rows of an (n, 2) float64 array: numpy refuses one whose byte
# size exceeds sys.maxsize, so a larger count of draws or points is refused first
MAX_ROWS = sys.maxsize // 16
# power series / asymptotic crossover for I0
_I0_SERIES_LIMIT = 50.0
_DIRECT_LIMIT = 2.0 * _EXP_LIMIT  # G2's direct series holds up to this x and nu,
_DIRECT_TERMS = int(_DIRECT_LIMIT) + 1  # for k <= 1400: Poisson(700) has < 1e-100 beyond
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
# c_k of I0e(z) ~ (2 pi z)^{-1/2} sum_k c_k z^{-k}; 11 terms leave < 1.2e-16 for z > 50
_I0E_ASYMPTOTIC = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 11)]).tolist()


# Argument checks shared by every module: each returns the value as a
# float (or int, the squared ratio to sigma, or the grid itself) and raises
# DomainError otherwise. Each message but the squared ratio's starts with
# the argument's name and a space; the CLI puts the flag that set it there.


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


def require_grid(name: str, grid: np.ndarray, positive: bool = False) -> np.ndarray:
    """grid itself if it is a nonempty 1-d float array of finite, strictly
    increasing values that are > 0 if positive, else >= 0.

    Each message but the shape's names the first entry at fault.
    """
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d array, got shape {grid.shape}")
    at = lambda i: f"{name}[{i}] = {grid[i].item()!r}"  # noqa: E731
    bad = np.flatnonzero(~(np.isfinite(grid) & ((grid > 0.0) if positive else (grid >= 0.0))))
    if bad.size:
        sign = "positive" if positive else "nonnegative"
        raise DomainError(f"{name} values must be finite and {sign}, got {at(bad[0])}")
    bad = np.flatnonzero(np.diff(grid) <= 0.0)
    if bad.size:
        i = bad[0] + 1
        raise DomainError(f"{name} must be strictly increasing, got {at(i)} after {at(i - 1)}")
    return grid


def require_count(name: str, value: int, minimum: int, maximum: int | None = None) -> int:
    try:
        ok = not isinstance(value, bool) and int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        ok = False  # int() refuses nan, infinities and non-numbers
    if not ok:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be at most {maximum}, got {value!r}")
    return int(value)


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x), safe for arbitrarily large x.

    For x > 50 uses the asymptotic series
    (2 pi x)^{-1/2} * sum_k a_k / x^k with a_k = ((2k-1)!!)^2 / (k! 8^k),
    its first 11 terms; below that, exp(-x) times the power series.
    Relative error <= 1e-12 (<= 1e-15 above 50).
    """
    x = require_nonnegative("x", x)
    if x <= _I0_SERIES_LIMIT:
        # I0(x) = sum_k (x^2/4)^k / (k!)^2; all terms positive, no cancellation.
        # The sum meets 1e-17 by k = 61 at x = 50, the worst case, so 80 terms suffice.
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        for k in range(1, 80):
            term *= q / (k * k)
            total += term
            if term <= total * 1e-17:
                break
        return math.exp(-x) * total
    return _i0e_asymptotic(1.0 / x) / math.sqrt(2.0 * math.pi * x)


def _i0e_asymptotic(r):
    # sqrt(2 pi z) I0e(z) for r = 1/z > 0 (a float or an array), by Horner
    s = _I0E_ASYMPTOTIC[-1]
    for c in _I0E_ASYMPTOTIC[-2::-1]:
        s = s * r + c
    return s


def _not_a_probability(x, nu, p) -> ConvergenceError:
    # the [0, 1] guard's one error, scalar or vector, built only on failure
    return ConvergenceError(f"noncentral_chisq2_cdf({float(x)!r}, {float(nu)!r}) "
                            f"produced {float(p)!r}, outside [0, 1]")


def _cdf_series_direct(lam: float, h: float) -> float:
    # Poisson(lam) mixture of central chi-square CDFs, both recurrences
    # started from k = 0; valid while exp(-lam) and exp(-h) are normal.
    w = math.exp(-lam)
    cumw = w
    t = math.exp(-h)
    q = t  # Poisson(h) CDF at k, i.e. upper tail of P(chi2_{2(k+1)} <= 2h)
    g = 1.0 - q
    acc = w * g
    for k in range(1, _DIRECT_TERMS):
        if 1.0 - cumw <= _POISSON_TAIL:
            break
        w *= lam / k
        cumw += w
        t *= h / k
        q += t
        g = 1.0 - q
        if g <= 0.0:
            break  # remaining factors vanish at float precision
        acc += w * g
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
        s = _i0e_asymptotic(1.0 / (ai * (ai + u)))
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
    below 1e-14, or for at most 1,401 terms, past which Poisson(lam <= 700)
    leaves under 1e-100. Beyond that, integrates the Rice density of sqrt(chi2)
    by a fixed 144-node Gauss-Legendre rule, in the same time at any nu.
    Absolute error <= 1e-12; results are clamped to [0, 1], and one
    straying more than 1e-9 outside raises ConvergenceError, by the one
    guard that _cdf_grid shares.
    """
    x = require_nonnegative("x", x)
    nu = require_nonnegative("nu", nu)
    if max(x, nu) <= _DIRECT_LIMIT:
        p = _cdf_series_direct(0.5 * nu, 0.5 * x)
    else:
        p = float(_g2_rice(np.array([x]), np.array([nu]))[0])
    if p < -_PROB_SLACK or p > 1.0 + _PROB_SLACK:
        raise _not_a_probability(x, nu, p)
    return min(max(p, 0.0), 1.0)  # a nan passes, as through _cdf_grid's np.clip


def _cdf_grid(x, nu) -> np.ndarray:
    """noncentral_chisq2_cdf broadcast over arrays of x and nu.

    Elements with x and nu at or below 1400 take the direct series, the rest
    the Rice quadrature, which gives each of them its scalar call's bits.
    The scalar call's [0, 1] guard clamps the results; the first element
    straying more than 1e-9 outside raises its ConvergenceError.
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    shape = np.broadcast_shapes(x.shape, nu.shape)
    if math.prod(shape) == 0:
        return np.zeros(shape)
    for name, values in (("x", x), ("nu", nu)):
        for extreme in (values.min(), values.max()):  # a nan is both
            require_nonnegative(name, extreme)
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
    for k in range(1, _DIRECT_TERMS):
        if 1.0 - cumw.min() <= _POISSON_TAIL:
            break
        w *= lam / k
        cumw += w
        t *= h / k
        q += t
        g = np.maximum(1.0 - q, 0.0)
        if not g.any():
            break  # remaining factors vanish at float precision
        acc += w * g
    large = np.maximum(x, nu) > _DIRECT_LIMIT
    acc[large] = _g2_rice(np.broadcast_to(x, shape)[large], np.broadcast_to(nu, shape)[large])
    bad = (acc < -_PROB_SLACK) | (acc > 1.0 + _PROB_SLACK)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), shape)  # the first offending element
        x, nu = np.broadcast_to(x, shape)[i], np.broadcast_to(nu, shape)[i]
        raise _not_a_probability(x, nu, acc[i])
    return np.clip(acc, 0.0, 1.0)


def invert_monotone(
    f: Callable[[float], float],
    target: float,
    hi: float,
    tol: float = ROOT_TOL,
) -> float:
    """inf{x >= 0 : f(x) >= target} for a nondecreasing f on [0, inf), by bisection.

    Returns 0.0 when f(0) >= target, so an atom of a CDF at 0 needs no
    special case. Otherwise hi > 0 is a first guess, inf standing for the
    largest float: while f(hi) < target, lo moves up to hi and hi doubles,
    never past the largest float, and BracketError names the target and the
    largest float if f never gets there. Each point is evaluated once.
    Bisection of the last [lo, hi] stops when the bracket width drops to tol
    (tol = 0: to float resolution) and returns the bracket midpoint.
    """
    hi = require_positive("hi", min(float(hi), _FLOAT_MAX))  # a nan hi stays nan
    target = require_finite("target", target)
    tol = require_nonnegative("tol", tol)
    lo = 0.0
    if f(lo) >= target:
        return lo
    while f(hi) < target:
        if hi == _FLOAT_MAX:
            raise BracketError(f"f stays below target {target!r} up to f({hi!r})")
        lo, hi = hi, min(2.0 * hi, _FLOAT_MAX)
    while True:
        # lo + hi can overflow only when hi exceeds half the largest float
        mid = 0.5 * (lo + hi) if hi <= 0.5 * _FLOAT_MAX else 0.5 * lo + 0.5 * hi
        if hi - lo <= tol or mid <= lo or mid >= hi:
            return mid  # width within tol, or bracket at float resolution
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
