"""Scalar special functions underpinning the distance-inference routines.

Self-contained implementations of the modified Bessel function I0, the
noncentral chi-square CDF with 2 degrees of freedom, and a bisection-based
inverter for monotone CDFs. Everything here is deterministic: plain float
arithmetic on the small-argument series and numpy sums over whole arrays
of terms on the large-argument window and the vector grid. The accuracy
contracts are stated per function.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "BracketError",
    "ConvergenceError",
    "bessel_i0",
    "bessel_i0_scaled",
    "noncentral_chisq2_cdf",
    "invert_monotone",
]


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class BracketError(ValueError):
    """The target value is not bracketed by f(lo) and f(hi)."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


# exp(-x) underflows near x = 745; stay clear of it on the fast paths
_EXP_LIMIT = 700.0
# stop series when the unaccounted Poisson weight drops below this
_POISSON_TAIL = 1e-14
# [0, 1] results may stray this far outside before we call it a failure
_PROB_SLACK = 1e-9
# power series / asymptotic crossover for I0
_I0_SERIES_LIMIT = 50.0
# terms per numpy block of the large-argument window; bounds its memory
_WINDOW_BLOCK = 1 << 16
# log(k!) for k < 30, where Stirling's series is not accurate enough
_LGAMMA_BELOW_30 = np.array([math.lgamma(k + 1.0) for k in range(30)])


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


def _i0_power_series(x: float) -> float:
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
    return total


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series for x <= 50; exp(x) times the scaled asymptotic form above.
    Relative error <= 1e-12 over the representable range. Overflows (like
    exp does) near x = 713; use bessel_i0_scaled when that matters.
    """
    x = require_nonnegative("x", x)
    if x <= _I0_SERIES_LIMIT:
        return _i0_power_series(x)
    scaled = bessel_i0_scaled(x)
    if x <= _EXP_LIMIT:
        return math.exp(x) * scaled
    return math.exp(x + math.log(scaled))


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x), safe for arbitrarily large x.

    For x > 50 uses the asymptotic series
    (2 pi x)^{-1/2} * sum_k a_k / x^k with a_k = ((2k-1)!!)^2 / (k! 8^k),
    truncated at the smallest term; below that, exp(-x) times the power
    series. Relative error <= 1e-12.
    """
    x = require_nonnegative("x", x)
    if x <= _I0_SERIES_LIMIT:
        return math.exp(-x) * _i0_power_series(x)
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        nxt = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        if nxt >= term:
            break  # asymptotic: stop once terms grow
        term = nxt
        total += term
        if term < total * 1e-17:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def _poisson_logpmf(k: np.ndarray, mean: float) -> np.ndarray:
    # log Poisson(k; mean) for an integer-valued float array k >= 0 and
    # mean > 0. Near k ~ mean the naive form -mean + k log(mean) - lgamma(k+1)
    # loses ~ eps * k log(mean) absolutely to cancellation; expanding lgamma
    # by Stirling keeps the log accurate to ~1e-13 for any magnitude.
    kk = np.maximum(k, 30.0)
    r2 = 1.0 / (kk * kk)
    corr = (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0)) / kk
    core = kk * np.log1p((mean - kk) / kk) + (kk - mean)
    out = core - 0.5 * np.log(2.0 * math.pi * kk) - corr
    small = k < 30.0
    if small.any():
        ks = k[small]
        out[small] = -mean + ks * math.log(mean) - _LGAMMA_BELOW_30[ks.astype(np.intp)]
    return out


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


def _cdf_series_pivoted(lam: float, h: float) -> float:
    # Large-argument path: the mixture over the +/- 9 sigma window of
    # Poisson(lam) around its mean, each weight exp(log pmf), against a
    # running Poisson(h) CDF that starts at j0, also 10 sigma below its
    # mean. Tail masses outside the windows are < 2e-18 each (Bernstein),
    # so classification shortcuts are exact to well under the 1e-12
    # absolute contract. Blocks of _WINDOW_BLOCK terms bound the memory.
    k_lo = max(0, int(lam - 9.0 * math.sqrt(lam) - 10.0)) if lam > _EXP_LIMIT else 0
    k_hi = int(lam + 9.0 * math.sqrt(lam) + 30.0) + 10

    g_lo_edge = h - 9.0 * math.sqrt(h) - 10.0  # below: central CDF ~ 1
    g_hi_edge = h + 9.0 * math.sqrt(h) + 10.0  # above: central CDF ~ 0
    if k_lo > g_hi_edge:
        return 0.0
    if k_hi < g_lo_edge:
        return 1.0

    j0 = max(0, int(g_lo_edge) - int(math.sqrt(h)) - 10)
    q = 0.0  # Poisson(h) CDF from j0 up to the previous k
    for start in range(j0, k_lo, _WINDOW_BLOCK):
        j = np.arange(start, min(start + _WINDOW_BLOCK, k_lo), dtype=float)
        q += float(np.exp(_poisson_logpmf(j, h)).sum())
    acc = 0.0
    for start in range(k_lo, k_hi + 1, _WINDOW_BLOCK):
        k = np.arange(start, min(start + _WINDOW_BLOCK, k_hi + 1), dtype=float)
        t = np.exp(_poisson_logpmf(k, h))  # underflows harmlessly far out
        t[: max(0, j0 - start)] = 0.0  # the CDF starts at j0
        cdf = q + np.cumsum(t)
        acc += float(np.dot(np.exp(_poisson_logpmf(k, lam)), np.maximum(1.0 - cdf, 0.0)))
        q = float(cdf[-1])
        if q >= 1.0:
            break  # remaining factors vanish at float precision
    return acc


def noncentral_chisq2_cdf(x: float, nu: float) -> float:
    """CDF of the noncentral chi-square law with 2 df and noncentrality nu.

    Evaluates the Poisson mixture
        sum_k e^{-lam} lam^k / k! * P(chi2_{2(k+1)} <= x),  lam = nu / 2.
    While lam and x/2 stay below 700, recurrences from k = 0 run in
    ordinary arithmetic until the unaccounted Poisson weight falls below
    1e-14. Beyond that, the sum runs over the +/- 9 sigma window around
    the Poisson mode as numpy arrays, each weight the exp of its log pmf,
    in blocks of 2^16 terms so that memory stays bounded at any nu.
    Absolute error <= 1e-12; results are clamped to [0, 1] (straying more
    than 1e-9 outside raises ConvergenceError).
    """
    x = require_nonnegative("x", x)
    nu = require_nonnegative("nu", nu)
    if x == 0.0:
        return 0.0
    lam = 0.5 * nu
    h = 0.5 * x
    if lam <= _EXP_LIMIT and h <= _EXP_LIMIT:
        p = _cdf_series_direct(lam, h)
    else:
        p = _cdf_series_pivoted(lam, h)
    return _as_probability(p, f"noncentral_chisq2_cdf({x!r}, {nu!r})")


def _cdf_grid(x, nu) -> np.ndarray:
    """noncentral_chisq2_cdf broadcast over arrays of x and nu.

    Vector twin of the direct series; falls back to the scalar routine
    for every element whenever some x/2 or nu/2 exceeds the no-underflow
    window.
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    shape = np.broadcast_shapes(x.shape, nu.shape)
    if math.prod(shape) == 0:
        return np.zeros(shape)
    for name, values in (("x", x), ("nu", nu)):
        if not np.all(np.isfinite(values)) or values.min() < 0.0:
            raise DomainError(f"{name} values must be finite and nonnegative")
    lam = 0.5 * nu
    h = 0.5 * x
    if lam.max() > _EXP_LIMIT or h.max() > _EXP_LIMIT:
        return np.vectorize(noncentral_chisq2_cdf, otypes=[float])(x, nu)

    # w and t keep the shapes of nu and x; only acc takes the broadcast one
    w = np.exp(-lam)
    cumw = w.copy()
    t = np.exp(-h)
    q = t.copy()
    acc = w * (1.0 - q)
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
            raise ConvergenceError(f"vector mixture series stalled at nu up to {nu.max()!r}")
    bad = (acc < -_PROB_SLACK) | (acc > 1.0 + _PROB_SLACK)
    if bad.any():
        raise ConvergenceError("vector mixture series left [0, 1]")
    return np.clip(acc, 0.0, 1.0)


def upper_bracket(
    f: Callable[[float], float], target: float, start: float, what: str
) -> float:
    """First hi = start * 2^k (k < 200) with f(hi) >= target: the upper
    end of an invert_monotone bracket for a nondecreasing f."""
    hi = start
    for _ in range(200):
        if f(hi) >= target:
            return hi
        hi *= 2.0
    raise ConvergenceError(f"no upper bracket for {what}")


def invert_monotone(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> float:
    """Solve f(x) = target for a nondecreasing f on [lo, hi] by bisection.

    Raises BracketError unless f(lo) <= target <= f(hi). Stops when the
    bracket width drops below tol (or float resolution, whichever comes
    first) and returns the bracket midpoint.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    if not (math.isfinite(target) and float(tol) > 0.0):
        raise DomainError(f"target must be finite and tol positive, got {target!r}, {tol!r}")
    flo = f(lo)
    fhi = f(hi)
    if not (flo <= target <= fhi):
        raise BracketError(
            f"target {target!r} not bracketed: f({lo!r})={flo!r}, f({hi!r})={fhi!r}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket already at float resolution
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
