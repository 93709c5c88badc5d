"""Special functions underpinning the distance-inference routines.

Self-contained implementations of the scaled modified Bessel function
exp(-x) I0(x), the noncentral chi-square CDF with 2 degrees of freedom
(scalar, and broadcast over arrays), and the one root solver:
invert_monotone, which returns 0 for a target an atom at 0 covers and
otherwise bisects the floats of [0, largest float] by their bit patterns.
All of it is deterministic: one series for small arguments, run on floats
or on numpy arrays, and one fixed Gauss-Legendre rule for large ones, each
shared by scalar and array calls. The accuracy contracts are stated per
function; a root is where f crosses the target between adjacent floats,
the least float at which f reaches it if f is nondecreasing across floats.
"""

from __future__ import annotations

import math
import struct
import sys
from typing import Callable

import numpy as np

__all__ = [
    "ConfdistError",
    "DomainError",
    "BracketError",
    "ConvergenceError",
    "bessel_i0_scaled",
    "noncentral_chisq2_cdf",
    "invert_monotone",
]


class ConfdistError(Exception):
    """A failure whose args are its rule text, then the inputs it names as
    (name, value) pairs; a bare message is a rule with no inputs."""

    joint = " and "  # between the values of two inputs

    def render(self, name_of: Callable[[str], str] = str) -> str:
        """'<names> <rule>, got <values>', names through name_of (str() keeps the
        library's); an indexed name such as grid[2] is its array's, shown 'grid[2] = 1.0'."""
        rule, *inputs = self.args
        names = dict.fromkeys(name_of(name.partition("[")[0]) for name, _ in inputs)
        got = self.joint.join(f"{name} = {value!r}" if "[" in name else repr(value)
                              for name, value in inputs)
        return f"{' and '.join(names)} {rule}, got {got}" if inputs else rule

    __str__ = render


class DomainError(ConfdistError, ValueError):
    """An argument lies outside a function's mathematical domain."""


class BracketError(ConfdistError, ValueError):
    """A nondecreasing function never reaches the target value."""


class ConvergenceError(ConfdistError, RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


# exp(-x) underflows near x = 745; stay clear of it on the fast paths
_EXP_LIMIT = 700.0
# [0, 1] results may stray this far outside before we call it a failure
_PROB_SLACK = 1e-9
# the most rows of an (n, 2) float64 array: numpy refuses one whose byte
# size exceeds sys.maxsize, so a larger count of draws or points is refused first
MAX_ROWS = sys.maxsize // 16
# I0e by the trapezoid rule up to this x, by its asymptotic series beyond it
_I0_ASYMPTOTIC_FROM = 50.0
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
# c_k of I0e(z) ~ (2 pi z)^{-1/2} sum_k c_k z^{-k}; 11 terms leave < 1.2e-16 for z > 50
_I0E_ASYMPTOTIC = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 11)]).tolist()
# 2 sin^2(theta/2) at 64 equispaced theta in [0, 2 pi), the trapezoid rule's nodes for I0e
_I0E_NODES = 2.0 * np.sin(np.pi * np.arange(64) / 64) ** 2


# Argument checks shared by every module: each returns the value as a
# float (or int, the squared ratio to sigma, or the grid as a float array)
# and raises a DomainError that carries the inputs at fault, built only on
# failure; the CLI names each input by the flag that set it.


def _as_float(name: str, value, rule: str = "must be a number") -> float:
    # float(value), or a DomainError naming the input for what float() refuses
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(rule, (name, value)) from None


def require_finite(name: str, value: float) -> float:
    value = _as_float(name, value)
    if not math.isfinite(value):
        raise DomainError("must be finite", (name, value))
    return value


def require_nonnegative(name: str, value: float) -> float:
    value = _as_float(name, value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError("must be finite and nonnegative", (name, value))
    return value


def require_positive(name: str, value: float) -> float:
    value = _as_float(name, value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError("must be finite and positive", (name, value))
    return value


def require_open_unit(name: str, value: float) -> float:
    value = _as_float(name, value)
    if not 0.0 < value < 1.0:
        raise DomainError("must lie strictly between 0 and 1", (name, value))
    return value


def require_squared_ratio(name: str, value, sigma: float, *inputs: tuple[str, object]):
    """(value/sigma)^2 for sigma > 0 and a nonnegative float or array value.

    The ratio is formed before the square, so the result depends on value
    and sigma only through value/sigma and leaves float range only when
    the square itself does. Its DomainError carries inputs, by default
    (name, value) and ("sigma", sigma), an array value by its largest entry.
    """
    peak = float(np.maximum.reduce(value, axis=None))  # np.max on a float costs twice as long
    top = peak / sigma  # checked before an array divides, so numpy never warns of overflow
    if not math.isfinite(top * top):
        raise DomainError(f"must keep ({name}/sigma)^2 finite",
                          *(inputs or ((name, peak), ("sigma", sigma))))
    ratio = value / sigma  # a float stays a float; no element exceeds top
    return ratio * ratio


def require_grid(name: str, grid, positive: bool = False) -> np.ndarray:
    """grid, any sequence of numbers or number text, as a float array (a float
    ndarray itself, not a copy) if it is nonempty, 1-d, finite, strictly
    increasing and > 0 if positive, else >= 0.

    A str, bytes or non-iterable grid is refused whole; the entries are walked,
    to name the first that float() refuses, only if numpy cannot read them.
    Each other error but the shape's carries the entries at fault, by index.
    """
    if isinstance(grid, (str, bytes)) or not np.iterable(grid):  # no text read per character
        raise DomainError("entries must be numbers", (name, grid))
    entries = grid if isinstance(grid, np.ndarray) else tuple(grid)  # a generator reads once
    try:
        grid = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        grid = np.array([_as_float(f"{name}[{i}]", entry, "entries must be numbers")
                         for i, entry in enumerate(entries)])
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("must have a nonempty 1-d shape", (name, grid.shape))
    at = lambda i: (f"{name}[{i}]", grid[i].item())  # noqa: E731
    bad = np.flatnonzero(~(np.isfinite(grid) & ((grid > 0.0) if positive else (grid >= 0.0))))
    if bad.size:
        sign = "positive" if positive else "nonnegative"
        raise DomainError(f"values must be finite and {sign}", at(bad[0]))
    bad = np.flatnonzero(np.diff(grid) <= 0.0)
    if bad.size:
        error = DomainError("must be strictly increasing", at(bad[0] + 1), at(bad[0]))
        error.joint = " after "  # the first entry out of order, then the one before it
        raise error
    return grid


def require_count(name: str, value: int, minimum: int, maximum: int | None = None) -> int:
    try:
        ok = not isinstance(value, bool) and int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        ok = False  # int() refuses nan, infinities and non-numbers
    if not ok:
        raise DomainError(f"must be an integer >= {minimum}", (name, value))
    if maximum is not None and value > maximum:
        raise DomainError(f"must be at most {maximum}", (name, value))
    return int(value)


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x), safe for arbitrarily large x.

    Up to x = 50, the mean of exp(-2 x sin^2(theta/2)) over 64 equispaced theta
    in [0, 2 pi), the trapezoid rule on a periodic integrand of I0e, which errs
    by 2 sum_k I_{64k}(x)/I0(x) < 1.4e-16 there; beyond, the asymptotic series
    (2 pi x)^{-1/2} * sum_k a_k / x^k with a_k = ((2k-1)!!)^2 / (k! 8^k), 11 terms.
    Relative error <= 1e-15.
    """
    x = require_nonnegative("x", x)
    if x <= _I0_ASYMPTOTIC_FROM:
        return math.fsum(np.exp(-x * _I0E_NODES).tolist()) / _I0E_NODES.size
    return _i0e_asymptotic(1.0 / x) / math.sqrt(2.0 * math.pi * x)


def _i0e_asymptotic(r):
    # sqrt(2 pi z) I0e(z) for r = 1/z > 0 (a float or an array), by Horner
    s = _I0E_ASYMPTOTIC[-1]
    for c in _I0E_ASYMPTOTIC[-2::-1]:
        s = s * r + c
    return s


def _not_a_probability(x, nu, p) -> ConvergenceError:
    # the [0, 1] guard's one error, scalar or vector, built only on failure
    regime = "Rice rule" if max(x, nu) > _DIRECT_LIMIT else "direct series"
    return ConvergenceError(f"noncentral_chisq2_cdf({float(x)!r}, {float(nu)!r}) "
                            f"produced {float(p)!r} by the {regime}, outside [0, 1]")


def _series_terms(m: float) -> int:
    # K with P(Poisson(m) >= K) < 1e-17 for 0 <= m <= 700. Summing k < K(min(lam, h))
    # leaves out sum_{k >= K} w_k g_k, below P(Poisson(lam) >= K) as g_k <= 1, and
    # below g_K = P(Poisson(h) > K) as g_k falls with k and the w_k sum to at most 1
    return math.ceil(m + 8.75 * math.sqrt(m) + 10.5)


# the series' term indices k as floats, enough for m = min(lam, h) <= 700: a float
# divides by a float faster than by an int, to the same bits
_TERM_INDEX = [float(k) for k in range(_series_terms(_EXP_LIMIT))]


def _cdf_series(lam, h):
    # Poisson(lam) mixture of central chi-square CDFs over k < K(m), m the largest
    # min(lam, h), on floats or on arrays that broadcast (a 0-d operand stays 0-d);
    # both recurrences start from k = 0, valid while exp(-lam) and exp(-h) are normal.
    # w is half the Poisson(lam) weight, so each term w * (g + |g|) is the weight
    # times max(1 - q, 0) exactly: once the Poisson(h) CDF q rounds to 1, the rest vanish.
    if isinstance(lam, float) and isinstance(h, float):
        exp, m = math.exp, min(lam, h)
    else:
        exp, m = np.exp, float(np.minimum(lam, h).max())
    w, t = 0.5 * exp(-lam), exp(-h)
    q = t + 0.0  # a copy, as t is updated in place
    g = 1.0 - q
    acc = w * (g + abs(g))
    for k in _TERM_INDEX[1:_series_terms(m)]:
        w *= lam / k
        t *= h / k
        q += t
        g = 1.0 - q
        acc += w * (g + abs(g))
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
    by recurrences over k < ceil(m + 8.75 sqrt(m) + 10.5), m = min(lam, x/2),
    at most 943 terms, which leave out under 1e-17; a term adds 0 where its
    chi-square CDF, formed as 1 minus a Poisson CDF, rounds to 0 or below.
    Beyond that, integrates the Rice density of sqrt(chi2) by a fixed
    144-node Gauss-Legendre rule, in the same time at any nu.
    Absolute error <= 1e-12; results are clamped to [0, 1], and one
    straying more than 1e-9 outside, or nan, raises ConvergenceError, by
    the one guard that _cdf_grid shares.
    """
    x = require_nonnegative("x", x)
    nu = require_nonnegative("nu", nu)
    if max(x, nu) <= _DIRECT_LIMIT:
        p = _cdf_series(0.5 * nu, 0.5 * x)
    else:
        p = float(_g2_rice(np.array([x]), np.array([nu]))[0])
    if not (-_PROB_SLACK <= p <= 1.0 + _PROB_SLACK):  # a nan fails too
        raise _not_a_probability(x, nu, p)
    return min(max(p, 0.0), 1.0)


def _cdf_grid(x, nu) -> np.ndarray:
    """noncentral_chisq2_cdf broadcast over arrays of x and nu.

    x and nu must be finite and nonnegative, unchecked here: callers form them
    by require_grid and require_squared_ratio. Each element takes one path: the
    direct series if x, nu <= 1400 (a scalar argument stays scalar), else the
    Rice rule, which gives its scalar call's bits.
    The scalar call's [0, 1] guard clamps the results; the first element
    straying more than 1e-9 outside, or nan, raises its ConvergenceError.
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    shape = np.broadcast_shapes(x.shape, nu.shape)
    wide_x, wide_nu = np.broadcast_to(x, shape), np.broadcast_to(nu, shape)
    small, acc = np.maximum(x, nu) <= _DIRECT_LIMIT, np.empty(shape)
    if small.any():  # the series' term count refuses an empty array; a 0-d operand stays 0-d
        acc[small] = _cdf_series(0.5 * (nu if nu.ndim == 0 else wide_nu[small]),
                                  0.5 * (x if x.ndim == 0 else wide_x[small]))
    acc[~small] = _g2_rice(wide_x[~small], wide_nu[~small])
    bad = ~((-_PROB_SLACK <= acc) & (acc <= 1.0 + _PROB_SLACK))  # a nan fails too
    if bad.any():
        i = np.unravel_index(np.argmax(bad), shape)  # the first offending element
        raise _not_a_probability(wide_x[i], wide_nu[i], acc[i])
    return np.clip(acc, 0.0, 1.0)


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def invert_monotone(f: Callable[[float], float], target: float) -> float:
    """The float hi at which f crosses target, in at most 65 calls of f.

    hi = 0.0 when f(0) >= target; else f(lo) < target <= f(hi) for lo the
    float below hi, so hi = inf{x >= 0 : f(x) >= target} where f is
    nondecreasing across floats. Bisects the bit patterns of 0 and of the
    largest float, in which nonnegative floats sort, calling f once per
    point with a Python float: f(0), f(largest), then at most 63 midpoints.
    BracketError names target and the largest float if f stays below there.
    """
    target = require_finite("target", target)
    if f(0.0) >= target:
        return 0.0
    if f(sys.float_info.max) < target:
        raise BracketError(f"f stays below target {target!r} up to f({sys.float_info.max!r})")
    lo, hi = 0, 0x7FEFFFFFFFFFFFFF  # the bits of 0.0 and of the largest float
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(_float_of_bits(mid)) < target:
            lo = mid
        else:
            hi = mid
    return _float_of_bits(hi)
