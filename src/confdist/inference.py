"""Posterior and confidence-distribution summaries for a two-point distance.

Two points are observed as y = theta + noise with iid N(0, sigma^2)
coordinates in the plane of their displacement; delta = |theta| is the
distance of interest. Writing G2 for the noncentral chi-square CDF with
2 degrees of freedom:

    bayes_cdf:  B(delta | y) = G2(delta^2/sigma^2, |y|^2/sigma^2)
                (flat prior on theta, posterior probability of {|theta| <= delta})
    cd_cdf:     C(delta | y) = 1 - G2(|y|^2/sigma^2, delta^2/sigma^2)
                (p-value curve of the tests H0: distance <= delta)

Both are nondecreasing in delta with C >= B pointwise; the gap is
exp(-(delta^2 + |y|^2) / (2 sigma^2)) I0(delta |y| / sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .specfun import (
    BracketError,
    DomainError,
    _cdf_grid,
    invert_monotone,
    noncentral_chisq2_cdf,
    require_finite,
    require_grid,
    require_nonnegative,
    require_open_unit,
    require_positive,
    require_squared_ratio,
)

__all__ = [
    "Observation",
    "Method",
    "MedianResult",
    "LevelInterval",
    "CurveTable",
    "bayes_cdf",
    "cd_cdf",
    "median",
    "level_interval",
    "collision_confidence",
    "noncollision_pvalue",
    "tabulate_curves",
]

Method = Literal["bayes", "cd"]


@dataclass(frozen=True)
class Observation:
    """Measured displacement between the two objects, with known noise scale.

    y1, y2 are the displacement coordinates in the plane relevant to the
    distance; sigma is the per-coordinate noise standard deviation. Only
    the norm enters any downstream quantity.
    """

    y1: float
    y2: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "y1", require_finite("y1", self.y1))
        object.__setattr__(self, "y2", require_finite("y2", self.y2))
        if not math.isfinite(math.hypot(self.y1, self.y2)):
            raise DomainError("must give a finite norm |y|", ("y1", self.y1), ("y2", self.y2))
        object.__setattr__(self, "sigma", require_positive("sigma", self.sigma))

    @classmethod
    def from_norm(cls, norm: float, sigma: float) -> "Observation":
        return cls(require_nonnegative("norm", norm), 0.0, sigma)

    @property
    def norm(self) -> float:
        return math.hypot(self.y1, self.y2)


def _squared_ratios(obs: Observation, delta: float) -> tuple[float, float]:
    """(delta/sigma)^2 and (|y|/sigma)^2, the two G2 arguments of B and C."""
    delta = require_nonnegative("delta", delta)
    return (require_squared_ratio("delta", delta, obs.sigma),
            require_squared_ratio("|y|", obs.norm, obs.sigma))


# B and C in ratio space, of d2 = (delta/sigma)^2 and y2 = (|y|/sigma)^2
_CDF = {
    "bayes": lambda d2, y2: noncentral_chisq2_cdf(d2, y2),
    "cd": lambda d2, y2: 1.0 - noncentral_chisq2_cdf(y2, d2),
}


def bayes_cdf(obs: Observation, delta: float) -> float:
    """Posterior probability that the distance is at most delta."""
    return _CDF["bayes"](*_squared_ratios(obs, delta))


def cd_cdf(obs: Observation, delta: float) -> float:
    """Confidence-distribution CDF at delta: one minus the p-value of
    the test that the distance exceeds delta."""
    return _CDF["cd"](*_squared_ratios(obs, delta))


def _quantile(obs: Observation, method: Method, p: float) -> tuple[float, bool]:
    # (p-quantile, whether the zero atom covers p by itself), solved in
    # d = delta/sigma so that roots scale with the inputs bit for bit.
    # Where d^2 overflows (quietly, as d is a Python float), y2 is finite and both CDFs are 1.
    if not isinstance(method, str) or method not in _CDF:
        raise DomainError("must be 'bayes' or 'cd'", ("method", method))
    cdf = _CDF[method]
    y2 = require_squared_ratio("|y|", obs.norm, obs.sigma)
    d = invert_monotone(lambda d: cdf(d * d, y2) if d * d < math.inf else 1.0, p)
    root = d * obs.sigma
    if root == math.inf:
        raise BracketError(f"must give a {p!r} quantile of the {method} CDF within float range",
                           ("|y|", obs.norm), ("sigma", obs.sigma))
    return root, d == 0.0


class MedianResult(NamedTuple):
    value: float
    at_boundary: bool


class LevelInterval(NamedTuple):
    lo: float
    hi: float
    lo_clipped: bool


def median(obs: Observation, method: Method) -> MedianResult:
    """Median of the chosen distribution over distances.

    The confidence distribution can place probability >= 1/2 on delta = 0
    (it has an atom at zero of size C(0|y) = exp(-|y|^2 / (2 sigma^2)));
    in that case the median sits at the boundary and the flag is set.
    """
    return MedianResult(*_quantile(obs, method, 0.5))


def level_interval(obs: Observation, method: Method, level: float) -> LevelInterval:
    """Equal-tailed interval for the distance at the given level.

    Endpoints are the (1 -/+ level)/2 quantiles; when the lower tail mass
    at delta = 0 already exceeds (1 - level)/2 the lower endpoint is
    clipped to 0 and flagged.
    """
    level = require_open_unit("level", level)
    if 0.5 * (1.0 + level) == 1.0:  # only at the float just below 1: the upper end has no target
        raise DomainError("must leave (1 + level)/2 below 1 as a float", ("level", level))
    lo, clipped = _quantile(obs, method, 0.5 * (1.0 - level))
    hi, _ = _quantile(obs, method, 0.5 * (1.0 + level))
    return LevelInterval(lo, hi, clipped)


def collision_confidence(obs: Observation, radius: float) -> float:
    """Confidence assigned to the distance lying within the given radius."""
    return cd_cdf(obs, require_positive("radius", radius))


def noncollision_pvalue(obs: Observation, radius: float) -> float:
    """p-value of the hypothesis that the distance is at most the radius."""
    return 1.0 - collision_confidence(obs, radius)


@dataclass
class CurveTable:
    """Both cumulative curves on a common delta grid, with cc = |1 - 2C|, the
    smallest confidence level whose equal-tailed interval excludes delta,
    and its posterior analogue cred = |1 - 2B|."""

    delta: np.ndarray
    b: np.ndarray
    c: np.ndarray
    cc: np.ndarray
    cred: np.ndarray


def tabulate_curves(obs: Observation, grid) -> CurveTable:
    """Evaluate both CDFs and both centered curves over a delta grid."""
    grid = require_grid("grid", grid)
    # |y| first: a per-point call fails on it whenever its delta does not overflow
    y2 = require_squared_ratio("|y|", obs.norm, obs.sigma)
    d2 = require_squared_ratio("delta", grid, obs.sigma)
    b = _cdf_grid(d2, y2)
    c = 1.0 - _cdf_grid(y2, d2)
    return CurveTable(
        delta=grid,
        b=b,
        c=c,
        cc=np.abs(1.0 - 2.0 * c),
        cred=np.abs(1.0 - 2.0 * b),
    )
