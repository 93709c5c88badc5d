"""Calibration experiments: Monte Carlo sweeps, exact twins, PIT checks.

Replicated observations are drawn from the model y ~ N((delta_true, 0),
sigma^2 I). Reproducibility contract: sigma index s of a sweep owns the
generator PCG64(SeedSequence(seed, spawn_key=(s,))) and a PIT sample owns
PCG64(SeedSequence(seed, spawn_key=())); replicate r is row r of one
normal((delta_true, 0), sigma, size=(n, 2)) draw from that generator.
Results are a pure function of the seed, so they are byte-identical
across runs and worker counts; reductions happen in replicate order.
The stream changed once, from one substream per replicate keyed by
(s, r) or (r,), so samples from before that change differ for a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .inference import Observation
from .specfun import (
    ConvergenceError,
    DomainError,
    _cdf_grid,
    bessel_i0_scaled,
    invert_monotone,
    noncentral_chisq2_cdf,
    require_count,
    require_nonnegative,
    require_open_unit,
    require_positive,
    upper_bracket,
)

__all__ = [
    "Scenario",
    "SweepConfig",
    "CalibrationRow",
    "ExactRow",
    "PitSummary",
    "draw_observation",
    "run_sweep",
    "exact_row",
    "pit_sample",
]

# density mass beyond the quadrature cutoff
_QUAD_TAIL = 1e-12
# absolute accuracy demanded of the exact-mean integrals
_QUAD_ABS = 1e-8


@dataclass(frozen=True)
class Scenario:
    """True configuration generating the replicated observations."""

    delta_true: float
    sigma: float
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_true", require_nonnegative("delta_true", self.delta_true))
        object.__setattr__(self, "sigma", require_positive("sigma", self.sigma))
        object.__setattr__(self, "radius", require_positive("radius", self.radius))


@dataclass(frozen=True)
class SweepConfig:
    """Monte Carlo sweep settings over a grid of noise scales."""

    sigma_grid: tuple[float, ...]
    n_reps: int
    seed: int
    threshold: float = 0.95

    def __post_init__(self) -> None:
        try:
            grid = tuple(float(s) for s in self.sigma_grid)
        except (TypeError, ValueError):
            raise DomainError(f"sigma_grid entries must be numbers, got {self.sigma_grid!r}")
        if len(grid) == 0:
            raise DomainError("sigma_grid must be nonempty")
        for s in grid:
            require_positive("sigma_grid entry", s)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("sigma_grid must be strictly increasing")
        object.__setattr__(self, "sigma_grid", grid)
        object.__setattr__(self, "n_reps", require_count("n_reps", self.n_reps, 1))
        object.__setattr__(self, "seed", require_count("seed", self.seed, 0))
        object.__setattr__(self, "threshold", require_open_unit("threshold", self.threshold))


@dataclass(frozen=True)
class CalibrationRow:
    """One sweep row: Monte Carlo summaries, exact twins, standard errors.

    mean_* average the non-collision probabilities 1 - B(R|Y) and
    1 - C(R|Y) over replicates; freq_* are the fractions exceeding the
    threshold. stderr_freq_* exist on the record even though the sweep CSV
    schema only carries the mean standard errors.
    """

    sigma: float
    mean_bayes: float
    mean_cd: float
    freq_bayes: float
    freq_cd: float
    mean_bayes_exact: float
    mean_cd_exact: float
    freq_bayes_exact: float
    freq_cd_exact: float
    stderr_mean_bayes: float
    stderr_mean_cd: float
    stderr_freq_bayes: float
    stderr_freq_cd: float


class ExactRow(NamedTuple):
    mean_bayes: float
    mean_cd: float
    freq_bayes: float
    freq_cd: float


@dataclass(frozen=True)
class PitSummary:
    """Probability integral transform diagnostics for 1 - C(R|Y)."""

    n: int
    ks_stat: float
    histogram: tuple[int, ...]
    mean_u: float

    def __post_init__(self) -> None:
        if len(self.histogram) != 20 or sum(self.histogram) != self.n:
            raise DomainError("histogram must have 20 bins summing to n")


def draw_observation(scenario: Scenario, rng: np.random.Generator) -> Observation:
    """One observation y ~ N((delta_true, 0), sigma^2 I) from the given
    generator (two consecutive normal deviates)."""
    y1, y2 = rng.normal((scenario.delta_true, 0.0), scenario.sigma)
    return Observation(float(y1), float(y2), scenario.sigma)


def _squared_norm_ratios(
    scenario: Scenario,
    seed: int,
    key: tuple[int, ...],
    n: int,
) -> np.ndarray:
    """z_r = |y_r|^2 / sigma^2 for replicates r = 0..n-1, the rows of one
    (n, 2) draw from the substream keyed by key."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    y = rng.normal((scenario.delta_true, 0.0), scenario.sigma, size=(n, 2))
    y1, y2 = y[:, 0], y[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        z = (y1 * y1 + y2 * y2) / (scenario.sigma * scenario.sigma)
    if not np.all(np.isfinite(z)):
        raise DomainError(
            f"|y|^2/sigma^2 must stay finite, got sigma={scenario.sigma!r}, "
            f"delta_true={scenario.delta_true!r}"
        )
    return z


def _ncx2_pdf(z: float, nu: float) -> float:
    # density of Z = |Y|^2/sigma^2: 2 df, noncentrality nu, exponentially
    # scaled Bessel factor keeps it finite for any argument size
    if z < 0.0:
        return 0.0
    root = math.sqrt(z * nu) if nu > 0.0 else 0.0
    return 0.5 * math.exp(-0.5 * (math.sqrt(z) - math.sqrt(nu)) ** 2) * bessel_i0_scaled(root)


def _upper_quantile(nu: float, p: float) -> float:
    cdf = lambda z: noncentral_chisq2_cdf(z, nu)
    hi = upper_bracket(cdf, p, nu + 20.0, f"quantile {p!r} at nu={nu!r}")
    return invert_monotone(cdf, p, 0.0, hi)


def _integrate(fn, upper: float, label: str) -> float:
    value, abserr = quad(fn, 0.0, upper, epsabs=1e-9, epsrel=1e-10, limit=200)
    if abserr > _QUAD_ABS:
        raise ConvergenceError(f"{label} quadrature error {abserr!r} above {_QUAD_ABS}")
    return min(max(value, 0.0), 1.0)


def exact_row(scenario: Scenario, threshold: float = 0.95) -> ExactRow:
    """Quadrature/root-finding twins of the Monte Carlo sweep summaries.

    Works in z = |Y|^2/sigma^2, which follows the noncentral chi-square
    law with 2 df and noncentrality nu0 = (delta_true/sigma)^2. Means
    integrate the non-collision probabilities against the density of z up
    to its 1 - 1e-12 quantile (absolute error <= 1e-8). Frequencies invert
    the threshold crossing and read off the z tail mass; when even z = 0
    exceeds the threshold on the Bayes side the frequency is exactly 1.
    """
    threshold = require_open_unit("threshold", threshold)
    sigma = scenario.sigma
    nu0 = (scenario.delta_true / sigma) ** 2
    x0 = (scenario.radius / sigma) ** 2

    cutoff = _upper_quantile(nu0, 1.0 - _QUAD_TAIL)
    mean_bayes = _integrate(
        lambda z: (1.0 - noncentral_chisq2_cdf(x0, z)) * _ncx2_pdf(z, nu0),
        cutoff,
        "mean_bayes",
    )
    mean_cd = _integrate(
        lambda z: noncentral_chisq2_cdf(z, x0) * _ncx2_pdf(z, nu0),
        cutoff,
        "mean_cd",
    )

    # Bayes side: 1 - B = 1 - Gamma2(x0, z), increasing in z with infimum
    # 1 - Gamma2(x0, 0) = exp(-x0/2); threshold below the infimum means
    # every realization exceeds it.
    if noncentral_chisq2_cdf(x0, 0.0) <= 1.0 - threshold:
        freq_bayes = 1.0
    else:
        noncol = lambda v: 1.0 - noncentral_chisq2_cdf(x0, v)
        hi = upper_bracket(
            noncol, threshold, nu0 + x0 + 10.0, f"the Bayes-side threshold at sigma={sigma!r}"
        )
        nu_star = invert_monotone(noncol, threshold, 0.0, hi)
        freq_bayes = 1.0 - noncentral_chisq2_cdf(nu_star, nu0)

    # CD side: 1 - C = Gamma2(z, x0), increasing in z from 0 toward 1, so
    # the crossing always exists.
    z_star = _upper_quantile(x0, threshold)
    freq_cd = 1.0 - noncentral_chisq2_cdf(z_star, nu0)

    return ExactRow(mean_bayes, mean_cd, freq_bayes, freq_cd)


def run_sweep(
    delta_true: float,
    radius: float,
    config: SweepConfig,
    workers: int = 1,
) -> list[CalibrationRow]:
    """Monte Carlo calibration sweep over the configured noise scales.

    For each sigma, draws config.n_reps observations, evaluates the
    non-collision probabilities 1 - B(R|Y) and 1 - C(R|Y) per replicate,
    and summarizes them alongside their exact twins. workers is validated
    and otherwise ignored: sampling is one vector draw per sigma, so
    outputs are identical for any worker count.
    """
    delta_true = require_nonnegative("delta_true", delta_true)
    radius = require_positive("radius", radius)
    require_count("workers", workers, 1)
    n = config.n_reps
    rows = []
    for s_idx, sigma in enumerate(config.sigma_grid):
        scenario = Scenario(delta_true, sigma, radius)
        z = _squared_norm_ratios(scenario, config.seed, (s_idx,), n)
        x0 = (radius / sigma) ** 2
        noncol_bayes = 1.0 - _cdf_grid(x0, z)
        noncol_cd = _cdf_grid(z, x0)
        exact = exact_row(scenario, config.threshold)
        freq_bayes = float(np.count_nonzero(noncol_bayes > config.threshold)) / n
        freq_cd = float(np.count_nonzero(noncol_cd > config.threshold)) / n
        rows.append(
            CalibrationRow(
                sigma=sigma,
                mean_bayes=float(noncol_bayes.mean()),
                mean_cd=float(noncol_cd.mean()),
                freq_bayes=freq_bayes,
                freq_cd=freq_cd,
                mean_bayes_exact=exact.mean_bayes,
                mean_cd_exact=exact.mean_cd,
                freq_bayes_exact=exact.freq_bayes,
                freq_cd_exact=exact.freq_cd,
                stderr_mean_bayes=_mean_stderr(noncol_bayes),
                stderr_mean_cd=_mean_stderr(noncol_cd),
                stderr_freq_bayes=math.sqrt(freq_bayes * (1.0 - freq_bayes) / n),
                stderr_freq_cd=math.sqrt(freq_cd * (1.0 - freq_cd) / n),
            )
        )
    return rows


def _mean_stderr(values: np.ndarray) -> float:
    # sample stddev needs two points; a single replicate reports 0
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def pit_sample(
    scenario: Scenario,
    n: int,
    seed: int,
    workers: int = 1,
) -> PitSummary:
    """Distribution of U = 1 - C(R|Y) over n fresh draws.

    U is uniform on (0, 1) exactly when delta_true equals the radius;
    smaller true distances shift it left, larger ones right. Reports the
    two-sided KS statistic against uniformity, a 20-bin histogram, and the
    sample mean. workers is validated and otherwise ignored, as in
    run_sweep.
    """
    n = require_count("n", n, 100)
    seed = require_count("seed", seed, 0)
    require_count("workers", workers, 1)
    z = _squared_norm_ratios(scenario, seed, (), n)
    x0 = (scenario.radius / scenario.sigma) ** 2
    u = _cdf_grid(z, x0)
    ranked = np.sort(u)
    steps = np.arange(1, n + 1) / n
    ks = max(float((steps - ranked).max()), float((ranked - steps + 1.0 / n).max()))
    counts = np.histogram(u, bins=20, range=(0.0, 1.0))[0]
    return PitSummary(
        n=n,
        ks_stat=ks,
        histogram=tuple(int(c) for c in counts),
        mean_u=float(u.mean()),
    )
