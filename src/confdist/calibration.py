"""Calibration experiments: Monte Carlo sweeps, exact twins, PIT checks.

The exact twins of a sweep row are closed forms in G2 and the gap term
for the means, and one root each for the threshold frequencies.

Replicated observations are drawn from the model y ~ N((delta_true, 0),
sigma^2 I). Reproducibility contract: sigma index s of a sweep owns the
generator PCG64(SeedSequence(seed, spawn_key=(s,))) and a PIT sample owns
PCG64(SeedSequence(seed, spawn_key=())); replicate r is row r of one
normal((delta_true, 0), sigma, size=(n, 2)) draw from that generator.
One function, _sample, takes and evaluates that draw for both, in blocks
of _DRAW_ROWS rows that concatenate to it. Results are a pure function of
the seed, so they are byte-identical across runs and worker counts;
reductions happen in replicate order over the whole sample. The stream
changed once, from one substream per replicate keyed by (s, r) or (r,),
so samples from before that change differ for a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
# unused: kept until the benchmark stops timing its import (ROADMAP item 1)
import scipy.integrate  # noqa: F401

from .specfun import (
    MAX_ROWS,
    ConfdistError,
    DomainError,
    _cdf_grid,
    bessel_i0_scaled,
    invert_monotone,
    noncentral_chisq2_cdf,
    require_count,
    require_grid,
    require_nonnegative,
    require_open_unit,
    require_positive,
    require_squared_ratio,
)

__all__ = [
    "Scenario",
    "SweepConfig",
    "CalibrationRow",
    "ExactRow",
    "PitSummary",
    "run_sweep",
    "exact_row",
    "pit_sample",
]

# rows per block, which bounds a sample's temporaries; no pit or cd value
# depends on it, but a Bayes value's last bits may, as the vector series
# sums the term count of its block's largest min(lam, h)
_DRAW_ROWS = 1 << 12


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
        grid = require_grid("sigma_grid", self.sigma_grid, positive=True)
        object.__setattr__(self, "sigma_grid", tuple(grid.tolist()))
        object.__setattr__(self, "n_reps", require_count("n_reps", self.n_reps, 1, MAX_ROWS))
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


def _sample(
    scenario: Scenario,
    seed: int,
    key: tuple[int, ...],
    n: int,
    *columns: Callable[[np.ndarray, float], np.ndarray],
) -> list[np.ndarray]:
    """One n-array per column, entry r being column(z_r, x0), with z_r =
    (|y_r|/sigma)^2 (|y_r| formed as Observation.norm forms it) and x0 =
    (radius/sigma)^2. Each block of at most _DRAW_ROWS rows is the next draw
    from the substream keyed by key, and every column sees each block.
    key is () for pit's sigma and (i,) for sigma_grid[i] of a sweep, and a
    DomainError names that sigma by it: after delta_true, which sets |y|/sigma,
    for an overflowing |y|, and after the radius for an overflowing radius/sigma."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    delta_true, sigma, radius = scenario.delta_true, scenario.sigma, scenario.radius
    given = ("delta_true", delta_true), (f"sigma_grid[{key[0]}]" if key else "sigma", sigma)
    out = [np.empty(n) for _ in columns]
    for start in range(0, n, _DRAW_ROWS):
        m = min(_DRAW_ROWS, n - start)
        y = rng.normal((delta_true, 0.0), sigma, size=(m, 2))
        norm = np.fromiter(map(math.hypot, y[:, 0].tolist(), y[:, 1].tolist()), float, m)
        if not math.isfinite(norm.max()):  # a draw past the largest float, whatever |y|/sigma is
            raise DomainError("must give draws with a finite norm |y|", *given)
        z = require_squared_ratio("|y|", norm, sigma, *given)
        if start == 0:  # after block 0's |y| check, so an overflowing |y| is named first
            x0 = require_squared_ratio("radius", radius, sigma, ("radius", radius), given[1])
        for values, column in zip(out, columns):
            values[start : start + m] = column(z, x0)
    return out


def exact_row(scenario: Scenario, threshold: float = 0.95) -> ExactRow:
    """Closed-form and root-finding twins of the Monte Carlo sweep summaries.

    Works in z = |Y|^2/sigma^2, which follows the noncentral chi-square
    law with 2 df and noncentrality nu0 = (delta_true/sigma)^2. The means
    are closed forms: one G2 value plus a share of the gap term, so they
    carry the 1e-12 contract of G2. Frequencies invert the threshold
    crossing and read off the z tail mass; when even z = 0 exceeds the
    threshold on the Bayes side the frequency is exactly 1.
    """
    threshold = require_open_unit("threshold", threshold)
    sigma = scenario.sigma
    nu0 = require_squared_ratio("delta_true", scenario.delta_true, sigma)
    x0 = require_squared_ratio("radius", scenario.radius, sigma)

    # a^2 = x0/2, b^2 = nu0/2, g = e^{-(a-b)^2/2} I0e(ab) (the C - B gap at
    # (R, delta_true)/sqrt(2)). By Q1(a,b) + Q1(b,a) = 1 + e^{-(a^2+b^2)/2} I0(ab):
    #   mean_bayes = Q1(b, a) = G2(b^2, a^2) + g  (Y plus independent noise
    #     is N(mu, 2 sigma^2 I)), and by Stein's two-Rician comparison
    #   mean_cd = P(|W| <= |Y|) = G2(b^2, a^2) + g/2, W ~ N(R e, sigma^2 I).
    # Adding g >= 0 (never subtracting) keeps 0 <= mean_cd <= mean_bayes <= 1.
    p = noncentral_chisq2_cdf(0.5 * nu0, 0.5 * x0)
    a = math.sqrt(0.5 * x0)
    b = math.sqrt(0.5 * nu0)
    g = math.exp(-0.5 * (a - b) ** 2) * bessel_i0_scaled(a * b)
    mean_bayes = min(p + g, 1.0)
    mean_cd = min(p + 0.5 * g, 1.0)

    # Bayes side: 1 - B = 1 - Gamma2(x0, z), increasing in z from
    # exp(-x0/2) at z = 0; a threshold at or below that gives the root 0,
    # and G2(0, nu0) = 0 then makes the frequency exactly 1.
    # CD side: 1 - C = Gamma2(z, x0), increasing in z from 0 toward 1.
    def threshold_root(name, f):
        try:
            return invert_monotone(f, threshold)
        except ConfdistError as exc:
            raise type(exc)(f"must let exact_row solve its {name} ({exc})",
                            ("delta_true", scenario.delta_true), ("radius", scenario.radius),
                            ("sigma", sigma), ("threshold", threshold)) from exc

    nu_star = threshold_root("Bayes threshold root nu_star",
                             lambda v: 1.0 - noncentral_chisq2_cdf(x0, v))
    freq_bayes = 1.0 - noncentral_chisq2_cdf(nu_star, nu0)
    z_star = threshold_root("cd threshold root z_star", lambda z: noncentral_chisq2_cdf(z, x0))
    freq_cd = 1.0 - noncentral_chisq2_cdf(z_star, nu0)

    return ExactRow(mean_bayes, mean_cd, freq_bayes, freq_cd)


def run_sweep(
    delta_true: float,
    radius: float,
    config: SweepConfig,
    workers: int = 1,
) -> list[CalibrationRow]:
    """Monte Carlo calibration sweep over the configured noise scales.

    For each sigma, draws config.n_reps observations block by block,
    evaluates the non-collision probabilities 1 - B(R|Y) and 1 - C(R|Y)
    per replicate into two n-arrays (16 bytes per replicate), and
    summarizes them alongside their exact twins. workers is validated
    and otherwise ignored: sampling is one stream per sigma, so outputs
    are identical for any worker count. It stays in the signature
    because the CLI passes --workers through it, which is where the
    benchmark's tracer reads the worker count of each sweep.
    """
    require_count("workers", workers, 1)
    n = config.n_reps
    rows = []
    for s_idx, sigma in enumerate(config.sigma_grid):
        scenario = Scenario(delta_true, sigma, radius)
        noncol_bayes, noncol_cd = _sample(scenario, config.seed, (s_idx,), n,
                                          lambda z, x0: 1.0 - _cdf_grid(x0, z), _cdf_grid)
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
        del noncol_bayes, noncol_cd  # else held while the next sigma's pair is filled
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
) -> PitSummary:
    """Distribution of U = 1 - C(R|Y) over n fresh draws.

    U is uniform on (0, 1) exactly when delta_true equals the radius;
    smaller true distances shift it left, larger ones right. Reports the
    two-sided KS statistic against uniformity, a 20-bin histogram (bin k
    counts U in [k/20, (k+1)/20), and the last bin also U = 1), and the
    sample mean. U is evaluated block by block into one n-array (8 bytes
    per replicate), which is sorted in place for the KS statistic and the
    histogram.
    """
    n = require_count("n", n, 100, MAX_ROWS)
    seed = require_count("seed", seed, 0)
    (u,) = _sample(scenario, seed, (), n, _cdf_grid)
    mean_u = float(u.mean())  # before the sort: a pairwise sum depends on the order
    u.sort()
    # u in [k/20, (k+1)/20) counts in bin k, and the last bin is closed; a
    # nan sorts last and falls in no bin
    edges = np.searchsorted(u, np.linspace(0.0, 1.0, 21), side="left")
    edges[-1] = np.searchsorted(u, 1.0, side="right")
    ks = -math.inf
    for start in range(0, n, _DRAW_ROWS):
        ranked = u[start : start + _DRAW_ROWS]
        steps = np.arange(start + 1, start + ranked.size + 1) / n
        ks = max(ks, float((steps - ranked).max()), float((ranked - steps + 1.0 / n).max()))
    return PitSummary(n=n, ks_stat=ks, histogram=tuple(np.diff(edges).tolist()), mean_u=mean_u)
