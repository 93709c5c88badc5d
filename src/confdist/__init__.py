"""Bayesian posterior versus confidence distribution for a noisy distance.

Given two objects whose displacement is observed with isotropic Gaussian
noise, this package computes the posterior CDF of their distance under a
flat prior, the matching frequentist confidence distribution, summary
quantities of both (medians, intervals, collision confidence), and the
Monte Carlo calibration experiments that contrast them, each beside its
exact twin in closed form.
"""

from .calibration import (
    CalibrationRow,
    ExactRow,
    PitSummary,
    Scenario,
    SweepConfig,
    draw_observation,
    exact_row,
    pit_sample,
    run_sweep,
)
from .inference import (
    CurveTable,
    LevelInterval,
    MedianResult,
    Method,
    Observation,
    bayes_cdf,
    cd_cdf,
    collision_confidence,
    confidence_curve,
    credibility_curve,
    level_interval,
    median,
    noncollision_pvalue,
    tabulate_curves,
)
from .specfun import (
    BracketError,
    ConvergenceError,
    DomainError,
    bessel_i0,
    bessel_i0_scaled,
    invert_monotone,
    noncentral_chisq2_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CalibrationRow",
    "ConvergenceError",
    "CurveTable",
    "DomainError",
    "ExactRow",
    "LevelInterval",
    "MedianResult",
    "Method",
    "Observation",
    "PitSummary",
    "Scenario",
    "SweepConfig",
    "bayes_cdf",
    "bessel_i0",
    "bessel_i0_scaled",
    "cd_cdf",
    "collision_confidence",
    "confidence_curve",
    "credibility_curve",
    "draw_observation",
    "exact_row",
    "invert_monotone",
    "level_interval",
    "median",
    "noncentral_chisq2_cdf",
    "noncollision_pvalue",
    "pit_sample",
    "run_sweep",
    "tabulate_curves",
    "__version__",
]
