"""Bayesian posterior versus confidence distribution for a noisy distance.

Given two objects whose displacement is observed with isotropic Gaussian
noise, this package computes the posterior CDF of their distance under a
flat prior, the matching frequentist confidence distribution, summary
quantities of both (medians, intervals, collision confidence), and the
Monte Carlo calibration experiments that contrast them, each beside its
exact twin in closed form.
"""

from . import calibration, inference, specfun
from .calibration import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*calibration.__all__, *inference.__all__, *specfun.__all__, "__version__"]
