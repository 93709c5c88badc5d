"""Bayesian posterior versus confidence distribution for a noisy distance.

Given two objects whose displacement is observed with isotropic Gaussian
noise, this package computes the posterior CDF of their distance under a
flat prior, the matching frequentist confidence distribution, summary
quantities of both (medians, intervals, collision confidence), and the
Monte Carlo calibration experiments that contrast them, each beside its
exact twin in closed form.
"""

import gc
import os
import sys

# numpy, scipy and these modules build ~50,000 objects that live until exit:
# pause the collector while they load, then promote them all to the oldest
# generation (freeze, unfreeze) so the next collection does not scan them as
# young. A caller's frozen objects stay frozen; the collector ends as found.
# No confdist path calls BLAS, yet numpy and scipy each load an OpenBLAS that
# starts a worker pool at load time. When this import is the one that loads
# numpy, and the caller has not chosen a size, both pools load with one
# thread: OpenBLAS reads OPENBLAS_NUM_THREADS once, at load, so the variable
# is removed again and the environment ends as found.
_collecting = gc.isenabled()
_one_blas_thread = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _one_blas_thread:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
gc.disable()
try:
    from . import calibration, inference, specfun
    from .calibration import *  # noqa: F401,F403
    from .inference import *  # noqa: F401,F403
    from .specfun import *  # noqa: F401,F403
finally:
    if gc.get_freeze_count() == 0:
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()
    if _one_blas_thread:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del _collecting, _one_blas_thread

__version__ = "0.1.0"

__all__ = [*calibration.__all__, *inference.__all__, *specfun.__all__, "__version__"]
