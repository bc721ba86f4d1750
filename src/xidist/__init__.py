"""xidist: the completed Riemann zeta distribution and its representations.

Layers:
  specfun      -- log Gamma, zeta, xi, the theta kernel, Riemann-Siegel Z
  zeros        -- certified critical-line zero ordinates with a text cache
  distribution -- density, CF backends, cdf/quantile, inverse-CDF sampling
  levy         -- signed measures, quasi-Levy triplets, prime/zero/Gamma routes
  harness      -- cross-backend residual sweeps and inequality scans
  cli          -- command-line front end
"""

from .accuracy import (
    DEFAULT_ACCURACY,
    AccuracyError,
    CacheChecksumError,
    CacheParseError,
    DomainError,
    EvalAccuracy,
    InsufficientZerosError,
    MeasureDivergenceError,
    MissedZeroError,
    PoleError,
)
from .distribution import DensityTable, XiDistribution
from .levy import PrimeCutoff, QuasiLevyTriplet, SignedMeasure
from .specfun import log_gamma, theta_kernel, xi, zeta
from .zeros import ZeroList, ZeroRecord, find_zeros, load_cache, save_cache

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ACCURACY",
    "AccuracyError",
    "CacheChecksumError",
    "CacheParseError",
    "DensityTable",
    "DomainError",
    "EvalAccuracy",
    "InsufficientZerosError",
    "MeasureDivergenceError",
    "MissedZeroError",
    "PoleError",
    "PrimeCutoff",
    "QuasiLevyTriplet",
    "SignedMeasure",
    "XiDistribution",
    "ZeroList",
    "ZeroRecord",
    "find_zeros",
    "load_cache",
    "log_gamma",
    "save_cache",
    "theta_kernel",
    "xi",
    "zeta",
    "__version__",
]
