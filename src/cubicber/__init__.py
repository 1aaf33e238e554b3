"""Decision-variable statistics and BER for a cubic nonlinear optical
receiver, with log-Pearson-III analytics, Monte-Carlo validation, and
goodness-of-fit tooling."""

from .params import (
    SystemParams,
    DerivedParams,
    ParamError,
    derive,
    dbm_to_watts,
    db_to_linear,
)
from .moments import decision_moments
from .lp3 import (
    Lp3Params,
    Lp3Error,
    NoSolutionError,
    DivergentMomentError,
    fit_from_moments,
)
from .montecarlo import SampleSet, generate_samples, empirical_ber
from .detection import (
    NormalLaw,
    ShotThermalLaw,
    cdf_shot_thermal,
    error_probability,
    optimize_threshold,
)
from .gof import GofReport, rank_distributions

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "DerivedParams",
    "ParamError",
    "derive",
    "dbm_to_watts",
    "db_to_linear",
    "decision_moments",
    "Lp3Params",
    "Lp3Error",
    "NoSolutionError",
    "DivergentMomentError",
    "fit_from_moments",
    "SampleSet",
    "generate_samples",
    "empirical_ber",
    "NormalLaw",
    "ShotThermalLaw",
    "cdf_shot_thermal",
    "error_probability",
    "optimize_threshold",
    "GofReport",
    "rank_distributions",
    "__version__",
]
