"""Significance tests for variables entering lasso and stepwise regression paths."""

from types import ModuleType as _ModuleType

from .exceptions import (
    ConvergenceError,
    DegenerateColumnError,
    DegenerateResponseError,
    DegenerateVarianceError,
    DuplicateColumnError,
    InfeasibleDesignError,
    MissingVarianceError,
    NoEventsError,
    NotEstimableError,
    PathNonTerminationError,
    PathTooShortError,
    PathTruncationWarning,
    SeparationError,
    SigtestError,
    SingularDesignError,
    StalePathError,
    TooFewRemainingError,
    UnreliableMaxError,
    UnsupportedStepError,
)
from .glm import (
    BinaryDataset,
    FitResult,
    SurvivalDataset,
    glm_fit,
)
from .lasso import Knot, LassoPath, kkt_check, lars_path, lasso_solve
from .linmodel import (
    Dataset,
    SubsetFit,
    estimate_sigma2,
    least_squares,
    standardize,
)
from .montecarlo import (
    MonteCarloSummary,
    Scenario,
    gen_design,
    gen_response,
    ks_distance,
    preset,
    preset_names,
    qq_points,
    run_scenario,
)
from .selection import SelectionStep, lasso_steps, stepwise_path
from .significance import (
    TestOutcome,
    covariance_test,
    gumbel_cdf,
    gumbel_correction,
    gumbel_quantile,
    gumbel_sf,
    gumbel_test,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
