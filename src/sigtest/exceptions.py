"""Exception hierarchy and warning categories used across the package."""


class SigtestError(Exception):
    """Base class for all package-specific errors."""


class DegenerateColumnError(SigtestError):
    """A design column is zero and cannot be standardized."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"column {index} is degenerate (zero norm)")


class DuplicateColumnError(SigtestError):
    """Two design columns are exactly identical."""

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second
        super().__init__(f"columns {first} and {second} are exact duplicates")


class SingularDesignError(SigtestError):
    """The requested variable subset is rank deficient."""


class DegenerateResponseError(SigtestError, ValueError):
    """A binary response is all 0 or all 1, so the likelihood has no maximum."""


class MissingVarianceError(SigtestError):
    """An operation needs the noise variance but the dataset declares it unknown."""


class NotEstimableError(SigtestError):
    """The noise variance cannot be estimated (n <= p)."""


class DegenerateVarianceError(SigtestError):
    """The full least-squares fit is exact, so the variance estimate is 0."""


class StalePathError(SigtestError):
    """A solution path was computed from a different dataset than supplied."""


class PathTooShortError(SigtestError):
    """The path does not contain enough entry events for the requested step."""


class UnsupportedStepError(SigtestError):
    """A deletion event intervenes where the test assumes a clean segment."""


class PathNonTerminationError(SigtestError):
    """A lasso path trace hit its event cap; the data may be degenerate."""


class TooFewRemainingError(SigtestError):
    """Fewer than 3 candidate variables remain; the extreme-value centering is undefined."""


class SeparationError(SigtestError):
    """The likelihood is unbounded (complete separation / monotone likelihood)."""


class ConvergenceError(SigtestError):
    """An iterative fit failed to converge."""


class NoEventsError(SigtestError, ValueError):
    """A survival dataset contains no observed events."""


class UnreliableMaxError(SigtestError):
    """Too many candidate fits failed for the maximum statistic to be trusted."""


class InfeasibleDesignError(SigtestError):
    """The requested design cannot be generated (e.g. orthogonal with n < p)."""


class PathTruncationWarning(UserWarning):
    """A selection path stopped early because no candidate reduces the residual."""


class NonUniqueSolutionWarning(UserWarning):
    """A lasso solution is not unique; the lowest-index representative was returned."""
