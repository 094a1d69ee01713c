"""The two significance tests and their reference distributions.

The covariance test compares fitted inner products of the full and
restricted lasso at the next knot against a standard exponential reference.
The extreme-value test recenters the maximal chi-square drop by
2*log(m) - log(log(m)) over the m remaining candidates and compares it to a
Gumbel with location -log(pi) and scale 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import (
    PathTooShortError,
    StalePathError,
    TooFewRemainingError,
    UnreliableMaxError,
    UnsupportedStepError,
)
from .lasso import LassoPath, lasso_solve
from .selection import SelectionStep

GUMBEL_LOCATION = -math.log(math.pi)
GUMBEL_SCALE = 2.0
# A covariance statistic warns as negative only below this fraction of the
# fitted inner products it is the difference of.
NEGATIVE_TOL = 1e-12


def _elementwise(values: np.ndarray):
    """A Python float for a scalar argument, else the array."""
    return float(values) if values.ndim == 0 else values


def _probabilities(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    bad = ~((p > 0.0) & (p < 1.0))
    if bad.any():
        raise ValueError(f"quantile probability must lie in (0, 1), got {p[bad]}")
    return p


def gumbel_cdf(x):
    """CDF of the Gumbel(-log pi, 2) reference, elementwise."""
    z = (np.asarray(x, dtype=float) - GUMBEL_LOCATION) / GUMBEL_SCALE
    return _elementwise(np.exp(-np.exp(-z)))


def gumbel_sf(x):
    """Upper-tail probability of the Gumbel(-log pi, 2) reference, elementwise."""
    z = (np.asarray(x, dtype=float) - GUMBEL_LOCATION) / GUMBEL_SCALE
    return _elementwise(-np.expm1(-np.exp(-z)))


def gumbel_quantile(p):
    """Inverse CDF of the Gumbel(-log pi, 2) reference: -log pi - 2*log(-log p)."""
    return _elementwise(GUMBEL_LOCATION - GUMBEL_SCALE * np.log(-np.log(_probabilities(p))))


def gumbel_correction(m_remaining: int) -> float:
    """Extreme-value centering 2*log(m) - log(log(m)) for m remaining candidates.

    Defined for m >= 3 only; below that log(log(m)) is nonpositive or
    undefined.
    """
    m = int(m_remaining)
    if m < 3:
        raise TooFewRemainingError(
            f"need at least 3 remaining candidates, got {m}")
    return 2.0 * math.log(m) - math.log(math.log(m))


def exp1_cdf(x):
    """CDF of the standard exponential reference, elementwise."""
    x = np.asarray(x, dtype=float)
    return _elementwise(np.where(x > 0, -np.expm1(-np.maximum(x, 0.0)), 0.0))


def exp1_quantile(p):
    """Inverse CDF of the standard exponential reference: -log(1 - p)."""
    return _elementwise(-np.log1p(-_probabilities(p)))


# Reference name -> (CDF, quantile function).
REFERENCES = {"gumbel": (gumbel_cdf, gumbel_quantile), "exp1": (exp1_cdf, exp1_quantile)}


def reference_pair(name: str):
    """The (CDF, quantile function) of the named reference distribution."""
    try:
        return REFERENCES[name]
    except KeyError:
        raise ValueError(f"unknown reference {name!r}") from None


def _check_alpha(alpha: float) -> None:
    """The one rule for a test level: alpha must lie in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class TestOutcome:
    """Result of one significance test at one step. The fields before
    ``decomposition`` are the JSON record, in its order."""

    kind: str
    k: int
    A: tuple[int, ...]
    j: int
    statistic: float
    correction: float | None
    p_value: float
    alpha: float
    reject: bool
    conservative: bool = False
    warnings: tuple[str, ...] = ()
    # Second evaluation route of the covariance statistic; not serialized.
    decomposition: float | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        """The record: every field but ``decomposition``, A and warnings as lists."""
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "decomposition"}
        return {**record, "A": list(self.A), "warnings": list(self.warnings)}


def gumbel_test(step: SelectionStep, alpha: float = 0.05) -> TestOutcome:
    """Extreme-value test of the variable added at ``step``: its drop minus the
    centering for the m remaining candidates, against the Gumbel reference. Logistic
    and Cox steps are tested alike (kind ``gumbel_glm``); their failed fits are kept as
    warnings, and if more than 10% of them fail, or none converges, the maximum is
    unreliable and the test aborts. Alpha is checked first, then m >= 3, then the fits.
    """
    _check_alpha(alpha)
    corr = gumbel_correction(step.m_remaining)
    if len(step.failures) > 0.10 * step.m_remaining or step.j is None:
        raise UnreliableMaxError(
            f"{len(step.failures)} of {step.m_remaining} candidate fits failed; "
            "maximum statistic unreliable")
    stat = step.r_j - corr
    p_value = gumbel_sf(stat)
    return TestOutcome(kind="gumbel_glm" if step.selector in ("logistic", "cox") else "gumbel",
                       k=step.k, statistic=float(stat), p_value=float(p_value),
                       alpha=float(alpha), reject=bool(p_value <= alpha), A=step.A, j=step.j,
                       correction=float(corr), conservative=step.conservative,
                       warnings=tuple(step.failures))


def covariance_test(path: LassoPath, k: int, *, alpha: float = 0.05) -> TestOutcome:
    """Covariance test of the variable entering at the path's kth entry event: the drop
    in fitted inner product, at the next knot, between the full lasso and the lasso
    restricted to the pre-entry model A. It is evaluated directly from the two solutions
    and, as ``decomposition``, through the RSS-drop decomposition with the signs and
    least-squares coefficients that the segments of ``path`` (from :func:`lars_path`)
    hold above and below the kth entry. The restricted solution (:func:`lasso_solve`,
    warm-started from ``path``) is the segment above the kth entry at the next knot,
    unless the restricted path deletes a variable of A first; then it is traced. Both
    routes take y'X beta from the cached X'y of ``path.data``; ``replace(path,
    data=replace(path.data, sigma2=s))`` tests another sigma2. The p-value is
    exp(-statistic), clamped to 1 for negative statistics; one more negative than
    round-off (``NEGATIVE_TOL`` of the fitted inner products) also adds a warning.
    """
    _check_alpha(alpha)
    if k < 1:
        raise ValueError(f"step index k must be at least 1, got {k}")
    data = path.data
    sigma2 = data.require_sigma2()
    if len(path.segments) != len(path.knots):
        raise StalePathError("path was not traced by lars_path")

    entries = path.entry_positions
    if len(entries) < k + 1:
        raise PathTooShortError(
            f"need {k + 1} entry events for step {k}, path has {len(entries)}")
    pos_k, pos_k1 = entries[k - 1], entries[k]
    if pos_k1 != pos_k + 1:
        raise UnsupportedStepError(
            f"a deletion occurs between entry events {k} and {k + 1}")
    knot_k = path.knots[pos_k]
    knot_k1 = path.knots[pos_k1]
    A = knot_k.active_before
    Aj = knot_k.active_after
    j = knot_k.entering
    lam_next = knot_k1.lam

    # Fitted inner products y'X beta = (X'y)' beta. The full lasso at lam_next
    # lies on the segment below the kth entry.
    xty_a, xty_aj = data.xty[list(A)], data.xty[list(Aj)]
    b_aj, b1_aj = path.segments[pos_k]
    fit_full = float(xty_aj @ (b_aj - lam_next * b1_aj))
    fit_restricted = float(data.xty @ lasso_solve(data, lam_next, subset=A, path=path))
    primary = (fit_full - fit_restricted) / sigma2

    # Decomposition route: R_j - lam_next * (<s_Aj, b_Aj> - <s_A, b_A>) / sigma2
    # with signs from the path segment below the kth entry, and least-squares
    # coefficients b_A and b_Aj from the segments above and below that knot.
    # The RSS drop is (X_Aj'y)'b_Aj - (X_A'y)'b_A, as RSS_A = y'y - (X_A'y)'b_A.
    signs_aj = np.asarray(knot_k.signs_after, dtype=float)
    b_a = path.segments[pos_k - 1][0] if pos_k else np.zeros(0)
    drop = max(float(xty_aj @ b_aj - xty_a @ b_a) / sigma2, 0.0)
    inner_aj = float(signs_aj @ b_aj)
    inner_a = float(signs_aj[:-1] @ b_a)
    decomposition = drop - lam_next * (inner_aj - inner_a) / sigma2

    warnings_list = list(path.warnings)
    # A statistic that is 0 in exact arithmetic (at entry ties) lands on
    # either side of 0 by round-off in the two fitted inner products.
    roundoff = NEGATIVE_TOL * (abs(fit_full) + abs(fit_restricted)) / sigma2
    if abs(primary - decomposition) > 1e-6 * abs(primary) + roundoff:
        warnings_list.append(
            f"covariance statistic routes disagree: {primary:.3e} vs {decomposition:.3e}")
    if primary < -roundoff:
        warnings_list.append("negative covariance statistic; p-value clamped to 1")
    p_value = math.exp(-max(primary, 0.0))
    return TestOutcome(kind="covariance", k=k, statistic=float(primary),
                       p_value=float(p_value), alpha=float(alpha),
                       reject=bool(p_value <= alpha), A=A, j=j,
                       correction=None, conservative=False,
                       warnings=tuple(warnings_list),
                       decomposition=float(decomposition))
