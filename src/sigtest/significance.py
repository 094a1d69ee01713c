"""The two significance tests and their reference distributions.

The covariance test compares fitted inner products of the full and
restricted lasso at the next knot against a standard exponential reference.
The extreme-value test recenters the maximal chi-square drop by
2*log(m) - log(log(m)) over the m remaining candidates and compares it to a
Gumbel with location -log(pi) and scale 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    PathTooShortError,
    TooFewRemainingError,
    UnsupportedStepError,
)
from .lasso import LassoPath, lasso_solve, solve_at
from .linmodel import Dataset, least_squares
from .selection import SelectionStep

GUMBEL_LOCATION = -math.log(math.pi)
GUMBEL_SCALE = 2.0


@dataclass(frozen=True)
class GumbelRef:
    """Type-I extreme-value reference with CDF exp(-exp(-(x + log pi)/2))."""

    location: float = GUMBEL_LOCATION
    scale: float = GUMBEL_SCALE

    def cdf(self, x: float) -> float:
        return math.exp(-math.exp(-(x - self.location) / self.scale))

    def sf(self, x: float) -> float:
        return -math.expm1(-math.exp(-(x - self.location) / self.scale))

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
        return self.location - self.scale * math.log(-math.log(p))


_REF = GumbelRef()


def gumbel_cdf(x: float) -> float:
    """CDF of the Gumbel(-log pi, 2) reference at x."""
    return _REF.cdf(float(x))


def gumbel_sf(x: float) -> float:
    """Upper-tail probability of the Gumbel(-log pi, 2) reference at x."""
    return _REF.sf(float(x))


def gumbel_quantile(p: float) -> float:
    """Inverse CDF of the Gumbel(-log pi, 2) reference: -log pi - 2*log(-log p)."""
    return _REF.quantile(float(p))


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


def exp1_cdf(x: float) -> float:
    """CDF of the standard exponential reference."""
    return -math.expm1(-x) if x > 0 else 0.0


def exp1_sf(x: float) -> float:
    return math.exp(-x) if x > 0 else 1.0


def exp1_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
    return -math.log1p(-p)


def reference_cdf(tag: str, x: float) -> float:
    if tag == "gumbel":
        return gumbel_cdf(x)
    if tag == "exp1":
        return exp1_cdf(x)
    raise ValueError(f"unknown reference {tag!r}")


def reference_quantile(tag: str, p: float) -> float:
    if tag == "gumbel":
        return gumbel_quantile(p)
    if tag == "exp1":
        return exp1_quantile(p)
    raise ValueError(f"unknown reference {tag!r}")


@dataclass(frozen=True)
class TestOutcome:
    """Result of one significance test at one step."""

    kind: str
    k: int
    statistic: float
    p_value: float
    alpha: float
    reject: bool
    A: tuple[int, ...]
    j: int
    correction: float | None = None
    conservative: bool = False
    warnings: tuple[str, ...] = ()
    # Second evaluation route of the covariance statistic; not serialized.
    decomposition: float | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        """Record with the exact documented field set, in order."""
        return {
            "kind": self.kind,
            "k": self.k,
            "A": list(self.A),
            "j": self.j,
            "statistic": self.statistic,
            "correction": self.correction,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
            "conservative": self.conservative,
            "warnings": list(self.warnings),
        }


def gumbel_test(step: SelectionStep, alpha: float = 0.05) -> TestOutcome:
    """Extreme-value test of the variable added at ``step``.

    The statistic is the step's scaled RSS drop minus the centering for the
    number of remaining candidates; its reference is Gumbel(-log pi, 2).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m = step.m_remaining
    corr = gumbel_correction(m)
    stat = step.r_j - corr
    p_value = gumbel_sf(stat)
    return TestOutcome(kind="gumbel", k=step.k, statistic=float(stat),
                       p_value=float(p_value), alpha=float(alpha),
                       reject=bool(p_value <= alpha), A=step.A, j=step.j,
                       correction=float(corr), conservative=step.conservative)


def covariance_test(path: LassoPath, data: Dataset, k: int,
                    alpha: float = 0.05) -> TestOutcome:
    """Covariance test of the variable entering at the path's kth entry event.

    The statistic is the drop in fitted inner product, at the next knot,
    between the full lasso and the lasso restricted to the pre-entry model.
    It is evaluated twice: directly from the two solutions, and through the
    RSS-drop decomposition using sign vectors and least-squares coefficients;
    ``decomposition`` carries the second value. The p-value is the standard
    exponential upper tail exp(-statistic), clamped to 1 for negative
    statistics.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sigma2 = data.require_sigma2()
    if path.data_digest != data.digest:
        from .exceptions import StalePathError

        raise StalePathError("path was computed from different data")

    entries = [i for i, kn in enumerate(path.knots) if kn.action == "enter"]
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
    j = knot_k.entering
    lam_next = knot_k1.lam

    beta_full = solve_at(path, data, lam_next)
    beta_restricted = lasso_solve(data, lam_next, subset=A, path=path)
    y = data.y
    primary = (float(y @ (data.X @ beta_full))
               - float(y @ (data.X @ beta_restricted))) / sigma2

    # Decomposition route: R_j - lam_next * (<s_Aj, b_Aj> - <s_A, b_A>) / sigma2
    # with signs taken from the path segment below the kth entry, from fresh
    # least-squares fits on A and A + [j].
    signs_aj = np.asarray(knot_k.signs_after, dtype=float)
    ls_a = least_squares(data, list(A))
    ls_aj = least_squares(data, list(A) + [j])
    drop = max((ls_a.rss - ls_aj.rss) / sigma2, 0.0)
    inner_aj = float(signs_aj @ ls_aj.coefficients)
    inner_a = float(signs_aj[:-1] @ ls_a.coefficients)
    decomposition = drop - lam_next * (inner_aj - inner_a) / sigma2

    warnings_list = list(path.warnings)
    if abs(primary - decomposition) > 1e-6:
        warnings_list.append(
            f"covariance statistic routes disagree: {primary:.3e} vs {decomposition:.3e}")
    if primary < 0.0:
        warnings_list.append("negative covariance statistic; p-value clamped to 1")
        p_value = 1.0
    else:
        p_value = min(math.exp(-primary), 1.0)
    return TestOutcome(kind="covariance", k=k, statistic=float(primary),
                       p_value=float(p_value), alpha=float(alpha),
                       reject=bool(p_value <= alpha), A=A, j=j,
                       correction=None, conservative=False,
                       warnings=tuple(warnings_list),
                       decomposition=float(decomposition))
