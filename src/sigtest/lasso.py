"""Lasso solution path via least angle regression (lasso modification).

Produces the ordered sequence of path knots -- penalty values at which the
active set changes -- together with exact lasso solutions at arbitrary
penalty values, on the full variable set or a restricted one.
"""

from __future__ import annotations

import bisect
import warnings as _warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import (
    NonUniqueSolutionWarning,
    PathNonTerminationError,
    SingularDesignError,
    StalePathError,
)
from .linmodel import ActiveQR, Dataset, _check_max_steps, _check_subset, _columns

# Penalty comparisons use this tolerance times lambda_1 = max |x_m'y|, where the
# path starts, so that (y, sigma2) -> (c y, c^2 sigma2) changes no verdict.
LAMBDA_TOL = 1e-10
# A root at or below this fraction of lambda_1 is no event (y = 0 has none).
ZERO_CORR_TOL = 1e-12
# A trace that has not ended after this many events per column is abandoned.
MAX_EVENTS_PER_COLUMN = 50
_ROOT_SIGNS = np.array((1.0, -1.0))
_EMPTY_SEGMENT = (np.zeros(0), np.zeros(0))  # (b0, b1) with no variable active


@dataclass(frozen=True)
class Knot:
    """One path event: a variable entering (or leaving) the active set.

    ``entering`` holds the leaving variable when ``action == "leave"``.
    ``active_before`` is the active set just above the knot, in entry order;
    ``active_after``, derived once at construction, is the active set just
    below it (``active_before + (entering,)`` for entries, the remaining
    variables in order for deletions), and ``signs_after`` aligns with it.
    """

    k: int
    lam: float
    entering: int
    active_before: tuple[int, ...]
    signs_after: tuple[int, ...]
    action: str = "enter"
    active_after: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.action not in ("enter", "leave"):
            raise ValueError(f"unknown knot action {self.action!r}")
        if self.action == "enter" and self.entering in self.active_before:
            raise ValueError("entering variable already active")
        after = (self.active_before + (self.entering,) if self.action == "enter"
                 else tuple(i for i in self.active_before if i != self.entering))
        object.__setattr__(self, "active_after", after)


@dataclass(frozen=True)
class LassoPath:
    """Ordered knots of one lasso path plus the dataset it was traced from.

    ``segments[i]`` is the ``(b0, b1)`` of the segment below ``knots[i]``,
    also below the last knot of a capped path (None if rank deficient): the
    solution there is b0 - lam * b1 on ``knots[i].active_after``, with b0 the
    least-squares coefficients and b1 = (X_A' X_A)^{-1} s for the signs s.
    ``entry_positions`` indexes the entry knots in ``knots``; it is built on
    first use and kept. Equality compares the knots and warnings, not ``data``.
    """

    knots: tuple[Knot, ...]
    data: Dataset = field(repr=False, compare=False)
    warnings: tuple[str, ...] = ()
    segments: tuple[tuple[np.ndarray, np.ndarray] | None, ...] = field(
        default=(), repr=False, compare=False)

    @cached_property
    def entry_positions(self) -> tuple[int, ...]:
        return tuple(i for i, kn in enumerate(self.knots) if kn.action == "enter")

    def entry_knots(self) -> tuple[Knot, ...]:
        return tuple(self.knots[i] for i in self.entry_positions)


@dataclass(frozen=True, eq=False)
class KKTReport:
    """Per-coordinate stationarity check of a lasso solution.

    ``slack`` holds each checked coordinate's slack in subset order; a
    negative slack is a violation, and ``violations`` lists those columns.
    """

    passed: bool
    lam: float
    slack: np.ndarray = field(repr=False)
    violations: tuple[int, ...] = ()


def _drop_roots(b0: np.ndarray, b1: np.ndarray, lam_cur: float, lam1: float) -> np.ndarray:
    """Penalty below ``lam_cur`` where each b0_i - lam*b1_i crosses zero, else -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = b0 / b1
    return np.where((np.abs(b1) >= 1e-14) & (roots > ZERO_CORR_TOL * lam1)
                    & (roots < lam_cur - LAMBDA_TOL * lam1), roots, -np.inf)


def _trace(data: Dataset, cols: list[int], active: list[int],
           signs: Sequence[int], lam_cur: float, just_dropped: int | None,
           stop_lambda: float, max_active: int,
           max_steps: int | None = None) -> tuple[list[Knot], list[str], list]:
    """Continue the lasso path over ``cols`` from the state just below ``lam_cur``.

    ``active`` (entry order), ``signs`` (aligned with ``active``) and
    ``just_dropped`` (deleted at ``lam_cur``) give that state; the empty
    state at ``lam_cur = inf`` starts a path. One :class:`ActiveQR` factor,
    built at that state and updated at each knot, gives every state's
    segment, residual y - X_A b0 and direction X_A b1. The trace ends at
    ``max_active`` active variables or after ``max_steps`` entries. Returns
    the knots down to ``stop_lambda``, the entry-tie warnings, and the
    segments (see :class:`LassoPath`) of the starting state and each knot.
    """
    X, y, active, signs = data.X, data.y, list(active), list(signs)
    lam_tol, zero_tol = LAMBDA_TOL * data.lam1, ZERO_CORR_TOL * data.lam1
    inactive = np.zeros(X.shape[1], dtype=bool)
    inactive[cols] = True
    inactive[active] = False
    knots: list[Knot] = []
    segments: list = []
    warnings_list: list[str] = []
    entries = 0
    try:
        qr = ActiveQR(X, y, active)
    except SingularDesignError:
        return knots, warnings_list, [None]

    for _ in range(MAX_EVENTS_PER_COLUMN * len(cols)):
        b0, b1, fit_b1 = qr.segment(np.array(signs, float))
        segments.append((b0, b1))
        if len(active) >= max_active or (max_steps is not None and entries >= max_steps):
            break
        idx = np.flatnonzero(inactive)
        best_entry_lam = -np.inf
        if idx.size:
            a, v = (np.array((qr.resid, fit_b1)) @ X)[:, idx]
            # Entry candidates: the correlation a + lam*v of inactive m meets the
            # boundary +lam at a/(1-v) and -lam at -a/(1+v). Row m holds both
            # roots, so flat order is index order with the + root (_ROOT_SIGNS) first.
            denom = 1.0 - v[:, None] * _ROOT_SIGNS
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                roots = a[:, None] * _ROOT_SIGNS / denom
            ok = ((np.abs(denom) >= 1e-14) & np.isfinite(roots) & (roots > zero_tol)
                  & (roots <= lam_cur + lam_tol))
            if just_dropped is not None:  # it re-enters only strictly below lam_cur
                ok[idx == just_dropped] &= roots[idx == just_dropped] < lam_cur - lam_tol
            roots = np.where(ok, roots, -np.inf).ravel()
            best_entry_lam = float(roots.max())
        drop_roots = _drop_roots(b0, b1, lam_cur, data.lam1)
        best_drop_lam = float(drop_roots.max(initial=-np.inf))

        if best_entry_lam == best_drop_lam == -np.inf:
            break
        # Deletions take precedence on exact ties so the sign vector stays valid.
        if best_drop_lam >= best_entry_lam - lam_tol:
            pos = int(np.argmax(drop_roots))
            action, j, lam_next, tied = "leave", active[pos], best_drop_lam, ()
            signs_after = signs[:pos] + signs[pos + 1:]
        else:
            # Entry ties within lam_tol go to the lowest index.
            tied = np.flatnonzero(roots >= best_entry_lam - lam_tol)
            action, j, lam_next = "enter", int(idx[tied[0] // 2]), float(roots[tied[0]])
            signs_after = signs + [1 - 2 * int(tied[0] % 2)]
        lam_next = min(lam_next, lam_cur)
        if lam_next < stop_lambda:
            break
        if len(tied) > 1:
            tied_vars = sorted(set(idx[tied // 2].tolist()))
            warnings_list.append(
                f"entry tie at lambda={lam_next:.6g} among {tied_vars}; chose {j}")
        knot = Knot(k=len(knots) + 1, lam=lam_next, entering=j, action=action,
                    active_before=tuple(active), signs_after=tuple(signs_after))
        knots.append(knot)
        active, signs = list(knot.active_after), signs_after
        inactive[j] = action == "leave"
        entries += action == "enter"
        lam_cur = lam_next
        just_dropped = j if action == "leave" else None
        try:
            (qr.add if action == "enter" else qr.drop)(j)
        except SingularDesignError:
            segments.append(None)
            break
    else:
        raise PathNonTerminationError("path did not terminate; data may be degenerate")
    return knots, warnings_list, segments


def lars_path(data: Dataset, max_steps: int | None = None) -> LassoPath:
    """Trace the lasso path, recording a knot per entry or deletion event.

    ``max_steps`` caps the number of *entry* events; deletions are recorded
    but do not count toward the cap. Tracing ends at the entry that makes
    min(n, p) variables active. The path keeps each knot's segment (see
    :class:`LassoPath`).

    Entry ties within 1e-10 lambda_1 are broken by lowest column index and
    recorded in the path's warnings.
    """
    cols = _columns(data, None)
    _check_max_steps(max_steps, "min(n, p)", min(data.n, data.p))
    knots, warnings_list, segments = _trace(data, cols, [], [], np.inf, None, 0.0,
                                            min(data.n, data.p), max_steps)
    return LassoPath(knots=tuple(knots), data=data,
                     warnings=tuple(warnings_list), segments=tuple(segments[1:]))


def lasso_solve(data: Dataset, lam: float, subset: Sequence[int] | None = None,
               path: LassoPath | None = None) -> np.ndarray:
    """Minimize 0.5*||y - X beta||^2 + lam*||beta||_1 over the given coordinates.

    Returns a vector in the full coordinate space with support inside
    ``subset`` (all columns when None). Solved by tracing the restricted
    path down to ``lam`` (unlike :func:`lars_path`, on past the entry that
    makes all of ``subset`` active, up to n active) and evaluating the
    containing linear segment.

    A supplied ``path`` from :func:`lars_path` warm-starts the trace from one
    of its knots; its ``data`` must be ``data`` or hold the same X and y,
    else :class:`StalePathError`. Where its active set lies inside ``subset``,
    its solution also meets the restricted KKT conditions, so both paths share
    the state just below such a knot. The trace starts at the lowest such
    knot above ``lam`` (else from the empty state), factors that starting
    active set once, and covers only the stretch from there down to ``lam``.
    When the starting active set is all of ``subset`` (always, for an empty
    one), the restricted path can only delete: unless a deletion comes
    before ``lam``, the answer is the path's cached segment at that knot,
    evaluated at ``lam`` untraced and unfactored.

    A degenerate equicorrelation set (entry tie) makes the solution
    non-unique; the lowest-index representative is returned with a
    :class:`NonUniqueSolutionWarning`, which also passes on the tie warnings
    of a supplied path.
    """
    if not lam >= 0:  # NaN too
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    cols = _columns(data, subset)
    if path is None:
        path = LassoPath(knots=(), data=data)
    elif path.data is not data and not (np.array_equal(path.data.X, data.X)
                                        and np.array_equal(path.data.y, data.y)):
        raise StalePathError("path was computed from different data")
    inside = set(cols)
    state, segment = ((), (), np.inf, None), _EMPTY_SEGMENT
    # Knot penalties do not increase, so the knots above lam are a prefix.
    above = bisect.bisect_left(path.knots, -lam - LAMBDA_TOL * data.lam1, key=lambda kn: -kn.lam)
    for pos in range(min(above, len(path.segments)) - 1, -1, -1):
        kn = path.knots[pos]
        if inside.issuperset(kn.active_after):
            state = (kn.active_after, kn.signs_after, kn.lam,
                     kn.entering if kn.action == "leave" else None)
            segment = path.segments[pos]
            break
    knots, warnings_list, segments = [], [], [segment]
    # With all of the subset active, the warm segment holds unless a deletion precedes lam.
    if segment is not None and (len(state[0]) < len(cols)
                                or _drop_roots(*segment, state[2], data.lam1).max(
                                    initial=-np.inf) >= lam):
        knots, warnings_list, segments = _trace(data, cols, *state, stop_lambda=lam,
                                                max_active=data.n)
    warnings_list = list(path.warnings) + warnings_list
    if warnings_list:
        _warnings.warn(
            "solution may be non-unique (" + "; ".join(warnings_list) + ")",
            NonUniqueSolutionWarning)
    if segments[-1] is None:
        raise SingularDesignError(f"columns {cols} are rank deficient above lambda={lam}")
    b0, b1 = segments[-1]
    beta = np.zeros(data.p)
    beta[list(knots[-1].active_after if knots else state[0])] = b0 - lam * b1
    return beta


def kkt_check(data: Dataset, beta: np.ndarray, lam: float,
              subset: Sequence[int] | None = None, tol: float = 1e-6) -> KKTReport:
    """Verify lasso stationarity of ``beta`` at penalty ``lam``.

    Passes iff every coordinate m in the subset (all columns when None)
    satisfies x_m'(y - X beta) = lam * sign(beta_m) within tol when
    beta_m != 0 and |x_m'(y - X beta)| <= lam + tol when beta_m = 0.
    """
    if np.isnan(lam):
        raise ValueError("lambda must not be NaN")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta must have length p={data.p}")
    cols = np.arange(data.p) if subset is None else np.array(_check_subset(data, subset), dtype=int)
    corr = data.X[:, cols].T @ (data.y - data.X @ beta)
    b = beta[cols]
    slack = np.where(b != 0.0, tol - np.abs(corr - lam * np.sign(b)), lam + tol - np.abs(corr))
    violations = tuple(cols[slack < 0.0].tolist())
    return KKTReport(passed=not violations, lam=float(lam), slack=slack, violations=violations)
