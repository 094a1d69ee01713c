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
    DuplicateColumnError,
    NonUniqueSolutionWarning,
    PathNonTerminationError,
    SingularDesignError,
    StalePathError,
)
from .linmodel import ActiveQR, Dataset, _check_subset

# Penalty comparisons on standardized data use this absolute tolerance.
LAMBDA_TOL = 1e-10
# A path with max |x_m' y| below this is empty (zero response).
ZERO_CORR_TOL = 1e-12
# A trace that has not ended after this many events per column is abandoned.
MAX_EVENTS_PER_COLUMN = 50


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
    """Ordered knots of one lasso path plus the digest of its dataset.

    ``segments[i]`` is the ``(b0, b1)`` of the segment below ``knots[i]``,
    also below the last knot of a capped path (None if rank deficient): the
    solution there is b0 - lam * b1 on ``knots[i].active_after``, with b0 the
    least-squares coefficients and b1 = (X_A' X_A)^{-1} s for the signs s.
    ``entry_positions`` indexes the entry knots in ``knots``; it is built on
    first use and kept.
    """

    knots: tuple[Knot, ...]
    data_digest: str
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


def _columns(data: Dataset, columns: Sequence[int] | None) -> list[int]:
    """Validated column list: all columns when ``columns`` is None.

    :class:`DuplicateColumnError` names the first column of the list that
    repeats an earlier one, and that earlier one.
    """
    cols = list(range(data.p)) if columns is None else _check_subset(data, columns)
    if data.copies:
        seen: dict[int, int] = {}
        for j in cols:
            f = data.copies.get(j, j)
            if f in seen:
                raise DuplicateColumnError(seen[f], j)
            seen[f] = j
    return cols


def _trace(X: np.ndarray, y: np.ndarray, cols: list[int], active: list[int],
           signs: dict[int, int], lam_cur: float, just_dropped: int | None,
           stop_lambda: float, max_active: int, max_steps: int | None = None,
           segment: tuple[np.ndarray, np.ndarray] | None = None
           ) -> tuple[list[Knot], list[str], list]:
    """Continue the lasso path over ``cols`` from the state just below ``lam_cur``.

    ``active`` (entry order), ``signs`` and ``just_dropped`` (deleted at
    ``lam_cur``) give that state, and ``segment`` its ``(b0, b1)`` if known;
    the empty state at ``lam_cur = inf`` starts a path. One :class:`ActiveQR`
    factor, built when a segment is first needed, follows the events. The
    trace ends at ``max_active`` active variables or after ``max_steps``
    entries. Returns the knots down to ``stop_lambda``, the entry-tie
    warnings, and the segments (see :class:`LassoPath`) of the starting state
    and each knot.
    """
    active, signs = list(active), dict(signs)
    inactive = np.zeros(X.shape[1], dtype=bool)
    inactive[cols] = True
    inactive[active] = False
    knots: list[Knot] = []
    segments: list = [] if segment is None else [segment]
    warnings_list: list[str] = []
    entries = 0
    qr = None

    for _ in range(MAX_EVENTS_PER_COLUMN * max(len(cols), 1)):
        if len(segments) == len(knots):  # the current state has no segment yet
            try:
                if qr is None:
                    qr = ActiveQR(X, y, active)
                elif knots[-1].action == "enter":
                    qr.add(knots[-1].entering)
                else:
                    qr.drop(knots[-1].entering)
            except SingularDesignError:
                segments.append(None)
                break
            b0, b1, fit_b1 = qr.segment(np.array([signs[i] for i in active], float))
            segments.append((b0, b1))
        if len(active) >= max_active or (max_steps is not None and entries >= max_steps):
            break
        idx = np.flatnonzero(inactive)
        b0, b1 = segments[-1]
        # The residual y - X_A b0 and the direction X_A b1 of the segment come
        # from the factor; the supplied starting segment has none yet.
        if qr is not None:
            resid = qr.resid
        elif idx.size:
            XA = X[:, active]
            resid, fit_b1 = y - XA @ b0, XA @ b1
        a, v = (np.array((resid, fit_b1)) @ X)[:, idx] if idx.size else np.zeros((2, 0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Entry candidates: the correlation a + lam*v of inactive m meets the
            # boundary +lam at a/(1-v) and -lam at -a/(1+v). Row m holds both
            # roots, so flat order is index order with the + root first.
            denom = np.column_stack((1.0 - v, 1.0 + v))
            roots = np.column_stack((a, -a)) / denom
            # Deletion candidates: active coefficient b0_i - lam*b1_i crosses zero.
            drop_roots = b0 / b1
        ok = ((np.abs(denom) >= 1e-14) & np.isfinite(roots) & (roots > ZERO_CORR_TOL)
              & (roots <= lam_cur + LAMBDA_TOL))
        # A just-deleted variable re-enters only strictly below lam_cur.
        ok[idx == just_dropped] &= roots[idx == just_dropped] < lam_cur - LAMBDA_TOL
        roots = np.where(ok, roots, -np.inf).ravel()
        best_entry_lam = float(roots.max()) if roots.size else -np.inf
        drop_roots = np.where((np.abs(b1) >= 1e-14) & (drop_roots > ZERO_CORR_TOL)
                              & (drop_roots < lam_cur - LAMBDA_TOL), drop_roots, -np.inf)
        best_drop_lam = float(drop_roots.max(initial=-np.inf))

        has_entry = best_entry_lam > ZERO_CORR_TOL
        has_drop = best_drop_lam > -np.inf
        if not has_entry and not has_drop:
            break

        # Deletions take precedence on exact ties so the sign vector stays valid.
        if has_drop and (not has_entry or best_drop_lam >= best_entry_lam - LAMBDA_TOL):
            lam_next = min(best_drop_lam, lam_cur)
            if lam_next < stop_lambda:
                break
            drop_idx = active[int(np.argmax(drop_roots))]
            knots.append(Knot(k=len(knots) + 1, lam=lam_next, entering=drop_idx,
                              active_before=tuple(active),
                              signs_after=tuple(signs[i] for i in active if i != drop_idx),
                              action="leave"))
            active.remove(drop_idx)
            del signs[drop_idx]
            inactive[drop_idx] = True
            just_dropped = drop_idx
            lam_cur = lam_next
            continue

        # Entry ties within LAMBDA_TOL go to the lowest index.
        tied = np.flatnonzero(roots >= best_entry_lam - LAMBDA_TOL)
        lam_next = min(float(roots[tied[0]]), lam_cur)
        if lam_next < stop_lambda:
            break
        j, sgn = int(idx[tied[0] // 2]), 1 - 2 * int(tied[0] % 2)
        if len(tied) > 1:
            tied_vars = sorted(set(idx[tied // 2].tolist()))
            warnings_list.append(
                f"entry tie at lambda={lam_next:.6g} among {tied_vars}; chose {j}")
        knots.append(Knot(k=len(knots) + 1, lam=lam_next, entering=j,
                          active_before=tuple(active),
                          signs_after=tuple([signs[i] for i in active] + [sgn])))
        active.append(j)
        signs[j] = sgn
        inactive[j] = False
        entries += 1
        lam_cur = lam_next
        just_dropped = None
    else:
        raise PathNonTerminationError("path did not terminate; data may be degenerate")
    return knots, warnings_list, segments


def lars_path(data: Dataset, max_steps: int | None = None) -> LassoPath:
    """Trace the lasso path, recording a knot per entry or deletion event.

    ``max_steps`` caps the number of *entry* events; deletions are recorded
    but do not count toward the cap. Tracing ends at the entry that makes
    min(n, p) variables active. The path keeps each knot's segment (see
    :class:`LassoPath`).

    Entry ties within 1e-10 are broken by lowest column index and recorded in
    the path's warnings.
    """
    cols = _columns(data, None)
    if max_steps is not None and not 0 <= max_steps <= min(data.n, data.p):
        raise ValueError(f"max_steps={max_steps} must lie in [0, min(n, p)]")
    knots, warnings_list, segments = _trace(data.X, data.y, cols, [], {}, np.inf, None,
                                            0.0, min(data.n, data.p), max_steps)
    return LassoPath(knots=tuple(knots), data_digest=data.digest,
                     warnings=tuple(warnings_list), segments=tuple(segments[1:]))


def lasso_solve(data: Dataset, lam: float, subset: Sequence[int] | None = None,
               path: LassoPath | None = None) -> np.ndarray:
    """Minimize 0.5*||y - X beta||^2 + lam*||beta||_1 over the given coordinates.

    Returns a vector in the full coordinate space with support inside
    ``subset`` (all columns when None). Solved by tracing the restricted
    path down to ``lam`` (unlike :func:`lars_path`, on past the entry that
    makes all of ``subset`` active, up to n active) and evaluating the
    containing linear segment.

    A supplied ``path`` from :func:`lars_path` warm-starts the trace from its
    cached segments. Where its active set lies inside ``subset``, its
    solution also meets the restricted KKT conditions, so both paths share
    the state just below such a knot. The trace starts at the lowest such
    knot above ``lam`` (else from the empty state), found by bisecting the
    knot penalties and walking up, and covers only the stretch from there
    down to ``lam``.

    A degenerate equicorrelation set (entry tie) makes the solution
    non-unique; the lowest-index representative is returned with a
    :class:`NonUniqueSolutionWarning`, which also passes on the tie warnings
    of a supplied path.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    cols = _columns(data, subset)
    if not cols:
        return np.zeros(data.p)
    if path is None:
        path = LassoPath(knots=(), data_digest=data.digest)
    elif path.data_digest != data.digest:
        raise StalePathError("path was computed from different data")
    inside = set(cols)
    state, segment = ((), {}, np.inf, None), None
    # Knot penalties do not increase, so the knots above lam are a prefix.
    above = bisect.bisect_left(path.knots, -(lam + LAMBDA_TOL), key=lambda kn: -kn.lam)
    for pos in range(min(above, len(path.segments)) - 1, -1, -1):
        kn = path.knots[pos]
        if inside.issuperset(kn.active_after):
            state = (kn.active_after, dict(zip(kn.active_after, kn.signs_after)), kn.lam,
                     kn.entering if kn.action == "leave" else None)
            segment = path.segments[pos]
            break
    knots, warnings_list, segments = _trace(data.X, data.y, cols, *state, stop_lambda=lam,
                                            max_active=data.n, segment=segment)
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
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta must have length p={data.p}")
    cols = np.arange(data.p) if subset is None else np.array(_check_subset(data, subset), dtype=int)
    corr = data.X[:, cols].T @ (data.y - data.X @ beta)
    b = beta[cols]
    slack = np.where(b != 0.0, tol - np.abs(corr - lam * np.sign(b)), lam + tol - np.abs(corr))
    violations = tuple(cols[slack < 0.0].tolist())
    return KKTReport(passed=not violations, lam=float(lam), slack=slack, violations=violations)
