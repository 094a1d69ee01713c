"""Lasso solution path via least angle regression (lasso modification).

Produces the ordered sequence of path knots -- penalty values at which the
active set changes -- together with exact lasso solutions at arbitrary
penalty values, on the full variable set or a restricted one.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import (
    DuplicateColumnError,
    NonUniqueSolutionWarning,
    PathNonTerminationError,
    SingularDesignError,
    StalePathError,
)
from .linmodel import RANK_TOL, Dataset

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
    ``signs_after`` aligns with the active set just below the knot
    (``active_before + [entering]`` for entries, the remaining variables in
    order for deletions).
    """

    k: int
    lam: float
    entering: int
    active_before: tuple[int, ...]
    signs_after: tuple[int, ...]
    action: str = "enter"

    def __post_init__(self):
        if self.action not in ("enter", "leave"):
            raise ValueError(f"unknown knot action {self.action!r}")
        if self.action == "enter" and self.entering in self.active_before:
            raise ValueError("entering variable already active")

    @property
    def active_after(self) -> tuple[int, ...]:
        if self.action == "enter":
            return self.active_before + (self.entering,)
        return tuple(i for i in self.active_before if i != self.entering)


@dataclass(frozen=True)
class LassoPath:
    """Ordered knots of one lasso path plus the digest of its dataset."""

    knots: tuple[Knot, ...]
    data_digest: str
    warnings: tuple[str, ...] = ()

    def entry_knots(self) -> tuple[Knot, ...]:
        return tuple(kn for kn in self.knots if kn.action == "enter")

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(kn.lam for kn in self.knots)


@dataclass(frozen=True)
class KKTCoordinate:
    index: int
    active: bool
    correlation: float
    slack: float


@dataclass(frozen=True)
class KKTReport:
    """Per-coordinate stationarity check of a lasso solution."""

    passed: bool
    lam: float
    coordinates: tuple[KKTCoordinate, ...] = field(repr=False)
    violations: tuple[int, ...] = ()

    @property
    def worst_slack(self) -> float:
        return min(c.slack for c in self.coordinates) if self.coordinates else 0.0


def _check_duplicates(X: np.ndarray, columns: Sequence[int]) -> None:
    seen: dict[bytes, int] = {}
    for j in columns:
        key = X[:, j].tobytes()
        if key in seen:
            raise DuplicateColumnError(seen[key], j)
        seen[key] = j


def _segment_direction(X: np.ndarray, y: np.ndarray, active: list[int],
                       signs: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Intercept and slope of the piecewise-linear segment on the active set.

    On a segment where ``active`` and ``signs`` are constant the solution is
    beta(lam) = b0 - lam * b1 with b0 the least-squares coefficients and
    b1 = (X_A' X_A)^{-1} s.
    """
    XA = X[:, active]
    Q, R = np.linalg.qr(XA)
    diag = np.abs(np.diag(R))
    if diag.min() < RANK_TOL * diag.max():
        raise SingularDesignError(f"active set {active} became rank deficient")
    s = np.array([signs[i] for i in active], dtype=float)
    b0 = np.linalg.solve(R, Q.T @ y)
    b1 = np.linalg.solve(R, np.linalg.solve(R.T, s))
    return b0, b1


def _columns(data: Dataset, columns: Sequence[int] | None) -> list[int]:
    """Validated column list: all columns when ``columns`` is None."""
    cols = list(range(data.p)) if columns is None else [int(c) for c in columns]
    if len(set(cols)) != len(cols):
        raise ValueError("restricted column set contains repeats")
    _check_duplicates(data.X, cols)
    return cols


def _trace(X: np.ndarray, y: np.ndarray, cols: list[int], active: list[int],
           signs: dict[int, int], lam_cur: float, just_dropped: int | None,
           stop_lambda: float, max_active: int, max_steps: int | None = None
           ) -> tuple[list[Knot], list[str], tuple | None]:
    """Continue the lasso path over ``cols`` from the state just below ``lam_cur``.

    ``active`` (entry order), ``signs`` and ``just_dropped`` (deleted at
    ``lam_cur``) give that state; the empty state at ``lam_cur = inf`` starts
    a path. The trace ends once ``max_active`` variables are active. Returns
    the knots of the events down to ``stop_lambda``, the entry-tie warnings,
    and the final segment ``(active, b0, b1)`` (see :func:`_segment_direction`),
    which is None when the trace stopped on ``max_steps`` or a rank-deficient
    active set.
    """
    active, signs = list(active), dict(signs)
    inactive = np.zeros(X.shape[1], dtype=bool)
    inactive[cols] = True
    inactive[active] = False
    knots: list[Knot] = []
    warnings_list: list[str] = []
    entries = 0

    for _ in range(MAX_EVENTS_PER_COLUMN * max(len(cols), 1)):
        segment = None
        if max_steps is not None and entries >= max_steps:
            break
        idx = np.flatnonzero(inactive)
        b0 = b1 = np.zeros(0)
        if active:
            try:
                b0, b1 = _segment_direction(X, y, active, signs)
            except SingularDesignError:
                break
        segment = (list(active), b0, b1)
        if len(active) >= max_active:
            break
        XA = X[:, active]
        XI = X[:, idx]
        a = XI.T @ (y - XA @ b0)
        v = XI.T @ (XA @ b1)
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
    return knots, warnings_list, segment


def lars_path(data: Dataset, max_steps: int | None = None,
              columns: Sequence[int] | None = None,
              stop_lambda: float = 0.0) -> LassoPath:
    """Trace the lasso path, recording a knot per entry or deletion event.

    ``max_steps`` caps the number of *entry* events; deletions are recorded
    but do not count toward the cap. ``columns`` restricts the path to a
    subset of variables (indices stay in the full coordinate space).
    ``stop_lambda`` stops tracing once the next event falls below it, and
    tracing ends at the entry that makes min(n, len(columns)) variables active.

    Entry ties within 1e-10 are broken by lowest column index and recorded in
    the path's warnings.
    """
    cols = _columns(data, columns)
    if max_steps is not None and max_steps > min(data.n, len(cols) or 1):
        raise ValueError(f"max_steps={max_steps} exceeds min(n, p)")
    knots, warnings_list, _ = _trace(data.X, data.y, cols, [], {}, np.inf, None,
                                     stop_lambda, min(data.n, len(cols)), max_steps)
    return LassoPath(knots=tuple(knots), data_digest=data.digest,
                     warnings=tuple(warnings_list))


def _state_at(path: LassoPath, lam: float) -> tuple[list[int], dict[int, int]]:
    """Active set and signs of the path segment containing penalty ``lam``."""
    active: list[int] = []
    signs: dict[int, int] = {}
    for kn in path.knots:
        if kn.lam <= lam + LAMBDA_TOL:
            break
        if kn.action == "enter":
            active.append(kn.entering)
            signs[kn.entering] = kn.signs_after[-1]
        else:
            active.remove(kn.entering)
            del signs[kn.entering]
    return active, signs


def solve_at(path: LassoPath, data: Dataset, lam: float) -> np.ndarray:
    """Exact solution at penalty ``lam`` interpolated from an existing path.

    The path must extend below ``lam`` (or be exhausted above it).
    """
    if path.data_digest != data.digest:
        raise StalePathError("path was computed from different data")
    beta = np.zeros(data.p)
    active, signs = _state_at(path, lam)
    if not active:
        return beta
    b0, b1 = _segment_direction(data.X, data.y, active, signs)
    beta[active] = b0 - lam * b1
    return beta


def lasso_solve(data: Dataset, lam: float, subset: Sequence[int] | str = "all",
               path: LassoPath | None = None) -> np.ndarray:
    """Minimize 0.5*||y - X beta||^2 + lam*||beta||_1 over the given coordinates.

    Returns a vector in the full coordinate space with support inside
    ``subset``. Solved by tracing the restricted path down to ``lam`` (unlike
    :func:`lars_path`, on past the entry that makes all of ``subset``
    active, up to n active) and evaluating the containing linear segment.

    A supplied ``path`` -- over all columns, or over a superset of ``subset``
    -- warm-starts the trace. Where its active set lies inside ``subset``, its
    solution also meets the restricted KKT conditions, so both paths share
    the state just below such a knot. The trace starts at the lowest such
    knot above ``lam`` (else from the empty state) and covers only the
    stretch from there down to ``lam``.

    A degenerate equicorrelation set (entry tie) makes the solution
    non-unique; the lowest-index representative is returned with a
    :class:`NonUniqueSolutionWarning`, which also passes on the tie warnings
    of a supplied path.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if isinstance(subset, str):
        if subset != "all":
            raise ValueError(f"unknown subset spec {subset!r}")
        columns = None
    else:
        columns = [int(c) for c in subset]
        if not columns:
            return np.zeros(data.p)
    if path is None:
        path = LassoPath(knots=(), data_digest=data.digest)
    elif path.data_digest != data.digest:
        raise StalePathError("path was computed from different data")
    cols = _columns(data, columns)
    inside = set(cols)
    state = ([], {}, np.inf, None)
    for kn in path.knots:
        if kn.lam <= lam + LAMBDA_TOL:
            break
        if inside.issuperset(kn.active_after):
            state = (kn.active_after, dict(zip(kn.active_after, kn.signs_after)), kn.lam,
                     kn.entering if kn.action == "leave" else None)
    _, warnings_list, segment = _trace(data.X, data.y, cols, *state, stop_lambda=lam,
                                       max_active=data.n)
    warnings_list = list(path.warnings) + warnings_list
    if warnings_list:
        _warnings.warn(
            "solution may be non-unique (" + "; ".join(warnings_list) + ")",
            NonUniqueSolutionWarning)
    if segment is None:
        raise SingularDesignError(f"columns {cols} are rank deficient above lambda={lam}")
    active, b0, b1 = segment
    beta = np.zeros(data.p)
    beta[active] = b0 - lam * b1
    return beta


def kkt_check(data: Dataset, beta: np.ndarray, lam: float,
              subset: Sequence[int] | str = "all", tol: float = 1e-6) -> KKTReport:
    """Verify lasso stationarity of ``beta`` at penalty ``lam``.

    Passes iff every coordinate m in the subset satisfies
    x_m'(y - X beta) = lam * sign(beta_m) within tol when beta_m != 0 and
    |x_m'(y - X beta)| <= lam + tol when beta_m = 0.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"beta must have length p={data.p}")
    if isinstance(subset, str):
        if subset != "all":
            raise ValueError(f"unknown subset spec {subset!r}")
        cols = list(range(data.p))
    else:
        cols = [int(c) for c in subset]
    resid = data.y - data.X @ beta
    coords = []
    violations = []
    for m in cols:
        c_m = float(data.X[:, m] @ resid)
        if beta[m] != 0.0:
            slack = tol - abs(c_m - lam * np.sign(beta[m]))
        else:
            slack = lam + tol - abs(c_m)
        ok = slack >= 0.0
        if not ok:
            violations.append(m)
        coords.append(KKTCoordinate(index=m, active=beta[m] != 0.0,
                                    correlation=c_m, slack=float(slack)))
    return KKTReport(passed=not violations, lam=float(lam),
                     coordinates=tuple(coords), violations=tuple(violations))
