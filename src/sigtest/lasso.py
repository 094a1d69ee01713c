"""Lasso solution path via least angle regression (lasso modification).

Produces the ordered sequence of path knots -- penalty values at which the
active set changes -- together with exact lasso solutions at arbitrary
penalty values, on the full variable set or a restricted one.
"""

from __future__ import annotations

import bisect
import sys
import warnings as _warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import (
    NonUniqueSolutionWarning,
    PathNonTerminationError,
    SigtestError,
    SingularDesignError,
    StalePathError,
)
from .linmodel import Dataset, _check_max_steps, _check_subset, _columns, _deficient, _downdate
from .linmodel import _orthogonalize

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
    """One path event: variable ``entering`` enters (or, with ``action == "leave"``,
    leaves) the active set. ``active_before`` is the active set just above the knot;
    ``active_after``, derived at construction, the one just below it (``active_before +
    (entering,)``, or the others in order), and ``signs_after`` aligns with it."""

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
    ``segments[i]`` is the ``(b0, b1)`` of the segment below ``knots[i]``, also below
    the last knot of a capped path (None if rank deficient): the solution there is
    b0 - lam * b1 on ``knots[i].active_after``, b0 the least-squares coefficients and
    b1 = (X_A' X_A)^{-1} s for the signs s. ``entry_positions`` (built on first use)
    indexes the entry knots. Equality compares the knots and warnings, not ``data``."""

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
    """Per-coordinate stationarity check of a lasso solution: ``slack`` holds each
    checked coordinate's slack in subset order, and ``violations`` the negative ones."""

    passed: bool
    lam: float
    slack: np.ndarray = field(repr=False)
    violations: tuple[int, ...] = ()


def _drop_roots(b0: np.ndarray, b1: np.ndarray, lo, hi) -> np.ndarray:
    """Penalty in (lo, hi) where each b0_i - lam*b1_i crosses zero, else -inf."""
    roots = b0 / np.where(np.abs(b1) >= 1e-14, b1, np.inf)  # a |b1| below 1e-14 has no root
    return np.where((roots > lo) & (roots < hi), roots, -np.inf)


class _Stack:
    """The paths of a :func:`_trace` that took the same actions so far, k active columns
    each. Row i traces dataset ``ids[i]``: rows [R | R^{-T} | Q' | Q'y] of ``buf[i]`` hold
    its factor as ActiveQR does, ``rd[i]`` its residual and direction X_A b1, ``S[i]`` its
    signs, ``lam[i]`` its penalty and ``left[i]`` its column deleted there (``left`` is
    None after an entry). ``out`` and ``state`` (active set, signs) are per dataset."""

    _ARRAYS = ("ids", "X", "buf", "rd", "S", "inactive", "lam", "tol", "zero", "left")

    def __init__(self, datasets: Sequence[Dataset], cap: int, cols, active: Sequence[int],
                 signs: Sequence[int], lam_cur: float, left: int | None):
        (n, p), B = datasets[0].X.shape, len(datasets)
        self.ids, self.rows, self.k, self.entries, self.events = *[np.arange(B)] * 2, 0, 0, 0
        self.X = datasets[0].X[None] if B == 1 else np.array([data.X for data in datasets])
        self.tol, self.zero, self.lam = np.array([  # an infinite start is no event's root
            [LAMBDA_TOL * d.lam1, ZERO_CORR_TOL * d.lam1, min(lam_cur, sys.float_info.max)]
            for d in datasets]).T[..., None]
        self.buf = np.zeros((B, cap, 2 * cap + n + 1))
        self.rd = np.array([(data.y, data.y) for data in datasets])  # row 1: X_A b1, at each event
        self.S, self.inactive = np.zeros((B, cap)), np.zeros((B, p), dtype=bool)
        self.S[:, :len(signs)], self.inactive[:, cols] = signs, True
        self.inactive[:, list(active)] = False
        self.left = None if left is None else np.full(B, left)
        self.out, self.state = [([], [], []) for _ in datasets], [(tuple(active), tuple(signs))] * B
        self._views()

    def _views(self):
        buf, cap, self.index = self.buf, self.buf.shape[1], self.ids.tolist()
        self.R, self.Rit, self.Qt = buf[..., :cap], buf[..., cap:2 * cap], buf[..., 2 * cap:-1]
        self.qty, self.resid, self.fit = buf[..., -1:], self.rd[:, 0], self.rd[:, 1:].mT
        self.diag, self.S1 = self.R.diagonal(0, 1, 2), self.S[..., None]
        self.open, self.tols = self.inactive[..., None], self.tol[:, 0].tolist()

    def take(self, rows: list[int]) -> "_Stack | None":
        """The stack of the given rows (ascending): this one for all, None for none."""
        if not rows or len(rows) == len(self.ids):
            return self if rows else None
        new = object.__new__(_Stack)
        new.__dict__.update(self.__dict__, rows=np.arange(len(rows)))
        for name in self._ARRAYS:
            if getattr(self, name) is not None:
                setattr(new, name, getattr(self, name)[rows])
        new._views()
        return new

    def add(self, j: list[int]) -> "_Stack | None":
        """The rows left once column j[i] is appended to row i's factor as ActiveQR.add does;
        a row that fails the rank rule ends at a rank-deficient segment (None)."""
        k, R, Rit, qty, resid = self.k, self.R, self.Rit, self.qty[..., 0], self.resid
        v, rho, r = _orthogonalize(self.Qt[:, :k], self.X[self.rows, None, :, j])
        R[:, k, k] = rho0 = rho[:, 0]
        bad = [_deficient(min(d), max(d)) for d in self.diag[:, :k + 1].tolist()]
        q = np.divide(v[:, 0], rho, out=self.Qt[:, k])
        R[:, :k, k] = r[:, 0]
        Rit[:, k, :k] = (r @ Rit[:, :k, :k])[:, 0] / -rho
        Rit[:, k, k] = 1.0 / rho0
        qty[:, k] = np.vecdot(q, resid)
        resid -= qty[:, k, None] * q
        self.k, self.entries, self.events = k + 1, self.entries + 1, self.events + 1
        for r in self.ids[bad].tolist() if True in bad else ():
            self.out[r][2].append(None)
        return self.take([i for i, fails in enumerate(bad) if not fails])

    def event(self, stop_lambda: float, max_active: int, steps: int, work: list):
        """Each row's segment, then its next event (see :func:`_trace`): the rows that
        enter go on as this stack, those that delete go on ``work`` as a stack."""
        k, ids, out, state, lam, tol = self.k, self.index, self.out, self.state, self.lam, self.tol
        Rit = self.Rit[:, :k, :k]
        w = Rit @ self.S1[:, :k]
        b0, b1 = (Rit.mT @ self.qty[:, :k])[..., 0], (Rit.mT @ w)[..., 0]
        np.matmul(self.Qt[:, :k].mT, w, out=self.fit)
        for r, segment in zip(ids, zip(b0, b1)):
            out[r][2].append(segment)
        if k >= max_active or self.entries >= steps:
            return None
        # Entry candidates: the correlation a + lam*v of inactive m meets the boundary
        # +lam at a/(1-v) and -lam at -a/(1+v). Row m holds both roots, so flat order
        # is index order with the + root (_ROOT_SIGNS) first.
        av = (self.rd @ self.X)[..., None] * _ROOT_SIGNS
        denom = 1.0 - av[:, 1]
        roots = av[:, 0] / denom
        ok = ((np.abs(denom) >= 1e-14) & (roots > self.zero[:, None])
              & (roots <= (lam + tol)[:, None]) & self.open)
        below = lam - tol
        if self.left is not None:  # it re-enters only strictly below lam_cur
            ok[self.rows, self.left] &= roots[self.rows, self.left] < below
        roots = np.where(ok, roots, -np.inf).reshape(len(ids), -1)
        best = roots.max(axis=1)
        tied = roots >= best[:, None] - tol
        first, ties = tied.argmax(axis=1).tolist(), tied.sum(axis=1).tolist()
        drop_roots = _drop_roots(b0, b1, self.zero, below) if k else None
        best_drop = drop_roots.max(axis=1).tolist() if k else [-np.inf] * len(ids)
        enter, leave, self.left = [], [], None
        for i, (r, entry, drop, lam_tol, lam_cur) in enumerate(zip(
                ids, best.tolist(), best_drop, self.tols, lam[:, 0].tolist())):
            active, signs = state[r]
            # Deletions take precedence on exact ties so the sign vector stays valid.
            if entry == drop == -np.inf:
                continue
            elif drop >= entry - lam_tol:
                at = int(drop_roots[i].argmax())
                to, j, lam_next, signs = leave, active[at], drop, signs[:at] + signs[at + 1:]
            else:  # entry ties within lam_tol go to the lowest index
                at = first[i]
                to, j, lam_next = enter, at // 2, float(roots[i, at])
                signs = signs + (1 - 2 * (at % 2),)
                self.S[i, k] = signs[-1]
            lam[i] = lam_next = min(lam_next, lam_cur)
            if lam_next < stop_lambda:
                continue
            if to is enter and ties[i] > 1:
                tied_vars = sorted(set((np.flatnonzero(tied[i]) // 2).tolist()))
                out[r][1].append(f"entry tie at lambda={lam_next:.6g} among {tied_vars}; chose {j}")
            out[r][0].append(Knot(k=len(out[r][0]) + 1, lam=lam_next, entering=j, action=(
                "enter" if to is enter else "leave"), active_before=active, signs_after=signs))
            state[r], self.inactive[i, j] = (out[r][0][-1].active_after, signs), to is leave
            to.append((i, j, at))
        if leave:  # the rows that delete go on as a stack; each a downdate as in ActiveQR.drop
            gone = self.take([i for i, _j, _at in leave])
            for buf, signs, (_i, _j, at) in zip(gone.buf, gone.S, leave):
                _downdate(buf, buf.shape[0], at, k)
                signs[at:k - 1] = signs[at + 1:k].copy()
            gone.resid += gone.qty[:, k - 1] * gone.Qt[:, k - 1]
            gone.buf[:, k - 1], gone.k, gone.events = 0.0, k - 1, gone.events + 1
            gone.left = np.array([j for _i, j, _at in leave])
            work.append(gone)
        st = self.take([i for i, _j, _at in enter])
        return st and st.add([j for _i, j, _at in enter])


def _trace(datasets: Sequence[Dataset], cols, active: Sequence[int], signs: Sequence[int],
           lam_cur: float, just_dropped: int | None, stop_lambda: float, max_active: int,
           max_steps: int | None = None) -> list:
    """Continue the lasso path of each dataset (one shape) over ``cols``, in lockstep,
    from the state just below ``lam_cur``: ``active`` (entry order), ``signs`` and
    ``just_dropped`` (deleted at ``lam_cur``); the empty state at ``lam_cur = inf``
    starts a path. Each event takes X'[r, X_A b1] of every row of a :class:`_Stack` in
    one product, then each row's next event from its own roots; rows whose actions
    differ go on as stacks of their own, slices of the state, so a row computes what it
    computes alone. A path ends at ``max_active`` active variables, after ``max_steps``
    entries or at a rank-deficient segment (None). Each dataset gets its knots down to
    ``stop_lambda``, tie warnings and segments (see :class:`LassoPath`) from its start,
    or a :class:`PathNonTerminationError` after ``MAX_EVENTS_PER_COLUMN`` events a column."""
    steps = np.inf if max_steps is None else max_steps
    st = _Stack(datasets, min(max_active, len(cols), len(active) + steps), cols, active, signs,
                lam_cur, just_dropped)
    out, work, st.entries, st.events = st.out, [st], -len(active), -len(active)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in active:  # the starting factor
            work = [work[0] and work[0].add([j] * len(work[0].ids))]
        while work:
            st = work.pop()
            while st is not None and st.events < MAX_EVENTS_PER_COLUMN * len(cols):
                st = st.event(stop_lambda, max_active, steps, work)
            for r in st.index if st is not None else ():
                out[r] = PathNonTerminationError("path did not terminate; data may be degenerate")
    return out


def lars_path(data: Dataset, max_steps: int | None = None) -> LassoPath:
    """Trace the lasso path, recording a knot per entry or deletion event, and each
    knot's segment (see :class:`LassoPath`). ``max_steps`` caps the number of *entry*
    events (deletions do not count); tracing ends at the entry that makes min(n, p)
    variables active. Entry ties within 1e-10 lambda_1 go to the lowest column index
    and are recorded in the path's warnings. The one-dataset case of the lockstep
    trace (:func:`_trace`) that calibration blocks take."""
    _columns(data, None)
    return _alone(_lars_paths([data], max_steps))


def _alone(paths: list):
    """The one path of a one-dataset trace or walk; the error that ended it is raised."""
    if isinstance(paths[0], SigtestError):
        raise paths[0]
    return paths[0]


def _lars_paths(datasets: Sequence[Dataset], max_steps: int | None = None) -> list:
    """``lars_path`` of each dataset (one shape, distinct columns), or the error it
    raises, in one trace."""
    n, p = datasets[0].n, datasets[0].p
    _check_max_steps(max_steps, "min(n, p)", min(n, p))
    traces = _trace(datasets, np.arange(p), [], [], np.inf, None, 0.0, min(n, p), max_steps)
    return [trace if isinstance(trace, SigtestError) else LassoPath(
        knots=tuple(trace[0]), data=data, warnings=tuple(trace[1]), segments=tuple(trace[2][1:]))
        for data, trace in zip(datasets, traces)]


def lasso_solve(data: Dataset, lam: float, subset: Sequence[int] | None = None,
               path: LassoPath | None = None) -> np.ndarray:
    """Minimize 0.5*||y - X beta||^2 + lam*||beta||_1 over the given coordinates.

    Returns a vector in the full coordinate space with support inside ``subset``
    (all columns when None): the containing segment of the restricted path, traced
    down to ``lam`` (past the entry that makes all of ``subset`` active, up to n).
    A ``path`` from :func:`lars_path` (its ``data`` ``data`` or the same X and y,
    else :class:`StalePathError`) warm-starts that trace: below a knot whose active
    set lies inside ``subset`` both paths share the state, as its solution meets the
    restricted KKT conditions too. The trace starts at the lowest such knot above
    ``lam`` (else empty) and factors its active set once. When that is all of
    ``subset`` (always, for an empty one), the restricted path can only delete:
    unless a deletion comes before ``lam``, the answer is the path's cached segment
    there, untraced and unfactored. An entry tie makes the solution non-unique: the
    lowest-index one comes with a :class:`NonUniqueSolutionWarning`, which also
    passes on the tie warnings of a supplied path.
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
                                or _drop_roots(*segment, ZERO_CORR_TOL * data.lam1,
                                               state[2] - LAMBDA_TOL * data.lam1).max(
                                    initial=-np.inf) >= lam):
        knots, warnings_list, segments = _alone(_trace([data], cols, *state, stop_lambda=lam,
                                                       max_active=data.n))
    warnings_list = list(path.warnings) + warnings_list
    if warnings_list:
        _warnings.warn("solution may be non-unique (" + "; ".join(warnings_list) + ")",
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
