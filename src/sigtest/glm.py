"""Likelihood-based analogue of the test for logistic and Cox regression.

Per-variable likelihood-ratio drops replace the scaled RSS drops of the
linear model; the extreme-value centering and Gumbel reference apply
unchanged to the maximal drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import (
    ConvergenceError,
    DegenerateResponseError,
    NoEventsError,
    SeparationError,
    SigtestError,
    SingularDesignError,
    TooFewRemainingError,
    UnreliableMaxError,
)
from .linmodel import RANK_TOL, Dataset, least_squares
from .significance import TestOutcome, gumbel_correction, gumbel_sf

MAX_ITER = 100
GRAD_TOL = 1e-8
DIVERGENCE_NORM = 1e3
MAX_HALVINGS = 20


@dataclass(frozen=True, eq=False)
class BinaryDataset:
    """Design matrix and 0/1 response for logistic regression."""

    X: np.ndarray
    y: np.ndarray
    include_intercept: bool = True

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float)).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with y of length n")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("y must contain only 0 and 1")
        if y.min() == y.max():
            raise DegenerateResponseError("y must contain at least one 0 and one 1")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class SurvivalDataset:
    """Design matrix, follow-up times, and event indicators for Cox regression."""

    X: np.ndarray
    time: np.ndarray
    status: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        time = np.ascontiguousarray(np.asarray(self.time, dtype=float)).ravel()
        status = np.ascontiguousarray(np.asarray(self.status, dtype=float)).ravel()
        if X.ndim != 2 or X.shape[0] != time.shape[0] or time.shape != status.shape:
            raise ValueError("X must be n x p with time and status of length n")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(time)):
            raise ValueError("non-finite entries in X or time")
        if np.any(time <= 0):
            raise ValueError("all times must be positive")
        if not np.all(np.isin(status, (0.0, 1.0))):
            raise ValueError("status must contain only 0 and 1")
        if status.sum() < 1:
            raise NoEventsError("survival data contains no observed events")
        X.setflags(write=False)
        time.setflags(write=False)
        status.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", status)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Converged maximum-likelihood fit on a variable subset.

    For logistic fits with an intercept, ``coefficients[0]`` is the
    intercept and the remaining entries follow ``subset`` order.
    """

    subset: tuple[int, ...]
    coefficients: np.ndarray
    loglik: float
    converged: bool
    iterations: int


def _subset(M: Sequence[int]) -> list[int]:
    M = [int(m) for m in M]
    if len(set(M)) != len(M):
        raise ValueError("subset contains repeated indices")
    return M


def _rank_errors(Z: np.ndarray, what: str) -> list[SigtestError | None]:
    """Per-row rank check of a (c, n, d) stack of designs, d >= 1."""
    c, n, d = Z.shape
    if d > n:
        return [SingularDesignError(f"{what}: more columns than rows") for _ in range(c)]
    diag = np.abs(np.diagonal(np.linalg.qr(Z, mode="r"), axis1=1, axis2=2))
    deficient = diag.min(axis=1) < RANK_TOL * diag.max(axis=1)
    return [SingularDesignError(f"{what}: design is rank deficient") if bad else None
            for bad in deficient]


def _solve_rows(info: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps ``info[i] @ step[i] = grad[i]`` and a mask of singular rows."""
    singular = np.zeros(len(grad), dtype=bool)
    try:
        return np.linalg.solve(info, grad[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    # One singular row fails the whole stacked solve; find it row by row.
    step = np.zeros_like(grad)
    for i in range(len(grad)):
        try:
            step[i] = np.linalg.solve(info[i], grad[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return step, singular


def _newton_stack(objective, Z: np.ndarray, beta0: np.ndarray, what: str):
    """Damped Newton ascent on a stack of c problems of one shape.

    ``Z`` is the (c, n, d) stack of designs and ``beta0`` the (c, d) starting
    points. ``objective(Z, beta)`` returns the log-likelihood (c,), gradient
    (c, d) and information matrix (c, d, d) of the rows it is given; the
    information matrix is the negated Hessian, so a row's ascent step solves
    ``info @ step = grad``. Each row keeps the rules of a single fit under its
    own mask: the rank check, convergence once the gradient norm is below
    GRAD_TOL, step halving with its own scale (at most MAX_HALVINGS times),
    SeparationError once the coefficient norm passes DIVERGENCE_NORM, and
    ConvergenceError on a singular information matrix, a failed line search
    or MAX_ITER iterations. A failed row stops; the others go on unchanged.

    Returns ``(beta, loglik, iterations, errors)``, where ``errors[i]`` is the
    exception a fit of row i alone raises, or None when the row converged.
    """
    beta = np.array(beta0, dtype=float)
    c, d = beta.shape
    errors = _rank_errors(Z, what)
    live = np.array([e is None for e in errors], dtype=bool)
    iterations = np.zeros(c, dtype=int)
    ll = np.full(c, np.nan)
    grad = np.zeros((c, d))
    info = np.zeros((c, d, d))

    def evaluate(rows, b):
        return objective(Z if rows.size == c else Z[rows], b)

    def fail(rows, error, message):
        for i in rows:
            errors[i] = error(f"{what}: {message}")
        live[rows] = False

    rows = np.flatnonzero(live)
    ll[rows], grad[rows], info[rows] = evaluate(rows, beta[rows])
    for it in range(1, MAX_ITER + 1):
        rows = np.flatnonzero(live)
        done = np.linalg.norm(grad[rows], axis=1) < GRAD_TOL
        iterations[rows[done]] = it - 1
        live[rows[done]] = False
        rows = rows[~done]
        if rows.size == 0:
            break
        step, singular = _solve_rows(info[rows], grad[rows])
        fail(rows[singular], ConvergenceError, "singular information matrix")
        rows, step = rows[~singular], step[~singular]
        scale = np.ones(rows.size)
        pending = np.arange(rows.size)
        for _ in range(MAX_HALVINGS + 1):
            if pending.size == 0:
                break
            sub = rows[pending]
            cand = beta[sub] + scale[pending, None] * step[pending]
            ll_new, grad_new, info_new = evaluate(sub, cand)
            ok = np.isfinite(ll_new) & (ll_new >= ll[sub] - 1e-12)
            took = sub[ok]
            beta[took], ll[took] = cand[ok], ll_new[ok]
            grad[took], info[took] = grad_new[ok], info_new[ok]
            pending = pending[~ok]
            scale[pending] *= 0.5
        fail(rows[pending], ConvergenceError, "step halving failed to improve the likelihood")
        moved = np.delete(rows, pending)
        fail(moved[np.linalg.norm(beta[moved], axis=1) > DIVERGENCE_NORM], SeparationError,
             "coefficients diverging; likelihood unbounded")
    rows = np.flatnonzero(live)
    done = np.linalg.norm(grad[rows], axis=1) < GRAD_TOL
    iterations[rows[done]] = MAX_ITER
    fail(rows[~done], ConvergenceError, f"no convergence after {MAX_ITER} iterations")
    return beta, ll, iterations, errors


class _Problem(NamedTuple):
    """A family's model on a subset M, with rows in the order its objective needs."""

    design: np.ndarray  # (n, d): the model's columns, intercept first if any
    columns: np.ndarray  # (n, p): every column of X, rows in the same order
    objective: Callable  # (Z (c, n, d), beta (c, d)) -> loglik, gradient, information
    what: str


def _logistic_problem(data: BinaryDataset, M: list[int]) -> _Problem:
    intercept = [np.ones((data.n, 1))] if data.include_intercept else []
    y = data.y

    def objective(Z, beta):
        eta = (Z @ beta[:, :, None])[:, :, 0]
        ll = eta @ y - np.logaddexp(0.0, eta).sum(axis=1)
        prob = 1.0 / (1.0 + np.exp(-np.clip(eta, -500.0, 500.0)))
        Zt = Z.transpose(0, 2, 1)
        grad = (Zt @ (y - prob)[:, :, None])[:, :, 0]
        w = prob * (1.0 - prob)
        info = Zt @ (w[:, :, None] * Z)
        return ll, grad, info

    return _Problem(np.hstack(intercept + [data.X[:, M]]), data.X, objective, "logistic fit")


def _fit_one(problem: _Problem, M: list[int]) -> FitResult:
    """Fit the problem's own design, from zero, as a stack of one."""
    design = problem.design
    beta, ll, iterations, errors = _newton_stack(
        problem.objective, design[None], np.zeros((1, design.shape[1])), problem.what)
    if errors[0] is not None:
        raise errors[0]
    return FitResult(subset=tuple(M), coefficients=beta[0], loglik=float(ll[0]),
                     converged=True, iterations=int(iterations[0]))


def logistic_fit(data: BinaryDataset, M: Sequence[int]) -> FitResult:
    """Maximize the Bernoulli log-likelihood on columns M by Newton iterations.

    Includes an unpenalized intercept when the dataset requests one.
    """
    M = _subset(M)
    problem = _logistic_problem(data, M)
    if problem.design.shape[1] == 0:
        # No parameters at all: eta = 0, p = 1/2 for every observation.
        return FitResult(subset=(), coefficients=np.zeros(0),
                         loglik=-data.n * math.log(2.0), converged=True, iterations=0)
    return _fit_one(problem, M)


def _cox_prepared(data: SurvivalDataset):
    """Sort by follow-up time and group tied event times for suffix sums."""
    order = np.argsort(data.time, kind="stable")
    time = data.time[order]
    status = data.status[order]
    event_pos = np.flatnonzero(status == 1.0)
    # Risk set of an event at position i is positions first(i)..n-1, where
    # first(i) is the first index sharing the event's time.
    first = np.searchsorted(time, time[event_pos], side="left")
    return order, event_pos, first


def _cox_problem(data: SurvivalDataset, M: list[int]) -> _Problem:
    order, event_pos, first = _cox_prepared(data)
    # Number of events whose risk set starts at or before each position.
    starts = np.searchsorted(first, np.arange(data.n), side="right")

    def objective(Z, beta):
        # Far along a diverging direction the risk-set sums can underflow;
        # the resulting non-finite candidates are rejected by the line
        # search, so the numpy warnings are suppressed here.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eta = (Z @ beta[:, :, None])[:, :, 0]
            shift = eta.max(axis=1, keepdims=True)
            w = np.exp(eta - shift)
            # Suffix sums over the sorted order: sum of w (and w*x) from each
            # position to the end.
            s0 = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
            s1 = np.cumsum((w[:, :, None] * Z)[:, ::-1], axis=1)[:, ::-1]
            denom = s0[:, first]
            ll = eta[:, event_pos].sum(axis=1) - (np.log(denom) + shift).sum(axis=1)
            mean = s1[:, first] / denom[:, :, None]
            grad = Z[:, event_pos].sum(axis=1) - mean.sum(axis=1)
            # The information needs sum_e S2(first_e) / denom_e, with S2(k)
            # the suffix sum of w x x' from position k. Swapping the sums
            # gives sum_i w_i c_i x_i x_i', where c_i sums 1/denom_e over the
            # events whose risk set starts at or before i: one prefix sum over
            # events and one weighted Gram matrix, with no (n, d, d) array.
            # Tied events share first_e but each keeps its own 1/denom_e
            # term on both sides, so the identity is exact with ties.
            inv = np.concatenate([np.zeros((len(Z), 1)), np.cumsum(1.0 / denom, axis=1)],
                                 axis=1)
            cw = w * inv[:, starts]
            info = Z.transpose(0, 2, 1) @ (cw[:, :, None] * Z) \
                - mean.transpose(0, 2, 1) @ mean
        return ll, grad, info

    columns = data.X[order]
    return _Problem(columns[:, M], columns, objective, "cox fit")


def cox_fit(data: SurvivalDataset, M: Sequence[int]) -> FitResult:
    """Maximize the partial log-likelihood on columns M by damped Newton.

    Ties are handled by pooling tied events over the same risk set.
    """
    M = _subset(M)
    if data.status.sum() < 1:
        raise NoEventsError("survival data contains no observed events")
    if not M:
        _order, _event_pos, first = _cox_prepared(data)
        riskset_sizes = data.n - first
        ll = -float(np.log(riskset_sizes).sum())
        return FitResult(subset=(), coefficients=np.zeros(0), loglik=ll,
                         converged=True, iterations=0)
    return _fit_one(_cox_problem(data, M), M)


def _gaussian_fit(data: Dataset, M: Sequence[int]) -> FitResult:
    sigma2 = data.require_sigma2()
    fit = least_squares(data, M)
    ll = -0.5 * data.n * math.log(2.0 * math.pi * sigma2) - fit.rss / (2.0 * sigma2)
    return FitResult(subset=fit.subset, coefficients=fit.coefficients, loglik=ll,
                     converged=True, iterations=0)


def gaussian_loglik(data: Dataset, M: Sequence[int]) -> float:
    """Gaussian log-likelihood of the least-squares fit on M with known variance."""
    return _gaussian_fit(data, M).loglik


# Family name -> (fit on a subset, the problem its candidate fits are stacked
# from, or None to refit each candidate by least squares). The logistic and
# Cox fits are looked up by name when called, so a wrapped or replaced
# `logistic_fit` or `cox_fit` serves the base fits too.
_FAMILIES = {
    "gaussian": (_gaussian_fit, None),
    "logistic": (lambda data, M: logistic_fit(data, M), _logistic_problem),
    "cox": (lambda data, M: cox_fit(data, M), _cox_problem),
}


def _family(family: str):
    try:
        return _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


def lrt_drop(family: str, data, A: Sequence[int], m: int) -> float:
    """Likelihood-ratio drop 2*(loglik(A u {m}) - loglik(A)), clamped at 0."""
    fit, _problem = _family(family)
    A = [int(a) for a in A]
    m = int(m)
    if m in A:
        raise ValueError(f"candidate index {m} already in the subset")
    return max(2.0 * (fit(data, A + [m]).loglik - fit(data, A).loglik), 0.0)


def lrt_drops_all(family: str, data, A: Sequence[int]) -> tuple[dict[int, float], list[str]]:
    """Drop of every candidate outside A; failed fits are reported, not raised.

    The model on A is fitted once; its log-likelihood is the base of every
    drop, and a failure there raises. For logistic and Cox regression all
    candidates m are then fitted in one batched Newton solve over the stack
    of designs A u {m} (``[1, X_A, x_m]``, or ``[X_A, x_m]`` in time order),
    each started from the base coefficients with 0 for x_m: at that start
    every candidate fit has the base fit's likelihood, so it only climbs
    from there. Gaussian candidates are refitted one by one by least
    squares. A candidate whose fit fails is left out of the drops and
    reported as ``"fit failed for candidate m: <error>"``.
    """
    fit, problem = _family(family)
    A = [int(a) for a in A]
    base = fit(data, A)
    candidates = [m for m in range(data.p) if m not in A]
    if problem is None:
        logliks = []
        for m in candidates:
            try:
                logliks.append(fit(data, A + [m]).loglik)
            except SingularDesignError as exc:
                logliks.append(exc)
    else:
        logliks = _candidate_logliks(problem(data, A), base, candidates)
    drops: dict[int, float] = {}
    failures: list[str] = []
    for m, ll in zip(candidates, logliks):
        if isinstance(ll, SigtestError):
            failures.append(f"fit failed for candidate {m}: {ll}")
        else:
            drops[m] = max(2.0 * (ll - base.loglik), 0.0)
    return drops, failures


def _candidate_logliks(problem: _Problem, base: FitResult,
                       candidates: list[int]) -> list[float | SigtestError]:
    """Log-likelihood of the problem's design plus each candidate column, or its error."""
    n, d = problem.design.shape
    Z = np.empty((len(candidates), n, d + 1))
    Z[:, :, :d] = problem.design
    Z[:, :, d] = problem.columns[:, candidates].T
    beta0 = np.zeros((len(candidates), d + 1))
    beta0[:, :d] = base.coefficients
    _beta, ll, _iterations, errors = _newton_stack(problem.objective, Z, beta0, problem.what)
    return [float(v) if e is None else e for v, e in zip(ll, errors)]


def best_candidate(drops: dict[int, float]) -> tuple[int, float]:
    """Candidate with the largest drop, and that drop.

    Drops within 1e-12 of the largest count as tied; the lowest index wins.
    """
    best = max(drops.values())
    return min(m for m, d in drops.items() if d >= best - 1e-12), best


def gumbel_test_glm(family: str, data, A: Sequence[int],
                    alpha: float = 0.05) -> TestOutcome:
    """Extreme-value test of the best remaining candidate by likelihood ratio.

    The statistic is the maximal drop minus the centering for the number of
    remaining candidates. Candidates whose fit fails are excluded with a
    warning; if more than 10% fail the maximum is unreliable and the test
    aborts.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    A = [int(a) for a in A]
    m_remaining = data.p - len(A)
    if m_remaining < 3:
        raise TooFewRemainingError(
            f"need at least 3 remaining candidates, got {m_remaining}")
    drops, failures = lrt_drops_all(family, data, A)
    if len(failures) > 0.10 * m_remaining or not drops:
        raise UnreliableMaxError(
            f"{len(failures)} of {m_remaining} candidate fits failed; "
            "maximum statistic unreliable")
    j, best = best_candidate(drops)
    corr = gumbel_correction(m_remaining)
    stat = best - corr
    p_value = gumbel_sf(stat)
    return TestOutcome(kind="gumbel_glm", k=len(A) + 1, statistic=float(stat),
                       p_value=float(p_value), alpha=float(alpha),
                       reject=bool(p_value <= alpha), A=tuple(A), j=j,
                       correction=float(corr), conservative=False,
                       warnings=tuple(failures))
