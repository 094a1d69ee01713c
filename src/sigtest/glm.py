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
)
from .linmodel import RANK_TOL, _Shape, _check_subset
from .selection import SelectionStep, best_candidate

MAX_ITER = 100
GRAD_TOL = 1e-8
DIVERGENCE_NORM = 1e3
MAX_HALVINGS = 20


@dataclass(frozen=True, eq=False)
class BinaryDataset(_Shape):
    """Design matrix and 0/1 response for logistic regression."""

    X: np.ndarray
    y: np.ndarray
    include_intercept: bool = True
    _arrays = ("X", "y")

    def _check(self, X, y):
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with y of length n")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("y must contain only 0 and 1")
        if y.min() == y.max():
            raise DegenerateResponseError("y must contain at least one 0 and one 1")


@dataclass(frozen=True, eq=False)
class SurvivalDataset(_Shape):
    """Design matrix, follow-up times, and event indicators for Cox regression."""

    X: np.ndarray
    time: np.ndarray
    status: np.ndarray
    _arrays = ("X", "time", "status")

    def _check(self, X, time, status):
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


def _rank_errors(Z: np.ndarray, what: str) -> list[SigtestError | None]:
    """Per-row rank check of a (c, n, d) stack of designs that share their
    first d - 1 columns: row i's triangular factor has the shared columns'
    diagonal, from one QR for the stack, then the norm of row i's last
    column after projecting them out (twice, as in ActiveQR.add)."""
    c, n, d = Z.shape
    if d > n:
        return [SingularDesignError(f"{what}: more columns than rows") for _ in range(c)]
    Q, R = np.linalg.qr(Z[0, :, :-1])
    v = Z[:, :, -1].T.copy()
    for _ in range(2):
        v -= Q @ (Q.T @ v)
    diag = np.column_stack([np.tile(np.abs(np.diagonal(R)), (c, 1)), np.linalg.norm(v, axis=0)])
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

    ``Z`` is the (c, n, d) stack of designs, which share their first d - 1
    columns, and ``beta0`` the (c, d) starting points. ``objective(Z, beta)``
    returns the log-likelihood (c,), gradient (c, d) and information matrix
    (c, d, d) of the rows it is given; the information matrix is the negated
    Hessian, so a row's ascent step solves ``info @ step = grad``. Each row
    keeps the rules of a single fit under its own mask: the rank check,
    convergence once the gradient norm is below GRAD_TOL, step halving with
    its own scale (at most MAX_HALVINGS times), SeparationError once the
    coefficient norm passes DIVERGENCE_NORM, and ConvergenceError on a
    singular information matrix, a failed line search or MAX_ITER
    iterations. A failed row stops; the others go on unchanged.

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
    """A family's model, with rows in the order its objective needs, and the
    fit of the model on A = [] (the lead columns alone) in closed form."""

    lead: np.ndarray  # (n, 0) or (n, 1): the columns every model has (the intercept)
    columns: np.ndarray  # (n, p): every column of X
    objective: Callable  # (Z (c, n, d), beta (c, d)) -> loglik, gradient, information
    empty: tuple[np.ndarray, float]  # coefficients and log-likelihood of the model on A = []
    family: str  # "logistic" or "cox"

    @property
    def what(self) -> str:
        """What a fit of this problem is called in its error messages."""
        return f"{self.family} fit"

    def design(self, M: list[int]) -> np.ndarray:
        """The (n, d) design of the model on M, lead columns first."""
        return np.hstack([self.lead, self.columns[:, M]])


def _logistic_problem(data: BinaryDataset) -> _Problem:
    y = data.y

    def objective(Z, beta):
        eta = (Z @ beta[:, :, None])[:, :, 0]
        # log(1 + e^eta) and the fitted probabilities from e^-|eta|, which cannot overflow.
        e = np.exp(-np.abs(eta))
        ll = eta @ y - (np.maximum(eta, 0.0) + np.log1p(e)).sum(axis=1)
        prob = np.where(eta >= 0.0, 1.0, e) / (1.0 + e)
        Zt = Z.transpose(0, 2, 1)
        grad = (Zt @ (y - prob)[:, :, None])[:, :, 0]
        w = prob * (1.0 - prob)
        info = Zt @ (w[:, :, None] * Z)
        return ll, grad, info

    # With an intercept the maximum fits p = k/n to every observation, for
    # k ones (0 < k < n in a BinaryDataset); with no parameters, p = 1/2.
    n, k = data.n, float(y.sum())
    empty = ((np.array([math.log(k / (n - k))]),
              k * math.log(k / n) + (n - k) * math.log((n - k) / n))
             if data.include_intercept else (np.zeros(0), -n * math.log(2.0)))
    return _Problem(np.ones((n, int(data.include_intercept))), data.X, objective, empty,
                    "logistic")


def _fit(problem: _Problem, M: list[int]) -> FitResult:
    """Fit the model on M from zero, as a stack of one; the model on
    M = [] is the problem's closed-form fit, with no Newton solve."""
    if not M:
        coefficients, loglik = problem.empty
        return FitResult(subset=(), coefficients=coefficients, loglik=loglik,
                         converged=True, iterations=0)
    design = problem.design(M)
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
    return _fit(_logistic_problem(data), _check_subset(data, M))


def _cox_problem(data: SurvivalDataset) -> _Problem:
    # Rows sorted by follow-up time. The risk set of an event at position i
    # is positions first(i)..n-1, first(i) the first index sharing its time.
    order = np.argsort(data.time, kind="stable")
    time = data.time[order]
    event_pos = np.flatnonzero(data.status[order] == 1.0)
    first = np.searchsorted(time, time[event_pos], side="left")
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

    return _Problem(np.empty((data.n, 0)), data.X[order], objective,
                    (np.zeros(0), -float(np.log(data.n - first).sum())), "cox")


def cox_fit(data: SurvivalDataset, M: Sequence[int]) -> FitResult:
    """Maximize the partial log-likelihood on columns M by damped Newton.

    Ties are handled by pooling tied events over the same risk set.
    """
    return _fit(_cox_problem(data), _check_subset(data, M))


def _problem(data: BinaryDataset | SurvivalDataset) -> _Problem:
    """The logistic or Cox problem of a dataset, by its type."""
    if isinstance(data, BinaryDataset):
        return _logistic_problem(data)
    if isinstance(data, SurvivalDataset):
        return _cox_problem(data)
    raise ValueError(f"likelihood-ratio drops need logistic or cox data, not {type(data).__name__}")


def lrt_drops_all(data: BinaryDataset | SurvivalDataset,
                  A: Sequence[int]) -> tuple[dict[int, float], list[str]]:
    """Drop of every candidate outside A; failed fits are reported, not raised.

    Logistic or Cox regression, by the type of ``data``. The model on A is
    fitted once, from zero (in closed form for A = []); its log-likelihood is
    the base of every drop, and a failure there raises. All candidates m are
    then fitted in one batched Newton solve over the stack of designs A u {m}
    (``[1, X_A, x_m]``, or ``[X_A, x_m]`` in time order), each started from
    the base coefficients with 0 for x_m: at that start every candidate fit has the base fit's
    likelihood, so it only climbs from there. A candidate whose fit fails is
    left out of the drops and reported as ``"fit failed for candidate m:
    <error>"``.
    """
    problem = _problem(data)
    A = _check_subset(data, A)
    base = _fit(problem, A)
    candidates = [m for m in range(data.p) if m not in A]
    logliks = _candidate_fits(problem, A, base.coefficients, candidates)[1]
    return _drops(candidates, logliks, base.loglik)


def _candidate_fits(problem: _Problem, A: list[int], base: np.ndarray, candidates: list[int]):
    """Coefficients of the model on A plus each candidate column, each fit
    started from the base coefficients and 0, and per candidate its
    log-likelihood or its error."""
    design = problem.design(A)
    n, d = design.shape
    Z = np.empty((len(candidates), n, d + 1))
    Z[:, :, :d] = design
    Z[:, :, d] = problem.columns[:, candidates].T
    beta0 = np.zeros((len(candidates), d + 1))
    beta0[:, :d] = base
    beta, ll, _iterations, errors = _newton_stack(problem.objective, Z, beta0, problem.what)
    return beta, [float(v) if e is None else e for v, e in zip(ll, errors)]


def _drops(candidates, logliks, base_ll: float) -> tuple[dict[int, float], list[str]]:
    """Drops of the candidates whose fit converged, and failure notes for the rest."""
    drops: dict[int, float] = {}
    failures: list[str] = []
    for m, ll in zip(candidates, logliks):
        if isinstance(ll, SigtestError):
            failures.append(f"fit failed for candidate {m}: {ll}")
        else:
            drops[m] = max(2.0 * (ll - base_ll), 0.0)
    return drops, failures


def lrt_path(data: BinaryDataset | SurvivalDataset,
             max_steps: int | None = None) -> list[SelectionStep]:
    """Greedy forward selection by likelihood ratio, for logistic or Cox
    regression by the type of ``data``.

    Step k holds the model A of the first k - 1 picks with the drops and
    failed fits that ``lrt_drops_all(data, A)`` reports, and selects
    ``best_candidate(drops)``, which A then gains. The path ends after
    ``max_steps`` steps (default p), or after a step where every candidate
    fit failed, whose j is None. No model is fitted from zero: the base on
    A = [] is the problem's closed-form fit, and each later base is the
    previous step's winning fit, which a refit finds wherever the maximum is
    finite.
    """
    problem = _problem(data)
    if max_steps is None:
        max_steps = data.p
    elif not 0 <= max_steps <= data.p:
        raise ValueError(f"max_steps={max_steps} must lie in [0, p={data.p}]")
    A: list[int] = []
    beta, loglik = problem.empty
    steps: list[SelectionStep] = []
    while len(steps) < max_steps:
        candidates = [m for m in range(data.p) if m not in A]
        fits, logliks = _candidate_fits(problem, A, beta, candidates)
        drops, failures = _drops(candidates, logliks, loglik)
        j = best_candidate(drops)[0] if drops else None
        steps.append(SelectionStep(k=len(steps) + 1, A=tuple(A), j=j, drops=drops,
                                   selector=problem.family, failures=failures))
        if j is None:
            break
        i = candidates.index(j)
        A.append(j)
        beta, loglik = fits[i], logliks[i]
    return steps
