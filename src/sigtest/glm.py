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
from .linmodel import RANK_TOL, _Shape, _check_max_steps, _check_subset
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

    def _check(self):
        if not np.all(np.isin(self.y, (0.0, 1.0))):
            raise ValueError("y must contain only 0 and 1")
        if self.y.min() == self.y.max():
            raise DegenerateResponseError("y must contain at least one 0 and one 1")


@dataclass(frozen=True, eq=False)
class SurvivalDataset(_Shape):
    """Design matrix, follow-up times, and event indicators for Cox regression."""

    X: np.ndarray
    time: np.ndarray
    status: np.ndarray
    _arrays = ("X", "time", "status")

    def _check(self):
        if np.any(self.time <= 0):
            raise ValueError("all times must be positive")
        if not np.all(np.isin(self.status, (0.0, 1.0))):
            raise ValueError("status must contain only 0 and 1")
        if self.status.sum() < 1:
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
    iterations: int


def _rank_errors(design: np.ndarray, columns: np.ndarray, what: str) -> list[SigtestError | None]:
    """Rank check of each model [design, columns[:, i]] by ActiveQR.add's rule:
    its triangular factor has the design's diagonal, from one QR, then the
    norm r of column i after projecting the design out (twice); it fails when
    r is 0 or the least diagonal entry is below RANK_TOL times the largest."""
    (n, d), c = design.shape, columns.shape[1]
    if d >= n:
        return [SingularDesignError(f"{what}: more columns than rows") for _ in range(c)]
    Q, R = np.linalg.qr(design)
    v = columns.copy()
    for _ in range(2):
        v -= Q @ (Q.T @ v)
    shared, last = np.abs(np.diagonal(R)), np.linalg.norm(v, axis=0)
    deficient = (last == 0.0) | (np.minimum(shared.min(initial=np.inf), last)
                                 < RANK_TOL * np.maximum(shared.max(initial=0.0), last))
    return [SingularDesignError(f"{what}: design is rank deficient") if bad else None
            for bad in deficient]


def _solve_rows(info: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps ``info[i] @ step[i] = grad[i]`` and a mask of singular rows."""
    try:
        return np.linalg.solve(info, grad[:, :, None])[:, :, 0], np.zeros(len(grad), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    # A singular row fails the stacked solve; slogdet runs solve's getrf, so sign 0 marks those rows.
    singular = np.linalg.slogdet(info)[0] == 0
    step = np.zeros_like(grad)
    step[~singular] = np.linalg.solve(info[~singular], grad[~singular, :, None])[:, :, 0]
    return step, singular


def _information(Z: np.ndarray, a: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Z'(a Z) - C'C for a design Z (n, d) or each design of a stack (c, n, d)."""
    return Z.swapaxes(-1, -2) @ (a[..., None] * Z) - C.swapaxes(-1, -2) @ C


def _shared_start(objective, design: np.ndarray, columns: np.ndarray, base: np.ndarray):
    """Log-likelihood, gradient and information of every model [design, x_m]
    at (base, 0), from the one evaluation at design @ base they share: the
    design's block once, the cross blocks from one (d, n) x (n, c) product,
    in O(n c d + n d^2) with no Gram matrix of [design, columns]."""
    ll, r, a, center = objective((design @ base)[None])
    r, a = r[0], a[0]
    cd, cx = center(design, 0), center(columns, 0)
    c, d = columns.shape[1], design.shape[1]
    grad = np.empty((c, d + 1))
    grad[:, :d], grad[:, d] = design.T @ r, columns.T @ r
    info = np.empty((c, d + 1, d + 1))
    info[:, :d, :d] = _information(design, a, cd)
    info[:, :d, d] = info[:, d, :d] = columns.T @ (a[:, None] * design) - cx.T @ cd
    info[:, d, d] = a @ columns**2 - (cx**2).sum(axis=0)
    return np.full(c, ll[0]), grad, info


# Far along a diverging direction the Cox risk-set sums can underflow; such
# rows are rejected by the line search or fail alone, so numpy stays quiet.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_stack(objective, design: np.ndarray, columns: np.ndarray, base: np.ndarray,
                  what: str):
    """Damped Newton ascent on the c models [design, columns[:, m]], each
    started from ``base`` on ``design`` (n, d) and 0 on its own column.

    ``objective(eta)`` maps a (c, n) stack of linear predictors to the pieces
    ``(loglik, r, a, center)`` of ``_Problem``; a design Z of the stack has
    gradient Z'r and information Z'(a Z) - C'C, C = ``center(Z, rows)``. All
    rows start from one evaluation at ``design @ base`` (``_shared_start``);
    then only rows that accepted their step and have not converged form the
    information, with which a row's step solves ``info @ step = grad``.
    Each row keeps the rules of a single fit under its own mask: the rank
    check, convergence once the gradient norm is below GRAD_TOL, step halving
    with its own scale (at most MAX_HALVINGS times) until the log-likelihood
    falls by no more than round-off, 1e-12 * max(1, |ll|), SeparationError
    once the coefficient norm passes DIVERGENCE_NORM, and ConvergenceError on
    a singular information matrix, a failed line search or MAX_ITER
    iterations. A failed row stops; the others go on unchanged.

    Returns ``(beta, loglik, iterations, errors)``, where ``errors[i]`` is the
    exception a fit of row i alone raises, or None when the row converged.
    """
    (n, d), c = design.shape, columns.shape[1]
    Z = np.empty((c, n, d + 1))
    Z[:, :, :d] = design
    Z[:, :, d] = columns.T
    beta = np.zeros((c, d + 1))
    beta[:, :d] = base
    errors = _rank_errors(design, columns, what)
    live = np.array([e is None for e in errors], dtype=bool)
    iterations = np.zeros(c, dtype=int)
    ll, grad, info = _shared_start(objective, design, columns, base)

    def fail(rows, error, message):
        for i in rows:
            errors[i] = error(f"{what}: {message}")
        live[rows] = False

    for it in range(MAX_ITER + 1):
        rows = np.flatnonzero(live)
        done = np.linalg.norm(grad[rows], axis=1) < GRAD_TOL
        iterations[rows[done]] = it
        live[rows[done]] = False
        rows = rows[~done]
        if it == MAX_ITER:
            fail(rows, ConvergenceError, f"no convergence after {MAX_ITER} iterations")
        if rows.size == 0 or it == MAX_ITER:
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
            Zs = Z if sub.size == c else Z[sub]
            cand = beta[sub] + scale[pending, None] * step[pending]
            ll_new, r, a, center = objective((Zs @ cand[:, :, None])[:, :, 0])
            ok = np.isfinite(ll_new) & (ll_new >= ll[sub] - 1e-12 * np.maximum(1.0, abs(ll[sub])))
            g = (r[:, None] @ Zs)[:, 0]
            took = sub[ok]
            beta[took], ll[took], grad[took] = cand[ok], ll_new[ok], g[ok]
            # A row that has converged never uses its information.
            more = np.flatnonzero(ok & (np.linalg.norm(g, axis=1) >= GRAD_TOL))
            Zm = Zs if more.size == sub.size else Zs[more]
            info[sub[more]] = _information(Zm, a[more], center(Zm, more))
            pending = pending[~ok]
            scale[pending] *= 0.5
        fail(rows[pending], ConvergenceError, "step halving failed to improve the likelihood")
        moved = np.delete(rows, pending)
        fail(moved[np.linalg.norm(beta[moved], axis=1) > DIVERGENCE_NORM], SeparationError,
             "coefficients diverging; likelihood unbounded")
    return beta, ll, iterations, errors


class _Problem(NamedTuple):
    """A family's model, with rows in the order its objective needs, and the
    fit of the model on A = [] (the lead columns alone) in closed form.

    At a stack of linear predictors (c, n) the objective gives the
    log-likelihood, a residual r and weights a, and center(Z, rows): a design
    Z has gradient Z'r and information Z'(a Z) - C'C with C = center(Z, rows),
    none for logistic and the risk-set means of Z at each event for Cox."""

    lead: np.ndarray  # (n, 0) or (n, 1): the columns every model has (the intercept)
    columns: np.ndarray  # (n, p): every column of X
    objective: Callable  # eta (c, n) -> loglik, r, a, center, as _newton_stack reads them
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

    def objective(eta):
        # log(1 + e^eta) and the fitted probabilities from e^-|eta|, which cannot overflow.
        e = np.exp(-np.abs(eta))
        ll = eta @ y - (np.maximum(eta, 0.0) + np.log1p(e)).sum(axis=1)
        prob = np.where(eta >= 0.0, 1.0, e) / (1.0 + e)
        return ll, y - prob, prob * (1.0 - prob), lambda X, rows: X[..., :0, :]  # C'C = 0

    # With an intercept the maximum fits p = k/n to every observation, for
    # k ones (0 < k < n in a BinaryDataset); with no parameters, p = 1/2.
    n, k = data.n, float(y.sum())
    empty = ((np.array([math.log(k / (n - k))]),
              k * math.log(k / n) + (n - k) * math.log((n - k) / n))
             if data.include_intercept else (np.zeros(0), -n * math.log(2.0)))
    return _Problem(np.ones((n, int(data.include_intercept))), data.X, objective, empty,
                    "logistic")


def _cox_problem(data: SurvivalDataset) -> _Problem:
    # Rows sorted by follow-up time. The risk set of an event at position i
    # is positions first(i)..n-1, first(i) the first index sharing its time.
    order = np.argsort(data.time, kind="stable")
    time, status = data.time[order], data.status[order]
    event_pos = np.flatnonzero(status == 1.0)
    first = np.searchsorted(time, time[event_pos], side="left")
    # Number of events whose risk set starts at or before each position.
    starts = np.searchsorted(first, np.arange(data.n), side="right")

    def objective(eta):
        shift = eta.max(axis=1, keepdims=True)
        w = np.exp(eta - shift)
        # Suffix sums over the sorted order: sum of w from each position to the end.
        denom = np.cumsum(w[:, ::-1], axis=1)[:, ::-1][:, first]
        ll = eta[:, event_pos].sum(axis=1) - (np.log(denom) + shift).sum(axis=1)
        # The gradient sums x_e - C_e and the information S2(first_e) / denom_e
        # - C_e C_e' over the events e, with C_e = S1(first_e) / denom_e and S1,
        # S2 the suffix sums of w x and w x x'. Swapping the sums gives r =
        # status - c w and a = c w, where c_i sums 1/denom_e over the events
        # whose risk set starts at or before i: one prefix sum, no (n, d, d)
        # array. Tied events share first_e but each keeps its own 1/denom_e
        # term on both sides, so the identity is exact with ties.
        inv = np.concatenate([np.zeros((len(eta), 1)), np.cumsum(1.0 / denom, axis=1)], axis=1)
        cw = w * inv[:, starts]

        def center(X, rows):
            """C_e of the columns of X, per event: S1(first_e) / denom_e."""
            s1 = np.cumsum((w[rows, :, None] * X)[..., ::-1, :], axis=-2)[..., ::-1, :]
            return s1[..., first, :] / denom[rows, :, None]

        return ll, status - cw, cw, center

    return _Problem(np.empty((data.n, 0)), data.X[order], objective,
                    (np.zeros(0), -float(np.log(data.n - first).sum())), "cox")


def _problem(data: BinaryDataset | SurvivalDataset) -> _Problem:
    """The logistic or Cox problem of a dataset, by its type."""
    if isinstance(data, BinaryDataset):
        return _logistic_problem(data)
    if isinstance(data, SurvivalDataset):
        return _cox_problem(data)
    raise ValueError("logistic or Cox regression needs a BinaryDataset or SurvivalDataset, "
                     f"not {type(data).__name__}")


def glm_fit(data: BinaryDataset | SurvivalDataset, M: Sequence[int]) -> FitResult:
    """Maximize the log-likelihood on columns M by damped Newton from zero, as
    a stack of one: logistic regression (with the dataset's intercept) for a
    ``BinaryDataset``, Cox regression (tied events pooled over one risk set)
    for a ``SurvivalDataset``. The model on M = [] is the closed-form fit."""
    problem, M = _problem(data), _check_subset(data, M)
    if not M:
        return FitResult((), *problem.empty, iterations=0)
    design = problem.design(M)
    beta, ll, iterations, errors = _newton_stack(
        problem.objective, design[:, :-1], design[:, -1:], np.zeros(design.shape[1] - 1),
        problem.what)
    if errors[0] is not None:
        raise errors[0]
    return FitResult(subset=tuple(M), coefficients=beta[0], loglik=float(ll[0]),
                     iterations=int(iterations[0]))


def lrt_drops_all(data: BinaryDataset | SurvivalDataset,
                  A: Sequence[int]) -> tuple[np.ndarray, list[str]]:
    """Drop of every candidate outside A; failed fits are reported, not raised.

    Logistic or Cox regression, by the type of ``data``. The model on A is
    fitted once, from zero (in closed form for A = []); its log-likelihood is
    the base of every drop, and a failure there raises. All candidates m are
    then fitted in one batched Newton solve over the stack of designs A u {m}
    (``[1, X_A, x_m]``, or ``[X_A, x_m]`` in time order), each started from
    the base coefficients with 0 for x_m: at that start every candidate fit has the base fit's
    likelihood, so it only climbs from there, and one evaluation at the
    base's linear predictor gives every candidate's starting gradient and
    information. The drops are an array of
    length p, NaN on A and on a candidate whose fit failed, which is
    reported as ``"fit failed for candidate m: <error>"``.
    """
    base = glm_fit(data, A)
    _fits, logliks, failures = _candidate_fits(_problem(data), list(base.subset),
                                               base.coefficients)
    return np.maximum(2.0 * (logliks - base.loglik), 0.0), failures


def _candidate_fits(problem: _Problem, A: list[int], base: np.ndarray):
    """Fit the model on A plus each column m outside A, each fit started
    from the base coefficients and 0. Returns the coefficients and the
    log-likelihoods of these fits indexed by m, NaN for m in A and where a
    fit failed, and a failure note per failed fit."""
    p = problem.columns.shape[1]
    candidates = [m for m in range(p) if m not in A]
    design = problem.design(A)
    fits, logliks = np.full((p, design.shape[1] + 1), np.nan), np.full(p, np.nan)
    fits[candidates], logliks[candidates], _iterations, errors = _newton_stack(
        problem.objective, design, problem.columns[:, candidates], base, problem.what)
    failed = [(m, e) for m, e in zip(candidates, errors) if e is not None]
    logliks[[m for m, _e in failed]] = np.nan
    return fits, logliks, [f"fit failed for candidate {m}: {e}" for m, e in failed]


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
    _check_max_steps(max_steps, "p", data.p)
    A: list[int] = []
    beta, loglik = problem.empty
    steps: list[SelectionStep] = []
    while len(steps) < (data.p if max_steps is None else max_steps):
        fits, logliks, failures = _candidate_fits(problem, A, beta)
        drops = np.maximum(2.0 * (logliks - loglik), 0.0)
        j = None if np.isnan(drops).all() else best_candidate(drops)[0]
        steps.append(SelectionStep(k=len(steps) + 1, A=tuple(A), j=j, drops=drops,
                                   selector=problem.family, failures=failures))
        if j is None:
            break
        A.append(j)
        beta, loglik = fits[j], logliks[j]
    return steps
