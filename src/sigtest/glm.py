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
    """(a Z) Z' - C C' for a design Z (d, n) or each design of a stack (c, d, n)."""
    return (a[..., None, :] * Z) @ Z.swapaxes(-1, -2) - C @ C.swapaxes(-1, -2)


def _shared_start(objective, design: np.ndarray, columns: np.ndarray, base: np.ndarray):
    """Log-likelihood, gradient and information of every model [design, x_m]
    at (base, 0), from the one evaluation at base @ design they share: the
    design's block once, the cross blocks from one (c, n) x (n, d) product,
    in O(n c d + n d^2) with no Gram matrix of [design, columns]."""
    ll, r, a, center = objective((base @ design)[None])
    r, a = r[0], a[0]
    cd, cx = center(design, 0), center(columns, 0)
    c, d = len(columns), len(design)
    grad = np.empty((c, d + 1))
    grad[:, :d], grad[:, d] = design @ r, columns @ r
    info = np.empty((c, d + 1, d + 1))
    info[:, :d, :d] = _information(design, a, cd)
    info[:, :d, d] = info[:, d, :d] = (a * columns) @ design.T - cx @ cd.T
    info[:, d, d] = columns**2 @ a - (cx**2).sum(axis=1)
    return np.full(c, ll[0]), grad, info


# Far along a diverging direction the Cox risk-set sums can underflow; such
# rows are rejected by the line search or fail alone, so numpy stays quiet.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_stack(objective, design: np.ndarray, columns: np.ndarray, base: np.ndarray,
                  what: str, errors: Sequence[SigtestError | None]):
    """Damped Newton ascent on the c models [design, columns[m]], each
    started from ``base`` on ``design`` (d, n) and 0 on its own column,
    observations last; a row whose rank check failed (``errors[m]``, else
    None) is not fitted.

    ``objective(eta)`` maps a (c, n) stack of linear predictors to the pieces
    ``(loglik, r, a, center)`` of ``_Problem``; a design Z of the stack has
    gradient Z r and information (a Z) Z' - C C', C = ``center(Z, rows)``
    (for Cox, sqrt(m_k) S1_k / D_k at each position k). All rows start from
    one evaluation at ``base @ design`` (``_shared_start``); then only rows
    that accepted their step and go on form the information, with which a
    row's step solves ``info @ step = grad``. Each row keeps the rules of a
    single fit under its own mask: convergence once the gradient norm is
    below GRAD_TOL (at the start or an accepted step), and step halving until
    the log-likelihood falls by no more than round-off, 1e-12 * max(1, |ll|):
    at round h <= MAX_HALVINGS every pending row tries its coefficients plus
    0.5**h times its step. A row that accepts a step is judged at once: first
    SeparationError once the coefficient norm passes DIVERGENCE_NORM, then
    convergence, with the steps taken as its iterations. ConvergenceError
    follows a singular information matrix, a failed line search or MAX_ITER
    steps. A failed row stops with 0 iterations; the others go on unchanged.

    Returns ``(beta, loglik, iterations, errors)``, where ``errors[i]`` is the
    exception a fit of row i alone raises, or None when the row converged.
    """
    (d, n), c = design.shape, len(columns)
    Z = np.empty((c, d + 1, n))
    Z[:, :d], Z[:, d] = design, columns
    beta = np.zeros((c, d + 1))
    beta[:, :d] = base
    errors = list(errors)
    iterations = np.zeros(c, dtype=int)
    ll, grad, info = _shared_start(objective, design, columns, base)
    live = np.array([e is None for e in errors], bool) & ~(np.linalg.norm(grad, axis=1) < GRAD_TOL)

    def fail(rows, error, message):
        for i in rows:
            errors[i] = error(f"{what}: {message}")
        live[rows] = False

    for it in range(1, MAX_ITER + 1):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        step, singular = _solve_rows(info[rows], grad[rows])
        fail(rows[singular], ConvergenceError, "singular information matrix")
        rows, step = rows[~singular], step[~singular]
        for h in range(MAX_HALVINGS + 1):
            if rows.size == 0:
                break
            Zs = Z if rows.size == c else Z[rows]
            cand = beta[rows] + 0.5**h * step
            ll_new, r, a, center = objective((cand[:, None] @ Zs)[:, 0])
            ok = np.isfinite(ll_new) & (ll_new >= ll[rows] - 1e-12 * np.maximum(1.0, abs(ll[rows])))
            g = (Zs @ r[:, :, None])[:, :, 0]
            beta[rows[ok]], ll[rows[ok]], grad[rows[ok]] = cand[ok], ll_new[ok], g[ok]
            fail(rows[ok & (np.linalg.norm(cand, axis=1) > DIVERGENCE_NORM)], SeparationError,
                 "coefficients diverging, likelihood unbounded")
            norm, going = np.linalg.norm(g, axis=1), ok & live[rows]
            done = rows[going & (norm < GRAD_TOL)]
            iterations[done], live[done] = it, False
            # A row that has converged or failed never uses its information.
            more = np.flatnonzero(going & (norm >= GRAD_TOL))
            Zm = Zs if more.size == rows.size else Zs[more]
            info[rows[more]] = _information(Zm, a[more], center(Zm, more))
            rows, step = rows[~ok], step[~ok]
        fail(rows, ConvergenceError, "step halving failed to improve the likelihood")
    fail(np.flatnonzero(live), ConvergenceError, f"no convergence after {MAX_ITER} iterations")
    return beta, ll, iterations, errors


class _Problem(NamedTuple):
    """A family's model, with rows in the order its objective needs, and the
    fit of the model on A = [] (the lead columns alone) in closed form.

    At a stack of linear predictors (c, n) the objective gives the
    log-likelihood, a residual r and weights a, and center(Z, rows): a design
    Z (d, n), observations last, has gradient Z r and information (a Z) Z' -
    C C' with C = center(Z, rows). C is empty for logistic. For Cox, with rows
    latest first, C_k = sqrt(m_k) S1_k / D_k at each position k, where m_k
    events have the risk set 0..k and S1_k, D_k sum w Z and w = e^eta on it."""

    lead: np.ndarray  # (0, n) or (1, n): the columns every model has (the intercept)
    columns: np.ndarray  # (p, n): every column of X
    objective: Callable  # eta (c, n) -> loglik, r, a, center, as _newton_stack reads them
    empty: tuple[np.ndarray, float]  # coefficients and log-likelihood of the model on A = []
    family: str  # "logistic" or "cox"

    @property
    def what(self) -> str:
        """What a fit of this problem is called in its error messages."""
        return f"{self.family} fit"

    def design(self, M: list[int]) -> np.ndarray:
        """The (d, n) design of the model on M, lead columns first."""
        return np.vstack([self.lead, self.columns[M]])


def _logistic_problem(data: BinaryDataset) -> _Problem:
    y = data.y

    def objective(eta):
        # log(1 + e^eta) and the fitted probabilities from e^-|eta|, which cannot overflow.
        e = np.exp(-np.abs(eta))
        ll = eta @ y - (np.maximum(eta, 0.0) + np.log1p(e)).sum(axis=1)
        prob = np.where(eta >= 0.0, 1.0, e) / (1.0 + e)
        return ll, y - prob, prob * (1.0 - prob), lambda X, rows: X[..., :0]  # C C' = 0

    # With an intercept the maximum fits p = k/n to every observation, for
    # k ones (0 < k < n in a BinaryDataset); with no parameters, p = 1/2.
    n, k = data.n, float(y.sum())
    empty = ((np.array([math.log(k / (n - k))]),
              k * math.log(k / n) + (n - k) * math.log((n - k) / n))
             if data.include_intercept else (np.zeros(0), -n * math.log(2.0)))
    return _Problem(np.ones((int(data.include_intercept), n)), data.X.T.copy(), objective,
                    empty, "logistic")


def _cox_problem(data: SurvivalDataset) -> _Problem:
    # Rows latest first (the stable ascending sort, reversed), so the risk set
    # of every event is a prefix: positions 0..k, k the last sharing its time.
    order = np.argsort(data.time, kind="stable")[::-1]
    time, status = data.time[order], data.status[order]
    # Each event's risk-set size k + 1, latest first: m_k events have the risk set 0..k.
    size = np.searchsorted(-time, -time[status == 1.0], side="right")
    m = np.bincount(size - 1, minlength=data.n).astype(float)
    root, idle = np.sqrt(m), (m == 0.0).astype(float)

    def objective(eta):
        shift = eta.max(axis=1, keepdims=True)
        w = np.exp(eta - shift)
        # Prefix sums D_k of w over each risk set. Where m_k = 0, D_k only
        # meets a factor m_k; adding 1 there keeps an underflowed D_k from 0/0.
        D = np.cumsum(w, axis=1) + idle
        ll = eta @ status - (np.log(D) + shift) @ m
        # The gradient sums x_e - C_e and the information S2_k / D_k - C_e C_e'
        # over the events e, with k where e's risk set ends, C_e = S1_k / D_k
        # and S1, S2 the prefix sums of w x and w x x'. Swapping the sums gives
        # r = status - c w and a = c w, where c_i = sum over k >= i of m_k / D_k:
        # one suffix sum, no (n, d, d) array. Tied events add m_k equal terms.
        cw = w * np.cumsum((m / D)[:, ::-1], axis=1)[:, ::-1]

        def center(X, rows):
            """sqrt(m_k) S1_k / D_k of each row of X, a design's column: C C' sums C_e C_e'."""
            s1 = w[rows, None] * X
            np.cumsum(s1, axis=-1, out=s1)
            return np.multiply(s1, root / D[rows, None], out=s1)

        return ll, status - cw, cw, center

    return _Problem(np.empty((0, data.n)), data.X[order].T.copy(), objective,
                    (np.zeros(0), -float(np.log(size[::-1]).sum())), "cox")  # earliest event first


def _problem(data: BinaryDataset | SurvivalDataset) -> _Problem:
    """The logistic or Cox problem of a dataset, by its type."""
    if isinstance(data, BinaryDataset):
        return _logistic_problem(data)
    if isinstance(data, SurvivalDataset):
        return _cox_problem(data)
    raise ValueError("logistic or Cox regression needs a BinaryDataset or SurvivalDataset, "
                     f"not {type(data).__name__}")


class _Residuals:
    """Every column of X, as a row, with a model's columns (lead first)
    projected out in turn, twice each; and the model's triangular-factor
    diagonal, each added column's residual norm. O(n p) per added column."""

    def __init__(self, problem: _Problem, A: Sequence[int]):
        self.V, self.diag = problem.columns.copy(), []
        for x in problem.lead:
            self.add(x)
        for j in A:
            self.add(self.V[j])

    def add(self, x: np.ndarray):
        """Add to the model a column whose residual on it is x."""
        r = float(np.linalg.norm(x))
        self.diag.append(r)
        q = x / (r or 1.0)  # a residual of norm 0 is 0 and projects nothing out
        for _ in range(2):
            self.V -= np.outer(self.V @ q, q)

    def errors(self, candidates: list[int], what: str) -> list[SigtestError | None]:
        """ActiveQR.add's rule for the model plus each candidate, an error or None:
        it fails with n model columns or more, when the candidate's residual
        norm r is 0, or when min(diag, r) < RANK_TOL max(diag, r)."""
        if len(self.diag) >= self.V.shape[1]:
            return [SingularDesignError(f"{what}: more columns than rows") for _ in candidates]
        last = np.linalg.norm(self.V[candidates], axis=1)
        lo, hi = min(self.diag, default=np.inf), max(self.diag, default=0.0)
        deficient = (last == 0.0) | (np.minimum(lo, last) < RANK_TOL * np.maximum(hi, last))
        return [SingularDesignError(f"{what}: design is rank deficient") if bad else None
                for bad in deficient]


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
        problem.objective, design[:-1], design[-1:], np.zeros(len(design) - 1), problem.what,
        _Residuals(problem, M[:-1]).errors(M[-1:], problem.what))
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
    base, problem = glm_fit(data, A), _problem(data)
    _fits, logliks, failures = _candidate_fits(problem, list(base.subset), base.coefficients,
                                               _Residuals(problem, base.subset))
    return np.maximum(2.0 * (logliks - base.loglik), 0.0), failures


def _candidate_fits(problem: _Problem, A: list[int], base: np.ndarray, residuals: _Residuals):
    """Fit the model on A plus each column m outside A that passes the rank
    check of ``residuals`` on A, from the base coefficients and 0. Returns
    the coefficients and log-likelihoods of these fits indexed by m, NaN for
    m in A and where a fit failed, and a failure note per failed fit."""
    p = len(problem.columns)
    candidates = [m for m in range(p) if m not in A]
    design = problem.design(A)
    fits, logliks = np.full((p, len(design) + 1), np.nan), np.full(p, np.nan)
    fits[candidates], logliks[candidates], _iterations, errors = _newton_stack(
        problem.objective, design, problem.columns[candidates], base, problem.what,
        residuals.errors(candidates, problem.what))
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
    residuals = _Residuals(problem, A)
    steps: list[SelectionStep] = []
    while len(steps) < (data.p if max_steps is None else max_steps):
        if A:  # the last pick joins the residuals' model only when another step follows
            residuals.add(residuals.V[A[-1]])
        fits, logliks, failures = _candidate_fits(problem, A, beta, residuals)
        drops = np.maximum(2.0 * (logliks - loglik), 0.0)
        j = None if np.isnan(drops).all() else best_candidate(drops)[0]
        steps.append(SelectionStep(k=len(steps) + 1, A=tuple(A), j=j, drops=drops,
                                   selector=problem.family, failures=failures))
        if j is None:
            break
        A.append(j)
        beta, loglik = fits[j], logliks[j]
    return steps
