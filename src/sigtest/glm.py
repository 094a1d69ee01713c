"""Likelihood-based analogue of the test for logistic and Cox regression.

Per-variable likelihood-ratio drops replace the scaled RSS drops of the
linear model; the extreme-value centering and Gumbel reference apply
unchanged to the maximal drop.
"""

from __future__ import annotations

import functools
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
from .linmodel import _Shape, _check_max_steps, _check_subset, _deficient
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


def _of_rows(V: np.ndarray, which: np.ndarray) -> np.ndarray:
    """V[which]: the row of each stack row's dataset (``which`` ascending), or
    with one dataset its row alone, which broadcasts over the stack."""
    return V[which[0]] if which[0] == which[-1] else V[which]


def _dot_rows(eta: np.ndarray, which: np.ndarray, V: np.ndarray) -> np.ndarray:
    """eta[i] @ V[which[i]] (``which`` ascending), one product per dataset of
    its rows alone, as a stack of that dataset's rows alone computes it."""
    if which[0] == which[-1]:
        return eta @ V[which[0]]
    cuts = np.flatnonzero(np.diff(which)) + 1
    return np.concatenate([x @ V[w[0]] for x, w in zip(np.split(eta, cuts),
                                                       np.split(which, cuts))])


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1), bit for bit, without its dispatch."""
    return np.sqrt((x * x).sum(axis=1))


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


def _shared_start(objective, designs: np.ndarray, columns: np.ndarray, bases: np.ndarray):
    """Log-likelihood, gradient and information of every model [designs[b],
    x], x a row of columns[b], at (bases[b], 0), from the one evaluation at
    bases[b] @ designs[b] they share: each design's block once, the cross
    blocks from one (q, n) x (n, d) product per dataset, in O(n q d + n d^2)
    with no Gram matrix of [design, columns]. Rows are dataset by dataset."""
    (B, q, _n), d = columns.shape, designs.shape[1]
    ll, r, a, center = objective((bases[:, None] @ designs)[:, 0], np.arange(B))
    cd, cx = center(designs, slice(None)), center(columns, slice(None))
    grad = np.empty((B, q, d + 1))
    grad[..., :d] = (designs @ r[..., None])[:, None, :, 0]
    grad[..., d] = (columns @ r[..., None])[..., 0]
    info = np.empty((B, q, d + 1, d + 1))
    info[:, :, :d, :d] = _information(designs, a, cd)[:, None]
    info[..., :d, d] = info[..., d, :d] = ((a[:, None] * columns) @ designs.swapaxes(1, 2)
                                           - cx @ cd.swapaxes(1, 2))
    info[..., d, d] = (columns**2 @ a[..., None])[..., 0] - (cx**2).sum(axis=2)
    return np.repeat(ll, q), grad.reshape(B * q, d + 1), info.reshape(B * q, d + 1, d + 1)


# Far along a diverging direction the Cox risk-set sums can underflow; such
# rows are rejected by the line search or fail alone, so numpy stays quiet.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_stack(objective, designs: np.ndarray, columns: np.ndarray, bases: np.ndarray,
                  what: str, errors: Sequence[SigtestError | None]):
    """Damped Newton ascent on the c = B q models [designs[b], columns[b, m]]
    of B datasets of one family and shape, each started from ``bases[b]`` on
    ``designs[b]`` (d, n) and 0 on its own column, observations last. Rows
    run dataset by dataset: row i = b q + m. A row whose rank check failed
    (``errors[i]``, else None) is not fitted.

    ``objective(eta, which)`` maps a (c, n) stack of linear predictors, row i
    of dataset ``which[i]``, to the pieces ``(loglik, r, a, center)`` of
    ``_Problem``; a design Z of the stack has gradient Z r and information
    (a Z) Z' - C C', C = ``center(Z, rows)`` (for Cox, sqrt(m_k) S1_k / D_k at
    each position k). Each row reads only its own dataset and design, and the
    objective sums over observations per dataset, so a dataset's rows fit as
    in a stack of their own. All rows start from one evaluation per
    dataset at ``bases[b] @ designs[b]`` (``_shared_start``); then only rows
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
    (B, q, n), d = columns.shape, designs.shape[1]
    c, which = B * q, np.repeat(np.arange(B), q)
    Z, beta = np.empty((B, q, d + 1, n)), np.zeros((B, q, d + 1))
    Z[:, :, :d], Z[:, :, d], beta[..., :d] = designs[:, None], columns, bases[:, None]
    Z, beta = Z.reshape(c, d + 1, n), beta.reshape(c, d + 1)
    errors = list(errors)
    iterations = np.zeros(c, dtype=int)
    ll, grad, info = _shared_start(objective, designs, columns, bases)
    live = np.array([e is None for e in errors], bool) & ~(_norms(grad) < GRAD_TOL)

    def fail(rows, error, message):
        if rows.size:
            for i in rows:
                errors[i] = error(f"{what}: {message}")
            live[rows] = False

    for it in range(1, MAX_ITER + 1):
        rows = live.nonzero()[0]
        if rows.size == 0:
            break
        step, singular = _solve_rows(info[rows], grad[rows])
        if singular.any():
            fail(rows[singular], ConvergenceError, "singular information matrix")
            rows, step = rows[~singular], step[~singular]
        for h in range(MAX_HALVINGS + 1):
            if rows.size == 0:
                break
            Zs, ws = (Z, which) if rows.size == c else (Z[rows], which[rows])
            cand = beta[rows] + 0.5**h * step
            ll_new, r, a, center = objective((cand[:, None] @ Zs)[:, 0], ws)
            ok = np.isfinite(ll_new) & (ll_new >= ll[rows] - 1e-12 * np.maximum(1.0, abs(ll[rows])))
            g = (Zs @ r[:, :, None])[:, :, 0]
            beta[rows[ok]], ll[rows[ok]], grad[rows[ok]] = cand[ok], ll_new[ok], g[ok]
            fail(rows[ok & (_norms(cand) > DIVERGENCE_NORM)], SeparationError,
                 "coefficients diverging, likelihood unbounded")
            norm, going = _norms(g), ok & live[rows]
            done = rows[going & (norm < GRAD_TOL)]
            iterations[done], live[done] = it, False
            # A row that has converged or failed never uses its information.
            more = (going & (norm >= GRAD_TOL)).nonzero()[0]
            Zm = Zs if more.size == rows.size else Zs[more]
            info[rows[more]] = _information(Zm, a[more], center(Zm, more))
            rows, step = rows[~ok], step[~ok]
        fail(rows, ConvergenceError, "step halving failed to improve the likelihood")
    fail(live.nonzero()[0], ConvergenceError, f"no convergence after {MAX_ITER} iterations")
    return beta, ll, iterations, errors


class _Problem(NamedTuple):
    """A family's model, with rows in the order its objective needs, and the
    fit of the model on A = [] (the lead columns alone) in closed form.

    ``objective(*data, eta, which)`` takes the ``data`` of B such problems,
    each array stacked (B, n), and a stack of linear predictors (c, n) whose
    row i is of dataset which[i]. It gives the log-likelihood, a residual r
    and weights a, and center(Z, rows): a design Z (d, n), observations last,
    has gradient Z r and information (a Z) Z' - C C' with C = center(Z, rows).
    C is empty for logistic. For Cox, with rows latest first, C_k = sqrt(m_k)
    S1_k / D_k at each position k, where m_k events have the risk set 0..k
    and S1_k, D_k sum w Z and w = e^eta on it."""

    lead: np.ndarray  # (0, n) or (1, n): the columns every model has (the intercept)
    columns: np.ndarray  # (p, n): every column of X
    data: tuple[np.ndarray, ...]  # what the objective reads of each observation, each (n,)
    objective: Callable  # *data (B, n), eta (c, n), which (c,) -> loglik, r, a, center
    empty: tuple[np.ndarray, float]  # coefficients and log-likelihood of the model on A = []
    family: str  # "logistic" or "cox"

    @property
    def what(self) -> str:
        """What a fit of this problem is called in its error messages."""
        return f"{self.family} fit"

    def design(self, M: list[int]) -> np.ndarray:
        """The (d, n) design of the model on M, lead columns first."""
        return np.vstack([self.lead, self.columns[M]])


def _objective(problems: Sequence[_Problem]) -> Callable:
    """The objective of a stack of rows from these problems' datasets, by index."""
    data = (np.array(x) for x in zip(*(problem.data for problem in problems)))
    return functools.partial(problems[0].objective, *data)


def _logistic_objective(Y: np.ndarray, eta: np.ndarray, which: np.ndarray):
    # log(1 + e^eta) and the fitted probabilities from e^-|eta|, which cannot overflow.
    y, e = _of_rows(Y, which), np.exp(-np.abs(eta))
    ll = _dot_rows(eta, which, Y) - (np.maximum(eta, 0.0) + np.log1p(e)).sum(axis=1)
    prob = np.where(eta >= 0.0, 1.0, e) / (1.0 + e)
    return ll, y - prob, prob * (1.0 - prob), lambda X, rows: X[..., :0]  # C C' = 0


def _logistic_problem(data: BinaryDataset) -> _Problem:
    # With an intercept the maximum fits p = k/n to every observation, for
    # k ones (0 < k < n in a BinaryDataset); with no parameters, p = 1/2.
    n, k = data.n, float(data.y.sum())
    empty = ((np.array([math.log(k / (n - k))]),
              k * math.log(k / n) + (n - k) * math.log((n - k) / n))
             if data.include_intercept else (np.zeros(0), -n * math.log(2.0)))
    return _Problem(np.ones((int(data.include_intercept), n)), data.X.T.copy(), (data.y,),
                    _logistic_objective, empty, "logistic")


def _cox_objective(status, m, sqrt_m, idle, eta: np.ndarray, which: np.ndarray):
    shift = eta.max(axis=1, keepdims=True)
    w = np.exp(eta - shift)
    # Prefix sums D_k of w over each risk set. Where m_k = 0 (idle), D_k only
    # meets a factor m_k; adding 1 there keeps an underflowed D_k from 0/0.
    D = w.cumsum(axis=1) + _of_rows(idle, which)
    ll = _dot_rows(eta, which, status) - _dot_rows(np.log(D) + shift, which, m)
    # The gradient sums x_e - C_e and the information S2_k / D_k - C_e C_e'
    # over the events e, with k where e's risk set ends, C_e = S1_k / D_k
    # and S1, S2 the prefix sums of w x and w x x'. Swapping the sums gives
    # r = status - c w and a = c w, where c_i = sum over k >= i of m_k / D_k:
    # one suffix sum, no (n, d, d) array. Tied events add m_k equal terms.
    cw = w * (_of_rows(m, which) / D)[:, ::-1].cumsum(axis=1)[:, ::-1]
    root = _of_rows(sqrt_m, which)

    def center(X, rows):
        """sqrt(m_k) S1_k / D_k of each row of X, a design's column: C C' sums C_e C_e'."""
        s1 = w[rows, None] * X
        s1.cumsum(axis=-1, out=s1)
        root_rows = root if root.ndim == 1 else root[rows]
        return np.multiply(s1, root_rows[..., None, :] / D[rows, None], out=s1)

    return ll, _of_rows(status, which) - cw, cw, center


def _cox_problem(data: SurvivalDataset) -> _Problem:
    # Rows latest first (the stable ascending sort, reversed), so the risk set
    # of every event is a prefix: positions 0..k, k the last sharing its time.
    order = np.argsort(data.time, kind="stable")[::-1]
    time, status = data.time[order], data.status[order]
    # Each event's risk-set size k + 1, latest first: m_k events have the risk set 0..k.
    size = np.searchsorted(-time, -time[status == 1.0], side="right")
    m = np.bincount(size - 1, minlength=data.n).astype(float)
    return _Problem(np.empty((0, data.n)), data.X[order].T.copy(),
                    (status, m, np.sqrt(m), 1.0 * (m == 0.0)), _cox_objective,
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
        it fails with n model columns or more, or where ``_deficient`` fails
        min(diag, r) and max(diag, r), r the candidate's residual norm."""
        if len(self.diag) >= self.V.shape[1]:
            return [SingularDesignError(f"{what}: more columns than rows") for _ in candidates]
        last = np.linalg.norm(self.V[candidates], axis=1)
        lo, hi = min(self.diag, default=np.inf), max(self.diag, default=0.0)
        deficient = _deficient(np.minimum(lo, last), np.maximum(hi, last))
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
        _objective([problem]), design[None, :-1], design[None, -1:], np.zeros((1, len(design) - 1)),
        problem.what, _Residuals(problem, M[:-1]).errors(M[-1:], problem.what))
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
    (step,) = _lrt_paths([data], 1, glm_fit(data, A))[0]
    return step.drops, step.failures


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
    return _lrt_paths([data], max_steps)[0]


def _lrt_paths(datasets: Sequence[BinaryDataset | SurvivalDataset], max_steps: int | None = None,
               start: FitResult | None = None) -> list[list[SelectionStep]]:
    """``lrt_path`` of each dataset (one family and shape), or its steps from
    the fit ``start`` of one dataset. The paths go in lockstep: each step fits
    the candidates of every path still going in one ``_newton_stack``, and a
    path leaves once it ends. A dataset's rows fit as in a stack of their
    own, so each path is the one its dataset gives alone."""
    problems = [_problem(data) for data in datasets]
    p, what = len(problems[0].columns), problems[0].what
    _check_max_steps(max_steps, "p", p)
    bases = [start or FitResult((), *problem.empty, iterations=0) for problem in problems]
    residuals = [_Residuals(problem, base.subset) for problem, base in zip(problems, bases)]
    paths: list[list[SelectionStep]] = [[] for _ in problems]
    live = list(range(len(problems)))
    for _ in range(p if max_steps is None else max_steps):
        As = [list(bases[b].subset) for b in live]
        for b, A in zip(live, As):  # a pick joins the residuals' model when another step follows
            if paths[b]:
                residuals[b].add(residuals[b].V[A[-1]])
        candidates = [[m for m in range(p) if m not in A] for A in As]
        beta, ll, iterations, errors = _newton_stack(
            _objective([problems[b] for b in live]),
            np.array([problems[b].design(A) for b, A in zip(live, As)]),
            np.array([problems[b].columns[c] for b, c in zip(live, candidates)]),
            np.array([bases[b].coefficients for b in live]), what,
            [e for b, c in zip(live, candidates) for e in residuals[b].errors(c, what)])
        ll[[e is not None for e in errors]], q = np.nan, p - len(As[0])
        for i, (b, A, c) in enumerate(zip(live, As, candidates)):  # rows i q .. i q + q - 1
            logliks = np.full(p, np.nan)
            logliks[c] = ll[i * q:(i + 1) * q]
            drops = np.maximum(2.0 * (logliks - bases[b].loglik), 0.0)
            j = None if np.isnan(drops).all() else best_candidate(drops)[0]
            paths[b].append(SelectionStep(
                k=len(A) + 1, A=tuple(A), j=j, drops=drops, selector=problems[b].family,
                failures=[f"fit failed for candidate {m}: {e}"
                          for m, e in zip(c, errors[i * q:(i + 1) * q]) if e is not None]))
            if j is not None:
                r = i * q + c.index(j)
                bases[b] = FitResult((*A, j), beta[r], float(ll[r]), int(iterations[r]))
        live = [b for b in live if paths[b][-1].j is not None]
        if not live:
            break
    return paths
