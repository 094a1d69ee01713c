"""Selector-agnostic sequence of selection steps consumed by the tests.

A step records the model A before the step, the drop of every remaining candidate
and the variable j added at the step. Forward stepwise regression and the lasso entry
order (scaled RSS drops) and the greedy logistic and Cox paths of :mod:`sigtest.glm`
(likelihood-ratio drops) produce the same record type.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import PathTruncationWarning, SingularDesignError
from .lasso import LassoPath, _alone
from .linmodel import REFRESH_FRAC, ActiveQR, Dataset, _check_max_steps, _deficient, _drops
from .linmodel import _orthogonalize, _refresh

# The Gaussian selectors, in the order the command line lists them.
SELECTORS = ("max_r", "stepwise", "lasso")
# Drops at or below this are treated as "residual orthogonal to the candidate".
ZERO_DROP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SelectionStep:
    """One step of a selection path. ``drops`` (length p, by column) holds the drop of
    every candidate m not in A, so the maximum can be checked exactly, and NaN for the
    columns in A and the candidates of a GLM step whose fit failed, which ``failures``
    notes. ``j`` is None only for a GLM step where no fit converged. ``conservative``
    marks a j that does not attain the maximum (the lasso order on correlated designs).
    """

    k: int
    A: tuple[int, ...]
    j: int | None
    drops: np.ndarray
    selector: str
    failures: Sequence[str] = ()
    conservative: bool = False

    def __post_init__(self):
        if self.j in self.A:
            raise ValueError("selected variable already in the model")
        if self.selector not in (*SELECTORS, "logistic", "cox"):
            raise ValueError(f"unknown selector {self.selector!r}")

    @property
    def r_j(self) -> float:
        """Drop of the selected variable j."""
        return float(self.drops[self.j])

    @property
    def m_remaining(self) -> int:
        """Number of candidate variables outside A (including j and failed fits)."""
        return len(self.drops) - len(self.A)


def best_candidate(drops: np.ndarray):
    """Candidate with the largest drop (NaN entries are none), and that drop:
    an int and a float for drops (p,), arrays for a stack (..., p).

    Drops within 1e-12 of the largest count as tied; the lowest index wins.
    """
    best = np.fmax.reduce(drops, axis=-1, keepdims=True)
    j = np.argmax(drops >= best - 1e-12, axis=-1)
    return (int(j), float(best[0])) if drops.ndim == 1 else (j, best[..., 0])


def stepwise_path(data: Dataset, max_steps: int | None = None,
                  selector: str = "stepwise") -> list[SelectionStep]:
    """Greedy forward selection: each step adds the candidate with the largest scaled
    RSS drop, ties broken by lowest index. Stops after ``max_steps`` steps (default
    min(n, p)), or early (with a :class:`PathTruncationWarning`) once no candidate
    reduces the residual. The one-dataset case of the walk that calibration blocks take."""
    return _alone(_stepwise_paths([data], max_steps, selector))


def _stepwise_paths(datasets: Sequence[Dataset], max_steps: int | None = None,
                    selector: str = "stepwise") -> list[list[SelectionStep] | SingularDesignError]:
    """``stepwise_path`` of each dataset (one shape), or the error it raises:
    a walk with the drops of X'r, r each path's residual of y, in one product."""
    if selector not in ("stepwise", "max_r"):
        raise ValueError("stepwise_path selector must be 'stepwise' or 'max_r'")
    n, p = datasets[0].n, datasets[0].p
    _check_max_steps(max_steps, "min(n, p)", min(n, p))
    sigma2 = np.array([[data.require_sigma2()] for data in datasets])
    steps = min(n, p) if max_steps is None else max_steps
    walk = _Walk(np.array([data.X for data in datasets]), np.zeros((len(datasets), 0, n)),
                 Y=np.array([data.y for data in datasets])[:, None], steps=steps)
    return walk.run(selector, ZERO_DROP_TOL, lambda w: (_drops(
        (w.resid @ w.X)[:, 0] ** 2, w.den, w.floor, w.inA, sigma2[w.rows]), [()] * len(w.A)))


class _Walk:
    """Greedy paths of the datasets of a stack X (B, n, p) in lockstep, each row as it would go
    alone. A path still going (of dataset ``rows[i]``) has a model by ActiveQR's rules: k rows
    of Q' (``lead`` (B, l, n), then A, ``start`` first), the residuals of Y (B, m, n), the kept
    norms ``den`` of X with floors REFRESH_FRAC ||x_m||^2, and R's extreme diagonals."""

    def __init__(self, X: np.ndarray, lead: np.ndarray, start: Sequence[int] = (), Y=None, steps=0):
        (B, n, p), l = X.shape, lead.shape[1]
        self.X, self.rows, self.A, self.k, self.steps = X, np.arange(B), [()] * B, 0, steps
        self.resid = lead[:, :0] if Y is None else Y
        self.den, self.Qt = np.einsum("bij,bij->bj", X, X), np.zeros((B, l + len(start) + steps, n))
        self.floor, self.inA = REFRESH_FRAC * self.den, np.zeros((B, p), dtype=bool)
        self.low, self.high = np.full((B, 1), np.inf), np.zeros((B, 1))
        for i in range(l):
            self.append(lead[:, i:i + 1])
        for j in start:
            self.append(X[:, None, :, j], np.full(B, j))

    def append(self, v: np.ndarray, j: np.ndarray | None = None) -> None:
        """Append to each model a column v (B, 1, n): column j (B,) of X, or a lead one."""
        if j is not None:
            self.inA[np.arange(len(j)), j] = True
            self.A = [(*A, m) for A, m in zip(self.A, j.tolist())]
        v, rho, _r = _orthogonalize(self.Qt[:, :self.k], v)
        self.low, self.high = np.minimum(self.low, rho), np.maximum(self.high, rho)
        q = np.divide(v, rho[..., None], out=self.Qt[:, self.k:self.k + 1],
                      where=rho[..., None] > 0.0)  # a zero remainder leaves its row of zeros
        self.resid -= (self.resid @ q.mT) * q
        self.den -= (q @ self.X)[:, 0] ** 2
        self.k += 1
        _refresh(self.X, self.Qt[:, :self.k], self.den, self.floor, self.inA)

    def run(self, selector: str, cut: float, drops: Callable) -> list:
        """Each path of at most ``steps`` steps, cut at a best drop at most ``cut`` or ended
        after all-NaN drops (``drops(self)`` gives them), or the error of a rank-deficient model."""
        paths, going = [[] for _ in self.rows], [True] * self.rows.size
        for k in range(1, self.steps + 1):
            failed = _deficient(self.low, self.high)[:, 0].tolist() if self.k else ()
            if True in failed:  # the rank rule, on the models that just appended
                for i in [i for i, fails in enumerate(failed) if fails and going[i]]:
                    going[i], paths[self.rows[i]] = False, SingularDesignError(
                        f"columns {list(self.A[i])} are linearly dependent")
            if False in going:  # the rows of paths that ended leave
                keep, self.A = np.array(going), [A for A, g in zip(self.A, going) if g]
                for name in ("rows", "X", "resid", "Qt", "den", "floor", "inA", "low", "high"):
                    setattr(self, name, getattr(self, name)[keep])
                going = [True] * len(self.A)
            if not going:
                break
            stack, failures = drops(self)
            j, best = best_candidate(stack)
            for i, (b, pick, top) in enumerate(zip(self.rows.tolist(), j.tolist(), best.tolist())):
                if top <= cut:
                    _warnings.warn(f"selection stopped at step {k}: residual orthogonal to all "
                                   "candidates", PathTruncationWarning)
                else:  # top is NaN (not equal to itself) where every drop is
                    paths[b].append(SelectionStep(len(self.A[i]) + 1, self.A[i], pick if top == top
                                                  else None, stack[i], selector, failures[i]))
                going[i] = top > cut
            if k < self.steps:  # every row appends its pick; the rows of ended paths leave above
                self.append(self.X[np.arange(j.size), None, :, j], j)
        return paths


def lasso_steps(path: LassoPath, *, max_steps: int | None = None) -> list[SelectionStep]:
    """One step per lasso entry event, with the drop on ``path.data`` of the entering
    variable, for the first ``max_steps`` entry events (default all); a step whose
    entering variable does not maximize the drop is flagged conservative."""
    data = path.data
    _check_max_steps(max_steps, "min(n, p)", min(data.n, data.p))
    sigma2 = data.require_sigma2()
    steps: list[SelectionStep] = []
    qr = ActiveQR(data.X, data.y)
    for idx, knot in enumerate(path.entry_knots()[:max_steps], start=1):
        A = knot.active_before
        inside = set(A)
        for i in [c for c in qr.cols if c not in inside]:
            qr.drop(i)
        for i in A[len(qr.cols):]:
            qr.add(i)
        drops = qr.drops(sigma2)
        steps.append(SelectionStep(
            k=idx, A=A, j=knot.entering, drops=drops, selector="lasso",
            conservative=bool(drops[knot.entering] < np.fmax.reduce(drops) - 1e-10)))
    return steps
