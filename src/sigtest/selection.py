"""Selector-agnostic sequence of selection steps consumed by the tests.

A step records the model A before the step, the drop of every remaining
candidate and the variable j added at the step. Forward stepwise regression
and the lasso entry order (scaled RSS drops) and the greedy logistic and Cox
paths of :mod:`sigtest.glm` (likelihood-ratio drops) produce the same record
type.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import PathTruncationWarning, SingularDesignError
from .lasso import LassoPath
from .linmodel import REFRESH_FRAC, ActiveQR, Dataset, _check_max_steps, _deficient, _drops
from .linmodel import _orthogonalize, _refresh

# The Gaussian selectors, in the order the command line lists them.
SELECTORS = ("max_r", "stepwise", "lasso")
# Drops at or below this are treated as "residual orthogonal to the candidate".
ZERO_DROP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SelectionStep:
    """One step of a selection path.

    ``drops`` is a float array of length p, indexed by column: the drop of
    every candidate m not in A, so the maximum can be checked exactly, and
    NaN for the columns in A and for the candidates of a GLM step whose fit
    failed, which ``failures`` notes. ``j`` is None only for a GLM step
    where no fit converged. ``conservative`` marks steps where the selected
    j does not attain the maximum (possible for the lasso ordering on
    correlated designs).
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
    """Greedy forward selection: each step adds the candidate with the
    largest scaled RSS drop, ties broken by lowest index.

    Stops after ``max_steps`` steps (default min(n, p)), or early (with a
    :class:`PathTruncationWarning`) once no candidate reduces the residual.
    The one-dataset case of the walk that calibration blocks take in lockstep.
    """
    (path,) = _stepwise_paths([data], max_steps, selector)
    if isinstance(path, SingularDesignError):
        raise path
    return path


def _stepwise_paths(datasets: Sequence[Dataset], max_steps: int | None = None,
                    selector: str = "stepwise") -> list[list[SelectionStep] | SingularDesignError]:
    """``stepwise_path`` of each dataset (one shape), or the error it raises.
    The paths go in lockstep over stacks, with ActiveQR's rules: a step takes
    X'r of every path in one product and appends every pick by Gram-Schmidt
    twice. A path that ends leaves the walk; each row computes what it would alone.
    """
    if selector not in ("stepwise", "max_r"):
        raise ValueError("stepwise_path selector must be 'stepwise' or 'max_r'")
    n, p = datasets[0].n, datasets[0].p
    _check_max_steps(max_steps, "min(n, p)", min(n, p))
    sigma2 = np.array([[data.require_sigma2()] for data in datasets])
    steps = min(n, p) if max_steps is None else max_steps
    paths: list = [[] for _ in datasets]
    live, rows = [True] * len(datasets), np.arange(len(datasets))
    X = np.array([data.X for data in datasets])
    resid = np.array([data.y for data in datasets])[:, None]
    den = np.einsum("bij,bij->bj", X, X)
    floor, inA = REFRESH_FRAC * den, np.zeros(den.shape, dtype=bool)
    Qt = np.zeros((len(rows), steps, n))
    low, high = np.full((len(rows), 1), np.inf), np.zeros((len(rows), 1))  # extreme diagonals of R
    for k in range(1, steps + 1):
        if k > 1:  # append the pick of step k - 1 to the k - 2 columns of A
            v, rho, _r = _orthogonalize(Qt[:, :k - 2], X[rows, None, :, j])
            low, high = np.minimum(low, rho), np.maximum(high, rho)
            failed = _deficient(low, high)[:, 0].tolist()
            if True in failed:  # rows of paths that left go on, ignored, a zero remainder kept 0
                for b in [b for b, fail in enumerate(failed) if fail and live[b]]:
                    live[b], cols = False, [*paths[b][-1].A, paths[b][-1].j]
                    paths[b] = SingularDesignError(f"columns {cols} are linearly dependent")
                rho[rho == 0.0] = 1.0
            q = np.divide(v, rho[..., None], out=Qt[:, k - 2:k - 1])
            resid -= (q @ resid.mT) * q
            den -= (q @ X)[:, 0] ** 2
            inA[rows, j] = True
            _refresh(X, Qt[:, :k - 1], den, floor, inA)
        drops = _drops((resid @ X)[:, 0] ** 2, den, inA, sigma2)
        j, best = best_candidate(drops)
        for b, ended, pick in zip(rows.tolist(), (best <= ZERO_DROP_TOL).tolist(), j.tolist()):
            if live[b] and ended:
                live[b] = False
                _warnings.warn(f"selection stopped at step {k}: residual orthogonal to all "
                               "candidates", PathTruncationWarning)
            elif live[b]:
                A = (*paths[b][-1].A, paths[b][-1].j) if paths[b] else ()
                paths[b].append(SelectionStep(k, A, pick, drops[b], selector))
        if True not in live:
            break
    return paths


def lasso_steps(path: LassoPath, *, max_steps: int | None = None) -> list[SelectionStep]:
    """One step per lasso entry event, with the drop on ``path.data`` of the
    entering variable, for the first ``max_steps`` entry events (default all).

    Steps where the entering variable does not maximize the drop over the
    remaining candidates are flagged conservative.
    """
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
