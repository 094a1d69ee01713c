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

from .exceptions import PathTruncationWarning
from .lasso import LassoPath
from .linmodel import ActiveQR, Dataset, _check_max_steps

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


def best_candidate(drops: np.ndarray) -> tuple[int, float]:
    """Candidate with the largest drop (NaN entries are none), and that drop.

    Drops within 1e-12 of the largest count as tied; the lowest index wins.
    """
    best = float(np.fmax.reduce(drops))
    return int(np.argmax(drops >= best - 1e-12)), best


def stepwise_path(data: Dataset, max_steps: int | None = None,
                  selector: str = "stepwise") -> list[SelectionStep]:
    """Greedy forward selection: each step adds the candidate with the
    largest scaled RSS drop, ties broken by lowest index.

    Stops early (with a :class:`PathTruncationWarning`) once no candidate
    reduces the residual.
    """
    if selector not in ("stepwise", "max_r"):
        raise ValueError("stepwise_path selector must be 'stepwise' or 'max_r'")
    limit = min(data.n, data.p)
    _check_max_steps(max_steps, "min(n, p)", limit)
    sigma2 = data.require_sigma2()

    steps: list[SelectionStep] = []
    qr = ActiveQR(data.X, data.y)
    for k in range(1, (limit if max_steps is None else max_steps) + 1):
        if steps:
            qr.add(steps[-1].j)
        drops = qr.drops(sigma2)
        j, best = best_candidate(drops)
        if best <= ZERO_DROP_TOL:
            _warnings.warn(
                f"selection stopped at step {k}: residual orthogonal to all candidates",
                PathTruncationWarning)
            break
        steps.append(SelectionStep(k=k, A=tuple(qr.cols), j=j, drops=drops,
                                   selector=selector))
    return steps


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
