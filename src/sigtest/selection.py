"""Selector-agnostic sequence of selection steps consumed by the tests.

A step records the model A before the step, the variable j added at the
step, and the scaled RSS drop for j (plus, optionally, the drops of every
remaining candidate). Both forward stepwise regression and the lasso entry
order produce the same record type.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import Mapping

from .exceptions import PathTruncationWarning, StalePathError
from .lasso import LassoPath
from .linmodel import ActiveQR, Dataset

# Drops at or below this are treated as "residual orthogonal to the candidate".
ZERO_DROP_TOL = 1e-12


@dataclass(frozen=True)
class SelectionStep:
    """One step of a selection path.

    ``r_all`` maps every candidate m not in A to its scaled RSS drop; it is
    kept so the maximum can be checked exactly. ``conservative`` marks steps
    where the selected j does not attain that maximum (possible for the
    lasso ordering on correlated designs).
    """

    k: int
    A: tuple[int, ...]
    j: int
    r_j: float
    p: int
    selector: str
    r_all: Mapping[int, float] | None = None
    conservative: bool = False

    def __post_init__(self):
        if self.j in self.A:
            raise ValueError("selected variable already in the model")
        if self.selector not in ("stepwise", "lasso", "max_r"):
            raise ValueError(f"unknown selector {self.selector!r}")

    @property
    def m_remaining(self) -> int:
        """Number of candidate variables outside A (including j)."""
        return self.p - len(self.A)


def best_candidate(drops: Mapping[int, float]) -> tuple[int, float]:
    """Candidate with the largest drop, and that drop.

    Drops within 1e-12 of the largest count as tied; the lowest index wins.
    """
    best = max(drops.values())
    return min(m for m, d in drops.items() if d >= best - 1e-12), best


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
    if max_steps is None:
        max_steps = limit
    elif not 0 <= max_steps <= limit:
        raise ValueError(f"max_steps={max_steps} must lie in [0, min(n, p)={limit}]")
    sigma2 = data.require_sigma2()

    steps: list[SelectionStep] = []
    qr = ActiveQR(data.X, data.y)
    for k in range(1, max_steps + 1):
        if steps:
            qr.add(steps[-1].j)
        drops = qr.drops(sigma2)
        if not drops:
            break
        j, best = best_candidate(drops)
        if best <= ZERO_DROP_TOL:
            _warnings.warn(
                f"selection stopped at step {k}: residual orthogonal to all candidates",
                PathTruncationWarning)
            break
        steps.append(SelectionStep(k=k, A=tuple(qr.cols), j=j, r_j=drops[j], p=data.p,
                                   selector=selector, r_all=drops))
    return steps


def lasso_steps(path: LassoPath, data: Dataset) -> list[SelectionStep]:
    """One step per lasso entry event, with the drop of the entering variable.

    Steps where the entering variable does not maximize the drop over the
    remaining candidates are flagged conservative.
    """
    if path.data_digest != data.digest:
        raise StalePathError("path was computed from different data")
    sigma2 = data.require_sigma2()
    steps: list[SelectionStep] = []
    qr = ActiveQR(data.X, data.y)
    for idx, knot in enumerate(path.entry_knots(), start=1):
        A = knot.active_before
        inside = set(A)
        for i in [c for c in qr.cols if c not in inside]:
            qr.drop(i)
        for i in A[len(qr.cols):]:
            qr.add(i)
        drops = qr.drops(sigma2)
        r_j = drops[knot.entering]
        best = max(drops.values())
        steps.append(SelectionStep(
            k=idx, A=A, j=knot.entering, r_j=r_j, p=data.p, selector="lasso",
            r_all=drops, conservative=bool(r_j < best - 1e-10)))
    return steps
