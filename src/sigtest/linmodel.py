"""Dense linear-model primitives.

Standardization, least squares on variable subsets, residual sums of squares,
and the scaled RSS-drop statistics that the significance tests consume.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import (
    DegenerateColumnError,
    DegenerateVarianceError,
    MissingVarianceError,
    NotEstimableError,
    SingularDesignError,
)

# A subset is declared rank deficient when a triangular-factor diagonal falls
# below this fraction of the largest diagonal.
RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix, response, and noise-variance declaration.

    ``sigma2=None`` means the noise variance is unknown; operations that
    divide by it raise :class:`MissingVarianceError` in that case.
    """

    X: np.ndarray
    y: np.ndarray
    sigma2: float | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float)).ravel()
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, p = X.shape
        if n < 2 or p < 1:
            raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
        if y.shape[0] != n:
            raise ValueError(f"y has length {y.shape[0]}, expected {n}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        if self.sigma2 is not None and not (self.sigma2 > 0):
            raise ValueError("sigma2 must be positive when supplied")
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

    @cached_property
    def digest(self) -> str:
        """Checksum identifying (X, y) so solution paths can detect staleness."""
        h = hashlib.sha256()
        h.update(str(self.X.shape).encode())
        h.update(self.X.tobytes())
        h.update(self.y.tobytes())
        return h.hexdigest()

    @cached_property
    def copies(self) -> dict[int, int]:
        """Each column identical (byte for byte) to an earlier one, mapped to
        the first column of its kind; empty when all columns differ."""
        first: dict[bytes, int] = {}
        copies: dict[int, int] = {}
        for j in range(self.p):
            key = self.X[:, j].tobytes()
            if key in first:
                copies[j] = first[key]
            else:
                first[key] = j
        return copies

    @cached_property
    def xty(self) -> np.ndarray:
        """X'y, so inner products y'X beta cost O(p)."""
        return self.X.T @ self.y

    def require_sigma2(self) -> float:
        if self.sigma2 is None:
            raise MissingVarianceError(
                "noise variance is unknown; supply sigma2 or estimate it with estimate_sigma2"
            )
        return float(self.sigma2)


@dataclass(frozen=True, eq=False)
class SubsetFit:
    """Least-squares fit of y on an ordered subset of design columns."""

    subset: tuple[int, ...]
    coefficients: np.ndarray
    rss: float
    fitted: np.ndarray = field(repr=False)


def standardize(X: np.ndarray, center: bool = False) -> np.ndarray:
    """Rescale each column to unit squared Euclidean norm.

    With ``center=True`` the column mean is removed first. Unit *norm* (not
    unit variance) is used throughout so that path knots coincide with
    absolute residual correlations.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    out = X.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        scale2 = float(col @ col)
        if center:
            col = col - col.mean()
            c2 = float(col @ col)
            if c2 == 0.0 or c2 <= 1e-24 * max(scale2, 1.0):
                raise DegenerateColumnError(j, f"column {j} is constant; cannot center and scale")
            out[:, j] = col / np.sqrt(c2)
        else:
            if scale2 == 0.0:
                raise DegenerateColumnError(j, f"column {j} has zero norm")
            out[:, j] = col / np.sqrt(scale2)
    return out


def _check_subset(data, M: Sequence[int]) -> list[int]:
    """M as a list of distinct column indices of ``data`` (any dataset with ``p``)."""
    M = [int(m) for m in M]
    if len(set(M)) != len(M):
        raise ValueError(f"subset contains repeated indices: {M}")
    for m in M:
        if not 0 <= m < data.p:
            raise IndexError(f"column index {m} out of range [0, {data.p})")
    return M


class ActiveQR:
    """Thin QR factor X_A = Q R of an ordered list A of design columns.

    Holds R, R^{-T}, Q' and Q'y (row i of each belongs to the ith column of
    A), the residual of y on A and, once :meth:`drops` asks for them, all
    columns residualised on A. :meth:`add` appends a column by Gram-Schmidt
    with one reorthogonalisation, in O(nk) plus O(np) while residualised
    columns are kept. :meth:`drop` is a downdate (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 6.5): Givens rotations restore the triangle
    of R without the dropped column, in O(nk + k^2) plus O(np) while
    residualised columns are kept.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, cols: Sequence[int] = ()):
        self.X, self.y = X, y
        cap, n = min(X.shape), X.shape[0]
        # One buffer [R | R^{-T} | Q' | Q'y], so that a rotation of two rows
        # acts on all four at once.
        self._rows = np.zeros((cap, 2 * cap + n + 1))
        self._R, self._Rit = self._rows[:, :cap], self._rows[:, cap:2 * cap]
        self._Qt, self._qty = self._rows[:, 2 * cap:-1], self._rows[:, -1]
        self.cols: list[int] = []
        self.resid = y.copy()
        self._Z = None
        for j in cols:
            self.add(j)

    def add(self, j: int) -> None:
        """Append column j; :class:`SingularDesignError` past n columns or when
        a diagonal of R falls below RANK_TOL times the largest one."""
        k = len(self.cols)
        if k == self._Qt.shape[0]:
            raise SingularDesignError(f"subset of size {k + 1} exceeds n={self.X.shape[0]}")
        Qt = self._Qt[:k]
        v, r = self.X[:, j].copy(), np.zeros(k)
        for _ in range(2):  # Gram-Schmidt twice is enough
            c = Qt @ v
            v -= Qt.T @ c
            r += c
        rho = float(np.sqrt(v @ v))
        diag = np.append(self._R.diagonal()[:k], rho)
        if rho == 0.0 or diag.min() < RANK_TOL * diag.max():
            raise SingularDesignError(f"columns {self.cols + [int(j)]} are linearly dependent")
        q = v / rho
        self._Qt[k] = q
        self._R[:k, k], self._R[k, k] = r, rho
        self._Rit[k, :k] = self._Rit[:k, :k].T @ r / -rho
        self._Rit[k, k] = 1.0 / rho
        self._qty[k] = q @ self.resid
        self.resid -= self._qty[k] * q
        if self._Z is not None:
            self._Z -= np.outer(q, q @ self._Z)
        self.cols.append(int(j))

    def drop(self, j: int) -> None:
        """Remove column j by a Givens downdate.

        Deleting column i of R leaves rows i..k-1 upper Hessenberg; rotating
        rows (m, m+1) for m = i..k-2 restores the triangle, and the same
        rotations G act on the rows of Q' and Q'y. With P the permutation
        that moves column i last, G R P is triangular with inverse
        P' R^{-1} G', so the new R^{-1} is R^{-1} without row i, its columns
        rotated by G, less its last column: R^{-T} without column i, its rows
        rotated, less its last row. The last rotated row of Q' has left the
        span; it returns to the residual and to the residualised columns.
        """
        i, k = self.cols.index(j), len(self.cols)
        R, Rit, rows = self._R, self._Rit, self._rows
        R[:k, i:k - 1], Rit[:k, i:k - 1] = R[:k, i + 1:k].copy(), Rit[:k, i + 1:k].copy()
        R[:k, k - 1] = Rit[:k, k - 1] = 0.0
        for m in range(i, k - 1):
            a, b = R[m, m], R[m + 1, m]
            rows[m:m + 2] = np.array([[a, b], [-b, a]]) / math.hypot(a, b) @ rows[m:m + 2]
            R[m + 1, m] = 0.0
        q_out = self._Qt[k - 1]
        self.resid += self._qty[k - 1] * q_out
        if self._Z is not None:
            self._Z += np.outer(q_out, q_out @ self.X)
        rows[k - 1] = 0.0
        del self.cols[i]

    @property
    def coef(self) -> np.ndarray:
        """Least-squares coefficients of y on A, in the order of A."""
        k = len(self.cols)
        return self._Rit[:k, :k].T @ self._qty[:k]

    def segment(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lasso segment b0 - lam*b1 on A for the signs s: the least-squares
        coefficients b0, b1 = (X_A' X_A)^{-1} s = R^{-1} R^{-T} s, and the
        direction X_A b1 = Q R^{-T} s."""
        k = len(s)
        w = self._Rit[:k, :k] @ s
        return self.coef, self._Rit[:k, :k].T @ w, self._Qt[:k].T @ w

    def drops(self, sigma2: float) -> dict[int, float]:
        """Scaled RSS drop from adding each column m outside A.

        Uses the projection identity: the drop equals
        (x_m' r_A)^2 / ||(I - P_A) x_m||^2 / sigma2 with r_A the residual of
        y on A. Columns numerically in the span of A get a drop of 0.
        """
        if self._Z is None:
            Qt = self._Qt[:len(self.cols)]
            self._Z = self.X - Qt.T @ (Qt @ self.X)
        cand = np.delete(np.arange(self.X.shape[1]), self.cols)
        num = (self.X.T @ self.resid)[cand] ** 2
        den = np.einsum("ij,ij->j", self._Z, self._Z)[cand]
        drops = np.zeros(cand.size)
        ok = den > 1e-12
        drops[ok] = num[ok] / den[ok] / sigma2
        return {int(m): float(d) for m, d in zip(cand, drops)}


def least_squares(data: Dataset, M: Sequence[int]) -> SubsetFit:
    """Least-squares fit on columns M, solved by an :class:`ActiveQR` factor.

    Raises :class:`SingularDesignError` when X_M is rank deficient (diagonal
    of the triangular factor below RANK_TOL times its largest entry).
    """
    M = _check_subset(data, M)
    qr = ActiveQR(data.X, data.y, M)
    return SubsetFit(subset=tuple(M), coefficients=qr.coef, rss=float(qr.resid @ qr.resid),
                     fitted=data.y - qr.resid)


def estimate_sigma2(data: Dataset) -> float:
    """Plug-in noise variance RSS_full / (n - p); requires n > p."""
    if data.n <= data.p:
        raise NotEstimableError(f"cannot estimate sigma2 with n={data.n} <= p={data.p}")
    fit = least_squares(data, list(range(data.p)))
    est = fit.rss / (data.n - data.p)
    scale = float(data.y @ data.y)
    if est == 0.0 or est <= 1e-24 * max(scale, 1.0):
        raise DegenerateVarianceError(
            "full fit is exact; variance estimate of 0 would break every test"
        )
    return float(est)
