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


class _Shape:
    """``n`` and ``p`` of a dataset's design matrix ``X``; the rules every kind shares."""

    def __post_init__(self):
        """The fields named in ``_arrays`` (X first) as read-only contiguous
        float copies, all but X flattened. X must be 2-d with n >= 2 and
        p >= 1, every other array must have n entries, and every array must
        be finite; then the kind's own ``_check`` runs. The caller's own
        arrays are never frozen."""
        arrays = [np.array(getattr(self, k), dtype=float, order="C") for k in self._arrays]
        arrays[1:] = [a.ravel() for a in arrays[1:]]
        if arrays[0].ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, p = arrays[0].shape
        if n < 2 or p < 1:
            raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
        for name, a in zip(self._arrays[1:], arrays[1:]):
            if a.shape[0] != n:
                raise ValueError(f"{name} has length {a.shape[0]}, expected {n}")
        for name, a in zip(self._arrays, arrays):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        self._check()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class Dataset(_Shape):
    """Design matrix, response, and noise-variance declaration.

    ``sigma2=None`` means the noise variance is unknown; operations that
    divide by it raise :class:`MissingVarianceError` in that case.
    """

    X: np.ndarray
    y: np.ndarray
    sigma2: float | None = None
    _arrays = ("X", "y")

    def _check(self):
        if self.sigma2 is not None and not 0.0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and positive when supplied")

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


def standardize(X: np.ndarray) -> np.ndarray:
    """Rescale each column to unit squared Euclidean norm.

    Unit *norm* (not unit variance) is used throughout so that path knots
    coincide with absolute residual correlations.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    out = X.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        scale2 = float(col @ col)
        if scale2 == 0.0:
            raise DegenerateColumnError(j, f"column {j} has zero norm")
        out[:, j] = col / np.sqrt(scale2)
    return out


def _check_subset(data, M: Sequence[int]) -> list[int]:
    """M as a list of distinct column indices of ``data`` (any dataset with ``p``)."""
    M, p = [int(m) for m in M], data.p
    if len(set(M)) != len(M):
        raise ValueError(f"subset contains repeated indices: {M}")
    for m in M:
        if not 0 <= m < p:
            raise IndexError(f"column index {m} out of range [0, {p})")
    return M


def _check_max_steps(max_steps: int | None, bound: str, limit: int) -> None:
    """Reject a step cap outside [0, limit] (``bound`` names it); None passes."""
    if max_steps is not None and not 0 <= max_steps <= limit:
        raise ValueError(f"max_steps={max_steps} must lie in [0, {bound}={limit}]")


class ActiveQR:
    """Thin QR factor X_A = Q R of an ordered list A of design columns.

    Holds R, R^{-T}, Q' and Q'y (row i of each belongs to the ith column of
    A), the residual of y on A and, once :meth:`drops` asks for them, the p
    squared residual norms ||(I - P_A) x_m||^2; no n x p state. :meth:`add`
    appends a column by Gram-Schmidt with one reorthogonalisation, in O(nk).
    :meth:`drop` is a downdate (Golub & Van Loan, *Matrix Computations*, 4th
    ed., sec. 6.5): Givens rotations restore the triangle of R without the
    dropped column, in O(nk + k^2). While the norms are kept, each update
    also costs one O(np) product X'q with the column q that enters or leaves.
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
        self._norms = self._den = None  # ||x_m||^2 and ||(I - P_A) x_m||^2
        for j in cols:
            self.add(j)

    def add(self, j: int) -> None:
        """Append column j; :class:`SingularDesignError` past n columns or when
        a diagonal of R falls below RANK_TOL times the largest one."""
        k = len(self.cols)
        if k == self._Qt.shape[0]:
            raise SingularDesignError(f"subset of size {k + 1} exceeds n={self.X.shape[0]}")
        Qt = self._Qt[:k]
        v = self.X[:, j].copy()
        r = Qt @ v
        v -= Qt.T @ r
        c = Qt @ v  # Gram-Schmidt twice is enough
        v -= Qt.T @ c
        r += c
        rho = float(np.sqrt(v @ v))
        diag = self._R.diagonal()[:k]
        if rho == 0.0 or diag.min(initial=rho) < RANK_TOL * diag.max(initial=rho):
            raise SingularDesignError(f"columns {self.cols + [int(j)]} are linearly dependent")
        q = np.divide(v, rho, out=self._Qt[k])
        self._R[:k, k], self._R[k, k] = r, rho
        self._Rit[k, :k] = self._Rit[:k, :k].T @ r / -rho
        self._Rit[k, k] = 1.0 / rho
        self._qty[k] = q @ self.resid
        self.resid -= self._qty[k] * q
        self.cols.append(int(j))
        if self._den is not None:
            self._den -= (q @ self.X) ** 2
            self._refresh()

    def drop(self, j: int) -> None:
        """Remove column j by a Givens downdate.

        Deleting column i of R leaves rows i..k-1 upper Hessenberg; rotating
        rows (m, m+1) for m = i..k-2 restores the triangle, and the same
        rotations G act on the rows of Q' and Q'y. With P the permutation
        that moves column i last, G R P is triangular with inverse
        P' R^{-1} G', so the new R^{-1} is R^{-1} without row i, its columns
        rotated by G, less its last column: R^{-T} without column i, its rows
        rotated, less its last row. The last rotated row q of Q' has left the
        span; it returns to the residual, and (x_m'q)^2 to each kept squared
        residual norm.
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
        if self._den is not None:
            self._den += (q_out @ self.X) ** 2
        rows[k - 1] = 0.0
        del self.cols[i]
        if self._den is not None:
            self._refresh()

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

    def drops(self, sigma2: float) -> np.ndarray:
        """Scaled RSS drop from adding each column m outside A, as an array
        of length p indexed by column that holds NaN for the columns in A.

        Uses the projection identity: the drop equals
        (x_m' r_A)^2 / ||(I - P_A) x_m||^2 / sigma2 with r_A the residual of
        y on A. Columns numerically in the span of A get a drop of 0.

        The numerator is formed fresh from X'r_A. The denominators are the
        downdated column norms of QR with column pivoting (Businger & Golub,
        *Numer. Math.* 7, 1965; Quintana-Orti, Sun & Bischof, *SIAM J. Sci.
        Comput.* 19(5), 1998): computed exactly at the first call, then
        each :meth:`add` subtracts (x_m'q)^2 and each :meth:`drop` adds it
        back. A kept value carries an error of about eps ||x_m||^2 per
        update, so a column outside A whose value falls below 1e-3 of its
        own ||x_m||^2 is recomputed exactly: a column nearly in the span of
        A then stays as accurate as a fresh projection.
        """
        if self._den is None:
            self._norms = np.einsum("ij,ij->j", self.X, self.X)
            self._den = np.zeros_like(self._norms)
            self._refresh()
        num = (self.X.T @ self.resid) ** 2
        drops = np.zeros(num.size)
        ok = self._den > 1e-12
        drops[ok] = num[ok] / self._den[ok] / sigma2
        drops[self.cols] = np.nan
        return drops

    def _refresh(self) -> None:
        """Recompute, by the twice-projected residual, each kept norm outside
        A that fell below 1e-3 ||x_m||^2."""
        low = self._den < 1e-3 * self._norms
        low[self.cols] = False
        idx = np.flatnonzero(low)
        if idx.size:
            Qt, Z = self._Qt[:len(self.cols)], self.X[:, idx]
            for _ in range(2):
                Z = Z - Qt.T @ (Qt @ Z)
            self._den[idx] = np.einsum("ij,ij->j", Z, Z)


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
