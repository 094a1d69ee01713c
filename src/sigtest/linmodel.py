"""Dense linear-model primitives.

Standardization, least squares on variable subsets, residual sums of squares,
and the scaled RSS-drop statistics that the significance tests consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import (
    DegenerateColumnError,
    DegenerateVarianceError,
    DuplicateColumnError,
    MissingVarianceError,
    NotEstimableError,
    SingularDesignError,
)

# A subset is declared rank deficient when a triangular-factor diagonal falls
# below this fraction of the largest diagonal.
RANK_TOL = 1e-10
# A kept squared residual norm below this fraction of ||x_m||^2 is recomputed.
REFRESH_FRAC = 1e-3


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
    def copies(self) -> dict[int, int]:
        """Each column identical (byte for byte) to an earlier one, mapped to
        the first column of its kind; empty when all columns differ."""
        keys = self.X[0].view(np.uint64)  # a column's first-row bytes; -0.0 is not 0.0
        ordered = np.sort(keys)
        first: dict[bytes, int] = {}
        copies: dict[int, int] = {}
        # Only the columns that share their first-row bytes are compared whole.
        for j in np.flatnonzero(np.isin(keys, ordered[1:][ordered[1:] == ordered[:-1]])).tolist():
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

    @cached_property
    def lam1(self) -> float:
        """max |x_m'y|, where the lasso path starts: the scale of its tolerances."""
        return float(np.abs(self.xty).max())

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
    """Rescale each column to unit squared Euclidean norm (not unit variance), so that
    path knots coincide with absolute residual correlations."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    # Exact power-of-two rescale to max |x| in [0.5, 1): col @ col cannot under- or overflow.
    out = np.ldexp(X, -np.frexp(np.abs(X).max(axis=0, initial=0.0))[1], order="C")
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


def _columns(data: Dataset, columns: Sequence[int] | None) -> list[int]:
    """Validated column list: all columns when ``columns`` is None.

    :class:`DuplicateColumnError` names the first column of the list that
    repeats an earlier one, and that earlier one.
    """
    cols = list(range(data.p)) if columns is None else _check_subset(data, columns)
    if data.copies:
        seen: dict[int, int] = {}
        for j in cols:
            f = data.copies.get(j, j)
            if f in seen:
                raise DuplicateColumnError(seen[f], j)
            seen[f] = j
    return cols


def _check_max_steps(max_steps: int | None, bound: str, limit: int) -> None:
    """Reject a step cap outside [0, limit] (``bound`` names it); None passes."""
    if max_steps is not None and not 0 <= max_steps <= limit:
        raise ValueError(f"max_steps={max_steps} must lie in [0, {bound}={limit}]")


class ActiveQR:
    """Thin QR factor X_A = Q R of an ordered list A of design columns. Holds R, R^{-T},
    Q' and Q'y (row i of each belongs to the ith column of A), the residual of y on A
    and, once :meth:`drops` asks for them, the p squared residual norms
    ||(I - P_A) x_m||^2; no n x p state. :meth:`add` appends a column by Gram-Schmidt
    with one reorthogonalisation, in O(nk); :meth:`drop` is a downdate (Golub & Van
    Loan, *Matrix Computations*, 4th ed., sec. 6.5) in O(nk + k^2). While the norms are
    kept, each update also costs one O(np) product X'q with the column q that moves."""

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
        self._den = self._floor = None  # ||(I - P_A) x_m||^2 and REFRESH_FRAC ||x_m||^2
        for j in cols:
            self.add(j)

    def add(self, j: int) -> None:
        """Append column j; :class:`SingularDesignError` past n columns or when
        a diagonal of R falls below RANK_TOL times the largest one."""
        k, R = len(self.cols), self._R
        if k == self._Qt.shape[0]:
            raise SingularDesignError(f"subset of size {k + 1} exceeds n={self.X.shape[0]}")
        v, rho, r = _orthogonalize(self._Qt[:k], self.X[:, j].copy())
        R[k, k] = rho
        diag = R.diagonal()[:k + 1]
        if _deficient(np.minimum.reduce(diag), np.maximum.reduce(diag)):
            R[k, k] = 0.0
            raise SingularDesignError(f"columns {self.cols + [int(j)]} are linearly dependent")
        q = np.divide(v, rho, out=self._Qt[k])
        R[:k, k] = r
        self._Rit[k, :k] = self._Rit[:k, :k].T @ r / -rho
        self._Rit[k, k] = 1.0 / rho
        self._qty[k] = q @ self.resid
        self.resid -= self._qty[k] * q
        self.cols.append(int(j))
        if self._den is not None:
            self._den -= (q @ self.X) ** 2
            _refresh(self.X, self._Qt[:k + 1], self._den, self._floor, self.cols)

    def drop(self, j: int) -> None:
        """Remove column j by :func:`_downdate`. The last rotated row q of Q' has left the
        span: it returns to the residual, and (x_m'q)^2 to each kept squared residual norm."""
        i, k = self.cols.index(j), len(self.cols)
        _downdate(self._rows, self._R.shape[0], i, k)
        q_out = self._Qt[k - 1]
        self.resid += self._qty[k - 1] * q_out
        del self.cols[i]
        if self._den is not None:
            self._den += (q_out @ self.X) ** 2
            _refresh(self.X, self._Qt[:k - 1], self._den, self._floor, self.cols)
        self._rows[k - 1] = 0.0

    @property
    def coef(self) -> np.ndarray:
        """Least-squares coefficients of y on A, in the order of A."""
        k = len(self.cols)
        return self._Rit[:k, :k].T @ self._qty[:k]

    def drops(self, sigma2: float) -> np.ndarray:
        """Scaled RSS drop from adding each column m outside A, indexed by column (NaN
        on A): (x_m' r_A)^2 / ||(I - P_A) x_m||^2 / sigma2 with r_A the residual of y on
        A, 0 for columns numerically in the span of A. The numerator is fresh from X'r_A;
        the denominators are the downdated column norms of QR with column pivoting
        (Businger & Golub, *Numer. Math.* 7, 1965; Quintana-Orti, Sun & Bischof, *SIAM J.
        Sci. Comput.* 19(5), 1998): exact at the first call (||x_m||^2 with A empty, no
        projection), then each :meth:`add` subtracts (x_m'q)^2 and each :meth:`drop`
        adds it back. A kept value errs by about eps ||x_m||^2 per update, so one that
        falls below 1e-3 of ||x_m||^2 is recomputed exactly, as accurate as a fresh
        projection for a column nearly in the span of A."""
        if self._den is None:
            norms = np.einsum("ij,ij->j", self.X, self.X)
            self._den = np.zeros_like(norms) if self.cols else norms
            self._floor = REFRESH_FRAC * norms
            _refresh(self.X, self._Qt[:len(self.cols)], self._den, self._floor, self.cols)
        return _drops((self.resid @ self.X) ** 2, self._den, self._floor, self.cols, sigma2)


# ActiveQR's rules, on one dataset's arrays or on stacks of them (the walk, the lasso trace).
def _orthogonalize(Qt: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vector v (n,) less its projection on the orthonormal rows of Qt
    (k, n), by Gram-Schmidt twice, or so for stacks v (B, 1, n) and Qt
    (B, k, n): the remainders, their norms rho and their coefficients r on Qt."""
    Q = Qt.mT
    r = v @ Q
    v = v - r @ Qt
    c = v @ Q  # Gram-Schmidt twice is enough
    v -= c @ Qt
    r += c
    return v, np.sqrt(np.vecdot(v, v)), r


def _downdate(rows: np.ndarray, cap: int, i: int, k: int) -> None:
    """Remove column i of the k of a factor's rows [R | R^{-T} | Q' | Q'y] (R cap wide) by
    Givens rotations. Deleting column i of R leaves rows i..k-1 upper Hessenberg; rotating
    rows (m, m+1) for m = i..k-2 restores the triangle, and the same rotations G act on the
    rows of Q' and Q'y. With P the permutation that moves column i last, G R P is triangular
    with inverse P' R^{-1} G', so the new R^{-T} is R^{-T} without column i, its rows
    rotated, less its last row. Row k - 1 of Q' then leaves the span, to the caller."""
    R, Rit = rows[:, :cap], rows[:, cap:2 * cap]
    R[:k, i:k - 1], Rit[:k, i:k - 1] = R[:k, i + 1:k].copy(), Rit[:k, i + 1:k].copy()
    R[:k, k - 1] = Rit[:k, k - 1] = 0.0
    for m in range(i, k - 1):
        a, b = R[m, m], R[m + 1, m]
        rows[m:m + 2] = np.array([[a, b], [-b, a]]) / math.hypot(a, b) @ rows[m:m + 2]
        R[m + 1, m] = 0.0


def _deficient(low, high):
    """The rank rule on the smallest and largest diagonals of R, a new column's
    among them: it fails where the smallest is 0 or below RANK_TOL times the largest."""
    return (low == 0.0) | (low < RANK_TOL * high)


def _drops(num: np.ndarray, den: np.ndarray, floor: np.ndarray, inA: np.ndarray,
           sigma2) -> np.ndarray:
    """The scaled drops num / den / sigma2 from the squares num of x_m'r_A and the kept norms den
    (..., p): 0 where den <= 1e-12 ||x_m||^2 (floor / REFRESH_FRAC), NaN on A (inA indexes it)."""
    drops = np.divide(num, den, out=np.zeros(num.shape), where=REFRESH_FRAC * den > 1e-12 * floor)
    drops /= sigma2
    drops[inA] = np.nan
    return drops


def _refresh(X: np.ndarray, Qt: np.ndarray, den: np.ndarray, floor: np.ndarray,
             inA: np.ndarray) -> None:
    """Recompute in place, by the twice-projected residual, each kept norm
    den outside A (inA indexes it) that fell below its floor REFRESH_FRAC
    ||x_m||^2, with X (..., n, p) and the rows Qt (..., k, n) of Q'."""
    low = den < floor
    low[inA] = False
    if np.count_nonzero(low):
        for b in np.ndindex(low.shape[:-1]):  # b = () for one dataset
            idx = np.flatnonzero(low[b])
            Z = X[b][:, idx]
            for _ in range(2):
                Z = Z - Qt[b].T @ (Qt[b] @ Z)
            den[b][idx] = np.einsum("ij,ij->j", Z, Z)


def least_squares(data: Dataset, M: Sequence[int]) -> SubsetFit:
    """Least-squares fit on columns M, solved by an :class:`ActiveQR` factor;
    :class:`SingularDesignError` when X_M is rank deficient (see ``_deficient``)."""
    M = _check_subset(data, M)
    qr = ActiveQR(data.X, data.y, M)
    return SubsetFit(subset=tuple(M), coefficients=qr.coef, rss=float(qr.resid @ qr.resid),
                     fitted=data.y - qr.resid)


def estimate_sigma2(data: Dataset) -> float:
    """Plug-in noise variance RSS_full / (n - p); requires n > p."""
    if data.n <= data.p:
        raise NotEstimableError(f"cannot estimate sigma2 with n={data.n} <= p={data.p}")
    fit = least_squares(data, _columns(data, None))
    est = fit.rss / (data.n - data.p)
    if est == 0.0 or est <= 1e-24 * float(data.y @ data.y):
        raise DegenerateVarianceError(
            "full fit is exact; variance estimate of 0 would break every test"
        )
    return float(est)
