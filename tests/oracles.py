"""Independent reference implementations used only to verify the package.

Everything here is deliberately written by a different route than the
library: coordinate descent instead of the path algorithm, grid scans
and a finite-difference quasi-Newton optimiser instead of Newton solvers, explicit formula evaluation instead of shared
helpers.
"""

from __future__ import annotations

import numpy as np


def soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def cd_lasso(X: np.ndarray, y: np.ndarray, lam: float, max_iter: int = 20_000,
             tol: float = 1e-12) -> np.ndarray:
    """Cyclic coordinate descent for 0.5*||y - X b||^2 + lam*||b||_1."""
    n, p = X.shape
    col_sq = np.einsum("ij,ij->j", X, X)
    beta = np.zeros(p)
    resid = y.copy()
    for _ in range(max_iter):
        delta = 0.0
        for j in range(p):
            old = beta[j]
            rho = X[:, j] @ resid + col_sq[j] * old
            new = soft_threshold(rho, lam) / col_sq[j]
            if new != old:
                resid += X[:, j] * (old - new)
                beta[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return beta


def lasso_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    r = y - X @ beta
    return 0.5 * float(r @ r) + lam * float(np.abs(beta).sum())


def cd_support(X: np.ndarray, y: np.ndarray, lam: float, zero_tol: float = 1e-7) -> frozenset[int]:
    beta = cd_lasso(X, y, lam)
    return frozenset(int(j) for j in np.flatnonzero(np.abs(beta) > zero_tol))


def cd_support_change_points(X: np.ndarray, y: np.ndarray, lam_hi: float,
                             coarse: int = 400, refine_tol: float = 1e-6) -> list[float]:
    """Penalty values where the coordinate-descent support changes.

    Scans a coarse grid from just above lam_hi down to a small floor, then
    bisects every bracket where the support differs.
    """
    lam_floor = 1e-3 * lam_hi
    grid = np.linspace(lam_hi * 1.02, lam_floor, coarse)
    supports = [cd_support(X, y, lam) for lam in grid]
    changes = []
    for i in range(len(grid) - 1):
        if supports[i] == supports[i + 1]:
            continue
        hi, lo = grid[i], grid[i + 1]
        s_hi = supports[i]
        while hi - lo > refine_tol:
            mid = 0.5 * (hi + lo)
            if cd_support(X, y, mid) == s_hi:
                hi = mid
            else:
                lo = mid
        changes.append(0.5 * (hi + lo))
    return changes


def best_single_variable_drop(X: np.ndarray, y: np.ndarray, sigma2: float) -> tuple[int, float]:
    """Exhaustive search over single-variable least-squares fits."""
    rss_null = float(y @ y)
    best_j, best_drop = -1, -np.inf
    for j in range(X.shape[1]):
        xj = X[:, j]
        coef = float(xj @ y) / float(xj @ xj)
        r = y - coef * xj
        drop = (rss_null - float(r @ r)) / sigma2
        if drop > best_drop:
            best_j, best_drop = j, drop
    return best_j, best_drop


def logistic_loglik(X1: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Bernoulli log-likelihood evaluated directly (X1 includes any intercept)."""
    eta = X1 @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def grid_scan_max(fun, lo: float, hi: float, coarse: int = 2001, fine: int = 2001) -> float:
    """Two-stage grid maximization of a 1-d function."""
    grid = np.linspace(lo, hi, coarse)
    vals = [fun(b) for b in grid]
    i = int(np.argmax(vals))
    step = grid[1] - grid[0]
    lo2 = grid[max(i - 1, 0)]
    hi2 = grid[min(i + 1, coarse - 1)]
    fine_grid = np.linspace(lo2, hi2, fine)
    return max(fun(b) for b in fine_grid)


def cox_partial_loglik(X: np.ndarray, time: np.ndarray, status: np.ndarray,
                       beta: np.ndarray) -> float:
    """Partial log-likelihood with pooled tied events, computed by loops."""
    eta = X @ beta
    ll = 0.0
    for i in range(len(time)):
        if status[i] != 1.0:
            continue
        risk = time >= time[i]
        ll += eta[i] - np.log(np.exp(eta[risk]).sum())
    return float(ll)


def quasi_newton_max(loglik, d: int) -> float:
    """Maximum of a concave function on R^d by scipy's BFGS from 0, gradients by differences."""
    from scipy.optimize import minimize

    if d == 0:
        return float(loglik(np.zeros(0)))
    res = minimize(lambda b: -loglik(b), np.zeros(d), method="BFGS", options={"gtol": 1e-9})
    return float(-res.fun)


def gumbel_cdf_direct(x: float) -> float:
    """The reference CDF evaluated symbol by symbol."""
    return float(np.exp(-np.exp(-(x + np.log(np.pi)) / 2.0)))


def stepwise_gumbel_statistics(reps: int, seed: int, n: int, p: int, rho: float,
                               signal: dict[int, float], k: int,
                               sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Recentred step-k forward-stepwise drops, simulated from scratch.

    Rows of the design are drawn as Z L^T with L the Cholesky factor of the
    Toeplitz covariance rho^|i-j| (not by an AR recursion), columns are
    rescaled to unit norm, and y = X beta + sigma * noise. Each step refits
    A + {j} for every candidate j through the normal equations and adds the
    candidate with the largest RSS drop; at step k the largest drop over the
    m = p - (k - 1) candidates minus 2 log m - log log m is recorded.
    """
    rng = np.random.default_rng(seed)
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    chol = np.linalg.cholesky(rho ** lags)
    beta = np.zeros(p)
    for idx, val in signal.items():
        beta[idx] = val
    m = p - (k - 1)
    centering = 2.0 * np.log(m) - np.log(np.log(m))
    support = {idx for idx, val in signal.items() if val != 0.0}
    out = np.empty(reps)
    missed = np.zeros(reps, dtype=bool)
    for rep in range(reps):
        X = rng.standard_normal((n, p)) @ chol.T
        X /= np.sqrt((X * X).sum(axis=0))
        y = X @ beta + sigma * rng.standard_normal(n)
        active: list[int] = []
        rss_active = float(y @ y)
        for _ in range(k):
            cands = np.array([j for j in range(p) if j not in active])
            cols = np.column_stack([np.full(cands.size, j) for j in active] + [cands])
            Xs = X[:, cols].transpose(1, 0, 2)                # (candidate, n, |A| + 1)
            gram = Xs.transpose(0, 2, 1) @ Xs
            coef = np.linalg.solve(gram, (Xs.transpose(0, 2, 1) @ y)[..., None])
            resid = y - (Xs @ coef)[..., 0]
            rss = (resid * resid).sum(axis=1)
            best = int(np.argmin(rss))
            drop = (rss_active - rss[best]) / sigma ** 2
            active.append(int(cands[best]))
            rss_active = float(rss[best])
        out[rep] = drop - centering
        missed[rep] = not support <= set(active[:-1])
    return out, missed
