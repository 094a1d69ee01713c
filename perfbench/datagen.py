"""Inputs of the cli-* workloads, drawn with the benchmark's own numpy code.

The CSV files are made here rather than with ``sigtest.gen_design`` so that a
change to ``sigtest.montecarlo`` cannot change what the CLI workloads read.
Every stream is a PCG64 generator seeded by ``SeedSequence([seed, *stream])``,
so the same seed and stream key always give the same file.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def _ar1_design(rng: np.random.Generator, n: int, p: int, rho: float) -> np.ndarray:
    """Rows i.i.d. with coordinate covariance rho^|i-j|; unit-norm columns."""
    z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = z[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * z[:, j]
    return X / np.sqrt((X * X).sum(axis=0))


def _signals(rng: np.random.Generator, p: int, count: int, size: float) -> np.ndarray:
    beta = np.zeros(p)
    beta[rng.choice(p, size=count, replace=False)] = size * rng.choice((-1.0, 1.0), size=count)
    return beta


def gaussian_table(rng: np.random.Generator, n: int, p: int, rho: float = 0.5,
                   signals: int = 5, size: float = 6.0) -> tuple[list[str], np.ndarray]:
    """AR(1) design, ``signals`` coefficients of magnitude ``size``, unit noise."""
    X = _ar1_design(rng, n, p, rho)
    y = X @ _signals(rng, p, signals, size) + rng.standard_normal(n)
    return [f"x{j}" for j in range(p)] + ["y"], np.column_stack([X, y])


def logistic_table(rng: np.random.Generator, n: int, p: int, signals: int = 3,
                   size: float = 0.7) -> tuple[list[str], np.ndarray]:
    """Standard-normal design; Bernoulli response with logit X beta."""
    X = rng.standard_normal((n, p))
    eta = X @ _signals(rng, p, signals, size)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return [f"x{j}" for j in range(p)] + ["y"], np.column_stack([X, y])


def cox_table(rng: np.random.Generator, n: int, p: int, signals: int = 3,
              size: float = 0.7, censor_frac: float = 0.10) -> tuple[list[str], np.ndarray]:
    """Exponential event times with rate exp(X beta); independent exponential
    censoring that censors ``censor_frac`` of rate-1 events."""
    X = rng.standard_normal((n, p))
    event = rng.exponential(1.0, n) / np.exp(X @ _signals(rng, p, signals, size))
    censor = rng.exponential((1.0 - censor_frac) / censor_frac, n)
    time = np.minimum(event, censor)
    status = (event <= censor).astype(float)
    return [f"x{j}" for j in range(p)] + ["time", "status"], np.column_stack([X, time, status])


def write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header=",".join(header), comments="")
