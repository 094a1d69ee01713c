"""Scenario generators and the replication driver for calibration experiments.

Each scenario draws a design and response per replication, runs the
configured selector and test at one step, and aggregates the statistics into
Q-Q coordinates, a Kolmogorov-Smirnov distance against the reference
distribution, and a rejection rate at the 5% level.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .exceptions import InfeasibleDesignError, SigtestError
from .glm import BinaryDataset, SurvivalDataset, lrt_path
from .lasso import lars_path
from .linmodel import Dataset
from .selection import lasso_steps, stepwise_path
from .significance import covariance_test, gumbel_test, reference_pair

FAMILIES = ("gaussian", "logistic", "cox")
DESIGNS = ("orthogonal", "ar1", "iid_gaussian")
TESTS = ("gumbel", "covariance", "gumbel_glm")


@dataclass(frozen=True)
class Scenario:
    """Description of one Monte Carlo experiment."""

    family: str
    design: str
    n: int
    p: int
    test: str
    k: int = 1
    rho: float = 0.0
    beta: tuple[tuple[int, float], ...] = ()
    sigma: float = 1.0
    censor_frac: float = 0.0
    reps: int = 500
    seed: int = 1
    selector: str = "max_r"
    alpha: float = 0.05
    name: str = "custom"

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.test not in TESTS:
            raise ValueError(f"unknown test {self.test!r}")
        if self.n < 2 or self.p < 1:
            raise ValueError("need n >= 2 and p >= 1")
        if self.design == "orthogonal" and self.n < self.p:
            raise InfeasibleDesignError("orthogonal design requires n >= p")
        if self.design == "ar1" and not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.k < 1:
            raise ValueError("step index k must be at least 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.censor_frac < 1.0:
            raise ValueError("censor_frac must lie in [0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.selector not in ("max_r", "stepwise", "lasso"):
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.test in ("gumbel", "covariance") and self.family != "gaussian":
            raise ValueError(f"test {self.test!r} requires the gaussian family")
        if self.test == "gumbel_glm" and self.family == "gaussian":
            raise ValueError("gumbel_glm scenarios use the logistic or cox family")
        if self.family != "gaussian" and (self.selector != "max_r" or self.sigma != 1.0):
            raise ValueError("selector and sigma apply only to the gaussian family")
        if self.test == "covariance" and self.selector != "max_r":
            raise ValueError("selector does not apply to the covariance test")
        if self.family != "cox" and self.censor_frac != 0.0:
            raise ValueError("censor_frac applies only to the cox family")
        if self.design != "ar1" and self.rho != 0.0:
            raise ValueError("rho applies only to the ar1 design")
        # The Gaussian selection paths stop at min(n, p) entries; the
        # covariance test of step k also needs entry k + 1.
        entries = self.k + 1 if self.test == "covariance" else self.k
        if self.family == "gaussian" and entries > min(self.n, self.p):
            raise ValueError(f"step k={self.k} needs {entries} path entries, "
                             f"more than min(n, p) = {min(self.n, self.p)}")
        if self.test in ("gumbel", "gumbel_glm") and self.p - (self.k - 1) < 3:
            raise ValueError(
                f"step k={self.k} leaves fewer than 3 candidates out of p={self.p}")
        for idx, val in self.beta:
            if not 0 <= int(idx) < self.p:
                raise ValueError(f"beta index {idx} out of range")
            if not np.isfinite(val):
                raise ValueError("beta values must be finite")

    @property
    def reference(self) -> str:
        return "exp1" if self.test == "covariance" else "gumbel"

    def beta_dense(self) -> np.ndarray:
        out = np.zeros(self.p)
        for idx, val in self.beta:
            out[int(idx)] = float(val)
        return out

    def support(self) -> frozenset[int]:
        return frozenset(int(i) for i, v in self.beta if v != 0.0)


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    """Aggregated empirical-distribution diagnostics of one scenario."""

    scenario: Scenario
    statistics: np.ndarray
    qq: tuple[tuple[float, float], ...]
    ks: float
    rejection_rate_05: float
    failures: int
    failure_reasons: dict[str, int] = field(default_factory=dict)
    unreliable: bool = False
    signal_missed: int = 0

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "reps": self.scenario.reps,
            "ks": self.ks,
            "rejection_rate_05": self.rejection_rate_05,
            "failures": self.failures,
            "unreliable": self.unreliable,
            "failure_reasons": dict(sorted(self.failure_reasons.items())),
            "signal_missed": self.signal_missed,
        }


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent, platform-stable stream for one replication.

    PCG64 seeded by SeedSequence((seed, rep)); results depend only on the
    pair, never on execution order or thread count.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))


def gen_design(kind: str, n: int, p: int, rng: np.random.Generator,
               rho: float = 0.0) -> np.ndarray:
    """Draw a design matrix with unit-norm columns.

    orthogonal: exactly orthonormal columns (QR of a Gaussian matrix).
    ar1: rows i.i.d. mean-zero Gaussian with coordinate covariance
    rho^|i-j| (built by the stationary AR recursion, in place on the normal
    draw), columns rescaled to unit norm. iid_gaussian is the rho = 0 case of
    the same construction, where the recursion leaves the draw as it is and
    is skipped.
    """
    if kind == "orthogonal":
        if n < p:
            raise InfeasibleDesignError(f"orthogonal design needs n >= p, got {n} < {p}")
        raw = rng.standard_normal((n, p))
        q, _ = np.linalg.qr(raw)
        return q[:, :p]
    if kind in ("ar1", "iid_gaussian"):
        if kind == "iid_gaussian":
            rho = 0.0
        X = rng.standard_normal((n, p))
        if rho != 0.0:
            scale = np.sqrt(1.0 - rho * rho)
            for j in range(1, p):  # column j still holds its own draw z_j
                X[:, j] = rho * X[:, j - 1] + scale * X[:, j]
        norms = np.sqrt(np.einsum("ij,ij->j", X, X))
        return X / norms
    raise ValueError(f"unknown design kind {kind!r}")


def gen_response(scenario: Scenario, X: np.ndarray, rng: np.random.Generator):
    """Draw the response for one replication.

    gaussian: y = X b + sigma * noise. logistic: Bernoulli with logit X b.
    cox: event times exponential with rate exp(X b) and independent
    exponential censoring calibrated so the censoring probability equals
    censor_frac under rate-1 events.
    """
    eta = X @ scenario.beta_dense()
    if scenario.family == "gaussian":
        return eta + scenario.sigma * rng.standard_normal(scenario.n)
    if scenario.family == "logistic":
        prob = 1.0 / (1.0 + np.exp(-eta))
        return (rng.random(scenario.n) < prob).astype(float)
    if scenario.family == "cox":
        event = rng.exponential(1.0, scenario.n) / np.exp(eta)
        if scenario.censor_frac == 0.0:
            return event, np.ones(scenario.n)
        censor_rate = scenario.censor_frac / (1.0 - scenario.censor_frac)
        censor = rng.exponential(1.0 / censor_rate, scenario.n)
        time = np.minimum(event, censor)
        status = (event <= censor).astype(float)
        return time, status
    raise ValueError(f"unknown family {scenario.family!r}")


@dataclass(frozen=True)
class _RepOutcome:
    statistic: float | None
    p_value: float | None
    failure: str | None = None
    signal_missed: bool = False


def _replicate(scenario: Scenario, rep: int) -> _RepOutcome:
    rng = replication_rng(scenario.seed, rep)
    X = gen_design(scenario.design, scenario.n, scenario.p, rng, scenario.rho)
    try:
        response = gen_response(scenario, X, rng)
        if scenario.family == "logistic":
            steps = lrt_path(BinaryDataset(X, response), max_steps=scenario.k)
        elif scenario.family == "cox":
            steps = lrt_path(SurvivalDataset(X, *response), max_steps=scenario.k)
        else:
            data = Dataset(X, response, sigma2=scenario.sigma ** 2)
            if scenario.test == "covariance":
                path = lars_path(data, max_steps=scenario.k + 1)
                outcome = covariance_test(path, data, scenario.k, alpha=scenario.alpha)
            elif scenario.selector == "lasso":
                steps = lasso_steps(lars_path(data, max_steps=scenario.k), data)
            else:
                steps = stepwise_path(data, max_steps=scenario.k, selector=scenario.selector)
        if scenario.test != "covariance":
            if len(steps) < scenario.k:
                return _RepOutcome(None, None, failure="selection path truncated")
            outcome = gumbel_test(steps[scenario.k - 1], alpha=scenario.alpha)
    except SigtestError as exc:
        return _RepOutcome(None, None, failure=type(exc).__name__)
    support = scenario.support()
    missed = bool(support) and not support <= set(outcome.A)
    return _RepOutcome(outcome.statistic, outcome.p_value, signal_missed=missed)


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else SIGTEST_THREADS (0 = all cores), else 1."""
    if threads is None:
        env = os.environ.get("SIGTEST_THREADS", "").strip()
        threads = int(env) if env else 1
    if threads == 0:
        threads = os.cpu_count() or 1
    return max(1, threads)


def _order_statistics(statistics: Sequence[float]) -> np.ndarray:
    """The statistics sorted; a ValueError when there are none or one is not finite."""
    stats = np.sort(np.asarray(statistics, dtype=float))
    if stats.size == 0:
        raise ValueError("statistics must be nonempty")
    if not np.all(np.isfinite(stats)):
        raise ValueError("statistics must be finite")
    return stats


def qq_points(statistics: Sequence[float], reference: str) -> list[tuple[float, float]]:
    """Pairs (reference quantile at (i - 0.5)/N, ith order statistic)."""
    stats = _order_statistics(statistics)
    probs = (np.arange(1, stats.size + 1) - 0.5) / stats.size
    return list(zip(reference_pair(reference)[1](probs).tolist(), stats.tolist()))


def ks_distance(statistics: Sequence[float], reference: str) -> float:
    """Sup distance between the empirical CDF of the statistics and the reference."""
    stats = _order_statistics(statistics)
    n = stats.size
    cdf = reference_pair(reference)[0](stats)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def run_scenario(scenario: Scenario, threads: int | None = None) -> MonteCarloSummary:
    """Execute every replication and aggregate the diagnostics.

    Deterministic given the scenario (seed included): each replication's
    stream depends only on (seed, rep), and aggregation follows replication
    order regardless of worker count.
    """
    scenario.validate()
    workers = resolve_threads(threads)
    if workers == 1 or scenario.reps == 1:
        outcomes = [_replicate(scenario, r) for r in range(scenario.reps)]
    else:
        chunk = max(1, scenario.reps // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replicate, [scenario] * scenario.reps,
                                     range(scenario.reps), chunksize=chunk))

    stats = [o.statistic for o in outcomes if o.failure is None]
    reasons = dict(Counter(o.failure for o in outcomes if o.failure is not None))
    failures = sum(reasons.values())
    signal_missed = sum(1 for o in outcomes if o.signal_missed)
    if not stats:
        raise SigtestError("every replication failed; nothing to summarize")
    statistics = np.asarray(stats)
    pvals = np.asarray([o.p_value for o in outcomes if o.failure is None])
    return MonteCarloSummary(
        scenario=scenario,
        statistics=statistics,
        qq=tuple(qq_points(statistics, scenario.reference)),
        ks=ks_distance(statistics, scenario.reference),
        rejection_rate_05=float(np.mean(pvals <= 0.05)),
        failures=failures,
        failure_reasons=reasons,
        unreliable=bool(failures > 0.05 * scenario.reps),
        signal_missed=signal_missed,
    )


_SIGNAL = ((0, 6.0), (1, 6.0), (2, 6.0))

PRESETS: dict[str, Scenario] = {
    "fig1-left": Scenario(name="fig1-left", family="gaussian", design="orthogonal",
                          n=100, p=50, test="gumbel", k=1, reps=500, seed=7),
    "fig1-right": Scenario(name="fig1-right", family="gaussian", design="orthogonal",
                           n=100, p=50, beta=_SIGNAL, test="gumbel", k=4,
                           reps=500, seed=7),
    "fig2-left": Scenario(name="fig2-left", family="gaussian", design="ar1", rho=0.2,
                          n=100, p=50, beta=_SIGNAL, test="gumbel", k=4,
                          reps=500, seed=7),
    "fig2-right": Scenario(name="fig2-right", family="gaussian", design="ar1", rho=0.8,
                           n=100, p=50, beta=_SIGNAL, test="gumbel", k=4,
                           reps=500, seed=7),
    "fig3-left": Scenario(name="fig3-left", family="logistic", design="iid_gaussian",
                          n=100, p=50, test="gumbel_glm", k=1, reps=500, seed=23),
    "fig3-right": Scenario(name="fig3-right", family="cox", design="iid_gaussian",
                           n=100, p=50, censor_frac=0.10, test="gumbel_glm", k=1,
                           reps=500, seed=23),
    "cov-null": Scenario(name="cov-null", family="gaussian", design="orthogonal",
                         n=100, p=50, test="covariance", k=1, reps=500, seed=7),
    "cov-null-ar08": Scenario(name="cov-null-ar08", family="gaussian", design="ar1",
                              rho=0.8, n=100, p=50, test="covariance", k=1,
                              reps=500, seed=7),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset(name: str, seed: int | None = None) -> Scenario:
    """Look up a named scenario, optionally overriding its seed."""
    try:
        s = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None
    if seed is not None:
        s = replace(s, seed=seed)
    return s
