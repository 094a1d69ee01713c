"""Scenario generators and the replication driver for calibration experiments.

Each scenario draws a design and response per replication, runs the
configured selector and test at one step, and aggregates the statistics into
Q-Q coordinates, a Kolmogorov-Smirnov distance against the reference
distribution, and a rejection rate at the 5% level.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .exceptions import InfeasibleDesignError, SigtestError
from .glm import BinaryDataset, SurvivalDataset, _lrt_paths
from .lasso import lars_path
from .linmodel import Dataset
from .selection import SELECTORS, _stepwise_paths, lasso_steps
from .significance import _check_alpha, covariance_test, gumbel_test, reference_pair

FAMILIES = ("gaussian", "logistic", "cox")
DESIGNS = ("orthogonal", "ar1", "iid_gaussian")
TESTS = ("gumbel", "covariance", "gumbel_glm")
_TYPES = {"int": Integral, "float": Real, "str": str}  # a bool is no number here
AR1_BLOCK = 64  # columns per triangular product in gen_design("ar1")
STACK_ELEMENTS = 40_000  # the elements a block of replications may stack in one walk


def _has_type(value, kind: str) -> bool:
    """Whether a value fits a Scenario annotation ``kind``, or else beta's pairs."""
    if kind in _TYPES:
        return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)
    return isinstance(value, Sequence) and not isinstance(value, str) and all(
        isinstance(b, Sequence) and len(b) == 2 and _has_type(b[0], "int")
        and _has_type(b[1], "float") for b in value)


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

    def __post_init__(self) -> None:
        """The one contract: each field's type from its annotation, then the value rules."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ValueError(f"scenario field {f.name!r} must be {f.type}, got {value!r}")
            if f.type == "int":  # a numpy integer too, so that the JSON record takes it
                object.__setattr__(self, f.name, int(value))
        for name, allowed in (("family", FAMILIES), ("design", DESIGNS), ("test", TESTS),
                              ("selector", SELECTORS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if self.n < 2 or self.p < 1:
            raise ValueError("need n >= 2 and p >= 1")
        if self.design == "orthogonal" and self.n < self.p:
            raise InfeasibleDesignError("orthogonal design requires n >= p")
        if self.design == "ar1" and not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.k < 1:
            raise ValueError("step index k must be at least 1")
        # Not sigma ** 2, which raises OverflowError; an integer's square may exceed every float.
        if not (self.sigma > 0 and 0.0 < self.sigma * self.sigma <= sys.float_info.max):
            raise ValueError("sigma must be positive, with a finite and nonzero square")
        if not 0.0 <= self.censor_frac < 1.0:
            raise ValueError("censor_frac must lie in [0, 1)")
        _check_alpha(self.alpha)
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
            if not 0 <= idx < self.p:
                raise ValueError(f"beta index {idx} out of range")
            if [i for i, _v in self.beta].count(idx) > 1:
                raise ValueError(f"beta index {idx} is repeated")
            if not abs(val) <= sys.float_info.max:  # nan, inf and an int beyond every float fail
                raise ValueError("beta values must be finite")
        # Unit-norm columns give |eta_i| <= S = sum |beta_j|. numpy's Exp(1) draws E lie in
        # [7.09e-18, 44.43] (or are 0, with chance below 2^-53), so each cox time E / exp(eta_i)
        # is in (0, inf) iff 44.43 e^S < 2^1024 (S < 705.99) and 7.09e-18 e^-S > 2^-1075 (705.645).
        S = sum(abs(val) for _idx, val in self.beta)
        if self.family == "cox" and S > 705:
            raise ValueError("cox beta needs sum |beta_j| <= 705 for finite, positive event times")
        # Gaussian: ||X beta|| <= S and numpy's normal draws lie in +-12.23 (the ziggurat tail's
        # 3.654 + x, x^2 < 106 log 2), so ||y|| <= S + 12.23 sqrt(n) sigma, and every drop and
        # statistic, at most 2 ||y||^2 / min(1, sigma)^2, stays below 2^1015, 2^9 under overflow.
        if self.family == "gaussian" and not (S + 13 * self.n**0.5 * self.sigma) / min(
                1.0, self.sigma) <= 2.0**507:
            raise ValueError("gaussian beta and sigma need (sum |beta_j| + 13 sqrt(n) sigma)"
                             " / min(1, sigma) <= 2^507 for finite statistics")
        object.__setattr__(self, "beta", tuple((int(i), float(v)) for i, v in self.beta))

    @property
    def reference(self) -> str:
        return "exp1" if self.test == "covariance" else "gumbel"

    def beta_dense(self) -> np.ndarray:
        out = np.zeros(self.p)
        for idx, val in self.beta:
            out[idx] = val
        return out

    def support(self) -> frozenset[int]:
        return frozenset(i for i, v in self.beta if v != 0.0)


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    """Aggregated empirical-distribution diagnostics of one scenario. The
    fields after ``qq`` are the JSON record's, in its order."""

    scenario: Scenario
    statistics: np.ndarray
    qq: tuple[tuple[float, float], ...]
    ks: float
    rejection_rate_05: float
    rejection_rate: float
    failures: int
    unreliable: bool = False
    failure_reasons: dict[str, int] = field(default_factory=dict)
    signal_missed: int = 0

    def to_json_dict(self) -> dict:
        """The record: the scenario's name and reps, then the fields after
        ``qq``, with the failure reasons sorted by name."""
        record = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("scenario", "statistics", "qq")}
        return {"scenario": self.scenario.name, "reps": self.scenario.reps, **record,
                "failure_reasons": dict(sorted(self.failure_reasons.items()))}


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
    rho^|i-j|, columns rescaled to unit norm. The stationary AR recursion
    x_0 = z_0, x_j = rho x_{j-1} + s z_j (s = sqrt(1 - rho^2)) unrolls to
    x_j = rho^j z_0 + s sum_{1<=k<=j} rho^(j-k) z_k: a triangular Toeplitz
    product T[k, j] = rho^(j-k) (k <= j) on the draw with columns 1.. scaled
    by s, taken in blocks of at most AR1_BLOCK columns. A later block's
    product also takes the last column of the block before, as its first
    column, whose row of T holds rho^1..rho^b. iid_gaussian is the rho = 0
    case of the same construction, where the product leaves the draw as it
    is and is skipped.
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
            X[:, 1:] *= np.sqrt(1.0 - rho * rho)
            b = min(p, AR1_BLOCK)
            lags = np.arange(b + 1) - np.arange(b + 1)[:, None]  # j - k; T is 0 below the diagonal
            T = np.concatenate([np.zeros(b), rho ** np.arange(b + 1)])[lags + b]
            for s in range(0, p, b):
                w, c = min(b, p - s), int(s > 0)  # c: the carried column x_{s-1} comes first
                X[:, s:s + w] = X[:, s - c:s + w] @ T[:w + c, c:w + c]
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
        with np.errstate(over="ignore"):  # exp overflows to inf: prob is exactly 0
            prob = 1.0 / (1.0 + np.exp(-eta))
        return (rng.random(scenario.n) < prob).astype(float)
    event = rng.exponential(1.0, scenario.n) / np.exp(eta)  # cox
    if scenario.censor_frac == 0.0:
        return event, np.ones(scenario.n)
    censor_rate = scenario.censor_frac / (1.0 - scenario.censor_frac)
    censor = rng.exponential(1.0 / censor_rate, scenario.n)
    time = np.minimum(event, censor)
    status = (event <= censor).astype(float)
    return time, status


@dataclass(frozen=True)
class _RepOutcome:
    statistic: float | None
    p_value: float | None
    failure: str | None = None
    signal_missed: bool = False


def _replicate(scenario: Scenario, reps: range) -> list[_RepOutcome]:
    """The outcomes of replications reps, each drawn from its own stream; the
    greedy paths of the draws are traced in one lockstep walk, each as
    ``lrt_path`` or ``stepwise_path`` traces it alone."""
    outcomes, drawn, k = {}, {}, scenario.k
    for rep in reps:
        rng = replication_rng(scenario.seed, rep)
        X = gen_design(scenario.design, scenario.n, scenario.p, rng, scenario.rho)
        try:
            response = gen_response(scenario, X, rng)
            if scenario.family == "logistic":
                drawn[rep] = BinaryDataset(X, response)
            elif scenario.family == "cox":
                drawn[rep] = SurvivalDataset(X, *response)
            else:
                data = Dataset(X, response, sigma2=scenario.sigma ** 2)
                if scenario.test == "covariance":
                    outcomes[rep] = _outcome(scenario, covariance_test(
                        lars_path(data, max_steps=k + 1), k, alpha=scenario.alpha))
                elif scenario.selector == "lasso":
                    outcomes[rep] = _outcome(scenario, lasso_steps(lars_path(data, max_steps=k)))
                else:
                    drawn[rep] = data
        except SigtestError as exc:
            outcomes[rep] = _RepOutcome(None, None, failure=type(exc).__name__)
    if drawn:
        paths = (_lrt_paths(list(drawn.values()), max_steps=k) if scenario.family != "gaussian"
                 else _stepwise_paths(list(drawn.values()), k, scenario.selector))
        for rep, steps in zip(drawn, paths):
            outcomes[rep] = _outcome(scenario, steps)
    return [outcomes[rep] for rep in reps]


def _outcome(scenario: Scenario, result) -> _RepOutcome:
    """A replication's outcome from its selection steps, covariance test
    outcome or the error its selection path raised."""
    if isinstance(result, SigtestError):
        return _RepOutcome(None, None, failure=type(result).__name__)
    try:
        if scenario.test != "covariance":
            if len(result) < scenario.k:
                return _RepOutcome(None, None, failure="selection path truncated")
            result = gumbel_test(result[scenario.k - 1], alpha=scenario.alpha)
    except SigtestError as exc:
        return _RepOutcome(None, None, failure=type(exc).__name__)
    support = scenario.support()
    missed = bool(support) and not support <= set(result.A)
    return _RepOutcome(result.statistic, result.p_value, signal_missed=missed)


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else SIGTEST_THREADS (0 = all cores), else 1;
    a ValueError naming its source when that is not a non-negative integer."""
    source = "threads"
    if threads is None:
        source, env = "SIGTEST_THREADS", os.environ.get("SIGTEST_THREADS", "").strip() or "1"
        threads = int(env) if env.isdecimal() else env
    if not _has_type(threads, "int") or threads < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {threads!r}")
    return threads or os.cpu_count() or 1


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
    order regardless of worker count. Replications go in fixed blocks of
    consecutive replications, as many as keep a block's stack within
    STACK_ELEMENTS, whatever the worker count, and workers take whole blocks.
    The greedy paths of a block share one stack per step: a logistic or Cox
    step fits the candidates of every path in one Newton stack, a Gaussian
    max_r or stepwise step takes every path's X'r in one product. A dataset's
    rows compute in a block what they compute alone, so each statistic is the
    one ``lrt_path`` or ``stepwise_path`` gives on the same draw.
    """
    workers = resolve_threads(threads)
    # A GLM step stacks at most p candidates of k + 1 columns of n observations each; a
    # Gaussian walk stacks one n x p design per replication.
    per_rep = scenario.n * scenario.p * (1 if scenario.family == "gaussian" else scenario.k + 1)
    size = max(1, STACK_ELEMENTS // per_rep)
    blocks = [range(r, min(r + size, scenario.reps)) for r in range(0, scenario.reps, size)]
    if workers == 1 or len(blocks) == 1:
        outcomes = [o for block in blocks for o in _replicate(scenario, block)]
    else:
        chunk = max(1, len(blocks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for block in pool.map(_replicate, [scenario] * len(blocks), blocks,
                                                chunksize=chunk) for o in block]

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
        rejection_rate=float(np.mean(pvals <= scenario.alpha)),
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
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return PRESETS[name] if seed is None else replace(PRESETS[name], seed=seed)
