import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gumbel_cdf_direct
from sigtest import (
    InfeasibleDesignError,
    Scenario,
    BinaryDataset,
    Dataset,
    PathTruncationWarning,
    SigtestError,
    SingularDesignError,
    SurvivalDataset,
    gen_design,
    gen_response,
    gumbel_test,
    ks_distance,
    preset,
    preset_names,
    qq_points,
    run_scenario,
    stepwise_path,
)
from sigtest import montecarlo
from sigtest.glm import lrt_path
from sigtest.montecarlo import replication_rng, resolve_threads
from sigtest.selection import _stepwise_paths
from sigtest.significance import exp1_quantile, gumbel_quantile


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestGenDesign:
    def test_orthogonal_columns(self):
        X = gen_design("orthogonal", 100, 50, rng_for(1))
        gram = X.T @ X
        assert np.abs(gram - np.eye(50)).max() < 1e-10

    def test_orthogonal_infeasible(self):
        with pytest.raises(InfeasibleDesignError):
            gen_design("orthogonal", 10, 20, rng_for(1))

    def test_ar1_adjacent_correlation(self):
        X = gen_design("ar1", 5000, 30, rng_for(2), rho=0.8)
        corrs = [np.corrcoef(X[:, j], X[:, j + 1])[0, 1] for j in range(29)]
        assert abs(np.mean(corrs) - 0.8) < 0.05

    def test_ar1_zero_equals_iid_same_stream(self):
        a = gen_design("ar1", 40, 8, rng_for(3), rho=0.0)
        b = gen_design("iid_gaussian", 40, 8, rng_for(3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rho", [-0.9, 0.2, 0.8, 0.99])
    @pytest.mark.parametrize("p", [1, 2, 64, 65, 130])
    def test_ar1_matches_the_column_recursion(self, p, rho):
        # Independent of the blocked product: x_0 = z_0, x_j = rho x_{j-1} +
        # sqrt(1 - rho^2) z_j column by column, on the same stream, then unit norms.
        X = gen_design("ar1", 40, p, rng_for(9), rho=rho)
        Z = rng_for(9).standard_normal((40, p))
        for j in range(1, p):
            Z[:, j] = rho * Z[:, j - 1] + math.sqrt(1.0 - rho * rho) * Z[:, j]
        Z /= np.linalg.norm(Z, axis=0)
        assert np.abs(X - Z).max() <= 1e-14 * np.abs(Z).max()

    def test_unit_norm_columns(self):
        for kind, rho in (("ar1", 0.5), ("iid_gaussian", 0.0), ("orthogonal", 0.0)):
            X = gen_design(kind, 60, 10, rng_for(4), rho=rho)
            np.testing.assert_allclose(np.einsum("ij,ij->j", X, X), 1.0, atol=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_design("hadamard", 10, 2, rng_for(0))


class TestGenResponse:
    def test_gaussian_null_variance_band(self):
        s = Scenario(family="gaussian", design="orthogonal", n=100, p=50,
                     test="gumbel", seed=5)
        X = gen_design("orthogonal", 100, 50, rng_for(5))
        y = gen_response(s, X, rng_for(5))
        assert 0.7 <= y.var() <= 1.3

    def test_gaussian_signal_mean_structure(self):
        s = Scenario(family="gaussian", design="orthogonal", n=100, p=50,
                     test="gumbel", beta=((0, 6.0),), sigma=0.01, seed=6)
        X = gen_design("orthogonal", 100, 50, rng_for(6))
        y = gen_response(s, X, rng_for(6))
        np.testing.assert_allclose(y, 6.0 * X[:, 0], atol=0.1)

    def test_logistic_null_mean_band(self):
        s = Scenario(family="logistic", design="iid_gaussian", n=100, p=50,
                     test="gumbel_glm", seed=7)
        X = gen_design("iid_gaussian", 100, 50, rng_for(7))
        y = gen_response(s, X, rng_for(7))
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert 0.35 <= y.mean() <= 0.65

    def test_cox_censoring_fraction(self):
        s = Scenario(family="cox", design="iid_gaussian", n=100, p=50,
                     test="gumbel_glm", censor_frac=0.10, seed=8)
        X = gen_design("iid_gaussian", 100, 50, rng_for(8))
        time, status = gen_response(s, X, rng_for(8))
        assert np.all(time > 0)
        frac_censored = 1.0 - status.mean()
        assert 0.03 <= frac_censored <= 0.20

    def test_cox_no_censoring(self):
        s = Scenario(family="cox", design="iid_gaussian", n=50, p=50,
                     test="gumbel_glm", censor_frac=0.0, seed=9)
        X = gen_design("iid_gaussian", 50, 50, rng_for(9))
        time, status = gen_response(s, X, rng_for(9))
        assert status.min() == 1.0

    def test_cox_censoring_rate_calibration(self):
        # P(censoring wins) = rate_c / (1 + rate_c) must equal censor_frac.
        s = Scenario(family="cox", design="iid_gaussian", n=200_000, p=3,
                     test="gumbel_glm", censor_frac=0.10, seed=10)
        X = np.zeros((200_000, 3))
        time, status = gen_response(s, X, rng_for(10))
        assert abs((1.0 - status.mean()) - 0.10) < 0.005

    def test_unknown_family(self):
        # No scenario with another family exists for gen_response to draw for.
        with pytest.raises(ValueError, match="^unknown family 'poisson'$"):
            replace(preset("fig1-left"), family="poisson")

    def test_logistic_overflow_is_silent_and_exact(self):
        # exp(-eta) overflows where eta < -709.8: there the probability is exactly 0.
        s = Scenario(family="logistic", design="iid_gaussian", n=40, p=10, test="gumbel_glm",
                     beta=((0, 5000.0), (1, -5000.0)))
        X = gen_design("iid_gaussian", 40, 10, rng_for(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = gen_response(s, X, rng_for(4))
        with np.errstate(over="ignore"):
            prob = 1.0 / (1.0 + np.exp(-(X @ s.beta_dense())))
        assert prob.min() == 0.0 and prob.max() == 1.0
        np.testing.assert_array_equal(y, (rng_for(4).random(40) < prob).astype(float))


class TestReplicationRng:
    def test_streams_depend_only_on_pair(self):
        a = replication_rng(42, 3).standard_normal(5)
        b = replication_rng(42, 3).standard_normal(5)
        c = replication_rng(42, 4).standard_normal(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestQQPoints:
    def test_three_point_gumbel_quantiles(self):
        pairs = qq_points([0.0, 1.0, -1.0], "gumbel")
        theo = [p[0] for p in pairs]
        np.testing.assert_allclose(
            theo, [gumbel_quantile(1 / 6), gumbel_quantile(0.5), gumbel_quantile(5 / 6)],
            atol=1e-12)
        assert theo[1] == pytest.approx(-0.41170, abs=1e-4)

    def test_diagonal_when_statistics_are_quantiles(self):
        n = 25
        stats = [gumbel_quantile((i - 0.5) / n) for i in range(1, n + 1)]
        for theo, emp in qq_points(stats, "gumbel"):
            assert emp == pytest.approx(theo, abs=1e-12)

    def test_sorted_in_both_coordinates(self):
        rng = rng_for(11)
        pairs = qq_points(rng.standard_normal(40), "gumbel")
        theo = [p[0] for p in pairs]
        emp = [p[1] for p in pairs]
        assert theo == sorted(theo)
        assert emp == sorted(emp)

    def test_empty_rejected(self):
        for fn in (qq_points, ks_distance):
            with pytest.raises(ValueError, match="^statistics must be nonempty$"):
                fn([], "gumbel")

    def test_exp1_median(self):
        pairs = qq_points([0.4], "exp1")
        assert pairs[0][0] == pytest.approx(math.log(2), abs=1e-12)

    def test_glivenko_cantelli_shrinks(self):
        # Max Q-Q gap for true Gumbel draws shrinks as N grows.
        gaps = []
        for n in (50, 500, 5000):
            u = rng_for(12).uniform(1e-9, 1 - 1e-9, n)
            draws = [gumbel_quantile(p) for p in u]
            gaps.append(max(abs(t - e) for t, e in qq_points(draws, "gumbel")))
        assert gaps[0] > gaps[1] > gaps[2]


class TestKsDistance:
    def test_single_point_at_median(self):
        assert ks_distance([gumbel_quantile(0.5)], "gumbel") == pytest.approx(0.5, abs=1e-12)

    def test_quantile_positioned_statistics(self):
        for n in (4, 20, 100):
            stats = [gumbel_quantile((i - 0.5) / n) for i in range(1, n + 1)]
            assert ks_distance(stats, "gumbel") == pytest.approx(0.5 / n, abs=1e-12)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = rng_for(13)
        draws = rng.gumbel(-math.log(math.pi), 2.0, size=200)
        ours = ks_distance(draws, "gumbel")
        ref = scipy_stats.kstest(
            draws, lambda x: np.exp(-np.exp(-(x + math.log(math.pi)) / 2))).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, values):
        d = ks_distance(values, "gumbel")
        assert 0.0 <= d <= 1.0

    def test_nonfinite_rejected(self):
        # qq_points validates as ks_distance does.
        for fn in (ks_distance, qq_points):
            for bad in ([np.nan], [0.5, np.nan, 1.2], [0.5, np.inf], [-np.inf, 1.0]):
                with pytest.raises(ValueError, match="^statistics must be finite$"):
                    fn(bad, "gumbel")


# Reference CDFs evaluated one statistic at a time, independently of the library.
ORACLE_CDF = {"gumbel": gumbel_cdf_direct,
              "exp1": lambda x: 1.0 - math.exp(-x) if x > 0 else 0.0}


class TestVectorisedReferences:
    # Gumbel draws cover both branches of the Exp(1) CDF (negative and positive).
    STATS = np.sort(rng_for(21).gumbel(-math.log(math.pi), 2.0, size=10_000))

    @pytest.mark.parametrize("reference", ["gumbel", "exp1"])
    def test_ks_distance_matches_per_element(self, reference):
        n = self.STATS.size
        cdf = np.array([ORACLE_CDF[reference](float(x)) for x in self.STATS])
        expect = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks_distance(self.STATS[::-1], reference) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("reference", ["gumbel", "exp1"])
    def test_qq_points_match_per_element(self, reference):
        pairs = qq_points(self.STATS[::-1], reference)
        n = self.STATS.size
        assert all(type(t) is float and type(e) is float for t, e in pairs)
        assert [e for _, e in pairs] == self.STATS.tolist()
        back = [ORACLE_CDF[reference](t) for t, _ in pairs]
        np.testing.assert_allclose(back, (np.arange(1, n + 1) - 0.5) / n, rtol=0, atol=1e-15)

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="unknown reference"):
            ks_distance([1.0], "normal")
        with pytest.raises(ValueError, match="unknown reference"):
            qq_points([1.0], "normal")


class TestCoxSignalBound:
    """A cox scenario needs sum |beta_j| <= 705, so that every event time
    E / exp(eta_i) stays in (0, inf) for every Exp(1) draw E numpy can make."""

    @staticmethod
    def exponential_after(first: int, second: int) -> float:
        """Generator.exponential's draw when PCG64's next two outputs are first and
        second: a state whose high half is 0 outputs its low half, and the
        increment of the step from one state to the next is free to choose."""
        mult = (2549297995355413924 << 64) + 4865540595714422341
        inc = (second - first * mult) % 2**128
        bits = np.random.PCG64()
        start = (first - inc) * pow(mult, -1, 2**128) % 2**128
        bits.state = {**bits.state, "state": {"state": start, "inc": inc}}
        return float(np.random.Generator(bits).exponential(1.0, 1)[0])

    def test_extreme_draws_fit_the_bound(self):
        # The largest draw is the ziggurat tail's (layer 0, 1 - U = 2^-53); the
        # smallest positive one is a layer's width times 1.
        top = self.exponential_after(((1 << 53) - 1) << 11, (1 << 64) - 1)
        low = min(self.exponential_after((256 | layer) << 3, 1) for layer in range(256))
        assert (low, top) == pytest.approx((7.09e-18, 44.43), rel=1e-3)
        with np.errstate(over="ignore", under="ignore"):
            for eta in (705.0, -705.0):
                assert 0.0 < low / np.exp(eta) and top / np.exp(eta) < np.inf
            assert low / np.exp(745.7) == 0.0 and top / np.exp(-706.0) == np.inf

    @pytest.mark.parametrize("beta", [((0, 2000.0),), ((0, 5000.0),), ((0, -5000.0),),
                                      ((0, 400.0), (1, -305.5))])
    def test_larger_signal_rejected(self, beta):
        # Unchecked, these ran into "all times must be positive" or "time
        # contains non-finite entries", fields the scenario never set.
        with pytest.raises(ValueError, match=r"^cox beta needs sum \|beta_j\| <= 705 "):
            replace(preset("fig3-right"), beta=beta)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_signal_at_the_bound_draws_positive_finite_times(self, sign):
        s = replace(preset("fig3-right"), beta=((0, sign * 400.0), (1, sign * 305.0)),
                    censor_frac=0.0)  # a censoring time would hide an infinite event time
        X = np.eye(100)[:, :50]
        X[:, 1] = X[:, 0]  # unit columns with eta_0 = +-705, the bound
        for seed in range(20):
            time, _status = gen_response(s, X, rng_for(seed))
            assert np.all((time > 0) & np.isfinite(time))
        replace(preset("fig3-left"), beta=((0, sign * 5000.0),))  # logistic: not bounded


class TestGaussianScaleBound:
    """A gaussian scenario needs (sum |beta_j| + 13 sqrt(n) sigma) / min(1, sigma)
    <= 2^507, so that every drop and statistic is finite."""

    @pytest.mark.parametrize("fields", [
        {"sigma": 1e152}, {"beta": ((0, 5e152),)}, {"beta": ((0, 1e100),), "sigma": 1e-100},
        {"beta": ((0, 1e10),), "sigma": 1e-150}])
    def test_beyond_the_bound_rejected(self, fields):
        with pytest.raises(ValueError, match=r"^gaussian beta and sigma need \(sum \|beta_j\| "):
            replace(preset("fig1-right"), **fields)

    def test_largest_scale_runs_without_overflow(self):
        # n = 100: 13 sqrt(n) sigma + 18 is 4.16e152, just below 2^507 = 4.19e152.
        s = replace(preset("fig1-right"), sigma=3.2e150, reps=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary = run_scenario(s)
        assert summary.failures == 0 and np.all(np.isfinite(summary.statistics))
        with pytest.raises(ValueError, match="^gaussian beta and sigma need"):
            replace(s, sigma=3.3e150)


class TestScenarioValidation:
    def test_presets_all_validate(self):
        for name in preset_names():
            assert replace(preset(name)) == preset(name)  # rebuilt, so checked again

    def test_preset_seed_override(self):
        assert preset("fig1-left", seed=99).seed == 99

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("fig9-left")

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError):
            replace(preset("fig1-left"), reps=0)

    def test_family_test_compatibility(self):
        with pytest.raises(ValueError):
            replace(preset("fig1-left"), family="logistic")

    @pytest.mark.parametrize("fields", [{"selector": "lasso"}, {"sigma": 5.0},
                                        {"selector": "lasso", "sigma": 5.0}])
    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_gaussian_fields_rejected_for_glm_families(self, family, fields):
        # _replicate would ignore both for the likelihood-ratio path.
        base = dict(family=family, design="iid_gaussian", n=40, p=10, test="gumbel_glm", reps=3)
        with pytest.raises(ValueError, match="only to the gaussian family"):
            Scenario(**base, **fields)
        Scenario(**base, **{**fields, "selector": "max_r", "sigma": 1.0})

    def test_beta_index_range(self):
        with pytest.raises(ValueError):
            replace(preset("fig1-left"), beta=((60, 1.0),))

    @pytest.mark.parametrize("name, fields, message", [
        ("fig1-left", {"family": "poisson"}, "unknown family 'poisson'"),
        ("fig1-left", {"design": "toeplitz"}, "unknown design 'toeplitz'"),
        ("fig1-left", {"test": "wald"}, "unknown test 'wald'"),
        ("fig1-left", {"n": 1}, "need n >= 2 and p >= 1"),
        ("fig1-left", {"p": 0}, "need n >= 2 and p >= 1"),
        ("fig2-left", {"rho": 1.0}, r"rho must lie in \(-1, 1\)"),
        ("fig1-left", {"k": 0}, "step index k must be at least 1"),
        ("fig1-left", {"sigma": 0.0}, "sigma must be positive"),
        ("fig3-right", {"censor_frac": 1.0}, r"censor_frac must lie in \[0, 1\)"),
        ("fig1-left", {"alpha": 1.0}, r"alpha must lie in \(0, 1\)"),
        ("fig1-left", {"selector": "forward"}, "unknown selector 'forward'"),
        ("fig1-left", {"test": "gumbel_glm"}, "gumbel_glm scenarios use the logistic or cox"),
        ("fig1-right", {"beta": ((0, math.nan),)}, "beta values must be finite"),
        ("fig1-left", {"sigma": -1.0}, "sigma must be positive"),
        ("fig1-left", {"sigma": 1e200}, "sigma must be positive, with a finite and nonzero"),
        ("fig1-left", {"sigma": 1e-170}, "sigma must be positive, with a finite and nonzero"),
        ("fig1-left", {"sigma": math.nan}, "sigma must be positive"),
        ("fig1-left", {"seed": -1}, "seed must be a non-negative integer$"),
        ("fig1-right", {"beta": ((0, 6.0), (1, 6.0), (0, 3.0))}, "beta index 0 is repeated$"),
    ])
    def test_rejections(self, name, fields, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(preset(name), **fields)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5),
        ("reps", 2.5),
        ("n", True),
        ("name", 3),
        ("beta", ((math.inf, 6.0),)),
        ("beta", ((1.5, 6.0),)),
        ("beta", ((0, "6"),)),
        ("beta", (0, 6.0)),
        ("rho", "0.2"),
        ("sigma", False),
    ], ids=["seed-1.5", "reps-2.5", "n-True", "name-3", "beta-index-inf", "beta-index-1.5",
            "beta-value-str", "beta-flat", "rho-str", "sigma-False"])
    def test_mistyped_field_rejected(self, field, value):
        # Unchecked, seed=1.5 and reps=2.5 fail as a TypeError deep in numpy or range,
        # and an index of inf as an OverflowError.
        with pytest.raises(ValueError, match=rf"^scenario field {field!r} must be .+, "
                                             rf"got {re.escape(repr(value))}$"):
            replace(preset("fig1-right"), **{field: value})

    def test_numpy_integers_accepted(self):
        s = replace(preset("fig1-right"), n=np.int64(100), seed=np.int64(3),
                    beta=((np.int64(0), np.float64(6.0)), (1, 6)))
        assert (s.n, s.seed, s.beta) == (100, 3, ((0, 6.0), (1, 6.0)))
        assert all(type(v) is int for v in (s.n, s.seed, s.beta[0][0], s.beta[1][0]))
        assert all(type(v) is float for _i, v in s.beta)
        assert s.beta_dense()[:3].tolist() == [6.0, 6.0, 0.0] and s.support() == {0, 1}
        assert s == replace(preset("fig1-right"), seed=3, beta=((0, 6.0), (1, 6.0)))

    def test_large_sigma_with_finite_square_runs(self):
        summary = run_scenario(replace(preset("fig1-left"), sigma=1e150, reps=2))
        assert len(summary.statistics) == 2

    @pytest.mark.parametrize("name, fields, message", [
        ("cov-null", {"selector": "lasso"}, "selector does not apply to the covariance test"),
        ("cov-null", {"selector": "stepwise"}, "selector does not apply to the covariance test"),
        ("fig1-left", {"censor_frac": 0.1}, "censor_frac applies only to the cox family"),
        ("fig3-left", {"censor_frac": 0.1}, "censor_frac applies only to the cox family"),
        ("fig1-left", {"rho": 0.7}, "rho applies only to the ar1 design"),
        ("fig3-left", {"rho": 0.5}, "rho applies only to the ar1 design"),
    ])
    def test_fields_a_replication_never_reads_rejected(self, name, fields, message):
        # Each would run with the field silently ignored.
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(preset(name), **fields)
        replace(preset(name))


class SerialPool:
    """A stand-in for ProcessPoolExecutor that maps in this process, so that
    the blocks handed to the workers can be recorded."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def block_boundaries(scenario, threads, monkeypatch):
    """The blocks of replications run_scenario hands to _replicate."""
    blocks, replicate = [], montecarlo._replicate
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        patch.setattr(montecarlo, "_replicate",
                      lambda scenario, reps: blocks.append(reps) or replicate(scenario, reps))
        run_scenario(scenario, threads=threads)
    return blocks


class TestGaussianBlocks:
    """A block of max_r or stepwise replications walks its greedy paths in
    lockstep; each dataset must get what stepwise_path gives it alone."""

    @pytest.mark.parametrize("name", ["fig1-left", "fig1-right", "fig2-left", "fig2-right"])
    def test_block_statistics_are_the_lone_ones(self, name):
        s = replace(preset(name), reps=37)
        alone = []
        for rep in range(s.reps):
            rng = replication_rng(s.seed, rep)
            X = gen_design(s.design, s.n, s.p, rng, s.rho)
            data = Dataset(X, gen_response(s, X, rng), sigma2=s.sigma ** 2)
            steps = stepwise_path(data, max_steps=s.k, selector=s.selector)
            alone.append(gumbel_test(steps[s.k - 1], alpha=s.alpha).statistic)
        summary = run_scenario(s, threads=1)
        assert summary.failures == 0
        np.testing.assert_array_equal(summary.statistics, alone)

    def test_truncated_and_rank_deficient_paths_leave_the_walk(self):
        rng = np.random.default_rng(4)
        n, p, steps = 30, 8, 5
        datasets = []
        for _ in range(5):
            X = rng.standard_normal((n, p))
            datasets.append(Dataset(X, X[:, 0] + rng.standard_normal(n), sigma2=1.0))
        # y in the span of columns 0 and 1: no candidate reduces the residual at step 3.
        X = rng.standard_normal((n, p))
        datasets.insert(1, Dataset(X, 2.0 * X[:, 0] - X[:, 1], sigma2=0.5))
        # Column 0 is 1e11 the scale of the others. Column 3 enters after it,
        # its diagonal of R below RANK_TOL times column 0's: the append fails.
        X = rng.standard_normal((n, p))
        y = 10.0 * X[:, 0] + 3.0 * X[:, 3] + 0.1 * rng.standard_normal(n)
        X[:, 0] *= 1e11
        datasets.insert(4, Dataset(X, y, sigma2=2.0))
        with pytest.warns(PathTruncationWarning, match="stopped at step 3") as caught:
            walked = _stepwise_paths(datasets, steps, "max_r")
        assert len(caught) == 1
        assert [type(path) for path in walked].count(SingularDesignError) == 1
        s = Scenario(name="block", family="gaussian", design="iid_gaussian", n=n, p=p,
                     test="gumbel", k=steps)
        for i, (data, got) in enumerate(zip(datasets, walked)):
            try:
                with warnings.catch_warnings(record=True) as lone_warnings:
                    warnings.simplefilter("always")
                    alone = stepwise_path(data, max_steps=steps, selector="max_r")
            except SingularDesignError as exc:
                assert i == 4 and type(got) is SingularDesignError and str(got) == str(exc)
                assert str(exc) == "columns [0, 3] are linearly dependent"
                assert montecarlo._outcome(s, got) == montecarlo._RepOutcome(
                    None, None, failure="SingularDesignError")
                continue
            assert [str(w.message) for w in lone_warnings] == (
                ["selection stopped at step 3: residual orthogonal to all candidates"]
                if i == 1 else [])
            assert len(got) == len(alone) == (2 if i == 1 else steps)
            for mine, lone in zip(got, alone):
                assert (mine.k, mine.A, mine.j, mine.selector) == (
                    lone.k, lone.A, lone.j, lone.selector)
                assert mine.drops.tobytes() == lone.drops.tobytes()
            assert montecarlo._outcome(s, got) == montecarlo._outcome(s, alone)


class TestRunScenario:
    def test_determinism_serial(self):
        s = replace(preset("fig1-left"), reps=20)
        a = run_scenario(s)
        b = run_scenario(s)
        np.testing.assert_array_equal(a.statistics, b.statistics)
        assert a.ks == b.ks

    def test_parallel_matches_serial(self, monkeypatch):
        # Blocks of 8 (40,000 stacked elements over n p = 5,000), the last one
        # short, whatever the worker count.
        for name, reps in (("fig1-left", 24), ("fig2-right", 37)):
            s = replace(preset(name), reps=reps)
            serial = run_scenario(s, threads=1)
            parallel = run_scenario(s, threads=4)
            np.testing.assert_array_equal(serial.statistics, parallel.statistics)
            assert serial.ks == parallel.ks
            assert (block_boundaries(s, 1, monkeypatch) == block_boundaries(s, 4, monkeypatch)
                    == [range(r, min(r + 8, reps)) for r in range(0, reps, 8)])

    @pytest.mark.parametrize("name", ["fig3-left", "fig3-right"])
    def test_glm_parallel_matches_serial(self, name, monkeypatch):
        # 37 replications: nine blocks of 4, then one of 1, whatever the worker count.
        s = replace(preset(name), reps=37)
        assert (block_boundaries(s, 1, monkeypatch) == block_boundaries(s, 4, monkeypatch)
                == [range(r, min(r + 4, 37)) for r in range(0, 37, 4)])
        serial = run_scenario(s, threads=1)
        parallel = run_scenario(s, threads=4)
        np.testing.assert_array_equal(serial.statistics, parallel.statistics)
        assert serial.ks == parallel.ks
        assert serial.failure_reasons == parallel.failure_reasons

    def test_single_rep_degenerate_ks(self):
        s = replace(preset("fig1-left"), reps=1)
        summ = run_scenario(s)
        assert len(summ.qq) == 1
        x = float(summ.statistics[0])
        from sigtest import gumbel_cdf

        assert summ.ks == pytest.approx(max(gumbel_cdf(x), 1 - gumbel_cdf(x)), abs=1e-12)

    def test_covariance_scenario_reference_is_exp1(self):
        s = replace(preset("cov-null"), reps=10)
        summ = run_scenario(s)
        assert s.reference == "exp1"
        theo = [p[0] for p in summ.qq]
        assert theo[0] == pytest.approx(exp1_quantile(0.5 / 10), abs=1e-12)

    def test_signal_scenario_reports_misses(self):
        s = replace(preset("fig2-right"), reps=30)
        summ = run_scenario(s)
        assert summ.signal_missed >= 0
        assert summ.failures + len(summ.statistics) == 30
        assert summ.to_json_dict()["signal_missed"] == summ.signal_missed

    def test_summary_json_fields(self):
        s = replace(preset("fig1-left"), reps=5)
        record = run_scenario(s).to_json_dict()
        assert list(record) == ["scenario", "reps", "ks", "rejection_rate_05", "rejection_rate",
                                "failures", "unreliable", "failure_reasons", "signal_missed"]

    def test_rejection_rate_at_the_scenario_alpha(self):
        default = replace(preset("fig1-left"), reps=40)
        wide = replace(default, alpha=0.5)
        pvals = np.array([o.p_value for o in montecarlo._replicate(wide, range(40))])
        base, summ = run_scenario(default), run_scenario(wide)
        assert summ.rejection_rate == float(np.mean(pvals <= 0.5))
        assert base.rejection_rate == base.rejection_rate_05 == float(np.mean(pvals <= 0.05))
        assert summ.rejection_rate != base.rejection_rate
        assert summ.rejection_rate_05 == base.rejection_rate_05
        assert summ.to_json_dict()["rejection_rate"] == summ.rejection_rate

    def test_unreliable_flag_when_failures_exceed_five_percent(self):
        # Tiny heavily-censored survival samples fail often (no events or
        # too many candidate fits failing), which must be counted and flag
        # the summary, not crash the run.
        s = Scenario(name="frail", family="cox", design="iid_gaussian", n=6, p=5,
                     test="gumbel_glm", k=1, censor_frac=0.85, reps=40, seed=3)
        summ = run_scenario(s)
        assert summ.failures > 2
        assert summ.unreliable
        assert sum(summ.failure_reasons.values()) == summ.failures
        assert len(summ.statistics) == 40 - summ.failures

    def test_lasso_selector_scenario(self):
        s = Scenario(name="lassosel", family="gaussian", design="orthogonal",
                     n=40, p=10, test="gumbel", k=2, reps=10, seed=5,
                     selector="lasso")
        summ = run_scenario(s)
        assert len(summ.statistics) == 10
        # Orthogonal design: identical statistics under both selectors.
        summ2 = run_scenario(replace(s, selector="max_r"))
        np.testing.assert_allclose(summ.statistics, summ2.statistics, atol=1e-10)

    def test_step_too_deep_for_p_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", family="gaussian", design="orthogonal",
                     n=40, p=5, test="gumbel", k=4, reps=5, seed=1)

    @pytest.mark.parametrize("test, k", [("covariance", 3), ("gumbel", 4)])
    def test_step_beyond_path_length_rejected(self, test, k):
        # min(n, p) = 3: the path has 3 entries, too few for covariance
        # step 3 (which needs entry 4) and for gumbel step 4.
        with pytest.raises(ValueError, match="path entries"):
            Scenario(name="bad", family="gaussian", design="iid_gaussian",
                     n=3, p=50, test=test, k=k, reps=5, seed=1)

    def test_every_replication_failed(self, monkeypatch):
        def truncated(datasets, max_steps):
            return [[] for _data in datasets]

        monkeypatch.setattr(montecarlo, "_lrt_paths", truncated)
        s = Scenario(name="tiny", family="logistic", design="iid_gaussian",
                     n=20, p=4, test="gumbel_glm", reps=3, seed=3)
        with pytest.raises(SigtestError, match="^every replication failed; nothing to summarize$"):
            run_scenario(s, threads=1)

    def test_truncated_selection_path_is_a_failed_replication(self, monkeypatch):
        # stepwise_path stops early once no candidate reduces the residual; the
        # lockstep walk of a block then gives that dataset a short path.
        walk = montecarlo._stepwise_paths
        monkeypatch.setattr(montecarlo, "_stepwise_paths", lambda datasets, max_steps, selector:
                            walk(datasets, max_steps - 1, selector))
        outcomes = montecarlo._replicate(preset("fig1-right"), range(1))
        assert outcomes == [montecarlo._RepOutcome(None, None, failure="selection path truncated")]

    def test_programming_error_is_not_a_failed_replication(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken test")

        monkeypatch.setattr(montecarlo, "_lrt_paths", broken)
        s = Scenario(name="tiny", family="logistic", design="iid_gaussian",
                     n=20, p=4, test="gumbel_glm", reps=3, seed=3)
        with pytest.raises(ValueError, match="broken test"):
            run_scenario(s, threads=1)

    def test_degenerate_binary_draws_are_failed_replications(self):
        # With n = 3 a quarter of the Bernoulli draws are all 0 or all 1.
        s = Scenario(name="tiny", family="logistic", design="iid_gaussian",
                     n=3, p=4, test="gumbel_glm", reps=40, seed=3)
        summ = run_scenario(s, threads=1)
        assert summ.failure_reasons.get("DegenerateResponseError", 0) > 0
        assert len(summ.statistics) + summ.failures == 40
        record = summ.to_json_dict()
        assert record["failure_reasons"] == summ.failure_reasons
        assert list(record["failure_reasons"]) == sorted(summ.failure_reasons)
        assert sum(record["failure_reasons"].values()) == record["failures"] == summ.failures


class TestExactNullLaws:
    """Null statistics on the orthogonal design against their exact
    finite-sample laws, not the asymptotic Gumbel and Exp(1) ones, at the
    level-0.001 KS critical value for 3,000 replications. With sigma = 1 the
    drops (x_j'y)^2 are p i.i.d. chi-squared(1) variables and the knots |x_j'y|
    are p i.i.d. |N(0, 1)| ones. At seed 7 the three tests read KS 0.019,
    0.025 and 0.018; at seed 1, 0.015, 0.023 and 0.021; at seed 2, 0.012,
    0.012 and 0.014. On the same draws the asymptotic laws read 0.043-0.056
    (Gumbel, step 1), 0.54-0.56 (Gumbel, step 3) and 0.040-0.045 (Exp(1))."""

    REPS = 3000
    KS_CRIT = 1.95 / math.sqrt(REPS)  # level 0.001
    SEED = 7

    @pytest.mark.parametrize("k", [1, 3])
    def test_greedy_step_is_the_kth_largest_chi2(self, k):
        # The drop at step k is the kth largest of the p drops: at most k - 1
        # of them exceed it. The statistic is that drop minus the correction
        # c_m = 2 log m - log log m, m = p - k + 1, written out here rather
        # than taken from gumbel_correction, so that a wrong correction shows.
        stats = pytest.importorskip("scipy.stats")
        s = run_scenario(replace(preset("fig1-left"), reps=self.REPS, seed=self.SEED, k=k),
                         threads=1)
        p = s.scenario.p
        m = p - k + 1

        def cdf(t):
            G = stats.chi2.cdf(t + 2.0 * math.log(m) - math.log(math.log(m)), 1)
            return sum(math.comb(p, i) * (1.0 - G) ** i * G ** (p - i) for i in range(k))

        assert stats.kstest(s.statistics, cdf).statistic < self.KS_CRIT

    def test_covariance_statistic_at_step_one(self):
        # T_1 = lambda_1 (lambda_1 - lambda_2), the top two of p |N(0, 1)|:
        # P(T_1 <= t) = int p (p - 1) G(u)^(p-2) g(u) [G(v) - G(u)] du over
        # the second largest u, with v = (u + sqrt(u^2 + 4t)) / 2, G = 2 Phi - 1
        # and g = 2 phi; a trapezoid rule on 4,001 points of [0, 8] agrees
        # with adaptive quadrature.
        special, stats = pytest.importorskip("scipy.special"), pytest.importorskip("scipy.stats")
        s = run_scenario(replace(preset("cov-null"), reps=self.REPS, seed=self.SEED), threads=1)
        p, u = s.scenario.p, np.linspace(0.0, 8.0, 4001)
        G = lambda v: special.erf(v / math.sqrt(2.0))
        weight = p * (p - 1) * G(u) ** (p - 2) * np.exp(-u * u / 2.0) * math.sqrt(2.0 / math.pi)

        def cdf_at(t):
            v = (u + np.sqrt(u * u + 4.0 * max(t, 0.0))) / 2.0
            return np.trapezoid(weight * (G(v) - G(u)), u)

        assert stats.kstest(s.statistics, np.vectorize(cdf_at)).statistic < self.KS_CRIT


class TestResolveThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("SIGTEST_THREADS", "5")
        assert resolve_threads() == 5

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("SIGTEST_THREADS", "0")
        assert resolve_threads() >= 1

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("SIGTEST_THREADS", raising=False)
        assert resolve_threads() == 1

    @pytest.mark.parametrize("env", ["abc", "-3", "2.5", "1e3"])
    def test_env_not_a_count_rejected(self, monkeypatch, env):
        # Unchecked, "abc" failed in int() naming no source and "-3" ran serially.
        monkeypatch.setenv("SIGTEST_THREADS", env)
        with pytest.raises(ValueError, match=rf"^SIGTEST_THREADS must be a non-negative "
                                             rf"integer, got {re.escape(repr(env))}$"):
            resolve_threads()
        with pytest.raises(ValueError, match="^SIGTEST_THREADS"):
            run_scenario(replace(preset("fig1-left"), reps=2))

    @pytest.mark.parametrize("threads", [-3, 2.5, "2", True])
    def test_argument_not_a_count_rejected(self, monkeypatch, threads):
        monkeypatch.setenv("SIGTEST_THREADS", "1")
        with pytest.raises(ValueError, match=rf"^threads must be a non-negative integer, "
                                             rf"got {re.escape(repr(threads))}$"):
            run_scenario(replace(preset("fig1-left"), reps=2), threads=threads)

    def test_numpy_integer_and_padded_env_accepted(self, monkeypatch):
        assert resolve_threads(np.int64(2)) == 2
        monkeypatch.setenv("SIGTEST_THREADS", " 2 ")
        assert resolve_threads() == 2


def lone_outcomes(scenario):
    """Each replication redrawn and tested alone: its failure's name, or its
    statistic and whether it missed the signal; and the picks of the path of
    each draw that gave a dataset."""
    outcomes, picks = [], []
    for rep in range(scenario.reps):
        rng = replication_rng(scenario.seed, rep)
        X = gen_design(scenario.design, scenario.n, scenario.p, rng, scenario.rho)
        response = gen_response(scenario, X, rng)
        try:
            data = (BinaryDataset(X, response) if scenario.family == "logistic"
                    else SurvivalDataset(X, *response))
            steps = lrt_path(data, max_steps=scenario.k)
            picks.append([s.j for s in steps])
            if len(steps) < scenario.k:
                outcomes.append("selection path truncated")
                continue
            out = gumbel_test(steps[scenario.k - 1], alpha=scenario.alpha)
        except SigtestError as exc:
            outcomes.append(type(exc).__name__)
            continue
        missed = bool(scenario.support()) and not scenario.support() <= set(out.A)
        outcomes.append((out.statistic, missed))
    return outcomes, picks


GLM_BLOCKS = {
    "fig3-left": replace(preset("fig3-left"), reps=40),
    "fig3-right": replace(preset("fig3-right"), reps=40),
    "logistic-k3": Scenario(name="logistic-k3", family="logistic", design="iid_gaussian",
                            n=60, p=12, beta=((0, 12.0), (1, -12.0)), test="gumbel_glm", k=3,
                            reps=37, seed=5),
    "cox-k3": Scenario(name="cox-k3", family="cox", design="iid_gaussian", n=60, p=12,
                       beta=((0, 12.0), (1, -12.0)), censor_frac=0.2, test="gumbel_glm", k=3,
                       reps=37, seed=5),
    # n = 4: some draws are all 0 or all 1 and fail inside their block.
    "logistic-degenerate": Scenario(name="logistic-degenerate", family="logistic",
                                    design="iid_gaussian", n=4, p=5, test="gumbel_glm",
                                    reps=37, seed=3),
}


class TestGlmBlocks:
    """Logistic and Cox replications fitted in blocks give, one by one, what
    ``lrt_path`` and ``gumbel_test`` give on the same draw alone."""

    @pytest.mark.parametrize("name", sorted(GLM_BLOCKS))
    def test_blocked_statistics_match_lone_paths(self, name, monkeypatch):
        scenario, walked = GLM_BLOCKS[name], []
        walk = montecarlo._lrt_paths

        def recording(datasets, max_steps):
            walked.extend(walk(datasets, max_steps))
            return walked[-len(datasets):]

        monkeypatch.setattr(montecarlo, "_lrt_paths", recording)
        summary = run_scenario(scenario, threads=1)
        lone, picks = lone_outcomes(scenario)
        passed = [o for o in lone if not isinstance(o, str)]
        # A row's arithmetic does not depend on its stack: equal, not close.
        np.testing.assert_array_equal(summary.statistics, [o[0] for o in passed])
        assert [[s.j for s in path] for path in walked] == picks
        assert summary.failure_reasons == dict(Counter(o for o in lone if isinstance(o, str)))
        assert summary.signal_missed == sum(o[1] for o in passed)
        if name == "logistic-degenerate":
            assert summary.failure_reasons["DegenerateResponseError"] > 0
