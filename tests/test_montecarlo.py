import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gumbel_cdf_direct
from sigtest import (
    InfeasibleDesignError,
    Scenario,
    SeparationError,
    SigtestError,
    gen_design,
    gen_response,
    ks_distance,
    preset,
    preset_names,
    qq_points,
    run_scenario,
    stepwise_path,
)
from sigtest import montecarlo
from sigtest.montecarlo import replication_rng, resolve_threads
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
        s = Scenario(family="cox", design="iid_gaussian", n=200_000, p=1,
                     test="gumbel_glm", censor_frac=0.10, seed=10)
        X = np.zeros((200_000, 1))
        time, status = gen_response(s, X, rng_for(10))
        assert abs((1.0 - status.mean()) - 0.10) < 0.005

    def test_unknown_family(self):
        s = replace(preset("fig1-left"), family="poisson")
        with pytest.raises(ValueError, match="^unknown family 'poisson'$"):
            gen_response(s, gen_design("orthogonal", 100, 50, rng_for(0)), rng_for(0))


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


class TestScenarioValidation:
    def test_presets_all_validate(self):
        for name in preset_names():
            preset(name).validate()

    def test_preset_seed_override(self):
        assert preset("fig1-left", seed=99).seed == 99

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("fig9-left")

    def test_zero_reps_rejected(self):
        s = replace(preset("fig1-left"), reps=0)
        with pytest.raises(ValueError):
            s.validate()

    def test_family_test_compatibility(self):
        s = replace(preset("fig1-left"), family="logistic")
        with pytest.raises(ValueError):
            s.validate()

    @pytest.mark.parametrize("fields", [{"selector": "lasso"}, {"sigma": 5.0},
                                        {"selector": "lasso", "sigma": 5.0}])
    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_gaussian_fields_rejected_for_glm_families(self, family, fields):
        # _replicate would ignore both for the likelihood-ratio path.
        s = Scenario(family=family, design="iid_gaussian", n=40, p=10, test="gumbel_glm",
                     reps=3, **fields)
        with pytest.raises(ValueError, match="only to the gaussian family"):
            s.validate()
        replace(s, selector="max_r", sigma=1.0).validate()

    def test_beta_index_range(self):
        s = replace(preset("fig1-left"), beta=((60, 1.0),))
        with pytest.raises(ValueError):
            s.validate()

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
    ])
    def test_rejections(self, name, fields, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(preset(name), **fields).validate()

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
            replace(preset(name), **fields).validate()
        preset(name).validate()


class TestRunScenario:
    def test_determinism_serial(self):
        s = replace(preset("fig1-left"), reps=20)
        a = run_scenario(s)
        b = run_scenario(s)
        np.testing.assert_array_equal(a.statistics, b.statistics)
        assert a.ks == b.ks

    def test_parallel_matches_serial(self):
        s = replace(preset("fig1-left"), reps=24)
        serial = run_scenario(s, threads=1)
        parallel = run_scenario(s, threads=4)
        np.testing.assert_array_equal(serial.statistics, parallel.statistics)
        assert serial.ks == parallel.ks

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
        assert list(record) == ["scenario", "reps", "ks", "rejection_rate_05",
                                "failures", "unreliable", "failure_reasons", "signal_missed"]

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
        s = Scenario(name="bad", family="gaussian", design="orthogonal",
                     n=40, p=5, test="gumbel", k=4, reps=5, seed=1)
        with pytest.raises(ValueError):
            s.validate()

    @pytest.mark.parametrize("test, k", [("covariance", 3), ("gumbel", 4)])
    def test_step_beyond_path_length_rejected(self, test, k):
        # min(n, p) = 3: the path has 3 entries, too few for covariance
        # step 3 (which needs entry 4) and for gumbel step 4.
        s = Scenario(name="bad", family="gaussian", design="iid_gaussian",
                     n=3, p=50, test=test, k=k, reps=5, seed=1)
        with pytest.raises(ValueError, match="path entries"):
            s.validate()

    def test_every_replication_failed(self, monkeypatch):
        def diverging(*args, **kwargs):
            raise SeparationError("logistic fit: coefficients diverging")

        monkeypatch.setattr(montecarlo, "lrt_path", diverging)
        s = Scenario(name="tiny", family="logistic", design="iid_gaussian",
                     n=20, p=4, test="gumbel_glm", reps=3, seed=3)
        with pytest.raises(SigtestError, match="^every replication failed; nothing to summarize$"):
            run_scenario(s, threads=1)

    def test_truncated_selection_path_is_a_failed_replication(self, monkeypatch):
        # stepwise_path stops early once no candidate reduces the residual.
        monkeypatch.setattr(montecarlo, "stepwise_path", lambda data, max_steps, selector:
                            stepwise_path(data, max_steps=max_steps - 1, selector=selector))
        outcome = montecarlo._replicate(preset("fig1-right"), 0)
        assert outcome == montecarlo._RepOutcome(None, None, failure="selection path truncated")

    def test_programming_error_is_not_a_failed_replication(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken test")

        monkeypatch.setattr(montecarlo, "lrt_path", broken)
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
