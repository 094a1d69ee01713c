import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigtest.lasso as lasso_module
from oracles import cd_lasso, gumbel_cdf_direct
from sigtest import (
    Dataset,
    GumbelRef,
    PathTooShortError,
    TooFewRemainingError,
    covariance_test,
    gumbel_cdf,
    gumbel_correction,
    gumbel_quantile,
    gumbel_sf,
    gumbel_test,
    lars_path,
    lasso_solve,
    standardize,
    stepwise_path,
)
from sigtest.exceptions import UnsupportedStepError
from sigtest.lasso import solve_at
from sigtest.selection import SelectionStep

IDENTITY = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]), sigma2=1.0)


def ar1_dataset(seed, n, p, rho):
    """AR(1) design with three signals and unit noise."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    X = np.empty_like(z)
    X[:, 0] = z[:, 0]
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + np.sqrt(1 - rho * rho) * z[:, j]
    X = standardize(X)
    beta = np.zeros(p)
    beta[:3] = (2.0, -1.5, 1.0)
    return Dataset(X, X @ beta + rng.standard_normal(n), sigma2=1.0)


class TestGumbelCdf:
    def test_value_at_location(self):
        assert gumbel_cdf(-math.log(math.pi)) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_median(self):
        assert gumbel_cdf(-0.411704) == pytest.approx(0.5, abs=1e-5)

    def test_limits_and_monotonicity(self):
        assert gumbel_cdf(80.0) == pytest.approx(1.0, abs=1e-12)
        assert gumbel_cdf(-40.0) == pytest.approx(0.0, abs=1e-12)
        xs = np.linspace(-12, 24, 200)
        vals = [gumbel_cdf(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_matches_direct_formula(self):
        for x in np.linspace(-8, 15, 50):
            assert gumbel_cdf(x) == pytest.approx(gumbel_cdf_direct(x), abs=1e-14)

    def test_sf_complements_cdf(self):
        for x in (-3.0, 0.0, 4.0, 12.0):
            assert gumbel_sf(x) == pytest.approx(1.0 - gumbel_cdf(x), abs=1e-12)


class TestGumbelQuantile:
    def test_upper_tail_value(self):
        assert gumbel_quantile(0.95) == pytest.approx(4.79566, abs=1e-4)

    def test_inverse_of_cdf_example(self):
        assert gumbel_quantile(math.exp(-1)) == pytest.approx(-math.log(math.pi), abs=1e-12)

    def test_round_trip_grid(self):
        probs = np.linspace(0.0005, 0.9995, 1000)
        err = max(abs(gumbel_cdf(gumbel_quantile(p)) - p) for p in probs)
        assert err < 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            gumbel_quantile(p)

    def test_custom_reference_round_trip(self):
        ref = GumbelRef(location=1.0, scale=0.5)
        for p in (0.1, 0.5, 0.9):
            assert ref.cdf(ref.quantile(p)) == pytest.approx(p, abs=1e-12)


class TestGumbelCorrection:
    @pytest.mark.parametrize("m,expect", [(50, 6.45999), (47, 6.35222), (3, 2.10318)])
    def test_reference_values(self, m, expect):
        assert gumbel_correction(m) == pytest.approx(expect, abs=1e-4)

    def test_matches_direct_arithmetic(self):
        for m in (3, 10, 47, 50, 1000):
            direct = 2.0 * math.log(m) - math.log(math.log(m))
            assert gumbel_correction(m) == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_too_few_remaining(self, m):
        with pytest.raises(TooFewRemainingError):
            gumbel_correction(m)


class TestGumbelTest:
    def test_identity_first_step(self):
        steps = stepwise_path(IDENTITY)
        out = gumbel_test(steps[0], alpha=0.05)
        assert out.statistic == pytest.approx(6.89682, abs=1e-4)
        assert out.p_value == pytest.approx(0.0178, abs=2e-4)
        assert out.reject
        assert out.kind == "gumbel"
        assert out.correction == pytest.approx(gumbel_correction(3), abs=1e-12)

    def test_statistic_zero_when_drop_equals_correction(self):
        step = SelectionStep(k=1, A=(), j=0, r_j=gumbel_correction(10), p=10,
                             selector="max_r")
        out = gumbel_test(step)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.p_value == pytest.approx(0.431, abs=1e-3)

    def test_rejection_boundary(self):
        step = SelectionStep(k=1, A=(), j=0,
                             r_j=gumbel_quantile(0.95) + gumbel_correction(20),
                             p=20, selector="max_r")
        out = gumbel_test(step, alpha=0.05)
        assert out.p_value == pytest.approx(0.05, abs=1e-6)

    def test_too_few_remaining_propagates(self):
        step = SelectionStep(k=1, A=(0,), j=1, r_j=1.0, p=3, selector="max_r")
        with pytest.raises(TooFewRemainingError):
            gumbel_test(step)

    def test_alpha_validation(self):
        steps = stepwise_path(IDENTITY)
        with pytest.raises(ValueError):
            gumbel_test(steps[0], alpha=0.0)

    # Below r ~ 0 the p-value saturates to 1.0 in double precision, so strict
    # monotonicity is only checkable from there up.
    @given(st.floats(0.0, 120.0), st.floats(0.0, 120.0))
    @settings(max_examples=50, deadline=None)
    def test_p_value_strictly_decreasing_in_drop(self, r1, r2):
        if abs(r1 - r2) < 1e-9:
            return
        lo, hi = sorted((r1, r2))
        mk = lambda r: SelectionStep(k=1, A=(), j=0, r_j=r, p=25, selector="max_r")
        assert gumbel_test(mk(hi)).p_value < gumbel_test(mk(lo)).p_value

    def test_json_record_field_order(self):
        out = gumbel_test(stepwise_path(IDENTITY)[0])
        record = out.to_json_dict()
        assert list(record) == ["kind", "k", "A", "j", "statistic", "correction",
                                "p_value", "alpha", "reject", "conservative",
                                "warnings"]

    def test_reject_rule_equals_quantile_rule(self):
        # p <= alpha must coincide with statistic >= upper reference quantile.
        for alpha in (0.01, 0.05, 0.2):
            threshold = gumbel_quantile(1 - alpha)
            for r in np.linspace(2.0, 20.0, 41):
                step = SelectionStep(k=1, A=(), j=0, r_j=float(r), p=12,
                                     selector="max_r")
                out = gumbel_test(step, alpha=alpha)
                assert out.reject == (out.p_value <= alpha)
                assert out.reject == (out.statistic >= threshold)


class TestCovarianceTest:
    def test_identity_step1(self):
        path = lars_path(IDENTITY)
        out = covariance_test(path, IDENTITY, 1)
        assert out.statistic == pytest.approx(3.0, abs=1e-10)
        assert out.decomposition == pytest.approx(3.0, abs=1e-10)
        assert out.p_value == pytest.approx(math.exp(-3), abs=1e-10)
        assert out.A == () and out.j == 0
        assert out.correction is None

    def test_identity_step2(self):
        path = lars_path(IDENTITY)
        out = covariance_test(path, IDENTITY, 2)
        assert out.statistic == pytest.approx(2.0, abs=1e-10)
        assert out.decomposition == pytest.approx(2.0, abs=1e-10)

    def test_orthogonal_closed_form(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((15, 6)))
        data = Dataset(Q, rng.standard_normal(15), sigma2=1.0)
        path = lars_path(data)
        lams = [kn.lam for kn in path.knots]
        for k in range(1, len(lams)):
            out = covariance_test(path, data, k)
            assert out.statistic == pytest.approx(
                lams[k - 1] * (lams[k - 1] - lams[k]), abs=1e-8)

    def test_path_too_short(self):
        path = lars_path(IDENTITY)
        with pytest.raises(PathTooShortError):
            covariance_test(path, IDENTITY, 3)

    def test_two_routes_agree_on_random_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            X = standardize(rng.standard_normal((30, 7)))
            beta = np.zeros(7)
            beta[:2] = (2.0, -1.5)
            y = X @ beta + rng.standard_normal(30)
            data = Dataset(X, y, sigma2=1.0)
            path = lars_path(data)
            n_entries = len(path.entry_knots())
            for k in range(1, n_entries):
                try:
                    out = covariance_test(path, data, k)
                except UnsupportedStepError:
                    continue
                assert out.statistic == pytest.approx(out.decomposition, abs=1e-8)

    def test_deletion_between_entries_rejected(self):
        # Scan seeds for a path with a leave event between two entries.
        found = False
        for seed in range(300):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((25, 8))
            X = np.empty_like(z)
            X[:, 0] = z[:, 0]
            for j in range(1, 8):
                X[:, j] = 0.85 * X[:, j - 1] + np.sqrt(1 - 0.85 ** 2) * z[:, j]
            X = standardize(X)
            beta = np.zeros(8)
            beta[[0, 3]] = (3.0, -2.0)
            y = X @ beta + rng.standard_normal(25)
            data = Dataset(X, y, sigma2=1.0)
            path = lars_path(data)
            actions = [kn.action for kn in path.knots]
            if "leave" not in actions:
                continue
            entry_pos = [i for i, a in enumerate(actions) if a == "enter"]
            for k in range(1, len(entry_pos)):
                if entry_pos[k] != entry_pos[k - 1] + 1:
                    with pytest.raises(UnsupportedStepError):
                        covariance_test(path, data, k)
                    found = True
                    break
            if found:
                break
        assert found, "no deletion-separated entries found in the seed sweep"

    def test_scale_equivariance(self):
        rng = np.random.default_rng(21)
        X = standardize(rng.standard_normal((20, 5)))
        y = rng.standard_normal(20)
        for c in (0.5, 3.0):
            a = Dataset(X, y, sigma2=1.0)
            b = Dataset(X, c * y, sigma2=c * c)
            pa, pb = lars_path(a), lars_path(b)
            for k in (1, 2):
                ta = covariance_test(pa, a, k)
                tb = covariance_test(pb, b, k)
                assert ta.statistic == pytest.approx(tb.statistic, abs=1e-8)
                assert ta.p_value == pytest.approx(tb.p_value, abs=1e-8)

    def test_gumbel_scale_equivariance(self):
        rng = np.random.default_rng(22)
        X = standardize(rng.standard_normal((20, 6)))
        y = rng.standard_normal(20)
        for c in (0.5, 3.0):
            a = Dataset(X, y, sigma2=1.0)
            b = Dataset(X, c * y, sigma2=c * c)
            sa, sb = stepwise_path(a, max_steps=2), stepwise_path(b, max_steps=2)
            for step_a, step_b in zip(sa, sb):
                assert step_a.j == step_b.j
                assert step_a.r_j == pytest.approx(step_b.r_j, abs=1e-8)
                assert gumbel_test(step_a).p_value == pytest.approx(
                    gumbel_test(step_b).p_value, abs=1e-8)

    def test_missing_sigma2(self):
        data = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]))
        path = lars_path(data)
        from sigtest import MissingVarianceError

        with pytest.raises(MissingVarianceError):
            covariance_test(path, data, 1)


class TestWarmStartedRestrictedFit:
    """The restricted lasso in the covariance test starts from the full path."""

    # (rho, n, p, seeds): each group has a step whose restricted solution
    # loses a variable of A between lambda_k and lambda_{k+1}.
    CORPUS = [(0.5, 40, 20, range(6)), (0.8, 20, 30, range(4)), (0.5, 100, 50, [4])]

    def test_matches_cold_trace_and_coordinate_descent(self):
        deletions = 0
        for rho, n, p, seeds in self.CORPUS:
            for seed in seeds:
                data = ar1_dataset(seed, n, p, rho)
                path = lars_path(data)
                entries = path.entry_knots()
                for k in range(1, len(entries)):
                    try:
                        out = covariance_test(path, data, k)
                    except UnsupportedStepError:
                        continue
                    A, lam = list(out.A), entries[k].lam
                    fit_y = lambda beta: float(data.y @ (data.X @ beta))
                    cold = lasso_solve(data, lam, subset=A)
                    expect = (fit_y(solve_at(path, data, lam)) - fit_y(cold)) / data.sigma2
                    assert out.statistic == pytest.approx(expect, abs=1e-9)
                    if not A:
                        continue
                    warm = lasso_solve(data, lam, subset=A, path=path)
                    np.testing.assert_allclose(
                        warm[A], cd_lasso(data.X[:, A], data.y, lam), rtol=0, atol=1e-8)
                    deletions += np.count_nonzero(warm[A]) < len(A)
        assert deletions >= 1, "no restricted segment with a deletion in the corpus"

    def test_segment_solves_per_step(self, monkeypatch):
        # Re-tracing the restricted path from lambda = inf costs about k
        # segment solves at step k (about 25 per step here); warm-started,
        # the full and the restricted fit need one each unless a deletion
        # falls between lambda_k and lambda_{k+1}.
        data = ar1_dataset(0, 100, 50, 0.5)
        path = lars_path(data)
        solves = []
        original = lasso_module._segment_direction
        monkeypatch.setattr(lasso_module, "_segment_direction",
                            lambda *args: solves.append(1) or original(*args))
        steps = 0
        for k in range(1, len(path.entry_knots())):
            try:
                covariance_test(path, data, k)
            except UnsupportedStepError:
                continue
            steps += 1
        assert steps >= 40
        assert len(solves) / steps <= 3.0
