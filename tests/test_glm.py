import math

import numpy as np
import pytest

from oracles import (
    cox_partial_loglik,
    grid_scan_max,
    logistic_loglik,
    normal_equation_drop,
    quasi_newton_max,
)
from sigtest import (
    BinaryDataset,
    ConvergenceError,
    Dataset,
    DegenerateResponseError,
    NoEventsError,
    SeparationError,
    SingularDesignError,
    SurvivalDataset,
    TooFewRemainingError,
    UnreliableMaxError,
    cox_fit,
    gumbel_correction,
    gumbel_test_glm,
    logistic_fit,
    lrt_drop,
    standardize,
    stepwise_path,
)
from sigtest import glm
from sigtest.glm import _solve_rows, lrt_drops_all


def random_binary(seed, n, p, beta=None, intercept=True):
    rng = np.random.default_rng(seed)
    X = standardize(rng.standard_normal((n, p)))
    eta = X @ (beta if beta is not None else np.zeros(p))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    if y.min() == y.max():  # re-draw pathological all-equal responses
        return random_binary(seed + 1, n, p, beta, intercept)
    return BinaryDataset(X, y, include_intercept=intercept)


def random_survival(seed, n, p, censor=0.1):
    rng = np.random.default_rng(seed)
    X = standardize(rng.standard_normal((n, p)))
    event = rng.exponential(1.0, n)
    if censor:
        rate = censor / (1.0 - censor)
        c = rng.exponential(1.0 / rate, n)
        return SurvivalDataset(X, np.minimum(event, c), (event <= c).astype(float))
    return SurvivalDataset(X, event, np.ones(n))


class TestBinaryDataset:
    def test_rejects_constant_response(self):
        with pytest.raises(DegenerateResponseError) as info:
            BinaryDataset(np.eye(3), np.ones(3))
        assert isinstance(info.value, ValueError)

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            BinaryDataset(np.eye(3), np.array([0.0, 0.5, 1.0]))


class TestSurvivalDataset:
    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            SurvivalDataset(np.eye(2), np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_all_censored_is_no_events(self):
        with pytest.raises(NoEventsError):
            SurvivalDataset(np.eye(2), np.array([1.0, 2.0]), np.zeros(2))


class TestLogisticFit:
    def test_intercept_only_closed_form(self):
        data = BinaryDataset(np.zeros((4, 1)) + np.eye(4)[:, :1],  # any column
                             np.array([1.0, 1.0, 0.0, 0.0]))
        fit = logistic_fit(data, [])
        assert fit.loglik == pytest.approx(4 * math.log(0.5), abs=1e-10)
        assert fit.converged

    def test_constant_column_with_intercept_rank_error(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        data = BinaryDataset(X, np.array([0, 1, 0, 1, 0, 1.0]))
        with pytest.raises(SingularDesignError):
            logistic_fit(data, [0])

    def test_single_covariate_matches_grid_scan(self):
        data = random_binary(3, 50, 1)
        fit = logistic_fit(data, [0])
        Z = np.column_stack([np.ones(50), np.asarray(data.X)])
        grid_best = grid_scan_max(
            lambda b_cov: grid_scan_max(
                lambda b0: logistic_loglik(Z, np.asarray(data.y), np.array([b0, b_cov])),
                -5.0, 5.0, coarse=201, fine=201),
            -40.0, 40.0, coarse=401, fine=401)
        assert fit.loglik == pytest.approx(grid_best, abs=1e-5)

    def test_score_equations_hold(self):
        data = random_binary(11, 60, 3)
        fit = logistic_fit(data, [0, 1, 2])
        Z = np.column_stack([np.ones(60), np.asarray(data.X)])
        prob = 1.0 / (1.0 + np.exp(-(Z @ fit.coefficients)))
        np.testing.assert_allclose(Z.T @ (np.asarray(data.y) - prob), 0.0, atol=1e-6)

    def test_complete_separation_detected(self):
        # Perfectly separated labels with an oppositely-labeled pair at a
        # tiny gap, so the likelihood keeps improving past any bound.
        x = np.concatenate([np.linspace(-1, -0.2, 9), [-1e-3, 1e-3],
                            np.linspace(0.2, 1, 9)])
        y = (x > 0).astype(float)
        data = BinaryDataset(standardize(x[:, None]), y)
        with pytest.raises(SeparationError):
            logistic_fit(data, [0])

    def test_no_intercept_empty_model(self):
        data = random_binary(5, 30, 2, intercept=False)
        fit = logistic_fit(data, [])
        assert fit.loglik == pytest.approx(-30 * math.log(2), abs=1e-12)
        assert fit.iterations == 0


class TestCoxFit:
    def test_null_model_closed_form(self):
        data = SurvivalDataset(np.zeros((2, 1)) + np.eye(2)[:, :1],
                               np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        fit = cox_fit(data, [])
        assert fit.loglik == pytest.approx(-math.log(2) - math.log(1), abs=1e-12)

    def test_null_model_with_ties_pools_risk_sets(self):
        data = SurvivalDataset(np.eye(3)[:, :1], np.array([1.0, 1.0, 2.0]),
                               np.array([1.0, 1.0, 1.0]))
        fit = cox_fit(data, [])
        assert fit.loglik == pytest.approx(-2 * math.log(3) - math.log(1), abs=1e-12)

    def test_single_covariate_matches_grid_scan(self):
        data = random_survival(7, 40, 1)
        fit = cox_fit(data, [0])
        grid_best = grid_scan_max(
            lambda b: cox_partial_loglik(np.asarray(data.X), np.asarray(data.time),
                                         np.asarray(data.status), np.array([b])),
            -40.0, 40.0)
        assert fit.loglik == pytest.approx(grid_best, abs=1e-6)

    def test_three_distinct_event_times(self):
        rng = np.random.default_rng(2)
        X = standardize(rng.standard_normal((3, 1)))
        data = SurvivalDataset(X, np.array([0.5, 1.5, 2.5]), np.ones(3))
        fit = cox_fit(data, [0])
        grid_best = grid_scan_max(
            lambda b: cox_partial_loglik(np.asarray(X), np.asarray(data.time),
                                         np.asarray(data.status), np.array([b])),
            -40.0, 40.0)
        assert fit.loglik == pytest.approx(grid_best, abs=1e-6)

    def test_gradient_zero_at_solution(self):
        data = random_survival(13, 50, 3)
        fit = cox_fit(data, [0, 1, 2])
        eps = 1e-6
        for i in range(3):
            up, dn = fit.coefficients.copy(), fit.coefficients.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (cox_partial_loglik(np.asarray(data.X)[:, :3], np.asarray(data.time),
                                     np.asarray(data.status), up)
                  - cox_partial_loglik(np.asarray(data.X)[:, :3], np.asarray(data.time),
                                       np.asarray(data.status), dn)) / (2 * eps)
            assert fd == pytest.approx(0.0, abs=1e-4)

    def test_monotone_likelihood_detected(self):
        # A covariate perfectly ordered with event times and a tiny spread
        # pushes the partial-likelihood maximizer to infinity.
        n = 8
        raw = np.linspace(1.0, 1.05, n)
        X = standardize(raw[:, None])
        data = SurvivalDataset(X, raw, np.ones(n))
        with pytest.raises(SeparationError):
            cox_fit(data, [0])


class TestLrtDrop:
    def test_zero_information_column_gives_zero(self):
        # A candidate orthogonal to the response adds no likelihood.
        X = np.eye(4)[:, :3]
        y = np.array([0.0, 0.0, 0.0, 1.0])
        data = Dataset(X, y, sigma2=1.0)
        assert lrt_drop("gaussian", data, [], 0) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_equals_r_stat(self):
        rng = np.random.default_rng(31)
        X = standardize(rng.standard_normal((25, 5)))
        y = rng.standard_normal(25)
        data = Dataset(X, y, sigma2=1.7)
        for m in range(1, 5):
            assert lrt_drop("gaussian", data, [0], m) == pytest.approx(
                normal_equation_drop(X, y, [0], m, 1.7), abs=1e-6)

    def test_nesting_nonnegative_binary(self):
        data = random_binary(17, 50, 5)
        for m in range(5):
            A = [i for i in range(5) if i != m][:2]
            assert lrt_drop("logistic", data, A, m) >= 0.0

    def test_affine_invariance(self):
        data = random_binary(23, 60, 2)
        X2 = np.asarray(data.X).copy()
        X2[:, 1] *= 7.5
        scaled = BinaryDataset(X2, np.asarray(data.y))
        d1 = lrt_drop("logistic", data, [0], 1)
        d2 = lrt_drop("logistic", scaled, [0], 1)
        assert d1 == pytest.approx(d2, abs=1e-6)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            lrt_drop("poisson", None, [], 0)


def tied_survival(seed, n, p):
    """Survival data whose times are rounded to 0.1, so event times tie."""
    rng = np.random.default_rng(seed)
    X = standardize(rng.standard_normal((n, p)))
    time = np.round(rng.exponential(1.0, n), 1) + 0.1
    status = (rng.random(n) < 0.8).astype(float)
    status[0] = 1.0
    return SurvivalDataset(X, time, status)


def oracle_loglik(family, data, M):
    """Maximised log-likelihood on M from the oracles, by quasi-Newton."""
    X = np.asarray(data.X)[:, M]
    if family == "cox":
        return quasi_newton_max(lambda b: cox_partial_loglik(
            X, np.asarray(data.time), np.asarray(data.status), b), len(M))
    if data.include_intercept:
        X = np.column_stack([np.ones(data.n), X])
    return quasi_newton_max(lambda b: logistic_loglik(X, np.asarray(data.y), b), X.shape[1])


PARITY_DATA = {
    "logistic": ("logistic", lambda: random_binary(83, 40, 8)),
    "logistic-no-intercept": ("logistic", lambda: random_binary(89, 40, 8, intercept=False)),
    "cox-ties": ("cox", lambda: tied_survival(97, 40, 8)),
}


class TestLrtDropsAll:
    @pytest.mark.parametrize("case", sorted(PARITY_DATA))
    @pytest.mark.parametrize("size", [0, 2, 5])
    def test_batched_drops_match_single_fits_and_oracle(self, case, size):
        family, make = PARITY_DATA[case]
        data = make()
        if family == "cox":
            assert len(np.unique(data.time[data.status == 1.0])) < data.status.sum()
        A = [6, 1, 3, 0, 4][:size]
        drops, failures = lrt_drops_all(family, data, A)
        assert failures == []
        assert sorted(drops) == [m for m in range(data.p) if m not in A]
        base = oracle_loglik(family, data, A)
        for m, drop in drops.items():
            assert drop == pytest.approx(lrt_drop(family, data, A, m), abs=1e-9)
            expect = max(2.0 * (oracle_loglik(family, data, A + [m]) - base), 0.0)
            assert drop == pytest.approx(expect, abs=1e-6)

    def test_failed_candidates_are_isolated(self):
        # Column 4 separates the labels (one pair of opposite labels a tiny
        # gap apart, so the likelihood climbs without bound) and column 7
        # duplicates column 0, which is in A.
        rng = np.random.default_rng(71)
        X = standardize(rng.standard_normal((60, 10)))
        y = (rng.random(60) < 0.5).astype(float)
        u = rng.uniform(0.2, 1.0, 60)
        u[np.flatnonzero(y == 1.0)[0]] = u[np.flatnonzero(y == 0.0)[0]] = 1e-3
        X[:, 4] = np.where(y == 1.0, u, -u) / np.linalg.norm(u)
        X[:, 7] = X[:, 0]
        data = BinaryDataset(X, y)
        A = [0, 2]
        drops, failures = lrt_drops_all("logistic", data, A)
        expected = []
        for m, error in ((4, SeparationError), (7, SingularDesignError)):
            with pytest.raises(error) as info:
                logistic_fit(data, A + [m])
            expected.append(f"fit failed for candidate {m}: {info.value}")
        assert failures == expected
        assert sorted(drops) == [1, 3, 5, 6, 8, 9]
        for m, drop in drops.items():
            assert drop == pytest.approx(lrt_drop("logistic", data, A, m), abs=1e-9)

    def test_first_step_failure_leaves_other_rows_running(self):
        # A NaN in row 1's design makes its first Newton step fail, while
        # rows 0 and 2 still need several steps to converge.
        data = random_binary(109, 60, 4, beta=np.array([2.0, 1.0, 0.0, -1.0]))
        Z = np.stack([np.column_stack([np.ones(60), np.asarray(data.X)[:, [0, j]]])
                      for j in (1, 2, 3)])
        Z[1, 5, 2] = np.nan
        objective = glm._logistic_problem(data, [0]).objective
        with np.errstate(invalid="ignore"):
            _beta, ll, iterations, errors = glm._newton_stack(
                objective, Z, np.zeros((3, 3)), "logistic fit")
        assert isinstance(errors[1], ConvergenceError)
        for row, j in ((0, 1), (2, 3)):
            single = logistic_fit(data, [0, j])
            assert errors[row] is None
            assert iterations[row] == single.iterations > 1
            assert ll[row] == pytest.approx(single.loglik, abs=1e-9)

    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_one_batched_solve_per_call(self, family, monkeypatch):
        starts = []
        newton = glm._newton_stack

        def counting(objective, Z, beta0, what):
            starts.append(beta0.copy())
            return newton(objective, Z, beta0, what)

        monkeypatch.setattr(glm, "_newton_stack", counting)
        data = random_binary(101, 50, 12) if family == "logistic" else tied_survival(103, 50, 12)
        drops, _failures = lrt_drops_all(family, data, [3, 5])
        assert len(drops) == 10
        # The base fit, then all ten candidates at once, each started from
        # the base coefficients and 0 for its own column.
        assert [len(b) for b in starts] == [1, 10]
        base = (logistic_fit if family == "logistic" else cox_fit)(data, [3, 5])
        np.testing.assert_array_equal(starts[1][:, :-1], np.tile(base.coefficients, (10, 1)))
        np.testing.assert_array_equal(starts[1][:, -1], 0.0)

    def test_singular_rows_flagged_alone(self):
        rng = np.random.default_rng(107)
        info = np.stack([np.eye(3) + 0.1 * rng.standard_normal((3, 3)) for _ in range(4)])
        info[2] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        grad = rng.standard_normal((4, 3))
        step, singular = _solve_rows(info, grad)
        assert singular.tolist() == [False, False, True, False]
        for i in (0, 1, 3):
            np.testing.assert_array_equal(step[i], np.linalg.solve(info[i], grad[i]))


class TestGumbelTestGlm:
    def test_correction_matches_linear_case(self):
        data = random_binary(41, 100, 50)
        out = gumbel_test_glm("logistic", data, [])
        assert out.correction == pytest.approx(gumbel_correction(50), abs=1e-12)
        assert out.kind == "gumbel_glm"
        assert out.k == 1

    def test_all_zero_drops_degenerate_input(self):
        # Orthonormal design with a response orthogonal to every column:
        # every drop is exactly zero.
        X = np.eye(100)[:, :50]
        y = np.eye(100)[:, 60]
        data = Dataset(X, y, sigma2=1.0)
        out = gumbel_test_glm("gaussian", data, [])
        assert out.statistic == pytest.approx(-6.45999, abs=1e-4)
        assert out.p_value == pytest.approx(1.0, abs=1e-4)
        assert not out.reject

    def test_matches_linear_gumbel_test_on_gaussian_data(self):
        rng = np.random.default_rng(47)
        X = standardize(rng.standard_normal((40, 8)))
        y = rng.standard_normal(40)
        data = Dataset(X, y, sigma2=1.0)
        from sigtest import gumbel_test

        step = stepwise_path(data, max_steps=1)[0]
        linear = gumbel_test(step)
        glm = gumbel_test_glm("gaussian", data, [])
        assert glm.statistic == pytest.approx(linear.statistic, abs=1e-6)
        assert glm.j == linear.j

    def test_too_few_remaining(self):
        data = random_binary(53, 30, 4)
        with pytest.raises(TooFewRemainingError):
            gumbel_test_glm("logistic", data, [0, 1])

    def test_failed_candidates_are_warned_or_abort(self):
        # Insert a duplicate of column 0 so that candidate's fit is singular.
        rng = np.random.default_rng(59)
        X = standardize(rng.standard_normal((40, 12)))
        X = np.column_stack([X, X[:, 0]])
        y = (rng.random(40) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        data = BinaryDataset(X, y)
        out = gumbel_test_glm("logistic", data, [0])
        assert any("candidate 12" in w for w in out.warnings)

    def test_unreliable_when_many_fits_fail(self):
        # Duplicating every column makes half the candidate fits singular
        # once one copy is conditioned on.
        rng = np.random.default_rng(61)
        base = standardize(rng.standard_normal((30, 3)))
        X = np.column_stack([base, base])
        y = (rng.random(30) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        data = BinaryDataset(X, y)
        with pytest.raises(UnreliableMaxError):
            gumbel_test_glm("logistic", data, [0, 1, 2])


class TestGaussianLoglik:
    def test_known_variance_formula(self):
        rng = np.random.default_rng(67)
        X = standardize(rng.standard_normal((10, 2)))
        y = rng.standard_normal(10)
        data = Dataset(X, y, sigma2=2.0)

        def rss(cols):
            r = y - X[:, cols] @ np.linalg.lstsq(X[:, cols], y, rcond=None)[0]
            return float(r @ r)

        # Twice the log-likelihood gain with known variance: (RSS_A - RSS_{A u m}) / sigma2.
        expect = (rss([0]) - rss([0, 1])) / 2.0
        assert lrt_drop("gaussian", data, [0], 1) == pytest.approx(expect, abs=1e-10)
