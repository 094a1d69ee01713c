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
    SigtestError,
    SingularDesignError,
    SurvivalDataset,
    TooFewRemainingError,
    UnreliableMaxError,
    glm_fit,
    gumbel_correction,
    gumbel_test,
    standardize,
    stepwise_path,
)
from sigtest import glm
from sigtest.glm import _solve_rows, lrt_drops_all, lrt_path
from sigtest.linmodel import RANK_TOL, ActiveQR
from sigtest.selection import SelectionStep, best_candidate


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


@pytest.mark.parametrize("make, vectors", [
    (lambda X, v: Dataset(X, v), ("y",)),
    (lambda X, v: BinaryDataset(X, v), ("y",)),
    (lambda X, v: SurvivalDataset(X, v + 1.0, v), ("time", "status")),
], ids=["gaussian", "binary", "survival"])
def test_dataset_arrays_are_contiguous_read_only_floats(make, vectors):
    # Integer entries in Fortran order with the response as an (n, 1) column;
    # then arrays that are already C-contiguous float64, which are copied too.
    for X, v in [(np.asfortranarray(np.arange(6).reshape(3, 2)), np.array([[0], [1], [1]])),
                 (np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 1.0]))]:
        data = make(X, v)
        for name, shape in [("X", (3, 2))] + [(name, (3,)) for name in vectors]:
            a = getattr(data, name)
            assert a.dtype == float and a.shape == shape, name
            assert a.flags.c_contiguous and not a.flags.writeable, name
        np.testing.assert_array_equal(data.X, X)
        assert (data.n, data.p) == (3, 2)
        # The caller's own arrays stay writable, and writing to them leaves the dataset as it was.
        X[0, 0], v[0] = 5, 1
        assert data.X[0, 0] == 0.0 and getattr(data, vectors[-1])[0] == 0.0


class TestLogisticFit:
    def test_intercept_only_closed_form(self):
        data = BinaryDataset(np.zeros((4, 1)) + np.eye(4)[:, :1],  # any column
                             np.array([1.0, 1.0, 0.0, 0.0]))
        fit = glm_fit(data, [])
        assert fit.loglik == pytest.approx(4 * math.log(0.5), abs=1e-10)
        assert fit.iterations == 0

    def test_constant_column_with_intercept_rank_error(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        data = BinaryDataset(X, np.array([0, 1, 0, 1, 0, 1.0]))
        with pytest.raises(SingularDesignError):
            glm_fit(data, [0])

    def test_single_covariate_matches_grid_scan(self):
        data = random_binary(3, 50, 1)
        fit = glm_fit(data, [0])
        Z = np.column_stack([np.ones(50), np.asarray(data.X)])
        grid_best = grid_scan_max(
            lambda b_cov: grid_scan_max(
                lambda b0: logistic_loglik(Z, np.asarray(data.y), np.array([b0, b_cov])),
                -5.0, 5.0, coarse=201, fine=201),
            -40.0, 40.0, coarse=401, fine=401)
        assert fit.loglik == pytest.approx(grid_best, abs=1e-5)

    def test_score_equations_hold(self):
        data = random_binary(11, 60, 3)
        fit = glm_fit(data, [0, 1, 2])
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
            glm_fit(data, [0])

    def test_no_intercept_empty_model(self):
        data = random_binary(5, 30, 2, intercept=False)
        fit = glm_fit(data, [])
        assert fit.loglik == pytest.approx(-30 * math.log(2), abs=1e-12)
        assert fit.iterations == 0

    @pytest.mark.parametrize("n", [2, 7, 100])
    @pytest.mark.parametrize("ones", ["one", "half", "all-but-one"])
    def test_intercept_only_closed_form_matches_newton(self, n, ones):
        k = {"one": 1, "half": n // 2, "all-but-one": n - 1}[ones]
        rng = np.random.default_rng(1000 * n + k)
        y = np.zeros(n)
        y[rng.permutation(n)[:k]] = 1.0
        data = BinaryDataset(rng.standard_normal((n, 1)), y)
        fit = glm_fit(data, [])
        beta, ll, _iterations, errors = glm._newton_stack(
            glm._logistic_problem(data).objective, np.ones((n, 0)), np.ones((n, 1)), np.zeros(0),
            "logistic fit")
        assert errors == [None]
        assert (fit.subset, fit.iterations) == ((), 0)
        np.testing.assert_allclose(fit.coefficients, beta[0], rtol=0, atol=1e-9)
        assert fit.loglik == pytest.approx(ll[0], rel=0, abs=1e-12)

    def test_objective_at_extreme_predictors(self):
        # With the identity design beta is eta itself, and the gradient is y - p.
        # |eta| runs past 709.8, where e^|eta| overflows, up to 1e3.
        eta = np.array([0.0, 1e-3, 1.0, 30.0, 499.0, 501.0, 709.0, 711.0, 1e3])
        eta = np.concatenate([eta, -eta])
        n = len(eta)
        y = np.tile([1.0, 0.0], n // 2)
        data = BinaryDataset(np.eye(n), y, include_intercept=False)
        objective = glm._logistic_problem(data).objective
        betas = np.stack([eta, -eta])
        Z = np.tile(np.eye(n), (2, 1, 1))
        ll, r, a, center = objective(betas)
        grad = (r[:, None] @ Z)[:, 0]
        info = glm._information(Z, a, center(Z, np.arange(2)))
        assert np.all(np.isfinite(ll)) and np.all(np.isfinite(grad)) and np.all(np.isfinite(info))
        prob = y - grad
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        h = 1e-4
        for row, beta in enumerate(betas):
            assert ll[row] == pytest.approx(logistic_loglik(np.eye(n), y, beta), rel=1e-12)
            central = [(logistic_loglik(np.eye(n), y, beta + h * e)
                        - logistic_loglik(np.eye(n), y, beta - h * e)) / (2 * h)
                       for e in np.eye(n)]
            np.testing.assert_allclose(grad[row], central, rtol=0, atol=1e-6)


class TestCoxFit:
    def test_null_model_closed_form(self):
        data = SurvivalDataset(np.zeros((2, 1)) + np.eye(2)[:, :1],
                               np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        fit = glm_fit(data, [])
        assert fit.loglik == pytest.approx(-math.log(2) - math.log(1), abs=1e-12)

    def test_null_model_with_ties_pools_risk_sets(self):
        data = SurvivalDataset(np.eye(3)[:, :1], np.array([1.0, 1.0, 2.0]),
                               np.array([1.0, 1.0, 1.0]))
        fit = glm_fit(data, [])
        assert fit.loglik == pytest.approx(-2 * math.log(3) - math.log(1), abs=1e-12)

    def test_single_covariate_matches_grid_scan(self):
        data = random_survival(7, 40, 1)
        fit = glm_fit(data, [0])
        grid_best = grid_scan_max(
            lambda b: cox_partial_loglik(np.asarray(data.X), np.asarray(data.time),
                                         np.asarray(data.status), np.array([b])),
            -40.0, 40.0)
        assert fit.loglik == pytest.approx(grid_best, abs=1e-6)

    def test_three_distinct_event_times(self):
        rng = np.random.default_rng(2)
        X = standardize(rng.standard_normal((3, 1)))
        data = SurvivalDataset(X, np.array([0.5, 1.5, 2.5]), np.ones(3))
        fit = glm_fit(data, [0])
        grid_best = grid_scan_max(
            lambda b: cox_partial_loglik(np.asarray(X), np.asarray(data.time),
                                         np.asarray(data.status), np.array([b])),
            -40.0, 40.0)
        assert fit.loglik == pytest.approx(grid_best, abs=1e-6)

    def test_gradient_zero_at_solution(self):
        data = random_survival(13, 50, 3)
        fit = glm_fit(data, [0, 1, 2])
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
            glm_fit(data, [0])


def single_drop(data, A, m):
    """Likelihood-ratio drop 2*(loglik(A u {m}) - loglik(A)) from two single fits."""
    return 2.0 * (glm_fit(data, A + [m]).loglik - glm_fit(data, A).loglik)


class TestLrtDrop:
    # With known variance, twice the Gaussian log-likelihood gain of a
    # candidate is its scaled RSS drop, which ActiveQR.drops computes.
    def test_zero_information_column_gives_zero(self):
        # A candidate orthogonal to the response adds no likelihood.
        X = np.eye(4)[:, :3]
        y = np.array([0.0, 0.0, 0.0, 1.0])
        assert ActiveQR(X, y).drops(1.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_equals_r_stat(self):
        rng = np.random.default_rng(31)
        X = standardize(rng.standard_normal((25, 5)))
        y = rng.standard_normal(25)
        drops = ActiveQR(X, y, [0]).drops(1.7)
        for m in range(1, 5):
            assert drops[m] == pytest.approx(normal_equation_drop(X, y, [0], m, 1.7), abs=1e-6)

    def test_nesting_nonnegative_binary(self):
        data = random_binary(17, 50, 5)
        for m in range(5):
            A = [i for i in range(5) if i != m][:2]
            assert single_drop(data, A, m) >= 0.0

    def test_affine_invariance(self):
        data = random_binary(23, 60, 2)
        X2 = np.asarray(data.X).copy()
        X2[:, 1] *= 7.5
        scaled = BinaryDataset(X2, np.asarray(data.y))
        d1 = single_drop(data, [0], 1)
        d2 = single_drop(scaled, [0], 1)
        assert d1 == pytest.approx(d2, abs=1e-6)

    def test_unknown_family(self):
        # The family is the dataset's type; any other dataset is rejected.
        message = "^logistic or Cox regression needs a BinaryDataset or SurvivalDataset, not {}$"
        for entry in (lambda d: lrt_drops_all(d, []), lambda d: glm_fit(d, []), lrt_path):
            with pytest.raises(ValueError, match=message.format("NoneType")):
                entry(None)
            with pytest.raises(ValueError, match=message.format("Dataset")):
                entry(Dataset(np.eye(3), np.ones(3), sigma2=1.0))


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
        drops, failures = lrt_drops_all(data, A)
        assert failures == []
        assert drops.shape == (data.p,)
        assert np.flatnonzero(~np.isnan(drops)).tolist() == [m for m in range(data.p)
                                                             if m not in A]
        base = oracle_loglik(family, data, A)
        for m in np.flatnonzero(~np.isnan(drops)):
            drop = drops[m]
            assert drop == pytest.approx(single_drop(data, A, m), abs=1e-9)
            expect = max(2.0 * (oracle_loglik(family, data, A + [m]) - base), 0.0)
            assert drop == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_full_model_leaves_no_candidate(self, family):
        data = random_binary(13, 20, 3) if family == "logistic" else tied_survival(13, 20, 3)
        drops, failures = lrt_drops_all(data, [2, 0, 1])
        assert drops.shape == (3,) and np.isnan(drops).all()
        assert failures == []

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
        drops, failures = lrt_drops_all(data, A)
        expected = []
        for m, error in ((4, SeparationError), (7, SingularDesignError)):
            with pytest.raises(error) as info:
                glm_fit(data, A + [m])
            expected.append(f"fit failed for candidate {m}: {info.value}")
        assert failures == expected
        assert np.flatnonzero(~np.isnan(drops)).tolist() == [1, 3, 5, 6, 8, 9]
        for m in (1, 3, 5, 6, 8, 9):
            assert drops[m] == pytest.approx(single_drop(data, A, m), abs=1e-9)

    def test_first_step_failure_leaves_other_rows_running(self):
        # A NaN in row 1's design makes its first Newton step fail, while
        # rows 0 and 2 still need several steps to converge.
        data = random_binary(109, 60, 4, beta=np.array([2.0, 1.0, 0.0, -1.0]))
        Z = np.stack([np.column_stack([np.ones(60), np.asarray(data.X)[:, [0, j]]])
                      for j in (1, 2, 3)])
        Z[1, 5, 2] = np.nan
        objective = glm._logistic_problem(data).objective
        with np.errstate(invalid="ignore"):
            _beta, ll, iterations, errors = glm._newton_stack(
                objective, Z[0, :, :2], Z[:, :, 2].T, np.zeros(2), "logistic fit")
        assert isinstance(errors[1], ConvergenceError)
        for row, j in ((0, 1), (2, 3)):
            single = glm_fit(data, [0, j])
            assert errors[row] is None
            assert iterations[row] == single.iterations > 1
            assert ll[row] == pytest.approx(single.loglik, abs=1e-9)

    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_one_batched_solve_per_call(self, family, monkeypatch):
        starts = []
        newton = glm._newton_stack

        def counting(objective, design, columns, base, what):
            out = newton(objective, design, columns, base, what)
            starts.append(stack_start(columns, base))
            assert out[0].shape == starts[-1].shape
            return out

        monkeypatch.setattr(glm, "_newton_stack", counting)
        data = random_binary(101, 50, 12) if family == "logistic" else tied_survival(103, 50, 12)
        drops, _failures = lrt_drops_all(data, [3, 5])
        assert len(drops) == 12 and np.count_nonzero(~np.isnan(drops)) == 10
        # The base fit, then all ten candidates at once, each started from
        # the base coefficients and 0 for its own column.
        assert [len(b) for b in starts] == [1, 10]
        base = glm_fit(data, [3, 5])
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
        step, singular = _solve_rows(np.stack([info[2], np.zeros((3, 3)), info[2]]), grad[:3])
        assert singular.tolist() == [True, True, True]
        np.testing.assert_array_equal(step, 0.0)


class TestIterationCap:
    """A fit that needs exactly N Newton iterations converges under
    ``MAX_ITER = N`` and fails under N - 1."""

    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_fit_converges_at_the_cap_and_fails_below_it(self, family, monkeypatch):
        data = (random_binary(17, 40, 3, beta=np.array([1.0, -0.5, 0.0]))
                if family == "logistic" else tied_survival(17, 40, 3))
        free = glm_fit(data, [0, 1, 2])
        needed = free.iterations
        assert needed >= 2
        monkeypatch.setattr(glm, "MAX_ITER", needed)
        capped = glm_fit(data, [0, 1, 2])
        assert capped.iterations == needed
        np.testing.assert_array_equal(capped.coefficients, free.coefficients)
        monkeypatch.setattr(glm, "MAX_ITER", needed - 1)
        with pytest.raises(ConvergenceError, match=rf"^{family} fit: no convergence after "
                                                   rf"{needed - 1} iterations$"):
            glm_fit(data, [0, 1, 2])

    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_capped_candidates_are_failure_notes(self, family, monkeypatch):
        data = glm_table(family, 11, 40, 6)
        counts = []
        newton = glm._newton_stack

        def recording(objective, design, columns, base, what):
            out = newton(objective, design, columns, base, what)
            counts.append(out[2].copy())
            return out

        monkeypatch.setattr(glm, "_newton_stack", recording)
        free = lrt_path(data, max_steps=1)[0]
        # The base on A = [] is closed-form: one stacked solve, candidate m in row m.
        (iterations,) = counts
        cap = int(iterations.max())
        assert cap >= 2 and free.failures == []
        monkeypatch.setattr(glm, "MAX_ITER", cap - 1)
        capped = lrt_path(data, max_steps=1)[0]
        slow = np.flatnonzero(iterations == cap)
        assert capped.failures == [f"fit failed for candidate {m}: {family} fit: no convergence "
                                   f"after {cap - 1} iterations" for m in slow]
        assert np.flatnonzero(np.isnan(capped.drops)).tolist() == slow.tolist()
        fast = iterations < cap
        np.testing.assert_array_equal(capped.drops[fast], free.drops[fast])


def cox_table_300():
    """The (300, 48) Cox table of the benchmark's ``cox_table`` at seed 7:
    event draws, then three signals of size 0.7, then censoring of 10% of
    rate-1 events."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 300])))
    n, p = 300, 48
    X = rng.standard_normal((n, p))
    draws = rng.exponential(1.0, n)
    beta = np.zeros(p)
    beta[rng.choice(p, size=3, replace=False)] = 0.7 * rng.choice((-1.0, 1.0), size=3)
    event = draws / np.exp(X @ beta)
    censor = rng.exponential(0.9 / 0.1, n)
    return SurvivalDataset(X, np.minimum(event, censor), (event <= censor).astype(float))


class TestStepAcceptance:
    """A Newton step is judged against round-off relative to |loglik|: at n in
    the hundreds a Cox partial log-likelihood carries rounding above 1e-12,
    and an absolute slack of 1e-12 rejected every later step of a fit that
    converges alone."""

    def test_large_cox_candidates_converge_in_the_stack(self):
        data = cox_table_300()
        alone = glm_fit(data, [35])
        assert alone.iterations == 3
        steps = lrt_path(data, max_steps=30)
        # With the absolute slack, step 1's candidate 35 failed ("step
        # halving failed to improve the likelihood"), and so did 10 fits over
        # these 30 steps.
        assert [step.failures for step in steps] == [[]] * 30
        time, status = np.asarray(data.time), np.asarray(data.status)
        empty = cox_partial_loglik(np.zeros((data.n, 0)), time, status, np.zeros(0))
        assert steps[0].drops[35] == pytest.approx(2.0 * (alone.loglik - empty), abs=1e-9)


GLM_PIECES = {
    "logistic": lambda: random_binary(131, 40, 5, beta=np.array([0.8, -0.5, 0.0, 0.3, 0.0])),
    "logistic-no-intercept": lambda: random_binary(137, 40, 5, intercept=False),
    "cox-ties-censored": lambda: tied_survival(139, 40, 5),
}


def oracle_loglik_at(data, M):
    """beta -> the oracles' log-likelihood of the model on M, lead columns first."""
    X = np.asarray(data.X)[:, M]
    if isinstance(data, SurvivalDataset):
        return lambda beta: cox_partial_loglik(X, data.time, data.status, beta)
    if data.include_intercept:
        X = np.column_stack([np.ones(data.n), X])
    return lambda beta: logistic_loglik(X, data.y, beta)


def stacked_pieces(problem, Z, beta):
    """Log-likelihood, gradient and information of each design of the stack Z at beta."""
    ll, r, a, center = problem.objective((Z @ beta[:, :, None])[:, :, 0])
    return ll, (r[:, None] @ Z)[:, 0], glm._information(Z, a, center(Z, np.arange(len(Z))))


class TestNewtonPieces:
    @pytest.mark.parametrize("case", sorted(GLM_PIECES))
    def test_derivatives_match_central_differences(self, case):
        data = GLM_PIECES[case]()
        problem, M = glm._problem(data), [0, 2, 3]
        design = problem.design(M)
        d = design.shape[1]
        beta = np.random.default_rng(149).uniform(-0.6, 0.6, d)
        ll, grad, info = (x[0] for x in stacked_pieces(problem, design[None], beta[None]))
        f = oracle_loglik_at(data, M)
        assert ll == pytest.approx(f(beta), rel=1e-12)
        E, h = np.eye(d), 1e-5
        central = [(f(beta + h * e) - f(beta - h * e)) / (2 * h) for e in E]
        np.testing.assert_allclose(grad, central, rtol=0, atol=1e-6)
        # The information is the negated Hessian: four-point second differences.
        h = 1e-3
        hessian = np.array([[(f(beta + h * (e + g)) - f(beta + h * (e - g))
                              - f(beta - h * (e - g)) + f(beta - h * (e + g))) / (4 * h * h)
                             for g in E] for e in E])
        np.testing.assert_allclose(info, -hessian, rtol=0, atol=1e-4 * np.abs(hessian).max())

    @pytest.mark.parametrize("A", [[], [1, 4]], ids=["empty", "two"])
    @pytest.mark.parametrize("case", sorted(GLM_PIECES))
    def test_shared_start_equals_stacked_evaluation(self, case, A):
        data = GLM_PIECES[case]()
        problem = glm._problem(data)
        design, candidates = problem.design(A), [m for m in range(5) if m not in A]
        columns = problem.columns[:, candidates]
        base = np.random.default_rng(151).uniform(-0.6, 0.6, design.shape[1])
        Z = np.stack([np.column_stack([design, x]) for x in columns.T])
        ours = glm._shared_start(problem.objective, design, columns, base)
        theirs = stacked_pieces(problem, Z, stack_start(columns, base))
        for x, y in zip(ours, theirs):
            assert x.shape == y.shape
            for row in range(len(candidates)):
                np.testing.assert_allclose(x[row], y[row], rtol=0,
                                           atol=1e-12 * np.abs(y[row]).max())

    # Forming the information at every row evaluation, with the start of
    # each candidate evaluated on its own, would form 1,265 and 1,162 rows.
    @pytest.mark.parametrize("family, formed_rows", [("logistic", 665), ("cox", 562)])
    def test_information_only_where_a_newton_step_follows(self, family, formed_rows,
                                                          monkeypatch):
        formed, iterations = [], []
        information, newton = glm._information, glm._newton_stack

        def counting(Z, a, C):
            if Z.ndim == 3:  # a stacked evaluation, not the shared start
                formed.append(len(Z))
            return information(Z, a, C)

        def recording(*args):
            out = newton(*args)
            iterations.append(out[2].copy())
            return out

        monkeypatch.setattr(glm, "_information", counting)
        monkeypatch.setattr(glm, "_newton_stack", recording)
        steps = lrt_path(glm_table(family, 7, 150, 24))
        assert len(steps) == 24 and all(step.failures == [] for step in steps)
        # A fit converging at iterate k >= 1 forms its information after its
        # first k - 1 steps only: the start's comes from the shared start,
        # and the converged point's is never used.
        assert sum(formed) == sum(int(np.maximum(it - 1, 0).sum()) for it in iterations)
        assert sum(formed) == formed_rows


def glm_step(A, drops, failures):
    """The step at A of a greedy logistic path with these drops and failed fits."""
    j = None if np.isnan(drops).all() else best_candidate(drops)[0]
    return SelectionStep(k=len(A) + 1, A=tuple(A), j=j, drops=drops, selector="logistic",
                         failures=failures)


def step_fields(step):
    """Every field of a step but its drops, which compare as arrays."""
    return step.k, step.A, step.j, step.selector, step.failures, step.conservative


def lrt_test(data, A, alpha=0.05):
    """The Gumbel test of the drops ``lrt_drops_all`` reports at A."""
    return gumbel_test(glm_step(A, *lrt_drops_all(data, A)), alpha)


class TestGumbelTestGlm:
    def test_correction_matches_linear_case(self):
        data = random_binary(41, 100, 50)
        out = lrt_test(data, [])
        assert out.correction == pytest.approx(gumbel_correction(50), abs=1e-12)
        assert out.kind == "gumbel_glm"
        assert out.k == 1

    def test_all_zero_drops_degenerate_input(self):
        # Orthonormal design with a response orthogonal to every column:
        # every drop is exactly zero.
        # The Gaussian drops are ActiveQR's scaled RSS drops.
        X = np.eye(100)[:, :50]
        y = np.eye(100)[:, 60]
        out = gumbel_test(glm_step((), ActiveQR(X, y).drops(1.0), []))
        assert out.statistic == pytest.approx(-6.45999, abs=1e-4)
        assert out.p_value == pytest.approx(1.0, abs=1e-4)
        assert not out.reject

    def test_matches_linear_gumbel_test_on_gaussian_data(self):
        rng = np.random.default_rng(47)
        X = standardize(rng.standard_normal((40, 8)))
        y = rng.standard_normal(40)
        data = Dataset(X, y, sigma2=1.0)
        step = stepwise_path(data, max_steps=1)[0]
        linear = gumbel_test(step)
        glm = gumbel_test(glm_step((), ActiveQR(data.X, data.y).drops(1.0), []))
        assert glm.statistic == pytest.approx(linear.statistic, abs=1e-6)
        assert glm.j == linear.j

    def test_too_few_remaining(self):
        data = random_binary(53, 30, 4)
        with pytest.raises(TooFewRemainingError):
            lrt_test(data, [0, 1])

    def test_failed_candidates_are_warned_or_abort(self):
        # Insert a duplicate of column 0 so that candidate's fit is singular.
        rng = np.random.default_rng(59)
        X = standardize(rng.standard_normal((40, 12)))
        X = np.column_stack([X, X[:, 0]])
        y = (rng.random(40) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        data = BinaryDataset(X, y)
        out = lrt_test(data, [0])
        assert any("candidate 12" in w for w in out.warnings)

    @pytest.mark.parametrize("drops, failures, alpha, error", [
        # Alpha is checked first, then the centering, then the failed fits.
        # A failed fit is a NaN drop.
        ([], ["failed"] * 2, 0.0, ValueError),
        ([1.0], ["failed"] * 3, 1.5, ValueError),
        ([], ["failed"] * 2, 0.05, TooFewRemainingError),
        ([9.0], ["failed"], 0.05, TooFewRemainingError),
        ([1.0], ["failed"] * 3, 0.05, UnreliableMaxError),
        ([], ["failed"] * 5, 0.05, UnreliableMaxError),
    ])
    def test_error_order(self, drops, failures, alpha, error):
        drops = np.append(drops, np.full(len(failures), np.nan))
        with pytest.raises(error):
            gumbel_test(glm_step((), drops, failures), alpha)

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
            lrt_test(data, [0, 1, 2])


def glm_table(family, seed, n, p, signals=3, size=0.7):
    """A logistic or Cox table: standard-normal design, ``signals`` coefficients
    of magnitude ``size``, and for Cox exponential times with about 10% of
    them censored."""
    rng = np.random.default_rng([seed, n, p])
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[rng.choice(p, size=signals, replace=False)] = size * rng.choice((-1.0, 1.0), signals)
    eta = X @ beta
    if family == "logistic":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        y[:2] = 0.0, 1.0  # both labels occur
        return BinaryDataset(X, y)
    event = rng.exponential(1.0, n) / np.exp(eta)
    censor = rng.exponential(9.0, n)
    status = (event <= censor).astype(float)
    status[0] = 1.0  # at least one event
    return SurvivalDataset(X, np.where(status == 1.0, event, censor), status)


def cold_path(data):
    """The greedy path with each step's base refitted from zero: one stateless
    ``lrt_drops_all`` per step, as (A, drops, failures), or (A, error name)
    when the base fit fails."""
    A, steps = [], []
    while len(A) < data.p:
        try:
            drops, failures = lrt_drops_all(data, A)
        except SigtestError as exc:
            steps.append((tuple(A), type(exc).__name__))
            break
        steps.append((tuple(A), drops, failures))
        if np.isnan(drops).all():
            break
        A.append(best_candidate(drops)[0])
    return steps


def same_steps(ours, theirs, tol=1e-9):
    """Same models, failures and candidates, and drops within ``tol``."""
    if len(ours) != len(theirs):
        return False
    for a, b in zip(ours, theirs):
        if len(a) != len(b) or a[0] != b[0] or a[2:] != b[2:]:
            return False
        if not np.array_equal(np.isnan(a[1]), np.isnan(b[1])):
            return False
        if np.any(np.abs(a[1] - b[1]) > tol):  # NaN on both sides compares False
            return False
    return True


def stack_start(columns, base):
    """The (c, d + 1) starting points of a ``_newton_stack`` call: base, then 0."""
    return np.column_stack([np.tile(base, (columns.shape[1], 1)), np.zeros(columns.shape[1])])


def recording_newton(monkeypatch):
    """Record (starting points, coefficients) of every ``_newton_stack`` call."""
    calls = []
    newton = glm._newton_stack

    def recording(objective, design, columns, base, what):
        out = newton(objective, design, columns, base, what)
        calls.append((stack_start(columns, base), out[0].copy()))
        return out

    monkeypatch.setattr(glm, "_newton_stack", recording)
    return calls


PATH_DATA = {
    **PARITY_DATA,
    "logistic-150x24": ("logistic", lambda: glm_table("logistic", 7, 150, 24)),
    "cox-150x24": ("cox", lambda: glm_table("cox", 7, 150, 24)),
}


class TestLrtPath:
    @pytest.mark.parametrize("case", sorted(PATH_DATA))
    def test_steps_match_stateless_calls(self, case):
        _family, make = PATH_DATA[case]
        data = make()
        steps = list(lrt_path(data))
        assert len(steps) == data.p
        A = ()
        for step in steps:
            assert step.A == A
            drops, failures = lrt_drops_all(data, A)
            assert step.failures == failures
            assert np.array_equal(np.isnan(step.drops), np.isnan(drops))
            for m in np.flatnonzero(~np.isnan(drops)):
                assert step.drops[m] == pytest.approx(drops[m], abs=1e-9)
            j = best_candidate(step.drops)[0]
            assert j == best_candidate(drops)[0]
            if data.p - len(A) >= 3:
                ours, theirs = gumbel_test(step), lrt_test(data, A)
                assert (ours.j, ours.k, ours.A, ours.warnings) == (
                    theirs.j, theirs.k, theirs.A, theirs.warnings)
                for name in ("statistic", "p_value", "correction"):
                    assert getattr(ours, name) == pytest.approx(getattr(theirs, name), abs=1e-9)
            A += (j,)

    @pytest.mark.parametrize("make", [
        lambda: random_binary(101, 50, 12),
        lambda: random_binary(113, 50, 12, intercept=False),
        lambda: tied_survival(103, 50, 12),
    ], ids=["logistic", "logistic-no-intercept", "cox"])
    def test_closed_form_empty_model_then_carried_bases(self, make, monkeypatch):
        data = make()
        calls = recording_newton(monkeypatch)
        steps = lrt_path(data, max_steps=5)
        # The model on A = [] is a closed form, never a fit from zero; then
        # one stack of candidates per step.
        assert [len(b0) for b0, _beta in calls] == [12, 11, 10, 9, 8]
        # The first stack starts from the closed-form base, 0 for each candidate's column.
        base = glm_fit(data, []).coefficients
        np.testing.assert_array_equal(calls[0][0], np.tile(np.append(base, 0.0), (12, 1)))
        for k in range(1, 5):
            before, step = steps[k - 1], steps[k]
            row = [m for m in range(12) if m not in before.A].index(step.A[-1])
            start = calls[k][0]
            # Every candidate starts from the winning fit of the step before, 0 for its column.
            np.testing.assert_array_equal(start[:, :-1], np.tile(calls[k - 1][1][row],
                                                                 (len(start), 1)))
            np.testing.assert_array_equal(start[:, -1], 0.0)

    def test_rank_check_factors_only_the_base(self, monkeypatch):
        shapes = []
        qr = np.linalg.qr

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        data = random_binary(101, 50, 12)
        steps = list(lrt_path(data))
        # One QR of the (n, d) base design per Newton solve, one solve per
        # step, never a stack of designs; the model on A = [] needs none.
        assert shapes == [(50, 1 + len(step.A)) for step in steps]

    def test_ends_after_a_step_where_every_fit_fails(self):
        # Three copies of one column: after the first pick the other two are
        # rank deficient, so the second step has no drop and the path ends.
        rng = np.random.default_rng(3)
        x = rng.standard_normal(30)
        data = BinaryDataset(np.column_stack([x, x, x]), (rng.random(30) < 0.5) * 1.0)
        steps = list(lrt_path(data))
        assert [s.A for s in steps] == [(), (0,)]
        assert np.isnan(steps[1].drops).all() and len(steps[1].failures) == 2

    @pytest.mark.parametrize("make, family", [
        (lambda: random_binary(101, 50, 12), "logistic"),
        (lambda: tied_survival(103, 50, 12), "cox"),
    ], ids=["logistic", "cox"])
    def test_max_steps_gives_the_first_steps(self, make, family):
        data = make()
        full = lrt_path(data)
        assert len(full) == 12 and all(s.selector == family for s in full)
        for m in (0, 1, 5, 12):
            head = lrt_path(data, max_steps=m)
            assert [step_fields(s) for s in head] == [step_fields(s) for s in full[:m]]
            assert all(np.array_equal(s.drops, t.drops, equal_nan=True)
                       for s, t in zip(head, full))

    @pytest.mark.parametrize("max_steps", [-1, 13])
    def test_max_steps_outside_range_rejected(self, max_steps):
        with pytest.raises(ValueError, match=r"must lie in \[0, p=12\]"):
            lrt_path(random_binary(101, 50, 12), max_steps=max_steps)

    def test_gaussian_family_rejected(self):
        with pytest.raises(ValueError, match="^logistic or Cox regression needs a BinaryDataset"):
            next(lrt_path(Dataset(np.eye(3), np.ones(3), sigma2=1.0)))


def stacked_rank_errors(Z, what):
    """The rank check by a QR of every stacked design, which the check from
    the shared columns' factor replaced."""
    c, n, d = Z.shape
    if d > n:
        return [SingularDesignError(f"{what}: more columns than rows") for _ in range(c)]
    diag = np.abs(np.diagonal(np.linalg.qr(Z, mode="r"), axis1=1, axis2=2))
    deficient = (diag.max(axis=1) == 0) | (diag.min(axis=1) < RANK_TOL * diag.max(axis=1))
    return [SingularDesignError(f"{what}: design is rank deficient") if bad else None
            for bad in deficient]


def rank_case(name):
    """(problem, A, candidates, the candidates whose stack is rank deficient)."""
    rng = np.random.default_rng(127)
    X = rng.standard_normal((30, 6))
    y = (rng.random(30) < 0.5).astype(float)
    y[:2] = 0.0, 1.0
    if name == "duplicate":
        X[:, 4] = X[:, 1]
        return glm._logistic_problem(BinaryDataset(X, y)), [1, 3], [0, 2, 4, 5], [4]
    if name == "combination":
        X[:, 5] = 0.3 * X[:, 0] - 1.7 * X[:, 2]
        return glm._logistic_problem(BinaryDataset(X, y)), [0, 2], [1, 3, 4, 5], [5]
    if name == "constant-under-intercept":
        X[:, 3] = 2.5
        return glm._logistic_problem(BinaryDataset(X, y)), [], list(range(6)), [3]
    if name == "zero-column-cox":
        # Alone, a zero column's factor is all zero. That is not below
        # RANK_TOL times itself, but as in ActiveQR.add a zero norm is
        # deficient, so the fit fails here as it does beside any other column.
        X[:, 2] = 0.0
        data = SurvivalDataset(X, rng.exponential(1.0, 30), np.ones(30))
        return glm._cox_problem(data), [], list(range(6)), [2]
    # d + 1 > n: an intercept and four columns on five rows, plus a candidate.
    data = BinaryDataset(X[:5], np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    return glm._logistic_problem(data), [0, 1, 2, 3], [4, 5], [4, 5]


class TestRankCheck:
    @pytest.mark.parametrize("name", ["duplicate", "combination", "constant-under-intercept",
                                      "zero-column-cox", "more-columns-than-rows"])
    def test_matches_qr_of_each_stacked_design(self, name):
        problem, A, candidates, deficient = rank_case(name)
        design = problem.design(A)
        Z = np.stack([np.column_stack([design, problem.columns[:, m]]) for m in candidates])
        ours = glm._rank_errors(design, problem.columns[:, candidates], problem.what)
        theirs = stacked_rank_errors(Z, problem.what)
        assert [(type(e), str(e)) if e else None for e in ours] == [
            (type(e), str(e)) if e else None for e in theirs]
        assert [m for m, e in zip(candidates, ours) if e] == deficient
        if name == "more-columns-than-rows":
            assert all("more columns than rows" in str(e) for e in ours)

    def test_rank_deficient_base_is_caught(self):
        # A base with two equal columns: every stack is deficient.
        problem, _A, _candidates, _bad = rank_case("duplicate")
        errors = glm._rank_errors(problem.design([1, 4]), problem.columns[:, [0, 2]], "fit")
        assert all(isinstance(e, SingularDesignError) for e in errors)

    @pytest.mark.parametrize("family", ["cox", "logistic"])
    def test_zero_column_fails_at_every_step(self, family):
        # A column of zeros is rank deficient beside any model, the empty
        # one included, as in ActiveQR.add: no drop of 0 at the first step.
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 5))
        X[:, 2] = 0.0
        data = (SurvivalDataset(X, rng.exponential(1.0, 40), np.ones(40)) if family == "cox"
                else BinaryDataset(X, (rng.random(40) < 0.5) * 1.0, include_intercept=False))
        note = f"fit failed for candidate 2: {family} fit: design is rank deficient"
        steps = lrt_path(data, max_steps=3)
        assert [s.failures for s in steps] == [[note]] * 3
        assert all(np.isnan(s.drops[2]) and 2 not in s.A for s in steps)
        with pytest.raises(SingularDesignError, match=f"^{family} fit: design is rank deficient$"):
            glm_fit(data, [2])
        with pytest.raises(SingularDesignError, match=f"^{family} fit: design is rank deficient$"):
            glm_fit(data, [0, 2])


# A table's carried path may differ from the cold one only where some fit on
# it runs off towards a diverging ray: until separation is judged from the
# data, such a fit may stop as converged at a point that depends on its start.
FENCE_NORM = 10.0
FENCE_SIZES = ((8, 6), (15, 8), (25, 10), (40, 15), (60, 24))


def fence_corpus():
    for family in ("logistic", "cox"):
        for n, p in FENCE_SIZES:
            for seed in range(10):
                yield f"{family}-{n}x{p}-{seed}", family, glm_table(family, seed, n, p)


def fence_report(monkeypatch):
    """Per table of the corpus: whether the carried path equals the cold one
    to 1e-9, and the largest coefficient norm of any fit on either."""
    calls = recording_newton(monkeypatch)
    report = {}
    for name, _family, data in fence_corpus():
        calls.clear()
        carried = [(step.A, step.drops, step.failures) for step in lrt_path(data)]
        same = same_steps(carried, cold_path(data))
        report[name] = same, max(np.linalg.norm(beta, axis=1).max() for _b0, beta in calls)
    return report


def test_carried_path_differs_only_where_a_fit_diverges(monkeypatch):
    report = fence_report(monkeypatch)
    assert len(report) == 100
    assert [name for name, (same, norm) in report.items() if not same and norm <= FENCE_NORM] == []
    # Not vacuous: every table of the largest size matches.
    assert all(same for name, (same, _norm) in report.items() if name.split("-")[1] == "60x24")


class TestGaussianLoglik:
    # The Gaussian likelihood-ratio drop is ActiveQR's scaled RSS drop.
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
        assert ActiveQR(X, y, [0]).drops(data.sigma2)[1] == pytest.approx(expect, abs=1e-10)
