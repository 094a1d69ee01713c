import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import normal_equation_drop
from sigtest import (
    BinaryDataset,
    Dataset,
    DegenerateColumnError,
    DegenerateVarianceError,
    MissingVarianceError,
    NotEstimableError,
    PathTruncationWarning,
    SingularDesignError,
    estimate_sigma2,
    kkt_check,
    lasso_solve,
    least_squares,
    logistic_fit,
    lrt_drop,
    standardize,
    stepwise_path,
)
from sigtest.glm import lrt_drops_all
from sigtest.linmodel import ActiveQR


def random_dataset(seed, n, p, sigma2=1.0):
    rng = np.random.default_rng(seed)
    X = standardize(rng.standard_normal((n, p)))
    y = rng.standard_normal(n)
    return Dataset(X, y, sigma2=sigma2)


def drops(data, A=()):
    """Scaled RSS drop of every column outside A, as the selectors compute it."""
    return ActiveQR(data.X, data.y, A).drops(data.require_sigma2())


class TestDataset:
    def test_rejects_nonfinite(self):
        X = np.ones((3, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X, np.zeros(3))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((1, 1)), np.ones(1))

    def test_rejects_bad_sigma2(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.ones(2), sigma2=0.0)

    def test_arrays_are_frozen(self):
        data = Dataset(np.eye(3), np.arange(3.0))
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    def test_digest_tracks_content(self):
        a = Dataset(np.eye(3), np.arange(3.0))
        b = Dataset(np.eye(3), np.arange(3.0))
        c = Dataset(np.eye(3), np.arange(3.0) + 1)
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_is_standardized(self):
        # standardize gives unit squared column norms; Dataset keeps X as given.
        norms2 = lambda data: np.einsum("ij,ij->j", data.X, data.X)
        np.testing.assert_allclose(norms2(Dataset(standardize(2 * np.eye(3)), np.zeros(3))),
                                   1.0, atol=1e-8)
        assert np.all(np.abs(norms2(Dataset(2 * np.eye(3), np.zeros(3))) - 1.0) > 1e-8)


class TestStandardize:
    def test_unit_norm_scaling(self):
        out = standardize(np.array([[3.0], [4.0]]), center=False)
        np.testing.assert_allclose(out[:, 0], [0.6, 0.8])

    def test_constant_column_with_center_errors(self):
        with pytest.raises(DegenerateColumnError) as err:
            standardize(np.array([[1.0], [1.0]]), center=True)
        assert err.value.index == 0

    def test_centered_column_already_centered(self):
        out = standardize(np.array([[1.0], [-1.0]]), center=True)
        np.testing.assert_allclose(out[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_zero_column_errors(self):
        with pytest.raises(DegenerateColumnError):
            standardize(np.zeros((3, 1)), center=False)

    def test_center_produces_zero_mean_unit_norm(self):
        rng = np.random.default_rng(0)
        out = standardize(rng.standard_normal((20, 4)) + 3.0, center=True)
        np.testing.assert_allclose(out.sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(np.einsum("ij,ij->j", out, out), 1.0, atol=1e-12)


class TestLeastSquares:
    def test_single_column_mean(self):
        # All-ones column scaled to unit norm; fitted values are the mean.
        X = standardize(np.ones((2, 1)))
        data = Dataset(X, np.array([1.0, 3.0]))
        fit = least_squares(data, [0])
        np.testing.assert_allclose(fit.fitted, [2.0, 2.0])
        assert fit.rss == pytest.approx(2.0)

    def test_empty_subset_is_null_model(self):
        data = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]))
        fit = least_squares(data, [])
        assert fit.coefficients.size == 0
        assert fit.rss == pytest.approx(14.0)
        np.testing.assert_array_equal(fit.fitted, np.zeros(3))

    def test_identity_two_columns(self):
        data = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]))
        fit = least_squares(data, [0, 2])
        assert fit.rss == pytest.approx(1.0)

    def test_rank_deficient_errors(self):
        X = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0] * 2, np.eye(3)[:, 1]])
        data = Dataset(X, np.ones(3))
        with pytest.raises(SingularDesignError):
            least_squares(data, [0, 1])

    def test_subset_larger_than_n_errors(self):
        data = random_dataset(1, 3, 5)
        with pytest.raises(SingularDesignError):
            least_squares(data, [0, 1, 2, 3])

    def test_repeated_index_errors(self):
        data = random_dataset(1, 5, 3)
        with pytest.raises(ValueError):
            least_squares(data, [0, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_residual_orthogonality(self, seed):
        data = random_dataset(seed, 15, 4)
        fit = least_squares(data, [0, 2, 3])
        grad = data.X[:, [0, 2, 3]].T @ (data.y - fit.fitted)
        np.testing.assert_allclose(grad, 0.0, atol=1e-8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed):
        data = random_dataset(seed, 12, 5)
        fit_a = least_squares(data, [0, 1, 3])
        fit_b = least_squares(data, [3, 0, 1])
        assert fit_a.rss == pytest.approx(fit_b.rss, abs=1e-10)
        np.testing.assert_allclose(
            fit_a.coefficients, [fit_b.coefficients[1], fit_b.coefficients[2], fit_b.coefficients[0]],
            atol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rss_weakly_decreasing(self, seed):
        data = random_dataset(seed, 20, 6)
        prev = least_squares(data, []).rss
        subset = []
        for j in range(4):
            subset.append(j)
            cur = least_squares(data, subset).rss
            assert cur <= prev + 1e-10
            prev = cur


_GAUSSIAN = random_dataset(2, 30, 5)
_BINARY = BinaryDataset(_GAUSSIAN.X, (np.arange(30) % 2).astype(float))
SUBSET_ENTRY_POINTS = {
    "logistic_fit": lambda M: logistic_fit(_BINARY, M),
    "lrt_drops_all": lambda M: lrt_drops_all("logistic", _BINARY, M),
    "lasso_solve": lambda M: lasso_solve(_GAUSSIAN, 0.1, subset=M),
    "kkt_check": lambda M: kkt_check(_GAUSSIAN, np.zeros(5), 0.1, subset=M),
}


@pytest.mark.parametrize("subset, error, message", [
    pytest.param([0, -1], IndexError, r"column index -1 out of range \[0, 5\)", id="minus-one"),
    pytest.param([0, 5], IndexError, r"column index 5 out of range \[0, 5\)", id="p"),
    pytest.param([1, 1], ValueError, "repeated indices", id="repeated"),
])
@pytest.mark.parametrize("entry", sorted(SUBSET_ENTRY_POINTS))
def test_subset_validation(entry, subset, error, message):
    # A negative index must not alias column p - 1.
    with pytest.raises(error, match=message):
        SUBSET_ENTRY_POINTS[entry](subset)


class TestRStat:
    # The scaled RSS drop R = (RSS_A - RSS_{A u {m}}) / sigma2 of ActiveQR.drops.
    def test_identity_examples(self):
        data = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]), sigma2=1.0)
        assert drops(data)[0] == pytest.approx(9.0)
        assert drops(data)[1] == pytest.approx(1.0)

    def test_missing_variance_errors(self):
        data = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]))
        with pytest.raises(MissingVarianceError):
            stepwise_path(data)
        with pytest.raises(MissingVarianceError):
            lrt_drop("gaussian", data, [], 0)

    def test_matches_gaussian_loglik_gain(self):
        # Twice the Gaussian log-likelihood gain equals the scaled RSS drop.
        data = random_dataset(7, 20, 5, sigma2=1.0)
        A, m = [1, 3], 0
        rss_a = least_squares(data, A).rss
        rss_am = least_squares(data, A + [m]).rss
        loglik = lambda rss: -0.5 * data.n * np.log(2 * np.pi) - rss / 2.0
        gain = 2 * (loglik(rss_am) - loglik(rss_a))
        assert drops(data, A)[m] == pytest.approx(gain, abs=1e-10)
        assert drops(data, A)[m] == pytest.approx(rss_a - rss_am, abs=1e-10)

    def test_orthonormal_closed_form(self):
        data = random_dataset(3, 10, 4, sigma2=2.0)
        Q, _ = np.linalg.qr(np.asarray(data.X))
        ortho = Dataset(Q, data.y, sigma2=2.0)
        for m in range(4):
            expect = float(Q[:, m] @ ortho.y) ** 2 / 2.0
            assert drops(ortho)[m] == pytest.approx(expect, abs=1e-10)

    def test_candidate_already_in_subset(self):
        data = random_dataset(5, 10, 3)
        assert set(drops(data, [0])) == {1, 2}
        with pytest.raises(ValueError):
            lrt_drop("gaussian", data, [0], 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batch_agrees_with_single(self, seed):
        data = random_dataset(seed, 15, 6, sigma2=1.3)
        batch = drops(data, [1, 4])
        assert set(batch) == {0, 2, 3, 5}
        for m, val in batch.items():
            assert val == pytest.approx(
                normal_equation_drop(data.X, data.y, [1, 4], m, 1.3), abs=1e-8)

    def test_nonnegative(self):
        data = random_dataset(11, 25, 8)
        for m, val in drops(data, [0, 5]).items():
            assert val >= 0.0


class TestNearCollinearPair:
    # Column 1 is column 0 turned by about eps. Its residual on column 0 has
    # squared norm about eps^2: below 1e-12 its drop is 0, and with eps under
    # RANK_TOL the pair is rank deficient.
    @pytest.mark.parametrize("eps, singular", [(1e-8, False), (1e-12, True)])
    def test_zero_drop_or_singular(self, eps, singular):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((20, 4))
        X = standardize(np.column_stack([Z[:, 0], Z[:, 0] + eps * Z[:, 1], Z[:, 2:]]))
        data = Dataset(X, 3.0 * X[:, 0] + 0.1 * rng.standard_normal(20), sigma2=1.0)
        assert drops(data, [0])[1] == 0.0
        assert drops(data, [0, 2])[1] == 0.0
        with pytest.warns(PathTruncationWarning):
            steps = stepwise_path(data)
        js = [s.j for s in steps]
        assert js[0] == 0 and sorted(js) == [0, 2, 3]
        if singular:
            with pytest.raises(SingularDesignError):
                least_squares(data, [0, 1])
            with pytest.raises(SingularDesignError):
                drops(data, [2, 0, 1])
        else:
            fit = least_squares(data, [0, 1])
            assert fit.rss <= least_squares(data, [0]).rss
            assert set(drops(data, [0, 1])) == {2, 3}


class TestActiveQRDowndate:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(12, 30),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 99)), min_size=1, max_size=30))
    def test_add_drop_sequences_match_fresh_factor(self, seed, n, ops):
        # drops() runs between updates, so the residualised columns it keeps
        # are carried across every later add and drop.
        p = 8
        rng = np.random.default_rng(seed)
        X = standardize(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        qr = ActiveQR(X, y)
        for add, pick in ops:
            outside = [m for m in range(p) if m not in qr.cols]
            if add and outside:
                qr.add(outside[pick % len(outside)])
            elif qr.cols:
                qr.drop(qr.cols[pick % len(qr.cols)])
            got = qr.drops(1.0)
            fresh = ActiveQR(X, y, qr.cols)
            XA = X[:, qr.cols]
            coef = np.linalg.lstsq(XA, y, rcond=None)[0]
            np.testing.assert_allclose(qr.coef, coef, rtol=0, atol=1e-10)
            np.testing.assert_allclose(qr.coef, fresh.coef, rtol=0, atol=1e-10)
            np.testing.assert_allclose(qr.resid, y - XA @ coef, rtol=0, atol=1e-10)
            s = rng.choice([-1.0, 1.0], size=len(qr.cols))
            b0, b1, fit_b1 = qr.segment(s)
            np.testing.assert_allclose(b0, coef, rtol=0, atol=1e-10)
            np.testing.assert_allclose(b1, np.linalg.solve(XA.T @ XA, s), rtol=0, atol=1e-10)
            np.testing.assert_allclose(fit_b1, XA @ b1, rtol=0, atol=1e-10)
            want = fresh.drops(1.0)
            assert got.keys() == want.keys()
            np.testing.assert_allclose([got[m] for m in want], list(want.values()),
                                       rtol=0, atol=1e-10)

    def test_drop_then_add_restores_the_factor(self):
        data = random_dataset(4, 20, 6)
        qr = ActiveQR(data.X, data.y, [0, 1, 2, 3, 4])
        qr.drop(1)
        assert qr.cols == [0, 2, 3, 4]
        qr.add(1)
        fresh = ActiveQR(data.X, data.y, [0, 2, 3, 4, 1])
        np.testing.assert_allclose(qr.coef, fresh.coef, rtol=0, atol=1e-12)
        np.testing.assert_allclose(qr.resid, fresh.resid, rtol=0, atol=1e-12)


class TestEstimateSigma2:
    def test_perfect_fit_is_degenerate(self):
        X = standardize(np.array([[1.0], [2.0]]))
        y = 3.0 * X[:, 0]
        with pytest.raises(DegenerateVarianceError):
            estimate_sigma2(Dataset(X, y))

    def test_null_gaussian_estimate_in_band(self):
        rng = np.random.default_rng(2024)
        X = standardize(rng.standard_normal((100, 50)))
        y = rng.standard_normal(100)
        assert 0.6 <= estimate_sigma2(Dataset(X, y)) <= 1.5

    def test_not_estimable(self):
        data = random_dataset(9, 5, 5)
        with pytest.raises(NotEstimableError):
            estimate_sigma2(data)
