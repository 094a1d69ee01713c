import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import normal_equation_drop
from sigtest import (
    BinaryDataset,
    Dataset,
    DegenerateColumnError,
    DegenerateResponseError,
    DegenerateVarianceError,
    DuplicateColumnError,
    MissingVarianceError,
    NoEventsError,
    NotEstimableError,
    PathTruncationWarning,
    SingularDesignError,
    SurvivalDataset,
    estimate_sigma2,
    glm_fit,
    kkt_check,
    lasso_solve,
    lars_path,
    lasso_steps,
    least_squares,
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

    @pytest.mark.parametrize("sigma2", [-1.0, np.inf, np.nan])
    def test_sigma2_must_be_finite_and_positive(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
            Dataset(np.eye(2), np.ones(2), sigma2=sigma2)

    def test_failed_check_leaves_caller_arrays_writable(self):
        X, y = np.eye(3), np.array([0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="y contains non-finite"):
            Dataset(X, y)
        assert X.flags.writeable and y.flags.writeable

    def test_arrays_are_frozen(self):
        data = Dataset(np.eye(3), np.arange(3.0))
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    def test_is_standardized(self):
        # standardize gives unit squared column norms; Dataset keeps X as given.
        norms2 = lambda data: np.einsum("ij,ij->j", data.X, data.X)
        np.testing.assert_allclose(norms2(Dataset(standardize(2 * np.eye(3)), np.zeros(3))),
                                   1.0, atol=1e-8)
        assert np.all(np.abs(norms2(Dataset(2 * np.eye(3), np.zeros(3))) - 1.0) > 1e-8)


def copies_oracle(X):
    """Dataset.copies by keying every column on its bytes."""
    first, copies = {}, {}
    for j in range(X.shape[1]):
        copies_of = first.setdefault(X[:, j].tobytes(), j)
        if copies_of != j:
            copies[j] = copies_of
    return copies


class TestCopies:
    def test_duplicated_columns_map_to_the_first(self):
        X = np.random.default_rng(3).standard_normal((6, 9))
        X[:, 4] = X[:, 1]
        X[:, 7] = X[:, 1]
        X[:, 8] = X[:, 2]
        data = Dataset(X, np.zeros(6))
        assert data.copies == copies_oracle(data.X) == {4: 1, 7: 1, 8: 2}

    def test_signed_zeros_differ(self):
        # -0.0 and 0.0 compare equal as floats but not as bytes.
        X = np.random.default_rng(4).standard_normal((5, 6))
        X[:, 0] = X[:, 3] = 0.0
        X[:, 1] = -0.0
        X[2, 4] = 0.0
        X[:, 5] = X[:, 4]
        X[2, 5] = -0.0  # column 5 is column 4 but for the sign of one zero
        data = Dataset(X, np.zeros(5))
        assert data.copies == copies_oracle(data.X) == {3: 0}

    def test_shared_first_row_is_not_enough(self):
        X = np.random.default_rng(5).standard_normal((7, 8))
        X[0] = 1.5
        X[:, 6] = X[:, 2]
        X[3, 5] = X[3, 2]  # agrees with column 2 in two rows, not all
        data = Dataset(X, np.zeros(7))
        assert data.copies == copies_oracle(data.X) == {6: 2}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_bytes_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 6)), int(rng.integers(1, 12))
        # Few distinct values, both zeros among them, so that rows and columns repeat.
        X = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.5]), size=(n, p))
        data = Dataset(X, np.zeros(n))
        assert data.copies == copies_oracle(data.X)


# The arrays of each kind of dataset, X first.
KINDS = {Dataset: ("X", "y"), BinaryDataset: ("X", "y"), SurvivalDataset: ("X", "time", "status")}


def valid_arrays(kind, n=4, p=2):
    """Arrays that a dataset of the given kind accepts, with n rows and p columns."""
    arrays = {"X": np.random.default_rng(5).standard_normal((n, p)), "y": np.arange(n) % 2.0,
              "time": np.arange(1.0, n + 1), "status": np.ones(n)}
    return {name: arrays[name] for name in KINDS[kind]}


class TestDatasetContract:
    """The rules that every kind of dataset shares, and each kind's own."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_valid_arrays_accepted(self, kind):
        data = kind(**valid_arrays(kind))
        assert (data.n, data.p) == (4, 2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_design_must_be_a_matrix(self, kind):
        arrays = valid_arrays(kind)
        arrays["X"] = arrays["X"][:, 0]
        with pytest.raises(ValueError, match="^X must be a 2-d matrix$"):
            kind(**arrays)

    @pytest.mark.parametrize("n, p", [(1, 2), (0, 3), (4, 0)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_need_two_rows_and_a_column(self, kind, n, p):
        with pytest.raises(ValueError, match=f"^need n >= 2 and p >= 1, got n={n}, p={p}$"):
            kind(**valid_arrays(kind, n, p))

    @pytest.mark.parametrize("kind, name", [(k, a) for k, names in KINDS.items()
                                            for a in names[1:]])
    def test_every_other_array_has_n_entries(self, kind, name):
        arrays = valid_arrays(kind)
        arrays[name] = arrays[name][:3]
        with pytest.raises(ValueError, match=f"^{name} has length 3, expected 4$"):
            kind(**arrays)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind, name", [(k, a) for k, names in KINDS.items() for a in names])
    def test_every_array_is_finite(self, kind, name, bad):
        arrays = valid_arrays(kind)
        arrays[name][-1] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            kind(**arrays)

    @pytest.mark.parametrize("kind, name, values, error, message", [
        (BinaryDataset, "y", [0, 2, 1, 0], ValueError, "y must contain only 0 and 1"),
        (BinaryDataset, "y", [1, 1, 1, 1], DegenerateResponseError, "at least one 0 and one 1"),
        (SurvivalDataset, "time", [1, 0, 2, 3], ValueError, "all times must be positive"),
        (SurvivalDataset, "status", [1, 2, 0, 1], ValueError, "status must contain only 0 and 1"),
        (SurvivalDataset, "status", [0, 0, 0, 0], NoEventsError, "no observed events"),
    ])
    def test_rules_of_each_kind(self, kind, name, values, error, message):
        arrays = valid_arrays(kind)
        arrays[name] = np.array(values, dtype=float)
        with pytest.raises(error, match=message):
            kind(**arrays)


class TestStandardize:
    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="^X must be a 2-d matrix$"):
            standardize(np.ones(3))

    def test_unit_norm_scaling(self):
        out = standardize(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out[:, 0], [0.6, 0.8])

    def test_centered_column_already_centered(self):
        out = standardize(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(out[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_zero_column_errors(self):
        with pytest.raises(DegenerateColumnError) as err:
            standardize(np.zeros((3, 1)))
        assert err.value.index == 0

    def test_constant_column_is_only_rescaled(self):
        out = standardize(np.full((4, 1), 3.0))
        np.testing.assert_allclose(out[:, 0], 0.5)

    @pytest.mark.parametrize("scale", [5e-321, 1e-212, 1e-160, 1e-100, 1.0, 1e100, 1e160,
                                       1e196, 1e300])
    def test_unit_norm_at_extreme_column_scales(self, scale):
        # Squaring the column as it stands underflows below about 1e-154 and
        # overflows above about 1e154.
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((20, 3))
        X = Z.copy()
        X[:, 1] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = standardize(X)
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out[:, [0, 2]], standardize(Z)[:, [0, 2]])
        if scale >= 1e-300:  # not a subnormal column, whose digits are rounded away
            np.testing.assert_allclose(out[:, 1], standardize(Z)[:, 1], rtol=0, atol=1e-15)
        X[:, 1] = 0.0
        with pytest.raises(DegenerateColumnError, match="^column 1 has zero norm$"):
            standardize(X)

    def test_output_does_not_depend_on_memory_layout(self):
        # A column's sum of squares adds in one order for C and Fortran input.
        X = np.random.default_rng(5).standard_normal((100, 50))
        out = standardize(np.asfortranarray(X))
        np.testing.assert_array_equal(out, standardize(X))
        assert out.flags.c_contiguous


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
_SURVIVAL = SurvivalDataset(_GAUSSIAN.X, np.arange(1.0, 31.0), np.ones(30))
SUBSET_ENTRY_POINTS = {
    "glm_fit-logistic": lambda M: glm_fit(_BINARY, M),
    "glm_fit-cox": lambda M: glm_fit(_SURVIVAL, M),
    "lrt_drops_all": lambda M: lrt_drops_all(_BINARY, M),
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
            lasso_steps(lars_path(data))

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
        assert np.flatnonzero(~np.isnan(drops(data, [0]))).tolist() == [1, 2]
        # The model on A plus a candidate already in A repeats an index.
        with pytest.raises(ValueError, match="repeated indices"):
            least_squares(data, [0] + [0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batch_agrees_with_single(self, seed):
        data = random_dataset(seed, 15, 6, sigma2=1.3)
        batch = drops(data, [1, 4])
        assert np.flatnonzero(~np.isnan(batch)).tolist() == [0, 2, 3, 5]
        for m in (0, 2, 3, 5):
            assert batch[m] == pytest.approx(
                normal_equation_drop(data.X, data.y, [1, 4], m, 1.3), abs=1e-8)

    def test_nonnegative(self):
        data = random_dataset(11, 25, 8)
        assert np.all(np.delete(drops(data, [0, 5]), [0, 5]) >= 0.0)


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
            assert np.flatnonzero(~np.isnan(drops(data, [0, 1]))).tolist() == [2, 3]


class TestActiveQRDowndate:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(12, 30),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 99)), min_size=1, max_size=30))
    def test_add_drop_sequences_match_fresh_factor(self, seed, n, ops):
        # drops() runs between updates, so the squared residual norms it
        # keeps are downdated across every later add and drop.
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
            want = fresh.drops(1.0)
            # NaN on the columns of A, in both
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, equal_nan=True)

    def test_drop_then_add_restores_the_factor(self):
        data = random_dataset(4, 20, 6)
        qr = ActiveQR(data.X, data.y, [0, 1, 2, 3, 4])
        qr.drop(1)
        assert qr.cols == [0, 2, 3, 4]
        qr.add(1)
        fresh = ActiveQR(data.X, data.y, [0, 2, 3, 4, 1])
        np.testing.assert_allclose(qr.coef, fresh.coef, rtol=0, atol=1e-12)
        np.testing.assert_allclose(qr.resid, fresh.resid, rtol=0, atol=1e-12)


def near_copies(seed, n, p, eps):
    """Column 1 is column 0 plus eps noise and column 5 is x2 + x3 - x4 plus
    eps noise, so each has a residual of squared norm about eps^2 once its
    twin (or x2, x3 and x4) is in A."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, p))
    Z[:, 1] = Z[:, 0] + eps * rng.standard_normal(n)
    Z[:, 5] = Z[:, 2] + Z[:, 3] - Z[:, 4] + eps * rng.standard_normal(n)
    X = standardize(Z)
    return Dataset(X, X[:, :3] @ [4.0, -3.0, 2.0] + rng.standard_normal(n), sigma2=1.0)


def assert_drops_match_refits(data, A, got):
    # Two fresh least-squares fits, not normal equations: those lose about
    # cond^2 on near copies.
    rss_a = least_squares(data, A).rss
    for m in np.flatnonzero(~np.isnan(got)):
        rss_am = least_squares(data, list(A) + [int(m)]).rss
        assert got[m] == pytest.approx((rss_a - rss_am) / data.sigma2, abs=1e-9)


class TestKeptResidualNorms:
    # ActiveQR downdates each column's squared residual norm by (x_m'q)^2
    # and recomputes it once it falls below 1e-3 of ||x_m||^2; without the
    # recompute a near copy's drop would carry the cancellation of 1 - eps^2.
    @pytest.mark.parametrize("seed", range(3))
    def test_stepwise_drops_on_near_copies(self, seed):
        data = near_copies(seed, 30, 12, 1e-5)
        steps = stepwise_path(data)
        assert len(steps) == 12
        for step in steps:
            assert_drops_match_refits(data, step.A, step.drops)

    @pytest.mark.parametrize("seed", range(3))
    def test_add_drop_sequences_on_near_copies(self, seed):
        data = near_copies(seed, 30, 12, 1e-5)
        rng = np.random.default_rng(seed)
        qr = ActiveQR(data.X, data.y)
        for cols in ([0, 1], [2, 3, 4, 5], [1, 0, 5], [4, 2, 3]):
            for j in [c for c in cols if c not in qr.cols]:
                qr.add(j)
                assert_drops_match_refits(data, qr.cols, qr.drops(1.0))
            for j in rng.permutation(qr.cols)[:len(qr.cols) - 1]:
                qr.drop(int(j))
                assert_drops_match_refits(data, qr.cols, qr.drops(1.0))

    @pytest.mark.parametrize("sigma2", [1.0, 0.37])
    def test_first_drops_with_empty_A_start_at_column_norms(self, sigma2):
        # With A empty the kept norm is ||x_m||^2 exactly, with no projection.
        base = near_copies(1, 30, 12, 1e-5)
        data = Dataset(base.X * np.linspace(0.5, 3.0, 12), base.y, sigma2=sigma2)
        X, y = data.X, data.y
        want = (X.T @ y) ** 2 / np.einsum("ij,ij->j", X, X) / sigma2
        assert np.array_equal(stepwise_path(data, max_steps=1)[0].drops, want)

    def test_no_n_by_p_state(self):
        # On a wide design the factor buffer is smaller than X, so any kept
        # n x p array would show.
        data = random_dataset(2, 10, 40)
        n, p = data.X.shape
        qr = ActiveQR(data.X, data.y, [0, 1, 2])
        qr.drops(1.0)
        qr.add(3)
        qr.drop(1)
        qr.drops(1.0)
        for name, value in vars(qr).items():
            if isinstance(value, np.ndarray) and value is not data.X:
                assert value.size < n * p, name


class TestEstimateSigma2:
    def test_perfect_fit_is_degenerate(self):
        X = standardize(np.array([[1.0], [2.0]]))
        y = 3.0 * X[:, 0]
        with pytest.raises(DegenerateVarianceError):
            estimate_sigma2(Dataset(X, y))

    @pytest.mark.parametrize("scale", [1e-14, 1e-12, 1.0, 1e12])
    def test_exactness_is_relative_to_the_response(self, scale):
        # The verdict "full fit is exact" compares the estimate with ||y||^2,
        # so a response of any size gets its estimate scaled by scale^2.
        data = random_dataset(6, 40, 10)
        base = estimate_sigma2(data)
        scaled = estimate_sigma2(Dataset(data.X, scale * data.y))
        assert scaled == pytest.approx(scale ** 2 * base, rel=1e-9)

    def test_zero_response_is_degenerate(self):
        data = random_dataset(6, 40, 10)
        with pytest.raises(DegenerateVarianceError):
            estimate_sigma2(Dataset(data.X, np.zeros(40)))

    def test_null_gaussian_estimate_in_band(self):
        rng = np.random.default_rng(2024)
        X = standardize(rng.standard_normal((100, 50)))
        y = rng.standard_normal(100)
        assert 0.6 <= estimate_sigma2(Dataset(X, y)) <= 1.5

    def test_not_estimable(self):
        data = random_dataset(9, 5, 5)
        with pytest.raises(NotEstimableError):
            estimate_sigma2(data)

    def test_duplicate_columns_are_named(self):
        # A byte-identical pair fails as it does in every path and fit that
        # takes a column list, not as a rank deficiency of the prefix.
        data = random_dataset(9, 40, 6)
        X = data.X.copy()
        X[:, 5] = X[:, 2]
        with pytest.raises(DuplicateColumnError, match=r"^columns 2 and 5 are exact duplicates$"):
            estimate_sigma2(Dataset(X, data.y))
