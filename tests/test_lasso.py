import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cd_lasso,
    cd_support_change_points,
    lasso_objective,
    lasso_segment,
)
import sigtest.lasso as lasso_module
from sigtest import (
    Dataset,
    DuplicateColumnError,
    Knot,
    LassoPath,
    PathNonTerminationError,
    SingularDesignError,
    StalePathError,
    gen_design,
    kkt_check,
    lars_path,
    lasso_solve,
    least_squares,
    standardize,
)

IDENTITY = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]), sigma2=1.0)


def random_dataset(seed, n, p, rho=0.0, sigma2=1.0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    if rho:
        X = np.empty_like(z)
        X[:, 0] = z[:, 0]
        for j in range(1, p):
            X[:, j] = rho * X[:, j - 1] + np.sqrt(1 - rho * rho) * z[:, j]
    else:
        X = z
    X = standardize(X)
    beta = np.zeros(p)
    beta[: min(2, p)] = [1.5, -1.0][: min(2, p)]
    y = X @ beta + rng.standard_normal(n)
    return Dataset(X, y, sigma2=sigma2)


class TestLarsPath:
    def test_identity_knots(self):
        path = lars_path(IDENTITY)
        assert [kn.lam for kn in path.knots] == [3.0, 2.0, 1.0]
        assert [kn.entering for kn in path.knots] == [0, 2, 1]
        assert [kn.action for kn in path.knots] == ["enter"] * 3
        assert path.knots[0].active_before == ()
        assert path.knots[2].signs_after == (1, 1, -1)

    def test_event_cap_raises_sigtest_error(self, monkeypatch):
        path = lars_path(IDENTITY)
        monkeypatch.setattr(lasso_module, "MAX_EVENTS_PER_COLUMN", 0)
        with pytest.raises(PathNonTerminationError):
            lars_path(IDENTITY)
        with pytest.raises(PathNonTerminationError):
            lasso_solve(IDENTITY, 0.5, subset=[0, 1], path=path)

    def test_zero_response_empty_path(self):
        path = lars_path(Dataset(np.eye(3), np.zeros(3), sigma2=1.0))
        assert path.knots == ()

    def test_orthogonal_knots_are_sorted_correlations(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 6)))
        y = rng.standard_normal(12)
        path = lars_path(Dataset(Q, y))
        corr = np.abs(Q.T @ y)
        np.testing.assert_allclose(
            [kn.lam for kn in path.knots], np.sort(corr)[::-1], atol=1e-10)
        assert [kn.entering for kn in path.knots] == list(np.argsort(-corr))

    def test_duplicate_columns_error(self):
        X = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0]])
        with pytest.raises(DuplicateColumnError):
            lars_path(Dataset(X, np.ones(3)))

    def test_duplicate_check_is_cached_per_dataset(self):
        # Columns 1, 4 and 6 are one column; 2 and 5 another.
        rng = np.random.default_rng(5)
        Z = standardize(rng.standard_normal((12, 5)))
        data = Dataset(Z[:, [0, 1, 2, 3, 1, 2, 1]], rng.standard_normal(12))
        assert data.copies == {4: 1, 5: 2, 6: 1}
        assert Dataset(Z, np.zeros(12)).copies == {}

        def first_repeat(columns):
            # The pair that a per-call byte comparison over the list names.
            seen = {}
            for j in columns:
                key = data.X[:, j].tobytes()
                if key in seen:
                    return seen[key], j
                seen[key] = j

        for subset in ([6, 0, 4], [5, 3, 1, 2], [2, 4, 0, 6, 5], [3, 6, 1]):
            with pytest.raises(DuplicateColumnError) as err:
                lasso_solve(data, 0.1, subset=subset)
            assert (err.value.first, err.value.second) == first_repeat(subset)
        beta = lasso_solve(data, 0.1, subset=[6, 0, 5, 3])
        assert kkt_check(data, beta, 0.1, subset=[6, 0, 5, 3]).passed
        with pytest.raises(DuplicateColumnError) as err:
            lars_path(data)
        assert (err.value.first, err.value.second) == (1, 4)

    def test_max_steps_caps_entries(self):
        data = random_dataset(1, 30, 8)
        path = lars_path(data, max_steps=3)
        assert len(path.entry_knots()) == 3

    @pytest.mark.parametrize("max_steps", [-1, -2, 9])
    def test_max_steps_outside_range_rejected(self, max_steps):
        with pytest.raises(ValueError,
                           match=rf"^max_steps={max_steps} must lie in \[0, min\(n, p\)=8\]$"):
            lars_path(random_dataset(1, 30, 8), max_steps=max_steps)

    def test_knot_lambdas_weakly_decreasing(self):
        for seed in range(8):
            data = random_dataset(seed, 25, 7, rho=0.6)
            lams = [kn.lam for kn in lars_path(data).knots]
            assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))

    def test_equicorrelation_at_every_knot(self):
        # At each knot the active correlations hit the boundary and the
        # inactive ones stay inside it.
        data = random_dataset(3, 30, 8, rho=0.5)
        path = lars_path(data)
        for kn in path.knots:
            beta = lasso_solve(data, kn.lam, path=path)
            corr = data.X.T @ (data.y - data.X @ beta)
            active = list(kn.active_before)
            for m in active:
                assert abs(corr[m]) == pytest.approx(kn.lam, abs=1e-8)
            for m in range(data.p):
                if m not in active:
                    assert abs(corr[m]) <= kn.lam + 1e-8

    def test_knots_match_coordinate_descent_support_changes(self):
        data = random_dataset(12, 30, 8)
        path = lars_path(data)
        knot_lams = [kn.lam for kn in path.knots]
        changes = cd_support_change_points(
            np.asarray(data.X), np.asarray(data.y), knot_lams[0])
        changes = [c for c in changes if c > 1e-2 * knot_lams[0]]
        relevant = [l for l in knot_lams if l > 1e-2 * knot_lams[0]]
        assert len(changes) == len(relevant)
        np.testing.assert_allclose(sorted(relevant), sorted(changes), atol=1e-4)

    def test_stale_digest_detected(self):
        data = random_dataset(4, 20, 5)
        other = random_dataset(5, 20, 5)
        path = lars_path(data)
        for subset in (None, [2], []):  # an empty subset is checked too
            with pytest.raises(StalePathError):
                lasso_solve(other, 0.1, subset=subset, path=path)

    def test_equal_content_dataset_warm_starts(self, monkeypatch):
        # The check compares X and y, not identity or sigma2: a copy with
        # another sigma2 warm-starts from the path and gets the cold answer.
        data = random_dataset(4, 20, 5)
        other = replace(data, sigma2=2.0)
        path = lars_path(data)
        starts = []
        trace = lasso_module._trace

        def spy(datasets, cols, active, signs, lam_cur, *args, **kwargs):
            starts.append(lam_cur)
            return trace(datasets, cols, active, signs, lam_cur, *args, **kwargs)

        monkeypatch.setattr(lasso_module, "_trace", spy)
        lam = 0.5 * (path.knots[1].lam + path.knots[2].lam)
        warm = lasso_solve(other, lam, path=path)
        assert starts == [path.knots[1].lam]
        np.testing.assert_allclose(warm, lasso_solve(other, lam), rtol=0, atol=1e-10)

    def test_entry_tie_breaks_low_and_warns(self):
        data = Dataset(np.eye(3), np.array([2.0, 2.0, 1.0]), sigma2=1.0)
        path = lars_path(data)
        assert path.knots[0].entering == 0
        assert {kn.entering for kn in path.knots[:2]} == {0, 1}
        assert path.knots[0].lam == pytest.approx(path.knots[1].lam, abs=1e-10)
        assert any("tie" in w for w in path.warnings)


def block_rows():
    """Datasets of one shape (6, 4): their lone paths delete, tie, run out of
    events and end at a rank-deficient segment, next to a plain one."""
    rng = np.random.default_rng(5)  # enters 3, 1 and 2, deletes 1, enters 0 and 1
    X = rng.standard_normal((6, 4))
    X[:, 1] += 0.9 * X[:, 0]
    X[:, 3] += 0.8 * X[:, 2]
    rows = [Dataset(standardize(X), rng.standard_normal(6)),
            Dataset(np.eye(6)[:, :4], np.array([2.0, 2.0, 1.0, 0.5, 0.3, 0.1]))]  # 0 and 1 tie
    X = standardize(np.random.default_rng(2).standard_normal((6, 4)))
    rows.append(Dataset(X, 3.0 * X[:, 1]))  # no event once column 1 is active
    rng = np.random.default_rng(1)  # column 2 is x0 + x1 up to 1e-11; it enters last
    X = rng.standard_normal((6, 4))
    X[:, 2] = X[:, 0] + X[:, 1] + 1e-11 * rng.standard_normal(6)
    return rows + [Dataset(standardize(X), rng.standard_normal(6)), random_dataset(3, 6, 4)]


class TestLockstepTrace:
    """Datasets of one shape trace their lasso paths in one lockstep trace, and
    the rows whose actions differ go on as stacks of their own: each dataset
    gets what lars_path gives it alone, bit for bit."""

    @pytest.mark.parametrize("max_steps", [None, 2, 4])
    def test_rows_get_their_lone_paths(self, max_steps):
        rows = block_rows()
        traced = lasso_module._lars_paths(rows, max_steps)
        for data, got in zip(rows, traced):
            alone = lars_path(data, max_steps=max_steps)
            assert (got.knots, got.warnings) == (alone.knots, alone.warnings)
            assert [None if s is None else (s[0].tobytes(), s[1].tobytes())
                    for s in got.segments] == [None if s is None else (
                        s[0].tobytes(), s[1].tobytes()) for s in alone.segments]
        actions = [[kn.action for kn in path.knots] for path in traced]
        if max_steps is None:
            assert actions[0] == ["enter"] * 3 + ["leave"] + ["enter"] * 2
            assert traced[1].warnings == ("entry tie at lambda=2 among [0, 1]; chose 0",)
            assert actions[2] == ["enter"] and traced[3].segments[-1] is None
        elif max_steps == 4:  # four entries, one deletion: it stops with three active
            assert actions[0][-1] == "enter" and len(traced[0].knots[-1].active_after) == 3
        else:
            assert [len(a) for a in actions] == [2, 2, 1, 2, 2]

    def test_non_termination_fails_only_its_row(self, monkeypatch):
        monkeypatch.setattr(lasso_module, "MAX_EVENTS_PER_COLUMN", 1)  # 4 events a path
        rows = block_rows()
        traced = lasso_module._lars_paths(rows)
        for data, got in zip(rows, traced):
            try:
                alone = lars_path(data)
            except PathNonTerminationError as exc:
                assert type(got) is PathNonTerminationError and str(got) == str(exc)
                continue
            assert (got.knots, got.warnings) == (alone.knots, alone.warnings)
        # The rank-deficient row's fourth event ends it, as its lone trace does.
        assert [type(got).__name__ for got in traced] == [
            "PathNonTerminationError", "PathNonTerminationError", "LassoPath", "LassoPath",
            "PathNonTerminationError"]


class TestKnot:
    @pytest.mark.parametrize("fields, message", [
        ({"action": "jump"}, "^unknown knot action 'jump'$"),
        ({"active_before": (2, 0)}, "^entering variable already active$"),
    ])
    def test_invalid_knot_rejected(self, fields, message):
        knot = {"k": 2, "lam": 0.5, "entering": 2, "active_before": (0,), "signs_after": (1, -1)}
        assert Knot(**knot).active_after == (0, 2)
        with pytest.raises(ValueError, match=message):
            Knot(**{**knot, **fields})


class TestSegments:
    """Each knot of a path keeps the segment b0 - lam * b1 just below it."""

    def test_cached_segments_match_lstsq_oracle(self):
        # (n, p, max_steps): n < p paths stop at n active after many
        # deletions; the capped paths keep the segment below their last entry.
        deletions = capped = 0
        for rho in (0.0, 0.5, 0.8, 0.9):
            for n, p, max_steps in ((30, 12, None), (20, 30, None), (60, 40, 12)):
                for seed in range(3):
                    data = random_dataset(seed, n, p, rho=rho)
                    path = lars_path(data, max_steps=max_steps)
                    assert len(path.segments) == len(path.knots)
                    for kn, (b0, b1) in zip(path.knots, path.segments):
                        e0, e1 = lasso_segment(data.X, data.y, kn.active_after, kn.signs_after)
                        np.testing.assert_allclose(b0, e0, rtol=0, atol=1e-10)
                        np.testing.assert_allclose(b1, e1, rtol=0, atol=1e-10)
                    deletions += sum(kn.action == "leave" for kn in path.knots)
                    capped += max_steps is not None
        assert deletions >= 20 and capped == 12

    def test_numerically_dependent_entry_has_no_segment(self):
        # Column 2 is x0 + x1 up to 1e-11 and enters last, at a knot near
        # 1e-11 lambda_1 (above ZERO_CORR_TOL lambda_1): below that knot X_A
        # is rank deficient to RANK_TOL, so the path keeps no segment there,
        # and a restricted fit that reaches it raises.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 4))
        X[:, 2] = X[:, 0] + X[:, 1] + 1e-11 * rng.standard_normal(6)
        data = Dataset(standardize(X), rng.standard_normal(6))
        path = lars_path(data)
        assert [kn.entering for kn in path.knots] == [0, 3, 1, 2]
        assert path.segments[-1] is None and None not in path.segments[:-1]
        with pytest.raises(SingularDesignError,
                           match=r"^columns \[0, 1, 2\] are rank deficient above lambda=0.0$"):
            lasso_solve(data, 0.0, subset=[0, 1, 2], path=path)

    def test_dependent_warm_start_raises(self):
        # A restricted trace factors its starting active set afresh; when
        # that factor fails the rank rule, the fit raises as it does below a
        # knot without a segment. Column 2 is x0 + x1, and the hand-built
        # path's one knot makes all three active.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 4))
        X[:, 2] = X[:, 0] + X[:, 1]
        data = Dataset(standardize(X), rng.standard_normal(6))
        knot = Knot(k=1, lam=1.0, entering=2, active_before=(0, 1), signs_after=(1, 1, 1))
        path = LassoPath(knots=(knot,), data=data,
                         segments=((np.zeros(3), np.zeros(3)),))
        with pytest.raises(SingularDesignError,
                           match=r"^columns \[0, 1, 2, 3\] are rank deficient above lambda=0.5$"):
            lasso_solve(data, 0.5, subset=[0, 1, 2, 3], path=path)

    def test_segments_do_not_affect_equality(self):
        data = random_dataset(1, 30, 8)
        path = lars_path(data)
        assert path == lars_path(data)
        assert "segments" not in repr(path)

    def test_lasso_solve_below_last_knot_traces_on(self):
        # lars_path stops at min(n, p) active variables, so below its last
        # knot a deletion (and later events) may be missing from the path;
        # extrapolating the last segment then fails the KKT check.
        for rho in (0.5, 0.8):
            for n, p in ((40, 20), (100, 50)):
                for seed in range(10):
                    data = random_dataset(seed, n, p, rho=rho)
                    path = lars_path(data)
                    lam = 0.5 * path.knots[-1].lam
                    beta = lasso_solve(data, lam, path=path)
                    assert kkt_check(data, beta, lam, tol=1e-8).passed
                    np.testing.assert_allclose(beta, lasso_solve(data, lam), rtol=0, atol=1e-10)


class TestLassoSolve:
    def test_orthonormal_soft_threshold(self):
        np.testing.assert_allclose(lasso_solve(IDENTITY, 2.0), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(lasso_solve(IDENTITY, 0.5), [2.5, -0.5, 1.5])
        np.testing.assert_allclose(lasso_solve(IDENTITY, 5.0), [0.0, 0.0, 0.0])

    def test_zero_penalty_equals_least_squares(self):
        data = random_dataset(8, 20, 5)
        np.testing.assert_allclose(
            lasso_solve(data, 0.0),
            least_squares(data, list(range(5))).coefficients, atol=1e-8)

    def test_objective_never_worse_than_cd(self):
        for seed in range(10):
            data = random_dataset(seed, 20, 6)
            X, y = np.asarray(data.X), np.asarray(data.y)
            lam_max = float(np.abs(X.T @ y).max())
            for frac in (0.75, 0.4, 0.1):
                lam = frac * lam_max
                ours = lasso_objective(X, y, lasso_solve(data, lam), lam)
                cd = lasso_objective(X, y, cd_lasso(X, y, lam), lam)
                assert ours <= cd + 1e-8

    def test_restricted_support(self):
        data = random_dataset(2, 20, 6)
        beta = lasso_solve(data, 0.05, subset=[1, 3])
        assert set(np.flatnonzero(beta)) <= {1, 3}

    def test_empty_subset(self):
        data = random_dataset(2, 20, 6)
        np.testing.assert_array_equal(lasso_solve(data, 0.3, subset=[]), np.zeros(6))

    def test_piecewise_linearity_between_knots(self):
        data = random_dataset(6, 25, 6, rho=0.4)
        path = lars_path(data)
        lams = [kn.lam for kn in path.knots]
        for hi, lo in zip(lams, lams[1:]):
            if hi - lo < 1e-9:
                continue
            mid = 0.5 * (hi + lo)
            frac = (hi - mid) / (hi - lo)
            interp = (1 - frac) * lasso_solve(data, hi) + frac * lasso_solve(data, lo)
            np.testing.assert_allclose(lasso_solve(data, mid), interp, atol=1e-8)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            lasso_solve(IDENTITY, -1.0)

    def test_nan_penalty_rejected(self):
        with pytest.raises(ValueError, match="lambda must be nonnegative, got nan"):
            lasso_solve(IDENTITY, np.nan)
        with pytest.raises(ValueError, match="got nan"):
            lasso_solve(IDENTITY, float("nan"), subset=[0], path=lars_path(IDENTITY))

    def test_infinite_penalty_gives_zero_solution(self):
        np.testing.assert_array_equal(lasso_solve(IDENTITY, np.inf), 0.0)
        np.testing.assert_array_equal(
            lasso_solve(IDENTITY, np.inf, subset=[1, 2], path=lars_path(IDENTITY)), 0.0)

    def test_non_unique_solution_warns(self):
        from sigtest.exceptions import NonUniqueSolutionWarning

        data = Dataset(np.eye(3), np.array([2.0, 2.0, 1.0]), sigma2=1.0)
        with pytest.warns(NonUniqueSolutionWarning):
            beta = lasso_solve(data, 1.5)
        np.testing.assert_allclose(beta, [0.5, 0.5, 0.0])

    def test_entry_tie_warns_only_once_its_knot_is_reached(self):
        from sigtest.exceptions import NonUniqueSolutionWarning

        # Columns 1 and 2 tie at lambda = 2. A trace that stops above it keeps
        # no knot there, so it has no tie to report.
        data = Dataset(np.eye(4), np.array([3.0, 2.0, -2.0, 1.0]), sigma2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(lasso_solve(data, 2.5), [0.5, 0.0, 0.0, 0.0])
        with pytest.warns(NonUniqueSolutionWarning,
                          match=r"entry tie at lambda=2 among \[1, 2\]; chose 1\)"):
            beta = lasso_solve(data, 1.5)
        np.testing.assert_allclose(beta, [1.5, 0.5, -0.5, 0.0])

    def test_kkt_self_consistency_sweep(self):
        # Every solver output passes the stationarity check: 100 instances.
        count = 0
        for seed in range(100):
            data = random_dataset(seed, 15, 5, rho=0.4 if seed % 2 else 0.0)
            lam_max = float(np.abs(np.asarray(data.X).T @ data.y).max())
            lam = (0.05 + 0.9 * (seed / 99.0)) * lam_max
            assert kkt_check(data, lasso_solve(data, lam), lam).passed
            count += 1
        assert count == 100

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_solution_passes_kkt(self, seed):
        data = random_dataset(seed, 20, 6, rho=0.3)
        lam_max = float(np.abs(np.asarray(data.X).T @ data.y).max())
        rng = np.random.default_rng(seed + 1)
        lam = float(rng.uniform(0.05, 0.95)) * lam_max
        beta = lasso_solve(data, lam)
        assert kkt_check(data, beta, lam).passed


class TestKKTCheck:
    def test_passes_on_true_solution(self):
        assert kkt_check(IDENTITY, np.array([1.0, 0.0, 0.0]), 2.0).passed

    def test_fails_on_perturbed_active_coordinate(self):
        report = kkt_check(IDENTITY, np.array([1.1, 0.0, 0.0]), 2.0)
        assert not report.passed
        assert report.violations == (0,)

    def test_reports_per_coordinate_slack(self):
        report = kkt_check(IDENTITY, np.array([1.0, 0.0, 0.0]), 2.0)
        assert len(report.slack) == 3
        assert report.slack.min() >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kkt_check(IDENTITY, np.zeros(2), 1.0)

    @pytest.mark.parametrize("beta", [np.zeros(3), np.array([1.0, 0.0, 0.0]), np.full(3, 9.0)])
    def test_nan_penalty_rejected(self, beta):
        # With NaN every slack comparison is False, so any beta would pass.
        with pytest.raises(ValueError, match="lambda must not be NaN"):
            kkt_check(IDENTITY, beta, np.nan)


class TestRestrictionConsistency:
    def test_restricted_solution_at_next_knot(self):
        # Solving on the active set A at the next knot keeps support in A.
        data = random_dataset(13, 30, 8, rho=0.5)
        path = lars_path(data)
        entries = path.entry_knots()
        for k in range(1, len(entries)):
            A = entries[k - 1].active_before
            lam_next = entries[k].lam
            beta = lasso_solve(data, lam_next, subset=A)
            assert set(np.flatnonzero(beta)) <= set(A)
            report = kkt_check(data, beta, lam_next, subset=A)
            assert report.passed

    def test_warm_start_just_below_a_deletion(self):
        # The deleted variable sits on the boundary there and may re-enter
        # only strictly below the deletion knot.
        checked = 0
        for seed in range(20):
            data = random_dataset(seed, 25, 8, rho=0.85)
            path = lars_path(data)
            for m, kn in enumerate(path.knots[:-1]):
                if kn.action != "leave":
                    continue
                lam = 0.5 * (kn.lam + path.knots[m + 1].lam)
                subset = sorted(kn.active_before)
                np.testing.assert_allclose(
                    lasso_solve(data, lam, subset=subset, path=path),
                    lasso_solve(data, lam, subset=subset), rtol=0, atol=1e-10)
                checked += 1
        assert checked >= 3

    @given(st.integers(0, 10_000), st.sampled_from([(25, 12), (10, 14)]),
           st.integers(1, 2 ** 14 - 1), st.floats(0.01, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_warm_start_from_full_path_matches_cold_trace(self, seed, shape, mask, frac):
        n, p = shape
        data = random_dataset(seed, n, p, rho=0.6)
        subset = [m for m in range(p) if mask >> m & 1]
        path = lars_path(data)
        lam = frac * path.knots[0].lam
        np.testing.assert_allclose(lasso_solve(data, lam, subset=subset, path=path),
                                   lasso_solve(data, lam, subset=subset), rtol=0, atol=1e-10)


class TestSpacingLaw:
    """The spacing test of the first two knots (Tibshirani, Taylor, Lockhart &
    Tibshirani 2016, *JASA* 111:600-620): with unit-norm columns, sigma = 1
    and y ~ N(0, I), Phi-bar(lambda_1) / Phi-bar(lambda_2) is exactly U(0, 1)
    at any design, so it checks the first two knots of lars_path against an
    exact finite-sample law rather than an asymptotic one."""

    REPS = 3000
    KS_CRIT = 1.95 / math.sqrt(REPS)  # level 0.001

    @staticmethod
    def spacing_ks(X, seed, reps):
        rng = np.random.default_rng(seed)
        tail = lambda lam: 0.5 * math.erfc(lam / math.sqrt(2.0))
        u = np.empty(reps)
        for r in range(reps):
            first, second = lars_path(Dataset(X, rng.standard_normal(X.shape[0])),
                                      max_steps=2).entry_knots()
            u[r] = tail(first.lam) / tail(second.lam)
        u.sort()
        i = np.arange(1, reps + 1)
        return float(max((i / reps - u).max(), (u - (i - 1) / reps).max()))

    @pytest.mark.parametrize("kind, n, p, rho", [
        ("iid_gaussian", 50, 20, 0.0), ("ar1", 50, 20, 0.8), ("ar1", 30, 60, 0.8)])
    def test_uniform_under_the_global_null(self, kind, n, p, rho):
        X = gen_design(kind, n, p, np.random.default_rng(2024), rho)
        ks = self.spacing_ks(X, 2024, self.REPS)
        assert ks < self.KS_CRIT, (kind, n, p, rho, ks)
