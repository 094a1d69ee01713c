import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigtest.lasso as lasso_module
import sigtest.significance as significance_module
from oracles import cd_lasso, gumbel_cdf_direct
from sigtest import (
    Dataset,
    LassoPath,
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
    lasso_steps,
    standardize,
    stepwise_path,
)
from sigtest.exceptions import NonUniqueSolutionWarning, StalePathError, UnsupportedStepError
from sigtest.significance import exp1_cdf, exp1_quantile, reference_pair
from sigtest.linmodel import ActiveQR
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


class TestReferenceFunctions:
    @pytest.mark.parametrize("fn", [gumbel_cdf, gumbel_sf, gumbel_quantile, exp1_cdf,
                                    exp1_quantile])
    def test_scalar_in_float_out(self, fn):
        for arg in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(fn(arg)) is float
        grid = np.linspace(0.05, 0.95, 7)
        out = fn(grid)
        assert isinstance(out, np.ndarray) and out.shape == grid.shape
        np.testing.assert_array_equal(out, [fn(float(x)) for x in grid])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
    @pytest.mark.parametrize("fn", [gumbel_quantile, exp1_quantile])
    def test_array_domain_errors(self, fn, bad):
        with pytest.raises(ValueError, match="must lie in"):
            fn(np.array([0.2, bad, 0.7]))

    def test_exp1_cdf_zero_below_origin(self):
        np.testing.assert_array_equal(exp1_cdf(np.array([-800.0, -1.0, 0.0])), 0.0)
        assert exp1_cdf(2.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)

    def test_table_and_unknown_name(self):
        assert reference_pair("gumbel") == (gumbel_cdf, gumbel_quantile)
        assert reference_pair("exp1") == (exp1_cdf, exp1_quantile)
        with pytest.raises(ValueError, match="unknown reference"):
            reference_pair("normal")


def candidate_drops(r_j, m, first=0):
    """Drops of m candidates from index ``first`` on: r_j for the first, 0 for the rest,
    and NaN for the columns before ``first`` (the model A)."""
    drops = np.zeros(first + m)
    drops[:first], drops[first] = np.nan, r_j
    return drops


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
        step = SelectionStep(k=1, A=(), j=0, drops=candidate_drops(gumbel_correction(10), 10),
                             selector="max_r")
        out = gumbel_test(step)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.p_value == pytest.approx(0.431, abs=1e-3)

    def test_rejection_boundary(self):
        step = SelectionStep(k=1, A=(), j=0,
                             drops=candidate_drops(gumbel_quantile(0.95) + gumbel_correction(20),
                                                   20), selector="max_r")
        out = gumbel_test(step, alpha=0.05)
        assert out.p_value == pytest.approx(0.05, abs=1e-6)

    def test_too_few_remaining_propagates(self):
        step = SelectionStep(k=1, A=(0,), j=1, drops=candidate_drops(1.0, 2, first=1),
                             selector="max_r")
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
        mk = lambda r: SelectionStep(k=1, A=(), j=0, drops=candidate_drops(r, 25),
                                     selector="max_r")
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
                step = SelectionStep(k=1, A=(), j=0, drops=candidate_drops(float(r), 12),
                                     selector="max_r")
                out = gumbel_test(step, alpha=alpha)
                assert out.reject == (out.p_value <= alpha)
                assert out.reject == (out.statistic >= threshold)

    @pytest.mark.parametrize("selector, kind", [("max_r", "gumbel"), ("logistic", "gumbel_glm")])
    def test_near_tie_tests_the_drop_of_j(self, selector, kind):
        # Candidates 1 and 3 tie within 1e-12; the lower index is selected
        # and its own drop, not the maximum, is tested.
        drops = np.array([2.0, 10.0 - 5e-13, 1.0, 10.0, 0.5])
        step = SelectionStep(k=1, A=(), j=1, drops=drops, selector=selector)
        out = gumbel_test(step)
        assert (out.kind, out.j) == (kind, 1)
        assert out.statistic == drops[1] - out.correction
        assert out.statistic != drops[3] - out.correction


class TestCovarianceTest:
    def test_identity_step1(self):
        path = lars_path(IDENTITY)
        out = covariance_test(path, 1)
        assert out.statistic == pytest.approx(3.0, abs=1e-10)
        assert out.decomposition == pytest.approx(3.0, abs=1e-10)
        assert out.p_value == pytest.approx(math.exp(-3), abs=1e-10)
        assert out.A == () and out.j == 0
        assert out.correction is None

    def test_identity_step2(self):
        path = lars_path(IDENTITY)
        out = covariance_test(path, 2)
        assert out.statistic == pytest.approx(2.0, abs=1e-10)
        assert out.decomposition == pytest.approx(2.0, abs=1e-10)

    def test_orthogonal_closed_form(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((15, 6)))
        data = Dataset(Q, rng.standard_normal(15), sigma2=1.0)
        path = lars_path(data)
        lams = [kn.lam for kn in path.knots]
        for k in range(1, len(lams)):
            out = covariance_test(path, k)
            assert out.statistic == pytest.approx(
                lams[k - 1] * (lams[k - 1] - lams[k]), abs=1e-8)

    def test_path_too_short(self):
        path = lars_path(IDENTITY)
        with pytest.raises(PathTooShortError):
            covariance_test(path, 3)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            covariance_test(lars_path(IDENTITY), 1, alpha=alpha)

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_step_index_below_one_rejected(self, k):
        # A k < 1 must not index the entry events from the end.
        path = lars_path(IDENTITY)
        with pytest.raises(ValueError, match=f"step index k must be at least 1, got {k}"):
            covariance_test(path, k)

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
                    out = covariance_test(path, k)
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
                        covariance_test(path, k)
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
                ta = covariance_test(pa, k)
                tb = covariance_test(pb, k)
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

    def test_path_without_segments_rejected(self):
        path = lars_path(IDENTITY)
        bare = LassoPath(knots=path.knots, data=path.data)
        with pytest.raises(StalePathError):
            covariance_test(bare, 1)

    def test_path_under_another_sigma2(self):
        # Swapping the dataset a path carries for one with another sigma2 is
        # the same test, bit for bit, as tracing that dataset's path.
        data = ar1_dataset(0, 100, 50, 0.5)
        path = lars_path(data)
        for s in (0.25, 3.0):
            moved = replace(path, data=replace(path.data, sigma2=s))
            traced = lars_path(replace(data, sigma2=s))
            for k in range(1, 6):
                assert repr(covariance_test(moved, k)) == repr(covariance_test(traced, k))
                assert covariance_test(moved, k).statistic != covariance_test(path, k).statistic

    def test_dataset_argument_is_rejected(self):
        # The path carries its dataset; an old positional call cannot pass it as k.
        path = lars_path(IDENTITY)
        with pytest.raises(TypeError):
            covariance_test(path, IDENTITY, 1)
        with pytest.raises(TypeError):
            lasso_steps(path, IDENTITY)

    def test_missing_sigma2(self):
        data = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]))
        path = lars_path(data)
        from sigtest import MissingVarianceError

        with pytest.raises(MissingVarianceError):
            covariance_test(path, 1)


def tie_design(seed):
    """Orthonormal (10, 6) design whose response has a three-way entry tie at
    lambda = 2, plus a component outside the column span."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
    z = rng.permutation([4.0, 2.0, -2.0, 2.0, 1.0, 0.5])
    noise = (np.eye(10) - Q @ Q.T) @ rng.standard_normal(10)
    return Dataset(Q, Q @ z + 0.3 * noise, sigma2=1.0)


class TestNegativeStatistic:
    NEGATIVE = "negative covariance statistic; p-value clamped to 1"

    def statistics(self, data):
        with pytest.warns(NonUniqueSolutionWarning):
            path = lars_path(data)
            return [covariance_test(path, k) for k in range(1, len(path.entry_knots()))]

    def test_round_off_at_ties_does_not_warn(self):
        # Six designs on which a statistic that is 0 in exact arithmetic (a
        # step inside the tie) comes out below 0 by round-off.
        outcomes = [o for seed in (6, 7, 15, 39, 43, 46) for o in self.statistics(tie_design(seed))]
        assert min(o.statistic for o in outcomes) < 0.0
        for o in outcomes:
            assert o.statistic > -1e-13
            assert self.NEGATIVE not in o.warnings
            assert o.p_value == 1.0 or o.statistic > 0.0

    def test_clearly_negative_statistic_warns(self, monkeypatch):
        data = ar1_dataset(0, 100, 50, 0.5)
        path = lars_path(data)
        outcome = covariance_test(path, 1)
        assert self.NEGATIVE not in outcome.warnings
        restricted = significance_module.lasso_solve

        def larger_fit(data, lam, subset=None, path=None):
            # Shift the restricted fit so its inner product y'X beta rises by
            # the statistic plus 5: the statistic becomes -5.
            beta = restricted(data, lam, subset=subset, path=path).copy()
            beta[0] += (outcome.statistic + 5.0) / data.xty[0]
            return beta

        monkeypatch.setattr(significance_module, "lasso_solve", larger_fit)
        shifted = covariance_test(path, 1)
        assert shifted.statistic == pytest.approx(-5.0, abs=1e-9)
        assert self.NEGATIVE in shifted.warnings
        assert shifted.p_value == 1.0


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
                        out = covariance_test(path, k)
                    except UnsupportedStepError:
                        continue
                    A, lam = list(out.A), entries[k].lam
                    fit_y = lambda beta: float(data.y @ (data.X @ beta))
                    cold = lasso_solve(data, lam, subset=A)
                    expect = (fit_y(lasso_solve(data, lam)) - fit_y(cold)) / data.sigma2
                    assert out.statistic == pytest.approx(expect, abs=1e-9)
                    if not A:
                        continue
                    warm = lasso_solve(data, lam, subset=A, path=path)
                    np.testing.assert_allclose(
                        warm[A], cd_lasso(data.X[:, A], data.y, lam), rtol=0, atol=1e-8)
                    deletions += np.count_nonzero(warm[A]) < len(A)
        assert deletions >= 1, "no restricted segment with a deletion in the corpus"

    def test_trace_only_where_the_restricted_path_has_an_event(self, monkeypatch):
        # A step's restricted fit starts from the segment above the kth entry,
        # with all of A active. Whether the restricted path has an event
        # between lambda_k and lambda_{k+1} is read off a cold trace of it.
        traces = []

        def counting(*args, **kwargs):
            out = original_trace(*args, **kwargs)
            traces.append(out[0][0])  # the knots of the one dataset traced
            return out

        original_trace = lasso_module._trace
        monkeypatch.setattr(lasso_module, "_trace", counting)
        quiet = deletion_steps = 0
        for rho, n, p, seeds in self.CORPUS:
            for seed in seeds:
                data = ar1_dataset(seed, n, p, rho)
                path = lars_path(data)
                entries = path.entry_knots()
                for k in range(1, len(entries)):
                    traces.clear()
                    try:
                        out = covariance_test(path, k)
                    except UnsupportedStepError:
                        continue
                    warm_traces = len(traces)
                    A, lam = list(out.A), entries[k].lam
                    traces.clear()
                    cold = lasso_solve(data, lam, subset=A)
                    events = [kn for knots in traces for kn in knots
                              if kn.lam < entries[k - 1].lam - lasso_module.LAMBDA_TOL]
                    if events:
                        deletion_steps += 1
                        assert warm_traces == 1
                        fit_y = lambda beta: float(data.xty @ beta)
                        expect = (fit_y(lasso_solve(data, lam)) - fit_y(cold)) / data.sigma2
                        assert out.statistic == pytest.approx(expect, abs=1e-9)
                    else:
                        quiet += 1
                        assert warm_traces == 0, (rho, n, p, seed, k)
        assert deletion_steps >= 1 and quiet >= 100, (deletion_steps, quiet)

    @pytest.mark.parametrize("case", ["corpus", "ties"])
    def test_warns_exactly_when_the_path_has_ties(self, case):
        # Every restricted fit of a covariance step, warm started or not and
        # with A empty or not, passes on the tie warnings of the path it is given.
        if case == "corpus":
            designs = [ar1_dataset(seed, n, p, rho)
                       for rho, n, p, seeds in self.CORPUS for seed in seeds]
        else:
            designs = [tie_design(seed) for seed in (6, 7, 15, 39, 43, 46)]
        checked = 0
        for data in designs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUniqueSolutionWarning)
                path = lars_path(data)
            assert bool(path.warnings) == (case == "ties")
            entries = path.entry_knots()
            for k in range(1, len(entries)):
                A = entries[k - 1].active_before
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    lasso_solve(data, entries[k].lam, subset=A, path=path)
                tie_warnings = [w for w in caught
                                if issubclass(w.category, NonUniqueSolutionWarning)]
                assert len(tie_warnings) == bool(path.warnings), (case, k)
                checked += 1
        assert checked >= 20

    def test_factor_work(self, monkeypatch):
        # Counted on the two factors, ActiveQR and the lasso trace's stack (of one
        # dataset here, so an add appends one column): every column appended
        # (also when a factor is built or refactored) and every column dropped
        # (the trace's downdates); and the deletions that restricted traces in
        # lasso_solve take.
        calls, restricted_leaves = [], []

        def counting(owner, name, call):
            original = getattr(owner, name)

            def wrapper(*args):
                calls.append(call)
                return original(*args)
            return wrapper

        def trace(*args, **kwargs):
            out = original_trace(*args, **kwargs)
            restricted_leaves.extend(kn for kn in out[0][0] if kn.action == "leave")
            return out

        original_trace = lasso_module._trace
        for owner, name, call in ((ActiveQR, "add", "add"), (ActiveQR, "drop", "drop"),
                                  (lasso_module._Stack, "add", "add"),
                                  (lasso_module, "_downdate", "drop")):
            monkeypatch.setattr(owner, name, counting(owner, name, call))

        # lars_path: one append per entry and one downdate per deletion, which
        # appends nothing. lasso_steps follows the same active sets.
        for rho in (0.5, 0.8):
            calls.clear()
            data = ar1_dataset(0, 100, 50, rho)
            path = lars_path(data)
            leaves = [kn for kn in path.knots if kn.action == "leave"]
            assert leaves and calls.count("drop") == len(leaves)
            assert calls.count("add") == len(path.entry_knots())
            calls.clear()
            lasso_steps(path)
            assert 0 < calls.count("drop") <= len(leaves)
            assert calls.count("add") <= len(path.entry_knots())

        # stepwise_path(max_steps=k): at most k appends.
        for k in (1, 5, 30):
            calls.clear()
            stepwise_path(data, max_steps=k)
            assert calls.count("add") <= k and "drop" not in calls

        # covariance_test reads the full fit, the restricted fit and both
        # least-squares fits from the path's segments: a step factors nothing
        # unless the restricted path deletes a variable of A between
        # lambda_k and lambda_{k+1}.
        monkeypatch.setattr(lasso_module, "_trace", trace)
        data = ar1_dataset(0, 100, 50, 0.5)
        path = lars_path(data)
        steps = deletion_steps = 0
        for k in range(1, len(path.entry_knots())):
            calls.clear()
            restricted_leaves.clear()
            try:
                covariance_test(path, k)
            except UnsupportedStepError:
                continue
            steps += 1
            if restricted_leaves:
                deletion_steps += 1
                assert calls.count("add") <= k * (1 + len(restricted_leaves))
            else:
                assert calls == []
        assert steps - deletion_steps >= 40
