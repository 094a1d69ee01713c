import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import best_single_variable_drop, normal_equation_drop
from sigtest import (
    BinaryDataset,
    Dataset,
    PathTruncationWarning,
    SelectionStep,
    SigtestError,
    StalePathError,
    SurvivalDataset,
    covariance_test,
    lars_path,
    lasso_steps,
    standardize,
    stepwise_path,
)
from sigtest.glm import lrt_path
from sigtest.selection import best_candidate

IDENTITY = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]), sigma2=1.0)


def random_dataset(seed, n, p, rho=0.0, signal=()):
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
    for idx, val in signal:
        beta[idx] = val
    y = X @ beta + rng.standard_normal(n)
    return Dataset(X, y, sigma2=1.0)


class TestStepwisePath:
    def test_identity_ranking(self):
        steps = stepwise_path(IDENTITY)
        assert [(s.j, s.r_j) for s in steps] == [(0, 9.0), (2, 4.0), (1, 1.0)]
        assert [s.A for s in steps] == [(), (0,), (0, 2)]
        assert all(s.selector == "stepwise" for s in steps)

    @pytest.mark.parametrize("selector", ["lasso", "forward"])
    def test_unknown_selector_rejected(self, selector):
        with pytest.raises(ValueError, match="^stepwise_path selector must be 'stepwise' or"):
            stepwise_path(IDENTITY, selector=selector)

    def test_zero_response_truncates_immediately(self):
        data = Dataset(np.eye(3), np.zeros(3), sigma2=1.0)
        with pytest.warns(PathTruncationWarning):
            steps = stepwise_path(data)
        assert steps == []

    def test_first_step_matches_exhaustive_search(self):
        for seed in range(10):
            data = random_dataset(seed, 50, 10)
            steps = stepwise_path(data, max_steps=1)
            j, drop = best_single_variable_drop(
                np.asarray(data.X), np.asarray(data.y), 1.0)
            assert steps[0].j == j
            assert steps[0].r_j == pytest.approx(drop, abs=1e-8)

    def test_each_step_attains_the_max(self):
        data = random_dataset(3, 40, 8, rho=0.5)
        for step in stepwise_path(data):
            assert step.r_j == pytest.approx(np.nanmax(step.drops), abs=1e-12)
            assert not step.conservative

    def test_requires_sigma2(self):
        data = Dataset(np.eye(3), np.array([3.0, -1.0, 2.0]))
        with pytest.raises(Exception, match="variance"):
            stepwise_path(data)

    def test_max_steps_validation(self):
        with pytest.raises(ValueError):
            stepwise_path(IDENTITY, max_steps=10)

    @pytest.mark.parametrize("max_steps", [-1, -3])
    def test_negative_max_steps_rejected(self, max_steps):
        with pytest.raises(ValueError, match=r"must lie in \[0, min\(n, p\)=3\]"):
            stepwise_path(IDENTITY, max_steps=max_steps)

    def test_max_r_selector_tag(self):
        steps = stepwise_path(IDENTITY, selector="max_r")
        assert all(s.selector == "max_r" for s in steps)
        assert [s.j for s in steps] == [0, 2, 1]

    def test_m_remaining(self):
        steps = stepwise_path(IDENTITY)
        assert [s.m_remaining for s in steps] == [3, 2, 1]


class TestLassoSteps:
    def test_orthonormal_matches_stepwise(self):
        path = lars_path(IDENTITY)
        lsteps = lasso_steps(path, IDENTITY)
        ssteps = stepwise_path(IDENTITY)
        assert [(s.A, s.j) for s in lsteps] == [(s.A, s.j) for s in ssteps]
        assert all(s.selector == "lasso" for s in lsteps)
        assert not any(s.conservative for s in lsteps)

    def test_orthogonal_equivalence_random(self):
        rng = np.random.default_rng(17)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 7)))
        data = Dataset(Q, rng.standard_normal(20), sigma2=1.0)
        lsteps = lasso_steps(lars_path(data), data)
        ssteps = stepwise_path(data)
        assert [(s.A, s.j) for s in lsteps] == [(s.A, s.j) for s in ssteps]

    def test_empty_path_gives_empty_list(self):
        data = Dataset(np.eye(3), np.zeros(3), sigma2=1.0)
        assert lasso_steps(lars_path(data), data) == []

    def test_digest_mismatch(self):
        other = random_dataset(1, 3, 3)
        with pytest.raises(StalePathError):
            lasso_steps(lars_path(IDENTITY), other)

    def test_r_j_bounded_by_max(self):
        for seed in range(20):
            data = random_dataset(seed, 30, 8, rho=0.8, signal=((0, 2.0),))
            for step in lasso_steps(lars_path(data), data):
                assert step.r_j <= np.nanmax(step.drops) + 1e-10

    def test_max_steps_gives_the_first_steps(self):
        data = random_dataset(4, 30, 8, rho=0.8, signal=((0, 2.0),))
        path = lars_path(data)
        full = lasso_steps(path, data)
        for m in (0, 1, 3, len(full)):
            head = lasso_steps(path, data, max_steps=m)
            assert [(s.k, s.A, s.j, s.conservative) for s in head] == [
                (s.k, s.A, s.j, s.conservative) for s in full[:m]]
            assert all(np.array_equal(s.drops, t.drops, equal_nan=True)
                       for s, t in zip(head, full))

    @pytest.mark.parametrize("max_steps", [-1, 4])
    def test_max_steps_outside_range_rejected(self, max_steps):
        with pytest.raises(ValueError, match=r"must lie in \[0, min\(n, p\)=3\]"):
            lasso_steps(lars_path(IDENTITY), IDENTITY, max_steps=max_steps)

    def test_null_drops_are_chisq1_on_orthogonal_design(self):
        # Conditional on an orthogonal design and a null response, the
        # candidate drops are independent chi-square(1) draws.
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(101)
        Q, _ = np.linalg.qr(rng.standard_normal((400, 200)))
        data = Dataset(Q, rng.standard_normal(400), sigma2=1.0)
        steps = stepwise_path(data, max_steps=1)
        draws = steps[0].drops[~np.isnan(steps[0].drops)]
        assert draws.size == 200
        d, pval = scipy_stats.kstest(draws, scipy_stats.chi2(df=1).cdf)
        assert pval > 0.01

    def test_conservative_flag_on_non_maximal_entry(self):
        # On strongly correlated designs the lasso sometimes admits a
        # variable whose drop is not the maximum; scan seeds for one.
        found = False
        for seed in range(200):
            data = random_dataset(seed, 30, 8, rho=0.8, signal=((0, 2.0),))
            for step in lasso_steps(lars_path(data), data):
                if step.r_j < np.nanmax(step.drops) - 1e-10:
                    assert step.conservative
                    found = True
        assert found, "no conservative lasso step found in the seed sweep"


class TestBestCandidate:
    def test_ties_within_tolerance_go_to_lowest_index(self):
        # Column 0 is in A (NaN), so it is no candidate.
        assert best_candidate(np.array([np.nan, 1.0 - 5e-13, 0.5, 1.0])) == (1, 1.0)
        assert best_candidate(np.array([np.nan, 1.0 - 5e-12, 0.5, 1.0])) == (3, 1.0)

    @staticmethod
    def nanmax_rule(drops):
        """The rule as first written: np.nanmax, then the first index tied with it."""
        best = float(np.nanmax(drops))
        return int(np.flatnonzero(drops >= best - 1e-12)[0]), best

    @settings(max_examples=300, deadline=None)
    @given(top=st.floats(-1e3, 1e3), entries=st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 3e-12]).map(lambda d: ("near", d)),
        st.floats(0.0, 2e-12).map(lambda d: ("near", d))), min_size=1, max_size=12))
    def test_matches_the_nanmax_rule(self, top, entries):
        # ("near", d) stands for top - d: within or just past the 1e-12 tie window.
        drops = np.array([top - e[1] if isinstance(e, tuple) else e for e in entries])
        assume(not np.isnan(drops).all())
        assert best_candidate(drops) == self.nanmax_rule(drops)

    def test_stepwise_path_uses_the_tie_rule(self):
        # Columns 0 and 2 have drops 4 and 4 + 4e-14: a tie, which column 0 wins.
        data = Dataset(np.eye(3), np.array([2.0, 1.0, 2.0 + 1e-14]), sigma2=1.0)
        step = stepwise_path(data, max_steps=1)[0]
        assert step.drops[2] > step.drops[0]
        assert step.j == 0


class TestDropsAgainstRefits:
    def test_every_drop_matches_a_normal_equation_refit(self):
        # Both selectors update one factor step by step (lasso_steps rebuilds
        # it after a deletion); every candidate's drop must still equal a
        # from-scratch refit of A + {m}.
        deletions = 0
        for rho in (0.0, 0.5, 0.8):
            for seed in range(3):
                data = random_dataset(seed, 40, 20, rho=rho, signal=((0, 2.0), (3, -1.5)))
                path = lars_path(data)
                deletions += sum(kn.action == "leave" for kn in path.knots)
                for step in stepwise_path(data) + lasso_steps(path, data):
                    assert np.flatnonzero(np.isnan(step.drops)).tolist() == sorted(step.A)
                    for m in np.flatnonzero(~np.isnan(step.drops)):
                        assert step.drops[m] == pytest.approx(normal_equation_drop(
                            data.X, data.y, step.A, m, data.sigma2), abs=1e-9)
        assert deletions >= 3


def glm_data(family, seed, n, p, copy=None):
    """A logistic or Cox dataset with one signal; with ``copy=(i, k)``, column
    k repeats column i, so once one of them is in A the other's fit fails."""
    rng = np.random.default_rng(seed)
    X = standardize(rng.standard_normal((n, p)))
    if copy is not None:
        X[:, copy[1]] = X[:, copy[0]]
    eta = 4.0 * X[:, 0]
    if family == "logistic":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        y[:2] = 0.0, 1.0
        return BinaryDataset(X, y)
    return SurvivalDataset(X, rng.exponential(1.0, n) / np.exp(eta), np.ones(n))


def gaussian_path(selector, data):
    return lasso_steps(lars_path(data), data) if selector == "lasso" else stepwise_path(data)


def no_near_tie(steps):
    """Whether no step's two largest drops lie within 1e-9: ties go to the
    lowest index, so only then may a relation move the selection."""
    for step in steps:
        top = np.sort(step.drops[~np.isnan(step.drops)])[-2:]
        if top.size == 2 and top[1] - top[0] <= 1e-9 * max(top[1], 1.0):
            return False
    return True


def assert_same_steps(ours, theirs, rename=None):
    """Same selections and failures, and drops to 1e-8 relative; ``rename``
    maps a column of ``ours`` to its column in ``theirs``."""
    rename = np.arange(len(theirs[0].drops)) if rename is None else rename
    assert [None if s.j is None else int(rename[s.j]) for s in ours] == [s.j for s in theirs]
    assert [tuple(int(rename[i]) for i in s.A) for s in ours] == [s.A for s in theirs]
    for s, t in zip(ours, theirs):
        assert len(s.failures) == len(t.failures) and s.conservative == t.conservative
        drops = np.empty_like(s.drops)
        drops[rename] = s.drops
        np.testing.assert_allclose(drops, t.drops, rtol=1e-8, atol=1e-12)


def covariance_statistics(path, data):
    """The covariance statistic of each entry that has a next one, or the
    name of the error its test raises."""
    out = []
    for k in range(1, len(path.entry_positions)):
        try:
            out.append(covariance_test(path, data, k).statistic)
        except SigtestError as exc:
            out.append(type(exc).__name__)
    return out


def assert_same_statistics(ours, theirs):
    assert [isinstance(s, str) and s for s in ours] == [isinstance(t, str) and t for t in theirs]
    for s, t in zip(ours, theirs):
        if not isinstance(t, str):
            assert s == pytest.approx(t, rel=1e-8, abs=1e-10)


def assert_same_knots(ours, theirs, rename=None, flip=()):
    """Same events, renamed through ``rename``, with the signs of the columns
    in ``flip`` flipped and knot penalties to 1e-8 relative."""
    rename = (lambda i: i) if rename is None else rename
    assert [(kn.action, rename(kn.entering), tuple(map(rename, kn.active_before)))
            for kn in ours.knots] == [(kn.action, kn.entering, kn.active_before)
                                      for kn in theirs.knots]
    assert [tuple(-s if i in flip else s for i, s in zip(kn.active_after, kn.signs_after))
            for kn in ours.knots] == [kn.signs_after for kn in theirs.knots]
    np.testing.assert_allclose([kn.lam for kn in ours.knots], [kn.lam for kn in theirs.knots],
                               rtol=1e-8)


def with_tied_times(data):
    """The Cox dataset with its times rounded to 0.5, so many event times tie."""
    return replace(data, time=np.round(data.time * 2.0) / 2.0 + 0.5)


def rows_moved(data, order):
    """The dataset with its rows in ``order``."""
    return replace(data, **{name: getattr(data, name)[order] for name in data._arrays})


def column_flipped(data, m):
    """The dataset with the sign of column m flipped."""
    X = data.X.copy()
    X[:, m] = -X[:, m]
    return replace(data, X=X)


METAMORPHIC_DATA = {
    "gaussian": lambda seed: random_dataset(seed, 25, 5, rho=0.5, signal=((0, 2.0),)),
    "logistic": lambda seed: glm_data("logistic", seed, 40, 5),
    "cox-ties": lambda seed: with_tied_times(glm_data("cox", seed, 40, 5)),
}


PATHS = {
    "stepwise": lambda: gaussian_path("stepwise", random_dataset(6, 30, 8, rho=0.5)),
    "lasso": lambda: gaussian_path("lasso", random_dataset(6, 30, 8, rho=0.5)),
    "logistic": lambda: lrt_path(glm_data("logistic", 7, 60, 6)),
    "cox": lambda: lrt_path(glm_data("cox", 7, 60, 6)),
    "logistic-copy": lambda: lrt_path(glm_data("logistic", 7, 60, 6, copy=(0, 3))),
    "cox-copy": lambda: lrt_path(glm_data("cox", 7, 60, 6, copy=(0, 3))),
}


class TestStepRecord:
    @pytest.mark.parametrize("fields, message", [
        ({"A": (0, 2)}, "^selected variable already in the model$"),
        ({"selector": "forward"}, "^unknown selector 'forward'$"),
    ])
    def test_invalid_step_rejected(self, fields, message):
        step = {"k": 2, "A": (0,), "j": 2, "drops": np.array([np.nan, 1.0, 2.0]),
                "selector": "max_r"}
        SelectionStep(**step)
        with pytest.raises(ValueError, match=message):
            SelectionStep(**{**step, **fields})

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_drops_are_an_array_over_all_columns(self, name):
        steps = PATHS[name]()
        p = 8 if name in ("stepwise", "lasso") else 6
        assert steps
        for step in steps:
            failed = [int(m) for m in re.findall(r"candidate (\d+):", " ".join(step.failures))]
            assert len(failed) == len(step.failures)
            assert step.drops.dtype == np.float64 and step.drops.shape == (p,)
            assert np.flatnonzero(np.isnan(step.drops)).tolist() == sorted([*step.A, *failed])
            assert step.m_remaining == p - len(step.A)
        if name.endswith("-copy"):
            # The copy's fit fails once column 0 is in A, and the path ends
            # with a step where every fit fails.
            assert any(step.failures for step in steps)
            assert steps[-1].j is None and np.isnan(steps[-1].drops).all()

    @pytest.mark.parametrize("family", ["stepwise", "lasso", "logistic", "cox"])
    @given(seed=st.integers(0, 2**16), perm=st.permutations(range(5)))
    @settings(max_examples=20, deadline=None)
    def test_column_permutation_maps_the_path(self, family, seed, perm):
        # Xp = X[:, perm] holds column perm[i] of X at position i, so the
        # path on Xp selects the same columns, renamed through perm, and its
        # drops are the original drops taken at perm.
        perm = np.array(perm)
        if family in ("stepwise", "lasso"):
            data = random_dataset(seed, 25, 5, rho=0.5, signal=((0, 2.0),))
            moved = Dataset(data.X[:, perm], data.y, sigma2=data.sigma2)
            run = lambda d: gaussian_path(family, d)  # noqa: E731
        else:
            data = glm_data(family, seed, 40, 5)
            moved = (BinaryDataset(data.X[:, perm], data.y) if family == "logistic"
                     else SurvivalDataset(data.X[:, perm], data.time, data.status))
            run = lrt_path
        steps = run(data)
        assume(no_near_tie(steps))
        assert_same_steps(run(moved), steps, rename=perm)
        if family == "lasso":
            # The knots are renamed the same way, and the statistics stay.
            path = lars_path(data)
            assume(not path.warnings)
            ours = lars_path(moved)
            assert_same_knots(ours, path, rename=lambda i: int(perm[i]))
            assert_same_statistics(covariance_statistics(ours, moved),
                                   covariance_statistics(path, data))


class TestMetamorphic:
    """Relations any correct implementation keeps, checked with no second one."""

    @staticmethod
    def assert_same_results(family, data, other, flip=()):
        """``other`` gives the same steps and, for Gaussian data, the same
        knots (with the signs of the columns in ``flip`` flipped) and
        covariance statistics."""
        if family != "gaussian":
            steps = lrt_path(data)
            assume(no_near_tie(steps))
            assert_same_steps(lrt_path(other), steps)
            return
        path = lars_path(data)
        assume(not path.warnings)
        for run in (stepwise_path, lambda d: lasso_steps(lars_path(d), d)):
            steps = run(data)
            assume(no_near_tie(steps))
            assert_same_steps(run(other), steps)
        ours = lars_path(other)
        assert_same_knots(ours, path, flip=flip)
        assert_same_statistics(covariance_statistics(ours, other),
                               covariance_statistics(path, data))

    @pytest.mark.parametrize("family", sorted(METAMORPHIC_DATA))
    @given(seed=st.integers(0, 2**16), m=st.integers(0, 4))
    @settings(max_examples=12, deadline=None)
    def test_column_sign_flip(self, family, seed, m):
        # Flipping x_m flips its lasso sign and leaves every knot penalty,
        # drop and statistic as it was.
        data = METAMORPHIC_DATA[family](seed)
        self.assert_same_results(family, data, column_flipped(data, m), flip=(m,))

    @pytest.mark.parametrize("family", sorted(METAMORPHIC_DATA))
    @given(seed=st.integers(0, 2**16), shuffle=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_row_permutation(self, family, seed, shuffle):
        # The rows are exchangeable, also for Cox data with tied times.
        data = METAMORPHIC_DATA[family](seed)
        if family == "cox-ties":
            assert len(np.unique(data.time[data.status == 1.0])) < data.status.sum()
        order = np.random.default_rng(shuffle).permutation(data.n)
        self.assert_same_results(family, data, rows_moved(data, order))
