import numpy as np
import pytest

from oracles import best_single_variable_drop, normal_equation_drop
from sigtest import (
    Dataset,
    PathTruncationWarning,
    StalePathError,
    lars_path,
    lasso_steps,
    standardize,
    stepwise_path,
)
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
            assert step.r_j == pytest.approx(max(step.drops.values()), abs=1e-12)
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
                assert step.r_j <= max(step.drops.values()) + 1e-10

    def test_null_drops_are_chisq1_on_orthogonal_design(self):
        # Conditional on an orthogonal design and a null response, the
        # candidate drops are independent chi-square(1) draws.
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(101)
        Q, _ = np.linalg.qr(rng.standard_normal((400, 200)))
        data = Dataset(Q, rng.standard_normal(400), sigma2=1.0)
        steps = stepwise_path(data, max_steps=1)
        draws = np.array(list(steps[0].drops.values()))
        d, pval = scipy_stats.kstest(draws, scipy_stats.chi2(df=1).cdf)
        assert pval > 0.01

    def test_conservative_flag_on_non_maximal_entry(self):
        # On strongly correlated designs the lasso sometimes admits a
        # variable whose drop is not the maximum; scan seeds for one.
        found = False
        for seed in range(200):
            data = random_dataset(seed, 30, 8, rho=0.8, signal=((0, 2.0),))
            for step in lasso_steps(lars_path(data), data):
                if step.r_j < max(step.drops.values()) - 1e-10:
                    assert step.conservative
                    found = True
        assert found, "no conservative lasso step found in the seed sweep"


class TestBestCandidate:
    def test_ties_within_tolerance_go_to_lowest_index(self):
        assert best_candidate({3: 1.0, 1: 1.0 - 5e-13, 2: 0.5}) == (1, 1.0)
        assert best_candidate({3: 1.0, 1: 1.0 - 5e-12, 2: 0.5}) == (3, 1.0)

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
                    for m, drop in step.drops.items():
                        assert drop == pytest.approx(normal_equation_drop(
                            data.X, data.y, step.A, m, data.sigma2), abs=1e-9)
        assert deletions >= 3
