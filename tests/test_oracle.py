from itertools import combinations

import numpy as np
import pytest

from totpos import (
    MleDoesNotExist,
    SymMatrix,
    active_set_oracle,
    fit,
    FitConfig,
)
from totpos.oracle import NEWTON_TOL, _candidate_mles, _plan, _restricted_mles
from conftest import CARCASS_LABELS, CARCASS_R, random_correlation

# The tenth p = 4, n = 2 draw of random_correlation(default_rng(5), ., n=2),
# after ten p = 3 draws.  On the support {01, 03, 13, 23} the restricted
# problem has no maximum: the Newton iterate grows without bound, and the
# error raised by inverting it once escaped the oracle.
DIVERGENT_SUPPORT_R = np.array([
    [1.0, 0.9398083503150123, 0.940639495049888, 0.4638264142934825],
    [0.9398083503150123, 1.0, 0.7680446823345223, 0.7386306682083987],
    [0.940639495049888, 0.7680446823345223, 1.0, 0.13560362530127135],
    [0.4638264142934825, 0.7386306682083987, 0.13560362530127135, 1.0],
])


def _reference_restricted_mle(r: np.ndarray, support_pairs) -> np.ndarray | None:
    """The restricted Newton iteration for one support, one candidate at a
    time: identity start, at most 200 steps, the damped step 1 / (1 + lam)
    with lam^2 = grad . step, a full step once lam <= 1/4; None when ``inv``
    or ``solve`` fails or lam^2 is not positive."""
    p = r.shape[0]
    idx_i = np.array([i for i in range(p)] + [i for i, _ in support_pairs], dtype=int)
    idx_j = np.array([i for i in range(p)] + [j for _, j in support_pairs], dtype=int)
    mult = np.where(idx_i == idx_j, 1.0, 2.0)
    theta = np.zeros(len(idx_i))
    theta[:p] = 1.0
    for _ in range(200):
        k = np.zeros((p, p))
        k[idx_i, idx_j] = theta
        k[idx_j, idx_i] = theta
        try:
            sigma = np.linalg.inv(k)
        except np.linalg.LinAlgError:
            return None
        grad = mult * (sigma[idx_i, idx_j] - r[idx_i, idx_j])
        if np.abs(grad).max() < NEWTON_TOL:
            return k
        hess = -0.5 * np.outer(mult, mult) * (
            sigma[np.ix_(idx_i, idx_i)] * sigma[np.ix_(idx_j, idx_j)]
            + sigma[np.ix_(idx_i, idx_j)] * sigma[np.ix_(idx_j, idx_i)]
        )
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return None
        lam2 = float(grad @ step)
        if not lam2 > 0.0:
            return None
        lam = np.sqrt(lam2)
        theta = theta + (1.0 / (1.0 + lam) if lam > 0.25 else 1.0) * step
    return None


class TestSmallCases:
    def test_positive_pair_binds(self):
        s = SymMatrix(np.array([[1.0, 0.4], [0.4, 1.0]]))
        sol = active_set_oracle(s)
        assert sol.active_set == frozenset({(0, 1)})
        assert np.abs(sol.sigma.values - s.values).max() <= 1e-10
        assert sol.kkt.passed

    def test_negative_pair_is_free(self):
        s = SymMatrix(np.array([[1.0, -0.4], [-0.4, 1.0]]))
        sol = active_set_oracle(s)
        assert sol.active_set == frozenset()
        assert np.abs(sol.sigma.values - np.eye(2)).max() <= 1e-10

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            active_set_oracle(SymMatrix(np.eye(6)))

    def test_divergent_support_fails_alone(self):
        s = SymMatrix(DIVERGENT_SUPPORT_R)
        sol = active_set_oracle(s)
        res = fit(s, FitConfig(algorithm="sigma"))
        assert sol.kkt.passed
        assert np.abs(sol.sigma.values - res.sigma_hat.values).max() <= 1e-6

    def test_existence_required(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(MleDoesNotExist):
            active_set_oracle(SymMatrix(np.outer(x, x)))


class TestRestrictedSolve:
    def test_diagonal_support(self):
        rng = np.random.default_rng(70)
        r = random_correlation(rng, 4)
        k = _restricted_mles(r.values, [()])[0]
        assert np.allclose(k, np.eye(4), atol=1e-10)

    def test_full_support_recovers_inverse(self):
        rng = np.random.default_rng(71)
        r = random_correlation(rng, 4)
        pairs = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        k = _restricted_mles(r.values, [pairs])[0]
        assert np.abs(k - np.linalg.inv(r.values)).max() <= 1e-8

    def test_graphical_stationarity(self):
        # on the support the fitted covariance matches the input; off the
        # support the precision vanishes by construction
        rng = np.random.default_rng(72)
        r = random_correlation(rng, 5)
        pairs = ((0, 1), (1, 2), (2, 3), (3, 4))
        k = _restricted_mles(r.values, [pairs])[0]
        sigma = np.linalg.inv(k)
        for i, j in pairs:
            assert sigma[i, j] == pytest.approx(r.values[i, j], abs=1e-10)
        assert k[0, 2] == 0.0 and k[1, 4] == 0.0

    @pytest.mark.parametrize("n", [7, 2])
    def test_batch_matches_one_at_a_time(self, n):
        # n = 7 is p + 3; at n = 2 the reproducer has 24 supports without a
        # maximum, each ending at a singular Hessian or a Newton decrement
        # that is no longer positive
        if n == 2:
            r = DIVERGENT_SUPPORT_R
        else:
            r = random_correlation(np.random.default_rng(74), 4, n=n).values
        all_pairs = list(combinations(range(4), 2))
        for size in range(len(all_pairs) + 1):
            subsets = list(combinations(all_pairs, size))
            for subset, k in zip(subsets, _restricted_mles(r, subsets)):
                ref = _reference_restricted_mle(r, subset)
                assert (k is None) == (ref is None), subset
                if ref is not None:
                    assert np.abs(k - ref).max() <= 1e-12


class TestChordalClosedForm:
    def test_counts_labelled_chordal_graphs(self):
        # OEIS A058862
        assert [len(_plan(p).chordal) for p in range(1, 6)] == [1, 2, 8, 61, 822]

    @pytest.mark.parametrize("p", [4, 5])
    def test_empty_and_complete_sets(self, p):
        r = random_correlation(np.random.default_rng(75), p).values
        plan = _plan(p)
        assert plan.supports[0] == () and len(plan.supports[-1]) == p * (p - 1) // 2
        ks, singular = _candidate_mles(r)
        assert not singular.any()
        assert np.abs(ks[0] - np.eye(p)).max() <= 1e-12
        assert np.abs(ks[-1] - np.linalg.inv(r)).max() <= 1e-12

    @pytest.mark.parametrize("p", [4, 5])
    def test_matches_newton_on_chordal_sets(self, p):
        r = random_correlation(np.random.default_rng(76), p, n=p + 3).values
        plan = _plan(p)
        ks, _ = _candidate_mles(r)
        sizes = plan.on_set[plan.chordal].sum(axis=1)
        for size in np.unique(sizes):
            at = plan.chordal[sizes == size]
            for c, k in zip(at, _restricted_mles(r, [plan.supports[c] for c in at])):
                assert k is not None, plan.supports[c]
                assert np.abs(ks[c] - k).max() <= 1e-10, plan.supports[c]

    def test_ill_conditioned_maxima_are_found(self):
        # the second p = 5, n = 2 draw of seed 51 has r01 = -0.999998; its
        # restricted maxima that contain (0, 1) have K entries near 2.4e5
        rng = np.random.default_rng(51)
        random_correlation(rng, 5, n=2)
        r = random_correlation(rng, 5, n=2)
        ks, _ = _candidate_mles(r.values)
        solved = np.flatnonzero(~np.isnan(ks[:, 0, 0]))
        assert len(solved) >= 350
        sigma = np.linalg.inv(ks[solved])
        iu, ju = np.triu_indices(5, 1)
        off = np.where(_plan(5).on_set[solved], sigma[:, iu, ju] - r.values[iu, ju], 0.0)
        diag = sigma.diagonal(axis1=1, axis2=2) - 1.0
        assert max(np.abs(off).max(), np.abs(diag).max()) <= 1e-9
        sol = active_set_oracle(r)
        res = fit(r, FitConfig(algorithm="k"))
        assert np.abs(sol.sigma.values - res.sigma_hat.values).max() <= 1e-10

    def test_no_maximum_pattern_at_two_observations(self):
        # every support: a failed clique block, the closed form or Newton
        # finds no maximum exactly where the one-at-a-time reference fails
        ks, singular = _candidate_mles(DIVERGENT_SUPPORT_R)
        plan = _plan(4)
        assert singular.sum() == 23
        for c, support in enumerate(plan.supports):
            ref = _reference_restricted_mle(DIVERGENT_SUPPORT_R, support)
            assert np.isnan(ks[c, 0, 0]) == (ref is None), support


class TestAgainstSolver:
    def test_carcass_subset(self):
        idx = [0, 1, 2, 3]  # Fat11, Meat11, Fat12, Meat12
        s = SymMatrix(CARCASS_R[np.ix_(idx, idx)], labels=tuple(CARCASS_LABELS[i] for i in idx))
        sol = active_set_oracle(s)
        res = fit(s)
        assert np.abs(sol.sigma.values - res.sigma_hat.values).max() <= 1e-7
        assert sol.kkt.passed

    def test_random_agreement_and_uniqueness(self):
        rng = np.random.default_rng(73)
        checked = 0
        for _ in range(30):
            p = int(rng.integers(2, 5))
            r = random_correlation(rng, p)
            sol = active_set_oracle(r)
            res_sigma = fit(r, FitConfig(algorithm="sigma"))
            res_k = fit(r, FitConfig(algorithm="k"))
            assert np.abs(sol.sigma.values - res_sigma.sigma_hat.values).max() <= 1e-6
            assert np.abs(sol.sigma.values - res_k.sigma_hat.values).max() <= 1e-6
            assert sol.kkt.passed
            # complementary slackness: the binding set is the fitted graph
            # (skip near-degenerate draws where an activity is ambiguous)
            k = np.linalg.inv(sol.sigma.values)
            margins = sol.sigma.values - r.values
            degenerate = any(
                abs(k[i, j]) < 1e-8 and abs(margins[i, j]) < 1e-8
                for i in range(p)
                for j in range(i + 1, p)
            )
            if not degenerate:
                checked += 1
                assert sol.active_set == res_sigma.ml_graph.edge_pairs()
        assert checked >= 20
