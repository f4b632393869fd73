import numpy as np
import pytest

from totpos import (
    FitConfig,
    MaxSweepsExceeded,
    MleDoesNotExist,
    SymMatrix,
    duality_gap,
    exists_mle,
    fit,
    inverse_pd,
    kkt_certificate,
    log_likelihood,
    max_clique,
    mwsf,
    rescale_solution,
    single_linkage,
    to_correlation,
    tree_mle,
    w_matrix,
)
from totpos.solver import _pair_indices, _update_pair_k, _update_pair_sigma
from conftest import (
    CARCASS_CHAIN_EDGES,
    CARCASS_ML_EDGES,
    CARCASS_MLE_2DP,
    random_correlation,
)


class TestExistsMle:
    def test_rank_one_positive_observation(self):
        x = np.array([1.0, 2.0, 0.5])
        assert not exists_mle(SymMatrix(np.outer(x, x)))

    def test_carcass(self, carcass):
        assert exists_mle(carcass)

    def test_two_samples_high_dimension(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            assert exists_mle(random_correlation(rng, 10, n=2))

    def test_near_boundary_rejected(self):
        r = np.eye(2)
        r[0, 1] = r[1, 0] = 1.0 - 1e-14
        assert not exists_mle(SymMatrix(r))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            FitConfig(algorithm="newton")


class TestSmallCases:
    def test_diagonal_input_is_fixed_point(self):
        s = SymMatrix(np.diag([2.0, 3.0, 0.5]))
        res = fit(s)
        assert np.array_equal(res.sigma_hat.values, s.values)
        assert np.allclose(res.k_hat.values, np.diag([0.5, 1 / 3, 2.0]), atol=1e-14)
        assert res.sweeps == 1
        assert res.ml_graph.edges == ()

    def test_negative_pair_binds_at_zero(self):
        s = SymMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        res = fit(s)
        assert np.array_equal(res.sigma_hat.values, np.eye(2))
        assert res.ml_graph.edges == ()

    def test_positive_pair_unconstrained(self):
        s = SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        res = fit(s)
        assert np.array_equal(res.sigma_hat.values, s.values)
        assert res.ml_graph.edge_pairs() == {(0, 1)}

    def test_nonexistent_mle_raises(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(MleDoesNotExist):
            fit(SymMatrix(np.outer(x, x)))

    def test_single_variable(self):
        res = fit(SymMatrix(np.array([[4.0]])))
        assert res.sigma_hat.values[0, 0] == 4.0
        assert res.k_hat.values[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert res.certificate.passed
        assert res.ml_graph.edges == ()


class TestCarcass:
    @pytest.fixture(autouse=True)
    def _fit(self, carcass):
        self.r = carcass
        self.res = fit(carcass)

    def test_ml_graph(self):
        assert self.res.ml_graph.edge_pairs() == CARCASS_ML_EDGES

    def test_chain_contained(self):
        assert CARCASS_CHAIN_EDGES <= self.res.ml_graph.edge_pairs()

    def test_bridge_entry_strictly_above_sample(self):
        assert self.res.sigma_hat.values[3, 4] > 0.11

    def test_matches_path_product_closure(self):
        w = w_matrix(self.r)
        assert np.abs(self.res.sigma_hat.values - w.values).max() <= 1e-7

    def test_two_decimal_reference(self):
        # The tabulated reference was computed from unrounded data.  On the
        # two-decimal input the (0, 1) entry is the path product
        # 0.82 * 0.13 = 0.1066 against a tabulated 0.10, so the tolerance
        # here must cover the rounding of the input too: 0.01.
        assert np.abs(self.res.sigma_hat.values - CARCASS_MLE_2DP).max() <= 0.01

    def test_certificate_and_gap(self):
        assert self.res.certificate.passed
        assert -1e-8 <= self.res.duality_gap <= 1e-8

    def test_graph_consistency(self):
        # fitted entries match the sample on edges; precision vanishes off them
        sig = self.res.sigma_hat.values
        k = self.res.k_hat.values
        for i in range(6):
            for j in range(i + 1, 6):
                if (i, j) in CARCASS_ML_EDGES:
                    assert sig[i, j] == pytest.approx(self.r.values[i, j], abs=1e-8)
                else:
                    assert abs(k[i, j]) <= 1e-8

    def test_inverse_pair(self):
        prod = self.res.sigma_hat.values @ self.res.k_hat.values
        assert np.abs(prod - np.eye(6)).max() <= 1e-8

    def test_loglik_beats_identity(self):
        assert self.res.log_likelihood > log_likelihood(SymMatrix(np.eye(6)), self.r)


class TestAlgorithmAgreement:
    def test_both_algorithms_and_starts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            r = random_correlation(rng, 4)
            results = [
                fit(r, FitConfig(algorithm="sigma")),
                fit(r, FitConfig(algorithm="k")),
            ]
            base = results[0].sigma_hat.values
            for res in results[1:]:
                assert np.abs(res.sigma_hat.values - base).max() <= 1e-7
            for res in results:
                assert res.certificate.passed
                assert res.duality_gap <= 1e-8


class TestMonotonicity:
    def test_sigma_updates_never_decrease_dual_objective(self):
        # each covariance update exactly maximizes log det over its entry,
        # so the dual objective improves monotonically
        rng = np.random.default_rng(32)
        for _ in range(5):
            r = random_correlation(rng, 5)
            cur = single_linkage(r).values.copy()
            pairs = _pair_indices(5)
            for _ in range(3):
                for u, v, rest in pairs:
                    before = np.linalg.slogdet(cur)[1]
                    _update_pair_sigma(cur, r.values, u, v, rest)
                    after = np.linalg.slogdet(cur)[1]
                    assert after >= before - 1e-12

    def test_k_updates_never_decrease_likelihood(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            r = random_correlation(rng, 5)
            cur = np.eye(5)
            pairs = _pair_indices(5)
            for _ in range(3):
                for u, v, rest in pairs:
                    before = log_likelihood(SymMatrix(cur), r)
                    _update_pair_k(cur, r.values, u, v, rest)
                    after = log_likelihood(SymMatrix(cur), r)
                    assert after >= before - 1e-12


class TestEquivariance:
    def test_diagonal_rescaling(self):
        rng = np.random.default_rng(34)
        for _ in range(8):
            r = random_correlation(rng, 5)
            d = rng.uniform(0.2, 5.0, size=5)
            scaled = SymMatrix(r.values * np.outer(d, d))
            res_r = fit(r)
            res_s = fit(scaled)
            expected = res_r.sigma_hat.values * np.outer(d, d)
            assert np.abs(res_s.sigma_hat.values - expected).max() <= 1e-8 * np.abs(expected).max()
            assert res_s.ml_graph.edge_pairs() == res_r.ml_graph.edge_pairs()
            assert res_s.certificate.passed


class TestBlockStructure:
    def _two_block_correlation(self, rng):
        a = random_correlation(rng, 3).values
        b = random_correlation(rng, 3).values
        r = np.eye(6)
        r[:3, :3] = a
        r[3:, 3:] = b
        # strictly negative cross-block entries keep the components separate
        r[:3, 3:] = -rng.uniform(0.05, 0.25, size=(3, 3))
        r[3:, :3] = r[:3, 3:].T
        return SymMatrix((r + r.T) / 2)

    def test_solution_is_block_diagonal(self):
        rng = np.random.default_rng(35)
        for _ in range(6):
            r = self._two_block_correlation(rng)
            res = fit(r)
            sig = res.sigma_hat.values
            assert np.abs(sig[:3, 3:]).max() <= 1e-7
            off = ~np.eye(6, dtype=bool)
            assert (sig - r.values)[off].min() >= -1e-9
            labels = mwsf(r).component_label
            for i in range(6):
                for j in range(i + 1, 6):
                    if labels[i] == labels[j]:
                        assert sig[i, j] >= -1e-9


class TestCliqueBound:
    def test_clique_size_at_most_sample_count(self):
        rng = np.random.default_rng(36)
        for n in (2, 3):
            for _ in range(6):
                r = random_correlation(rng, 6, n=n)
                cfg = FitConfig(algorithm="k")
                res = fit(r, cfg)
                assert len(max_clique(res.ml_graph)) <= n


class TestSweepBudget:
    def test_max_sweeps_carries_result(self, carcass):
        with pytest.raises(MaxSweepsExceeded) as err:
            fit(carcass, FitConfig(max_sweeps=1))
        result = err.value.result
        assert result.sweeps == 1
        assert result.certificate is not None


class TestDualityGap:
    def test_zero_at_inverse_m_optimum(self):
        rng = np.random.default_rng(37)
        base = random_correlation(rng, 5)
        r = tree_mle(base, mwsf(base))  # inverse M-matrix by construction
        k = inverse_pd(r)
        assert abs(duality_gap(r, k, r)) <= 1e-10

    def test_positive_for_feasible_non_optimal_pair(self, carcass):
        r, scale = to_correlation(carcass)
        z = rescale_solution(single_linkage(r), scale)
        k0 = SymMatrix(np.eye(6))
        gap = duality_gap(carcass, k0, z)
        assert gap > 0.1

    def test_small_after_convergence(self, carcass):
        res = fit(carcass)
        assert -1e-8 <= duality_gap(carcass, res.k_hat, res.sigma_hat) <= 1e-8


class TestCertificate:
    def test_sample_itself_fails_for_carcass(self, carcass):
        # the sample correlations have negative partial correlations
        cert = kkt_certificate(carcass, carcass)
        assert not cert.passed
        assert cert.primal_max > cert.tol

    def test_fitted_passes(self, carcass):
        res = fit(carcass)
        assert kkt_certificate(carcass, res.sigma_hat).passed

    def test_scale_invariance(self, carcass):
        res = fit(carcass)
        d = np.linspace(0.5, 3.0, 6)
        scaled_input = SymMatrix(carcass.values * np.outer(d, d))
        scaled_sigma = SymMatrix(res.sigma_hat.values * np.outer(d, d))
        a = kkt_certificate(carcass, res.sigma_hat)
        b = kkt_certificate(scaled_input, scaled_sigma)
        assert a.passed and b.passed
        assert b.primal_max == pytest.approx(a.primal_max, rel=1e-6, abs=1e-12)


class TestMoreValidation:
    def test_certificate_requires_pd_candidate(self, carcass):
        from totpos import NotPositiveDefinite

        bad = SymMatrix(np.eye(6) - 2 * np.diag([0, 0, 0, 0, 0, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            kkt_certificate(carcass, bad)

    def test_duality_gap_requires_pd(self, carcass):
        from totpos import NotPositiveDefinite

        bad = SymMatrix(-np.eye(6))
        with pytest.raises(NotPositiveDefinite):
            duality_gap(carcass, bad, carcass)

    def test_labels_propagate(self, carcass):
        res = fit(carcass)
        assert res.sigma_hat.labels == carcass.labels
        assert res.k_hat.labels == carcass.labels

    def test_edge_threshold_controls_graph(self):
        s = SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert fit(s).ml_graph.edge_pairs() == {(0, 1)}
        coarse = fit(s, FitConfig(edge_threshold=0.9))
        assert coarse.ml_graph.edges == ()
