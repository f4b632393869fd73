import numpy as np
import pytest

from totpos import (
    FitConfig,
    NegativeEntry,
    SymMatrix,
    ec_graph,
    fit,
    inverse_pd,
    is_m_matrix,
    is_ultrametric,
    mwsf,
    pd_factorize,
    rescale_solution,
    single_linkage,
    to_correlation,
    tree_mle,
    w_matrix,
)
from conftest import (
    CARCASS_ML_EDGES,
    LINKAGE_R,
    LINKAGE_Z,
    brute_bottleneck,
    brute_max_product,
    random_correlation,
    random_pd,
)


class TestSingleLinkage:
    def test_linkage_golden(self, linkage4):
        z = single_linkage(linkage4)
        assert np.abs(z.values - LINKAGE_Z).max() <= 1e-12

    def test_no_positive_entries(self):
        r = SymMatrix(np.array([[1.0, -0.3, 0.0], [-0.3, 1.0, -0.1], [0.0, -0.1, 1.0]]))
        assert np.array_equal(single_linkage(r).values, np.eye(3))

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            r = random_correlation(rng, 5)
            z = single_linkage(r)
            assert np.abs(z.values - brute_bottleneck(r.values)).max() <= 1e-12

    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            single_linkage(SymMatrix(np.diag([2.0, 3.0])))


class TestIsUltrametric:
    def test_linkage_z(self):
        assert is_ultrametric(SymMatrix(LINKAGE_Z)).is_ultrametric

    def test_identity(self):
        report = is_ultrametric(SymMatrix(np.eye(4)))
        assert report.is_ultrametric
        assert report.worst_violation is None

    def test_violating_triple(self):
        u = SymMatrix(np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.5], [0.1, 0.5, 1.0]]))
        report = is_ultrametric(u)
        assert not report.is_ultrametric
        i, j, k, mag = report.worst_violation
        assert {i, j} == {0, 2} and k == 1
        assert mag == pytest.approx(0.4, abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            is_ultrametric(SymMatrix(np.array([[1.0, -0.2], [-0.2, 1.0]])))


class TestWMatrix:
    def test_linkage_golden(self, linkage4):
        w = w_matrix(linkage4).values
        expected = {
            (0, 1): 0.2,
            (0, 2): 0.5,
            (0, 3): 0.6,
            (1, 2): 0.4,
            (1, 3): 0.12,
            (2, 3): 0.3,
        }
        for (i, j), val in expected.items():
            assert w[i, j] == pytest.approx(val, abs=1e-12)

    def test_empty_graph_gives_identity(self):
        r = SymMatrix(np.array([[1.0, -0.4], [-0.4, 1.0]]))
        assert np.array_equal(w_matrix(r).values, np.eye(2))

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            r = random_correlation(rng, 5)
            w = w_matrix(r)
            assert np.abs(w.values - brute_max_product(r.values)).max() <= 1e-12

    def test_rejects_unit_offdiagonal(self):
        r = np.eye(2)
        r[0, 1] = r[1, 0] = 1.0
        with pytest.raises(ValueError, match="< 1"):
            w_matrix(SymMatrix(r))

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            w = w_matrix(random_correlation(rng, 6))
            again = w_matrix(w)
            assert np.abs(again.values - w.values).max() <= 1e-12


class TestEcGraph:
    def test_linkage_is_tree_only(self, linkage4):
        assert ec_graph(linkage4, mwsf(linkage4)).edge_pairs() == {(0, 3), (0, 2), (1, 2)}

    def test_tree_structured_input_is_component_complete(self):
        rng = np.random.default_rng(23)
        base = random_correlation(rng, 6)
        r = tree_mle(base, mwsf(base))
        graph = ec_graph(r, mwsf(r))
        labels = mwsf(r).component_label
        expected = {
            (i, j)
            for i in range(6)
            for j in range(i + 1, 6)
            if labels[i] == labels[j]
        }
        assert graph.edge_pairs() == expected

    def test_carcass_contains_fitted_graph(self, carcass):
        assert CARCASS_ML_EDGES <= ec_graph(carcass, mwsf(carcass)).edge_pairs()


class TestIsPathProduct:
    # a matrix is path-product exactly when its max-product closure leaves
    # it unchanged
    def test_identity(self):
        assert np.array_equal(w_matrix(SymMatrix(np.eye(3))).values, np.eye(3))

    def test_closure_is_path_product(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            r = random_correlation(rng, 5)
            clipped = np.where(r.values > 0, r.values, 0.0)
            np.fill_diagonal(clipped, 1.0)
            w = w_matrix(SymMatrix(clipped))
            assert np.abs(w_matrix(w).values - w.values).max() <= 1e-12

    def test_linkage_clipped_is_not(self, linkage4):
        clipped = np.where(LINKAGE_R > 0, LINKAGE_R, 0.0)
        np.fill_diagonal(clipped, 1.0)
        assert np.abs(w_matrix(SymMatrix(clipped)).values - clipped).max() > 1e-12


class TestOrderings:
    def test_z_dominates_w_dominates_r(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            r = random_correlation(rng, 6)
            z = single_linkage(r).values
            w = w_matrix(r).values
            nonneg = r.values >= 0
            assert (z - w)[nonneg].min() >= -1e-12
            assert (w - r.values)[nonneg].min() >= -1e-12
            assert (z - r.values).min() >= -1e-12

    def test_z_equals_r_on_forest_edges(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            r = random_correlation(rng, 6)
            z = single_linkage(r)
            for i, j, w in mwsf(r).edges:
                assert z.values[i, j] == pytest.approx(w, abs=1e-14)

    def test_z_blocks_are_inverse_m_ultrametric(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            r = random_correlation(rng, 7)
            z = single_linkage(r)
            labels = mwsf(r).component_label
            for c in set(labels):
                members = [v for v in range(7) if labels[v] == c]
                block = SymMatrix(z.values[np.ix_(members, members)])
                assert is_ultrametric(block).is_ultrametric
                pd_factorize(block)
                inv = inverse_pd(block)
                assert is_m_matrix(inv, tol=1e-9 * inv.values.diagonal().max())

    def test_rescaled_z_is_dual_feasible(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            s = random_pd(rng, 6)
            r, scale = to_correlation(s)
            z = rescale_solution(single_linkage(r), scale)
            assert (z.values - s.values).min() >= -1e-12
            assert np.abs(z.values.diagonal() - s.values.diagonal()).max() <= 1e-12

    def test_w_equals_fit_for_small_dimension(self):
        rng = np.random.default_rng(29)
        for _ in range(12):
            p = int(rng.integers(2, 4))
            r = random_correlation(rng, p)
            res = fit(r, FitConfig())
            assert np.abs(w_matrix(r).values - res.sigma_hat.values).max() <= 1e-7
