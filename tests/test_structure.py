import numpy as np
import pytest

from totpos import (
    FitConfig,
    InputNotMMatrix,
    NotApplicable,
    SymMatrix,
    WeightedGraph,
    block_closed_form,
    ec_graph,
    fit,
    grw_graph,
    is_block_graph,
    is_m_matrix,
    ml_graph_upper_bound,
    mwsf,
    mwsf_containment,
    pd_factorize,
    threshold_k,
    tiered_dot,
    tree_mle,
    w_matrix,
)
from totpos.structure import _biconnected_components
from conftest import (
    CARCASS_ML_EDGES,
    LINKAGE_R,
    PATH_PRODUCT_NOT_INV_M,
    brute_biconnected,
    random_correlation,
    random_m_matrix,
)


class TestUpperBound:
    def test_contains_carcass_graph(self, carcass):
        res = fit(carcass)
        bound = ml_graph_upper_bound(carcass)
        assert res.ml_graph.edge_pairs() <= bound.edge_pairs()

    def test_nonpositive_matrix_gives_empty_graph(self):
        r = SymMatrix(np.array([[1.0, -0.2, 0.0], [-0.2, 1.0, -0.1], [0.0, -0.1, 1.0]]))
        assert ml_graph_upper_bound(r).edges == ()

    def test_linkage_subset_of_tree(self, linkage4):
        assert ml_graph_upper_bound(linkage4).edge_pairs() <= {(0, 3), (0, 2), (1, 2)}

    def test_containment_chain_on_random_fits(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            r = random_correlation(rng, 5)
            res = fit(r)
            ml = res.ml_graph.edge_pairs()
            assert ml <= ec_graph(r, mwsf(r)).edge_pairs()
            assert ml <= ml_graph_upper_bound(r).edge_pairs()


class TestGrwGraph:
    def test_carcass_equality_graph_is_fitted_graph(self, carcass):
        g = grw_graph(carcass, w_matrix(carcass))
        assert g.edge_pairs() == CARCASS_ML_EDGES

    def test_linkage_clipped(self):
        clipped = np.where(LINKAGE_R > 0, LINKAGE_R, 0.0)
        np.fill_diagonal(clipped, 1.0)
        r = SymMatrix(clipped)
        assert grw_graph(r, w_matrix(r)).edge_pairs() == {(0, 3), (0, 2), (1, 2)}

    def test_tree_structured_input_component_complete(self):
        rng = np.random.default_rng(41)
        base = random_correlation(rng, 6)
        r = tree_mle(base, mwsf(base))
        labels = mwsf(r).component_label
        expected = {
            (i, j)
            for i in range(6)
            for j in range(i + 1, 6)
            if labels[i] == labels[j]
        }
        assert grw_graph(r, w_matrix(r)).edge_pairs() == expected


class TestBlockGraph:
    def test_tree_is_block_graph(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
        report = is_block_graph(g)
        assert report.is_block_graph
        assert frozenset({0, 1}) in report.blocks

    def test_four_cycle_is_not(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))
        report = is_block_graph(g)
        assert not report.is_block_graph
        assert report.offending_component == frozenset({0, 1, 2, 3})

    def test_carcass_blocks(self, carcass):
        report = is_block_graph(grw_graph(carcass, w_matrix(carcass)))
        assert report.is_block_graph
        assert set(report.blocks) == {
            frozenset({0, 2, 4}),
            frozenset({1, 3, 5}),
            frozenset({1, 4}),
        }

    def test_isolated_vertices_are_singleton_blocks(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        report = is_block_graph(g)
        assert frozenset({2}) in report.blocks

    def test_biconnected_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            p = int(rng.integers(3, 9))
            pairs = [
                (i, j)
                for i in range(p)
                for j in range(i + 1, p)
                if rng.random() < 0.35
            ]
            got = set(_biconnected_components(p, pairs))
            want = brute_biconnected(p, pairs)
            assert got == want, (p, sorted(pairs))


class TestBlockClosedForm:
    def test_carcass_matches_solver(self, carcass):
        res = fit(carcass)
        w = w_matrix(carcass)
        closed = block_closed_form(w, is_block_graph(grw_graph(carcass, w)))
        assert not isinstance(closed, NotApplicable)
        assert np.abs(closed.values - res.sigma_hat.values).max() <= 1e-7

    def test_identity(self):
        w = w_matrix(SymMatrix(np.eye(4)))
        closed = block_closed_form(w, is_block_graph(grw_graph(SymMatrix(np.eye(4)), w)))
        assert np.array_equal(closed.values, np.eye(4))

    def test_path_product_without_m_inverse_is_refused(self):
        r = SymMatrix(PATH_PRODUCT_NOT_INV_M)
        w = w_matrix(r)
        closed = block_closed_form(w, is_block_graph(grw_graph(r, w)))
        assert isinstance(closed, NotApplicable)
        assert "inverse M-matrix" in closed.reason
        # and indeed the fit differs from the path-product closure here
        res = fit(SymMatrix(PATH_PRODUCT_NOT_INV_M))
        w = w_matrix(SymMatrix(PATH_PRODUCT_NOT_INV_M))
        assert np.abs(res.sigma_hat.values - w.values).max() > 1e-3

    def test_cycle_equality_graph_is_refused(self):
        r = np.eye(4)
        for i, j, v in ((0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.6), (0, 3, 0.5)):
            r[i, j] = r[j, i] = v
        w = w_matrix(SymMatrix(r))
        closed = block_closed_form(w, is_block_graph(grw_graph(SymMatrix(r), w)))
        assert isinstance(closed, NotApplicable)
        assert "block graph" in closed.reason

    def test_applicable_results_pass_certificate(self):
        from totpos import kkt_certificate

        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(30):
            r = random_correlation(rng, 4)
            w = w_matrix(r)
            closed = block_closed_form(w, is_block_graph(grw_graph(r, w)))
            if isinstance(closed, NotApplicable):
                continue
            checked += 1
            assert kkt_certificate(r, closed).passed
        assert checked >= 5


class TestContainment:
    def test_carcass_contains_forest(self, carcass):
        contains, missing = mwsf_containment(carcass, fit(carcass))
        assert contains and missing == []

    def test_star_counterexample(self, star_r):
        forest = mwsf(star_r)
        assert forest.edge_pairs() == {(0, 4), (1, 4), (2, 4), (3, 4)}
        contains, missing = mwsf_containment(star_r, fit(star_r))
        assert not contains
        assert missing == [(1, 4)]

    def test_two_variable_positive(self):
        r = SymMatrix(np.array([[1.0, 0.4], [0.4, 1.0]]))
        contains, missing = mwsf_containment(r, fit(r))
        assert contains and missing == []


class TestThresholdK:
    def test_complete_graph_identity_map(self):
        rng = np.random.default_rng(44)
        k = random_m_matrix(rng, 4)
        g = WeightedGraph(4, tuple((i, j, 1.0) for i in range(4) for j in range(i + 1, 4)))
        assert np.array_equal(threshold_k(k, g).values, k.values)

    def test_empty_graph_keeps_diagonal(self):
        rng = np.random.default_rng(45)
        k = random_m_matrix(rng, 4)
        out = threshold_k(k, WeightedGraph(4, ()))
        assert np.array_equal(out.values, np.diag(k.values.diagonal()))
        pd_factorize(out)

    def test_random_trials_stay_positive_definite(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            k = random_m_matrix(rng, 6)
            pairs = [
                (i, j)
                for i in range(6)
                for j in range(i + 1, 6)
                if rng.random() < 0.5
            ]
            g = WeightedGraph(6, tuple((i, j, 1.0) for i, j in pairs))
            out = threshold_k(k, g)
            pd_factorize(out)
            assert is_m_matrix(out, tol=0.0)

    def test_rejects_non_m_input(self):
        k = SymMatrix(np.array([[1.0, 0.2], [0.2, 1.0]]))
        with pytest.raises(InputNotMMatrix):
            threshold_k(k, WeightedGraph(2, ()))


class TestTieredDot:
    def test_three_tiers_present(self, carcass):
        res = fit(carcass)
        text = tiered_dot(mwsf(carcass), res.ml_graph, ec_graph(carcass, mwsf(carcass)),
                          labels=carcass.labels)
        assert "color=red, penwidth=2.5" in text
        assert "color=blue" in text
        assert "color=gray, penwidth=0.5" in text
        assert '"Meat12" -- "Meat13"' in text
