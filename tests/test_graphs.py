import numpy as np
import pytest

from totpos import (
    SymMatrix,
    WeightedForest,
    WeightedGraph,
    max_clique,
    mwsf,
    pd_factorize,
    to_dot,
    tree_mle,
)
from totpos.graphs import _positive_part_graph as positive_part_graph
from conftest import (
    CARCASS_CHAIN_EDGES,
    CARCASS_LABELS,
    CARCASS_R,
    LINKAGE_R,
    brute_max_forest_weight,
    random_correlation,
)


class TestGraphTypes:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((1, 1, 0.5),))
        with pytest.raises(ValueError):
            WeightedGraph(3, ((0, 1, 0.5), (0, 1, 0.7)))
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 2, 0.5),))

    def test_forest_rejects_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            WeightedForest(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)), (0, 0, 0))

    def test_forest_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            WeightedForest(3, ((0, 1, 1.0),), (0, 0, 0))

    def test_labels_merging_two_components(self):
        # the edges make {0, 1}, {2, 3} and {4}; the labels put 2 with {0, 1}
        with pytest.raises(ValueError, match="inconsistent"):
            WeightedForest(5, ((0, 1, 0.5), (2, 3, 0.5)), (0, 0, 0, 1, 2))

    def test_labels_splitting_one_component(self):
        # the edges make {0, 1, 2} and {3}; the labels cut 2 away from 0 and 1
        with pytest.raises(ValueError, match="inconsistent"):
            WeightedForest(4, ((0, 1, 0.5), (1, 2, 0.5)), (0, 0, 1, 1))

    def test_wrong_edge_count(self):
        # three labelled components on four vertices leave room for one edge
        with pytest.raises(ValueError, match="edge count"):
            WeightedForest(4, ((0, 1, 0.5), (2, 3, 0.5)), (0, 0, 1, 2))

    def test_edges_sorted(self):
        g = WeightedGraph(3, ((1, 2, 0.5), (0, 1, 0.7)))
        assert g.edges == ((0, 1, 0.7), (1, 2, 0.5))


class TestPositivePartGraph:
    def test_linkage_example(self, linkage4):
        g = positive_part_graph(linkage4)
        assert {(i, j): w for i, j, w in g.edges} == {
            (0, 3): 0.6,
            (0, 2): 0.5,
            (1, 2): 0.4,
            (2, 3): 0.2,
        }

    def test_all_negative(self):
        r = SymMatrix(np.array([[1.0, -0.2], [-0.2, 1.0]]))
        assert positive_part_graph(r).edges == ()

    def test_carcass_count(self, carcass):
        # all but the two negative pairs are edges
        assert len(positive_part_graph(carcass).edges) == 13


class TestMwsf:
    def test_carcass_chain(self, carcass):
        forest = mwsf(carcass)
        assert forest.edge_pairs() == CARCASS_CHAIN_EDGES
        assert set(forest.component_label) == {0}

    def test_linkage_tree(self, linkage4):
        assert mwsf(linkage4).edge_pairs() == {(0, 3), (0, 2), (1, 2)}

    def test_star_center(self, star_r):
        forest = mwsf(star_r)
        assert forest.edge_pairs() == {(0, 4), (1, 4), (2, 4), (3, 4)}

    def test_disconnected_components(self):
        r = np.eye(4)
        r[0, 1] = r[1, 0] = 0.5
        r[2, 3] = r[3, 2] = -0.4
        forest = mwsf(SymMatrix(r))
        assert forest.edge_pairs() == {(0, 1)}
        labels = forest.component_label
        assert labels[0] == labels[1]
        assert len({labels[1], labels[2], labels[3]}) == 3

    def test_matches_exhaustive_weight(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            r = random_correlation(rng, 6)
            forest = mwsf(r)
            graph = positive_part_graph(r)
            got = sum(w for _, _, w in forest.edges)
            assert got == pytest.approx(brute_max_forest_weight(graph.edges, 6), abs=1e-12)
            assert all(w > 0 for _, _, w in forest.edges)

    def test_deterministic_tie_break(self):
        # equal weights resolve toward the lexicographically first pair
        r = np.eye(3)
        r[0, 1] = r[1, 0] = 0.5
        r[0, 2] = r[2, 0] = 0.5
        r[1, 2] = r[2, 1] = 0.5
        assert mwsf(SymMatrix(r)).edge_pairs() == {(0, 1), (0, 2)}


class TestForestPath:
    def test_chain(self):
        f = WeightedForest(3, ((0, 1, 0.5), (1, 2, 0.4)), (0, 0, 0))
        assert f.path(0, 2) == [0, 1, 2]
        assert f.path(2, 0) == [2, 1, 0]
        assert f.path(1, 1) == [1]

    def test_across_components(self):
        f = WeightedForest(4, ((0, 1, 0.5),), (0, 0, 1, 2))
        assert f.path(0, 2) is None

    def test_carcass_end_to_end(self, carcass):
        assert mwsf(carcass).path(0, 5) == [0, 2, 4, 1, 3, 5]

    def test_walk_is_parent_first(self):
        f = WeightedForest(5, ((0, 1, 0.5), (1, 2, 0.4), (1, 3, 0.3)), (0, 0, 0, 0, 1))
        assert isinstance(f, WeightedGraph)
        seen = {2}
        for u, v in f.walk(2):
            assert u in seen and v not in seen
            seen.add(v)
        assert seen == {0, 1, 2, 3}
        assert list(f.walk(4)) == []


class TestTreeMle:
    def test_chain_product(self):
        r = np.eye(3)
        r[0, 1] = r[1, 0] = 0.5
        r[1, 2] = r[2, 1] = 0.4
        m = SymMatrix(r)
        fitted = tree_mle(m, mwsf(m))
        assert fitted.values[0, 2] == pytest.approx(0.2, abs=1e-15)

    def test_empty_forest(self):
        r = SymMatrix(np.eye(3))
        fitted = tree_mle(r, mwsf(r))
        assert np.array_equal(fitted.values, np.eye(3))

    def test_carcass_endpoint_product(self, carcass):
        fitted = tree_mle(carcass, mwsf(carcass))
        expected = 0.84 * 0.83 * 0.13 * 0.87 * 0.90
        assert fitted.values[0, 5] == pytest.approx(expected, abs=1e-12)

    def test_agrees_on_forest_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            r = random_correlation(rng, 6)
            forest = mwsf(r)
            fitted = tree_mle(r, forest)
            for i, j, w in forest.edges:
                assert fitted.values[i, j] == pytest.approx(w, abs=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            r = random_correlation(rng, 6)
            fitted = tree_mle(r, mwsf(r))
            pd_factorize(SymMatrix(fitted.values + 1e-10 * np.eye(6)))


class TestMaxClique:
    def test_triangle_with_tail(self):
        g = WeightedGraph(5, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
        assert max_clique(g) == frozenset({0, 1, 2})

    def test_empty_graph(self):
        assert len(max_clique(WeightedGraph(3, ()))) == 1

    def test_matches_brute_force(self):
        import itertools

        rng = np.random.default_rng(13)
        for _ in range(15):
            p = 7
            pairs = [
                (i, j) for i in range(p) for j in range(i + 1, p) if rng.random() < 0.45
            ]
            g = WeightedGraph(p, tuple((i, j, 1.0) for i, j in pairs))
            pair_set = set(pairs)
            best = 1
            for size in range(p, 0, -1):
                found = any(
                    all(e in pair_set for e in itertools.combinations(sub, 2))
                    for sub in itertools.combinations(range(p), size)
                )
                if found:
                    best = size
                    break
            assert len(max_clique(g)) == best


class TestDot:
    def test_weight_attribute_format(self, carcass):
        text = to_dot(mwsf(carcass), labels=CARCASS_LABELS)
        assert '"Meat12" -- "Meat13" [weight="0.900000"];' in text
        assert text.startswith("graph G {")

    def test_unlabeled_vertices(self):
        text = to_dot(WeightedGraph(2, ((0, 1, 0.25),)))
        assert '"0" -- "1" [weight="0.250000"];' in text


class TestGraphEdgeCases:
    def test_forest_path_validates_vertices(self):
        f = WeightedForest(2, ((0, 1, 0.5),), (0, 0))
        with pytest.raises(ValueError):
            f.path(0, 5)

    def test_to_dot_label_count_checked(self):
        with pytest.raises(ValueError):
            to_dot(WeightedGraph(3, ()), labels=("a", "b"))
