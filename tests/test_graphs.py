import numpy as np
import pytest

from totpos import (
    SymMatrix,
    WeightedForest,
    WeightedGraph,
    max_clique,
    mwsf,
    pd_factorize,
    tiered_dot,
    to_dot,
    tree_mle,
)
from totpos.graphs import fold_paths
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
            WeightedForest(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))

    def test_forest_rejects_cycle_in_second_tree(self):
        # {0, 1} is a tree; the cycle 2-3-4 is met only by the second walk
        with pytest.raises(ValueError, match="cycle"):
            WeightedForest(5, ((0, 1, 0.5), (2, 3, 0.5), (3, 4, 0.5), (2, 4, 0.5)))

    def test_edges_sorted(self):
        g = WeightedGraph(3, ((1, 2, 0.5), (0, 1, 0.7)))
        assert g.edges == ((0, 1, 0.7), (1, 2, 0.5))

    @pytest.mark.parametrize("edges, message", [
        (((0, 1, 0.5), (2, 1, 0.5)), "bad edge (2, 1) for dimension 3"),
        (((0, 1, 0.5), (0, 3, 0.5)), "bad edge (0, 3) for dimension 3"),
        (((-1, 2, 0.5),), "bad edge (-1, 2) for dimension 3"),
        (((0, 1, 0.5), (1, 2, 0.1), (0, 1, 0.7), (2, 1, 0.3)), "duplicate edge (0, 1)"),
        (((0, 1, 0.5), (2, 2, 0.3), (0, 1, 0.7)), "bad edge (2, 2) for dimension 3"),
        (((2, 1, 0.3), (2, 1, 0.3)), "bad edge (2, 1) for dimension 3"),
    ])
    def test_first_offending_edge_reported(self, edges, message):
        with pytest.raises(ValueError) as err:
            WeightedGraph(3, edges)
        assert str(err.value) == message

    def test_validation_matches_edge_loop(self):
        rng = np.random.default_rng(16)
        for trial in range(300):
            dim = int(rng.integers(1, 7))
            count = int(rng.integers(0, 12))
            pairs = rng.integers(-1, dim + 1, size=(count, 2)).tolist()
            edges = [(i, j, float(w)) for (i, j), w in zip(pairs, rng.standard_normal(count))]
            if trial % 2:  # mostly valid edge sets
                edges = [(i, j, w) for i, j, w in edges if 0 <= i < j < dim]
                edges = list({(i, j): (i, j, w) for i, j, w in edges}.values())
            try:
                expected = _reference_check_edges(dim, edges)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    WeightedGraph(dim, edges)
                assert str(err.value) == str(exc)
            else:
                assert WeightedGraph(dim, edges).edges == expected


def _reference_check_edges(dim, edges):
    """Edge validation as one loop over the edges, in input order."""
    seen = set()
    out = []
    for i, j, w in edges:
        if not (0 <= i < j < dim):
            raise ValueError(f"bad edge ({i}, {j}) for dimension {dim}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        out.append((int(i), int(j), float(w)))
    out.sort(key=lambda e: (e[0], e[1]))
    return tuple(out)


def positive_part_graph(r):
    return WeightedGraph.from_mask(r.values > 0.0, r.values)


class TestFromMask:
    def test_reads_upper_triangle_only(self):
        mask = np.ones((3, 3), dtype=bool)
        weights = np.arange(9.0).reshape(3, 3)
        g = WeightedGraph.from_mask(mask, weights)
        # diagonal and lower triangle ignored; weight taken at (i, j), i < j
        assert g.dim == 3
        assert g.edges == ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 5.0))

    def test_lower_triangle_alone_gives_no_edges(self):
        mask = np.tril(np.ones((4, 4), dtype=bool))
        assert WeightedGraph.from_mask(mask, np.ones((4, 4))).edges == ()

    def test_empty_mask(self):
        g = WeightedGraph.from_mask(np.zeros((5, 5), dtype=bool), np.ones((5, 5)))
        assert g.dim == 5
        assert g.edges == ()

    def test_matches_pair_loop(self):
        rng = np.random.default_rng(12)
        for p in (1, 2, 7):
            mask = rng.random((p, p)) < 0.5
            weights = rng.standard_normal((p, p))
            expected = tuple(
                (i, j, float(weights[i, j]))
                for i in range(p)
                for j in range(i + 1, p)
                if mask[i, j]
            )
            assert WeightedGraph.from_mask(mask, weights).edges == expected

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4,), (2, 2, 2)])
    def test_mask_must_be_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            WeightedGraph.from_mask(np.ones(shape, dtype=bool), np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (3,)])
    def test_weights_must_match_mask(self, shape):
        with pytest.raises(ValueError, match="square"):
            WeightedGraph.from_mask(np.ones((3, 3), dtype=bool), np.ones(shape))

    def test_integer_weights_become_floats(self):
        g = WeightedGraph.from_mask(np.ones((3, 3), dtype=bool), np.arange(9).reshape(3, 3))
        assert g.edges == ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 5.0))
        assert all(type(x) is int for i, j, _ in g.edges for x in (i, j))
        assert all(type(w) is float for _, _, w in g.edges)

    def test_equals_graph_from_the_same_triples(self):
        rng = np.random.default_rng(13)
        for p in (1, 2, 5, 9):
            mask = rng.random((p, p)) < 0.5
            weights = rng.standard_normal((p, p))
            g = WeightedGraph.from_mask(mask, weights)
            checked = WeightedGraph(p, g.edges[::-1])
            assert type(g) is WeightedGraph
            assert g == checked
            assert g.neighbors == checked.neighbors


class TestMaskAndTripleGraphsAgree:
    """A graph from a mask keeps the index arrays of the mask; a graph from
    triples keeps the arrays that validation builds.  Every view of two
    such graphs of the same edges agrees."""

    @staticmethod
    def _pairs(rng):
        """(from_mask graph, graph of the same triples in shuffled order),
        empty and complete masks included."""
        for p in (1, 2, 5, 9, 16):
            for density in (0.0, 0.3, 0.7, 1.0):
                mask = rng.random((p, p)) < density
                weights = rng.standard_normal((p, p))
                triples = [(i, j, float(weights[i, j]))
                           for i in range(p) for j in range(i + 1, p) if mask[i, j]]
                rng.shuffle(triples)
                yield WeightedGraph.from_mask(mask, weights), WeightedGraph(p, triples)

    def test_equality_and_hash_before_edges_are_read(self):
        rng = np.random.default_rng(20)
        for k, (a, b) in enumerate(self._pairs(rng)):
            assert "edges" not in vars(a) and "edges" not in vars(b)
            if k % 2:
                assert hash(a) == hash(b) and a == b
            else:
                assert a == b and hash(a) == hash(b)
            assert hash(a) == hash((a.dim, a.edges))

    def test_views_agree(self):
        rng = np.random.default_rng(21)
        for a, b in self._pairs(rng):
            assert a.edges == b.edges
            assert a.edge_pairs() == b.edge_pairs()
            assert a.neighbors == b.neighbors
            assert to_dot(a) == to_dot(b)
            forest = mwsf(random_correlation(rng, a.dim))
            assert tiered_dot(forest, a, a) == tiered_dot(forest, b, b)
            assert tiered_dot(forest, b, forest) == tiered_dot(forest, a, forest)

    def test_forest_rooting_agrees(self):
        rng = np.random.default_rng(22)
        for p in (1, 2, 5, 9, 16, 40):
            for _ in range(6):
                edges = random_forest(rng, p).edges
                mask, weights = np.zeros((p, p), dtype=bool), rng.standard_normal((p, p))
                triples = []
                for i, j, _ in edges:
                    mask[i, j] = True
                    triples.append((i, j, float(weights[i, j])))
                rng.shuffle(triples)
                a, b = WeightedForest.from_mask(mask, weights), WeightedForest(p, triples)
                assert type(a) is WeightedForest
                assert a == b and hash(a) == hash(b)
                assert a.component_label == b.component_label
                assert a.order == b.order

    def test_equality_compares_like_the_tuples(self):
        g = WeightedGraph(3, ((0, 1, 0.5), (1, 2, 0.25)))
        assert g != WeightedGraph(3, ((0, 1, 0.5), (1, 2, 0.125)))
        assert g != WeightedGraph(4, ((0, 1, 0.5), (1, 2, 0.25)))
        assert g != WeightedGraph(3, ((0, 1, 0.5),))
        assert g != WeightedForest(3, g.edges)
        assert WeightedGraph(2, ((0, 1, 0.0),)) == WeightedGraph(2, ((0, 1, -0.0),))
        nan = WeightedGraph(2, ((0, 1, float("nan")),))
        assert nan == nan and nan != WeightedGraph(2, ((0, 1, float("nan")),))

    def test_immutable(self):
        g = WeightedGraph.from_mask(np.ones((3, 3), dtype=bool), np.ones((3, 3)))
        with pytest.raises(AttributeError):
            g.dim = 4
        with pytest.raises(AttributeError):
            del g.rows
        with pytest.raises(ValueError):
            g.weights[0] = 2.0
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))


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


class _ReferenceDisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _reference_mwsf(r):
    """Kruskal as one loop: positive edges sorted by (weight descending,
    pair ascending), each kept when it joins two components."""
    ranked = sorted(positive_part_graph(r).edges, key=lambda e: (-e[2], e[0], e[1]))
    ds = _ReferenceDisjointSet(r.dim)
    return WeightedForest(r.dim, tuple(e for e in ranked if ds.union(e[0], e[1])))


def _block_diagonal(rng, p):
    """Correlation blocks, isolated vertices among them, on shuffled
    vertices, with some entries negated (kept symmetric)."""
    r = np.eye(p)
    start = 0
    while start < p:
        size = min(int(rng.integers(1, 5)), p - start)
        block = slice(start, start + size)
        r[block, block] = random_correlation(rng, size, n=2 + size).values
        start += size
    flip = np.triu(rng.random((p, p)) < 0.3, 1)
    r[flip | flip.T] *= -1.0
    perm = rng.permutation(p)
    return SymMatrix(r[np.ix_(perm, perm)])


class TestMwsfMatchesKruskal:
    def _assert_same(self, r):
        got, expected = mwsf(r), _reference_mwsf(r)
        assert got.edges == expected.edges
        assert got.component_label == expected.component_label
        assert got.order == expected.order

    @pytest.mark.parametrize("step", [0.2, 0.01])
    def test_rounded_correlations_with_ties(self, step):
        rng = np.random.default_rng(17)
        tied = 0
        for p in range(1, 17):
            for _ in range(6):
                r = random_correlation(rng, p, n=int(rng.integers(2, 2 * p + 3))).values
                r = np.round(r / step) * step
                np.fill_diagonal(r, 1.0)
                positive = r[np.triu_indices(p, 1)]
                positive = positive[positive > 0.0]
                tied += len(np.unique(positive)) < len(positive)
                self._assert_same(SymMatrix(r))
        assert tied >= 48  # half of the 96 inputs have equal positive weights

    def test_block_diagonal_with_isolated_vertices(self):
        rng = np.random.default_rng(18)
        isolated = 0
        for p in range(1, 17):
            for _ in range(6):
                r = _block_diagonal(rng, p)
                labels = mwsf(r).component_label
                isolated += any(labels.count(c) == 1 for c in labels) and p > 1
                self._assert_same(r)
        assert isolated >= 48  # half of the 96 inputs have an isolated vertex

    def test_large_random_correlation(self):
        self._assert_same(random_correlation(np.random.default_rng(19), 200))


class TestForestPath:
    def test_chain(self):
        f = WeightedForest(3, ((0, 1, 0.5), (1, 2, 0.4)))
        assert f.path(0, 2) == [0, 1, 2]
        assert f.path(2, 0) == [2, 1, 0]
        assert f.path(1, 1) == [1]

    def test_across_components(self):
        f = WeightedForest(4, ((0, 1, 0.5),))
        assert f.path(0, 2) is None

    def test_carcass_end_to_end(self, carcass):
        assert mwsf(carcass).path(0, 5) == [0, 2, 4, 1, 3, 5]

    def test_walk_is_parent_first(self):
        f = WeightedForest(5, ((0, 1, 0.5), (1, 2, 0.4), (1, 3, 0.3)))
        assert isinstance(f, WeightedGraph)
        seen = {2}
        for u, v in f.walk(2):
            assert u in seen and v not in seen
            seen.add(v)
        assert seen == {0, 1, 2, 3}
        assert list(f.walk(4)) == []


def random_forest(rng, p: int) -> WeightedForest:
    """Several trees and isolated vertices, on shuffled vertex numbers."""
    perm = rng.permutation(p)
    edges = []
    for v in range(1, p):
        if rng.random() < 0.6:
            a, b = perm[int(rng.integers(v))], perm[v]
            edges.append((int(min(a, b)), int(max(a, b)), 1.0))
    return WeightedForest(p, tuple(edges))


def dsu_labels(p: int, edges) -> tuple[int, ...]:
    """Union-find components, numbered by smallest member, ascending."""
    parent = list(range(p))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j, _ in edges:
        parent[find(i)] = find(j)
    smallest = {}
    for v in range(p):
        smallest.setdefault(find(v), v)
    rank = {m: k for k, m in enumerate(sorted(smallest.values()))}
    return tuple(rank[smallest[find(v)]] for v in range(p))


class TestRootedForest:
    def test_labels_and_order_match_dsu_rule(self):
        rng = np.random.default_rng(14)
        for p in (1, 2, 5, 9, 16):
            for _ in range(10):
                f = random_forest(rng, p)
                assert f.component_label == dsu_labels(p, f.edges)
                assert sorted((min(e), max(e)) for e in f.order) == sorted(f.edge_pairs())
                reached = set()
                for u, v in f.order:
                    # a child's parent is its tree's root or an earlier child
                    root = f.component_label.index(f.component_label[u])
                    assert u in reached or u == root
                    assert v not in reached and v != root
                    reached.add(v)
                labels = [f.component_label[u] for u, _ in f.order]
                assert labels == sorted(labels)

    def test_fold_paths_matches_path_loop(self):
        rng = np.random.default_rng(15)
        for p in (1, 2, 6, 12, 25):
            for _ in range(8):
                f = random_forest(rng, p)
                r = np.abs(random_correlation(rng, p).values)
                np.fill_diagonal(r, 1.0)
                m = SymMatrix(r)
                low, prod = np.eye(p), np.eye(p)
                for i in range(p):
                    for j in range(i + 1, p):
                        path = f.path(i, j)
                        if path is None:
                            continue
                        steps = [r[a, b] for a, b in zip(path, path[1:])]
                        low[i, j] = low[j, i] = min(steps)
                        prod[i, j] = prod[j, i] = np.prod(steps)
                assert np.array_equal(fold_paths(m, f, np.minimum).values, low)
                assert np.allclose(fold_paths(m, f, np.multiply).values, prod, rtol=1e-14, atol=0)


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

    def test_label_escapes(self):
        text = to_dot(WeightedGraph(2, ((0, 1, 0.25),)), labels=("C:\\tmp", 'say "hi"'))
        assert '  "C:\\\\tmp";\n' in text
        assert '  "C:\\\\tmp" -- "say \\"hi\\"" [weight="0.250000"];' in text

    def test_style_follows_edge_order(self):
        g = WeightedGraph(3, ((1, 2, 0.5), (0, 1, -0.125)))
        text = to_dot(g, style=[", color=red", ""])
        assert text == (
            'graph G {\n  "0";\n  "1";\n  "2";\n'
            '  "0" -- "1" [weight="-0.125000", color=red];\n'
            '  "1" -- "2" [weight="0.500000"];\n}\n'
        )


class TestGraphEdgeCases:
    def test_forest_path_validates_vertices(self):
        f = WeightedForest(2, ((0, 1, 0.5),))
        with pytest.raises(ValueError):
            f.path(0, 5)

    def test_to_dot_label_count_checked(self):
        with pytest.raises(ValueError):
            to_dot(WeightedGraph(3, ()), labels=("a", "b"))

    def test_to_dot_style_count_checked(self):
        with pytest.raises(ValueError):
            to_dot(WeightedGraph(3, ((0, 1, 0.5), (1, 2, 0.5))), style=[""])
