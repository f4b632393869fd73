import dataclasses
import importlib.util
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from totpos import (
    FitConfig,
    InputNotMMatrix,
    MaxSweepsExceeded,
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
    to_correlation,
    tiered_dot,
    tree_mle,
    w_matrix,
)
from totpos.structure import BlockReport, _biconnected_components
from totpos.ultra import EC_SLACK, GRW_TOL
from conftest import (
    CARCASS_ML_EDGES,
    LINKAGE_R,
    PATH_PRODUCT_NOT_INV_M,
    UNBALANCED_R,
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

    @staticmethod
    def _loop_references(r, res):
        """The derived graphs of ``r`` written as pair loops: the formulas
        of the per-graph loops that ``WeightedGraph.from_mask`` replaced."""
        p, vals = r.dim, r.values
        forest = mwsf(r)
        comp, tree_fit = forest.component_label, tree_mle(r, forest).values
        w = w_matrix(r).values
        k = res.k_hat.values
        cutoff = FitConfig().edge_threshold * float(k.diagonal().max())
        ec, grw, envelope, ml = [], [], [], []
        for i in range(p):
            for j in range(i + 1, p):
                if comp[i] == comp[j] and vals[i, j] >= tree_fit[i, j] - EC_SLACK:
                    ec.append((i, j, float(vals[i, j])))
                    # G+ as first defined: the excess-correlation graph, cut
                    # down to the positive pairs that attain their path product
                    if vals[i, j] > 0.0 and vals[i, j] >= w[i, j] - EC_SLACK:
                        envelope.append((i, j, float(vals[i, j])))
                if w[i, j] > 0.0 and abs(vals[i, j] - w[i, j]) <= GRW_TOL:
                    grw.append((i, j, float(vals[i, j])))
                if abs(k[i, j]) > cutoff:
                    ml.append((i, j, abs(float(k[i, j]))))
        return tuple(ec), tuple(grw), tuple(envelope), tuple(ml)

    def test_matches_ec_and_path_product_rule(self, carcass, linkage4):
        rng = np.random.default_rng(42)
        inputs = [carcass, linkage4, SymMatrix(UNBALANCED_R)]
        inputs += [random_correlation(rng, p, n=2) for p in (6, 12, 20)]
        inputs += [random_correlation(rng, p, n=2 * p) for p in (6, 12, 20)]
        # mixed signs: about half the entries of a random correlation are negative
        inputs += [random_correlation(rng, 8, n=3) for _ in range(4)]
        # a non-forest entry 1e-10 below its path product: an equality at
        # GRW_TOL, not at EC_SLACK
        base = random_correlation(rng, 6)
        forest = mwsf(base)
        u, v = next(pair for pair in combinations(range(6), 2) if pair not in forest.edge_pairs())
        vals = tree_mle(base, forest).values.copy()
        vals[u, v] = vals[v, u] = vals[u, v] - 1e-10
        near = SymMatrix(vals)
        inputs.append(near)
        several = []
        for _ in range(4):
            a, b = random_correlation(rng, 4).values, random_correlation(rng, 3, n=2).values
            m = np.eye(7)
            m[:4, :4], m[4:, 4:] = a, b
            m[:4, 4:] = -rng.uniform(0.0, 0.3, size=(4, 3))
            m[4:, :4] = m[:4, 4:].T
            several.append(SymMatrix(m))
        several.append(SymMatrix(np.eye(5)))
        for r in several:
            assert len(set(mwsf(r).component_label)) > 1
        for r in inputs + several:
            try:
                res = fit(r, FitConfig(algorithm="k"))
            except MaxSweepsExceeded as exc:
                res = exc.result
            ec, grw, envelope, ml = self._loop_references(r, res)
            w = w_matrix(r)
            assert ec_graph(r, mwsf(r)).edges == ec
            assert grw_graph(r, w).edges == grw
            assert grw_graph(r, w, EC_SLACK).edges == envelope
            assert ml_graph_upper_bound(r).edges == envelope
            assert res.ml_graph.edges == ml
        assert (u, v) in grw_graph(near, w_matrix(near)).edge_pairs()
        assert (u, v) not in ml_graph_upper_bound(near).edge_pairs()

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
            graph = WeightedGraph(p, tuple((i, j, 1.0) for i, j in pairs))
            got = set(_biconnected_components(graph))
            want = brute_biconnected(p, pairs)
            assert got == want, (p, sorted(pairs))


def _reference_biconnected_components(adj) -> list[frozenset[int]]:
    """Vertex sets of the biconnected components (iterative lowpoint DFS),
    in the order a block completes.

    ``adj`` lists each vertex's neighbours, as ``WeightedGraph.neighbors``.
    """
    dim = len(adj)
    disc = [0] * dim  # 0 means unvisited
    low = [0] * dim
    comps: list[frozenset[int]] = []
    timer = 1
    for root in range(dim):
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # (vertex, parent, next child slot)
        estack: list[tuple[int, int]] = []
        while stack:
            v, parent, ptr = stack[-1]
            if ptr < len(adj[v]):
                stack[-1] = (v, parent, ptr + 1)
                w = adj[v][ptr]
                if w == parent:
                    continue
                if not disc[w]:
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, 0))
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                comp: set[int] = set()
                while estack and estack[-1] != (u, v):
                    a, b = estack.pop()
                    comp.update((a, b))
                if estack:
                    a, b = estack.pop()
                    comp.update((a, b))
                if comp:
                    comps.append(frozenset(comp))
    return comps


def _reference_block_report(graph) -> BlockReport:
    """Block report over the lowpoint DFS, completeness by pair lookup."""
    comps = _reference_biconnected_components(graph.neighbors)
    covered = set().union(*comps) if comps else set()
    blocks = comps + [frozenset({v}) for v in range(graph.dim) if v not in covered]
    blocks.sort(key=min)
    pair_set = graph.edge_pairs()
    offending = None
    for comp in blocks:
        if not all(pair in pair_set for pair in combinations(sorted(comp), 2)):
            offending = comp
            break
    return BlockReport(offending is None, tuple(blocks), offending)


def _relabeled(rng, p, pairs):
    """Graph on ``pairs`` with its vertices shuffled."""
    perm = rng.permutation(p).tolist()
    edges = {(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in pairs}
    return WeightedGraph(p, tuple((i, j, 1.0) for i, j in edges))


def _tree_with_chords(rng, p):
    pairs = {(int(rng.integers(v)), v) for v in range(1, p)}
    for _ in range(int(rng.integers(0, 4))):
        i, j = sorted(rng.choice(p, size=2, replace=False).tolist())
        pairs.add((i, j))
    return _relabeled(rng, p, pairs)


def _clique_chain(rng, p):
    """Cliques glued at cut vertices: each new clique shares one vertex with
    the graph so far, so several cliques can meet at one vertex."""
    pairs, size = set(), 1
    while size < p:
        k = min(int(rng.integers(1, 5)), p - size)
        members = [int(rng.integers(size))] + list(range(size, size + k))
        pairs.update(combinations(members, 2))
        size += k
    return _relabeled(rng, p, pairs)


def _components(rng, p):
    """Random graphs on three vertex ranges, with isolated vertices left."""
    cuts = np.sort(rng.choice(np.arange(1, p), size=2, replace=False)).tolist()
    pairs = set()
    for lo, hi in zip([0, *cuts], [*cuts, p]):
        density = rng.uniform(0.1, 0.8)
        pairs.update((i, j) for i in range(lo, hi) for j in range(i + 1, hi)
                     if rng.random() < density)
    return _relabeled(rng, p, pairs)


def _random_graph(rng, p):
    density = rng.uniform(0.0, 0.7)
    return _relabeled(rng, p, {(i, j) for i, j in combinations(range(p), 2)
                               if rng.random() < density})


def _load_parity_tool():
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_parity.py"
    spec = importlib.util.spec_from_file_location("cli_parity", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBlockDecompositionMatchesTarjan:
    """The DFS-order decomposition against the lowpoint DFS it replaced:
    equal blocks, in equal order, and equal block reports."""

    @staticmethod
    def _assert_same(graph):
        got = _biconnected_components(graph)
        want = _reference_biconnected_components(graph.neighbors)
        assert set(got) == set(want)
        assert got == want
        assert is_block_graph(graph) == _reference_block_report(graph)

    @pytest.mark.parametrize("family", [_tree_with_chords, _clique_chain, _components, _random_graph])
    def test_seeded_graphs(self, family):
        rng = np.random.default_rng([19, len(family.__name__)])
        for p in range(3, 19):
            for _ in range(12):
                self._assert_same(family(rng, p))

    def test_small_and_empty_graphs(self):
        for p in range(4):
            self._assert_same(WeightedGraph(p, ()))
        self._assert_same(WeightedGraph(2, ((0, 1, 1.0),)))
        self._assert_same(WeightedGraph(5, ((1, 3, 1.0),)))

    def test_block_order_breaks_ties_by_finishing(self):
        # {1, 2} and {1, 3} share their smallest vertex; the DFS from 0 runs
        # 0, 3, 1, 2 and finishes the block headed at 2 before the one at 1
        g = WeightedGraph(4, ((0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
        assert is_block_graph(g).blocks == (
            frozenset({0, 3}), frozenset({1, 2}), frozenset({1, 3})
        )
        self._assert_same(g)

    def test_parity_tool_large_inputs(self):
        tool = _load_parity_tool()
        for p in tool.LARGE_DIMS:
            for seed in tool.LARGE_SEEDS:
                r, _ = to_correlation(SymMatrix(tool.sample_covariance(p, 2 * p, seed)))
                w = w_matrix(r)
                self._assert_same(grw_graph(r, w))
                self._assert_same(grw_graph(r, w, EC_SLACK))


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

    def test_missing_edges_match_pair_loop(self):
        rng = np.random.default_rng(48)
        for p in (2, 5, 8):
            for _ in range(5):
                r = random_correlation(rng, p)
                res = fit(r)
                # a fitted graph cut down at random, so that forest edges go missing
                kept = res.ml_graph.edges[::2]
                res = dataclasses.replace(res, ml_graph=WeightedGraph(p, kept))
                fitted = {(i, j) for i, j, _ in kept}
                want = [(i, j) for i, j, _ in mwsf(r).edges if (i, j) not in fitted]
                assert mwsf_containment(r, res) == (not want, want)

    def test_two_variable_positive(self):
        r = SymMatrix(np.array([[1.0, 0.4], [0.4, 1.0]]))
        contains, missing = mwsf_containment(r, fit(r))
        assert contains and missing == []

    @staticmethod
    def _two_observations(rng, p):
        """Sample covariance of two draws from a Gaussian whose precision is
        a sparse M-matrix (about three neighbours per vertex)."""
        mask = np.triu(rng.random((p, p)) < 3.0 / p, 1)
        a = np.where(mask, rng.uniform(0.2, 1.0, (p, p)), 0.0)
        a = a + a.T
        k = np.diag(a.sum(axis=1) + rng.uniform(1.0, 2.0, p)) - a
        x = rng.standard_normal((2, p)) @ np.linalg.cholesky(np.linalg.inv(k)).T
        return SymMatrix(x.T @ x / 2)

    def test_ill_conditioned_two_observation_fits(self):
        # K_ii spans orders of magnitude at n = 2; edges are read off on the
        # partial-correlation scale, so none of the forest is cut away
        for p in (6, 8, 10, 12, 16, 20):
            rng = np.random.default_rng([p, 2, 7])
            for _ in range(20):
                s = self._two_observations(rng, p)
                res = fit(s, FitConfig(algorithm="k"))
                contains, missing = mwsf_containment(to_correlation(s)[0], res)
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

    def test_keeps_exactly_the_graph_entries(self):
        rng = np.random.default_rng(47)
        for p in (1, 3, 6, 9):
            k = random_m_matrix(rng, p)
            g = WeightedGraph.from_mask(rng.random((p, p)) < 0.4, np.ones((p, p)))
            want = np.diag(k.values.diagonal())
            for i, j in g.edge_pairs():
                want[i, j], want[j, i] = k.values[i, j], k.values[j, i]
            assert np.array_equal(threshold_k(k, g).values, want)

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

    def test_matches_pair_loop_on_fit(self, carcass):
        res = fit(carcass)
        forest = mwsf(carcass)
        args = (forest, res.ml_graph, ec_graph(carcass, forest))
        for labels in (carcass.labels, None):
            assert tiered_dot(*args, labels=labels) == _reference_tiered_dot(*args, labels=labels)

    def test_matches_pair_loop_at_scale(self):
        # the analyze payload at p = 200: about 18k edges over three graphs
        r = random_correlation(np.random.default_rng(17), 200, n=400)
        forest = mwsf(r)
        args = (forest, grw_graph(r, w_matrix(r), GRW_TOL), ec_graph(r, forest))
        labels = tuple(f'v"{i}\\' for i in range(200))
        assert tiered_dot(*args, labels=labels) == _reference_tiered_dot(*args, labels=labels)

    def test_weight_and_tier_precedence(self):
        # three graphs that share pairs but disagree on weights
        rng = np.random.default_rng(18)
        for p in (1, 2, 5, 9):
            forest = mwsf(random_correlation(rng, p))
            middle, envelope = (
                WeightedGraph.from_mask(rng.random((p, p)) < 0.5, rng.standard_normal((p, p)))
                for _ in range(2)
            )
            assert tiered_dot(forest, middle, envelope) == _reference_tiered_dot(
                forest, middle, envelope
            )


def _reference_tiered_dot(forest, middle, envelope, labels=None) -> str:
    """Tiered DOT export as one loop over the union of the pairs."""
    forest_pairs = forest.edge_pairs()
    middle_pairs = middle.edge_pairs()
    weight = {(i, j): w for i, j, w in middle.edges}
    weight.update({(i, j): w for i, j, w in envelope.edges})
    weight.update({(i, j): w for i, j, w in forest.edges})
    names = [
        str(x).replace("\\", "\\\\").replace('"', '\\"')
        for x in (labels if labels is not None else range(forest.dim))
    ]
    lines = ["graph G {"]
    lines.extend(f'  "{name}";' for name in names)
    for (i, j), w in sorted(weight.items()):
        if (i, j) in forest_pairs:
            extra = ", color=red, penwidth=2.5"
        elif (i, j) in middle_pairs:
            extra = ", color=blue"
        else:
            extra = ", color=gray, penwidth=0.5"
        lines.append(f'  "{names[i]}" -- "{names[j]}" [weight="{w:.6f}"{extra}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
