import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

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
from totpos.matcore import require_unit_diagonal
from totpos.ultra import ULTRA_TOL, UltrametricReport, max_product_closure
from conftest import (
    CARCASS_ML_EDGES,
    LINKAGE_R,
    LINKAGE_Z,
    brute_bottleneck,
    brute_max_product,
    random_correlation,
    random_pd,
)


def _reference_w_matrix(r: SymMatrix) -> np.ndarray:
    """The max-product closure as all-pairs shortest paths on -log R_ij over
    the positive-part graph, by Dijkstra from each source."""
    require_unit_diagonal(r)
    p = r.dim
    vals = r.values
    off = ~np.eye(p, dtype=bool)
    if p > 1 and vals[off].max() >= 1.0:
        raise ValueError("off-diagonal entries must be < 1 to define path products")
    rows, cols = np.where((vals > 0.0) & off)
    lengths = csr_matrix((-np.log(vals[rows, cols]), (rows, cols)), shape=(p, p))
    dist = dijkstra(lengths, directed=False)
    dist = np.minimum(dist, dist.T)
    out = np.where(np.isinf(dist), 0.0, np.exp(-dist))
    np.fill_diagonal(out, 1.0)
    return out


def _reference_is_ultrametric(u: SymMatrix) -> UltrametricReport:
    """The triple scan alone: the worst of min(U_ik, U_jk) - U_ij over all
    i, j, k, the triples with i == j giving the diagonal condition."""
    vals = u.values
    worst_mag, worst = -np.inf, None
    for k in range(u.dim):
        col = vals[:, k]
        gap = np.minimum(col[:, None], col[None, :]) - vals
        idx = int(gap.argmax())
        if gap.flat[idx] > worst_mag:
            worst_mag = float(gap.flat[idx])
            i, j = np.unravel_index(idx, gap.shape)
            worst = (int(i), int(j), k, worst_mag)
    if worst_mag > ULTRA_TOL:
        return UltrametricReport(False, worst)
    return UltrametricReport(True, None)


def _components_input(rng) -> SymMatrix:
    """Two random correlation blocks and an isolated vertex, with negative
    entries inside the blocks."""
    return SymMatrix(block_diag(random_correlation(rng, 5).values, [[1.0]],
                                random_correlation(rng, 4).values))


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


class TestWClosureKernel:
    """``w_matrix`` is Floyd-Warshall over (max, x); shortest paths on
    -log R by Dijkstra are the reference."""

    @pytest.mark.parametrize("p", [1, 2, 200])
    def test_matches_dijkstra(self, p):
        rng = np.random.default_rng(200 + p)
        for r in [random_correlation(rng, p, n=2 * p + 2) for _ in range(3 if p < 200 else 1)]:
            w = w_matrix(r).values
            ref = _reference_w_matrix(r)
            assert np.all(np.abs(w - ref) <= 1e-14 * ref)

    def test_matches_dijkstra_across_components(self):
        rng = np.random.default_rng(210)
        for _ in range(5):
            r = _components_input(rng)
            assert r.values.min() < 0.0
            w = w_matrix(r).values
            ref = _reference_w_matrix(r)
            assert np.array_equal(w == 0.0, ref == 0.0)
            assert np.all(np.abs(w - ref) <= 1e-14 * ref)

    def test_exact_on_forest_edges(self):
        rng = np.random.default_rng(211)
        inputs = [random_correlation(rng, p, n=n) for p, n in ((6, 2), (12, 24), (40, 80))]
        for r in inputs + [_components_input(rng)]:
            w = w_matrix(r).values
            for i, j, weight in mwsf(r).edges:
                assert w[i, j] == weight == w[j, i]

    def test_stack_equals_members(self):
        rng = np.random.default_rng(212)
        stack = np.array([random_correlation(rng, 7, n=n).values for n in (2, 3, 9, 14, 30)])
        out = max_product_closure(stack)
        assert out.shape == stack.shape
        for member, w in zip(stack, out):
            assert np.array_equal(w, w_matrix(SymMatrix(member)).values)

    @pytest.mark.parametrize("value", [1.0, 1.5])
    def test_entry_at_one_raises_like_the_reference(self, value):
        r = np.eye(3)
        r[0, 2] = r[2, 0] = value
        r[0, 1] = r[1, 0] = -0.2
        for closure in (w_matrix, _reference_w_matrix):
            with pytest.raises(ValueError, match="off-diagonal entries must be < 1"):
                closure(SymMatrix(r))


class TestUltrametricShortcut:
    """The closure test decides the passing inputs; every verdict and worst
    triple equals the triple scan's."""

    def _inputs(self):
        rng = np.random.default_rng(220)
        zs = [single_linkage(random_correlation(rng, p)).values for p in (1, 2, 6, 9)]
        noise = rng.uniform(-5e-13, 5e-13, (6, 6))
        within = zs[2] + (noise + noise.T) / 2
        np.fill_diagonal(within, 1.0)
        violated = np.abs(random_correlation(rng, 6).values)
        blocks = block_diag(zs[2], zs[3])
        scaled = 2.0 * zs[3]
        low_diagonal = zs[2].copy()
        np.fill_diagonal(low_diagonal, 0.0)
        np.fill_diagonal(low_diagonal, low_diagonal.max() / 2)
        raised = zs[2].copy()
        raised[0, 3] = raised[3, 0] = raised[0, 3] + 1e-9  # breaks one triple
        return [*zs, within, blocks, scaled, violated, 2.0 * violated, low_diagonal, raised]

    def test_matches_triple_scan(self):
        verdicts = []
        for vals in self._inputs():
            u = SymMatrix(vals)
            report = is_ultrametric(u)
            assert report == _reference_is_ultrametric(u)
            verdicts.append(report.is_ultrametric)
        assert verdicts == [True] * 7 + [False] * 4

    def test_forest_of_r_serves_its_linkage_matrix(self):
        rng = np.random.default_rng(221)
        for r in [random_correlation(rng, 8), _components_input(rng), random_correlation(rng, 30)]:
            forest = mwsf(r)
            z = single_linkage(r)
            report = is_ultrametric(z, forest)
            assert report == is_ultrametric(z) == UltrametricReport(True, None)
            # halving a pair off the forest keeps it a maximum weight forest
            lowered = z.values.copy()
            off_forest = np.triu(lowered > 0.0, 1)
            for a, b in forest.edge_pairs():
                off_forest[a, b] = False
            i, j = np.argwhere(off_forest)[0]
            lowered[i, j] = lowered[j, i] = lowered[i, j] * 0.5
            broken = SymMatrix(lowered)
            report = is_ultrametric(broken, forest)
            assert not report.is_ultrametric
            assert report == _reference_is_ultrametric(broken)


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
