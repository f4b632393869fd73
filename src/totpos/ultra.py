"""Ultrametric and path-product constructions on correlation matrices.

Two matrix closures of the positive-correlation graph drive the structural
analysis: the single-linkage matrix (best bottleneck weight over connecting
paths) and the max-product matrix (best product of edge weights).  The
single-linkage matrix is ultrametric, dominates the input, and when all
off-diagonal entries are below one it is invertible with an M-matrix
inverse, which makes it a ready-made dual-feasible point for the solver.
One rule, ``grw_graph``, reads off the pairs that attain their max-product
entry.  At GRW_TOL it gives the equality graph of the block closed form; at
EC_SLACK it gives the upper bound G+ on the graph of the MLE, and the
solver's precision sweep visits only those pairs.  The excess-correlation
graph is the same kind of mask against the forest path products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graphs import WeightedForest, WeightedGraph, fold_paths, mwsf, tree_mle
from .matcore import SymMatrix, require_unit_diagonal

# Slack used when comparing a correlation against a path product, so exact
# equality on forest edges always counts.
EC_SLACK = 1e-12

# Default equality tolerance, on correlation scale, for deciding that an
# entry is exactly explained by its best path product.
GRW_TOL = 1e-9

# Tolerance of the ultrametric inequalities and of the nonnegativity check.
ULTRA_TOL = 1e-12


class NegativeEntry(ValueError):
    """An entry required to be nonnegative is negative."""

    def __init__(self, i: int, j: int, value: float):
        self.indices = (i, j)
        self.value = value
        super().__init__(f"entry ({i}, {j}) = {value} is negative")


@dataclass(frozen=True)
class UltrametricReport:
    """Outcome of the ultrametric check.

    ``worst_violation`` is (i, j, k, magnitude) for the worst triple when the
    check fails, None when it passes.  A violation of the diagonal-dominance
    condition U_ii >= U_ik surfaces as a triple with i == j.
    """

    is_ultrametric: bool
    worst_violation: tuple[int, int, int, float] | None


def single_linkage(r: SymMatrix) -> SymMatrix:
    """Best bottleneck weight between every pair of vertices.

    Entry (i, j) is the maximum over connecting paths in the positive-part
    graph of the minimum edge weight.  It is the minimum fold along the
    unique path in the maximum weight spanning forest (the two coincide),
    one ``fold_paths`` pass.  Zero across components, one on the diagonal.
    """
    return fold_paths(r, mwsf(r), np.minimum)


def is_ultrametric(u: SymMatrix) -> UltrametricReport:
    """Check U_ii >= U_ij and U_ij >= min(U_ik, U_jk) over all triples,
    within ULTRA_TOL.

    Raises NegativeEntry when some entry is below -ULTRA_TOL.
    """
    vals = u.values
    p = u.dim
    if vals.min() < -ULTRA_TOL:
        i, j = np.unravel_index(int(vals.argmin()), vals.shape)
        raise NegativeEntry(int(i), int(j), float(vals[i, j]))
    worst_mag = -np.inf
    worst = None
    # k == i covers the diagonal condition: U_ii >= min(U_ii, U_ij) forces
    # nothing, but the triple (i, i, j) reads U_ii >= U_ij.
    for k in range(p):
        col = vals[:, k]
        floor = np.minimum(col[:, None], col[None, :])
        gap = floor - vals
        idx = int(gap.argmax())
        mag = float(gap.flat[idx])
        if mag > worst_mag:
            worst_mag = mag
            i, j = np.unravel_index(idx, gap.shape)
            worst = (int(i), int(j), k, mag)
    if worst_mag > ULTRA_TOL:
        return UltrametricReport(False, worst)
    return UltrametricReport(True, None)


def w_matrix(r: SymMatrix) -> SymMatrix:
    """Best product of edge weights between every pair of vertices.

    Computed as all-pairs shortest paths on edge lengths -log(R_ij) over the
    positive-part graph (Dijkstra from each source).  Requires off-diagonal
    entries strictly below one so that all lengths are positive.  Zero across
    components, one on the diagonal.
    """
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
    return SymMatrix(out, labels=r.labels)


def grw_graph(r: SymMatrix, w: SymMatrix, tol: float = GRW_TOL) -> WeightedGraph:
    """Pairs whose correlation equals its best path product, within tol.

    ``w`` is the path-product matrix ``w_matrix(r)``.  Pairs in different
    components (where the closure is exactly zero) never count as
    equalities: a zero there reflects disconnection, and estimation
    decomposes over components anyway.
    """
    if r.dim != w.dim:
        raise ValueError("dimension mismatch")
    vals, wv = r.values, w.values
    return WeightedGraph.from_mask((wv > 0.0) & (np.abs(vals - wv) <= tol), vals)


def ml_graph_upper_bound(r: SymMatrix) -> WeightedGraph:
    """Envelope graph G+ that must contain the graph of the MLE.

    The equality graph at EC_SLACK: a pair is kept when its correlation
    attains its best path product W_ij.  The paper proves that the ML graph
    lies inside this set, so the fitted precision is exactly zero on every
    other pair; the precision sweep visits only these pairs.  The
    excess-correlation condition of ``ec_graph`` needs no separate test: the
    forest path product is one of the products W_ij maximizes over, so
    r_ij >= W_ij implies it.
    """
    return grw_graph(r, w_matrix(r), EC_SLACK)


def ec_graph(r: SymMatrix, forest: WeightedForest) -> WeightedGraph:
    """Pairs whose correlation meets or exceeds their forest path product.

    ``forest`` is the maximum weight spanning forest of R.  Restricted to
    pairs in the same component; forest edges are always included (their
    path product is the entry itself).
    """
    comp = np.asarray(forest.component_label)
    same = comp[:, None] == comp[None, :]
    return WeightedGraph.from_mask(
        same & (r.values >= tree_mle(r, forest).values - EC_SLACK), r.values
    )
