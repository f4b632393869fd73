"""Ultrametric and path-product constructions on correlation matrices.

Two matrix closures of the positive-correlation graph drive the structural
analysis: the single-linkage matrix (best bottleneck weight over connecting
paths) and the max-product matrix (best product of edge weights).  The
single-linkage matrix is ultrametric, dominates the input, and when all
off-diagonal entries are below one it is invertible with an M-matrix
inverse, which makes it a ready-made dual-feasible point for the solver.
The pairs that attain their max-product entry bound the graph of the MLE
from the outside; the solver's precision sweep visits only those pairs.
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
    graph of the minimum edge weight, computed along the unique path in the
    maximum weight spanning forest (the two coincide).  Zero across
    components, one on the diagonal.
    """
    return fold_paths(r, mwsf(r), min, np.inf)


def is_ultrametric(u: SymMatrix, tol: float = 1e-12) -> UltrametricReport:
    """Check U_ii >= U_ij and U_ij >= min(U_ik, U_jk) over all triples.

    Raises NegativeEntry when some entry is below -tol.
    """
    vals = u.values
    p = u.dim
    if vals.min() < -tol:
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
    if worst_mag > tol:
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


def ml_graph_upper_bound(r: SymMatrix) -> WeightedGraph:
    """Envelope graph G+ that must contain the graph of the MLE.

    Keeps a pair when its correlation is positive and attains its best path
    product W_ij (within EC_SLACK).  The paper proves that the ML graph lies
    inside this set, so the fitted precision is exactly zero on every other
    pair; the precision sweep visits only these pairs.  The
    excess-correlation condition of ``ec_graph`` needs no separate test: the
    forest path product is one of the products W_ij maximizes over, so
    r_ij >= W_ij implies it.
    """
    vals = r.values
    keep = np.triu((vals > 0.0) & (vals >= w_matrix(r).values - EC_SLACK), 1)
    edges = [(int(i), int(j), float(vals[i, j])) for i, j in zip(*np.nonzero(keep))]
    return WeightedGraph(r.dim, tuple(edges))


def ec_graph(r: SymMatrix, forest: WeightedForest) -> WeightedGraph:
    """Pairs whose correlation meets or exceeds their forest path product.

    ``forest`` is the maximum weight spanning forest of R.  Restricted to
    pairs in the same component; forest edges are always included (their
    path product is the entry itself).
    """
    tree_fit = tree_mle(r, forest).values
    vals = r.values
    comp = forest.component_label
    edges = [
        (i, j, float(vals[i, j]))
        for i in range(r.dim)
        for j in range(i + 1, r.dim)
        if comp[i] == comp[j] and vals[i, j] >= tree_fit[i, j] - EC_SLACK
    ]
    return WeightedGraph(r.dim, tuple(edges))

