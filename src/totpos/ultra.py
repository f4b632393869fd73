"""Ultrametric and path-product constructions on correlation matrices.

Two matrix closures of the positive-correlation graph drive the structural
analysis: the single-linkage matrix (best bottleneck weight over connecting
paths), folded along the spanning forest, and the max-product matrix (best
product of edge weights), by Floyd-Warshall over the (max, x) semiring on a
stack of matrices at once; the latter reproduces R bit for bit on every
spanning-forest edge, where no longer path can win.  The
single-linkage matrix is ultrametric, dominates the input, and when all
off-diagonal entries are below one it is invertible with an M-matrix
inverse, which makes it a ready-made dual-feasible point for the solver.
One rule, ``grw_mask`` (``grw_graph`` as a graph), reads off the pairs that
attain their max-product entry.  At GRW_TOL it gives the equality graph of
the block closed form; at EC_SLACK it gives the upper bound G+ on the graph
of the MLE, and the solver's precision sweep visits only those pairs.  The excess-correlation
graph is the same kind of mask against the forest path products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def is_ultrametric(u: SymMatrix, forest: WeightedForest | None = None) -> UltrametricReport:
    """Check U_ii >= U_ij and U_ij >= min(U_ik, U_jk) over all triples,
    within ULTRA_TOL.

    U passes every triple with i != j when it dominates its own max-min
    closure off the diagonal, since that closure is at least
    min(U_ik, U_jk) for every k; the closure is one ``fold_paths`` over a
    maximum weight spanning forest of U, exact because min and max round
    nothing.  ``forest`` is such a forest when the caller has one (the
    forest of R is one for its single-linkage matrix), else ``mwsf(U)``.
    Only when that test or the diagonal condition fails does the O(p^3)
    triple scan run, to name the worst triple.

    Raises NegativeEntry when some entry is below -ULTRA_TOL.
    """
    vals = u.values
    p = u.dim
    if vals.min() < -ULTRA_TOL:
        i, j = np.unravel_index(int(vals.argmin()), vals.shape)
        raise NegativeEntry(int(i), int(j), float(vals[i, j]))
    # the closure reads only the forest's off-diagonal entries
    unit = u
    if not np.all(vals.diagonal() == 1.0):
        unit = vals.copy()
        np.fill_diagonal(unit, 1.0)
        unit = SymMatrix(unit)
    closure = fold_paths(unit, mwsf(unit) if forest is None else forest, np.minimum).values
    excess = closure - vals
    np.fill_diagonal(excess, -np.inf)
    if excess.max() <= ULTRA_TOL and (vals - vals.diagonal()[:, None]).max() <= ULTRA_TOL:
        return UltrametricReport(True, None)
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


def max_product_closure(vals: np.ndarray) -> np.ndarray:
    """Best product of positive entries along a path, for every pair of
    vertices of every matrix in a stack of shape (..., p, p).

    Floyd-Warshall over the (max, x) semiring on the positive part, with
    one broadcast update of the whole stack per pivot vertex, through one
    reused buffer.  Entries off the diagonal must lie below one (not
    checked here).  A product of factors below one rounds to at most each
    factor, so an entry that no path beats, as on every spanning-forest
    edge, comes back bit for bit.  Zero across components, one on the
    diagonal.
    """
    p = vals.shape[-1]
    w = np.maximum(vals, 0.0)
    w[..., range(p), range(p)] = 1.0
    buf = np.empty_like(w)
    for k in range(p):
        np.multiply(w[..., :, k, None], w[..., None, k, :], out=buf)
        np.maximum(w, buf, out=w)
    return w


def w_matrix(r: SymMatrix) -> SymMatrix:
    """Best product of edge weights between every pair of vertices.

    The stack-of-one case of ``max_product_closure``, so it equals R on
    every spanning-forest edge.  Requires off-diagonal entries strictly
    below one, the products then decreasing along every path.  Zero across
    components, one on the diagonal.
    """
    require_unit_diagonal(r)
    p = r.dim
    vals = r.values
    off = ~np.eye(p, dtype=bool)
    if p > 1 and vals[off].max() >= 1.0:
        raise ValueError("off-diagonal entries must be < 1 to define path products")
    return SymMatrix(max_product_closure(vals), labels=r.labels)


def grw_mask(r: np.ndarray, w: np.ndarray, tol: float) -> np.ndarray:
    """``grw_graph`` of every member of a stack (..., p, p) of correlations
    with their closures W, as a mask with the diagonal."""
    return (w > 0.0) & (np.abs(r - w) <= tol)


def grw_graph(r: SymMatrix, w: SymMatrix, tol: float = GRW_TOL) -> WeightedGraph:
    """Pairs whose correlation equals its best path product, within tol.

    ``w`` is the path-product matrix ``w_matrix(r)``.  Pairs in different
    components (where the closure is exactly zero) never count as
    equalities: a zero there reflects disconnection, and estimation
    decomposes over components anyway.
    """
    if r.dim != w.dim:
        raise ValueError("dimension mismatch")
    return WeightedGraph.from_mask(grw_mask(r.values, w.values, tol), r.values)


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
