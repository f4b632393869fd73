"""Structural analysis of the fitted precision graph.

Detects block graphs, evaluates the closed-form solution available on
them, checks spanning-forest containment, and thresholds M-matrices onto a
graph without losing positive definiteness.  The equality graph it reads,
``grw_graph`` (pairs that attain their best path product), lives in
``ultra`` beside the path products, with the same rule at EC_SLACK as the
envelope ``ml_graph_upper_bound`` that screens the solver's precision sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

from .graphs import WeightedForest, WeightedGraph, dot_lines, mwsf
from .matcore import (
    SymMatrix,
    NotPositiveDefinite,
    inverse_pd,
    is_m_matrix,
)
from .solver import FitResult
from .ultra import GRW_TOL


class InputNotMMatrix(ValueError):
    """The operation requires an M-matrix input."""


@dataclass(frozen=True)
class BlockReport:
    """Biconnected decomposition outcome.

    ``blocks`` lists the vertex sets of the biconnected components plus
    singletons for isolated vertices; when the graph is a block graph these
    are exactly its maximal cliques.  They are sorted by smallest vertex,
    and blocks that share their smallest vertex come in the order a
    depth-first search finishes them (``_biconnected_components``).
    ``offending_component`` is the first non-complete component otherwise.
    """

    is_block_graph: bool
    blocks: tuple[frozenset[int], ...]
    offending_component: frozenset[int] | None


@dataclass(frozen=True)
class NotApplicable:
    """Returned by block_closed_form when its preconditions fail."""

    reason: str


def _biconnected_components(graph: WeightedGraph) -> list[frozenset[int]]:
    """Vertex sets of the biconnected components, in post-order of their
    heads, tree by tree.

    One ``depth_first_order`` per component, from its smallest vertex, on
    the symmetric adjacency matrix, whose rows hold ``graph.neighbors``
    (ascending): the walk takes the first unvisited neighbour, as a
    recursive DFS over them does.  A child v whose lowpoint does not climb
    above its parent u heads a block: u and the part of v's subtree not
    under a deeper head.  A block is complete when its head finishes, at
    post-order place preorder - depth + subtree size - 1.
    """
    dim = graph.dim
    # a stable sort by vertex keeps each row ascending: the partners i < v
    # of the edges (i, v) first, then the partners j > v of (v, j)
    src = np.concatenate((graph.cols, graph.rows))
    degree = np.bincount(src, minlength=dim)
    indptr = np.concatenate(([0], np.cumsum(degree)))
    nbrs = np.concatenate((graph.rows, graph.cols))[np.argsort(src, kind="stable")]
    adj = csr_matrix((np.ones(len(nbrs)), nbrs, indptr), shape=(dim, dim))
    parent = np.full(dim, -1)
    seen = degree == 0
    walks = []
    for root in range(dim):
        if not seen[root]:
            nodes, pred = depth_first_order(adj, root, directed=True, return_predecessors=True)
            seen[nodes] = True
            parent[nodes[1:]] = pred[nodes[1:]]
            walks.append(nodes)
    if not walks:
        return []
    pre = np.concatenate(walks)
    disc = np.zeros(dim, dtype=np.int64)
    disc[pre] = np.arange(len(pre))
    # lowpoint: the earliest vertex reached by an edge other than the one
    # to the parent, folded up from the children in reverse preorder
    vertex = np.repeat(np.arange(dim), degree)
    back = nbrs != parent[vertex]
    low = disc.copy()
    np.minimum.at(low, vertex[back], disc[nbrs[back]])
    pre, up, low = pre.tolist(), parent.tolist(), low.tolist()
    size = [1] * dim
    for v in reversed(pre):
        u = up[v]
        if u >= 0:
            low[u] = min(low[u], low[v])
            size[u] += size[v]
    disc = disc.tolist()
    head = [-1] * dim
    depth = [0] * dim
    members: dict[int, list[int]] = {}
    for v in pre:
        u = up[v]
        if u >= 0:
            depth[v] = depth[u] + 1
            head[v] = v if low[v] >= disc[u] else head[u]
            members.setdefault(head[v], [u]).append(v)
    finish = {h: disc[h] - depth[h] + size[h] - 1 for h in members}
    return [frozenset(members[h]) for h in sorted(members, key=finish.__getitem__)]


def is_block_graph(graph: WeightedGraph) -> BlockReport:
    """Decompose into biconnected components and require each to be complete.

    Each block, in the order of ``BlockReport.blocks``, is complete when its
    submatrix of the boolean adjacency matrix (diagonal set) is all true.
    """
    comps = _biconnected_components(graph)
    covered = set().union(*comps)
    blocks = comps + [frozenset({v}) for v in range(graph.dim) if v not in covered]
    blocks.sort(key=min)
    adjacent = np.eye(graph.dim, dtype=bool)
    adjacent[graph.rows, graph.cols] = adjacent[graph.cols, graph.rows] = True
    offending = None
    for comp in blocks:
        members = list(comp)
        if not adjacent[np.ix_(members, members)].all():
            offending = comp
            break
    return BlockReport(offending is None, tuple(blocks), offending)


def block_closed_form(w: SymMatrix, blocks: BlockReport) -> SymMatrix | NotApplicable:
    """Exact MLE via the path-product matrix when the equality graph allows it.

    ``w`` is the path-product matrix of R and ``blocks`` the block report of
    its equality graph (``is_block_graph(grw_graph(r, w, tol))``).  That
    graph must be a block graph whose clique blocks, read off ``w``, are all
    inverse M-matrices; ``w`` is then the exact estimate.  Returns
    NotApplicable naming the failed condition otherwise.
    """
    if not blocks.is_block_graph:
        bad = sorted(blocks.offending_component)
        return NotApplicable(f"equality graph is not a block graph (component {bad})")
    for block in blocks.blocks:
        if len(block) < 2:
            continue
        members = sorted(block)
        sub = SymMatrix(w.values[np.ix_(members, members)])
        try:
            inv = inverse_pd(sub)
        except NotPositiveDefinite:
            return NotApplicable(f"block {members} is not positive definite")
        if not is_m_matrix(inv, tol=GRW_TOL * float(inv.values.diagonal().max())):
            return NotApplicable(f"block {members} is not an inverse M-matrix")
    return w


def mwsf_containment(r: SymMatrix, result: FitResult) -> tuple[bool, list[tuple[int, int]]]:
    """Whether every spanning-forest edge shows up in the fitted graph."""
    if r.dim != result.ml_graph.dim:
        raise ValueError("dimension mismatch")
    forest, fitted = mwsf(r), result.ml_graph
    gone = ~np.isin(forest.rows * r.dim + forest.cols, fitted.rows * r.dim + fitted.cols)
    missing = list(zip(forest.rows[gone].tolist(), forest.cols[gone].tolist()))
    return (not missing, missing)


def threshold_k(k: SymMatrix, graph: WeightedGraph) -> SymMatrix:
    """Zero out off-graph entries of an M-matrix; stays an M-matrix.

    Dropping off-diagonal entries of an M-matrix can only move it deeper
    into the cone, so no refit is needed after thresholding.
    """
    if graph.dim != k.dim:
        raise ValueError("dimension mismatch")
    if not is_m_matrix(k, tol=GRW_TOL * float(k.values.diagonal().max())):
        raise InputNotMMatrix("threshold_k requires an M-matrix input")
    keep = np.eye(k.dim, dtype=bool)
    keep[graph.rows, graph.cols] = keep[graph.cols, graph.rows] = True
    vals = k.values.copy()
    vals[~keep] = 0.0
    return SymMatrix(vals, labels=k.labels)


def tiered_dot_lines(
    forest: WeightedForest,
    middle: WeightedGraph,
    envelope: WeightedGraph,
    labels=None,
) -> list[str]:
    """DOT export with three edge tiers, as the ``dot_lines`` of the union
    graph.

    Spanning-forest edges are thick red, remaining edges of ``middle``
    (typically the fitted graph) blue, and remaining envelope edges thin
    gray.
    """
    dim = forest.dim
    if middle.dim != dim or envelope.dim != dim:
        raise ValueError("dimension mismatch")

    def keyed(graph):
        return graph.rows * dim + graph.cols, graph.weights

    (fk, fw), (ek, ew), (mk, mw) = map(keyed, (forest, envelope, middle))
    # the first occurrence of a pair gives its weight: forest and envelope
    # weights (input scale) before middle ones
    union, first = np.unique(np.concatenate((fk, ek, mk)), return_index=True)
    weights = np.concatenate((fw, ew, mw))[first]
    tier = np.full(len(union), 2)
    tier[np.isin(union, mk)] = 1
    tier[np.isin(union, fk)] = 0
    styles = (", color=red, penwidth=2.5", ", color=blue", ", color=gray, penwidth=0.5")
    union_graph = WeightedGraph._derived(dim, union // dim, union % dim, weights)
    return dot_lines(union_graph, labels=labels, style=list(map(styles.__getitem__, tier.tolist())))


def tiered_dot(
    forest: WeightedForest,
    middle: WeightedGraph,
    envelope: WeightedGraph,
    labels=None,
) -> str:
    """The joined ``tiered_dot_lines``."""
    return "".join(tiered_dot_lines(forest, middle, envelope, labels=labels))
