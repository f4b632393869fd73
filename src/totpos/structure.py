"""Structural analysis of the fitted precision graph.

Bounds the graph of the fitted precision matrix from the outside (path
product and excess-correlation envelopes), detects block graphs, evaluates
the closed-form solution available on them, checks spanning-forest
containment, and thresholds M-matrices onto a graph without losing positive
definiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import WeightedForest, WeightedGraph, mwsf, to_dot
from .matcore import (
    SymMatrix,
    NotPositiveDefinite,
    inverse_pd,
    is_m_matrix,
    require_unit_diagonal,
)
from .solver import FitResult
from .ultra import EC_SLACK, ec_graph, w_matrix

# Default equality tolerance, on correlation scale, for deciding that an
# entry is exactly explained by its best path product.
GRW_TOL = 1e-9


class InputNotMMatrix(ValueError):
    """The operation requires an M-matrix input."""


@dataclass(frozen=True)
class BlockReport:
    """Biconnected decomposition outcome.

    ``blocks`` lists the vertex sets of the biconnected components plus
    singletons for isolated vertices; when the graph is a block graph these
    are exactly its maximal cliques.  ``offending_component`` is the first
    non-complete component otherwise.
    """

    is_block_graph: bool
    blocks: tuple[frozenset[int], ...]
    offending_component: frozenset[int] | None


@dataclass(frozen=True)
class NotApplicable:
    """Returned by block_closed_form when its preconditions fail."""

    reason: str


def ml_graph_upper_bound(r: SymMatrix) -> WeightedGraph:
    """Envelope graph that must contain the fitted precision graph.

    Keeps a pair only when its correlation is positive, attains its best
    path product, and meets the excess-correlation condition.
    """
    require_unit_diagonal(r)
    w = w_matrix(r).values
    vals = r.values
    allowed = ec_graph(r, mwsf(r)).edge_pairs()
    edges = [
        (i, j, float(vals[i, j]))
        for i, j in sorted(allowed)
        if vals[i, j] > 0.0 and vals[i, j] >= w[i, j] - EC_SLACK
    ]
    return WeightedGraph(r.dim, tuple(edges))


def grw_graph(r: SymMatrix, w: SymMatrix, tol: float = GRW_TOL) -> WeightedGraph:
    """Pairs whose correlation equals its best path product, within tol.

    Pairs in different components (where the closure is exactly zero) never
    count as equalities: a zero there reflects disconnection, and estimation
    decomposes over components anyway.
    """
    if r.dim != w.dim:
        raise ValueError("dimension mismatch")
    vals, wv = r.values, w.values
    edges = [
        (i, j, float(vals[i, j]))
        for i in range(r.dim)
        for j in range(i + 1, r.dim)
        if wv[i, j] > 0.0 and abs(vals[i, j] - wv[i, j]) <= tol
    ]
    return WeightedGraph(r.dim, tuple(edges))


def _biconnected_components(dim: int, pairs) -> list[frozenset[int]]:
    """Vertex sets of the biconnected components (iterative lowpoint DFS)."""
    adj: list[list[int]] = [[] for _ in range(dim)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
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


def is_block_graph(graph: WeightedGraph) -> BlockReport:
    """Decompose into biconnected components and require each to be complete."""
    pairs = sorted(graph.edge_pairs())
    comps = _biconnected_components(graph.dim, pairs)
    covered = set().union(*comps) if comps else set()
    blocks = comps + [frozenset({v}) for v in range(graph.dim) if v not in covered]
    blocks.sort(key=min)
    pair_set = set(pairs)
    offending = None
    for comp in blocks:
        members = sorted(comp)
        complete = all(
            (members[a], members[b]) in pair_set
            for a in range(len(members))
            for b in range(a + 1, len(members))
        )
        if not complete:
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
    fitted = result.ml_graph.edge_pairs()
    missing = [(i, j) for i, j, _ in mwsf(r).edges if (i, j) not in fitted]
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
    for i, j in graph.edge_pairs():
        keep[i, j] = keep[j, i] = True
    vals = k.values.copy()
    vals[~keep] = 0.0
    return SymMatrix(vals, labels=k.labels)


def tiered_dot(
    forest: WeightedForest,
    middle: WeightedGraph,
    envelope: WeightedGraph,
    labels=None,
) -> str:
    """DOT export with three edge tiers.

    Spanning-forest edges are thick red, remaining edges of ``middle``
    (typically the fitted graph) blue, and remaining envelope edges thin
    gray.
    """
    dim = forest.dim
    if middle.dim != dim or envelope.dim != dim:
        raise ValueError("dimension mismatch")
    forest_pairs = forest.edge_pairs()
    middle_pairs = middle.edge_pairs()
    # prefer envelope/forest weights (input scale) over middle ones
    weight = {(i, j): w for i, j, w in middle.edges}
    weight.update({(i, j): w for i, j, w in envelope.edges})
    weight.update({(i, j): w for i, j, w in forest.edges})

    def tier(i: int, j: int) -> str:
        if (i, j) in forest_pairs:
            return ", color=red, penwidth=2.5"
        if (i, j) in middle_pairs:
            return ", color=blue"
        return ", color=gray, penwidth=0.5"

    union = WeightedGraph(dim, tuple((i, j, w) for (i, j), w in weight.items()))
    return to_dot(union, labels=labels, style=tier)
