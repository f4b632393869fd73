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
from itertools import chain, combinations

import numpy as np

from .graphs import WeightedForest, WeightedGraph, _derived_graph, mwsf, to_dot
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


def _biconnected_components(adj) -> list[frozenset[int]]:
    """Vertex sets of the biconnected components (iterative lowpoint DFS).

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


def is_block_graph(graph: WeightedGraph) -> BlockReport:
    """Decompose into biconnected components and require each to be complete."""
    comps = _biconnected_components(graph.neighbors)
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

    def keyed(graph):
        count = len(graph.edges)
        cols = np.fromiter(chain.from_iterable(graph.edges), float, 3 * count).reshape(count, 3)
        return cols[:, 0].astype(np.int64) * dim + cols[:, 1].astype(np.int64), cols[:, 2]

    (fk, fw), (ek, ew), (mk, mw) = map(keyed, (forest, envelope, middle))
    # the first occurrence of a pair gives its weight: forest and envelope
    # weights (input scale) before middle ones
    union, first = np.unique(np.concatenate((fk, ek, mk)), return_index=True)
    weights = np.concatenate((fw, ew, mw))[first]
    tier = np.full(len(union), 2)
    tier[np.isin(union, mk)] = 1
    tier[np.isin(union, fk)] = 0
    styles = (", color=red, penwidth=2.5", ", color=blue", ", color=gray, penwidth=0.5")
    union_graph = _derived_graph(dim, union // dim, union % dim, weights)
    return to_dot(union_graph, labels=labels, style=list(map(styles.__getitem__, tier.tolist())))
