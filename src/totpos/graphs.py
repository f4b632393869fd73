"""Weighted undirected graphs on variable indices.

Holds the positive-correlation graph, maximum weight spanning forests with
deterministic tie-breaking (Kruskal, weight descending then pair ascending),
one forest walk with the path queries and path folds built on it (the
tree-structured closed-form estimate is the product fold), and exact maximum
cliques at desk scale.  One DOT writer serves plain and tiered export.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import SymMatrix, require_unit_diagonal

Edge = tuple[int, int, float]


class _DisjointSet:
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


def _check_edges(dim: int, edges) -> tuple[Edge, ...]:
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


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on vertices 0..dim-1 with weighted edges (i < j)."""

    dim: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", _check_edges(self.dim, self.edges))

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, j, _ in self.edges)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.dim)]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj


@dataclass(frozen=True)
class WeightedForest(WeightedGraph):
    """Acyclic edge set with per-vertex component labels.

    Components are numbered by their smallest vertex, in ascending order, so
    construction is deterministic.
    """

    component_label: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        labels = tuple(self.component_label)
        if len(labels) != self.dim:
            raise ValueError("component_label length must equal dim")
        ds = _DisjointSet(self.dim)
        for i, j, _ in self.edges:
            if not ds.union(i, j):
                raise ValueError(f"edge ({i}, {j}) closes a cycle")
        n_comp = len(set(labels))
        if len(self.edges) != self.dim - n_comp:
            raise ValueError("edge count must be dim - number of components")
        # with as many labels as edge components, they agree iff each
        # component carries a single label
        roots = [ds.find(v) for v in range(self.dim)]
        if len(set(zip(roots, labels))) != n_comp:
            raise ValueError("component labels inconsistent with edges")

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v for v, _ in nbrs) for nbrs in self.adjacency())

    def walk(self, root: int) -> Iterator[tuple[int, int]]:
        """Depth-first walk of the tree holding ``root``.

        Yields (parent, child) once per edge of that tree, each child after
        its parent.
        """
        nbrs = self._neighbors
        stack = [(root, -1)]
        while stack:
            u, up = stack.pop()
            for v in nbrs[u]:
                if v != up:
                    yield u, v
                    stack.append((v, u))

    def path(self, i: int, j: int) -> list[int] | None:
        """Vertices of the unique path from i to j, or None across components."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError("vertex out of range")
        if self.component_label[i] != self.component_label[j]:
            return None
        parent = {i: i}
        steps = self.walk(i)
        while j not in parent:
            u, v = next(steps)
            parent[v] = u
        out = [j]
        while out[-1] != i:
            out.append(parent[out[-1]])
        out.reverse()
        return out


def _component_labels(dim: int, edges) -> tuple[int, ...]:
    ds = _DisjointSet(dim)
    for i, j, _ in edges:
        ds.union(i, j)
    # number components by smallest member, ascending
    rep_to_min: dict[int, int] = {}
    for v in range(dim):
        r = ds.find(v)
        rep_to_min[r] = min(rep_to_min.get(r, v), v)
    order = sorted(set(rep_to_min.values()))
    rank = {m: k for k, m in enumerate(order)}
    return tuple(rank[rep_to_min[ds.find(v)]] for v in range(dim))


def _positive_part_graph(r: SymMatrix) -> WeightedGraph:
    """Graph with an edge (i, j, R_ij) for every strictly positive entry."""
    vals = r.values
    edges = [
        (i, j, float(vals[i, j]))
        for i in range(r.dim)
        for j in range(i + 1, r.dim)
        if vals[i, j] > 0.0
    ]
    return WeightedGraph(r.dim, tuple(edges))


def mwsf(r: SymMatrix) -> WeightedForest:
    """Maximum weight spanning forest of the positive-part graph.

    Kruskal over positive edges sorted by (weight descending, pair
    ascending); only strictly positive edges are candidates, so the forest
    is minimal among maximum weight forests.  For weight-distinct inputs
    the result is the unique MWSF.
    """
    graph = _positive_part_graph(r)
    ranked = sorted(graph.edges, key=lambda e: (-e[2], e[0], e[1]))
    ds = _DisjointSet(r.dim)
    kept = [e for e in ranked if ds.union(e[0], e[1])]
    return WeightedForest(r.dim, tuple(kept), _component_labels(r.dim, kept))


def fold_paths(r: SymMatrix, forest: WeightedForest, combine, start: float) -> SymMatrix:
    """Fold ``combine`` over the entries of R along every forest path.

    Entry (i, j), i < j, folds the entries along the forest path from i
    out to j, beginning from ``start``; zero across components, one on the
    diagonal.
    """
    require_unit_diagonal(r)
    if forest.dim != r.dim:
        raise ValueError("dimension mismatch")
    p = r.dim
    vals = r.values
    out = np.zeros((p, p))
    np.fill_diagonal(out, 1.0)
    for root in range(p):
        acc = {root: start}
        for u, v in forest.walk(root):
            acc[v] = combine(acc[u], vals[u, v])
            if v > root:
                out[root, v] = out[v, root] = acc[v]
    return SymMatrix(out, labels=r.labels)


def tree_mle(r: SymMatrix, forest: WeightedForest) -> SymMatrix:
    """Closed-form estimate for the graphical model over a forest.

    Entry (i, j) is the product of R along the forest path from i to j, zero
    across components, one on the diagonal.
    """
    return fold_paths(r, forest, operator.mul, 1.0)


def max_clique(graph: WeightedGraph) -> frozenset[int]:
    """Exact maximum clique (Bron-Kerbosch with pivoting); desk scale only."""
    adj = [set() for _ in range(graph.dim)]
    for i, j, _ in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    best: set[int] = set()

    def expand(clique: set[int], cand: set[int], excl: set[int]):
        nonlocal best
        if not cand and not excl:
            if len(clique) > len(best):
                best = set(clique)
            return
        if len(clique) + len(cand) <= len(best):
            return
        pivot = max(cand | excl, key=lambda u: len(adj[u] & cand))
        for v in sorted(cand - adj[pivot]):
            expand(clique | {v}, cand & adj[v], excl & adj[v])
            cand = cand - {v}
            excl = excl | {v}

    expand(set(), set(range(graph.dim)), set())
    return frozenset(best)


def to_dot(graph: WeightedGraph, labels=None, style=None) -> str:
    """Serialize to Graphviz DOT with a weight attribute per edge.

    ``style``, when given, maps an edge (i, j) to extra attributes written
    after the weight.
    """
    if labels is not None and len(labels) != graph.dim:
        raise ValueError("label count does not match graph dimension")
    name = (lambda v: str(labels[v])) if labels is not None else str
    lines = ["graph G {"]
    for v in range(graph.dim):
        lines.append(f'  "{name(v)}";')
    for i, j, w in graph.edges:
        extra = style(i, j) if style is not None else ""
        lines.append(f'  "{name(i)}" -- "{name(j)}" [weight="{w:.6f}"{extra}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
