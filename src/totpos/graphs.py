"""Weighted undirected graphs on variable indices.

A graph is three read-only arrays sorted by pair: the edges' rows and
columns (row < column) and their weights.  The graphs read off a matrix
(positive part, excess correlation, path-product equality, fitted
precision) all come from ``WeightedGraph.from_mask``, which keeps the
arrays the mask gives, valid by construction: only edges a caller passes
to ``WeightedGraph(dim, edges)`` are checked.  The (i, j, weight) tuples
and the neighbour lists are built from the arrays on first use.  Holds maximum weight spanning forests of the
positive-part graph, Kruskal's forest for weight descending then pair
ascending.  Construction of a forest walks each tree once from its
smallest vertex, which rejects cycles and derives the component labels and
the rooted (parent, child) order.  The path folds read that order, one
numpy row update per edge (the tree-structured closed-form estimate is the
product fold, single linkage the minimum fold).  Also exact maximum
cliques at desk scale, and one DOT writer for plain and tiered export.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import chain, repeat

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .matcore import SymMatrix, require_unit_diagonal

Edge = tuple[int, int, float]


def _check_edges(dim: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and weights of the edges, sorted by pair; raises
    ValueError at the first edge, in input order, that is out of range, not
    ordered i < j, or a pair already given."""
    edges = tuple(edges)
    if not edges:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    if set(map(len, edges)) != {3}:
        raise ValueError("an edge is a triple (i, j, weight)")
    i, j, w = np.fromiter(chain.from_iterable(edges), float, 3 * len(edges)).reshape(-1, 3).T
    bad = ~((0 <= i) & (i < j) & (j < dim))
    order = np.lexsort((j, i))  # stable: equal pairs stay in input order
    si, sj = i[order], j[order]
    repeated = np.zeros(len(edges), dtype=bool)
    repeated[order[1:][(si[1:] == si[:-1]) & (sj[1:] == sj[:-1])]] = True
    offending = np.flatnonzero(bad | repeated)
    if len(offending):
        k = offending[0]
        a, b = edges[k][0], edges[k][1]
        if bad[k]:
            raise ValueError(f"bad edge ({a}, {b}) for dimension {dim}")
        raise ValueError(f"duplicate edge ({a}, {b})")
    return si.astype(np.int64), sj.astype(np.int64), w[order]


class WeightedGraph:
    """Undirected graph on vertices 0..dim-1 with weighted edges (i < j).

    Immutable.  Its state is ``dim`` and three read-only arrays sorted by
    pair: ``rows`` and ``cols`` (rows < cols, int64) and ``weights``
    (float64).  ``edges`` holds the same edges as (i, j, weight) tuples of
    Python numbers, built on first use.  Two graphs are equal when they
    are of one class and have equal ``dim`` and ``edges``, and hash as
    ``(dim, edges)``.
    """

    def __init__(self, dim: int, edges):
        self._adopt(dim, *_check_edges(dim, edges))

    @classmethod
    def _derived(cls, dim: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray):
        """Graph on index arrays that are valid by construction (in range,
        rows < cols, unique, sorted by pair), as a mask or a sorted key set
        gives them."""
        graph = cls.__new__(cls)
        graph._adopt(dim, rows, cols, weights)
        return graph

    def _adopt(self, dim: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray):
        for arr in (rows, cols, weights):
            arr.flags.writeable = False
        self.__dict__.update(dim=dim, rows=rows, cols=cols, weights=weights)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: graphs are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: graphs are immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # weights compare as floats, like the tuples: NaN unequal, -0.0 == 0.0
        return self is other or (
            self.dim == other.dim
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.dim, self.edges))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim!r}, edges={self.edges!r})"

    @classmethod
    def from_mask(cls, mask: np.ndarray, weights: np.ndarray):
        """Edge (i, j, weights[i, j]) for every i < j where ``mask`` holds.

        Only the strict upper triangle of the square ``mask`` is read
        (row-major order); ``weights`` has the shape of ``mask``.
        """
        shape = np.shape(mask)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(weights) != shape:
            raise ValueError(f"mask {shape} and weights {np.shape(weights)}: need one square shape")
        i, j = np.nonzero(np.triu(mask, 1))
        return cls._derived(len(mask), i, j, np.asarray(weights, dtype=float)[i, j])

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (i, j, weight) tuples, sorted by pair."""
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each vertex, in edge order (so ascending)."""
        adj: list[list[int]] = [[] for _ in range(self.dim)]
        for i, j in zip(self.rows.tolist(), self.cols.tolist()):
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))


class WeightedForest(WeightedGraph):
    """Acyclic edge set, rooted once at construction.

    One walk of each tree from its smallest vertex, in ascending order of
    roots, rejects a cycle and derives two attributes: ``component_label``,
    with components numbered by their smallest vertex, and ``order``, the
    (parent, child) pair of every edge, tree by tree, each child after its
    parent.
    """

    component_label: tuple[int, ...]
    order: tuple[tuple[int, int], ...]

    def _adopt(self, dim: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray):
        super()._adopt(dim, rows, cols, weights)
        labels = [-1] * dim
        order = []
        n_comp = 0
        for root in range(dim):
            if labels[root] >= 0:
                continue
            labels[root] = n_comp
            for u, v in self.walk(root):
                if labels[v] >= 0:
                    raise ValueError(f"edge ({min(u, v)}, {max(u, v)}) closes a cycle")
                labels[v] = n_comp
                order.append((u, v))
            n_comp += 1
        self.__dict__.update(component_label=tuple(labels), order=tuple(order))

    def walk(self, root: int) -> Iterator[tuple[int, int]]:
        """Depth-first walk of the tree holding ``root``.

        Yields (parent, child) once per edge of that tree, each child after
        its parent.
        """
        nbrs = self.neighbors
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


def mwsf(r: SymMatrix) -> WeightedForest:
    """Maximum weight spanning forest of the positive-part graph.

    Kruskal's forest for positive edges ranked 1..m by (weight descending,
    pair ascending): the minimum spanning forest of those distinct ranks.
    Only strictly positive edges are candidates, so the forest is minimal
    among maximum weight forests.  For weight-distinct inputs the result is
    the unique MWSF.
    """
    i, j = np.nonzero(np.triu(r.values > 0.0, 1))
    w = r.values[i, j]
    order = np.lexsort((j, i, -w))
    ranks = csr_matrix((np.arange(1.0, len(w) + 1), (i[order], j[order])), shape=(r.dim, r.dim))
    kept = order[minimum_spanning_tree(ranks).data.astype(np.int64) - 1]
    return WeightedForest(r.dim, tuple(zip(i[kept].tolist(), j[kept].tolist(), w[kept].tolist())))


def fold_paths(r: SymMatrix, forest: WeightedForest, combine) -> SymMatrix:
    """Fold ``combine`` over the entries of R along every forest path.

    ``combine`` is ``np.multiply`` or ``np.minimum``.  One pass over
    ``forest.order``: when a child v joins its parent u, v's row is u's row
    combined with R_uv, so each entry folds the path out from the vertex
    reached first.  Zero across components, one on the diagonal.  R must be
    positive on the forest's edges, as ``mwsf`` guarantees: the zeros of
    vertices not yet reached then stay zero under either fold.
    """
    require_unit_diagonal(r)
    if forest.dim != r.dim:
        raise ValueError("dimension mismatch")
    vals = r.values
    out = np.zeros((r.dim, r.dim))
    for u, v in forest.order:
        out[v] = combine(out[u], vals[u, v])
        out[v, u] = vals[u, v]
        out[:, v] = out[v]
    np.fill_diagonal(out, 1.0)
    return SymMatrix(out, labels=r.labels)


def tree_mle(r: SymMatrix, forest: WeightedForest) -> SymMatrix:
    """Closed-form estimate for the graphical model over a forest.

    Entry (i, j) is the product of R along the forest path from i to j, zero
    across components, one on the diagonal.
    """
    return fold_paths(r, forest, np.multiply)


def max_clique(graph: WeightedGraph) -> frozenset[int]:
    """Exact maximum clique (Bron-Kerbosch with pivoting); desk scale only."""
    adj = [set(nbrs) for nbrs in graph.neighbors]
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


def dot_lines(graph: WeightedGraph, labels=None, style=None) -> list[str]:
    """Graphviz DOT text of ``graph``, one line (with its newline) per
    vertex and per edge, for a file's ``writelines``; ``to_dot`` joins them.

    Vertex names are quoted, with backslashes and double quotes escaped.
    ``style``, when given, holds extra attributes for each edge, in edge
    order, written after the weight.
    """
    if labels is not None and len(labels) != graph.dim:
        raise ValueError("label count does not match graph dimension")
    if style is not None and len(style) != len(graph.rows):
        raise ValueError("style count does not match edge count")
    names = [
        str(x).replace("\\", "\\\\").replace('"', '\\"')
        for x in (labels if labels is not None else range(graph.dim))
    ]
    lines = ["graph G {\n"]
    lines.extend(f'  "{name}";\n' for name in names)
    cells = zip(
        map(names.__getitem__, graph.rows.tolist()),
        map(names.__getitem__, graph.cols.tolist()),
        graph.weights.tolist(),
        style if style is not None else repeat(""),
    )
    lines.extend(map('  "%s" -- "%s" [weight="%.6f"%s];\n'.__mod__, cells))
    lines.append("}\n")
    return lines


def to_dot(graph: WeightedGraph, labels=None, style=None) -> str:
    """Serialize to Graphviz DOT with a weight attribute per edge: the
    joined ``dot_lines``."""
    return "".join(dot_lines(graph, labels=labels, style=style))
