"""Shared golden matrices, generators, and brute-force reference helpers."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from totpos import SymMatrix, to_correlation

# Correlation matrix of the six fat/meat thickness measurements from the
# classic carcass data set (two-decimal precision), plus derived references.
CARCASS_LABELS = ("Fat11", "Meat11", "Fat12", "Meat12", "Fat13", "Meat13")
CARCASS_R = np.array([
    [1.00, 0.04, 0.84, 0.08, 0.82, -0.03],
    [0.04, 1.00, 0.04, 0.87, 0.13, 0.86],
    [0.84, 0.04, 1.00, 0.01, 0.83, -0.03],
    [0.08, 0.87, 0.01, 1.00, 0.11, 0.90],
    [0.82, 0.13, 0.83, 0.11, 1.00, 0.02],
    [-0.03, 0.86, -0.03, 0.90, 0.02, 1.00],
])

# Tabulated two-decimal reference for the constrained MLE of the carcass
# correlations.
CARCASS_MLE_2DP = np.array([
    [1.00, 0.10, 0.84, 0.09, 0.82, 0.09],
    [0.10, 1.00, 0.11, 0.87, 0.13, 0.86],
    [0.84, 0.11, 1.00, 0.09, 0.83, 0.09],
    [0.09, 0.87, 0.09, 1.00, 0.11, 0.90],
    [0.82, 0.13, 0.83, 0.11, 1.00, 0.11],
    [0.09, 0.86, 0.09, 0.90, 0.11, 1.00],
])

# Fitted precision graph: the two fat/meat triangles bridged by Meat11-Fat13.
CARCASS_ML_EDGES = frozenset({(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5), (1, 4)})

# Maximum weight spanning forest: the chain Meat13-Meat12-Meat11-Fat13-Fat12-Fat11.
CARCASS_CHAIN_EDGES = frozenset({(3, 5), (1, 3), (1, 4), (2, 4), (0, 2)})

# Four variables with one negative pair; hand-computed single-linkage values.
LINKAGE_R = np.array([
    [1.0, -0.5, 0.5, 0.6],
    [-0.5, 1.0, 0.4, -0.1],
    [0.5, 0.4, 1.0, 0.2],
    [0.6, -0.1, 0.2, 1.0],
])
LINKAGE_Z = np.array([
    [1.0, 0.4, 0.5, 0.6],
    [0.4, 1.0, 0.4, 0.4],
    [0.5, 0.4, 1.0, 0.5],
    [0.6, 0.4, 0.5, 1.0],
])

# A five-variable M-matrix whose correlation matrix has a star spanning tree
# centered at the last vertex, yet drops the (1, 4) edge from the fitted
# graph; the reference correlations are quoted to four decimals.
STAR_K = np.array([
    [1.000, -0.116, 0.000, 0.000, -0.433],
    [-0.116, 1.000, -0.097, -0.034, 0.000],
    [0.000, -0.097, 1.000, -0.149, -0.413],
    [0.000, -0.034, -0.149, 1.000, -0.604],
    [-0.433, 0.000, -0.413, -0.604, 1.000],
])
STAR_R_4DP = np.array([
    [1.0000, 0.2861, 0.5745, 0.6242, 0.7299],
    [0.2861, 1.0000, 0.2864, 0.2696, 0.2872],
    [0.5745, 0.2864, 1.0000, 0.7149, 0.7800],
    [0.6242, 0.2696, 0.7149, 1.0000, 0.8523],
    [0.7299, 0.2872, 0.7800, 0.8523, 1.0000],
])

# Four variables whose sign pattern is unbalanced: the spanning forest of the
# absolute values is the star at vertex 0 with all-positive edges, yet
# flipping variable 2 gives a strictly better fit.
UNBALANCED_R = np.array([
    [1.00, 0.30, 0.11, 0.30],
    [0.30, 1.00, -0.10, -0.10],
    [0.11, -0.10, 1.00, -0.10],
    [0.30, -0.10, -0.10, 1.00],
])

# A strict path-product correlation matrix (its max-product closure is
# itself) whose inverse has positive off-diagonal entries, so the block
# closed form must refuse it.
PATH_PRODUCT_NOT_INV_M = np.array([
    [1.00, 0.46, 0.72, 0.41],
    [0.46, 1.00, 0.44, 0.56],
    [0.72, 0.44, 1.00, 0.55],
    [0.41, 0.56, 0.55, 1.00],
])


@pytest.fixture
def carcass() -> SymMatrix:
    return SymMatrix(CARCASS_R, labels=CARCASS_LABELS)


@pytest.fixture
def linkage4() -> SymMatrix:
    return SymMatrix(LINKAGE_R)


@pytest.fixture
def unbalanced4() -> SymMatrix:
    return SymMatrix(UNBALANCED_R)


@pytest.fixture
def star_r() -> SymMatrix:
    inv = np.linalg.inv(STAR_K)
    d = np.sqrt(np.diag(inv))
    r = inv / np.outer(d, d)
    np.fill_diagonal(r, 1.0)
    return SymMatrix(r)


def random_correlation(rng, p: int, n: int | None = None) -> SymMatrix:
    """Sample correlation matrix of n >= 2 mean-zero Gaussian observations."""
    n = n if n is not None else p + 3
    x = rng.standard_normal((n, p))
    r, _ = to_correlation(SymMatrix(x.T @ x / n))
    return r


def random_pd(rng, p: int, eig_low: float = 0.1, eig_high: float = 10.0) -> SymMatrix:
    """Random positive definite matrix with eigenvalues in the given range."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eig = rng.uniform(eig_low, eig_high, size=p)
    return SymMatrix(q @ np.diag(eig) @ q.T)


def random_m_matrix(rng, p: int) -> SymMatrix:
    """Random M-matrix: c*I - B with B nonnegative and c above its spectrum."""
    b = np.abs(rng.standard_normal((p, p)))
    b = (b + b.T) / 2.0
    np.fill_diagonal(b, 0.0)
    top = float(np.linalg.eigvalsh(b).max())
    c = top * (1.0 + rng.uniform(0.05, 0.6)) + 0.1
    return SymMatrix(c * np.eye(p) - b)


def sparse_m_covariance(rng, p: int, n: int) -> np.ndarray:
    """Sample covariance (known zero mean) of n draws from a Gaussian whose
    precision is a random sparse M-matrix: about three neighbours per vertex,
    edge weights in [0.2, 1), diagonal dominance margin in [1, 2).  This is
    ``perfbench.workloads.sample_covariance`` without sign flips, and
    ``tools/cli_parity.py``'s ``sample_covariance`` for even seeds."""
    mask = np.triu(rng.random((p, p)) < 3.0 / p, 1)
    a = np.where(mask, rng.uniform(0.2, 1.0, (p, p)), 0.0)
    a = a + a.T
    k = -a
    np.fill_diagonal(k, a.sum(axis=1) + rng.uniform(1.0, 2.0, p))
    x = rng.standard_normal((n, p)) @ np.linalg.cholesky(np.linalg.inv(k)).T
    return x.T @ x / n


def exact_inverse(k: np.ndarray) -> list[list[Fraction]]:
    """The exact inverse of a positive definite float matrix.

    A float is a dyadic rational, so K = M / d with M an integer matrix and
    d the largest denominator (a power of two).  Fraction-free Gauss-Jordan
    elimination (Bareiss) on [M | I] divides exactly at every step and ends
    at [det M I | adj M]; its pivots are the leading principal minors of M,
    positive for a positive definite K, so no row is exchanged.  Then
    K^{-1} = d adj M / det M.
    """
    p = len(k)
    entries = [Fraction(x) for x in k.ravel().tolist()]
    d = max(q.denominator for q in entries)
    rows = [[int(q * d) for q in entries[i * p:(i + 1) * p]] + [int(i == j) for j in range(p)]
            for i in range(p)]
    prev = 1
    for c in range(p):
        pivot, row = rows[c][c], rows[c]
        if pivot <= 0:
            raise ValueError(f"leading minor {c + 1} is not positive")
        for i in range(p):
            if i != c:
                f = rows[i][c]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], row)]
        prev = pivot
    return [[Fraction(x * d, prev) for x in row[p:]] for row in rows]


def exact_kkt_residuals(r: np.ndarray, k: np.ndarray) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The residuals of ``kkt_certificate`` (primal, diagonal, dual, slack)
    of the pair (K^{-1}, K) against the correlation matrix R, exactly: K is
    inverted by ``exact_inverse``, and every residual is a rational number
    computed from the floats of R and K without rounding.  primal is the
    largest K_ij off the diagonal, diagonal the largest |Sigma_ii - 1|, dual
    the smallest Sigma_ij - r_ij off the diagonal and slack the largest
    |(Sigma_ij - r_ij) K_ij| there."""
    sig = exact_inverse(k)
    p = len(k)
    off = [(i, j) for i in range(p) for j in range(p) if i != j]
    margin = {(i, j): sig[i][j] - Fraction(r[i, j]) for i, j in off}
    return (
        max((Fraction(k[i, j]) for i, j in off), default=Fraction(0)),
        max(abs(sig[i][i] - 1) for i in range(p)),
        min(margin.values(), default=Fraction(0)),
        max((abs(m * Fraction(k[i, j])) for (i, j), m in margin.items()), default=Fraction(0)),
    )


def iter_simple_paths(mask: np.ndarray, i: int, j: int):
    """Yield the edge lists of all simple i-j paths in the boolean graph."""
    p = mask.shape[0]
    visited = {i}
    edges: list[tuple[int, int]] = []

    def walk(u):
        if u == j:
            yield list(edges)
            return
        for v in range(p):
            if mask[u, v] and v not in visited:
                visited.add(v)
                edges.append((u, v))
                yield from walk(v)
                edges.pop()
                visited.remove(v)

    yield from walk(i)


def brute_bottleneck(r: np.ndarray) -> np.ndarray:
    """Max over simple paths of the minimum edge weight (exhaustive)."""
    p = r.shape[0]
    mask = (r > 0) & ~np.eye(p, dtype=bool)
    out = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            best = 0.0
            for path in iter_simple_paths(mask, i, j):
                best = max(best, min(r[u, v] for u, v in path))
            out[i, j] = out[j, i] = best
    return out


def brute_max_product(r: np.ndarray) -> np.ndarray:
    """Max over simple paths of the product of edge weights (exhaustive)."""
    p = r.shape[0]
    mask = (r > 0) & ~np.eye(p, dtype=bool)
    out = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            best = 0.0
            for path in iter_simple_paths(mask, i, j):
                prod = 1.0
                for u, v in path:
                    prod *= r[u, v]
                best = max(best, prod)
            out[i, j] = out[j, i] = best
    return out


def _acyclic(pairs, p: int) -> bool:
    parent = list(range(p))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def brute_max_forest_weight(edges, p: int) -> float:
    """Maximum total weight over all acyclic edge subsets (exhaustive)."""
    best = 0.0
    for size in range(len(edges) + 1):
        for sub in itertools.combinations(edges, size):
            if _acyclic([(i, j) for i, j, _ in sub], p):
                best = max(best, sum(w for _, _, w in sub))
    return best


def brute_biconnected(p: int, pairs) -> set[frozenset[int]]:
    """Biconnected components via the shared-cycle edge relation (exhaustive)."""
    pairs = sorted(pairs)
    index = {e: k for k, e in enumerate(pairs)}
    adj = [set() for _ in range(p)]
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)

    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def connected_without(w, a, b):
        seen = {a, w}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                return True
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    for w in range(p):
        nb = sorted(adj[w])
        for a, b in itertools.combinations(nb, 2):
            if connected_without(w, a, b):
                ea = index[(min(a, w), max(a, w))]
                eb = index[(min(b, w), max(b, w))]
            else:
                continue
            ra, rb = find(ea), find(eb)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for e, k in index.items():
        groups.setdefault(find(k), set()).update(e)
    return {frozenset(g) for g in groups.values()}
