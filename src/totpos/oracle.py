"""Brute-force reference solver for small dimensions.

Enumerates every candidate set of binding off-diagonal constraints, solves
the equality-restricted problem for each, and keeps the candidate whose
solution satisfies the full sign system.  Exactly one candidate passes on
generic inputs, which makes this a trustworthy oracle for validating the
production solver at p <= 5.  No code of the coordinate-descent paths is
used.

A candidate's restricted problem is solved in one of three ways:

* **No maximum.** When a clique of the candidate graph has a correlation
  block that fails the pivot test of ``matcore.cholesky`` (through
  ``pd_mask``: a pivot not above 1e-12 times the largest diagonal entry),
  no positive definite covariance matches the sample on it, so there is no
  maximum.  At n = 2 every three-vertex block is singular, so this settles
  most candidates without an iteration.
* **Closed form on chordal graphs.** Removing simplicial vertices v in
  turn, with F_v = {v} + N_v and N_v the neighbours of v among the vertices
  left, gives K = sum_v ([R_{F_v}^-1]^0 - [R_{N_v}^-1]^0) (Lauritzen 1996,
  Graphical Models, Prop. 5.9).  Each K is a fixed signed sum of the padded
  inverses of the 2^p - 1 principal blocks, so all chordal candidates
  (822 of 1024 at p = 5) take one matrix product per call.
* **Newton on the rest.** The non-chordal candidates go to a dense damped
  Newton iteration, run batched, once per subset size, on the stack of
  every such candidate of that size: stacked inversions and solves, and
  the step 1 / (1 + lam) of a self-concordant function in place of a line
  search.  When one member makes a stacked call fail, the call is redone
  member by member, so that only that candidate fails.

On a 2-vCPU machine with one BLAS thread, a p = 5 call took a median of
17 ms of CPU time on n = 10 inputs and 36 ms at n = 2 (against 20 ms and
0.49 s with a step-halving line search, and 63-66 ms and 9-12 s when every
candidate ran Newton).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .matcore import SymMatrix, pd_mask, rescale_solution, to_correlation
from .solver import KktCertificate, MleDoesNotExist, _exists, kkt_certificate

logger = logging.getLogger(__name__)

MAX_ORACLE_DIM = 5
SIGN_TOL = 1e-9
NEWTON_TOL = 1e-12


class NoKktPoint(RuntimeError):
    """No candidate active set satisfied the full optimality system."""


@dataclass(frozen=True, eq=False)
class ActiveSetSolution:
    """Binding set (pairs where the covariance matches the sample) and solution."""

    active_set: frozenset[tuple[int, int]]
    sigma: SymMatrix
    kkt: KktCertificate


def _stacked(fn, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fn`` on stacked arrays, and the mask of members it succeeded on.

    A LinAlgError from the stacked call is redone member by member, so that
    only the offending members fail; their results are NaN.  The result has
    the shape of the last stack (true of inv and solve).
    """
    try:
        return fn(*stacks), np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full(stacks[-1].shape, np.nan)
    ok = np.zeros(len(out), dtype=bool)
    for b, member in enumerate(zip(*stacks)):
        try:
            out[b] = fn(*member)
        except np.linalg.LinAlgError:
            continue
        ok[b] = True
    return out, ok


def _restricted_mles(r: np.ndarray, supports) -> list[np.ndarray | None]:
    """Newton iterations maximizing the likelihood over K supported on each
    of the given pair sets, which all have the same size.

    One damped Newton iteration runs on the stack of every support, from the
    identity: each member leaves it once its gradient residual is below
    NEWTON_TOL, and yields None when ``inv`` or ``solve`` fails (singular K
    or Hessian), when its squared Newton decrement is not positive, or after
    200 steps.  The step is the damped Newton step of a self-concordant
    function (Nesterov and Nemirovski 1994; Boyd and Vandenberghe 2004,
    sec. 9.6): 1 / (1 + lam) of the Newton step, a full step once
    lam <= 1/4.  It keeps K positive definite and raises the likelihood, so
    no line search is needed.
    """
    p = r.shape[0]
    pairs = np.array(supports, dtype=int).reshape(len(supports), -1, 2)
    diag = np.broadcast_to(np.arange(p), (len(pairs), p))
    idx_i = np.concatenate([diag, pairs[:, :, 0]], axis=1)
    idx_j = np.concatenate([diag, pairs[:, :, 1]], axis=1)
    mult = np.where(np.arange(idx_i.shape[1]) < p, 1.0, 2.0)
    out: list[np.ndarray | None] = [None] * len(pairs)

    def assemble(theta, ii, jj):
        k = np.zeros((len(theta), p, p))
        rows = np.arange(len(theta))[:, None]
        k[rows, ii, jj] = theta
        k[rows, jj, ii] = theta
        return k

    theta = np.zeros(idx_i.shape)
    theta[:, :p] = 1.0  # identity start on correlation scale
    k = assemble(theta, idx_i, idx_j)
    live = np.arange(len(pairs))  # members still iterating
    for _ in range(200):
        sigma, ok = _stacked(np.linalg.inv, k)
        rows = np.arange(len(live))[:, None]
        grad = mult * (sigma[rows, idx_i, idx_j] - r[idx_i, idx_j])
        done = ok & (np.abs(grad).max(axis=1) < NEWTON_TOL)
        for b in np.flatnonzero(done):
            out[live[b]] = k[b]
        keep = ok & ~done
        live, theta = live[keep], theta[keep]
        idx_i, idx_j, sigma, grad = idx_i[keep], idx_j[keep], sigma[keep], grad[keep]
        if not len(live):
            break
        rows = np.arange(len(live))[:, None, None]
        ii, jj = idx_i[:, :, None], idx_j[:, :, None]
        ti, tj = idx_i[:, None, :], idx_j[:, None, :]
        hess = -0.5 * np.outer(mult, mult) * (
            sigma[rows, ii, ti] * sigma[rows, jj, tj] + sigma[rows, ii, tj] * sigma[rows, jj, ti]
        )
        step, ok = _stacked(np.linalg.solve, hess, -grad[:, :, None])
        # the squared Newton decrement; it is not positive once a diverging K
        # leaves the Hessian indefinite in floating point
        lam2 = (grad * step[:, :, 0]).sum(axis=1)
        ok &= lam2 > 0.0
        live, theta, idx_i, idx_j = live[ok], theta[ok], idx_i[ok], idx_j[ok]
        lam = np.sqrt(lam2[ok])
        theta = theta + np.where(lam > 0.25, 1.0 / (1.0 + lam), 1.0)[:, None] * step[ok, :, 0]
        k = assemble(theta, idx_i, idx_j)
    return out


@dataclass(frozen=True, eq=False)
class _Plan:
    """The candidate sets of one dimension and what the closed form needs of
    them.  Vertex subsets are the bit masks 1 .. 2^p - 1, stored at mask - 1;
    pairs are in combinations order."""

    supports: list[tuple[tuple[int, int], ...]]  # by size, in combinations order
    on_set: np.ndarray  # (candidates, pairs): the pair is in the set
    blocks: np.ndarray  # (subsets, p, p): both vertices are in the subset
    cliques: np.ndarray  # (candidates, subsets): the subset is a clique of two or more
    chordal: np.ndarray  # indices of the chordal candidates
    coef: np.ndarray  # (chordal, subsets): closed-form weight of each padded inverse
    newton: list[np.ndarray]  # indices of the other candidates, one array per size


def _is_clique(adj: list[int], vertices: int) -> bool:
    """Whether the vertex bit mask is complete in the graph of neighbour bit masks."""
    return all(not vertices & ~(adj[u] | 1 << u) for u in range(len(adj)) if vertices >> u & 1)


def _elimination_weights(adj: list[int]) -> np.ndarray | None:
    """The weights of the padded block inverses in the closed-form K of the
    graph of neighbour bit masks ``adj``, read off a perfect elimination
    order; None when the graph is not chordal (no vertex left is simplicial)."""
    p = len(adj)
    weights = np.zeros(2**p - 1)
    left = 2**p - 1
    while left:
        for v in range(p):
            nbrs = adj[v] & left
            if left >> v & 1 and _is_clique(adj, nbrs):
                break
        else:
            return None
        weights[(nbrs | 1 << v) - 1] += 1.0
        if nbrs:
            weights[nbrs - 1] -= 1.0
        left &= ~(1 << v)
    return weights


@cache
def _plan(p: int) -> _Plan:
    """The plan of dimension ``p``, built on first use."""
    all_pairs = list(combinations(range(p), 2))
    combos = [c for size in range(len(all_pairs) + 1) for c in combinations(range(len(all_pairs)), size)]
    on_set = np.zeros((len(combos), len(all_pairs)), dtype=bool)
    for c, combo in enumerate(combos):
        on_set[c, list(combo)] = True
    members = (np.arange(1, 2**p)[:, None] >> np.arange(p)) & 1 == 1
    iu, ju = np.triu_indices(p, 1)
    inside = members[:, iu] & members[:, ju]  # (subsets, pairs)
    cliques = ~(inside[None] & ~on_set[:, None]).any(axis=2) & (members.sum(axis=1) >= 2)
    chordal, coef = [], []
    for c, combo in enumerate(combos):
        adj = [0] * p
        for i, j in (all_pairs[k] for k in combo):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        weights = _elimination_weights(adj)
        if weights is not None:
            chordal.append(c)
            coef.append(weights)
    rest = np.ones(len(combos), dtype=bool)
    rest[chordal] = False
    sizes = on_set.sum(axis=1)
    newton = [np.flatnonzero(rest & (sizes == size)) for size in np.unique(sizes[rest])]
    supports = [tuple(all_pairs[k] for k in combo) for combo in combos]
    blocks = members[:, :, None] & members[:, None, :]
    return _Plan(supports, on_set, blocks, cliques, np.array(chordal), np.array(coef), newton)


def _candidate_mles(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The restricted maximizer K for every candidate set of ``_plan(p)``,
    NaN where there is none, and the mask of the candidates without one
    because a clique block fails the pivot test."""
    p = r.shape[0]
    plan = _plan(p)
    eye = np.eye(p)
    padded = np.where(plan.blocks, r, eye)
    pd = pd_mask(padded)
    # [R_CC^-1]^0 for every subset C; identity in place of a failed block
    inverses = np.where(plan.blocks, np.linalg.inv(np.where(pd[:, None, None], padded, eye)), 0.0)
    inverses = (inverses + inverses.transpose(0, 2, 1)) / 2.0
    singular = (plan.cliques & ~pd).any(axis=1)

    ks = np.full((len(plan.supports), p, p), np.nan)
    solvable = ~singular[plan.chordal]
    ks[plan.chordal[solvable]] = (plan.coef[solvable] @ inverses.reshape(-1, p * p)).reshape(-1, p, p)
    for group in plan.newton:
        at = group[~singular[group]]
        if not len(at):
            continue
        for c, k in zip(at, _restricted_mles(r, [plan.supports[c] for c in at])):
            if k is not None:
                ks[c] = k
    return ks, singular


def active_set_oracle(s: SymMatrix) -> ActiveSetSolution:
    """Reference solution by exhausting candidate binding sets.

    For every subset E of off-diagonal pairs, solves the problem restricted
    to covariances matching the sample on E (equivalently, precisions
    supported on E), then accepts the solution iff its precision entries on
    E are nonpositive and its covariance dominates the sample off E.  The
    lexicographically smallest passing set is returned; generically it is
    unique.

    Candidates with a clique whose correlation block fails the pivot test
    have no maximum; chordal candidates are solved in closed form from the
    inverses of the principal blocks, and only the remaining ones run the
    Newton iteration of ``_restricted_mles``.  At p = 5 (2 vCPUs, one BLAS
    thread) a call took a median of 17 ms at n = 10 and 36 ms at n = 2,
    against 63-66 ms and 9-12 s with Newton on every candidate.  One log line
    per call counts the candidates without a maximum, by reason.
    """
    if s.dim > MAX_ORACLE_DIM:
        raise ValueError(f"oracle supports p <= {MAX_ORACLE_DIM}")
    r, scale = to_correlation(s)
    if not _exists(r):
        raise MleDoesNotExist("oracle requires an input with an attained optimum")
    rv = r.values
    p = r.dim
    plan = _plan(p)
    ks, singular = _candidate_mles(rv)
    at = np.flatnonzero(~np.isnan(ks[:, 0, 0]))
    sigmas, inverted = _stacked(np.linalg.inv, ks[at])
    if len(at) < len(ks):
        logger.info(
            "%d of %d candidate sets have no maximum: %d with a clique block failing "
            "the pivot test, %d where the Newton iteration failed",
            len(ks) - len(at), len(ks), singular.sum(), len(ks) - len(at) - singular.sum(),
        )
    # one sign test for every solved set: K nonpositive on the set, the
    # covariance above the sample off it
    iu, ju = np.triu_indices(p, 1)
    bad = np.where(
        plan.on_set[at], ks[at][:, iu, ju] > SIGN_TOL, sigmas[:, iu, ju] - rv[iu, ju] < -SIGN_TOL
    ).any(axis=1)
    passing = np.flatnonzero(inverted & ~bad)
    if not len(passing):
        raise NoKktPoint("no candidate active set satisfied the optimality system")
    if len(passing) > 1:
        logger.info("%d candidate sets passed; keeping the smallest", len(passing))
    best = min(passing, key=lambda b: sorted(plan.supports[at[b]]))
    sigma = sigmas[best]
    sigma_r = SymMatrix((sigma + sigma.T) / 2.0, labels=s.labels)
    sigma_full = rescale_solution(sigma_r, scale)
    cert = kkt_certificate(s, sigma_full)
    return ActiveSetSolution(frozenset(plan.supports[at[best]]), sigma_full, cert)
