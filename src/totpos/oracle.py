"""Brute-force reference solver for small dimensions.

Enumerates every candidate set of binding off-diagonal constraints, solves
the equality-restricted problem for each by a dense Newton iteration that is
wholly independent of the coordinate-descent code paths, and keeps the
candidate whose solution satisfies the full sign system.  Exactly one
candidate passes on generic inputs, which makes this a trustworthy oracle
for validating the production solver at p <= 5.

The Newton iteration runs batched, once per subset size, on the stack of
every candidate set of that size: stacked inversions, Cholesky
factorizations and solves.  When one member makes a stacked call fail, the
call is redone member by member, so that only that candidate fails.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .matcore import SymMatrix, rescale_solution, to_correlation
from .solver import KktCertificate, MleDoesNotExist, exists_mle, kkt_certificate

logger = logging.getLogger(__name__)

MAX_ORACLE_DIM = 5
SIGN_TOL = 1e-9
NEWTON_TOL = 1e-12
# The 60 step lengths 1, 1/2, ..., 2^-59 of the line search, in blocks of
# doubling width that one stacked Cholesky tries together: a member that
# needs h halvings takes about log2(h) rounds and at most 2h + 1 trial steps.
_HALVING_BLOCKS = np.split(0.5 ** np.arange(60), [1, 3, 7, 15, 31])


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
    the shape of the last stack (true of inv, cholesky and solve).
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

    One damped Newton iteration runs on the stack of every support: each
    member leaves it once its gradient residual is below NEWTON_TOL, and
    yields None when a step fails (singular K or Hessian, or no increase in
    60 step halvings) or after 200 steps.  Cholesky is the positive
    definiteness test of the line search.
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

    def log_likelihoods(k):
        # NaN where Cholesky rejects the member
        low, _ = _stacked(np.linalg.cholesky, k)
        logdet = 2.0 * np.log(low.diagonal(axis1=1, axis2=2)).sum(axis=1)
        return logdet - (r * k).sum(axis=(1, 2))

    theta = np.zeros(idx_i.shape)
    theta[:, :p] = 1.0  # identity start on correlation scale
    k = assemble(theta, idx_i, idx_j)
    ll = log_likelihoods(k)
    live = np.arange(len(pairs))  # members still iterating
    for _ in range(200):
        sigma, ok = _stacked(np.linalg.inv, k)
        rows = np.arange(len(live))[:, None]
        grad = mult * (sigma[rows, idx_i, idx_j] - r[idx_i, idx_j])
        done = ok & (np.abs(grad).max(axis=1) < NEWTON_TOL)
        for b in np.flatnonzero(done):
            out[live[b]] = k[b]
        keep = ok & ~done
        live, theta, k, ll = live[keep], theta[keep], k[keep], ll[keep]
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
        step = step[:, :, 0]
        # step-halving line search, a block of step lengths per round; each
        # member takes the largest that passes, and one without a step fails
        pending = ok.copy()
        for block in _HALVING_BLOCKS:
            at = np.flatnonzero(pending)
            if not len(at):
                break
            width = len(block)
            cand_theta = theta[at, None] + block[:, None] * step[at, None]
            cand_theta = cand_theta.reshape(-1, theta.shape[1])
            rep = np.repeat(at, width)
            cand = assemble(cand_theta, idx_i[rep], idx_j[rep])
            cand_ll = log_likelihoods(cand)
            passed = cand_ll.reshape(-1, width) >= ll[at, None] - 1e-12
            hit = passed.any(axis=1)
            pick = width * np.flatnonzero(hit) + passed.argmax(axis=1)[hit]
            won = at[hit]
            theta[won], k[won], ll[won] = cand_theta[pick], cand[pick], cand_ll[pick]
            pending[won] = False
        keep = ok & ~pending
        live, theta, k, ll = live[keep], theta[keep], k[keep], ll[keep]
        idx_i, idx_j = idx_i[keep], idx_j[keep]
    return out


def _restricted_mle(r: np.ndarray, support_pairs) -> np.ndarray | None:
    """``_restricted_mles`` for one support: the precision matrix with
    gradient residual below NEWTON_TOL, or None when the iteration fails."""
    return _restricted_mles(r, [support_pairs])[0]


def active_set_oracle(s: SymMatrix) -> ActiveSetSolution:
    """Reference solution by exhausting candidate binding sets.

    For every subset E of off-diagonal pairs, solves the problem restricted
    to covariances matching the sample on E (equivalently, precisions
    supported on E), then accepts the solution iff its precision entries on
    E are nonpositive and its covariance dominates the sample off E.  The
    lexicographically smallest passing set is returned; generically it is
    unique.
    """
    if s.dim > MAX_ORACLE_DIM:
        raise ValueError(f"oracle supports p <= {MAX_ORACLE_DIM}")
    if not exists_mle(s):
        raise MleDoesNotExist("oracle requires an input with an attained optimum")
    r, scale = to_correlation(s)
    rv = r.values
    p = r.dim
    all_pairs = list(combinations(range(p), 2))
    passing: list[tuple[tuple[tuple[int, int], ...], np.ndarray]] = []
    for size in range(len(all_pairs) + 1):
        subsets = list(combinations(all_pairs, size))
        solved = []
        for subset, k in zip(subsets, _restricted_mles(rv, subsets)):
            if k is None:
                logger.info("restricted solve failed for candidate set %s", subset)
            else:
                solved.append((subset, k))
        if not solved:
            continue
        # each K was inverted in its last Newton step, so this cannot raise
        sigmas = np.linalg.inv(np.array([k for _, k in solved]))
        for (subset, k), sigma in zip(solved, sigmas):
            chosen = set(subset)
            ok = True
            for i, j in all_pairs:
                if (i, j) in chosen:
                    if k[i, j] > SIGN_TOL:
                        ok = False
                        break
                elif sigma[i, j] - rv[i, j] < -SIGN_TOL:
                    ok = False
                    break
            if ok:
                passing.append((subset, sigma))
    if not passing:
        raise NoKktPoint("no candidate active set satisfied the optimality system")
    if len(passing) > 1:
        logger.info("%d candidate sets passed; keeping the smallest", len(passing))
    subset, sigma = min(passing, key=lambda entry: sorted(entry[0]))
    sigma_r = SymMatrix((sigma + sigma.T) / 2.0, labels=s.labels)
    sigma_full = rescale_solution(sigma_r, scale)
    cert = kkt_certificate(s, sigma_full)
    return ActiveSetSolution(frozenset(subset), sigma_full, cert)
