"""Coordinate descent solvers for the M-matrix constrained Gaussian MLE.

The estimation problem maximizes log det K - tr(S K) over symmetric positive
definite K with nonpositive off-diagonal entries.  Its dual minimizes
-log det Sigma - p over Sigma matching S on the diagonal and dominating S
off the diagonal.  Two sweeps solve it, both cycling over vertex pairs in
lexicographic order with a closed-form exact maximization per pair:

* descent on K updates the 2x2 block K_AA for A = {u, v}: with
  L = K_AB K_BB^{-1} K_BA, the unconstrained pair optimum S_AA^{-1} is taken
  when it keeps K_uv nonpositive (L_12 <= S_uv / (S_uu S_vv - S_uv^2)),
  otherwise the constraint binds and the diagonal is adjusted to
  (1 + sqrt(1 + 4 S_uu S_vv L_12^2)) / (2 S_uu) (resp. S_vv) with the
  off-diagonal pinned at -L_12;
* descent on Sigma sets Sigma_uv = max(S_uv, L_12) with
  L = Sigma_AB Sigma_BB^{-1} Sigma_BA, which zeroes K_uv unless the dual
  bound binds.

Both iterations increase the likelihood at every step and converge to the
unique optimum.  Everything runs on correlation scale internally (the
estimator is equivariant under diagonal rescaling), so tolerances are
dimensionless; results are rescaled on the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph
from .matcore import (
    SymMatrix,
    NotPositiveDefinite,
    inverse_pd,
    log_likelihood,
    pd_factorize,
    rescale_solution,
    to_correlation,
)
from .ultra import single_linkage

# Existence margin: inputs with a normalized off-diagonal entry within this
# relative distance of one are rejected, the likelihood being unbounded or
# nearly so there.
EXIST_MARGIN = 1e-12

# Default tolerance at which fitted certificates are evaluated.
CERT_TOL = 1e-6


class MleDoesNotExist(ValueError):
    """The existence pre-check failed for the given sample covariance."""


class MaxSweepsExceeded(RuntimeError):
    """The sweep budget ran out; carries the best iterate as ``result``."""

    def __init__(self, result: "FitResult"):
        self.result = result
        super().__init__(
            f"no convergence within {result.sweeps} sweeps "
            f"(certificate passed: {result.certificate.passed})"
        )


@dataclass(frozen=True)
class FitConfig:
    """Solver configuration.

    algorithm "sigma" runs coordinate descent on the covariance, "k" on the
    precision matrix.  edge_threshold is the relative cutoff under which
    fitted precision entries are treated as exact zeros when reading off the
    graph.
    """

    tolerance: float = 1e-10
    max_sweeps: int = 10_000
    algorithm: str = "sigma"
    edge_threshold: float = 1e-6

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.algorithm not in ("sigma", "k"):
            raise ValueError("algorithm must be 'sigma' or 'k'")
        if not self.edge_threshold > 0:
            raise ValueError("edge_threshold must be positive")


@dataclass(frozen=True)
class KktCertificate:
    """Stationarity residuals of a candidate solution, on correlation scale.

    primal_max: largest off-diagonal entry of the fitted precision (sign
        constraint; should be <= tol).
    diag_max: largest deviation of the fitted variances from the sample ones.
    dual_min: smallest margin of the fitted covariances over the sample ones
        (should be >= -tol).
    slack_max: largest complementary-slackness product
        |(Sigma_ij - S_ij) K_ij|.
    """

    primal_max: float
    diag_max: float
    dual_min: float
    slack_max: float
    passed: bool
    tol: float = CERT_TOL


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted pair with its certificate and graph.

    ``sweeps`` counts the sweeps actually executed; ``ml_graph`` carries the
    magnitude of the (correlation scale) precision entry as edge weight.
    """

    sigma_hat: SymMatrix
    k_hat: SymMatrix
    certificate: KktCertificate
    sweeps: int
    log_likelihood: float
    duality_gap: float
    ml_graph: WeightedGraph


def exists_mle(s: SymMatrix) -> bool:
    """Sufficient existence check: S_ij strictly below sqrt(S_ii S_jj).

    Normalized entries within EXIST_MARGIN of one are rejected as well, the
    problem being numerically unbounded there.  Holds with probability one
    for sample covariances built from at least two observations.
    """
    r, _ = to_correlation(s)
    if r.dim == 1:
        return True
    off = r.values[~np.eye(r.dim, dtype=bool)]
    return bool(off.max() < 1.0 - EXIST_MARGIN)


def _pair_indices(p: int) -> list[tuple[int, int, np.ndarray]]:
    pairs = []
    for u in range(p):
        for v in range(u + 1, p):
            rest = np.array([k for k in range(p) if k != u and k != v], dtype=int)
            pairs.append((u, v, rest))
    return pairs


def _update_pair_sigma(sig: np.ndarray, s: np.ndarray, u: int, v: int, rest: np.ndarray) -> float:
    """Exact maximization over Sigma_uv; returns the absolute change."""
    if rest.size:
        bb = sig[np.ix_(rest, rest)]
        x = np.linalg.solve(bb, sig[rest, v])
        l12 = float(sig[u, rest] @ x)
    else:
        l12 = 0.0
    new = max(s[u, v], l12)
    change = abs(new - sig[u, v])
    sig[u, v] = sig[v, u] = new
    return change


def _update_pair_k(k: np.ndarray, s: np.ndarray, u: int, v: int, rest: np.ndarray) -> float:
    """Exact maximization over the (u, v) block of K; returns the L1 change."""
    if rest.size:
        cols = np.linalg.solve(k[np.ix_(rest, rest)], k[np.ix_(rest, [u, v])])
        l = k[np.ix_([u, v], rest)] @ cols
        l12 = float(l[0, 1])
    else:
        l = np.zeros((2, 2))
        l12 = 0.0
    suu, svv, suv = s[u, u], s[v, v], s[u, v]
    det = suu * svv - suv * suv
    # det == 0 only when the normalized entry sits at -1 (the +1 side is
    # rejected by the existence check); the product form keeps that case in
    # the constrained branch without dividing by zero.
    if l12 * det <= suv:
        k11, k22, k12 = svv / det, suu / det, -suv / det
    else:
        root = math.sqrt(1.0 + 4.0 * suu * svv * l12 * l12)
        k11 = (1.0 + root) / (2.0 * suu)
        k22 = (1.0 + root) / (2.0 * svv)
        k12 = -l12
    new_uu = k11 + l[0, 0]
    new_vv = k22 + l[1, 1]
    new_uv = k12 + l12
    change = abs(new_uu - k[u, u]) + abs(new_vv - k[v, v]) + 2.0 * abs(new_uv - k[u, v])
    k[u, u], k[v, v] = new_uu, new_vv
    k[u, v] = k[v, u] = new_uv
    return change


def _descend(r: SymMatrix, cfg: FitConfig) -> tuple[np.ndarray, int, bool]:
    """Run the configured sweep on correlation scale; returns (iterate, sweeps, converged).

    The covariance sweep starts from R itself when it is positive definite,
    else from its single-linkage matrix; the precision sweep starts from the
    identity.  The optimum is unique, so the start affects only the path.
    """
    p = r.dim
    s = r.values
    if cfg.algorithm == "sigma":
        try:
            pd_factorize(r)
            cur = s.copy()
        except NotPositiveDefinite:
            cur = single_linkage(r).values.copy()
        step = _update_pair_sigma
    else:
        cur = np.eye(p)
        step = _update_pair_k
    pairs = _pair_indices(p)
    for sweep in range(1, cfg.max_sweeps + 1):
        change = 0.0
        for u, v, rest in pairs:
            c = step(cur, s, u, v, rest)
            if cfg.algorithm == "sigma":
                c *= 2.0  # both triangles count toward the L1 metric
            change += c
        # The L1 metric is scaled by the largest diagonal entry of the
        # iterate: a no-op on correlation-scale covariance sweeps, but
        # required for the precision sweep, whose entries grow like the
        # reciprocal boundary distance and whose per-sweep recomputation
        # noise then dwarfs any absolute threshold.
        if change < cfg.tolerance * max(1.0, float(cur.diagonal().max())):
            return cur, sweep, True
    return cur, cfg.max_sweeps, False


def fit(s: SymMatrix, cfg: FitConfig | None = None) -> FitResult:
    """Compute the constrained MLE pair (Sigma_hat, K_hat) for a sample covariance.

    Normalizes to correlation scale, runs the configured coordinate sweep
    until the entrywise L1 change per sweep drops below the tolerance,
    rescales back, and attaches a certificate evaluated at CERT_TOL.

    Raises:
        MleDoesNotExist: the existence pre-check failed.
        MaxSweepsExceeded: the sweep budget ran out; the exception carries
            the best iterate with its certificate as ``result``.
    """
    cfg = cfg or FitConfig()
    if not exists_mle(s):
        raise MleDoesNotExist(
            "no maximum likelihood estimate: some normalized entry reaches one"
        )
    r, scale = to_correlation(s)
    iterate, sweeps, converged = _descend(r, cfg)
    if cfg.algorithm == "sigma":
        sigma_r = SymMatrix(iterate, labels=s.labels)
        k_r = inverse_pd(sigma_r)
    else:
        k_r = SymMatrix(iterate, labels=s.labels)
        sigma_r = inverse_pd(k_r)
    result = _build_result(s, scale, sigma_r, k_r, sweeps, cfg)
    if not converged:
        raise MaxSweepsExceeded(result)
    return result


def _build_result(s, scale, sigma_r, k_r, sweeps, cfg) -> FitResult:
    sigma_vals = rescale_solution(sigma_r, scale).values.copy()
    # the variances are equality constraints; pin them exactly
    np.fill_diagonal(sigma_vals, s.values.diagonal())
    sigma_hat = SymMatrix(sigma_vals, labels=s.labels)
    k_hat = SymMatrix(k_r.values / np.outer(scale, scale), labels=s.labels)
    cert = kkt_certificate(s, sigma_hat, tol=CERT_TOL)
    cutoff = cfg.edge_threshold * float(k_r.values.diagonal().max())
    edges = [
        (i, j, abs(float(k_r.values[i, j])))
        for i in range(s.dim)
        for j in range(i + 1, s.dim)
        if abs(k_r.values[i, j]) > cutoff
    ]
    graph = WeightedGraph(s.dim, tuple(edges))
    ll = log_likelihood(k_hat, s)
    gap = duality_gap(s, k_hat, sigma_hat)
    return FitResult(sigma_hat, k_hat, cert, sweeps, ll, gap, graph)


def duality_gap(s: SymMatrix, k: SymMatrix, sigma: SymMatrix) -> float:
    """Gap between the dual and primal objectives for a feasible pair.

    Nonnegative for a primal-feasible K and dual-feasible Sigma, zero
    exactly at the optimum.
    """
    if not (s.dim == k.dim == sigma.dim):
        raise ValueError("dimension mismatch")
    return (
        -pd_factorize(sigma).log_det
        - pd_factorize(k).log_det
        + float((s.values * k.values).sum())
        - s.dim
    )


def kkt_certificate(s: SymMatrix, sigma_hat: SymMatrix, tol: float = CERT_TOL) -> KktCertificate:
    """Evaluate the optimality system for a candidate covariance.

    Both inputs are normalized by sqrt(S_ii S_jj) first, so the residuals
    are dimensionless and the verdict is invariant under diagonal rescaling
    of the data.
    """
    if s.dim != sigma_hat.dim:
        raise ValueError("dimension mismatch")
    r, scale = to_correlation(s)
    sig = SymMatrix(sigma_hat.values / np.outer(scale, scale), labels=None)
    k = inverse_pd(sig)
    if s.dim == 1:
        diag_max = float(abs(sig.values[0, 0] - 1.0))
        return KktCertificate(0.0, diag_max, 0.0, 0.0, bool(diag_max <= tol), tol)
    off = ~np.eye(s.dim, dtype=bool)
    margin = sig.values - r.values
    primal_max = float(k.values[off].max())
    diag_max = float(np.abs(sig.values.diagonal() - 1.0).max())
    dual_min = float(margin[off].min())
    slack_max = float(np.abs(margin[off] * k.values[off]).max())
    passed = bool(
        primal_max <= tol and diag_max <= tol and dual_min >= -tol and slack_max <= tol
    )
    return KktCertificate(primal_max, diag_max, dual_min, slack_max, passed, tol)
