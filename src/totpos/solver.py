"""Coordinate descent solvers for the M-matrix constrained Gaussian MLE.

The estimation problem maximizes log det K - tr(S K) over symmetric positive
definite K with nonpositive off-diagonal entries.  Its dual minimizes
-log det Sigma - p over Sigma matching S on the diagonal and dominating S
off the diagonal.  Everything runs on the correlation matrix R (the
estimator is equivariant under diagonal rescaling), so tolerances are
dimensionless; results are rescaled on the way out.

One loop, ``_descend``, runs the sweep that ``FitConfig.algorithm`` names
in ``_SWEEPS`` on a stack (m, p, p) of matrices R with their max-product
closures W: ``fit`` builds W = ``w_matrix(R)`` once and runs a stack of one,
the sign search its chunks of switched matrices.  A ``_SWEEPS`` entry is a
function of R and W that returns the start iterates, a per-member state,
a callable that runs one sweep in place and returns each member's L1
change, and a callable that returns each member's support (the
off-diagonal pairs it treats as edges).  A member leaves the stack when
its change falls below tolerance * max(1, largest diagonal entry of its
iterate), or when the Newton finish below is accepted.  It hands on its
pair (Sigma, K): the accepted finish's own, else its last iterate and that
iterate's one inverse.  ``_build_result`` only rescales the pair, so K_hat
is the solver's own, exactly zero off an accepted finish's support, and the
certificate and the gap read the pair on the correlation scale.  Both
sweeps increase the likelihood at every step and converge to the unique
optimum, but only at a linear rate:

* "k" cycles over vertex pairs in lexicographic order and updates the 2x2
  block K_AA for A = {u, v}: with L = K_AB K_BB^{-1} K_BA, the
  unconstrained pair optimum S_AA^{-1} is taken when it keeps K_uv
  nonpositive (L_12 <= S_uv / (S_uu S_vv - S_uv^2)), otherwise the
  constraint binds and the diagonal is adjusted to
  (1 + sqrt(1 + 4 S_uu S_vv L_12^2)) / (2 S_uu) (resp. S_vv) with the
  off-diagonal pinned at -L_12;
* "sigma" cycles over columns and maximizes log det Sigma exactly over
  column j, Sigma_oo and Sigma_jj = 1 fixed (o the other vertices; the
  block coordinate descent of Slawski & Hein, glasso's column update at
  lambda = 0).  With x = Sigma_oj, log det Sigma = log det Sigma_oo +
  log(1 - x' Sigma_oo^{-1} x), minimized over x >= r_oj at x = Sigma_oo
  beta, beta = argmin over beta >= 0 of 1/2 beta' Sigma_oo beta - r_oj'
  beta; at the optimum beta = -K_oj/K_jj, positive on the ML edges.  x is
  written as max(r_oj, Sigma_oo beta), so every iterate is dual feasible.
  Without the finish, on the p = 20, n = 40 inputs of perfbench's
  ``fit_mixed``, it took 11 sweeps at the median, where the pair step
  Sigma_uv = max(S_uv, L_12), L = Sigma_AB Sigma_BB^{-1} Sigma_BA
  (``_update_pair_sigma``), took 52.

The support stops changing long before the sweeps converge: on those
inputs after 2-3 sweeps, against 11 for "sigma" and 26 for "k".  Once the
ML graph is known, the MLE is the smooth Gaussian graphical-model problem on
that graph, which Newton's method solves in a few steps (QUIC's "identify
the free set, then take Newton steps").  So after a sweep that does not
meet the stopping rule, ``_descend`` reads each member's support; when it
equals the previous sweep's and was never tried, ``_newton`` maximizes
log det K - tr(R K) over K supported on the diagonal and that support,
from the current K (for "sigma", Sigma^{-1} projected onto the support),
by damped Newton steps with Cholesky solves and capped steps.  The result
is accepted only when the whole KKT system of the constrained problem
holds at the sweep's tolerance: Sigma = R on the diagonal and the
support, K_ij <= 0 there (partial-correlation scale) and Sigma_ij >= r_ij
off it.  Then the fit stops as converged, and ``sweeps`` counts the sweeps
run; otherwise sweeping goes on, so the sweeps stay the globally
convergent path.  On the 128 ``fit_mixed`` inputs of seed 301 (2-vCPU
Xeon, one BLAS thread, best of three, two rounds) "sigma" fits took 3
sweeps (at most 5) and 5.4-5.5 ms at the median, against 11 (17) and
12.2-12.3 ms without the finish; "k" fits 6 (11) and 7.1-9.2 ms, against
27 (39) and 20-22 ms.  Where the
Cholesky inverse of an ill-conditioned K is about as noisy as the
tolerance (K_ii of 1e5 and more at n = 2), the finish can be rejected, and
the sweeps decide.

The covariance sweep starts at W.  The MLE has an M-matrix inverse, so it
has the path-product property Sigma_ij >= Sigma_ik Sigma_kj, and it
dominates R; the product of the r's along any path is then at most
Sigma_ij, so R <= W <= Sigma_hat entrywise.  W is thus dual feasible and
sits just below the optimum, and it is the optimum when the block closed
form applies: the carcass fit, and 40 of 40 seeded p = 6, n = 2 fits,
converge in one sweep from it.  When ``pd_mask`` refuses W the sweep
starts at the single-linkage matrix, which is positive definite and dual
feasible whenever every correlation is below one.

The precision sweep starts at the identity and visits only the pairs of the
paper's upper bound G+ on the ML graph: the r_uv that attain their best
path product W_uv > 0, within EC_SLACK (``grw_mask``, the mask of
``ml_graph_upper_bound``); the covariance sweep guesses its first active
sets there.  The MLE has K_uv = 0 off G+, so it also solves
the problem restricted to K supported on G+; that problem is strictly
concave, and a pair update writes only its own three entries, so the sweep
stays on G+ and converges to the same K.  About 40% of the pairs are in G+
at n = 2p, and about p at n = 2.  The certificate still checks every pair,
so a wrong screen cannot pass.

The precision sweep keeps one (p-2)x(p-2) LU solve per pair:
``_pair_indices`` lists each pair's other vertices B once per pair of the
stack, the update takes K_BB and K_BA from the rows of K at B, and LAPACK's
dgesv is called directly, member by member.  Those lists take O(|G+| p)
memory: at n = 2p, 0.8 MB at p = 80 (about 1300 pairs) and 6.5 MB at
p = 160 (about 5100).  Keeping Sigma = K^{-1} beside K instead would take L
as K_AA - (Sigma_AA)^{-1}, which cancels badly when K is large: on a p = 6,
n = 2 input with a correlation within 1e-9 of one (K_ii near 5e8), such a
sweep still moved K by 1e1 to 9e2 (L1) per sweep after 1000 sweeps,
against a stopping threshold of 0.05, where the solve stops after 3
sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dpotrf, dpotrs

from .graphs import WeightedGraph
from .matcore import (
    SymMatrix,
    NotPositiveDefinite,
    cholesky,
    inverse,
    inverse_pd,
    pd_factorize,
    pd_mask,
    to_correlation,
)
from .ultra import EC_SLACK, grw_mask, single_linkage, w_matrix

# Existence margin: inputs with a normalized off-diagonal entry within this
# relative distance of one are rejected, the likelihood being unbounded or
# nearly so there.
EXIST_MARGIN = 1e-12

# Tolerance at which fitted certificates are evaluated.
CERT_TOL = 1e-6

# Exchanges of a column step's whole failing set that a member may make
# without lowering its failing count before it moves one entry at a time.
FULL_EXCHANGES = 3

# Cap on the steps of one Newton finish.
NEWTON_STEPS = 12

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
    precision matrix.  edge_threshold is the cutoff on the fitted partial
    correlations |K_ij| / sqrt(K_ii K_jj) under which precision entries are
    treated as exact zeros when reading off the graph.
    """

    tolerance: float = 1e-10
    max_sweeps: int = 10_000
    algorithm: str = "sigma"
    edge_threshold: float = 1e-6

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        n = self.max_sweeps  # bool is an int, np.bool_ no np.integer
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError("max_sweeps must be an integer of at least 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {', '.join(map(repr, ALGORITHMS))}")
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

    A fit whose Sigma fails the pivot test of ``matcore.cholesky`` gets
    infinite residuals and passed=False.
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
    magnitude of the (correlation scale) precision entry as edge weight;
    ``w`` is the correlation-scale closure ``w_matrix`` the fit used.
    """

    sigma_hat: SymMatrix
    k_hat: SymMatrix
    certificate: KktCertificate
    sweeps: int
    log_likelihood: float
    duality_gap: float
    ml_graph: WeightedGraph
    w: SymMatrix


def exists_mle(s: SymMatrix) -> bool:
    """Sufficient existence check: S_ij strictly below sqrt(S_ii S_jj).

    Normalized entries within EXIST_MARGIN of one are rejected as well, the
    problem being numerically unbounded there.  Holds with probability one
    for sample covariances built from at least two observations.
    """
    return _exists(to_correlation(s)[0])


def _exists(r: SymMatrix) -> bool:
    """``exists_mle`` on the correlation matrix R of the input."""
    return bool(r.values[~np.eye(r.dim, dtype=bool)].max(initial=-np.inf) < 1.0 - EXIST_MARGIN)


def _pair_indices(p: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int, np.ndarray]]:
    """The given pairs (u < v) of ``p`` vertices in sweep order, each with
    the other p - 2 vertices B (empty when p = 2), whose rows of K its ``k``
    update reads."""
    return [(u, v, np.delete(np.arange(p), (u, v))) for u, v in sorted(pairs)]


def _update_pair_sigma(sig: np.ndarray, k: np.ndarray, s: np.ndarray, u: int, v: int) -> float:
    """Exact maximization over Sigma_uv with K = Sigma^{-1} kept alongside.

    L_12 = Sigma_uv + K_uv / det K_AA, and a move of Sigma_uv by d updates K
    by Woodbury, K -= K[:, A] M K[A, :] with M = C (I + K_AA C)^{-1} and
    C = [[0, d], [d, 0]].  Returns the absolute change.
    """
    kuu, kvv, kuv = k.item(u, u), k.item(v, v), k.item(u, v)
    suv = sig.item(u, v)
    l12 = suv + kuv / (kuu * kvv - kuv * kuv)
    new = max(s.item(u, v), l12)
    d = new - suv
    if d == 0.0:
        return 0.0
    sig[u, v] = sig[v, u] = new
    # M in closed form; its denominator is det(I + K_AA C) > 0 while the
    # updated Sigma stays positive definite
    e = 1.0 + kuv * d
    f = d / (e * e - kuu * kvv * d * d)
    m = np.array([[-kvv * d * f, e * f], [e * f, -kuu * d * f]])
    rows = k.take((u, v), axis=0)
    k -= rows.T @ (m @ rows)
    return abs(d)


def _update_pair_k(k: np.ndarray, s: np.ndarray, u: int, v: int, rest: np.ndarray) -> float:
    """Exact maximization over the (u, v) block of K; returns the L1 change.

    ``rest`` lists the other vertices B, from ``_pair_indices``; K_BB and
    K_BA are taken from the rows of K at B, and L = K_AB K_BB^{-1} K_BA
    comes from one LU solve (LAPACK dgesv).
    """
    rows = k.take(rest, axis=0)
    k_ba = rows.take((u, v), axis=1)
    if len(k_ba):
        _, _, x, info = dgesv(rows.take(rest, axis=1), k_ba)
        if info > 0:
            raise np.linalg.LinAlgError("K_BB is singular")
        l = k_ba.T @ x
    else:
        l = np.zeros((2, 2))
    l12 = l.item(0, 1)
    suu, svv, suv = s.item(u, u), s.item(v, v), s.item(u, v)
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
    new_uu = k11 + l.item(0, 0)
    new_vv = k22 + l.item(1, 1)
    new_uv = k12 + l12
    change = (abs(new_uu - k.item(u, u)) + abs(new_vv - k.item(v, v))
              + 2.0 * abs(new_uv - k.item(u, v)))
    k[u, u], k[v, v] = new_uu, new_vv
    k[u, v] = k[v, u] = new_uv
    return change


def _masked_step(g: np.ndarray, r: np.ndarray, a: np.ndarray,
                 rounding: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """beta on the guessed active sets ``a`` of a stack of column problems
    (g, r), by one solve of g masked to the set (identity rows elsewhere);
    x = g beta; and where the KKT system fails: beta >= 0, and x >= r off
    a, where the members marked in ``rounding`` may miss r by the rounding
    of x, 10 n eps |g| |beta|."""
    n = len(r[0])
    masked = np.where(a[:, :, None] & a[:, None, :], g, np.eye(n, dtype=bool))
    beta = np.linalg.solve(masked, np.where(a, r, 0.0)[:, :, None])[:, :, 0]
    x = np.matmul(g, beta[:, :, None])[:, :, 0]
    if rounding is not None and rounding.any():
        noise = np.matmul(np.abs(g), np.abs(beta)[:, :, None])[:, :, 0]
        r = r - np.where(rounding[:, None], 10.0 * n * np.finfo(float).eps * noise, 0.0)
    return beta, x, ~((beta >= 0.0) & (a | (x >= r)))


def _column_step(sig: np.ndarray, r: np.ndarray, active: np.ndarray, j: int, o: np.ndarray) -> np.ndarray:
    """The step on column j, with other vertices ``o``, of every member of a
    stack (m, p, p); returns each member's absolute change in the column.

    Sigma_oj becomes max(r_oj, Sigma_oo beta), beta the column problem's
    solution, found by block principal pivoting (Judice & Pires 1994; Kim &
    Park 2011) from the guess ``active[:, j, o]`` of where beta > 0.  A
    member whose guess fails the KKT system drops the entries of beta <= 0
    and adds those of x < r, while that lowers its count of failing entries
    and for FULL_EXCHANGES exchanges that do not; otherwise it moves only
    its last failing entry (Murty's rule), which ends because Sigma_oo is
    positive definite.  Such a move is checked up to the rounding of x: at
    an exact tie (beta_i = 0, x_i = r_i) the signs that rounding gives
    entry i can otherwise make it move in and out forever.  The set
    beta > 0 is kept as the next guess.
    """
    m, p, n = len(sig), sig.shape[1], len(o)
    # one contiguous gather, so that a stack's products go to BLAS as a lone member's do
    g = sig.reshape(m, p * p).take((o[:, None] * p + o).ravel(), axis=1).reshape(m, n, n)
    rj = r[:, o, j]
    a = active[:, j, o]
    beta, x, failing = _masked_step(g, rj, a)
    best = np.full(len(a), len(o) + 1)  # fewest failing entries so far
    stalled = np.zeros(len(a), dtype=int)  # exchanges since that fell
    while failing.any():
        bad = np.flatnonzero(failing.any(axis=1))
        count = failing[bad].sum(axis=1)
        stalled[bad] = np.where(count < best[bad], 0, stalled[bad] + 1)
        best[bad] = np.minimum(best[bad], count)
        guess = np.where(a[bad], beta[bad] > 0.0, x[bad] < rj[bad])
        single = stalled[bad] > FULL_EXCHANGES
        if single.any():
            i = np.flatnonzero(single)
            guess[i] = a[bad[i]]
            guess[i, len(o) - 1 - failing[bad[i], ::-1].argmax(axis=1)] ^= True
        a[bad] = guess
        beta[bad], x[bad], failing[bad] = _masked_step(g[bad], rj[bad], guess, single)
    np.maximum(rj, x, out=x)
    change = np.abs(x - sig[:, j, o]).sum(axis=1)
    sig[:, o, j] = sig[:, j, o] = x
    active[:, j, o] = beta > 0.0
    return change


def _column_sweep(sig: np.ndarray, r: np.ndarray, active: np.ndarray) -> np.ndarray:
    """``_column_step`` on every column in turn, for every member of a stack
    (m, p, p); returns each member's L1 change (both triangles).  Raises
    LinAlgError when some member's Sigma is not positive definite."""
    np.linalg.cholesky(sig)
    p = sig.shape[1]
    # row j lists the vertices other than j
    others = np.arange(p - 1) + (np.arange(p - 1) >= np.arange(p)[:, None])
    return 2.0 * sum(_column_step(sig, r, active, j, o) for j, o in enumerate(others))


def _sigma_start(r: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covariance descent's start on a stack (m, p, p) of correlation
    matrices with closures W (W where ``pd_mask`` accepts it, else single
    linkage), and each column's first active set, G+."""
    sig = w.copy()
    for i in np.flatnonzero(~pd_mask(w)):
        sig[i] = single_linkage(SymMatrix(r[i])).values
    return sig, grw_mask(r, w, EC_SLACK)


def _sigma_sweep(r: np.ndarray, w: np.ndarray):
    """Covariance sweep: ``_column_sweep`` from ``_sigma_start``, its state
    the column steps' active sets; a member's support is where some column
    step left beta > 0."""
    sig, active = _sigma_start(r, w)
    return sig, active, _column_sweep, lambda sig, active: _beta_support(active)


def _beta_support(active: np.ndarray) -> np.ndarray:
    """The symmetrized beta > 0 sets of a stack of column sweeps, without
    the diagonal."""
    sym = active | active.transpose(0, 2, 1)
    sym[:, np.arange(active.shape[1]), np.arange(active.shape[1])] = False
    return sym


def _newton(r: np.ndarray, k: np.ndarray, support: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Maximize log det K - tr(R K) over K supported on the diagonal and
    ``support`` by damped Newton steps from ``k`` projected there; returns
    (K, K^{-1}) when the result satisfies the constrained problem's whole
    KKT system at ``tol``, else None.

    The variables are K_ii and K_ij (i < j on the support); the gradient is
    (Sigma - R)_ij, doubled off the diagonal, and the negative Hessian is
    tr(Sigma E_a Sigma E_b) for the unit matrices E of the variables, solved
    by Cholesky.  A step of 1 / (1 + lambda), lambda the Newton decrement,
    keeps K positive definite (log det is self-concordant), and a full step
    is taken once lambda <= 1/4; a step whose K fails the pivot test of
    ``matcore.cholesky`` rejects the finish, and the sweeps go on.  Steps
    stop when the gradient is below tol / 1000 or a full step no longer
    halves it (rounding).  The KKT system: Sigma = R on the diagonal and
    the support, K_ij <= 0 there (partial-correlation scale), and
    Sigma_ij >= r_ij off it.
    """
    p = len(r)
    on = support | np.eye(p, dtype=bool)
    k = np.where(on, k, 0.0)
    iu, ju = np.nonzero(np.triu(support))
    i = np.concatenate([np.arange(p), iu])
    j = np.concatenate([np.arange(p), ju])
    at, back = i * p + j, j * p + i  # flat indices of K_ij and K_ji
    w = np.where(i == j, 1.0, 2.0)
    r_at = r.ravel().take(at)
    try:
        sig = inverse(k)
    except NotPositiveDefinite:
        return None
    last = np.inf
    for _ in range(NEWTON_STEPS):
        resid = sig.ravel().take(at) - r_at
        top = np.abs(resid).max()
        if top <= tol * 1e-3 or top > last / 2.0:
            break
        rows_i, rows_j = sig.take(i, axis=0), sig.take(j, axis=0)
        h = rows_i.take(i, axis=1)
        h *= rows_j.take(j, axis=1)
        cross = rows_i.take(j, axis=1)
        h += cross * cross.T
        h *= w[:, None]
        h *= w / 2.0
        c, info = dpotrf(h.T, overwrite_a=True)  # symmetric: factored in place
        if info:
            return None
        g = w * resid
        d, _ = dpotrs(c, g)
        lam = math.sqrt(max(float(g @ d), 0.0))
        step = np.zeros(p * p)
        step[at] = step[back] = d
        step = step.reshape(p, p)
        t = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
        k = k + t * step
        try:
            sig = inverse(k)
        except NotPositiveDefinite:
            return None
        last = top if t == 1.0 else np.inf
    kd = k.diagonal()
    ok = (np.abs(sig.ravel().take(at) - r_at).max() <= tol
          and (k[iu, ju] / np.sqrt(kd[iu] * kd[ju])).max(initial=-np.inf) <= tol
          and (sig - r)[~on].min(initial=np.inf) >= -tol)
    return (k, sig) if ok else None


def _k_sweep(r: np.ndarray, w: np.ndarray):
    """Precision sweep over the pairs of G+, from the identity, its state
    each member's place in the stack; a member's support is the nonzero
    off-diagonal entries of its K.  A pair's other vertices depend only on
    (p, u, v), so the members that visit a pair share them."""
    p = r.shape[1]
    gplus = np.triu(grw_mask(r, w, EC_SLACK), 1)
    blocks = {(u, v): b for u, v, b in _pair_indices(p, np.argwhere(gplus.any(0)).tolist())}
    pairs = [[(u, v, blocks[u, v]) for u, v in np.argwhere(g).tolist()] for g in gplus]

    def sweep(k, r, places):
        return np.array([sum(_update_pair_k(km, rm, u, v, b) for u, v, b in pairs[i])
                         for km, rm, i in zip(k, r, places)])

    off = ~np.eye(p, dtype=bool)
    k = np.broadcast_to(np.eye(p), r.shape).copy()
    return k, np.arange(len(r)), sweep, lambda k, _: (k != 0.0) & off


# The coordinate sweeps ``FitConfig.algorithm`` can name: (r, w) -> (iterates,
# state, sweep(iterates, r, state), support(iterates, state)), each with
# whether its iterate is K (else Sigma), which only ``_descend`` reads.
_SWEEPS = {"sigma": (_sigma_sweep, False), "k": (_k_sweep, True)}
ALGORITHMS = tuple(_SWEEPS)


def _descend(r: np.ndarray, w: np.ndarray, cfg: FitConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the configured sweep on a stack (m, p, p) of correlation matrices
    with their closures W; returns (Sigma, K, sweeps, converged), one entry
    per member; a member's pair is its accepted Newton finish's own, else
    its last iterate and that iterate's inverse.  A member leaves the stack
    when its sweep meets the stopping rule or its finish, tried member by
    member, is accepted; those left when the budget runs out keep their last
    iterate.  Each member's results are, bit for bit, those it gets in a
    stack of one, which the sign search relies on."""
    start, iterate_is_k = _SWEEPS[cfg.algorithm]
    out, state, sweep, support = start(r, w)
    sweeps = np.full(len(out), cfg.max_sweeps)
    converged = np.zeros(len(out), dtype=bool)
    members, cur, s = np.arange(len(out)), out, r
    # a member tries the finish after a sweep that leaves its support as the
    # sweep before did, unless that support was tried already
    last, tried = [None] * len(out), [set() for _ in out]
    pairs = [None] * len(out)  # (K, Sigma) of each accepted finish
    for n in range(1, cfg.max_sweeps + 1):
        change = sweep(cur, s, state)
        # scaled by the largest diagonal entry: a no-op for covariance
        # iterates, needed for precision iterates, whose entries and rounding
        # noise grow like the reciprocal boundary distance
        done = change < cfg.tolerance * np.maximum(1.0, cur.diagonal(axis1=1, axis2=2).max(1))
        masks = support(cur, state)
        for i in np.flatnonzero(~done):
            key, j = np.packbits(masks[i]).tobytes(), members[i]
            if key == last[j] and key not in tried[j]:
                tried[j].add(key)
                try:  # the finish starts from K
                    k = cur[i] if iterate_is_k else inverse(cur[i])
                except NotPositiveDefinite:
                    pass
                else:
                    pairs[j] = _newton(s[i], k, masks[i], cfg.tolerance)
                done[i] = pairs[j] is not None
            last[j] = key
        if done.any():
            out[members[done]] = cur[done]
            sweeps[members[done]] = n
            converged[members[done]] = True
            members, cur, s, state = members[~done], cur[~done], s[~done], state[~done]
            if not len(members):
                break
    out[members] = cur
    for j, x in enumerate(out):
        if pairs[j] is None:
            pairs[j] = (x, inverse(x)) if iterate_is_k else (inverse(x), x)
    k, sig = map(np.array, zip(*pairs))
    return sig, k, sweeps, converged


def fit(s: SymMatrix, cfg: FitConfig | None = None) -> FitResult:
    """Compute the constrained MLE pair (Sigma_hat, K_hat) for a sample covariance.

    Normalizes to correlation scale, builds W once, runs the configured sweep
    (``_descend`` on a stack of one) until its L1 change (both triangles)
    falls below tolerance * max(1, largest diagonal entry of the iterate) or
    the Newton finish on the support it identified is accepted, rescales
    back, and certifies Sigma on correlation scale at CERT_TOL.

    Raises:
        MleDoesNotExist: the existence pre-check failed.
        MaxSweepsExceeded: the sweep budget ran out; the exception carries
            the best iterate with its certificate as ``result``.
    """
    cfg = cfg or FitConfig()
    r, scale = to_correlation(s)
    if not _exists(r):
        raise MleDoesNotExist(
            "no maximum likelihood estimate: some normalized entry reaches one"
        )
    w = w_matrix(r)
    sig, k, sweeps, converged = _descend(r.values[None], w.values[None], cfg)
    result = _build_result(s, r, scale, sig[0], k[0], int(sweeps[0]), w, cfg)
    if not converged[0]:
        raise MaxSweepsExceeded(result)
    return result


def _precision(k_r: np.ndarray, s: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, float]:
    """K_hat on the scale of ``s`` from K on correlation scale, and
    log det K_hat - tr(S K_hat).  Raises NotPositiveDefinite when K_hat
    fails ``cholesky``."""
    k = k_r / np.outer(scale, scale)
    return k, 2.0 * float(np.log(cholesky(k).diagonal()).sum()) - float((s * k).sum())


def _build_result(s: SymMatrix, r: SymMatrix, scale: np.ndarray, sig_r: np.ndarray, k_r: np.ndarray,
                  sweeps: int, w: SymMatrix, cfg: FitConfig) -> FitResult:
    """The ``FitResult`` of a ``_descend`` pair (Sigma, K) on the scale of
    ``r``, the correlation matrix of ``s``: the pair rescaled, not edited
    (Sigma_hat has the variances s_ii Sigma_ii), ``_precision``'s likelihood,
    the certificate of Sigma against ``r``, and the gap of the pair itself,
    sum_ij (r_ij - Sigma_ij) K_ij, ``duality_gap`` for K = Sigma^{-1}."""
    sigma = sig_r * np.outer(scale, scale)
    np.fill_diagonal(sigma, s.values.diagonal() * sig_r.diagonal())
    k, ll = _precision(k_r, s.values, scale)
    try:
        cert = kkt_certificate(r, SymMatrix(sig_r))
    except NotPositiveDefinite:
        # a Sigma that fails the pivot test of ``cholesky`` cannot be certified
        cert = KktCertificate(math.inf, math.inf, -math.inf, math.inf, False)
    gap = float(((r.values - sig_r) * k_r).sum())
    magnitude = np.abs(k_r)
    # partial-correlation scale: a cutoff scaled by the largest K_ii alone
    # drops real edges between vertices of small K_ii on ill-conditioned fits
    d = np.sqrt(k_r.diagonal())
    graph = WeightedGraph.from_mask(magnitude > cfg.edge_threshold * np.outer(d, d), magnitude)
    return FitResult(SymMatrix(sigma, labels=s.labels), SymMatrix(k, labels=s.labels),
                     cert, sweeps, ll, gap, graph, w)


def duality_gap(s: SymMatrix, k: SymMatrix, sigma: SymMatrix) -> float:
    """Gap between the dual and primal objectives for a feasible pair.

    Nonnegative for a primal-feasible K and dual-feasible Sigma, zero
    exactly at the optimum.  For K = Sigma^{-1} it is sum_ij (s_ij -
    Sigma_ij) K_ij, the form in which ``FitResult`` reads its own pair.
    """
    if not (s.dim == k.dim == sigma.dim):
        raise ValueError("dimension mismatch")
    return (
        -pd_factorize(sigma).log_det
        - pd_factorize(k).log_det
        + float((s.values * k.values).sum())
        - s.dim
    )


def kkt_certificate(s: SymMatrix, sigma_hat: SymMatrix) -> KktCertificate:
    """Evaluate the optimality system for a candidate covariance at CERT_TOL.

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
        return KktCertificate(0.0, diag_max, 0.0, 0.0, bool(diag_max <= CERT_TOL))
    off = ~np.eye(s.dim, dtype=bool)
    margin = sig.values - r.values
    primal_max = float(k.values[off].max())
    diag_max = float(np.abs(sig.values.diagonal() - 1.0).max())
    dual_min = float(margin[off].min())
    slack_max = float(np.abs(margin[off] * k.values[off]).max())
    passed = bool(
        primal_max <= CERT_TOL
        and diag_max <= CERT_TOL
        and dual_min >= -CERT_TOL
        and slack_max <= CERT_TOL
    )
    return KktCertificate(primal_max, diag_max, dual_min, slack_max, passed)
