import json
import math
import sys
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.optimize import nnls

from totpos import (
    FitConfig,
    MaxSweepsExceeded,
    MleDoesNotExist,
    NotPositiveDefinite,
    SymMatrix,
    block_closed_form,
    duality_gap,
    exists_mle,
    fit,
    grw_graph,
    inverse_pd,
    is_block_graph,
    kkt_certificate,
    log_likelihood,
    max_clique,
    ml_graph_upper_bound,
    mwsf,
    pd_factorize,
    rescale_solution,
    single_linkage,
    to_correlation,
    tree_mle,
    w_matrix,
)
from totpos import matcore, solver
from totpos.cli import main
from totpos.ultra import max_product_closure
from totpos.solver import (
    ALGORITHMS,
    CERT_TOL,
    KktCertificate,
    _column_step,
    _column_sweep,
    _descend,
    _pair_indices,
    _sigma_start,
    _update_pair_k,
    _update_pair_sigma,
)
from conftest import (
    CARCASS_CHAIN_EDGES,
    CARCASS_ML_EDGES,
    CARCASS_MLE_2DP,
    exact_kkt_residuals,
    random_correlation,
    sparse_m_covariance,
)


def _descend_alone(r: SymMatrix, cfg: FitConfig):
    """``_descend`` on a stack of one, as ``fit`` runs it: (Sigma, K, sweeps,
    converged)."""
    sig, k, sweeps, converged = _descend(r.values[None], w_matrix(r).values[None], cfg)
    return sig[0], k[0], sweeps[0], converged[0]


class TestExistsMle:
    def test_rank_one_positive_observation(self):
        x = np.array([1.0, 2.0, 0.5])
        assert not exists_mle(SymMatrix(np.outer(x, x)))

    def test_carcass(self, carcass):
        assert exists_mle(carcass)

    def test_two_samples_high_dimension(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            assert exists_mle(random_correlation(rng, 10, n=2))

    def test_near_boundary_rejected(self):
        r = np.eye(2)
        r[0, 1] = r[1, 0] = 1.0 - 1e-14
        assert not exists_mle(SymMatrix(r))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_sweeps=0)
        with pytest.raises(ValueError, match="integer"):
            FitConfig(max_sweeps=2.5)
        for flag in (True, np.bool_(True)):
            with pytest.raises(ValueError, match="integer"):
                FitConfig(max_sweeps=flag)
        with pytest.raises(ValueError, match=", ".join(f"'{a}'" for a in ALGORITHMS)):
            FitConfig(algorithm="newton")


class TestSmallCases:
    def test_diagonal_input_is_fixed_point(self):
        s = SymMatrix(np.diag([2.0, 3.0, 0.5]))
        res = fit(s)
        assert np.array_equal(res.sigma_hat.values, s.values)
        assert np.allclose(res.k_hat.values, np.diag([0.5, 1 / 3, 2.0]), atol=1e-14)
        assert res.sweeps == 1
        assert res.ml_graph.edges == ()

    def test_negative_pair_binds_at_zero(self):
        s = SymMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        res = fit(s)
        assert np.array_equal(res.sigma_hat.values, np.eye(2))
        assert res.ml_graph.edges == ()

    def test_positive_pair_unconstrained(self):
        s = SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        res = fit(s)
        assert np.array_equal(res.sigma_hat.values, s.values)
        assert res.ml_graph.edge_pairs() == {(0, 1)}

    def test_nonexistent_mle_raises(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(MleDoesNotExist):
            fit(SymMatrix(np.outer(x, x)))

    def test_single_variable(self):
        res = fit(SymMatrix(np.array([[4.0]])))
        assert res.sigma_hat.values[0, 0] == 4.0
        assert res.k_hat.values[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert res.certificate.passed
        assert res.ml_graph.edges == ()


class TestCarcass:
    @pytest.fixture(autouse=True)
    def _fit(self, carcass):
        self.r = carcass
        self.res = fit(carcass)

    def test_ml_graph(self):
        assert self.res.ml_graph.edge_pairs() == CARCASS_ML_EDGES

    def test_chain_contained(self):
        assert CARCASS_CHAIN_EDGES <= self.res.ml_graph.edge_pairs()

    def test_bridge_entry_strictly_above_sample(self):
        assert self.res.sigma_hat.values[3, 4] > 0.11

    def test_matches_path_product_closure(self):
        w = w_matrix(self.r)
        assert np.abs(self.res.sigma_hat.values - w.values).max() <= 1e-7

    def test_two_decimal_reference(self):
        # The tabulated reference was computed from unrounded data.  On the
        # two-decimal input the (0, 1) entry is the path product
        # 0.82 * 0.13 = 0.1066 against a tabulated 0.10, so the tolerance
        # here must cover the rounding of the input too: 0.01.
        assert np.abs(self.res.sigma_hat.values - CARCASS_MLE_2DP).max() <= 0.01

    def test_certificate_and_gap(self):
        assert self.res.certificate.passed
        assert -1e-8 <= self.res.duality_gap <= 1e-8

    def test_graph_consistency(self):
        # fitted entries match the sample on edges; precision vanishes off them
        sig = self.res.sigma_hat.values
        k = self.res.k_hat.values
        for i in range(6):
            for j in range(i + 1, 6):
                if (i, j) in CARCASS_ML_EDGES:
                    assert sig[i, j] == pytest.approx(self.r.values[i, j], abs=1e-8)
                else:
                    assert abs(k[i, j]) <= 1e-8

    def test_inverse_pair(self):
        prod = self.res.sigma_hat.values @ self.res.k_hat.values
        assert np.abs(prod - np.eye(6)).max() <= 1e-8

    def test_loglik_beats_identity(self):
        assert self.res.log_likelihood > log_likelihood(SymMatrix(np.eye(6)), self.r)


class TestAlgorithmAgreement:
    def test_both_algorithms_and_starts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            r = random_correlation(rng, 4)
            results = [
                fit(r, FitConfig(algorithm="sigma")),
                fit(r, FitConfig(algorithm="k")),
            ]
            base = results[0].sigma_hat.values
            for res in results[1:]:
                assert np.abs(res.sigma_hat.values - base).max() <= 1e-7
            for res in results:
                assert res.certificate.passed
                assert res.duality_gap <= 1e-8


class TestMonotonicity:
    def test_sigma_updates_never_decrease_dual_objective(self):
        # each covariance update exactly maximizes log det over its entry,
        # so the dual objective improves monotonically
        rng = np.random.default_rng(32)
        for _ in range(5):
            r = random_correlation(rng, 5)
            cur = single_linkage(r).values.copy()
            pairs = _pair_indices(5, combinations(range(5), 2))
            for _ in range(3):
                k = np.linalg.inv(cur)
                for u, v, _ in pairs:
                    before = np.linalg.slogdet(cur)[1]
                    _update_pair_sigma(cur, k, r.values, u, v)
                    after = np.linalg.slogdet(cur)[1]
                    assert after >= before - 1e-12

    def test_k_updates_never_decrease_likelihood(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            r = random_correlation(rng, 5)
            cur = np.eye(5)
            pairs = _pair_indices(5, combinations(range(5), 2))
            for _ in range(3):
                for u, v, rest in pairs:
                    before = log_likelihood(SymMatrix(cur), r)
                    _update_pair_k(cur, r.values, u, v, rest)
                    after = log_likelihood(SymMatrix(cur), r)
                    assert after >= before - 1e-12


def _reference_sigma_descend(r: SymMatrix, cfg: FitConfig):
    """The pairwise covariance sweep with one direct (p-2)x(p-2) solve per
    pair, from the same start: the max-product closure W when it is
    positive definite, else the single-linkage matrix."""
    s = r.values
    p = r.dim
    w = w_matrix(r)
    try:
        pd_factorize(w)
        cur = w.values.copy()
    except NotPositiveDefinite:
        cur = single_linkage(r).values.copy()
    for sweep in range(1, cfg.max_sweeps + 1):
        change = 0.0
        for u in range(p):
            for v in range(u + 1, p):
                rest = [i for i in range(p) if i not in (u, v)]
                x = np.linalg.solve(cur[np.ix_(rest, rest)], cur[rest, v])
                new = max(s[u, v], float(cur[u, rest] @ x))
                change += 2.0 * abs(new - cur[u, v])
                cur[u, v] = cur[v, u] = new
        if change < cfg.tolerance * max(1.0, float(cur.diagonal().max())):
            return cur, sweep, True
    return cur, cfg.max_sweeps, False


def _update_row_sigma(sig: np.ndarray, s: np.ndarray, u: int, rest: np.ndarray) -> float:
    """The pairwise reference for row u: the pair steps (u, u+1), ...,
    (u, p-1) in turn; returns the absolute change, summed over the pairs.

    ``rest`` lists the other p - 1 vertices in order.  The pass moves only
    x = Sigma[u, rest], so Q = (Sigma_rest,rest)^{-1} stays fixed and
    L_12 = x_v - (Qx)_v / Q_vv; a move of x_v by d adds d Q[F, v] to
    g = (Qx)_F, F = u+1..p-1.
    """
    c, info = dpotrf(sig.take(rest, 0).take(rest, 1), lower=1)
    if info:
        raise np.linalg.LinAlgError("Sigma without row u is not positive definite")
    q, _ = dpotri(c, lower=1, overwrite_c=1)
    x = sig[u].take(rest)
    g = dsymv(1.0, q, x, lower=1)[u:]
    qf = q[u:, u:]
    change = 0.0
    for j, v in enumerate(range(u + 1, len(rest) + 1)):
        suv = x.item(u + j)
        new = max(s.item(u, v), suv - g.item(j) / qf.item(j, j))
        d = new - suv
        if d != 0.0:
            sig[u, v] = sig[v, u] = new
            g += d * qf[:, j]
            change += abs(d)
    return change


class TestSharedState:
    """The pairwise references: the pair hook keeps K the inverse, the row
    pass equals the pair steps of its row, and the column sweep reaches the
    optimum of the pair-by-pair sweep in no more sweeps."""

    def _inputs(self):
        rng = np.random.default_rng(38)
        blocks = TestBlockStructure()._two_block_correlation(rng)
        return [random_correlation(rng, 6, n=2), random_correlation(rng, 20, n=40), blocks]

    def test_matches_direct_solve_sweep(self):
        cfg = FitConfig(algorithm="sigma", max_sweeps=1000)
        for r in self._inputs():
            sig, _, sweeps, converged = _descend_alone(r, cfg)
            ref, ref_sweeps, ref_converged = _reference_sigma_descend(r, cfg)
            assert converged and ref_converged
            assert sweeps <= ref_sweeps
            assert np.abs(sig - ref).max() <= 1e-10

    def test_hooks_keep_k_the_inverse(self):
        r = random_correlation(np.random.default_rng(39), 8, n=40)
        sig = r.values.copy()
        k = np.linalg.inv(sig)
        change = sum(
            _update_pair_sigma(sig, k, r.values, u, v)
            for u, v, _ in _pair_indices(8, combinations(range(8), 2))
        )
        assert change > 0.01
        assert np.linalg.norm(k @ sig - np.eye(8), np.inf) <= 1e-10

    @pytest.mark.parametrize("p, n", [(6, 2), (20, 40)])
    def test_row_pass_equals_pair_steps(self, p, n):
        r = random_correlation(np.random.default_rng(41), p, n=n)
        s = r.values
        sig = single_linkage(r).values.copy()
        moved = binding = 0
        for _ in range(2):
            for u in range(p - 1):
                ref = sig.copy()
                k = np.linalg.inv(ref)
                ref_change = sum(_update_pair_sigma(ref, k, s, u, v) for v in range(u + 1, p))
                binding += sum(ref[u, v] == s[u, v] for v in range(u + 1, p))
                before = np.linalg.slogdet(sig)[1]
                change = _update_row_sigma(sig, s, u, np.delete(np.arange(p), u))
                assert np.linalg.slogdet(sig)[1] >= before - 1e-12
                assert np.abs(sig - ref).max() <= 1e-12
                assert abs(change - ref_change) <= 1e-12
                moved += change > 0
        assert moved > 0 and binding > 0

    def test_row_pass_with_indefinite_rest_raises(self):
        sig = np.eye(4)
        sig[2, 3] = sig[3, 2] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            _update_row_sigma(sig, np.eye(4), 0, np.array([1, 2, 3]))


def _column_qp(g: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """A column problem (Sigma_oo, r_o) whose solution beta is known and
    degenerate: zero on some entries, where x = Sigma_oo beta exceeds r,
    and zero at one entry where x equals r exactly, a tie at the bound."""
    n = len(g)
    beta = np.where(np.arange(n) % 3 == 0, 0.0, rng.uniform(0.1, 0.6, n))
    x = g @ beta
    rhs = x - np.where(beta > 0.0, 0.0, rng.uniform(0.05, 0.3, n))
    rhs[0] = x[0]
    return rhs, beta


class TestColumnStep:
    """The covariance sweep maximizes log det Sigma over one column at a
    time: its step solves the column's nonnegative quadratic program
    exactly, by block principal pivoting from a guessed active set."""

    def _inputs(self):
        rng = np.random.default_rng(61)
        return [random_correlation(rng, p, n=n) for p, n in ((6, 2), (7, 3), (9, 5), (12, 24))]

    def test_kkt_conditions(self):
        for r in self._inputs():
            p = r.dim
            sig, active = _sigma_start(r.values[None], w_matrix(r).values[None])
            for _ in range(3):
                for j in range(p):
                    o = np.delete(np.arange(p), j)
                    _column_step(sig, r.values[None], active, j, o)
                    x, rj = sig[0, o, j], r.values[o, j]
                    beta = np.linalg.solve(sig[0][np.ix_(o, o)], x)
                    assert (x >= rj).all()
                    assert beta.min() >= -1e-12
                    assert np.abs(beta * (x - rj)).max() <= 1e-12
                    assert sig[0, j, j] == 1.0
                    assert np.array_equal(sig[0, j], sig[0, :, j])

    def test_log_det_never_falls_and_beats_a_row_pass(self):
        gains = []
        for r in self._inputs():
            p = r.dim
            sig, active = _sigma_start(r.values[None], w_matrix(r).values[None])
            for _ in range(2):
                for j in range(p):
                    o = np.delete(np.arange(p), j)
                    # the row pass of row 0 moves every entry of column j
                    # once j is put first
                    order = np.array([j, *o])
                    row = sig[0][np.ix_(order, order)]
                    _update_row_sigma(row, r.values[np.ix_(order, order)], 0, np.arange(1, p))
                    before = np.linalg.slogdet(sig[0])[1]
                    _column_step(sig, r.values[None], active, j, o)
                    after = np.linalg.slogdet(sig[0])[1]
                    assert after >= before - 1e-12
                    assert after >= np.linalg.slogdet(row)[1] - 1e-12
                    gains.append(after - np.linalg.slogdet(row)[1])
        assert max(gains) > 1e-6

    def _problems(self, rng):
        """Column problems (Sigma_oo, r_o): known degenerate ones, unstructured
        ones, and the columns of n = 2 starts, up to p = 80 (cond(Sigma_oo)
        about 3e10 on the last)."""
        for n in (1, 4, 9, 15):
            g = random_correlation(rng, n, n=2 * n + 3).values
            yield g, _column_qp(g, rng)[0]
        for _ in range(40):
            yield random_correlation(rng, 6, n=7).values, rng.uniform(-0.3, 1.0, 6)
        for r in (random_correlation(rng, 6, n=2), random_correlation(rng, 12, n=2),
                  random_correlation(np.random.default_rng(91), 80, n=2)):
            sig, _ = _sigma_start(r.values[None], w_matrix(r).values[None])
            for j in range(r.dim):
                o = np.delete(np.arange(r.dim), j)
                yield sig[0][np.ix_(o, o)], r.values[o, j]

    @pytest.mark.parametrize("full_exchanges", [0, 3])
    def test_matches_scipy_nnls_from_any_guess(self, monkeypatch, full_exchanges):
        monkeypatch.setattr(solver, "FULL_EXCHANGES", full_exchanges)
        rng = np.random.default_rng(62)
        for g, rhs in self._problems(rng):
            n = len(rhs)
            # nnls on the factor g = L L': |L' beta - L^-1 r|^2 is the
            # column objective up to a constant
            lower = np.linalg.cholesky(g)
            ref, _ = nnls(lower.T, np.linalg.solve(lower, rhs))
            guesses = [np.ones(n, bool), np.zeros(n, bool), *(rng.random((3, n)) < 0.5)]
            stack, r, active = _column_stack(g, rhs, guesses)
            _column_step(stack, r, active, 0, np.arange(1, n + 1))
            assert np.abs(stack[:, 1:, 0] - np.maximum(rhs, g @ ref)).max() <= 1e-13
            # the support, away from ties (beta_i = 0 and x_i = r_i)
            clear = (ref > 1e-12) | (g @ ref - rhs > 1e-12)
            assert (active[:, 0, 1:] == (ref > 0.0))[:, clear].all()

    @pytest.mark.parametrize("full_exchanges", [0, 3])
    def test_pivoting_rule(self, monkeypatch, full_exchanges):
        """A retry exchanges the whole failing set while the failing count
        falls and for FULL_EXCHANGES retries that do not; otherwise it
        moves only the last failing entry (Murty's rule)."""
        monkeypatch.setattr(solver, "FULL_EXCHANGES", full_exchanges)
        real, trace = solver._masked_step, []

        def traced(g, r, a, *rounding):
            beta, x, failing = real(g, r, a, *rounding)
            trace.append((a[0].copy(), np.where(a[0], beta[0] > 0.0, x[0] < r[0]), failing[0].copy()))
            return beta, x, failing

        monkeypatch.setattr(solver, "_masked_step", traced)
        rng = np.random.default_rng(66)
        single = 0
        for g, rhs in self._problems(rng):
            n = len(rhs)
            for guess in (np.ones(n, bool), np.zeros(n, bool)):
                trace.clear()
                _column_step(*_column_stack(g, rhs, [guess]), 0, np.arange(1, n + 1))
                best, stalled = n + 1, 0
                for (a, exchanged, failing), (after, _, _) in zip(trace, trace[1:]):
                    count = failing.sum()
                    if count < best or stalled < full_exchanges:
                        assert np.array_equal(after, exchanged)
                    else:
                        a[np.flatnonzero(failing)[-1]] ^= True
                        assert np.array_equal(after, a)
                        single += 1
                    stalled = 0 if count < best else stalled + 1
                    best = min(best, count)
                assert not trace[-1][2].any()
        assert single > 0 or full_exchanges > 0

    @pytest.mark.parametrize("full_exchanges", [0, 3])
    def test_wrong_guess_gives_the_exact_step(self, monkeypatch, full_exchanges):
        monkeypatch.setattr(solver, "FULL_EXCHANGES", full_exchanges)
        rng = np.random.default_rng(63)
        p = 10
        sig = random_correlation(rng, p, n=3 * p).values
        o = np.arange(1, p)
        rhs, beta = _column_qp(sig[np.ix_(o, o)], rng)
        r = np.eye(p)
        r[o, 0] = r[0, o] = rhs
        # the stack's members start from every guess that is wrong: the
        # full set, the empty set, and the set with the tie and one support
        # entry swapped
        swapped = beta > 0.0
        swapped[[0, 1]] = ~swapped[[0, 1]]
        active = np.zeros((3, p, p), dtype=bool)
        active[:, 0, o] = [np.ones(p - 1, bool), np.zeros(p - 1, bool), swapped]
        stack = np.array([sig] * 3)
        _column_step(stack, np.array([r] * 3), active, 0, o)
        for member, guess in zip(stack, active):
            assert np.abs(member[o, 0] - np.maximum(rhs, sig[np.ix_(o, o)] @ beta)).max() <= 1e-13
            assert np.array_equal(guess[0, o], beta > 0.0)


def _column_stack(g: np.ndarray, rhs: np.ndarray, guesses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack with one member per guess of the column problem (g, rhs), put
    on column 0: (Sigma, R, active sets) with Sigma_oo = g and r_o0 = rhs."""
    n = len(rhs)
    sig, r = np.eye(n + 1), np.eye(n + 1)
    sig[1:, 1:] = g
    r[1:, 0] = r[0, 1:] = rhs
    active = np.zeros((len(guesses), n + 1, n + 1), dtype=bool)
    active[:, 0, 1:] = guesses
    return np.array([sig] * len(guesses)), np.array([r] * len(guesses)), active


# A symmetric unit-diagonal matrix, not positive semidefinite, whose
# max-product closure is not positive definite either (smallest eigenvalue
# -3.5e-3); found by a random search over such matrices.  Sample
# correlations gave no such closure in the same searches.
INDEFINITE_CLOSURE_R = np.array([
    [1.0, 0.868, -0.02, 0.933, 0.882, -0.138],
    [0.868, 1.0, 0.228, 0.408, 0.159, 0.912],
    [-0.02, 0.228, 1.0, 0.727, 0.835, 0.664],
    [0.933, 0.408, 0.727, 1.0, 0.776, 0.861],
    [0.882, 0.159, 0.835, 0.776, 1.0, 0.861],
    [-0.138, 0.912, 0.664, 0.861, 0.861, 1.0],
])


class TestCovarianceStart:
    """The covariance sweep starts at the max-product closure W when it is
    positive definite: R <= W <= Sigma_hat, so W is dual feasible and sits
    below the optimum."""

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_closure_between_sample_and_optimum(self, n):
        rng = np.random.default_rng(41)
        for _ in range(4):
            r = random_correlation(rng, 6, n=n)
            w = w_matrix(r).values
            # the precision sweep does not use W, so it is an independent Sigma_hat
            sigma = fit(r, FitConfig(algorithm="k")).sigma_hat.values
            assert (r.values <= w + 1e-9).all()
            assert (w <= sigma + 1e-9).all()

    def test_carcass_closed_form_in_one_sweep(self, carcass):
        res = fit(carcass, FitConfig(algorithm="sigma"))
        w = w_matrix(carcass)
        closed = block_closed_form(w, is_block_graph(grw_graph(carcass, w)))
        assert res.sweeps == 1
        assert np.abs(res.sigma_hat.values - closed.values).max() <= 1e-9

    def test_rejected_closure_falls_back_to_single_linkage(self, monkeypatch):
        r = SymMatrix(INDEFINITE_CLOSURE_R)
        with pytest.raises(NotPositiveDefinite):
            pd_factorize(w_matrix(r))
        starts = []

        def spy(m):
            starts.append(m)
            return single_linkage(m)

        monkeypatch.setattr(solver, "single_linkage", spy)
        res = fit(r, FitConfig(algorithm="sigma"))
        assert len(starts) == 1
        assert res.certificate.passed
        ref = fit(r, FitConfig(algorithm="k"))
        assert np.abs(res.sigma_hat.values - ref.sigma_hat.values).max() <= 1e-9

    def test_positive_definite_closure_is_the_start(self, monkeypatch):
        # R is singular at n = 2; W is positive definite and needs no fallback
        monkeypatch.setattr(solver, "single_linkage", None)
        r = random_correlation(np.random.default_rng(60), 6, n=2)
        assert fit(r, FitConfig(algorithm="sigma")).certificate.passed


def _reference_k_descend(r: SymMatrix, cfg: FitConfig):
    """The precision sweep over every pair, each step written out with a
    direct (p-2)x(p-2) solve."""
    s = r.values
    p = r.dim
    cur = np.eye(p)
    for sweep in range(1, cfg.max_sweeps + 1):
        change = 0.0
        for u, v in combinations(range(p), 2):
            a = np.ix_([u, v], [u, v])
            rest = [i for i in range(p) if i not in (u, v)]
            l = np.zeros((2, 2))
            if rest:
                k_ar = cur[np.ix_([u, v], rest)]
                l = k_ar @ np.linalg.solve(cur[np.ix_(rest, rest)], k_ar.T)
            block = np.linalg.inv(s[a])
            if block[0, 1] + l[0, 1] > 0.0:
                # the sign constraint binds: K_uv = 0 and the diagonal adjusts
                root = math.sqrt(1.0 + 4.0 * s[u, u] * s[v, v] * l[0, 1] ** 2)
                block = np.array([
                    [(1.0 + root) / (2.0 * s[u, u]), -l[0, 1]],
                    [-l[0, 1], (1.0 + root) / (2.0 * s[v, v])],
                ])
            new = block + l
            change += float(np.abs(new - cur[a]).sum())
            cur[a] = new
        if change < cfg.tolerance * max(1.0, float(cur.diagonal().max())):
            return cur, sweep, True
    return cur, cfg.max_sweeps, False


class TestStackedSigmaDescent:
    """The column sweep on a stack needs every member positive definite."""

    def test_sweep_raises_on_indefinite_member(self):
        stack = TestStackedDescent()._stack(4, (9, 9), 46)
        stack[1, 2, 3] = stack[1, 3, 2] = 1.0
        stack[1, 1, 2] = stack[1, 2, 1] = -0.9
        with pytest.raises(np.linalg.LinAlgError):
            _column_sweep(stack.copy(), stack, np.ones(stack.shape, dtype=bool))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestStackedDescent:
    """The descent on a stack of matrices takes each member's steps, as that
    member alone would, and retires each member under the stopping rule or
    an accepted Newton finish, at the sweep where it alone would stop."""

    def _stack(self, p, ns, seed):
        rng = np.random.default_rng(seed)
        return np.array([random_correlation(rng, p, n=n).values for n in ns])

    def _assert_members_alone(self, stack, cfg, out):
        """The stacked ``_descend`` output equals each member's own run."""
        for member, sig, k, n, ok in zip(stack, *out):
            ref_sig, ref_k, ref_n, ref_ok = _descend_alone(SymMatrix(member), cfg)
            assert (n, ok) == (ref_n, ref_ok)
            assert np.array_equal(sig, ref_sig) and np.array_equal(k, ref_k)

    def test_stack_equals_members_alone(self, algorithm):
        stack = self._stack(7, (2, 3, 8, 14, 14, 40), 45)
        w = max_product_closure(stack)
        start, _ = solver._SWEEPS[algorithm]
        cur, state, sweep, support = start(stack, w)
        alone = [start(s[None], x[None]) for s, x in zip(stack, w)]
        for _ in range(3):
            change = sweep(cur, stack, state)
            for (m_cur, m_state, m_sweep, _), s, ch in zip(alone, stack, change):
                assert m_sweep(m_cur, s[None], m_state)[0] == ch
            assert np.array_equal(cur, np.concatenate([a[0] for a in alone]))
            if algorithm == "sigma":  # the column steps' active sets
                assert np.array_equal(state, np.concatenate([a[1] for a in alone]))
            assert np.array_equal(support(cur, state), np.concatenate([a[3](a[0], a[1]) for a in alone]))
        assert change.max() > 1e-6

    # members that leave at different sweeps under both sweeps; at p = 6,
    # n = 2, 3 and 12 every precision fit takes two
    @pytest.mark.parametrize("p, ns", [(9, (3, 18, 18, 18)), (10, (2, 3, 3, 20))])
    def test_matches_descend(self, algorithm, p, ns):
        stack = self._stack(p, ns, 47 + p)
        w = max_product_closure(stack)
        cfg = FitConfig(algorithm=algorithm, max_sweeps=60)
        out = _descend(stack, w, cfg)
        self._assert_members_alone(stack, cfg, out)
        assert out[3].all() and len(set(out[2])) > 1
        # a budget one below the slowest member's sweeps leaves it in the stack
        cfg = FitConfig(algorithm=algorithm, max_sweeps=int(out[2].max()) - 1)
        short = _descend(stack, w, cfg)
        self._assert_members_alone(stack, cfg, short)
        assert short[3].any() and not short[3].all()

    def test_newton_finish_as_members_alone(self, monkeypatch, algorithm):
        stack = self._stack(8, (3, 8, 16, 16, 16, 40), 49)
        accepted = []
        real = solver._newton

        def spy(*args):
            out = real(*args)
            accepted.append(out is not None)
            return out

        monkeypatch.setattr(solver, "_newton", spy)
        cfg = FitConfig(algorithm=algorithm)
        out = _descend(stack, max_product_closure(stack), cfg)
        stacked, accepted[:] = list(accepted), []
        self._assert_members_alone(stack, cfg, out)
        assert out[3].all()
        assert sorted(stacked) == sorted(accepted) and sum(stacked) >= 4

    def test_single_linkage_start_where_closure_is_indefinite(self, monkeypatch, algorithm):
        stack = np.array([INDEFINITE_CLOSURE_R, *self._stack(6, (12, 12), 48)])
        calls = []
        real = solver.single_linkage
        monkeypatch.setattr(solver, "single_linkage", lambda r: calls.append(r) or real(r))
        cfg = FitConfig(algorithm=algorithm, max_sweeps=300)
        out = _descend(stack, max_product_closure(stack), cfg)
        # only the covariance sweep starts at W, or at single linkage
        if algorithm == "sigma":
            assert len(calls) == 1 and np.array_equal(calls[0].values, INDEFINITE_CLOSURE_R)
        else:
            assert calls == []
        self._assert_members_alone(stack, cfg, out)


class TestScreenedPrecisionSweep:
    """The precision sweep visits only the pairs of the upper bound G+."""

    def _inputs(self):
        rng = np.random.default_rng(41)
        blocks = TestBlockStructure()._two_block_correlation(rng)
        return [random_correlation(rng, 6, n=2), random_correlation(rng, 20, n=40), blocks]

    def test_matches_full_sweep(self):
        cfg = FitConfig(algorithm="k")
        for r in self._inputs():
            _, k, _, converged = _descend_alone(r, cfg)
            ref, _, ref_converged = _reference_k_descend(r, cfg)
            assert converged and ref_converged
            assert np.abs(k - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_updates_only_bound_pairs(self, monkeypatch):
        real_update = solver._update_pair_k
        visited = []

        def counting_update(k, s, u, v, blocks):
            visited.append((u, v))
            return real_update(k, s, u, v, blocks)

        monkeypatch.setattr(solver, "_update_pair_k", counting_update)
        for r in self._inputs():
            visited.clear()
            bound = ml_graph_upper_bound(r).edge_pairs()
            assert 0 < len(bound) < r.dim * (r.dim - 1) // 2
            res = fit(r, FitConfig(algorithm="k"))
            assert set(visited) == bound
            assert len(visited) == res.sweeps * len(bound)
            k = res.k_hat.values
            for i, j in combinations(range(r.dim), 2):
                if (i, j) not in bound:
                    assert k[i, j] == 0.0 and k[j, i] == 0.0

    def test_one_lu_solve_per_pair_and_no_numpy_solve(self, monkeypatch):
        real_dgesv = solver.dgesv
        shapes = []

        def counting_dgesv(a, b):
            shapes.append(a.shape)
            return real_dgesv(a, b)

        def no_solve(*args, **kwargs):
            raise AssertionError("the precision sweep called np.linalg.solve")

        monkeypatch.setattr(solver, "dgesv", counting_dgesv)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        r = random_correlation(np.random.default_rng(40), 10)
        res = fit(r, FitConfig(algorithm="k"))
        assert res.sweeps > 1
        assert len(shapes) == res.sweeps * len(ml_graph_upper_bound(r).edge_pairs())
        assert set(shapes) == {(8, 8)}

    def test_blocks_are_the_ix_gathers(self, monkeypatch):
        # each pair keeps only the other p - 2 vertices B; K_BB and K_BA,
        # taken from K's rows at B, are bitwise np.ix_'s gathers
        real_dgesv, solved = solver.dgesv, []
        monkeypatch.setattr(solver, "dgesv", lambda a, b: solved.append((a, b)) or real_dgesv(a, b))
        r = random_correlation(np.random.default_rng(43), 9)
        k = np.linalg.inv(r.values)
        for _ in range(2):
            for u, v, rest in _pair_indices(9, combinations(range(9), 2)):
                assert rest.tolist() == [i for i in range(9) if i not in (u, v)]
                before = k.copy()
                _update_pair_k(k, r.values, u, v, rest)
                a, b = solved.pop()
                assert a.tobytes() == before[np.ix_(rest, rest)].tobytes()
                assert b.tobytes() == before[np.ix_(rest, [u, v])].tobytes()

    def test_pair_update_with_empty_or_singular_rest(self):
        # p = 2: B is empty and the update is the pair optimum S_AA^{-1}
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        k = np.eye(2)
        [(u, v, blocks)] = _pair_indices(2, [(0, 1)])
        _update_pair_k(k, s, u, v, blocks)
        assert np.abs(k - np.linalg.inv(s)).max() <= 1e-14
        # an exactly singular K_BB raises
        k = np.eye(4)
        k[3, 3] = 0.0
        [(u, v, blocks)] = _pair_indices(4, [(0, 1)])
        with pytest.raises(np.linalg.LinAlgError):
            _update_pair_k(k, np.eye(4), u, v, blocks)

    def test_dropping_an_ml_edge_is_not_certified(self, carcass, tmp_path, capsys, monkeypatch):
        bound = ml_graph_upper_bound(carcass)
        dropped = min(CARCASS_ML_EDGES)
        assert dropped in bound.edge_pairs()
        real = solver.grw_mask

        def narrowed(r, w, tol):
            gplus = real(r, w, tol)
            gplus[:, dropped[0], dropped[1]] = gplus[:, dropped[1], dropped[0]] = False
            return gplus

        # the precision sweep reads G+ as the mask of W's equalities at EC_SLACK
        monkeypatch.setattr(solver, "grw_mask", narrowed)
        res = fit(carcass, FitConfig(algorithm="k"))
        assert not res.certificate.passed
        path = tmp_path / "carcass.csv"
        np.savetxt(path, carcass.values, fmt="%.17g", delimiter=",")
        assert main(["fit", str(path), "--algorithm", "k"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["certificate"]["passed"] is False


class TestNewtonFinish:
    """After a sweep that leaves the support as the sweep before did, the
    descent maximizes the likelihood over K supported there by Newton
    steps, and stops when the result meets the whole KKT system."""

    def _inputs(self):
        rng = np.random.default_rng(60)
        return [random_correlation(rng, 20, n=40), random_correlation(rng, 8, n=16),
                random_correlation(rng, 12, n=2)]

    def _spy(self, monkeypatch, edit=None):
        """Record (r, support, tol, result) of every finish; ``edit`` may
        change the support of the first one."""
        calls = []
        real = solver._newton

        def spy(r, k, support, tol):
            if edit is not None and not calls:
                support = edit(support.copy())
            out = real(r, k, support, tol)
            calls.append((r, support, tol, out))
            return out

        monkeypatch.setattr(solver, "_newton", spy)
        return calls

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_accepted_finish_meets_the_kkt_system(self, monkeypatch, algorithm):
        calls = self._spy(monkeypatch)
        for r in self._inputs():
            calls.clear()
            res = fit(r, FitConfig(algorithm=algorithm))
            assert calls[-1][3] is not None
            assert all(out is None for *_, out in calls[:-1])
            rr, support, tol, (k, sig) = calls[-1]
            assert tol == FitConfig().tolerance
            on = support | np.eye(r.dim, dtype=bool)
            d = np.sqrt(k.diagonal())
            assert np.abs(sig - rr)[on].max() <= tol
            assert (k / np.outer(d, d))[support].max(initial=-1.0) <= tol
            assert (sig - rr)[~on].min() >= -tol
            assert (k[~on] == 0.0).all()
            assert res.certificate.passed and kkt_certificate(r, res.sigma_hat).passed
            assert res.ml_graph.edge_pairs() <= {(i, j) for i, j in zip(*np.nonzero(np.triu(support)))}

    def test_k_hat_is_the_finish_own(self, monkeypatch):
        # the covariance sweep's fit hands on the finish's K, not Sigma's
        # inverse: on correlation scale K_hat is that K, exactly zero off
        # the accepted support
        calls = self._spy(monkeypatch)
        for r in self._inputs():
            calls.clear()
            res = fit(r, FitConfig(algorithm="sigma"))
            _, support, _, (k, _) = calls[-1]
            assert np.array_equal(res.k_hat.values, k)
            on = support | np.eye(r.dim, dtype=bool)
            assert (res.k_hat.values[~on] == 0.0).all() and (~on).any()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_factorizations_after_an_accepted_finish(self, monkeypatch, algorithm):
        # K_hat for the likelihood and Sigma for the certificate
        factored, marks = [], []
        real = matcore.cholesky
        for module in [m for n, m in sys.modules.items() if n.partition(".")[0] == "totpos"]:
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, lambda a: factored.append(1) or real(a))
        newton = solver._newton

        def marking(*args):
            out = newton(*args)
            marks.append(len(factored))
            return out

        monkeypatch.setattr(solver, "_newton", marking)
        for r in self._inputs():
            factored.clear()
            fit(r, FitConfig(algorithm=algorithm))
            assert len(factored) - marks[-1] == 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("wrong", ["extra", "missing"])
    def test_support_with_one_wrong_edge_is_rejected(self, monkeypatch, algorithm, wrong):
        r = random_correlation(np.random.default_rng(61), 10, n=20)
        cfg = FitConfig(algorithm=algorithm)
        ref = fit(r, cfg)
        edges = ref.ml_graph.edge_pairs()
        if wrong == "extra":  # the pair farthest above its sample value
            margin = np.triu(ref.sigma_hat.values - r.values, 1)
            u, v = np.unravel_index(margin.argmax(), margin.shape)
            assert (u, v) not in edges
        else:  # the strongest edge
            u, v = max(edges, key=lambda e: abs(ref.k_hat.values[e]))

        def edit(support):
            assert support[u, v] == (wrong == "missing")
            support[u, v] = support[v, u] = wrong == "extra"
            return support

        calls = self._spy(monkeypatch, edit)
        res = fit(r, cfg)
        assert calls[0][3] is None
        # the same support is not tried again; the sweeps reach the optimum
        assert len(calls) == 1
        assert res.sweeps > ref.sweeps
        assert res.certificate.passed
        assert np.abs(res.sigma_hat.values - ref.sigma_hat.values).max() <= 1e-9

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_attempt_per_distinct_stable_support(self, monkeypatch, algorithm):
        r = random_correlation(np.random.default_rng(62), 12, n=24)
        cfg = FitConfig(algorithm=algorithm)
        # the support after every sweep but the last, from the sweep alone
        start, _ = solver._SWEEPS[algorithm]
        stack = r.values[None]
        cur, state, sweep, support = start(stack, w_matrix(r).values[None])
        seen = []
        while sweep(cur, stack, state)[0] >= cfg.tolerance * max(1.0, float(cur[0].diagonal().max())):
            seen.append(support(cur, state)[0].copy())
        stable = [b for a, b in zip(seen, seen[1:]) if np.array_equal(a, b)]
        distinct = []
        for b in stable:
            if not any(np.array_equal(b, e) for e in distinct):
                distinct.append(b)
        assert len(stable) > len(distinct) >= 1
        tried = []

        def reject(r, k, support, tol):
            tried.append(support.copy())

        monkeypatch.setattr(solver, "_newton", reject)
        res = fit(r, cfg)
        assert res.sweeps == len(seen) + 1
        assert len(tried) == len(distinct)
        assert all(np.array_equal(a, b) for a, b in zip(tried, distinct))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_budget_counts_the_sweeps(self, monkeypatch, algorithm):
        r = random_correlation(np.random.default_rng(63), 20, n=40)
        calls = self._spy(monkeypatch)
        sweeps = fit(r, FitConfig(algorithm=algorithm)).sweeps
        assert calls[-1][3] is not None and sweeps >= 2
        # the finish that ended the fit runs after its last sweep
        assert fit(r, FitConfig(algorithm=algorithm, max_sweeps=sweeps)).sweeps == sweeps
        for budget in (1, sweeps - 1):
            calls.clear()
            with pytest.raises(MaxSweepsExceeded) as err:
                fit(r, FitConfig(algorithm=algorithm, max_sweeps=budget))
            assert err.value.result.sweeps == budget
            assert all(out is None for *_, out in calls)
            # one sweep leaves no earlier support to compare with
            assert budget > 1 or calls == []

    # r_12 = r_13 = 0.5 and r_23 = 0: the optimum has edges 12 and 13 only,
    # with Sigma_23 = 0.25 > r_23
    THREE = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])

    def _support(self, *pairs):
        support = np.zeros((3, 3), dtype=bool)
        for u, v in pairs:
            support[u, v] = support[v, u] = True
        return support

    def test_each_kkt_condition_rejects_on_its_own(self):
        r = self.THREE
        k, sig = solver._newton(r, np.eye(3), self._support((0, 1), (0, 2)), 1e-10)
        assert abs(sig[1, 2] - 0.25) <= 1e-12 and k[1, 2] == 0.0
        # edge 23 added: Sigma = R and K = R^{-1} with K_23 > 0; nothing is
        # off the support, so the sign alone rejects it
        assert np.linalg.inv(r)[1, 2] > 0.0
        assert solver._newton(r, np.eye(3), self._support((0, 1), (0, 2), (1, 2)), 1e-10) is None
        # edge 13 missing: Sigma_13 = 0 < r_13, no edge has the wrong sign
        assert solver._newton(r, np.eye(3), self._support((0, 1)), 1e-10) is None

    def test_refused_step_rejects_the_finish(self, monkeypatch):
        # a stepped K that fails the pivot test rejects the finish; no
        # shorter step is tried
        support = self._support((0, 1), (0, 2))
        assert solver._newton(self.THREE, np.eye(3), support, 1e-10) is not None
        factored = []
        real = solver.inverse

        def refuse_first_step(k):
            factored.append(k)
            if len(factored) == 2:
                raise NotPositiveDefinite(0)
            return real(k)

        monkeypatch.setattr(solver, "inverse", refuse_first_step)
        assert solver._newton(self.THREE, np.eye(3), support, 1e-10) is None
        assert len(factored) == 2

    def test_unconverged_gradient_rejects(self, monkeypatch):
        r = SymMatrix(np.linalg.inv(np.array([[2.0, -0.5, -0.5], [-0.5, 2.0, -0.5], [-0.5, -0.5, 2.0]])))
        r = to_correlation(r)[0].values
        full = self._support((0, 1), (0, 2), (1, 2))
        k, _ = solver._newton(r, np.eye(3), full, 1e-10)
        assert np.abs(k - np.linalg.inv(r)).max() <= 1e-12
        # after one step from the identity K is an M-matrix and nothing is
        # off the support, so only the gradient tells that it is not yet
        # the optimum
        factored = []
        real = solver.inverse
        monkeypatch.setattr(solver, "inverse", lambda k: factored.append(k) or real(k))
        monkeypatch.setattr(solver, "NEWTON_STEPS", 1)
        assert solver._newton(r, np.eye(3), full, 1e-10) is None
        last = factored[-1]
        assert len(factored) == 2 and (last[~np.eye(3, dtype=bool)] < 0.0).all()

    def test_stops_at_the_rounding_floor(self, monkeypatch):
        # an ill-conditioned n = 2 fit (K_ii near 3e3): the gradient stalls
        # above tol / 1000, and the steps stop there, short of the cap
        r = random_correlation(np.random.default_rng(71), 20, n=2)
        steps = []
        real = solver.dpotrs
        monkeypatch.setattr(solver, "dpotrs", lambda *a: steps.append(1) or real(*a))
        calls = self._spy(monkeypatch)
        res = fit(r, FitConfig(algorithm="k"))
        [(rr, support, tol, (k, sig))] = calls
        on = support | np.eye(r.dim, dtype=bool)
        assert tol / 1000 < np.abs(sig - rr)[on].max() <= tol
        assert len(steps) < solver.NEWTON_STEPS
        assert res.sweeps == 2

    def test_steps_are_capped_and_an_indefinite_start_is_rejected(self, monkeypatch):
        r = random_correlation(np.random.default_rng(64), 12, n=24)
        res = fit(r, FitConfig(algorithm="k"))
        support = res.k_hat.values != 0.0
        np.fill_diagonal(support, False)
        rv = r.values
        assert solver._newton(rv, -np.eye(12), support, 1e-10) is None
        # from the identity the optimum on the fit's own support takes
        # several steps; one step is not enough, and a cap of one stops there
        steps = []
        real = solver.dpotrs
        monkeypatch.setattr(solver, "dpotrs", lambda *a: steps.append(1) or real(*a))
        k, _ = solver._newton(rv, np.eye(12), support, 1e-10)
        assert np.abs(k - res.k_hat.values).max() <= 1e-10 * np.abs(k).max()
        assert 3 <= len(steps) <= solver.NEWTON_STEPS
        steps.clear()
        monkeypatch.setattr(solver, "NEWTON_STEPS", 1)
        assert solver._newton(rv, np.eye(12), support, 1e-10) is None
        assert len(steps) == 1


class TestEquivariance:
    def test_diagonal_rescaling(self):
        rng = np.random.default_rng(34)
        for _ in range(8):
            r = random_correlation(rng, 5)
            d = rng.uniform(0.2, 5.0, size=5)
            scaled = SymMatrix(r.values * np.outer(d, d))
            res_r = fit(r)
            res_s = fit(scaled)
            expected = res_r.sigma_hat.values * np.outer(d, d)
            assert np.abs(res_s.sigma_hat.values - expected).max() <= 1e-8 * np.abs(expected).max()
            assert res_s.ml_graph.edge_pairs() == res_r.ml_graph.edge_pairs()
            assert res_s.certificate.passed


class TestBlockStructure:
    def _two_block_correlation(self, rng):
        a = random_correlation(rng, 3).values
        b = random_correlation(rng, 3).values
        r = np.eye(6)
        r[:3, :3] = a
        r[3:, 3:] = b
        # strictly negative cross-block entries keep the components separate
        r[:3, 3:] = -rng.uniform(0.05, 0.25, size=(3, 3))
        r[3:, :3] = r[:3, 3:].T
        return SymMatrix((r + r.T) / 2)

    def test_solution_is_block_diagonal(self):
        rng = np.random.default_rng(35)
        for _ in range(6):
            r = self._two_block_correlation(rng)
            res = fit(r)
            sig = res.sigma_hat.values
            assert np.abs(sig[:3, 3:]).max() <= 1e-7
            off = ~np.eye(6, dtype=bool)
            assert (sig - r.values)[off].min() >= -1e-9
            labels = mwsf(r).component_label
            for i in range(6):
                for j in range(i + 1, 6):
                    if labels[i] == labels[j]:
                        assert sig[i, j] >= -1e-9


class TestCliqueBound:
    def test_clique_size_at_most_sample_count(self):
        rng = np.random.default_rng(36)
        for n in (2, 3):
            for _ in range(6):
                r = random_correlation(rng, 6, n=n)
                cfg = FitConfig(algorithm="k")
                res = fit(r, cfg)
                assert len(max_clique(res.ml_graph)) <= n


class TestSweepBudget:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_max_sweeps_carries_result(self, algorithm):
        # the carcass fit converges in one sweep from W, so a seeded input
        # that needs more is used
        r = random_correlation(np.random.default_rng(40), 6)
        assert fit(r, FitConfig(algorithm=algorithm)).sweeps > 1
        with pytest.raises(MaxSweepsExceeded) as err:
            fit(r, FitConfig(max_sweeps=1, algorithm=algorithm))
        result = err.value.result
        assert result.sweeps == 1
        assert result.certificate is not None


class TestDualityGap:
    def test_zero_at_inverse_m_optimum(self):
        rng = np.random.default_rng(37)
        base = random_correlation(rng, 5)
        r = tree_mle(base, mwsf(base))  # inverse M-matrix by construction
        k = inverse_pd(r)
        assert abs(duality_gap(r, k, r)) <= 1e-10

    def test_positive_for_feasible_non_optimal_pair(self, carcass):
        r, scale = to_correlation(carcass)
        z = rescale_solution(single_linkage(r), scale)
        k0 = SymMatrix(np.eye(6))
        gap = duality_gap(carcass, k0, z)
        assert gap > 0.1

    def test_small_after_convergence(self, carcass):
        res = fit(carcass)
        assert -1e-8 <= duality_gap(carcass, res.k_hat, res.sigma_hat) <= 1e-8


# n = 2 draws with ill-conditioned fits (max K_ii 4e4 to 1.4e5) that are
# right: the p = 40 draw of the ROADMAP review (seed 1) and the command-line
# parity inputs at p = 20 (seeds 4 and 0)
_N2_DRAWS = [((40, 2, 1, 91), "sigma"), ((40, 2, 1, 91), "k"),
             ((20, 2, 4), "sigma"), ((20, 2, 4), "k"), ((20, 2, 0), "sigma")]
_N2_IDS = [f"p{key[0]}-seed{key[2]}-{algorithm}" for key, algorithm in _N2_DRAWS]


def _n2_draw(key) -> SymMatrix:
    return SymMatrix(sparse_m_covariance(np.random.default_rng(list(key)), key[0], key[1]))


def _exactly_certified(r: SymMatrix, k: np.ndarray) -> bool:
    primal, diag, dual, slack = exact_kkt_residuals(r.values, k)
    return max(primal, diag, slack) <= CERT_TOL and dual >= -CERT_TOL


class TestOwnPairResult:
    """The result reads the solver's own pair (Sigma, K): the certificate
    checks Sigma on the correlation scale, the gap is
    sum_ij (r_ij - Sigma_ij) K_ij, and Sigma_hat is Sigma rescaled."""

    @pytest.mark.parametrize("key, algorithm", _N2_DRAWS, ids=_N2_IDS)
    def test_n2_draw_certifies_exactly(self, key, algorithm):
        s = _n2_draw(key)
        cert = fit(s, FitConfig(algorithm=algorithm)).certificate
        assert cert.passed
        # to_correlation(R) is R, so the fit of R runs the fit of S bit for
        # bit, and its K_hat is the solver's own K
        r = to_correlation(s)[0]
        res = fit(r, FitConfig(algorithm=algorithm))
        assert res.certificate == cert and _exactly_certified(r, res.k_hat.values)

    def test_exact_check_sees_a_moved_edge(self, carcass):
        k = fit(carcass).k_hat.values.copy()
        assert _exactly_certified(carcass, k)
        k[0, 2] = k[2, 0] = k[0, 2] + 1e-5 * math.sqrt(k[0, 0] * k[2, 2])
        assert k[0, 2] < 0.0 and not _exactly_certified(carcass, k)

    @staticmethod
    def _criterion_6_fits(algorithm):
        """The inputs of acceptance criterion 6 with their fits."""
        rng = np.random.default_rng(2024_08_10)
        for p in [2] * 67 + [3] * 67 + [4] * 66 + [5] * 50:
            r = random_correlation(rng, p)
            yield r, fit(r, FitConfig(algorithm=algorithm))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_gap_is_the_pair_gap(self, algorithm):
        for r, res in self._criterion_6_fits(algorithm):
            assert abs(res.duality_gap - duality_gap(r, res.k_hat, res.sigma_hat)) <= 1e-10

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_criterion_6_fits_are_exact(self, algorithm):
        for r, res in self._criterion_6_fits(algorithm):
            assert res.certificate.passed and _exactly_certified(r, res.k_hat.values)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_diagonal_input_returned_exactly(self, algorithm):
        s = SymMatrix(np.diag([2.0, 0.3, 5.0, 1.7]))
        res = fit(s, FitConfig(algorithm=algorithm))
        assert np.array_equal(res.sigma_hat.values, s.values)
        assert res.certificate.passed and res.duality_gap == 0.0

    def test_refused_certificate_inverse_reports_inf(self, carcass, tmp_path, monkeypatch):
        # no known input reaches the fallback: make the certificate's
        # inverse refuse Sigma once
        real, refused = solver.inverse_pd, []

        def refuse_once(m):
            if not refused:
                refused.append(m)
                raise NotPositiveDefinite(0)
            return real(m)

        monkeypatch.setattr(solver, "inverse_pd", refuse_once)
        res = fit(carcass)
        assert refused
        assert res.certificate == KktCertificate(math.inf, math.inf, -math.inf, math.inf, False)
        assert math.isfinite(res.duality_gap)
        refused.clear()
        path, out = tmp_path / "carcass.csv", tmp_path / "o.json"
        np.savetxt(path, carcass.values, fmt="%.17g", delimiter=",")
        assert main(["fit", str(path), "--output", str(out)]) == 3
        doc = json.loads(out.read_text())
        assert refused and doc["converged"] is True
        assert doc["certificate"]["passed"] is False and doc["certificate"]["primal_max"] == math.inf


class TestCertificate:
    def test_sample_itself_fails_for_carcass(self, carcass):
        # the sample correlations have negative partial correlations
        cert = kkt_certificate(carcass, carcass)
        assert not cert.passed
        assert cert.primal_max > cert.tol

    def test_fitted_passes(self, carcass):
        res = fit(carcass)
        assert kkt_certificate(carcass, res.sigma_hat).passed

    def test_scale_invariance(self, carcass):
        res = fit(carcass)
        d = np.linspace(0.5, 3.0, 6)
        scaled_input = SymMatrix(carcass.values * np.outer(d, d))
        scaled_sigma = SymMatrix(res.sigma_hat.values * np.outer(d, d))
        a = kkt_certificate(carcass, res.sigma_hat)
        b = kkt_certificate(scaled_input, scaled_sigma)
        assert a.passed and b.passed
        assert b.primal_max == pytest.approx(a.primal_max, rel=1e-6, abs=1e-12)


class TestMoreValidation:
    def test_certificate_requires_pd_candidate(self, carcass):
        from totpos import NotPositiveDefinite

        bad = SymMatrix(np.eye(6) - 2 * np.diag([0, 0, 0, 0, 0, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            kkt_certificate(carcass, bad)

    def test_duality_gap_requires_pd(self, carcass):
        from totpos import NotPositiveDefinite

        bad = SymMatrix(-np.eye(6))
        with pytest.raises(NotPositiveDefinite):
            duality_gap(carcass, bad, carcass)

    def test_labels_propagate(self, carcass):
        res = fit(carcass)
        assert res.sigma_hat.labels == carcass.labels
        assert res.k_hat.labels == carcass.labels

    def test_edge_threshold_controls_graph(self):
        s = SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert fit(s).ml_graph.edge_pairs() == {(0, 1)}
        coarse = fit(s, FitConfig(edge_threshold=0.9))
        assert coarse.ml_graph.edges == ()
