import sys
from itertools import product

import numpy as np
import pytest
from scipy.linalg import block_diag

from totpos import (
    FitConfig,
    MaxSweepsExceeded,
    MleDoesNotExist,
    SignVector,
    SymMatrix,
    apply_signs,
    d_star,
    exhaustive_sign_search,
    exists_mle,
    fit,
    fit_signed,
    is_balanced,
    log_likelihood,
    mwsf,
    to_correlation,
    tree_mle,
)
from totpos import signed, solver
from totpos.cli import main, write_matrix_csv
from totpos.solver import ALGORITHMS, _descend
from totpos.ultra import max_product_closure
from conftest import UNBALANCED_R, random_correlation, random_m_matrix


def _random_sign_vector(rng, p):
    return SignVector((1, *(int(s) for s in rng.choice([-1, 1], size=p - 1))))


def _fit_or_best(s, cfg):
    """``fit`` and whether it converged; on a spent budget, the best iterate."""
    try:
        return fit(s, cfg), True
    except MaxSweepsExceeded as exc:
        return exc.result, False


def _serial_sign_search(r, cfg=None, prefer=None):
    """Fit every anchored sign vector through ``fit``, one at a time, and keep
    the likelihood maximizer; returns (signs, converged, likelihood table,
    winning fit).  Ties go to ``prefer``, then to the fewest leading flips."""
    cfg = cfg or FitConfig()
    fits, converged = {}, True
    for rest in product((1, -1), repeat=r.dim - 1):
        signs = (1, *rest)
        fits[signs], done = _fit_or_best(apply_signs(r, SignVector(signs)), cfg)
        converged = converged and done
    best_ll = max(f.log_likelihood for f in fits.values())
    candidates = sorted(
        (s for s, f in fits.items() if f.log_likelihood == best_ll),
        key=lambda s: tuple(0 if x > 0 else 1 for x in s),
    )
    winner = prefer.signs if prefer is not None and prefer.signs in candidates else candidates[0]
    return winner, converged, {s: f.log_likelihood for s, f in fits.items()}, fits[winner]


def _assert_matches_serial(r, cfg=None, prefer=None):
    """The search gives the serial reference's signs, table and winning fit,
    bit for bit."""
    result = exhaustive_sign_search(r, cfg, prefer=prefer)
    signs, converged, table, best = _serial_sign_search(r, cfg, prefer=prefer)
    assert result.method == "exhaustive_exact"
    assert (result.signs.signs, result.converged) == (signs, converged)
    assert list(result.switched_likelihoods.items()) == list(table.items())
    got = result.fit
    for name in ("sigma_hat", "k_hat", "w"):
        assert np.array_equal(getattr(got, name).values, getattr(best, name).values)
        assert getattr(got, name).labels == getattr(best, name).labels
    assert (got.sweeps, got.certificate, got.ml_graph) == (best.sweeps, best.certificate, best.ml_graph)
    assert (got.log_likelihood, got.duality_gap) == (best.log_likelihood, best.duality_gap)
    assert got.log_likelihood == max(result.switched_likelihoods.values())
    return result


def _two_twin_components() -> SymMatrix:
    """The unbalanced 4x4 example beside a 2x2 block: flipping both variables
    of the block leaves the switched matrix unchanged, so every sign vector
    ties exactly with its twin."""
    return SymMatrix(block_diag(UNBALANCED_R, [[1.0, -0.5], [-0.5, 1.0]]))


class TestSignVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignVector((1, 0))
        with pytest.raises(ValueError):
            SignVector((-1, 1))
        SignVector((-1, 1), anchored=False)


class TestApplySigns:
    def test_identity_signs(self, unbalanced4):
        d = SignVector((1, 1, 1, 1))
        assert np.array_equal(apply_signs(unbalanced4, d).values, unbalanced4.values)

    def test_global_flip_is_invisible(self, unbalanced4):
        d = SignVector((-1, -1, -1, -1), anchored=False)
        assert np.array_equal(apply_signs(unbalanced4, d).values, unbalanced4.values)

    def test_flipping_third_variable(self, unbalanced4):
        d = SignVector((1, 1, -1, 1))
        out = apply_signs(unbalanced4, d).values
        for i, j in ((0, 2), (1, 2), (2, 3)):
            assert out[i, j] == -UNBALANCED_R[i, j]
        for i, j in ((0, 1), (0, 3), (1, 3)):
            assert out[i, j] == UNBALANCED_R[i, j]

    def test_involution(self):
        rng = np.random.default_rng(50)
        r = random_correlation(rng, 5)
        d = _random_sign_vector(rng, 5)
        twice = apply_signs(apply_signs(r, d), d)
        assert np.array_equal(twice.values, r.values)


class TestDStar:
    def test_unbalanced_example_gets_identity(self, unbalanced4):
        assert d_star(unbalanced4).signs == (1, 1, 1, 1)

    def test_all_positive(self):
        rng = np.random.default_rng(51)
        r = random_correlation(rng, 5)
        nonneg = SymMatrix(np.abs(r.values))
        assert d_star(nonneg).signs == (1, 1, 1, 1, 1)

    def test_recovers_planted_signs(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            base = random_correlation(rng, 6)
            nonneg = SymMatrix(np.abs(base.values))  # connected, all positive
            d = _random_sign_vector(rng, 6)
            switched = apply_signs(nonneg, d)
            assert d_star(switched).signs == d.signs

    def test_balanced_input_switches_to_nonnegative(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            base = random_correlation(rng, 6)
            nonneg = SymMatrix(np.abs(base.values))
            r = apply_signs(nonneg, _random_sign_vector(rng, 6))  # balanced
            switched = apply_signs(r, d_star(r))
            assert switched.values.min() >= 0.0

    def test_forest_edges_become_nonnegative(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            r = random_correlation(rng, 6)
            d = d_star(r)
            out = apply_signs(r, d)
            absr = np.abs(r.values)
            np.fill_diagonal(absr, 1.0)
            for i, j, _ in mwsf(SymMatrix(absr)).edges:
                assert out.values[i, j] >= 0.0


class TestIsBalanced:
    def test_tree_support_is_balanced(self):
        rng = np.random.default_rng(54)
        base = random_correlation(rng, 6)
        tree = tree_mle(base, mwsf(base))
        signs = _random_sign_vector(rng, 6)
        balanced, witness = is_balanced(apply_signs(tree, signs))
        assert balanced and witness is None

    def test_unbalanced_example_has_cycle_witness(self, unbalanced4):
        balanced, witness = is_balanced(unbalanced4)
        assert not balanced
        assert set(witness) == {0, 1, 2}
        # the closing pair multiplies to a negative cycle product
        prod = 1.0
        cycle = witness + [witness[0]]
        for a, b in zip(cycle, cycle[1:]):
            prod *= UNBALANCED_R[a, b]
        assert prod < 0

    def test_switched_nonnegative_matrix_is_balanced(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            r = random_correlation(rng, 5)
            nonneg = SymMatrix(np.abs(r.values))
            switched = apply_signs(nonneg, _random_sign_vector(rng, 5))
            balanced, _ = is_balanced(switched)
            assert balanced

    def test_two_sample_correlations_can_be_unbalanced(self):
        # three planar score vectors at 80/80/160 degrees give a negative
        # cycle product, so two-observation inputs are not balanced in
        # general; the forest assignment is still optimal for them (see
        # TestFitSigned below)
        a1, a2 = np.deg2rad(80.0), np.deg2rad(160.0)
        x = np.array([1.0, np.cos(a1), np.cos(a2)])
        y = np.array([0.0, np.sin(a1), np.sin(a2)])
        s = SymMatrix((np.outer(x, x) + np.outer(y, y)) / 2)
        from totpos import to_correlation

        r, _ = to_correlation(s)
        balanced, witness = is_balanced(r)
        assert not balanced
        assert witness is not None


class TestFitSigned:
    def test_unbalanced_example_flips_third_variable(self, unbalanced4):
        result = fit_signed(unbalanced4)
        assert result.method == "exhaustive_exact"
        assert result.signs.signs == (1, 1, -1, 1)
        identity_ll = result.switched_likelihoods[(1, 1, 1, 1)]
        assert result.fit.log_likelihood - identity_ll > 1e-6
        assert result.fit.certificate.passed

    def test_balanced_input_short_circuits(self):
        rng = np.random.default_rng(57)
        r = random_correlation(rng, 4)
        switched = apply_signs(SymMatrix(np.abs(r.values)), _random_sign_vector(rng, 4))
        result = fit_signed(switched)
        assert result.method == "balanced_exact"
        exhaustive = exhaustive_sign_search(switched)
        assert exhaustive.fit.log_likelihood == pytest.approx(
            result.fit.log_likelihood, abs=1e-9
        )
        same = apply_signs(switched, result.signs)
        other = apply_signs(switched, exhaustive.signs)
        assert np.abs(same.values - other.values).max() <= 1e-12

    def test_two_samples_forest_signs_are_optimal(self):
        # for two-observation inputs the forest assignment attains the
        # signed optimum whether or not the sign pattern is balanced
        rng = np.random.default_rng(58)
        cfg = FitConfig(algorithm="k")
        for _ in range(8):
            r = random_correlation(rng, 5, n=2)
            star = d_star(r)
            star_ll = fit(apply_signs(r, star), cfg).log_likelihood
            result = fit_signed(r, cfg)
            assert result.method in ("balanced_exact", "exhaustive_exact")
            assert result.fit.log_likelihood <= star_ll + 1e-7
            assert np.array_equal(
                apply_signs(r, result.signs).values, apply_signs(r, star).values
            )

    def test_heuristic_fallback_warns(self, unbalanced4):
        with pytest.warns(RuntimeWarning, match="heuristic"):
            result = fit_signed(unbalanced4, exhaustive_limit=2)
        assert result.method == "heuristic"
        assert result.signs.signs == (1, 1, 1, 1)

    def test_global_sign_invariance(self, unbalanced4):
        rng = np.random.default_rng(59)
        d = _random_sign_vector(rng, 4)
        direct = fit_signed(unbalanced4)
        flipped = fit_signed(apply_signs(unbalanced4, d))
        assert flipped.fit.log_likelihood == pytest.approx(
            direct.fit.log_likelihood, abs=1e-9
        )
        a = apply_signs(unbalanced4, direct.signs)
        composed = SignVector(tuple(x * y for x, y in zip(d.signs, flipped.signs.signs)),
                              anchored=False)
        b = apply_signs(unbalanced4, composed)
        assert np.abs(a.values - b.values).max() <= 1e-12


class TestStackedSearch:
    """The exhaustive search fits every sign vector in one stack; the serial
    loop over ``fit`` is the reference."""

    @pytest.mark.parametrize("p, n", [(4, 3), (5, 10), (6, 2), (6, 12), (7, 3), (7, 14)])
    def test_matches_serial_reference(self, p, n):
        rng = np.random.default_rng(300 + 10 * p + n)
        for _ in range(2):
            r = random_correlation(rng, p, n=n)
            d = _random_sign_vector(rng, p)
            _assert_matches_serial(r, FitConfig(max_sweeps=200), prefer=d)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_stack_members_descend_as_alone(self, algorithm):
        # every member of a stack of sign switches takes, bit for bit, the
        # steps it takes in a stack of one, as ``fit`` runs it
        cfg = FitConfig(algorithm=algorithm, max_sweeps=200)
        for p in (5, 6, 7):
            for n in (2, 3, 2 * p):
                r = random_correlation(np.random.default_rng(1000 + 10 * p + n), p, n=n)
                d = signed._anchored_signs(p)
                stack = r.values * d[:, :, None] * d[:, None, :]
                w = max_product_closure(stack)
                sig, k, sweeps, converged = _descend(stack, w, cfg)
                for i in range(len(d)):
                    sig_alone, k_alone, n_alone, c_alone = _descend(stack[i : i + 1], w[i : i + 1], cfg)
                    assert np.array_equal(sig_alone[0], sig[i]) and np.array_equal(k_alone[0], k[i])
                    assert (n_alone[0], c_alone[0]) == (sweeps[i], converged[i])
                _assert_matches_serial(r, cfg)

    def test_unbalanced_example_matches_serial(self, unbalanced4):
        _assert_matches_serial(unbalanced4, prefer=d_star(unbalanced4))

    def test_precision_sweep_matches_serial(self):
        rng = np.random.default_rng(310)
        for n in (2, 10):
            _assert_matches_serial(random_correlation(rng, 5, n=n), FitConfig(algorithm="k"))

    def test_twin_ties_resolve_like_serial(self):
        r = _two_twin_components()
        plain = _assert_matches_serial(r)
        table = plain.switched_likelihoods
        for signs, ll in table.items():
            twin = (*signs[:4], -signs[4], -signs[5])
            assert table[twin] == ll
        # fewest leading flips: the twin with + on the block's first variable wins
        assert plain.signs.signs[4] == 1
        twin = SignVector((*plain.signs.signs[:4], -1, -plain.signs.signs[5]))
        preferred = _assert_matches_serial(r, prefer=twin)
        assert preferred.signs == twin
        loser = SignVector((1, 1, 1, 1, 1, 1))
        assert _assert_matches_serial(r, prefer=loser).signs == plain.signs

    def test_spent_budget_makes_search_unconverged(self):
        r = random_correlation(np.random.default_rng(317), 6, n=12)
        # one sweep: the Newton finish needs two with one support
        for algorithm in ALGORITHMS:
            cfg = FitConfig(algorithm=algorithm, max_sweeps=1)
            result = _assert_matches_serial(r, cfg)
            assert not result.converged
            # the covariance winner itself converged from W, so a losing sign
            # vector spent its budget; a precision fit needs two sweeps
            assert _fit_or_best(apply_signs(r, result.signs), cfg)[1] == (algorithm == "sigma")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_variable(self, algorithm):
        # one anchored sign vector, (1,), which has no entries to flip
        result = exhaustive_sign_search(SymMatrix(np.eye(1)), FitConfig(algorithm=algorithm))
        assert (result.signs.signs, result.converged) == ((1,), True)
        assert result.switched_likelihoods == {(1,): -1.0}

    def test_switched_matrix_without_mle_raises(self, tmp_path):
        r = np.eye(4)
        r[0, 1] = r[1, 0] = 0.3
        r[1, 2] = r[2, 1] = 0.3
        r[0, 2] = r[2, 0] = -0.3  # a negative cycle: unbalanced
        r[2, 3] = r[3, 2] = -(1.0 - 1e-13)  # +(1 - 1e-13) once switched
        r = SymMatrix(r)
        assert exists_mle(r)  # the unswitched input passes
        for search in (exhaustive_sign_search, _serial_sign_search):
            with pytest.raises(MleDoesNotExist):
                search(r)
        path = str(tmp_path / "r.csv")
        write_matrix_csv(r, path)
        assert main(["signed", path]) == 2

    def test_chunks_give_the_same_table(self, monkeypatch):
        r = random_correlation(np.random.default_rng(312), 6, n=3)
        whole = exhaustive_sign_search(r, FitConfig(max_sweeps=200))
        monkeypatch.setattr(signed, "SEARCH_CHUNK", 5)
        chunked = exhaustive_sign_search(r, FitConfig(max_sweeps=200))
        assert chunked.switched_likelihoods == whole.switched_likelihoods
        assert (chunked.signs, chunked.converged) == (whole.signs, whole.converged)

    @staticmethod
    def _forbid_fits(monkeypatch):
        def refuse(*args):
            raise AssertionError("the sign search ran a fit")

        for module in [m for n, m in sys.modules.items() if n.partition(".")[0] == "totpos"]:
            for name, value in list(vars(module).items()):
                if value is solver.fit:
                    monkeypatch.setattr(module, name, refuse)

    def test_search_runs_no_fit(self, monkeypatch):
        r = random_correlation(np.random.default_rng(313), 7, n=14)
        expected = exhaustive_sign_search(r)
        # a balanced input: the correlation of an M-matrix inverse, which is
        # entrywise positive, with some variables flipped
        rng = np.random.default_rng(314)
        cov = SymMatrix(np.linalg.inv(random_m_matrix(rng, 6).values))
        balanced = apply_signs(to_correlation(cov)[0], _random_sign_vector(rng, 6))
        plain = fit(apply_signs(balanced, d_star(balanced)))
        self._forbid_fits(monkeypatch)
        result = exhaustive_sign_search(r)
        assert result.signs == expected.signs
        assert np.array_equal(result.fit.sigma_hat.values, expected.fit.sigma_hat.values)
        # the balanced path runs the same search, on one row
        result = fit_signed(balanced)
        assert (result.method, result.signs) == ("balanced_exact", d_star(balanced))
        assert np.array_equal(result.fit.sigma_hat.values, plain.sigma_hat.values)
        assert np.array_equal(result.fit.k_hat.values, plain.k_hat.values)

    def test_tied_twins_resolve_without_fit(self, monkeypatch):
        r = _two_twin_components()
        self._forbid_fits(monkeypatch)
        plain = exhaustive_sign_search(r)
        # the twins differ only in the signs of their zero entries, so they
        # switch to one matrix; the one with fewer leading flips wins unless
        # the other is preferred
        assert plain.signs.signs[4] == 1
        twin = SignVector((*plain.signs.signs[:4], -1, -plain.signs.signs[5]))
        assert np.array_equal(apply_signs(r, twin).values, apply_signs(r, plain.signs).values)
        assert plain.switched_likelihoods[twin.signs] == plain.fit.log_likelihood
        preferred = exhaustive_sign_search(r, prefer=twin)
        assert preferred.signs == twin
        assert np.array_equal(preferred.fit.sigma_hat.values, plain.fit.sigma_hat.values)


class TestDominanceIdentity:
    def test_balanced_switch_dominates_pointwise(self):
        # for nonnegative R* and any signs D, the trace identity gives
        # l(K; R*) >= l(K; D R* D) for every feasible K
        rng = np.random.default_rng(60)
        for _ in range(10):
            r = random_correlation(rng, 5)
            rstar = SymMatrix(np.abs(r.values))
            k = random_m_matrix(rng, 5)
            d = _random_sign_vector(rng, 5)
            lhs = log_likelihood(k, rstar)
            rhs = log_likelihood(k, apply_signs(rstar, d))
            assert lhs >= rhs - 1e-12


class TestDisconnectedComponents:
    def test_each_component_rooted_at_its_minimum(self):
        r = np.eye(4)
        r[0, 1] = r[1, 0] = -0.6
        r[2, 3] = r[3, 2] = -0.4
        signs = d_star(SymMatrix(r)).signs
        assert signs[0] == 1 and signs[2] == 1
        assert signs[1] == -1 and signs[3] == -1

    def test_balanced_fit_on_disconnected_input(self):
        r = np.eye(4)
        r[0, 1] = r[1, 0] = -0.6
        r[2, 3] = r[3, 2] = 0.4
        result = fit_signed(SymMatrix(r))
        assert result.method == "balanced_exact"
        switched = apply_signs(SymMatrix(r), result.signs)
        assert switched.values.min() >= 0.0
