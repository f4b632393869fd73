import math

import numpy as np
import pytest

from totpos import (
    NonPositiveDiagonal,
    NotPositiveDefinite,
    SymMatrix,
    inverse_pd,
    is_m_matrix,
    log_likelihood,
    pd_factorize,
    rescale_solution,
    to_correlation,
)
from conftest import STAR_K, random_pd


class TestSymMatrix:
    def test_symmetrizes_and_freezes(self):
        m = SymMatrix(np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]]))
        assert m.values[0, 1] == m.values[1, 0]
        assert not m.values.flags.writeable

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            SymMatrix(np.eye(2), labels=("a",))
        with pytest.raises(ValueError):
            SymMatrix(np.eye(2), labels=("a", "a"))
        assert SymMatrix(np.eye(2), labels=["a", "b"]).labels == ("a", "b")


class TestFactorize:
    def test_identity(self):
        fac = pd_factorize(SymMatrix(np.eye(3)))
        assert np.array_equal(fac.factor, np.eye(3))
        assert fac.log_det == 0.0

    def test_two_by_two_logdet(self):
        fac = pd_factorize(SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
        assert fac.log_det == pytest.approx(math.log(0.75), abs=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite) as err:
            pd_factorize(SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert err.value.pivot_index == 1

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_pd(rng, 5)
            fac = pd_factorize(m)
            rebuilt = fac.factor @ fac.factor.T
            assert np.abs(rebuilt - m.values).max() <= 1e-10 * np.abs(m.values).max()
            sign, logdet = np.linalg.slogdet(m.values)
            assert sign == 1.0
            assert fac.log_det == pytest.approx(logdet, abs=1e-9)


class TestInverse:
    def test_identity(self):
        assert np.array_equal(inverse_pd(SymMatrix(np.eye(4))).values, np.eye(4))

    def test_diagonal(self):
        inv = inverse_pd(SymMatrix(np.diag([2.0, 4.0])))
        assert np.allclose(inv.values, np.diag([0.5, 0.25]), atol=1e-15)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = random_pd(rng, 6)
            prod = m.values @ inverse_pd(m).values
            assert np.abs(prod - np.eye(6)).max() <= 1e-8


class TestCorrelationScale:
    def test_diagonal_input(self):
        r, scale = to_correlation(SymMatrix(np.diag([4.0, 9.0])))
        assert np.array_equal(r.values, np.eye(2))
        assert np.array_equal(scale, [2.0, 3.0])

    def test_idempotent_on_correlations(self):
        r0 = np.array([[1.0, 0.3], [0.3, 1.0]])
        r, scale = to_correlation(SymMatrix(r0))
        assert np.array_equal(r.values, r0)
        assert np.array_equal(scale, [1.0, 1.0])

    def test_direct_formula(self):
        r, _ = to_correlation(SymMatrix(np.array([[4.0, 2.0], [2.0, 9.0]])))
        assert r.values[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_nonpositive_diagonal(self):
        with pytest.raises(NonPositiveDiagonal) as err:
            to_correlation(SymMatrix(np.array([[1.0, 0.0], [0.0, -2.0]])))
        assert err.value.index == 1

    def test_rescale_identity_map(self):
        m = SymMatrix(np.array([[1.0, 0.2], [0.2, 1.0]]))
        assert np.array_equal(rescale_solution(m, [1.0, 1.0]).values, m.values)

    def test_rescale_diagonal(self):
        out = rescale_solution(SymMatrix(np.eye(2)), [2.0, 3.0])
        assert np.array_equal(out.values, np.diag([4.0, 9.0]))

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_pd(rng, 5)
            r, scale = to_correlation(s)
            back = rescale_solution(r, scale)
            assert np.abs(back.values - s.values).max() <= 1e-12 * np.abs(s.values).max()


class TestMMatrixPredicate:
    def test_identity(self):
        assert is_m_matrix(SymMatrix(np.eye(3)))

    def test_positive_offdiagonal(self):
        assert not is_m_matrix(SymMatrix(np.array([[1.0, 0.1], [0.1, 1.0]])))

    def test_star_precision(self):
        assert is_m_matrix(SymMatrix(STAR_K))

    def test_not_pd(self):
        assert not is_m_matrix(SymMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]])))

    def test_inverse_is_nonnegative(self):
        # inverses of M-matrices have nonnegative entries
        from conftest import random_m_matrix

        rng = np.random.default_rng(5)
        for _ in range(25):
            k = random_m_matrix(rng, 6)
            assert is_m_matrix(k, tol=1e-12)
            assert inverse_pd(k).values.min() >= -1e-9


class TestLogLikelihood:
    def test_stationary_value(self):
        rng = np.random.default_rng(6)
        s = random_pd(rng, 3)
        k = inverse_pd(s)
        expected = -np.linalg.slogdet(s.values)[1] - 3
        assert log_likelihood(k, s) == pytest.approx(expected, abs=1e-9)

    def test_identity_pair(self):
        m = SymMatrix(np.eye(2))
        assert log_likelihood(m, m) == -2.0

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            log_likelihood(SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), SymMatrix(np.eye(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_likelihood(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))

