import math

import numpy as np
import pytest

from totpos import (
    NonPositiveDiagonal,
    NotPositiveDefinite,
    SymMatrix,
    active_set_oracle,
    fit,
    fit_signed,
    inverse_pd,
    is_m_matrix,
    log_likelihood,
    pd_factorize,
    rescale_solution,
    to_correlation,
)
from totpos.matcore import PIVOT_RTOL, pd_mask
from conftest import STAR_K, random_pd


def _reference_pd_factorize(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The Python Cholesky loop that ``pd_factorize`` ran before it called
    LAPACK: (L, log det) with L @ L.T = a, raising NotPositiveDefinite at the
    first pivot at most PIVOT_RTOL times the largest diagonal entry."""
    p = len(a)
    tol = PIVOT_RTOL * float(a.diagonal().max())
    lower = np.zeros((p, p))
    for j in range(p):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= tol:
            raise NotPositiveDefinite(j)
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < p:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower, 2.0 * float(np.log(lower.diagonal()).sum())


def _reference_verdict(a: np.ndarray):
    """(L, log det) from the reference loop, or the failing pivot index."""
    try:
        return _reference_pd_factorize(a)
    except NotPositiveDefinite as err:
        return err.pivot_index


def _kernel_inputs(rng, p: int) -> list[np.ndarray]:
    """Positive definite matrices, rank-deficient sample covariances (n < p)
    and indefinite matrices, all of dimension p."""
    members = [random_pd(rng, p).values for _ in range(2)]
    x = rng.standard_normal((2 * p, p))
    members.append(x.T @ x / (2 * p))
    for n in sorted({1, p // 2, p - 1}):
        x = rng.standard_normal((n, p))
        members.append(x.T @ x / n)
    # one, two and p // 2 negative eigenvalues among positive ones
    for negative in (1, 2, p // 2):
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        eig = rng.uniform(0.1, 10.0, size=p)
        eig[:negative] = -rng.uniform(0.1, 1.0, size=negative)
        members.append(q @ np.diag(eig) @ q.T)
    return [(a + a.T) / 2.0 for a in members]


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

    def test_nan_variance(self):
        a = np.array([[np.nan, 0.2], [0.2, 1.0]])
        with pytest.raises(NonPositiveDiagonal) as err:
            to_correlation(SymMatrix(a))
        assert err.value.index == 0
        with pytest.raises(NonPositiveDiagonal):
            fit(SymMatrix(a))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_off_diagonal(self, value):
        a = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, value], [0.1, value, 4.0]])
        s = SymMatrix(a)  # accepted: the entry is rejected on normalizing
        message = rf"entry \(1, 2\) is {value}, not a finite number"
        with pytest.raises(ValueError, match=message) as err:
            to_correlation(s)
        assert not isinstance(err.value, NonPositiveDiagonal)
        with pytest.raises(ValueError, match=message):
            fit(s)
        with pytest.raises(ValueError, match=message):
            active_set_oracle(s)
        # the signed fit takes R and normalizes a switched matrix, where the
        # entry's sign may differ
        np.fill_diagonal(a, 1.0)
        with pytest.raises(ValueError, match=rf"entry \(1, 2\) is -?{abs(value)}, not"):
            fit_signed(SymMatrix(a))

    def test_infinite_variance(self):
        s = SymMatrix(np.array([[1.0, 0.2], [0.2, np.inf]]))
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is inf, not a finite number"):
            to_correlation(s)
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is inf"):
            fit(s)

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



class TestStackedPdMask:
    def test_matches_pd_factorize(self):
        rng = np.random.default_rng(90)
        members = [random_pd(rng, 5).values for _ in range(4)]
        x = rng.standard_normal((3, 5))
        members.append(x.T @ x)  # rank 3
        indefinite = np.eye(5)
        indefinite[0, 4] = indefinite[4, 0] = 1.2
        members.append(indefinite)
        # last pivot 2e-12 and 0.5e-12 times the largest diagonal entry
        for slack in (2.0, 0.5):
            a = np.eye(5)
            a[3, 4] = a[4, 3] = math.sqrt(1.0 - slack * PIVOT_RTOL)
            members.append(a)
        mask = pd_mask(np.array(members))
        expected = []
        for a in members:
            try:
                pd_factorize(SymMatrix(a))
                expected.append(True)
            except NotPositiveDefinite:
                expected.append(False)
        assert mask.tolist() == expected == [True] * 4 + [False, False, True, False]


class TestKernelMatchesReferenceLoop:
    """``pd_factorize`` and ``pd_mask`` (LAPACK dpotrf under the pivot rule)
    against the Python loop they replaced."""

    @pytest.mark.parametrize("p", [5, 40, 130, 300])
    def test_verdict_pivot_factor_and_log_det(self, p):
        rng = np.random.default_rng([92, p])
        outcomes = []
        for a in _kernel_inputs(rng, p):
            expected = _reference_verdict(a)
            try:
                fac = pd_factorize(SymMatrix(a))
            except NotPositiveDefinite as err:
                assert err.pivot_index == expected
                outcomes.append("fail")
                continue
            lower, log_det = expected
            assert np.abs(fac.factor - lower).max() <= 1e-12 * np.abs(lower).max()
            assert fac.log_det == pytest.approx(log_det, rel=1e-12, abs=1e-12)
            outcomes.append("pass")
        assert outcomes.count("pass") == 3

    def test_rank_deficient_fails_at_its_rank(self):
        # at p = 300 the failing pivot lies past dpotrf's first block, so its
        # index is read from a partial factor
        rng = np.random.default_rng(93)
        for n in (70, 150, 299):
            x = rng.standard_normal((n, 300))
            with pytest.raises(NotPositiveDefinite) as err:
                pd_factorize(SymMatrix(x.T @ x / n))
            assert err.value.pivot_index == n

    @pytest.mark.parametrize("p", [5, 40])
    def test_stacked_mask_member_by_member(self, p):
        rng = np.random.default_rng([94, p])
        stack = np.array(_kernel_inputs(rng, p) + _kernel_inputs(rng, p))
        expected = [not isinstance(_reference_verdict(a), int) for a in stack]
        assert pd_mask(stack).tolist() == expected
        assert sum(expected) == 6


class TestNotANumber:
    """A NaN entry fails the pivot test on every path."""

    @pytest.mark.parametrize("at", [(1, 1), (0, 2)])
    def test_every_path_rejects(self, at):
        a = np.array([[2.0, -0.5, -0.2], [-0.5, 2.0, -0.3], [-0.2, -0.3, 2.0]])
        a[at] = a[at[::-1]] = np.nan
        m = SymMatrix(a)
        with pytest.raises(NotPositiveDefinite):
            pd_factorize(m)
        with pytest.raises(NotPositiveDefinite):
            inverse_pd(m)
        assert pd_mask(a[None]).tolist() == [False]
        assert not is_m_matrix(m)
