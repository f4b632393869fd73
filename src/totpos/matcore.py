"""Dense symmetric matrix primitives.

Everything downstream (solvers, graph constructions, certificates) works on
small dense symmetric matrices, so this module provides the shared value type
plus factorization, inversion, correlation normalization, and the M-matrix
predicate.  All tolerances are relative to the diagonal
scale of the input so that results are invariant under rescaling of the
variables.  Every positive-definiteness test, log determinant and inverse
is one LAPACK dpotrf factorization under the pivot rule of ``cholesky``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

# Pivot acceptance threshold for the factorization, relative to the largest
# diagonal entry of the input.
PIVOT_RTOL = 1e-12

# Largest deviation of a diagonal entry from one on correlation scale.
UNIT_DIAG_TOL = 1e-9


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A factorization pivot fell below the positive-definiteness threshold."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is not positive definite (pivot {pivot_index})")


class NonPositiveDiagonal(ValueError):
    """A diagonal entry required to be positive is not."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"diagonal entry {index} is not positive")


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Immutable dense symmetric matrix with optional variable labels.

    The stored array is exactly symmetric (near-symmetric input is averaged
    with its transpose) and marked read-only, so values are safe to share
    across threads.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        a = np.array(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must have dimension >= 1")
        scale = max(1.0, float(np.abs(a).max()))
        with np.errstate(invalid="ignore"):  # inf - inf: to_correlation rejects it
            asym = float(np.abs(a - a.T).max())
        if asym > 1e-8 * scale:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "values", a)
        if self.labels is not None:
            labels = tuple(str(name) for name in self.labels)
            if len(labels) != a.shape[0]:
                raise ValueError("label count does not match matrix dimension")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be unique")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class PdFactor:
    """Lower-triangular factor of a positive definite matrix.

    ``factor @ factor.T`` reconstructs the input and ``log_det`` equals
    ``2 * sum(log(diag(factor)))``.
    """

    factor: np.ndarray
    log_det: float


def require_unit_diagonal(m: SymMatrix) -> None:
    """Raise unless the matrix is on correlation scale (unit diagonal)."""
    dev = float(np.abs(m.values.diagonal() - 1.0).max())
    if dev > UNIT_DIAG_TOL:
        raise ValueError(
            "matrix must have unit diagonal (correlation scale); "
            "normalize with to_correlation first"
        )


def cholesky(a: np.ndarray) -> np.ndarray:
    """Upper triangular U with U.T @ U = a, by LAPACK dpotrf on the upper
    triangle of a symmetric array.

    Raises:
        NotPositiveDefinite: when a pivot (a squared diagonal entry of U) is
            not above PIVOT_RTOL times the largest diagonal entry of ``a``,
            NaN included; the exception carries the first such pivot's index.
    """
    u, info = dpotrf(a)
    tol = PIVOT_RTOL * a.diagonal().max()
    # U's diagonal is nonnegative or NaN, and its min is NaN when any entry is
    if info == 0 and u.diagonal().min() ** 2 > tol:
        return u
    ok = u.diagonal() ** 2 > tol
    # dpotrf stops at the first pivot that is not positive (info, 1-based)
    # and leaves it and the rest unfactored
    if info > 0:
        ok[info - 1 :] = False
    raise NotPositiveDefinite(int(np.argmin(ok)))


def inverse(a: np.ndarray) -> np.ndarray:
    """a^{-1} from ``cholesky`` and LAPACK dpotri, exactly symmetric;
    raises NotPositiveDefinite as ``cholesky`` does."""
    inv, _ = dpotri(cholesky(a))  # upper triangle; dpotrf zeroed the lower one
    inv += inv.T
    inv.flat[:: len(a) + 1] /= 2.0
    return inv


def pd_factorize(m: SymMatrix) -> PdFactor:
    """Factor a positive definite matrix as L @ L.T with L lower triangular
    (``cholesky``'s factor transposed); raises NotPositiveDefinite as
    ``cholesky`` does."""
    upper = cholesky(m.values)
    return PdFactor(upper.T, 2.0 * float(np.log(upper.diagonal()).sum()))


def pd_mask(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a stack of shape (m, p, p) ``cholesky`` accepts."""
    ok = np.ones(len(stack), dtype=bool)
    for i, a in enumerate(stack):
        try:
            cholesky(a)
        except NotPositiveDefinite:
            ok[i] = False
    return ok


def inverse_pd(m: SymMatrix) -> SymMatrix:
    """Invert a positive definite matrix (``inverse``)."""
    return SymMatrix(inverse(m.values), labels=m.labels)


def to_correlation(s: SymMatrix) -> tuple[SymMatrix, np.ndarray]:
    """Normalize to unit diagonal; returns (R, scale) with scale[i] = sqrt(S_ii).
    Raises ValueError at the first entry that is not finite, after the diagonal check."""
    diag = s.values.diagonal()
    bad = np.flatnonzero(~(diag > 0))  # NaN too
    if len(bad):
        raise NonPositiveDiagonal(int(bad[0]))
    bad = np.argwhere(~np.isfinite(s.values))  # off the diagonal, or an infinite variance
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"entry ({i}, {j}) is {s.values[i, j]}, not a finite number")
    scale = np.sqrt(diag)
    r = s.values / np.outer(scale, scale)
    r = r.copy()
    np.fill_diagonal(r, 1.0)
    return SymMatrix(r, labels=s.labels), scale


def rescale_solution(sigma_r: SymMatrix, scale) -> SymMatrix:
    """Undo to_correlation: multiply entry (i, j) by scale[i] * scale[j]."""
    scale = np.asarray(scale, dtype=float)
    if scale.shape != (sigma_r.dim,):
        raise ValueError("scale length does not match matrix dimension")
    return SymMatrix(sigma_r.values * np.outer(scale, scale), labels=sigma_r.labels)


def is_m_matrix(k: SymMatrix, tol: float = 1e-9) -> bool:
    """True iff ``k`` is positive definite with off-diagonal entries <= tol."""
    try:
        pd_factorize(k)
    except NotPositiveDefinite:
        return False
    if k.dim == 1:
        return True
    off = k.values[~np.eye(k.dim, dtype=bool)]
    return bool(off.max() <= tol)


def log_likelihood(k: SymMatrix, s: SymMatrix) -> float:
    """Gaussian log-likelihood kernel log det K - tr(S K); requires K > 0."""
    if k.dim != s.dim:
        raise ValueError("dimension mismatch")
    fac = pd_factorize(k)
    return fac.log_det - float((s.values * k.values).sum())
