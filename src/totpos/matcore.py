"""Dense symmetric matrix primitives.

Everything downstream (solvers, graph constructions, certificates) works on
small dense symmetric matrices, so this module provides the shared value type
plus factorization, inversion, correlation normalization, and the M-matrix
predicate.  All tolerances are relative to the diagonal
scale of the input so that results are invariant under rescaling of the
variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# Pivot acceptance threshold for the factorization, relative to the largest
# diagonal entry of the input.
PIVOT_RTOL = 1e-12


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


def require_unit_diagonal(m: SymMatrix, tol: float = 1e-9) -> None:
    """Raise unless the matrix is on correlation scale (unit diagonal)."""
    dev = float(np.abs(m.values.diagonal() - 1.0).max())
    if dev > tol:
        raise ValueError(
            "matrix must have unit diagonal (correlation scale); "
            "normalize with to_correlation first"
        )


def pd_factorize(m: SymMatrix) -> PdFactor:
    """Factor a positive definite matrix as L @ L.T with L lower triangular.

    Raises:
        NotPositiveDefinite: when a pivot is at most PIVOT_RTOL times the
            largest diagonal entry; the exception carries the pivot index.
    """
    a = m.values
    p = m.dim
    tol = PIVOT_RTOL * float(a.diagonal().max())
    lower = np.zeros((p, p))
    for j in range(p):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= tol:
            raise NotPositiveDefinite(j)
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < p:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    log_det = 2.0 * float(np.log(lower.diagonal()).sum())
    return PdFactor(lower, log_det)


def inverse_pd(m: SymMatrix) -> SymMatrix:
    """Invert a positive definite matrix via its triangular factor."""
    fac = pd_factorize(m)
    linv = solve_triangular(fac.factor, np.eye(m.dim), lower=True)
    inv = linv.T @ linv
    return SymMatrix((inv + inv.T) / 2.0, labels=m.labels)


def to_correlation(s: SymMatrix) -> tuple[SymMatrix, np.ndarray]:
    """Normalize to unit diagonal; returns (R, scale) with scale[i] = sqrt(S_ii)."""
    diag = s.values.diagonal()
    for i, v in enumerate(diag):
        if v <= 0:
            raise NonPositiveDiagonal(i)
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
