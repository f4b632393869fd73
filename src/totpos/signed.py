"""Sign-switched estimation: fitting after flipping the signs of variables.

A correlation matrix whose nonzero pattern carries only positive cycle
products (a balanced signed graph) can be flipped to an entrywise
nonnegative one, and the constrained fit on the flipped matrix is then the
exact optimum over all sign choices.  Unbalanced inputs need a search; at
desk dimensions an exhaustive sweep over all anchored sign vectors is exact,
beyond that the spanning-forest assignment is used as a heuristic and
flagged as such.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .graphs import WeightedForest, mwsf
from .matcore import SymMatrix, require_unit_diagonal
from .solver import FitConfig, FitResult, MaxSweepsExceeded, fit


class ZeroWeightTreeEdge(RuntimeError):
    """A spanning-forest edge carries a zero entry (cannot normally occur)."""


@dataclass(frozen=True)
class SignVector:
    """A +-1 assignment per variable, anchored so the first sign is +1."""

    signs: tuple[int, ...]
    anchored: bool = True

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if self.anchored and signs and signs[0] != 1:
            raise ValueError("anchored sign vectors start with +1")
        object.__setattr__(self, "signs", signs)


@dataclass(frozen=True, eq=False)
class SignedFitResult:
    """Chosen signs and the fit on the switched matrix.

    method is "balanced_exact" (flip determined by the spanning forest,
    provably optimal), "exhaustive_exact" (search over all anchored sign
    vectors), or "heuristic" (forest flip without optimality guarantee).
    converged is False when any fit of the search ran out of sweeps; such a
    fit contributes its best iterate.  switched_likelihoods maps each
    candidate sign tuple to its fitted log-likelihood in exhaustive mode.
    """

    signs: SignVector
    fit: FitResult
    method: str
    converged: bool
    switched_likelihoods: dict[tuple[int, ...], float] | None = None


def apply_signs(r: SymMatrix, d: SignVector) -> SymMatrix:
    """Conjugate by the sign matrix: entry (i, j) becomes d_i d_j R_ij."""
    if len(d.signs) != r.dim:
        raise ValueError("sign vector length does not match matrix dimension")
    s = np.array(d.signs, dtype=float)
    return SymMatrix(r.values * np.outer(s, s), labels=r.labels)


def _fit_best(r: SymMatrix, cfg: FitConfig) -> tuple[FitResult, bool]:
    """The fit and whether it converged; on a spent budget, the best iterate."""
    try:
        return fit(r, cfg), True
    except MaxSweepsExceeded as exc:
        return exc.result, False


def _abs_forest(r: SymMatrix) -> WeightedForest:
    a = np.abs(r.values)
    np.fill_diagonal(a, 1.0)
    return mwsf(SymMatrix(a))


def _propagate_signs(r: SymMatrix, forest: WeightedForest) -> SignVector:
    vals = r.values
    signs = [0] * r.dim
    for root in range(r.dim):
        if signs[root]:
            continue
        signs[root] = 1  # vertices ascend, so this is the component minimum
        for u, v in forest.walk(root):
            w = vals[u, v]
            if w == 0.0:
                raise ZeroWeightTreeEdge(f"forest edge ({u}, {v}) has zero weight")
            signs[v] = signs[u] * (1 if w > 0 else -1)
    return SignVector(tuple(signs))


def _witness_cycle(r: SymMatrix, forest: WeightedForest, signs: SignVector) -> list[int] | None:
    """Forest path closing the first pair the switch leaves negative, if any."""
    s = np.array(signs.signs, dtype=float)
    bad = np.argwhere(np.triu(np.outer(s, s) * r.values < 0.0, 1))
    if not len(bad):
        return None
    i, j = bad[0]
    return forest.path(int(i), int(j))


def d_star(r: SymMatrix) -> SignVector:
    """Sign assignment propagated along the spanning forest of |R|.

    Each component is rooted at its smallest vertex with sign +1 and signs
    follow the edge signs outward, so every forest edge of |R| becomes
    nonnegative after switching.
    """
    require_unit_diagonal(r)
    return _propagate_signs(r, _abs_forest(r))


def is_balanced(r: SymMatrix) -> tuple[bool, list[int] | None]:
    """Whether every cycle of the nonzero pattern has a positive product.

    Checked by switching: propagate signs along the spanning forest of |R|
    and look for a nonzero entry the switch leaves negative.  On failure the
    witness cycle (forest path between the endpoints, closed by the
    offending pair) is returned as a vertex list.
    """
    require_unit_diagonal(r)
    forest = _abs_forest(r)
    witness = _witness_cycle(r, forest, _propagate_signs(r, forest))
    return witness is None, witness


def exhaustive_sign_search(
    r: SymMatrix, cfg: FitConfig | None = None, prefer: SignVector | None = None
) -> SignedFitResult:
    """Fit every anchored sign vector and keep the likelihood maximizer.

    Exact ties (identical switched matrices occur across disconnected
    components) resolve toward ``prefer`` when given, then toward the
    vector with the fewest leading flips.  A fit that runs out of sweeps
    competes with its best iterate and marks the result unconverged.
    """
    cfg = cfg or FitConfig()
    fits: dict[tuple[int, ...], FitResult] = {}
    converged = True
    for rest in product((1, -1), repeat=r.dim - 1):
        signs = (1, *rest)
        fits[signs], done = _fit_best(apply_signs(r, SignVector(signs)), cfg)
        converged = converged and done
    best_ll = max(f.log_likelihood for f in fits.values())
    candidates = sorted(
        (s for s, f in fits.items() if f.log_likelihood == best_ll),
        key=lambda s: tuple(0 if x > 0 else 1 for x in s),
    )
    if prefer is not None and prefer.signs in candidates:
        winner = prefer.signs
    else:
        winner = candidates[0]
    table = {s: f.log_likelihood for s, f in fits.items()}
    return SignedFitResult(SignVector(winner), fits[winner], "exhaustive_exact", converged, table)


def fit_signed(
    r: SymMatrix, cfg: FitConfig | None = None, exhaustive_limit: int = 12
) -> SignedFitResult:
    """Maximize the likelihood over sign switches of the variables.

    Balanced inputs use the forest assignment, which is exact.  Otherwise an
    exhaustive search over the 2^(p-1) anchored sign vectors runs when the
    dimension allows it; beyond ``exhaustive_limit`` the forest assignment
    is used as a heuristic and a warning is emitted.  A spent sweep budget
    is reported through ``converged`` instead of raising.
    """
    cfg = cfg or FitConfig()
    require_unit_diagonal(r)
    forest = _abs_forest(r)
    star = _propagate_signs(r, forest)
    if _witness_cycle(r, forest, star) is None:
        method = "balanced_exact"
    elif r.dim <= exhaustive_limit:
        return exhaustive_sign_search(r, cfg, prefer=star)
    else:
        warnings.warn(
            "unbalanced input beyond the exhaustive search limit; "
            "reporting the spanning-forest heuristic, which may not be optimal",
            RuntimeWarning,
            stacklevel=2,
        )
        method = "heuristic"
    result, converged = _fit_best(apply_signs(r, star), cfg)
    return SignedFitResult(star, result, method, converged)
