"""Sign-switched estimation: fitting after flipping the signs of variables.

A correlation matrix whose nonzero pattern carries only positive cycle
products (a balanced signed graph) can be flipped to an entrywise
nonnegative one, and the constrained fit on the flipped matrix is then the
exact optimum over all sign choices.  Unbalanced inputs need a search; at
desk dimensions an exhaustive sweep over all anchored sign vectors is exact,
beyond that the spanning-forest assignment is used as a heuristic and
flagged as such.

Every method fits its sign vectors one way: the forest assignment alone
(balanced or heuristic) or all 2^(p-1) anchored vectors (exhaustive), as
stacks with one max-product closure each, through the loop that ``fit``
runs on a stack of one (``solver._descend``), in which each member takes
the steps it would take alone, bit for bit.  The covariance sweep's column
steps each make one solve for the members that have not yet met the
stopping rule; the precision sweep runs its pair steps member by member.
Each member's likelihood, and the winner's certificate, gap and graph, are
then built from its (Sigma, K) pair and its slice of the closure as
``fit`` builds them, so no sign vector is fitted twice.  With the
covariance sweep, unbalanced inputs at n = 2p (2-vCPU Xeon, one BLAS
thread) took 0.08-0.19 s at p = 10 and 0.9-1.4 s at p = 12, against
0.28-0.76 s and 2.9-4.6 s with stacked pair steps (4.7-6.2 s and 23-46 s
with one ``fit`` per sign vector, on other such inputs).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .graphs import WeightedForest, mwsf
from .matcore import SymMatrix, require_unit_diagonal, to_correlation
from .solver import FitConfig, FitResult, MleDoesNotExist, _build_result, _descend, _exists, _precision
from .ultra import max_product_closure

# Largest dimension at which an unbalanced input gets the exhaustive search.
EXHAUSTIVE_LIMIT = 12

# Sign vectors the exhaustive search fits in one stack: at p = 12, 512
# switched matrices take 0.6 MB per stacked array.
SEARCH_CHUNK = 512


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


def _abs_forest(r: SymMatrix) -> WeightedForest:
    return mwsf(SymMatrix(np.abs(r.values)))  # mwsf reads no diagonal entry


def _propagate_signs(r: SymMatrix, forest: WeightedForest) -> SignVector:
    vals = r.values
    signs = [1] * r.dim  # each root, its tree's smallest vertex, keeps +1
    for u, v in forest.order:
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


def _anchored_signs(p: int) -> np.ndarray:
    """Every anchored sign vector of length p, one per row, first sign +1,
    the rest in ``itertools.product((1, -1), ...)`` order."""
    rest = np.array(list(product((1.0, -1.0), repeat=p - 1))).reshape(2 ** (p - 1), p - 1)
    return np.hstack([np.ones((len(rest), 1)), rest])


def _search(r: SymMatrix, rc: SymMatrix, scale: np.ndarray, cfg: FitConfig, signs: np.ndarray,
            method: str, prefer: SignVector | None = None) -> SignedFitResult:
    """Fit the switch of ``r`` by each row of ``signs``, (rc, scale) being
    ``to_correlation(r)``, and keep the likelihood maximizer.

    The rows' switched correlation matrices, exactly rc switched since the
    signs are +-1, run the configured descent together, SEARCH_CHUNK at a
    time.  The table and the result are those of a plain ``fit`` of each
    switched matrix; a lone row is not ranked, and the table is kept for
    "exhaustive_exact".  Exact ties resolve toward ``prefer``, then toward
    the first row.  A fit that runs out of sweeps competes with its best
    iterate and marks the result unconverged.  Existence is tested on |R|:
    no switch lifts an entry above max |r_ij|, and the forest assignment,
    in every row set, makes the heaviest forest edge of |R| positive.
    """
    if not _exists(SymMatrix(np.abs(rc.values))):
        raise MleDoesNotExist("no maximum likelihood estimate: some normalized entry reaches one")
    m, p = signs.shape
    sigs, ks, ws = np.empty((3, m, p, p))
    sweeps, ll, converged = np.empty(m, int), np.zeros(m), True
    for at in range(0, m, SEARCH_CHUNK):
        d = signs[at : at + SEARCH_CHUNK]
        part = slice(at, at + len(d))
        flips = d[:, :, None] * d[:, None, :]
        stack = rc.values * flips
        ws[part] = max_product_closure(stack)
        sigs[part], ks[part], sweeps[part], done = _descend(stack, ws[part], cfg)
        converged = converged and bool(done.all())
        if m > 1:  # each entry as ``fit`` computes it, on the switched input
            ll[part] = [_precision(x, s, scale)[1] for x, s in zip(ks[part], r.values * flips)]
    keys = [tuple(map(int, d)) for d in signs]
    table = dict(zip(keys, ll.tolist()))
    best = int(np.argmax(ll))  # the first maximum
    if prefer is not None and table.get(prefer.signs) == ll[best]:
        best = keys.index(prefer.signs)
    winner = SignVector(keys[best])
    w = SymMatrix(ws[best], labels=r.labels)
    result = _build_result(apply_signs(r, winner), apply_signs(rc, winner), scale, sigs[best], ks[best],
                           int(sweeps[best]), w, cfg)
    table[winner.signs] = result.log_likelihood  # the ranked entry, bit for bit
    kept = table if method == "exhaustive_exact" else None
    return SignedFitResult(winner, result, method, converged, kept)


def exhaustive_sign_search(
    r: SymMatrix, cfg: FitConfig | None = None, prefer: SignVector | None = None
) -> SignedFitResult:
    """Fit every anchored sign vector and keep the likelihood maximizer.

    The rows run in ``itertools.product`` order, so exact ties (identical
    switched matrices occur across disconnected components) resolve toward
    ``prefer`` when given, then toward the fewest leading flips.  Raises
    MleDoesNotExist when some switched matrix fails ``exists_mle``, and
    whatever ``fit`` of a switched matrix raises.
    """
    cfg = cfg or FitConfig()
    rc, scale = to_correlation(r)  # names a non-finite entry as given
    return _search(r, rc, scale, cfg, _anchored_signs(r.dim), "exhaustive_exact", prefer)


def fit_signed(
    r: SymMatrix, cfg: FitConfig | None = None, exhaustive_limit: int = EXHAUSTIVE_LIMIT
) -> SignedFitResult:
    """Maximize the likelihood over sign switches of the variables.

    Every method runs one search: on the forest assignment alone for a
    balanced input, where it is exact, and beyond ``exhaustive_limit``,
    where it is a heuristic and a warning is emitted; otherwise on the
    2^(p-1) anchored sign vectors, ties going to the forest assignment.  A
    spent sweep budget is reported through ``converged`` instead of raising.
    """
    cfg = cfg or FitConfig()
    require_unit_diagonal(r)
    rc, scale = to_correlation(r)  # names a non-finite entry as given, before any switch
    forest = _abs_forest(r)
    star = _propagate_signs(r, forest)
    if _witness_cycle(r, forest, star) is None:
        method = "balanced_exact"
    elif r.dim <= exhaustive_limit:
        return _search(r, rc, scale, cfg, _anchored_signs(r.dim), "exhaustive_exact", prefer=star)
    else:
        warnings.warn(
            "unbalanced input beyond the exhaustive search limit; "
            "reporting the spanning-forest heuristic, which may not be optimal",
            RuntimeWarning,
            stacklevel=2,
        )
        method = "heuristic"
    return _search(r, rc, scale, cfg, np.array([star.signs], dtype=float), method)
