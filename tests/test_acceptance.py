"""Acceptance suite: every release criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each criterion evaluates all of its checks before reporting, so a
failure names exactly the offending checks.
"""

import os
import time
from itertools import combinations

import numpy as np
import pytest

from totpos import (
    FitConfig,
    NotApplicable,
    SignVector,
    SymMatrix,
    WeightedGraph,
    active_set_oracle,
    apply_signs,
    block_closed_form,
    d_star,
    ec_graph,
    exhaustive_sign_search,
    exists_mle,
    fit,
    grw_graph,
    inverse_pd,
    is_balanced,
    is_block_graph,
    is_m_matrix,
    log_likelihood,
    max_clique,
    ml_graph_upper_bound,
    mwsf,
    mwsf_containment,
    pd_factorize,
    rescale_solution,
    single_linkage,
    threshold_k,
    to_correlation,
    w_matrix,
)
from totpos.solver import _pair_indices, _update_pair_k, _update_pair_sigma
from conftest import (
    CARCASS_CHAIN_EDGES,
    CARCASS_LABELS,
    CARCASS_ML_EDGES,
    CARCASS_MLE_2DP,
    CARCASS_R,
    STAR_K,
    UNBALANCED_R,
    random_correlation,
    random_m_matrix,
)


def _report(num: int, name: str, checks: list[tuple[str, bool]]) -> None:
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL: " + "; ".join(failed)
    print(f"[acceptance {num:>2}] {name}: {status}")
    assert not failed, f"criterion {num} ({name}) failed: {failed}"


def test_criterion_1_carcass_reproduction():
    s = SymMatrix(CARCASS_R, labels=CARCASS_LABELS)
    start = time.perf_counter()
    res = fit(s)
    elapsed = time.perf_counter() - start

    # CARCASS_MLE_2DP was computed from the unrounded data, so it is the MLE
    # of some correlation matrix R* that prints as CARCASS_R, not of
    # CARCASS_R itself.  The fitted graph is a block graph: the triangles
    # {Fat11, Fat12, Fat13} and {Meat11, Meat12, Meat13} joined by the edge
    # Meat11-Fat13 (criterion 2).  So each entry between the triangles is
    # the path product r[i, 4] * r[4, 1] * r[1, j] through that edge.  With
    # t = r[1, 4], a match with the table at its half-ulp needs
    #   (Fat11, Meat11):  0.82 t <= 0.105   ->  t <= 0.12805
    #   (Meat11, Fat12):  0.83 t >= 0.105   ->  t >= 0.12651
    #   (Meat12, Fat13):  0.87 t >  0.11    ->  t >  0.12644
    # and the other five entries between the triangles hold on that whole
    # interval.  The printed t = 0.13 breaks the first bound, since
    # 0.82 * 0.13 = 0.1066: the rounding of the input alone moves the fit
    # past the table's half-ulp.  t = 0.127 lies in the interval and rounds
    # to 0.13, so R* moves only that one entry.
    r_star = CARCASS_R.copy()
    r_star[1, 4] = r_star[4, 1] = 0.127
    s_star = SymMatrix(r_star, labels=CARCASS_LABELS)
    res_star = fit(s_star)
    diff = np.abs(res_star.sigma_hat.values - CARCASS_MLE_2DP)
    worst = tuple(int(x) for x in np.unravel_index(int(diff.argmax()), diff.shape))
    checks = [
        (f"runtime under 1 s (took {elapsed:.2f} s)", elapsed < 1.0),
        ("spanning forest is the chain 6-4-2-5-3-1",
         mwsf(s).edge_pairs() == CARCASS_CHAIN_EDGES),
        ("fitted graph equals the 7 reference edges",
         res.ml_graph.edge_pairs() == CARCASS_ML_EDGES),
        ("entry (Meat12, Fat13) strictly above 0.11",
         bool(res.sigma_hat.values[3, 4] > 0.11)),
        ("R* rounds to the printed input",
         bool(np.array_equal(np.round(r_star, 2), CARCASS_R))),
        ("R*: spanning forest is the chain 6-4-2-5-3-1",
         mwsf(s_star).edge_pairs() == CARCASS_CHAIN_EDGES),
        ("R*: fitted graph equals the 7 reference edges",
         res_star.ml_graph.edge_pairs() == CARCASS_ML_EDGES),
        ("R*: entry (Meat12, Fat13) strictly above 0.11",
         bool(res_star.sigma_hat.values[3, 4] > 0.11)),
        (f"R*: entrywise within 0.005 of the two-decimal reference "
         f"(max |diff| {diff.max():.4f} at {worst})",
         bool(diff.max() <= 0.005)),
    ]
    _report(1, "carcass reproduction", checks)


def test_criterion_2_carcass_closed_form():
    s = SymMatrix(CARCASS_R, labels=CARCASS_LABELS)
    res = fit(s)
    w = w_matrix(s)
    closed = block_closed_form(w, is_block_graph(grw_graph(s, w)))
    applicable = not isinstance(closed, NotApplicable)
    gap = np.abs(closed.values - res.sigma_hat.values).max() if applicable else np.inf
    checks = [
        ("closed form applies", applicable),
        (f"path-product matrix equals the fit (max |diff| {gap:.2e})",
         bool(gap <= 1e-7)),
    ]
    _report(2, "carcass closed form", checks)


def test_criterion_3_single_linkage_golden():
    r = SymMatrix(np.array([
        [1.0, -0.5, 0.5, 0.6],
        [-0.5, 1.0, 0.4, -0.1],
        [0.5, 0.4, 1.0, 0.2],
        [0.6, -0.1, 0.2, 1.0],
    ]))
    expected = np.array([
        [1.0, 0.4, 0.5, 0.6],
        [0.4, 1.0, 0.4, 0.4],
        [0.5, 0.4, 1.0, 0.5],
        [0.6, 0.4, 0.5, 1.0],
    ])
    z = single_linkage(r)
    err = np.abs(z.values - expected).max()
    _report(3, "single-linkage golden values",
            [(f"entries exact to 1e-12 (max |diff| {err:.2e})", bool(err <= 1e-12))])


def test_criterion_4_forest_not_contained():
    k = SymMatrix(STAR_K)
    inv = inverse_pd(k)
    r, _ = to_correlation(inv)
    forest = mwsf(r)
    res = fit(r)
    contains, missing = mwsf_containment(r, res)
    checks = [
        ("input precision has a zero at (2, 5)", STAR_K[1, 4] == 0.0),
        ("spanning forest is the star centered at vertex 5",
         forest.edge_pairs() == {(0, 4), (1, 4), (2, 4), (3, 4)}),
        ("fitted graph drops the (2, 5) edge",
         (1, 4) not in res.ml_graph.edge_pairs()),
        ("containment check reports exactly that edge",
         (not contains) and missing == [(1, 4)]),
    ]
    _report(4, "spanning forest not always contained", checks)


def test_criterion_5_sign_switch_counterexample():
    r = SymMatrix(UNBALANCED_R)
    star = d_star(r)
    balanced, _ = is_balanced(r)
    result = exhaustive_sign_search(r, prefer=star)
    identity_ll = result.switched_likelihoods[(1, 1, 1, 1)]
    margin = result.fit.log_likelihood - identity_ll
    checks = [
        ("forest assignment is the identity", star.signs == (1, 1, 1, 1)),
        ("sign pattern is unbalanced", not balanced),
        ("search selects the flip of variable 3",
         result.signs.signs == (1, 1, -1, 1)),
        (f"flip beats identity by more than 1e-6 (margin {margin:.2e})",
         bool(margin > 1e-6)),
    ]
    _report(5, "sign-switch counterexample", checks)


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(2024_08_10)
    sizes = [2] * 67 + [3] * 67 + [4] * 66 + [5] * 50
    start = time.perf_counter()
    worst_err = 0.0
    worst_gap = -np.inf
    all_certs = True
    for p in sizes:
        r = random_correlation(rng, p)
        ref = active_set_oracle(r)
        for algorithm in ("sigma", "k"):
            res = fit(r, FitConfig(algorithm=algorithm))
            worst_err = max(worst_err,
                            float(np.abs(res.sigma_hat.values - ref.sigma.values).max()))
            worst_gap = max(worst_gap, res.duality_gap)
            all_certs = all_certs and res.certificate.passed
    elapsed = time.perf_counter() - start
    checks = [
        (f"both sweeps within 1e-6 of the oracle on {len(sizes)} instances "
         f"(worst {worst_err:.2e})", bool(worst_err <= 1e-6)),
        ("every certificate passes at 1e-6", all_certs),
        (f"duality gap at most 1e-8 (worst {worst_gap:.2e})",
         bool(worst_gap <= 1e-8)),
        (f"runtime under 2 min (took {elapsed:.1f} s)", elapsed < 120.0),
    ]
    _report(6, "oracle equivalence", checks)


def test_criterion_7_existence_at_two_samples():
    rng = np.random.default_rng(7_2024)
    cfg = FitConfig(algorithm="k")
    all_exist = all_feasible = all_inverse_m = all_converged = all_cliques = True
    for _ in range(100):
        x = rng.standard_normal((2, 10))
        s = SymMatrix(x.T @ x / 2)
        all_exist = all_exist and exists_mle(s)
        r, scale = to_correlation(s)
        z = rescale_solution(single_linkage(r), scale)
        feasible = ((z.values - s.values).min() >= -1e-12
                    and np.abs(z.values.diagonal() - s.values.diagonal()).max() <= 1e-12)
        all_feasible = all_feasible and feasible
        kz = inverse_pd(z)
        all_inverse_m = all_inverse_m and is_m_matrix(
            kz, tol=1e-9 * float(kz.values.diagonal().max()))
        try:
            res = fit(s, cfg)
        except Exception:
            all_converged = False
            continue
        all_cliques = all_cliques and len(max_clique(res.ml_graph)) <= 2
    checks = [
        ("existence check passes on all 100 inputs", all_exist),
        ("rescaled single-linkage matrix is dual feasible", all_feasible),
        ("its inverse is an M-matrix", all_inverse_m),
        ("the solver converges on every input", all_converged),
        ("every fitted graph has maximum clique size at most 2", all_cliques),
    ]
    _report(7, "existence with two observations", checks)


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(8_2024)
    checks = []

    # monotone objective per pair update: the precision sweep increases the
    # likelihood, the covariance sweep increases its dual objective (log det)
    monotone = True
    for _ in range(3):
        r = random_correlation(rng, 5)
        k = np.eye(5)
        for _ in range(2):
            for u, v, rest in _pair_indices(5, combinations(range(5), 2)):
                before = log_likelihood(SymMatrix(k), r)
                _update_pair_k(k, r.values, u, v, rest)
                monotone = monotone and (
                    log_likelihood(SymMatrix(k), r) >= before - 1e-12)
        sig = single_linkage(r).values.copy()
        for _ in range(2):
            k = np.linalg.inv(sig)
            for u, v, _ in _pair_indices(5, combinations(range(5), 2)):
                before = np.linalg.slogdet(sig)[1]
                _update_pair_sigma(sig, k, r.values, u, v)
                monotone = monotone and (np.linalg.slogdet(sig)[1] >= before - 1e-12)
    checks.append(("pair updates are monotone in their objective", monotone))

    equivariant = True
    for _ in range(5):
        r = random_correlation(rng, 4)
        d = rng.uniform(0.3, 4.0, size=4)
        scaled = SymMatrix(r.values * np.outer(d, d))
        expected = fit(r).sigma_hat.values * np.outer(d, d)
        got = fit(scaled).sigma_hat.values
        equivariant = equivariant and (
            np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max())
    checks.append(("diagonal rescaling equivariance at 1e-8", equivariant))

    ordered = True
    idempotent = True
    for _ in range(10):
        r = random_correlation(rng, 6)
        z = single_linkage(r).values
        w = w_matrix(r).values
        nonneg = r.values >= 0
        ordered = ordered and (z - w)[nonneg].min() >= -1e-12
        ordered = ordered and (w - r.values)[nonneg].min() >= -1e-12
        again = w_matrix(SymMatrix(w)).values
        idempotent = idempotent and np.abs(again - w).max() <= 1e-12
    checks.append(("bottleneck closure dominates product closure dominates input",
                   ordered))
    checks.append(("product closure is idempotent at 1e-12", idempotent))

    small_exact = True
    for _ in range(20):
        p = int(rng.integers(2, 4))
        r = random_correlation(rng, p)
        res = fit(r)
        small_exact = small_exact and (
            np.abs(w_matrix(r).values - res.sigma_hat.values).max() <= 1e-7)
    checks.append(("product closure equals the fit for p <= 3 at 1e-7", small_exact))

    thresh_ok = True
    pairs4 = list(combinations(range(4), 2))
    for _ in range(3):
        k4 = random_m_matrix(rng, 4)
        for size in range(len(pairs4) + 1):
            for sub in combinations(pairs4, size):
                g = WeightedGraph(4, tuple((i, j, 1.0) for i, j in sub))
                out = threshold_k(k4, g)
                try:
                    pd_factorize(out)
                except Exception:
                    thresh_ok = False
                thresh_ok = thresh_ok and is_m_matrix(out, tol=0.0)
    for _ in range(60):
        p = int(rng.integers(5, 9))
        k = random_m_matrix(rng, p)
        sub = [(i, j) for i in range(p) for j in range(i + 1, p) if rng.random() < 0.5]
        out = threshold_k(k, WeightedGraph(p, tuple((i, j, 1.0) for i, j in sub)))
        try:
            pd_factorize(out)
        except Exception:
            thresh_ok = False
        thresh_ok = thresh_ok and is_m_matrix(out, tol=0.0)
    checks.append(("thresholding preserves positive definiteness "
                   "(exhaustive p=4, random p<=8)", thresh_ok))

    contained = True
    for _ in range(10):
        r = random_correlation(rng, 5)
        ml = fit(r).ml_graph.edge_pairs()
        contained = contained and ml <= ec_graph(r, mwsf(r)).edge_pairs()
        contained = contained and ml <= ml_graph_upper_bound(r).edge_pairs()
    checks.append(("fitted graph inside both envelope graphs", contained))

    _report(8, "invariant suite", checks)


def test_criterion_9_external_dataset():
    """Optional: requires the 240x32 personality-trait ratings as CSV.

    Point TOTPOS_PSYCH_CSV at a CSV of 240 rows (respondents) by 32 columns
    (traits, in the standard ordering where the first 16 form the negative
    block), or place it at tests/data/personality.csv.  Skipped when absent.
    """
    path = os.environ.get(
        "TOTPOS_PSYCH_CSV",
        os.path.join(os.path.dirname(__file__), "data", "personality.csv"),
    )
    if not os.path.exists(path):
        print("[acceptance  9] external dataset: SKIP (dataset not supplied)")
        pytest.skip("240x32 dataset not supplied")
    try:
        data = np.loadtxt(path, delimiter=",")
    except ValueError:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    n, p = data.shape
    assert (n, p) == (240, 32)
    r = SymMatrix(np.corrcoef(data, rowvar=False))
    cfg = FitConfig(algorithm="k")
    half_n = n / 2.0

    plain = half_n * fit(r, cfg).log_likelihood
    star = d_star(r)
    switched = half_n * fit(apply_signs(r, star), cfg).log_likelihood
    block = SignVector((-1,) * 16 + (1,) * 16, anchored=False)
    block_ll = half_n * fit(apply_signs(r, block), cfg).log_likelihood
    unconstrained = half_n * (-np.linalg.slogdet(r.values)[1] - p)

    checks = [
        (f"constrained fit {plain:.3f} ~ -2356.639", bool(abs(plain + 2356.639) <= 0.5)),
        (f"forest-switched fit {switched:.3f} ~ -2071.717",
         bool(abs(switched + 2071.717) <= 0.5)),
        (f"block-switched fit {block_ll:.3f} ~ -2046.146",
         bool(abs(block_ll + 2046.146) <= 0.5)),
        (f"unconstrained value {unconstrained:.3f} ~ -1725.075",
         bool(abs(unconstrained + 1725.075) <= 0.5)),
    ]
    _report(9, "external dataset log-likelihoods", checks)
