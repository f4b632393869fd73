"""Seeded inputs, CLI problems and output checks for the workloads.

A problem takes one pool item, an input for each part of the workload,
through the command line in-process (``totpos.cli.main``), timing each
part from its first call to its last.  Its outputs
are checked after the timed phase, against references computed here with
plain numpy where one exists and against the package's own brute-force
oracle on the signed workload.

Two outcomes are kept apart.  A problem is *wrong* when the program's output
cannot be trusted: an exception, an exit code outside the documented ones,
a missing or malformed document, an exit code that disagrees with the
document, or an answer that claims a certificate but fails the independent
re-check or the reference.  A fit is *certified* when it exits 0 and its
duality gap is within ``GAP_TOL``.  An honest exit 3 (sweep budget spent, or
certificate failed after convergence) is not wrong, but it is not certified
either; ``failed_frac`` counts the problems with any uncertified or wrong fit.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from totpos import SymMatrix, cli, oracle

# Bounds of the ``selftest`` command: duality gap and reference mismatch.
GAP_TOL = 1e-8
REF_TOL = 1e-6
# Certificate tolerance of the package, and the slack the independent
# re-check allows before it calls a claimed certificate false (a different
# inversion routine moves residuals in their last digits).
CERT_TOL = 1e-6
RECHECK_SLACK = 10.0


@dataclass(frozen=True)
class Part:
    """One input family and the command a problem runs on it."""

    name: str
    kind: str  # "fit", "analyze" or "signed"
    p: int
    n: int
    mixed_signs: bool = False
    extra_args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Spec:
    """One workload: a problem runs every part on its own input."""

    name: str
    parts: tuple[Part, ...]
    pool: int


DENSE_N2P = Part("dense_n2p", "fit", p=20, n=40)
# At n = 2 the sigma sweep converges after anywhere from a few to over ten
# thousand sweeps, or not at all.  The cap keeps one input from taking
# seconds; in a trial, 13 of 30 sigma fits at p = 6 converged under it.
TWO_OBS = Part("two_obs", "fit", p=6, n=2, extra_args=("--max-sweeps", "1000"))
ANALYZE_P200 = Part("analyze_p200", "analyze", p=200, n=400)
SMALL_P5 = Part("small_p5", "signed", p=5, n=10, mixed_signs=True)

SPECS = {
    s.name: s
    for s in (
        Spec("fit_mixed", (DENSE_N2P, TWO_OBS), pool=128),
        Spec("analyze_signed", (ANALYZE_P200, SMALL_P5), pool=32),
    )
}

ALGORITHMS = ("sigma", "k")


# ---------------------------------------------------------------- inputs


def m_precision(rng: np.random.Generator, p: int) -> np.ndarray:
    """Random sparse M-matrix: about three neighbours per vertex, edge
    weights in [0.2, 1), diagonal dominance margin in [1, 2)."""
    mask = np.triu(rng.random((p, p)) < 3.0 / p, 1)
    a = np.where(mask, rng.uniform(0.2, 1.0, (p, p)), 0.0)
    a = a + a.T
    k = -a
    np.fill_diagonal(k, a.sum(axis=1) + rng.uniform(1.0, 2.0, p))
    return k


def sample_covariance(rng: np.random.Generator, part: Part) -> np.ndarray:
    """Sample covariance (known zero mean) of ``part.n`` draws from a
    Gaussian with M-matrix precision; with ``mixed_signs`` the variables are
    sign-flipped at random first, so the population is only sign-switched
    MTP2 and the sample carries mixed-sign dependence."""
    k = m_precision(rng, part.p)
    chol = np.linalg.cholesky(np.linalg.inv(k))
    x = rng.standard_normal((part.n, part.p)) @ chol.T
    if part.mixed_signs:
        x *= np.where(rng.random(part.p) < 0.5, -1.0, 1.0)
    return x.T @ x / part.n


def make_inputs(spec: Spec, seed: int) -> list[tuple[np.ndarray, ...]]:
    """The pool: one covariance per part for each problem."""
    rng = np.random.default_rng([seed % 2**32, sorted(SPECS).index(spec.name)])
    return [tuple(sample_covariance(rng, part) for part in spec.parts) for _ in range(spec.pool)]


def write_csv(s: np.ndarray, path: str) -> None:
    np.savetxt(path, s, fmt="%.17g", delimiter=",")


# ---------------------------------------------------------------- problems


@dataclass
class Problem:
    """What a timed problem left behind for the checks."""

    index: int  # position in the input pool
    part_seconds: list = field(default_factory=list)  # wall time of each part that ran
    outputs: list = field(default_factory=list)  # (part index, document path, exit code)
    oracle_sigma: np.ndarray | None = None
    error: str | None = None
    failed_part: int | None = None  # index of the part that raised

    @property
    def seconds(self) -> float:
        return sum(self.part_seconds)


def run_problem(spec: Spec, item, csvs, out_prefix: str, problem: Problem) -> None:
    """Run every part on its input, timing each; an exception stops the
    problem and is charged to the part that raised it."""
    for j, (part, s, csv) in enumerate(zip(spec.parts, item, csvs)):
        begin = time.perf_counter()
        try:
            _run_part(part, j, s, csv, f"{out_prefix}-{part.name}", problem)
        except Exception:
            problem.error = traceback.format_exc()
            problem.failed_part = j
            return
        finally:
            problem.part_seconds.append(time.perf_counter() - begin)


def _run_part(part: Part, j: int, s: np.ndarray, csv: str, prefix: str, problem: Problem) -> None:
    """The CLI on one input (and, after ``signed``, the oracle)."""
    if part.kind == "fit":
        for alg in ALGORITHMS:
            out = f"{prefix}-{alg}.json"
            code = cli.main(["fit", csv, "--algorithm", alg, "--output", out, *part.extra_args])
            problem.outputs.append((j, out, code))
    elif part.kind == "analyze":
        out = f"{prefix}.json"
        code = cli.main(["analyze", csv, "--output", out, "--dot", f"{prefix}.dot"])
        problem.outputs.append((j, out, code))
    else:
        out = f"{prefix}.json"
        code = cli.main(["signed", csv, "--output", out, *part.extra_args])
        problem.outputs.append((j, out, code))
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                signs = np.array(json.load(fh)["signs"], dtype=float)
            switched = _correlation(s) * np.outer(signs, signs)
            problem.oracle_sigma = oracle.active_set_oracle(SymMatrix(switched)).sigma.values


# ---------------------------------------------------------------- checks


@dataclass
class Verdict:
    wrong: list[str] = field(default_factory=list)
    fits: int = 0
    certified: int = 0
    budget_exits: int = 0
    method: str | None = None


def _correlation(s: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.diag(s))
    r = s / np.outer(d, d)
    np.fill_diagonal(r, 1.0)
    return r


def kkt_residual(r: np.ndarray, sig: np.ndarray) -> float:
    """Largest violation of the optimality system on correlation scale,
    evaluated with numpy alone: unit diagonal, nonpositive off-diagonal
    precision, covariance dominating the sample, complementary slackness."""
    k = np.linalg.inv(sig)
    off = ~np.eye(len(r), dtype=bool)
    margin = sig - r
    return max(
        float(np.abs(np.diag(sig) - 1.0).max()),
        float(k[off].max(initial=0.0)),
        float(-margin[off].min(initial=0.0)),
        float(np.abs(margin[off] * k[off]).max(initial=0.0)),
    )


def _load(path: str, verdict: Verdict) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        verdict.wrong.append(f"{os.path.basename(path)}: unreadable document ({exc})")
        return None


def _check_fit_doc(doc: dict, code: int, r: np.ndarray, scale: np.ndarray, tag: str,
                   verdict: Verdict, reference: np.ndarray | None = None) -> np.ndarray | None:
    """Check one fit document; returns its covariance on correlation scale
    when the fit is certified."""
    verdict.fits += 1
    passed = bool(doc["certificate"]["passed"])
    converged = bool(doc["converged"])
    if code != (0 if converged and passed else 3):
        verdict.wrong.append(f"{tag}: exit {code} with converged={converged}, certificate={passed}")
        return None
    if code != 0:
        verdict.budget_exits += not converged
        return None
    sigma = np.asarray(doc["sigma_hat"], dtype=float) / np.outer(scale, scale)
    residual = kkt_residual(r, sigma)
    if residual > RECHECK_SLACK * CERT_TOL:
        verdict.wrong.append(f"{tag}: certificate claimed, re-check residual {residual:.3e}")
        return None
    if reference is not None:
        err = float(np.abs(sigma - reference).max())
        if err > REF_TOL:
            verdict.wrong.append(f"{tag}: certified answer differs from the reference by {err:.3e}")
            return None
    if abs(doc["duality_gap"]) > GAP_TOL:
        return None
    verdict.certified += 1
    return sigma


def check_fit(problem: Problem, outputs, s: np.ndarray, verdict: Verdict, ref: dict) -> None:
    r = _correlation(s)
    scale = np.sqrt(np.diag(s))
    certified = []
    for path, code in outputs:
        doc = _load(path, verdict)
        if doc is not None:
            sigma = _check_fit_doc(doc, code, r, scale, os.path.basename(path), verdict)
            if sigma is not None:
                certified.append(sigma)
    # the optimum is unique, so two certified answers must agree
    if len(certified) == 2:
        err = float(np.abs(certified[0] - certified[1]).max())
        if err > REF_TOL:
            verdict.wrong.append(f"sigma and k answers differ by {err:.3e}")


def check_signed(problem: Problem, outputs, s: np.ndarray, verdict: Verdict, ref: dict) -> None:
    (path, code), = outputs
    if code == 3 and not os.path.exists(path):
        # budget spent inside the sign search: exit 3 without a document
        verdict.fits += 1
        verdict.budget_exits += 1
        return
    doc = _load(path, verdict)
    if doc is None:
        return
    verdict.method = doc["method"]
    if doc["method"] == "exhaustive_exact":
        table = doc["switched_likelihoods"]
        if len(table) != 2 ** (len(s) - 1) or doc["log_likelihood"] != max(table.values()):
            verdict.wrong.append("exhaustive search did not report its best sign vector")
    elif doc["method"] != "balanced_exact":
        verdict.wrong.append(f"unexpected sign method {doc['method']!r} at p={len(s)}")
    signs = np.array(doc["signs"], dtype=float)
    switched = _correlation(s) * np.outer(signs, signs)
    _check_fit_doc(doc, code, switched, np.ones(len(s)), "signed", verdict,
                   reference=problem.oracle_sigma)


def closures(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage (max-min) and max-product path closures of the
    positive-part graph, by Floyd-Warshall over the semiring."""
    base = np.where(r > 0.0, r, 0.0)
    np.fill_diagonal(base, 1.0)
    z = base.copy()
    w = base.copy()
    for k in range(len(r)):
        np.maximum(z, np.minimum(z[:, k, None], z[None, k, :]), out=z)
        np.maximum(w, w[:, k, None] * w[None, k, :], out=w)
    return z, w


def check_analyze(problem: Problem, outputs, s: np.ndarray, verdict: Verdict, ref: dict) -> None:
    """``ref`` keeps the closures of this input for its other solves."""
    (path, code), = outputs
    if code != 0:
        verdict.wrong.append(f"analyze exited {code}")
        return
    doc = _load(path, verdict)
    if doc is None:
        return
    r = _correlation(s)
    if not ref:
        ref["z"], ref["w"] = closures(r)
    z, w = ref["z"], ref["w"]
    checks = {
        "scale": float(np.abs(np.asarray(doc["scale"]) - np.sqrt(np.diag(s))).max()) <= 1e-12 * float(np.sqrt(np.diag(s)).max()),
        "z_matrix": float(np.abs(np.asarray(doc["z_matrix"]) - z).max()) <= 1e-12,
        "w_matrix": float(np.abs(np.asarray(doc["w_matrix"]) - w).max()) <= 1e-9,
        "z_ultrametric": doc["z_ultrametric"]["is_ultrametric"] is True,
        "mwsf": _forest_ok(doc["graphs"]["mwsf"], r, z),
    }
    closed = doc["closed_form"]
    if closed["applicable"]:
        checks["closed_form"] = float(np.abs(np.asarray(closed["sigma"]) - w).max()) <= 1e-9
    dot = path[: -len(".json")] + ".dot"
    try:
        with open(dot, encoding="utf-8") as fh:
            checks["dot"] = fh.read().startswith("graph G {")
    except OSError:
        checks["dot"] = False
    verdict.wrong.extend(f"analyze: {name} check failed" for name, ok in checks.items() if not ok)
    verdict.fits += 1
    verdict.certified += not verdict.wrong


def _forest_ok(edges: list, r: np.ndarray, z: np.ndarray) -> bool:
    """A maximum weight spanning forest of the positive-part graph: p minus
    the component count of edges, each a positive entry that attains the
    single-linkage value of its endpoints."""
    p = len(r)
    components = len({tuple(np.flatnonzero(row > 0.0)) for row in z})
    if len(edges) != p - components:
        return False
    root = list(range(p))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for i, j, wt in edges:
        a, b = find(i), find(j)
        if a == b or not (r[i, j] > 0.0 and abs(r[i, j] - wt) <= 1e-12 and abs(z[i, j] - wt) <= 1e-12):
            return False
        root[a] = b
    return True


CHECKS = {"fit": check_fit, "analyze": check_analyze, "signed": check_signed}
