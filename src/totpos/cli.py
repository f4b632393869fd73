"""Command line interface: matrix ingestion, fitting, analysis, export.

Exit codes: 0 on success with a passing certificate, 1 on input parse
errors, 2 when no maximum likelihood estimate exists or on a usage error
(argparse), 3 when the sweep budget runs out (or the certificate fails
after convergence); fit and signed still write their document then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .graphs import WeightedForest, WeightedGraph, fold_paths, mwsf
from .matcore import SymMatrix, to_correlation
from .oracle import MAX_ORACLE_DIM, active_set_oracle
from .solver import (
    FitConfig,
    FitResult,
    MaxSweepsExceeded,
    MleDoesNotExist,
    exists_mle,
    fit,
)
from .signed import apply_signs, fit_signed
from .structure import NotApplicable, block_closed_form, grw_graph, is_block_graph, tiered_dot
from .ultra import ec_graph, is_ultrametric, w_matrix

MWSF_TIE_BREAK = "weight descending, pair ascending"


class MatrixParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def _split_cells(line: str) -> list[str]:
    if "," in line:
        cells = [c.strip() for c in line.split(",")]
        while cells and cells[-1] == "":
            cells.pop()
        return cells
    return line.split()


def parse_matrix_text(text: str, header_row: bool | None = None) -> SymMatrix:
    """Parse a dense square matrix, optionally preceded by a label row."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, _split_cells(line)))
    if not rows:
        raise MatrixParseError("empty input")

    def all_numeric(cells):
        try:
            [float(c) for c in cells]
            return True
        except ValueError:
            return False

    labels = None
    if header_row is True or (header_row is None and not all_numeric(rows[0][1])):
        labels = tuple(rows[0][1])
        if len(set(labels)) != len(labels):
            raise MatrixParseError("header labels must be unique", line=rows[0][0])
        rows = rows[1:]
        if not rows:
            raise MatrixParseError("no data rows after header")
    p = len(rows[0][1])
    if len(rows) != p:
        raise MatrixParseError(
            f"expected a square matrix: {p} columns but {len(rows)} data rows",
            line=rows[-1][0],
        )
    if labels is not None and len(labels) != p:
        raise MatrixParseError(f"header has {len(labels)} labels for {p} columns")
    data = np.zeros((p, p))
    for i, (lineno, cells) in enumerate(rows):
        if len(cells) != p:
            raise MatrixParseError(
                f"expected {p} entries, found {len(cells)}", line=lineno
            )
        for j, cell in enumerate(cells):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise MatrixParseError(
                    f"invalid number {cell!r}", line=lineno, column=j + 1
                ) from None
            if not math.isfinite(data[i, j]):
                raise MatrixParseError(
                    f"non-finite entry {cell!r}", line=lineno, column=j + 1
                )
    scale = max(1.0, float(np.abs(data).max()))
    asym = float(np.abs(data - data.T).max())
    if asym > 1e-9 * scale:
        warnings.warn(
            f"input matrix asymmetric by {asym:.3e}; symmetrizing by averaging",
            RuntimeWarning,
            stacklevel=2,
        )
    data = (data + data.T) / 2.0
    for i in range(p):
        if data[i, i] <= 0:
            raise MatrixParseError(
                f"diagonal entry {i} is not positive", line=rows[i][0], column=i + 1
            )
    return SymMatrix(data, labels=labels)


def read_matrix_csv(path: str, header_row: bool | None = None) -> SymMatrix:
    """Read a dense CSV matrix; the header row is autodetected when unset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixParseError(str(exc)) from exc
    return parse_matrix_text(text, header_row=header_row)


def write_matrix_csv(m: SymMatrix, path: str) -> None:
    """Write a matrix as dense CSV (shortest round-trip decimals)."""
    with open(path, "w", encoding="utf-8") as fh:
        if m.labels is not None:
            fh.write(",".join(m.labels) + "\n")
        for row in m.values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _edge_list(graph) -> list[list]:
    return [[i, j, w] for i, j, w in graph.edges]


def _input_block(path: str, s: SymMatrix) -> dict:
    return {
        "path": path,
        "dim": s.dim,
        "labels": list(s.labels) if s.labels is not None else None,
        "sha256": _sha256_file(path),
    }


@dataclass(frozen=True)
class _Closures:
    """Spanning forest and path closures of one correlation matrix."""

    r: SymMatrix
    forest: WeightedForest
    envelope: WeightedGraph  # excess-correlation graph
    w: SymMatrix
    equality: WeightedGraph  # entries equal to their best path product


def _closures(r: SymMatrix, grw_tol: float) -> _Closures:
    forest = mwsf(r)
    w = w_matrix(r)
    return _Closures(r, forest, ec_graph(r, forest), w, grw_graph(r, w, grw_tol))


def _graphs_block(c: _Closures) -> dict:
    return {
        "mwsf": _edge_list(c.forest),
        "ec": _edge_list(c.envelope),
        "grw": _edge_list(c.equality),
    }


def _certificate_block(cert) -> dict:
    return {
        "primal_max": cert.primal_max,
        "diag_max": cert.diag_max,
        "dual_min": cert.dual_min,
        "slack_max": cert.slack_max,
        "tol": cert.tol,
        "passed": cert.passed,
    }


def _config_block(cfg: FitConfig) -> dict:
    return {
        "algorithm": cfg.algorithm,
        "tolerance": cfg.tolerance,
        "max_sweeps": cfg.max_sweeps,
        "edge_threshold": cfg.edge_threshold,
        "mwsf_tie_break": MWSF_TIE_BREAK,
    }


def _fit_doc(path, s, closures, result: FitResult, cfg, mode, converged) -> dict:
    return {
        "mode": mode,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "input": _input_block(path, s),
        "config": _config_block(cfg),
        "converged": converged,
        "sweeps": result.sweeps,
        "log_likelihood": result.log_likelihood,
        "duality_gap": result.duality_gap,
        "certificate": _certificate_block(result.certificate),
        "sigma_hat": result.sigma_hat.values.tolist(),
        "k_hat": result.k_hat.values.tolist(),
        "ml_graph": _edge_list(result.ml_graph),
        "graphs": _graphs_block(closures),
    }


def cmd_fit(path: str, cfg: FitConfig, grw_tol: float = 1e-9):
    """Fit the input covariance; returns (document, exit code, DOT payload)."""
    s = read_matrix_csv(path)
    try:
        result = fit(s, cfg)
        converged = True
    except MaxSweepsExceeded as exc:
        result = exc.result
        converged = False
    r, _ = to_correlation(s)
    closures = _closures(r, grw_tol)
    doc = _fit_doc(path, s, closures, result, cfg, "mtp2", converged)
    # the path-product equality graph generically coincides with the fitted
    # graph when the closed form applies, but only generically; surface any
    # disagreement instead of assuming it away
    doc["grw_matches_ml_graph"] = sorted(
        (i, j) for i, j, _ in doc["graphs"]["grw"]
    ) == sorted(result.ml_graph.edge_pairs())
    code = 0 if (converged and result.certificate.passed) else 3
    return doc, code, (closures, result.ml_graph)


def cmd_analyze(path: str, grw_tol: float = 1e-9):
    """Graph and closed-form analysis of the input, no solver run."""
    s = read_matrix_csv(path)
    if not exists_mle(s):
        # the closures characterize the estimate; without existence (some
        # normalized entry at one) the path products are ill-defined too
        raise MleDoesNotExist(
            "no maximum likelihood estimate: some normalized entry reaches one"
        )
    r, scale = to_correlation(s)
    closures = _closures(r, grw_tol)
    z = fold_paths(r, closures.forest, min, np.inf)  # single_linkage on the shared forest
    report = is_ultrametric(z)
    block = is_block_graph(closures.equality)
    closed = block_closed_form(closures.w, block)
    doc = {
        "mode": "analyze",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "input": _input_block(path, s),
        "scale": scale.tolist(),
        "z_matrix": z.values.tolist(),
        "w_matrix": closures.w.values.tolist(),
        "z_ultrametric": {
            "is_ultrametric": report.is_ultrametric,
            "worst_violation": list(report.worst_violation)
            if report.worst_violation is not None
            else None,
        },
        "block_report": {
            "is_block_graph": block.is_block_graph,
            "blocks": [sorted(b) for b in block.blocks],
            "offending_component": sorted(block.offending_component)
            if block.offending_component is not None
            else None,
        },
        "closed_form": {
            "applicable": not isinstance(closed, NotApplicable),
            "sigma": closed.values.tolist() if not isinstance(closed, NotApplicable) else None,
            "reason": closed.reason if isinstance(closed, NotApplicable) else None,
        },
        "graphs": _graphs_block(closures),
        "mwsf_tie_break": MWSF_TIE_BREAK,
    }
    return doc, 0, (closures, closures.equality)


def cmd_signed(path: str, cfg: FitConfig, exhaustive_limit: int = 12, grw_tol: float = 1e-9):
    """Best sign-switched fit; the document reports on correlation scale."""
    s = read_matrix_csv(path)
    r, scale = to_correlation(s)
    signed_result = fit_signed(r, cfg, exhaustive_limit=exhaustive_limit)
    # the graphs describe the switched matrix, whose spanning forest can
    # differ from the forest of |R| that chose the signs
    closures = _closures(apply_signs(r, signed_result.signs), grw_tol)
    doc = _fit_doc(path, s, closures, signed_result.fit, cfg, "signed", signed_result.converged)
    doc["scale"] = scale.tolist()
    doc["signs"] = list(signed_result.signs.signs)
    doc["method"] = signed_result.method
    if signed_result.switched_likelihoods is not None:
        doc["switched_likelihoods"] = {
            "".join("+" if x > 0 else "-" for x in signs): ll
            for signs, ll in sorted(signed_result.switched_likelihoods.items())
        }
    code = 0 if (signed_result.converged and signed_result.fit.certificate.passed) else 3
    return doc, code, (closures, signed_result.fit.ml_graph)


def _random_correlation(rng, p: int) -> SymMatrix:
    a = rng.standard_normal((p + 2, p))
    r, _ = to_correlation(SymMatrix(a.T @ a))
    return r


def cmd_selftest(trials: int, dims: list[int], seed: int, out=print) -> int:
    """Randomized agreement check between both sweeps and the reference oracle."""
    rng = np.random.default_rng(seed)
    failures = 0
    for t in range(trials):
        p = dims[t % len(dims)]
        r = _random_correlation(rng, p)
        res_sigma = fit(r, FitConfig(algorithm="sigma"))
        res_k = fit(r, FitConfig(algorithm="k"))
        ref = active_set_oracle(r)
        err = max(
            float(np.abs(res_sigma.sigma_hat.values - ref.sigma.values).max()),
            float(np.abs(res_k.sigma_hat.values - ref.sigma.values).max()),
        )
        ok = (
            err <= 1e-6
            and res_sigma.certificate.passed
            and res_k.certificate.passed
            and abs(res_sigma.duality_gap) <= 1e-8
            and abs(res_k.duality_gap) <= 1e-8
        )
        if not ok:
            failures += 1
        out(f"trial {t + 1:3d}  p={p}  max_err={err:.3e}  {'ok' if ok else 'MISMATCH'}")
    out(f"selftest: {trials - failures}/{trials} trials passed (seed {seed})")
    return 0 if failures == 0 else 1


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_dot(path: str, c: _Closures, middle: WeightedGraph) -> None:
    text = tiered_dot(c.forest, middle, c.envelope, labels=c.r.labels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # false for nan too
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _dims(text: str) -> list[int]:
    dims = [int(d) for d in text.split(",") if d]
    if not dims or not all(1 <= d <= MAX_ORACLE_DIM for d in dims):
        raise argparse.ArgumentTypeError(
            f"expected dimensions between 1 and {MAX_ORACLE_DIM}, got {text}"
        )
    return dims


def _add_fit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", choices=("sigma", "k"), default="sigma",
                        help="coordinate sweep: on the covariance or on the precision")
    parser.add_argument("--tol", type=_positive_float, default=1e-10,
                        help="per-sweep L1 convergence tolerance (correlation scale)")
    parser.add_argument("--max-sweeps", type=_positive_int, default=10_000)
    parser.add_argument("--edge-threshold", type=_positive_float, default=1e-6,
                        help="relative precision cutoff defining graph edges")
    parser.add_argument("--output", help="write the result document here instead of stdout")
    parser.add_argument("--dot", help="write a tiered DOT rendering of the graphs here")
    parser.add_argument("--sigma-csv", help="write the fitted covariance as CSV here")
    parser.add_argument("--grw-tol", type=_positive_float, default=1e-9,
                        help="equality tolerance for the path-product graph")


def _config_from_args(args) -> FitConfig:
    return FitConfig(
        tolerance=args.tol,
        max_sweeps=args.max_sweeps,
        algorithm=args.algorithm,
        edge_threshold=args.edge_threshold,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totpos",
        description="Gaussian covariance estimation with nonnegative partial correlations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the constrained MLE for a covariance CSV")
    p_fit.add_argument("input")
    _add_fit_options(p_fit)

    p_an = sub.add_parser("analyze", help="graph and closed-form analysis without fitting")
    p_an.add_argument("input")
    p_an.add_argument("--output")
    p_an.add_argument("--dot")
    p_an.add_argument("--grw-tol", type=_positive_float, default=1e-9)

    p_sg = sub.add_parser("signed", help="fit the best sign-switched model")
    p_sg.add_argument("input")
    _add_fit_options(p_sg)
    p_sg.add_argument("--exhaustive-limit", type=int, default=12,
                      help="largest dimension for the exhaustive sign search")

    p_st = sub.add_parser("selftest", help="randomized solver-vs-oracle diagnostics")
    p_st.add_argument("--trials", type=_positive_int, default=15)
    p_st.add_argument("--dims", type=_dims, default="2,3,4",
                      help="comma separated dimensions to cycle through")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            seed = int(os.environ.get("TOTPOS_SEED", "0"))
            return cmd_selftest(args.trials, args.dims, seed)
        if args.command == "analyze":
            doc, code, dot_payload = cmd_analyze(args.input, grw_tol=args.grw_tol)
        elif args.command == "signed":
            doc, code, dot_payload = cmd_signed(
                args.input, _config_from_args(args),
                exhaustive_limit=args.exhaustive_limit, grw_tol=args.grw_tol,
            )
        else:
            doc, code, dot_payload = cmd_fit(args.input, _config_from_args(args), grw_tol=args.grw_tol)
        _emit(doc, args.output)
        if doc.get("converged") is False:
            print(f"error: no convergence within {args.max_sweeps} sweeps; "
                  "the document holds the best iterate", file=sys.stderr)
        if args.dot:
            _write_dot(args.dot, *dot_payload)
        if getattr(args, "sigma_csv", None):
            labels = doc["input"]["labels"]
            m = SymMatrix(np.array(doc["sigma_hat"]),
                          labels=tuple(labels) if labels else None)
            write_matrix_csv(m, args.sigma_csv)
        return code
    except MatrixParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except MleDoesNotExist as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
