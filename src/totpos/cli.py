"""Command line interface: matrix ingestion, fitting, analysis, export.

Result documents hold what the commands computed: matrices and vectors
as float64 arrays, graphs as their ``WeightedGraph`` objects.  The writer
in ``jsonout`` writes them as their plain lists would be written, exactly
as ``json.dumps(doc, indent=2, sort_keys=True, default=jsonout.plain)``
does, non-finite values included (``NaN``, ``Infinity``).  A document is
encoded completely, as one list of per-value chunks (an array's or a
graph's text is one chunk), before its file is opened, and is written
with one ``writelines``; the DOT file is written the same way from its
lines.  The input file is read once: its bytes are hashed for
``input.sha256`` and decoded, and each CSV row is converted to floats as
soon as it is split; only a row that fails is scanned cell by cell, to
name the offending cell.

Exit codes: 0 on success with a passing certificate, 1 on input parse
errors or an output file that cannot be written, 2 when no maximum
likelihood estimate exists or on a usage error (argparse, or a bad
``TOTPOS_SEED``), 3 when the sweep budget runs out (or the certificate
fails after convergence); fit and signed still write their document then.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import jsonout
from .graphs import WeightedForest, WeightedGraph, fold_paths, mwsf
from .matcore import SymMatrix, to_correlation
from .oracle import MAX_ORACLE_DIM, active_set_oracle
from .solver import (
    ALGORITHMS,
    FitConfig,
    FitResult,
    MaxSweepsExceeded,
    MleDoesNotExist,
    _fit_best,
    exists_mle,
    fit,
)
from .signed import EXHAUSTIVE_LIMIT, apply_signs, fit_signed
from .structure import NotApplicable, block_closed_form, is_block_graph, tiered_dot_lines
from .ultra import GRW_TOL, ec_graph, grw_graph, is_ultrametric, w_matrix

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


def _bad_cell(lineno: int, cells: list[str]) -> MatrixParseError | None:
    """The parse error of the first cell that is not a finite number, or
    None when every cell is one."""
    for j, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            return MatrixParseError(f"invalid number {cell!r}", line=lineno, column=j + 1)
        if not math.isfinite(value):
            return MatrixParseError(f"non-finite entry {cell!r}", line=lineno, column=j + 1)


def _cells(line: str) -> list[str]:
    """Cells of a stripped, nonblank line, trailing blank cells dropped.

    The cells of an unquoted comma-separated line keep the blanks around
    them: ``float`` ignores them, so a row of numbers converts unstripped.
    """
    if "," not in line:
        return line.split()
    if '"' in line:
        cells = list(map(str.strip, next(csv.reader([line], skipinitialspace=True))))
    else:
        # without quotes, csv.reader yields the cells of str.split, which is faster
        cells = line.split(",")
    while cells and not cells[-1].strip():
        cells.pop()
    return cells


def _floats(cells: list[str]) -> list[float] | None:
    try:
        return list(map(float, cells))
    except ValueError:
        return None


def parse_matrix_text(text: str, header_row: bool | None = None) -> SymMatrix:
    """Parse a dense square matrix, optionally preceded by a label row.

    A line holding a comma is read as one CSV record (quoted cells may hold
    commas; trailing empty cells are dropped), any other line is split on
    whitespace.  Blank lines and lines starting with '#' are skipped.  Each
    data row is converted to floats as it is read.
    """
    return SymMatrix(*_parse_values(text, header_row))


def _parse_values(text: str, header_row: bool | None) -> tuple[np.ndarray, tuple | None]:
    """The values and labels of ``parse_matrix_text``."""
    labels = None
    data = None  # p x p, allocated at the first data row, which has p cells
    linenos: list[int] = []  # the line of each data row
    error = None  # the first ragged row or bad cell, in reading order
    first = True  # the next record may be the header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = _cells(line)
        if first:
            first = False
            cells = list(map(str.strip, cells))
            if header_row is True or (header_row is None and _floats(cells) is None):
                labels = tuple(cells)
                if len(set(labels)) != len(labels):
                    raise MatrixParseError("header labels must be unique", line=lineno)
                continue
        if data is None:
            data = np.empty((len(cells), len(cells)))
        i = len(linenos)
        linenos.append(lineno)
        # rows past p are only counted: the square check outranks their errors
        if error is not None or i >= len(data):
            continue
        if len(cells) != len(data):
            error = MatrixParseError(
                f"expected {len(data)} entries, found {len(cells)}", line=lineno
            )
            continue
        row = _floats(cells)
        if row is None or not all(map(math.isfinite, row)):
            # judged stripped: str.strip also removes U+001F, which float() rejects
            cells = list(map(str.strip, cells))
            error = _bad_cell(lineno, cells)
            if error is not None:
                continue
            row = list(map(float, cells))
        data[i] = row
    if first:
        raise MatrixParseError("empty input")
    if not linenos:
        raise MatrixParseError("no data rows after header")
    p = len(data)
    if len(linenos) != p:
        raise MatrixParseError(
            f"expected a square matrix: {p} columns but {len(linenos)} data rows",
            line=linenos[-1],
        )
    if labels is not None and len(labels) != p:
        raise MatrixParseError(f"header has {len(labels)} labels for {p} columns")
    if error is not None:
        raise error
    scale = max(1.0, float(np.abs(data).max()))
    asym = float(np.abs(data - data.T).max())
    if asym > 1e-9 * scale:
        warnings.warn(
            f"input matrix asymmetric by {asym:.3e}; symmetrizing by averaging",
            RuntimeWarning,
            stacklevel=3,
        )
    data = (data + data.T) / 2.0
    for i in range(p):
        if data[i, i] <= 0:
            raise MatrixParseError(
                f"diagonal entry {i} is not positive", line=linenos[i], column=i + 1
            )
    return data, labels


@dataclass(frozen=True, eq=False)
class InputMatrix(SymMatrix):
    """A matrix read from a file, with the SHA-256 of the file's bytes."""

    sha256: str = field(kw_only=True)


def read_matrix_csv(path: str, header_row: bool | None = None) -> InputMatrix:
    """Read a dense CSV matrix; the header row is autodetected when unset.

    The file is read once, as bytes: they are hashed and then decoded as
    UTF-8, a leading byte-order mark dropped; bytes that are not UTF-8 are
    a parse error.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(str(exc)) from exc
    data, labels = _parse_values(text, header_row)
    return InputMatrix(data, labels, sha256=hashlib.sha256(raw).hexdigest())


def write_matrix_csv(m: SymMatrix, path: str) -> None:
    """Write a matrix as dense CSV (shortest round-trip decimals)."""
    with open(path, "w", encoding="utf-8") as fh:
        if m.labels is not None:
            csv.writer(fh, lineterminator="\n").writerow(m.labels)
        cells = jsonout.FloatTexts()(m.values.ravel())
        fh.writelines(",".join(cells[i : i + m.dim]) + "\n" for i in range(0, len(cells), m.dim))


def _input_block(path: str, s: InputMatrix) -> dict:
    return {
        "path": path,
        "dim": s.dim,
        "labels": list(s.labels) if s.labels is not None else None,
        "sha256": s.sha256,
    }


@dataclass(frozen=True)
class _Closures:
    """Spanning forest and path closures of one correlation matrix."""

    r: SymMatrix
    forest: WeightedForest
    envelope: WeightedGraph  # excess-correlation graph
    w: SymMatrix
    equality: WeightedGraph  # entries equal to their best path product


def _closures(r: SymMatrix, w: SymMatrix, grw_tol: float) -> _Closures:
    forest = mwsf(r)
    return _Closures(r, forest, ec_graph(r, forest), w, grw_graph(r, w, grw_tol))


def _graphs_block(c: _Closures) -> dict:
    return {
        "mwsf": c.forest,
        "ec": c.envelope,
        "grw": c.equality,
    }


def _fit_doc(path, s, closures, result: FitResult, cfg, mode, converged) -> dict:
    return {
        "mode": mode,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "input": _input_block(path, s),
        "config": {**asdict(cfg), "mwsf_tie_break": MWSF_TIE_BREAK},
        "converged": converged,
        "sweeps": result.sweeps,
        "log_likelihood": result.log_likelihood,
        "duality_gap": result.duality_gap,
        "certificate": asdict(result.certificate),
        "sigma_hat": result.sigma_hat.values,
        "k_hat": result.k_hat.values,
        "ml_graph": result.ml_graph,
        "graphs": _graphs_block(closures),
    }


def cmd_fit(path: str, cfg: FitConfig, grw_tol: float = GRW_TOL):
    """Fit the input covariance.

    Returns (document, exit code, outputs); outputs is (closures, the graph
    drawn between the DOT tiers, the fitted covariance or None).
    """
    s = read_matrix_csv(path)
    result, converged = _fit_best(s, cfg)
    r, _ = to_correlation(s)
    closures = _closures(r, result.w, grw_tol)
    doc = _fit_doc(path, s, closures, result, cfg, "mtp2", converged)
    # the path-product equality graph generically coincides with the fitted
    # graph when the closed form applies, but only generically; surface any
    # disagreement instead of assuming it away
    equality, fitted = closures.equality, result.ml_graph
    same_rows = np.array_equal(equality.rows, fitted.rows)
    doc["grw_matches_ml_graph"] = same_rows and np.array_equal(equality.cols, fitted.cols)
    code = 0 if (converged and result.certificate.passed) else 3
    return doc, code, (closures, result.ml_graph, result.sigma_hat)


def cmd_analyze(path: str, grw_tol: float = GRW_TOL):
    """Graph and closed-form analysis of the input, no solver run."""
    s = read_matrix_csv(path)
    if not exists_mle(s):
        # the closures characterize the estimate; without existence (some
        # normalized entry at one) the path products are ill-defined too
        raise MleDoesNotExist(
            "no maximum likelihood estimate: some normalized entry reaches one"
        )
    r, scale = to_correlation(s)
    closures = _closures(r, w_matrix(r), grw_tol)
    z = fold_paths(r, closures.forest, np.minimum)  # single_linkage on the shared forest
    report = is_ultrametric(z, closures.forest)
    block = is_block_graph(closures.equality)
    closed = block_closed_form(closures.w, block)
    applicable = not isinstance(closed, NotApplicable)
    doc = {
        "mode": "analyze",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "input": _input_block(path, s),
        "scale": scale,
        "z_matrix": z.values,
        "w_matrix": closures.w.values,
        "z_ultrametric": asdict(report),
        "block_report": {
            "is_block_graph": block.is_block_graph,
            "blocks": [sorted(b) for b in block.blocks],
            "offending_component": sorted(block.offending_component)
            if block.offending_component is not None
            else None,
        },
        "closed_form": {
            "applicable": applicable,
            "sigma": closed.values if applicable else None,
            "reason": None if applicable else closed.reason,
        },
        "graphs": _graphs_block(closures),
        "mwsf_tie_break": MWSF_TIE_BREAK,
    }
    return doc, 0, (closures, closures.equality, None)


def cmd_signed(
    path: str, cfg: FitConfig, exhaustive_limit: int = EXHAUSTIVE_LIMIT, grw_tol: float = GRW_TOL
):
    """Best sign-switched fit; the document reports on correlation scale."""
    s = read_matrix_csv(path)
    r, scale = to_correlation(s)
    signed_result = fit_signed(r, cfg, exhaustive_limit=exhaustive_limit)
    # the graphs describe the switched matrix, whose spanning forest can
    # differ from the forest of |R| that chose the signs
    closures = _closures(apply_signs(r, signed_result.signs), signed_result.fit.w, grw_tol)
    doc = _fit_doc(path, s, closures, signed_result.fit, cfg, "signed", signed_result.converged)
    doc["scale"] = scale
    doc["signs"] = list(signed_result.signs.signs)
    doc["method"] = signed_result.method
    if signed_result.switched_likelihoods is not None:
        doc["switched_likelihoods"] = {
            "".join("+" if x > 0 else "-" for x in signs): ll
            for signs, ll in sorted(signed_result.switched_likelihoods.items())
        }
    code = 0 if (signed_result.converged and signed_result.fit.certificate.passed) else 3
    return doc, code, (closures, signed_result.fit.ml_graph, signed_result.fit.sigma_hat)


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
        try:
            res_sigma = fit(r, FitConfig(algorithm="sigma"))
            res_k = fit(r, FitConfig(algorithm="k"))
        except MaxSweepsExceeded as exc:
            failures += 1
            out(f"trial {t + 1:3d}  p={p}  {exc}  MISMATCH")
            continue
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
    # encoded in full first: a value that cannot be written raises
    # TypeError before the output file is opened
    chunks = jsonout.chunks(doc)
    chunks.append("\n")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _write_dot(path: str, c: _Closures, middle: WeightedGraph) -> None:
    lines = tiered_dot_lines(c.forest, middle, c.envelope, labels=c.r.labels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
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
    default = FitConfig()
    parser.add_argument("--algorithm", choices=ALGORITHMS, default=default.algorithm,
                        help="coordinate sweep: on the covariance or on the precision")
    parser.add_argument("--tol", type=_positive_float, default=default.tolerance,
                        help="stop when a sweep's L1 change (correlation scale) is below "
                             "tol * max(1, largest diagonal entry of the iterate), or when "
                             "a Newton solve on the sweep's support meets the KKT system at tol")
    parser.add_argument("--max-sweeps", type=_positive_int, default=default.max_sweeps)
    parser.add_argument("--edge-threshold", type=_positive_float, default=default.edge_threshold,
                        help="partial-correlation cutoff defining graph edges")
    parser.add_argument("--output", help="write the result document here instead of stdout")
    parser.add_argument("--dot", help="write a tiered DOT rendering of the graphs here")
    parser.add_argument("--sigma-csv", help="write the fitted covariance as CSV here")
    parser.add_argument("--grw-tol", type=_positive_float, default=GRW_TOL,
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
    p_an.add_argument("--grw-tol", type=_positive_float, default=GRW_TOL)

    p_sg = sub.add_parser("signed", help="fit the best sign-switched model")
    p_sg.add_argument("input")
    _add_fit_options(p_sg)
    p_sg.add_argument("--exhaustive-limit", type=_nonnegative_int, default=EXHAUSTIVE_LIMIT,
                      help="largest dimension for the exhaustive sign search")

    p_st = sub.add_parser("selftest", help="randomized solver-vs-oracle diagnostics")
    p_st.add_argument("--trials", type=_positive_int, default=15)
    p_st.add_argument("--dims", type=_dims, default="2,3,4",
                      help="comma separated dimensions to cycle through")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves no
    state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            seed = os.environ.get("TOTPOS_SEED", "0")
            if seed.isascii() and seed.isdigit():
                return cmd_selftest(args.trials, args.dims, int(seed))
            print(f"error: TOTPOS_SEED is not a nonnegative integer: {seed!r}", file=sys.stderr)
            return 2
        if args.command == "analyze":
            doc, code, outputs = cmd_analyze(args.input, grw_tol=args.grw_tol)
        elif args.command == "signed":
            doc, code, outputs = cmd_signed(
                args.input, _config_from_args(args),
                exhaustive_limit=args.exhaustive_limit, grw_tol=args.grw_tol,
            )
        else:
            doc, code, outputs = cmd_fit(args.input, _config_from_args(args), grw_tol=args.grw_tol)
        _emit(doc, args.output)
        if doc.get("converged") is False:
            print(f"error: no convergence within {args.max_sweeps} sweeps; "
                  "the document holds the best iterate", file=sys.stderr)
        closures, middle, sigma_hat = outputs
        if args.dot:
            _write_dot(args.dot, closures, middle)
        if getattr(args, "sigma_csv", None):
            write_matrix_csv(sigma_hat, args.sigma_csv)
        return code
    except MatrixParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except MleDoesNotExist as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
