"""Byte-parity gate for the command line.

Runs a fixed, seeded set of CLI invocations in-process and writes a JSON
manifest ``{run: [exit code, sha256 of the document, sha256 of the DOT
file]}``.  The document is hashed without its ``generated_at`` line, the
only part that changes between two runs of the same tree.  Inputs are
sample covariances of Gaussian draws with a sparse M-matrix precision, at
p = 3 to 20 and n = 2, 3 and 2p; odd seeds flip the signs of some
variables, even seeds carry a header row.  A second family rounds the
correlations of such draws to two decimals, so that positive entries tie
and the spanning forest's tie-break decides; odd seeds there also zero
every entry between the two halves of the variables (p = 4 to 12, n = 3
and 2p).  A third family puts equal weights on a cycle through every
variable, with small chords, so that the tie-break alone decides which
cycle edge the forest drops (p = 5 to 12).  Each input runs ``fit`` with
every algorithm, ``signed`` and ``analyze``, all with ``--dot``.  Inputs at
p = 100 and 200 (n = 2p, seeds 0 and 1) run ``analyze`` alone: there most
of a document is matrices and edge lists.  Unbalanced inputs at p = 7 and
8 (n = 3 and 2p, seeds 1 and 3) run ``signed`` alone, with the exhaustive
search over 64 and 128 sign vectors, once with the default algorithm and
once with ``--algorithm k``.  That is 720 runs in all.  Documents
depend on the BLAS thread count, so the tool pins OpenBLAS, OpenMP and MKL
to one thread before numpy is imported, as ``perfbench/run.py`` does.

    python tools/cli_parity.py SRC --output manifest.json --keep DIR
    python tools/cli_parity.py --compare A.json B.json
    python tools/cli_parity.py --diff DIR_A DIR_B

SRC is the ``src`` directory whose ``totpos`` package is run.  Two trees
behave the same when their manifests are equal: ``--compare`` lists the
runs that differ and exits 1 when any do.  ``--keep`` also saves each run's
document, without its ``generated_at`` line, as DIR/<run>.json; ``--diff``
reads two such directories and reports, for each run whose document
differs, the top-level keys that differ and the largest difference between
numbers at the same place, relative to the largest magnitude under the same
key, and exits 1 when any do.  Its second-to-last line names the runs
whose verdict differs: ``certificate.passed``, ``converged``, ``sweeps``, or
the chosen ``signs`` or ``method`` of a signed fit.  Its last line counts
the differing runs per top-level key, most first.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # after the pin

DIMS = (3, 4, 5, 6, 8, 10, 12, 16, 20)
SEEDS = range(5)
TIED_DIMS = (4, 6, 8, 12)
TIED_SEEDS = range(4)
CYCLE_DIMS = (5, 6, 8, 12)
CYCLE_SEEDS = range(2)
EXHAUSTIVE_DIMS = (7, 8)
EXHAUSTIVE_SEEDS = (1, 3)
LARGE_DIMS = (100, 200)
LARGE_SEEDS = (0, 1)
# pinned, not read from the package, so that two trees run the same set
ALGORITHMS = ("sigma", "k")
# Caps that keep one run under a few seconds: a covariance sweep that stalls
# at n = 2 stops at the budget, and an unbalanced signed input beyond p = 6
# takes the forest heuristic instead of 2^(p-1) fits.
FIT_FLAGS = ("--max-sweeps", "200")
SIGNED_FLAGS = (*FIT_FLAGS, "--exhaustive-limit", "6")
# the exhaustive family runs the sign search on 64 and 128 sign vectors
EXHAUSTIVE_FLAGS = (*FIT_FLAGS, "--exhaustive-limit", "8")
GENERATED_AT = re.compile(r'^  "generated_at": .*\n', flags=re.M)
# the places in a document that hold a fit's verdict, and a signed fit's choice
VERDICTS = (("certificate", "passed"), ("converged",), ("sweeps",), ("signs",), ("method",))


def sample_covariance(p: int, n: int, seed: int) -> np.ndarray:
    """Sample covariance (known zero mean) of n draws from a Gaussian whose
    precision is a random sparse M-matrix; odd seeds flip signs at random."""
    rng = np.random.default_rng([p, n, seed])
    mask = np.triu(rng.random((p, p)) < 3.0 / p, 1)
    a = np.where(mask, rng.uniform(0.2, 1.0, (p, p)), 0.0)
    a = a + a.T
    k = -a
    np.fill_diagonal(k, a.sum(axis=1) + rng.uniform(1.0, 2.0, p))
    x = rng.standard_normal((n, p)) @ np.linalg.cholesky(np.linalg.inv(k)).T
    if seed % 2:
        x *= np.where(rng.random(p) < 0.5, -1.0, 1.0)
    return x.T @ x / n


def _csv(name: str, m: np.ndarray, header: bool) -> tuple[str, str]:
    lines = [",".join(f"v{i}" for i in range(len(m)))] if header else []
    lines += [",".join(repr(float(x)) for x in row) for row in m]
    return name, "\n".join(lines) + "\n"


def _case(p: int, n: int, seed: int) -> tuple[str, str]:
    return _csv(f"p{p:02d}_n{n:02d}_s{seed}", sample_covariance(p, n, seed), seed % 2 == 0)


def _tied_case(p: int, n: int, seed: int) -> tuple[str, str]:
    """Correlations of a ``sample_covariance`` draw rounded to two decimals;
    odd seeds are split into two diagonal blocks."""
    s = sample_covariance(p, n, seed)
    scale = np.sqrt(np.diag(s))
    r = np.round(s / np.outer(scale, scale), 2)
    np.fill_diagonal(r, 1.0)
    if seed % 2:
        r[: p // 2, p // 2 :] = r[p // 2 :, : p // 2] = 0.0
    return _csv(f"t{p:02d}_n{n:02d}_s{seed}", r, seed % 2 == 0)


def _cycle_case(p: int, seed: int) -> tuple[str, str]:
    """Every edge of a cycle through all variables, in a seeded order, at
    0.3, and chords drawn from [-0.05, 0.05]: the spanning forest keeps all
    but one cycle edge, and the tie-break alone decides which."""
    rng = np.random.default_rng([p, seed, 7])
    r = np.triu(rng.uniform(-0.05, 0.05, (p, p)), 1)
    r = r + r.T
    cycle = rng.permutation(p)
    after = np.roll(cycle, -1)
    r[cycle, after] = r[after, cycle] = 0.3
    np.fill_diagonal(r, 1.0)
    return _csv(f"c{p:02d}_s{seed}", r, seed % 2 == 0)


def cases(dims=DIMS, seeds=SEEDS) -> list[tuple[str, str]]:
    """(name, CSV text) for every input that runs every command."""
    return [_case(p, n, seed) for p in dims for n in sorted({2, 3, 2 * p}) for seed in seeds]


def tied_cases(dims=TIED_DIMS, seeds=TIED_SEEDS) -> list[tuple[str, str]]:
    """(name, CSV text) for the rounded inputs, which also run every command."""
    return [_tied_case(p, n, seed) for p in dims for n in (3, 2 * p) for seed in seeds]


def cycle_cases(dims=CYCLE_DIMS, seeds=CYCLE_SEEDS) -> list[tuple[str, str]]:
    """(name, CSV text) for the tied cycles, which also run every command."""
    return [_cycle_case(p, seed) for p in dims for seed in seeds]


def exhaustive_cases() -> list[tuple[str, str]]:
    """(name, CSV text) for unbalanced inputs that run ``signed`` alone,
    with the exhaustive search reaching p = 8."""
    return [
        _case(p, n, seed) for p in EXHAUSTIVE_DIMS for n in (3, 2 * p) for seed in EXHAUSTIVE_SEEDS
    ]


def large_cases() -> list[tuple[str, str]]:
    """(name, CSV text) for every input that runs ``analyze`` alone."""
    return [_case(p, 2 * p, seed) for p in LARGE_DIMS for seed in LARGE_SEEDS]


def invocations(name: str) -> dict[str, list[str]]:
    path = f"{name}.csv"
    runs = {f"{name}/fit-{a}": ["fit", path, "--algorithm", a, *FIT_FLAGS] for a in ALGORITHMS}
    runs[f"{name}/signed"] = ["signed", path, *SIGNED_FLAGS]
    runs[f"{name}/analyze"] = ["analyze", path]
    return runs


def _read(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sha256(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


def manifest(cli, inputs, workdir: str, analyze_only=(), exhaustive=(), keep=None) -> dict[str, list]:
    """Run every invocation of ``inputs``, the ``analyze`` invocation of
    ``analyze_only`` and the ``signed`` invocations with EXHAUSTIVE_FLAGS of
    ``exhaustive`` (default algorithm, then ``k``) through ``cli.main``
    inside ``workdir``; paths are relative, so documents do not depend on
    it.  With ``keep``, each
    document is saved there as <run>.json, without ``generated_at``."""
    keep = keep and os.path.abspath(keep)
    jobs = [(name, text, invocations(name)) for name, text in inputs]
    for name, text in analyze_only:
        runs = {run: argv for run, argv in invocations(name).items() if argv[0] == "analyze"}
        jobs.append((name, text, runs))
    for name, text in exhaustive:
        argv = ["signed", f"{name}.csv", *EXHAUSTIVE_FLAGS]
        jobs.append((name, text, {f"{name}/signed-exhaustive": argv,
                                  f"{name}/signed-exhaustive-k": [*argv, "--algorithm", "k"]}))
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text, runs in jobs:
            with open(f"{name}.csv", "w", encoding="utf-8") as fh:
                fh.write(text)
            for run, argv in runs.items():
                doc, dot = "out.json", "out.dot"
                for stale in (doc, dot):
                    if os.path.exists(stale):
                        os.remove(stale)
                with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
                    warnings.simplefilter("ignore")
                    try:
                        code = cli.main([*argv, "--output", doc, "--dot", dot])
                    except Exception as exc:  # recorded, so that the gate compares it
                        code = f"raised {type(exc).__name__}"
                text = _read(doc)
                if text is not None:
                    text = GENERATED_AT.sub("", text, count=1)
                out[run] = [code, _sha256(text), _sha256(_read(dot))]
                if keep and text is not None:
                    path = os.path.join(keep, f"{run}.json")
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
    finally:
        os.chdir(cwd)
    return out


def compare(a: dict, b: dict) -> list[str]:
    return sorted(run for run in a.keys() | b.keys() if a.get(run) != b.get(run))


def _spread(a, b) -> tuple[float, float]:
    """The largest |x - y| over the numbers at the same place of two JSON
    values, and the largest |x| or |y| among them."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(a[k], b[k]) for k in a.keys() & b.keys()]
    elif isinstance(a, list) and isinstance(b, list):
        pairs = list(zip(a, b))
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return abs(a - b), max(abs(a), abs(b))
    else:
        return 0.0, 0.0
    spreads = [_spread(x, y) for x, y in pairs]
    return max((d for d, _ in spreads), default=0.0), max((m for _, m in spreads), default=0.0)


def _at(doc, path: tuple[str, ...]):
    """The value at a path of keys, None where the path is absent."""
    for key in path:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def kept_runs(root: str) -> set[str]:
    """The runs whose documents a ``--keep`` directory holds."""
    return {os.path.relpath(os.path.join(d, f), root)[: -len(".json")]
            for d, _, files in os.walk(root) for f in files if f.endswith(".json")}


def diff_documents(dir_a: str, dir_b: str) -> dict[str, tuple[list[str], float, str | None, list[str]]]:
    """For each run whose kept document differs between two ``--keep``
    directories: the top-level keys that differ (a key present on one side
    only counts), the largest relative numeric difference, the key where
    it is and the VERDICTS that differ, dotted.  A difference is relative to
    the largest magnitude under its top-level key, so that entries near zero
    do not dominate.  A document present on one side only is reported with
    the key "<missing>"."""
    out = {}
    for run in sorted(kept_runs(dir_a) | kept_runs(dir_b)):
        a, b = (_read(os.path.join(root, f"{run}.json")) for root in (dir_a, dir_b))
        if a == b:
            continue
        if a is None or b is None:
            out[run] = (["<missing>"], 0.0, None, [])
            continue
        da, db = json.loads(a), json.loads(b)
        absent = object()
        keys = sorted(k for k in da.keys() | db.keys() if da.get(k, absent) != db.get(k, absent))
        rel, where = 0.0, None
        for key in keys:
            delta, size = _spread(da.get(key), db.get(key))
            if delta and delta / size > rel:
                rel, where = delta / size, key
        flips = [".".join(path) for path in VERDICTS if _at(da, path) != _at(db, path)]
        out[run] = (keys, rel, where, flips)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", help="src directory holding the totpos package")
    parser.add_argument("--output", help="write the manifest here instead of stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two manifests")
    parser.add_argument("--keep", metavar="DIR", help="also save each run's document in DIR")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare the documents of two --keep directories")
    args = parser.parse_args(argv)
    if args.diff:
        differ = diff_documents(*args.diff)
        for run, (keys, rel, where, _) in differ.items():
            print(f"{run}: {', '.join(keys)}; largest relative difference {rel:.3g}"
                  + (f" ({where})" if where else ""))
        total = len(kept_runs(args.diff[0]) | kept_runs(args.diff[1]))
        print(f"{total - len(differ)} identical, {len(differ)} differ")
        flipped = [f"{run} ({', '.join(flips)})" for run, (*_, flips) in differ.items() if flips]
        print(f"{len(flipped)} with a different verdict" + (": " if flipped else "") + "; ".join(flipped))
        counts = collections.Counter(key for keys, *_ in differ.values() for key in keys)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        print("differing runs per key: " + (", ".join(f"{k} {n}" for k, n in ranked) or "none"))
        return 1 if differ else 0
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            a, b = json.load(fa), json.load(fb)
        differ = compare(a, b)
        for run in differ:
            print(f"{run}: {a.get(run)} != {b.get(run)}")
        print(f"{len(a.keys() | b.keys()) - len(differ)} identical, {len(differ)} differ")
        return 1 if differ else 0
    if not args.src:
        parser.error("give a src directory, --compare or --diff")
    sys.path.insert(0, os.path.abspath(args.src))
    from totpos import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        parser.error(f"imported totpos from {cli.__file__}, not from {args.src}")
    with tempfile.TemporaryDirectory() as workdir:
        result = manifest(cli, cases() + tied_cases() + cycle_cases(), workdir,
                          analyze_only=large_cases(), exhaustive=exhaustive_cases(),
                          keep=args.keep)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
