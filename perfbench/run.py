"""Benchmark of the totpos command line, one workload per process.

From the root of a checkout:

    python3 perfbench/run.py --workload fit_mixed --seed 1 --seconds 50 --trace 0

Set-up imports the package from ``src/``, generates the seeded inputs,
writes them as CSV and warms up on a small input.  It runs three times and
its median counts; the import is timed as the median of three fresh
interpreters that import the package.  The timed phase then runs problems (see
``workloads.py``) back to back, in pool order, until ``--seconds`` have
passed.  An input is solved again only when a run gets through the whole
pool: the time of a solve on a shared machine swings by a third from one
solve to the next, so a run reports totals over many distinct solves
rather than the fastest of a few.  The checks run
afterwards.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, and the spans are written to ``.bench_out/``.  The lines
above it repeat every metric with its unit and sample count, plus the
environment and the problem outcomes.  The exit code is 0 whenever the
benchmark itself ran, whatever the checks found, and 2 when the program's
source is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# traced inputs solved again untraced to give the tracing overhead
OVERHEAD_INPUTS = 3
# The reference kernel is REF_SOLVES dense 20 x 20 solves; they took 0.018 s
# to 0.045 s on a 2 GHz Xeon vCPU, and REF_NOMINAL_S is taken as the
# reference speed.  Other tenants of a shared machine slow the processor by
# a third for seconds to minutes; the kernel's time, measured between
# solves, slows with it, so the bounded time metrics are scaled by it to
# that reference speed.
REF_SOLVES = 2000
REF_NOMINAL_S = 0.025
WORKLOADS = ("fit_mixed", "analyze_signed")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, read through ctypes."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype, fn.argtypes = ctypes.c_int, []
            found[pkg.__name__] = fn()
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads() or {v: os.environ[v] for v in BLAS_ENV},
    }


def set_up(spec, seed, workdir):
    """Generate the pool, write it as CSV and warm up; returns the inputs,
    their CSV paths and the set-up time."""
    import dataclasses

    import workloads

    start = time.perf_counter()
    inputs = workloads.make_inputs(spec, seed)
    paths = []
    for i, item in enumerate(inputs):
        paths.append(tuple(os.path.join(workdir, f"in{i}-{j}.csv") for j in range(len(item))))
        for s, path in zip(item, paths[-1]):
            workloads.write_csv(s, path)
    small = dataclasses.replace(
        spec, pool=1, parts=tuple(dataclasses.replace(part, p=4) for part in spec.parts))
    (warm,) = workloads.make_inputs(small, seed)
    warm_csvs = tuple(os.path.join(workdir, f"warm-{j}.csv") for j in range(len(warm)))
    for s, path in zip(warm, warm_csvs):
        workloads.write_csv(s, path)
    workloads.run_problem(small, warm, warm_csvs, os.path.join(workdir, "warm"),
                          workloads.Problem(-1))
    return inputs, paths, time.perf_counter() - start


def run_timed(spec, inputs, paths, workdir, seconds, tracer):
    """Solve the pool in order, cycling, until ``seconds`` have passed; the
    reference kernel runs after each solve, outside its time."""
    import workloads

    problems, ref = [], []
    start = time.perf_counter()
    while not problems or time.perf_counter() < start + seconds:
        prob = workloads.Problem(len(problems) % len(inputs))
        out = os.path.join(workdir, f"out{len(problems)}")
        if tracer:
            tracer.begin_problem(len(problems))
        workloads.run_problem(spec, inputs[prob.index], paths[prob.index], out, prob)
        if tracer:
            tracer.end_problem()
        problems.append(prob)
        ref.append(reference_seconds())
    return problems, ref, time.perf_counter() - start


def check_all(spec, inputs, problems):
    """One list of per-part verdicts for each problem."""
    import workloads

    verdicts = []
    refs: dict[tuple[int, int], dict] = {}
    for prob in problems:
        parts = [workloads.Verdict() for _ in spec.parts]
        for j, part in enumerate(spec.parts):
            if j == prob.failed_part:
                parts[j].wrong.append(prob.error.strip().splitlines()[-1])
                break
            outputs = [(path, code) for k, path, code in prob.outputs if k == j]
            try:
                workloads.CHECKS[part.kind](prob, outputs, inputs[prob.index][j], parts[j],
                                            refs.setdefault((prob.index, j), {}))
            except (KeyError, TypeError, ValueError) as exc:
                parts[j].wrong.append(f"malformed document: {exc!r}")
        verdicts.append(parts)
    return verdicts


def report(lines, name, value, unit, note):
    lines.append(f"{name:<28} {value:>12.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"  # single-threaded baseline
    if not os.path.isfile(os.path.join(SRC, "totpos", "__init__.py")):
        print(f"perfbench: no totpos package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import totpos

    if os.path.dirname(os.path.dirname(os.path.abspath(totpos.__file__))) != SRC:
        print(f"perfbench: imported totpos from {totpos.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.SPECS[args.workload]
    workdir = os.path.join(WORK, f"{spec.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_seconds() -> float:
    """Time a fresh interpreter takes to start and import the package, as
    every command-line call does."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import totpos"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Time of one run of the reference kernel."""
    import numpy as np

    a = 20.0 * np.eye(20) + np.linspace(0.0, 1.0, 400).reshape(20, 20)
    start = time.perf_counter()
    for _ in range(REF_SOLVES):
        np.linalg.solve(a, a[0])
    return time.perf_counter() - start


def measure(args, spec, workdir) -> int:
    import spans
    import workloads

    setup_ref, imports, setups = [reference_seconds()], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        setups.append(set_up(spec, args.seed, workdir))
        setup_ref.append(reference_seconds())
    inputs, paths, _ = setups[0]
    import_s = statistics.median(imports)
    setup_wall = import_s + statistics.median(t for _, _, t in setups)
    setup_speed = REF_NOMINAL_S / statistics.median(setup_ref)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        problems, ref, timed = run_timed(spec, inputs, paths, workdir, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        # the first inputs once more with tracing off give the overhead
        again = problems[:OVERHEAD_INPUTS]
        traced = untraced = 0.0
        for prob in again:
            rerun = workloads.Problem(prob.index)
            workloads.run_problem(spec, inputs[prob.index], paths[prob.index],
                                  os.path.join(workdir, f"rerun{prob.index}"), rerun)
            traced += prob.seconds
            untraced += rerun.seconds
    verdicts = check_all(spec, inputs, problems)

    attempted = len(problems)
    wrong = sum(1 for parts in verdicts if any(v.wrong for v in parts))
    lines = [
        "env " + json.dumps(environment(), sort_keys=True),
        f"workload {spec.name}: pool={len(inputs)} seed={args.seed} trace={args.trace}: "
        f"{attempted} problems in {timed:.3f} s",
    ]
    for j, part in enumerate(spec.parts):
        vs = [parts[j] for parts in verdicts]
        docs = sum(v.fits for v in vs)
        bad = sum(1 for v in vs if v.wrong or v.certified < v.fits)
        methods = sorted({v.method for v in vs if v.method})
        lines.append(f"part {part.name}: {part.kind} p={part.p} n={part.n} {' '.join(part.extra_args)}")
        if methods:
            lines.append("  sign methods (solves): " + json.dumps(
                {m: sum(1 for v in vs if v.method == m) for m in methods}))
        report(lines, f"failed_frac[{part.name}]", bad / attempted, "1",
               f"({bad} of {attempted} solves with an uncertified or wrong fit; "
               f"{sum(v.certified for v in vs)} of {docs} documents certified; "
               f"{sum(v.budget_exits for v in vs)} budget exits; "
               f"{sum(1 for v in vs if v.wrong)} wrong)")
        if not tracer:
            times = [p.part_seconds[j] for p in problems if len(p.part_seconds) > j]
            report(lines, f"part_per_s[{part.name}]", len(times) / sum(times), "1/s",
                   f"({len(times)} solves: solves over the time spent in this part; not bounded)")
        for v in vs:
            lines.extend("  wrong: " + msg for msg in v.wrong[:3])

    metrics = {}
    if not tracer:
        times = [p.seconds for p in problems]
        speed = REF_NOMINAL_S * len(ref) / sum(ref)
        report(lines, "solve_s_p50", statistics.median(times), "s",
               f"({attempted} solves, wall time; not bounded)")
        report(lines, "reference_speed", speed, "1",
               f"(reference kernel: {REF_NOMINAL_S} s over its mean of {len(ref)} runs between solves)")
        report(lines, "problems_per_s_wall", attempted / sum(times), "1/s",
               f"({attempted} solves over their total wall time; not bounded)")
        report(lines, "setup_s_wall", setup_wall, "s", f"(median of {SETUP_REPEATS} set-ups plus median "
               f"{import_s:.3f} s of {SETUP_REPEATS} fresh imports; not bounded)")
        e2e = {
            "problems_per_s": (attempted / sum(times) / speed, "1/s",
                               "(problems_per_s_wall / reference_speed)"),
            "peak_rss_mb": (peak_mb, "MB", "(peak resident set of this process)"),
            "setup_s": (setup_wall * setup_speed, "s",
                        f"(setup_s_wall x {setup_speed:.4f}, the reference speed during set-up)"),
        }
        for name, (value, unit, note) in e2e.items():
            report(lines, name, value, unit, note)
            metrics[name] = {"value": value, "unit": unit}
    else:
        layers = tracer.layer_metrics(attempted)
        layers["trace.overhead_s"] = ((traced - untraced) / len(again), "s")
        layers["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
        layers["trace.span_cost_us"] = (tracer.span_cost_us(), "us")
        for name, (value, unit) in layers.items():
            if name.startswith("trace.overhead"):
                note = (f"(first {len(again)} solves traced minus the same inputs untraced, "
                        f"{untraced:.4f} s untraced)")
            elif name == "trace.span_cost_us":
                note = "(one span, from wrapped no-op calls)"
            else:
                note = f"(per problem, n={attempted})" if unit in ("s", "count") else "(ratio of run totals)"
            report(lines, name, value, unit, note)
            metrics[name] = {"value": value, "unit": unit}
        span_file = os.path.join(WORK, f"spans-{spec.name}-seed{args.seed}.json")
        tracer.write(span_file)
        lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_file, ROOT)}")

    print("\n".join(lines))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
