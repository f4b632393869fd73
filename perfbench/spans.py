"""In-memory spans around calls into the public functions of ``totpos``.

Used only by the traced run.  ``Tracer.install`` replaces every public
function of the eight modules, wherever a module of the package holds a
reference to it, with a wrapper that records a span; ``uninstall`` puts the
originals back.  The program's source is not touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = ("cli", "matcore", "graphs", "ultra", "solver", "structure", "signed", "oracle")
# wrapped no-op calls timed to give the cost of one span
COST_CALLS = 20000
# private CLI steps that have their own per-layer metric
EXTRA = {"cli": ("_emit", "_write_dot")}


def _fit_info(args, result=None, exc=None):
    res = result if exc is None else getattr(exc, "result", None)
    if res is None:
        return {"error": type(exc).__name__}
    return {
        "dim": res.sigma_hat.dim,
        "sweeps": res.sweeps,
        "passed": res.certificate.passed,
        "budget": exc is not None,
    }


def _oracle_info(args, result=None, exc=None):
    return {"dim": args[0].dim}


def _main_info(args, result=None, exc=None):
    return {"command": args[0][0]}


# what a span keeps of a call, by name; everything else keeps nothing, so
# large return values are not held in memory
INFO = {"solver.fit": _fit_info, "oracle.active_set_oracle": _oracle_info,
        "cli.main": _main_info}


class Tracer:
    """Collects spans ``[name, parent, start, end, problem, info]``.

    ``parent`` is the index of the enclosing span (-1 at the root) and
    ``problem`` the identifier that all spans of one problem share.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.problem = -1

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        wrappers = {}
        mods = {m: importlib.import_module(f"totpos.{m}") for m in MODULES}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or name in EXTRA.get(short, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{short}.{name.lstrip('_')}", obj)
        holders = [importlib.import_module("totpos"), *mods.values()]
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                if id(obj) in wrappers:
                    self._patches.append((holder, name, obj))
                    setattr(holder, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for holder, name, obj in reversed(self._patches):
            setattr(holder, name, obj)
        self._patches.clear()

    def _wrap(self, qualname: str, fn):
        info = INFO.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualname, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.problem, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[3] = perf_counter()
                if info is not None:
                    span[5] = info(args, exc=exc)
                raise
            else:
                span[3] = perf_counter()
                if info is not None:
                    span[5] = info(args, result=result)
                return result
            finally:
                self._stack.pop()

        return wrapper

    def span_cost_us(self) -> float:
        """Cost of one span, from wrapping a no-op; the spans it records
        are dropped again."""
        def noop():
            return None

        wrapped = self._wrap("bench.noop", noop)
        mark = len(self.spans)
        start = perf_counter()
        for _ in range(COST_CALLS):
            noop()
        plain = perf_counter() - start
        start = perf_counter()
        for _ in range(COST_CALLS):
            wrapped()
        traced = perf_counter() - start
        del self.spans[mark:]
        return 1e6 * (traced - plain) / COST_CALLS

    def begin_problem(self, index: int) -> None:
        self.problem = index
        self._stack.append(len(self.spans))
        self.spans.append(["bench.problem", -1, perf_counter(), 0.0, index, None])

    def end_problem(self) -> None:
        self.spans[self._stack.pop()][3] = perf_counter()

    def write(self, path: str) -> None:
        keys = ("name", "parent", "start", "end", "problem", "info")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    # ------------------------------------------------------------ summary

    def layer_metrics(self, problems: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit).  Times and counts are per
        problem; ratios are ratios of run totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time = {m: 0.0 for m in MODULES}
        for idx, (name, _, start, end, _, _) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            module = name.split(".")[0]
            if module in self_time:
                self_time[module] += (end - start) - child[idx]

        def per(x):
            return x / problems

        def t(name):
            return per(total.get(name, 0.0))

        fits = [(i, s[5]) for i, s in enumerate(spans) if s[0] == "solver.fit"]
        done = [info for _, info in fits if info and "sweeps" in info]
        sweeps = sum(f["sweeps"] for f in done)
        pair_updates = sum(f["sweeps"] * f["dim"] * (f["dim"] - 1) // 2 for f in done)
        descend = sum(spans[i][3] - spans[i][2] - child[i] for i, _ in fits)
        searches = calls.get("signed.fit_signed", 0)
        in_search = sum(1 for i, _ in fits if self._ancestor(i, "signed.fit_signed") >= 0)
        oracle_dims = [s[5]["dim"] for s in spans if s[0] == "oracle.active_set_oracle"]
        analyze_mains = {i for i, s in enumerate(spans)
                         if s[0] == "cli.main" and s[5] and s[5]["command"] == "analyze"}
        fits_in_analyze = sum(1 for i, _ in fits if self._ancestor(i, "cli.main") in analyze_mains)

        out = {f"{m}.self_s": (per(v), "s") for m, v in self_time.items()}
        out.update({
            "cli.parse_s": (t("cli.read_matrix_csv"), "s"),
            "cli.emit_s": (t("cli.emit"), "s"),
            "cli.dot_s": (t("cli.write_dot"), "s"),
            "matcore.pd_factorize_calls": (per(calls.get("matcore.pd_factorize", 0)), "count"),
            "matcore.pd_factorize_s": (t("matcore.pd_factorize"), "s"),
            "matcore.inverse_pd_s": (t("matcore.inverse_pd"), "s"),
            "graphs.mwsf_calls": (per(calls.get("graphs.mwsf", 0)), "count"),
            "graphs.mwsf_s": (t("graphs.mwsf"), "s"),
            "graphs.tree_mle_s": (t("graphs.tree_mle"), "s"),
            "ultra.single_linkage_s": (t("ultra.single_linkage"), "s"),
            "ultra.w_matrix_s": (t("ultra.w_matrix"), "s"),
            "ultra.w_matrix_calls": (per(calls.get("ultra.w_matrix", 0)), "count"),
            "ultra.is_ultrametric_s": (t("ultra.is_ultrametric"), "s"),
            "ultra.ec_graph_s": (t("ultra.ec_graph"), "s"),
            "solver.fit_s": (t("solver.fit"), "s"),
            "solver.descend_s": (per(descend), "s"),
            "solver.sweeps": (per(sweeps), "count"),
            "solver.pair_updates": (per(pair_updates), "count"),
            "solver.us_per_pair_update": (1e6 * descend / pair_updates if pair_updates else 0.0, "us"),
            "solver.budget_exhausted": (per(sum(1 for f in done if f["budget"])), "count"),
            "solver.cert_failed": (per(sum(1 for f in done if not f["budget"] and not f["passed"])), "count"),
            "solver.certificate_s": (t("solver.kkt_certificate"), "s"),
            "solver.gap_s": (t("solver.duality_gap"), "s"),
            "solver.fits_in_analyze": (per(fits_in_analyze), "count"),
            "structure.grw_graph_s": (t("structure.grw_graph"), "s"),
            "structure.is_block_graph_s": (t("structure.is_block_graph"), "s"),
            "structure.block_closed_form_s": (t("structure.block_closed_form"), "s"),
            "signed.fit_signed_s": (t("signed.fit_signed"), "s"),
            "signed.is_balanced_s": (t("signed.is_balanced"), "s"),
            "signed.fits_per_search": (in_search / searches if searches else 0.0, "count"),
            "oracle.active_set_oracle_s": (t("oracle.active_set_oracle"), "s"),
            "oracle.candidate_sets": (
                sum(2 ** (d * (d - 1) // 2) for d in oracle_dims) / len(oracle_dims) if oracle_dims else 0.0,
                "count",
            ),
            "trace.spans": (per(len(spans)), "count"),
        })
        return out

    def _ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        parent = self.spans[idx][1]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][1]
        return parent
