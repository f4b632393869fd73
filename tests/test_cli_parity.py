"""The parity gate in tools/cli_parity.py: command line output is
deterministic, so two manifests of the same tree are identical."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from totpos import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_parity.py"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_gives_identical_manifests(tmp_path):
    tool = _load_tool()
    # a header and no flips at p = 3, n = 2; flipped signs at p = 5, n = 10
    # and two-decimal correlations with tied entries, in two blocks, at p = 8
    inputs = tool.cases(dims=(3, 5), seeds=(0, 1))[::11]
    inputs += tool.tied_cases(dims=(8,), seeds=(1,))[1:]
    assert [name for name, _ in inputs] == ["p03_n02_s0", "p05_n10_s1", "t08_n16_s1"]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = tool.manifest(cli, inputs, str(first))
    b = tool.manifest(cli, inputs, str(second))
    assert len(a) == 4 * len(inputs)
    assert all(doc is not None and dot is not None for _, doc, dot in a.values())
    assert tool.compare(a, b) == []


def test_analyze_only_inputs_run_analyze_alone(tmp_path):
    tool = _load_tool()
    inputs = tool.cases(dims=(3,), seeds=(0,))[:1]
    runs = tool.manifest(cli, [], str(tmp_path), analyze_only=inputs)
    assert list(runs) == ["p03_n02_s0/analyze"]
    every = tool.manifest(cli, inputs, str(tmp_path))
    assert len(every) == 4
    assert runs["p03_n02_s0/analyze"] == every["p03_n02_s0/analyze"]


def test_cycle_and_exhaustive_families(tmp_path):
    tool = _load_tool()
    cycles = tool.cycle_cases()
    exhaustive = tool.exhaustive_cases()
    assert len(cycles) == 8 and len(exhaustive) == 8
    names = [name for name, _ in tool.cases() + tool.tied_cases() + cycles]
    assert len(set(names)) == len(names)
    # p edges tie at 0.3 on a cycle through every vertex, above every chord
    _, text = cycles[1]
    r = np.array([[float(x) for x in line.split(",")] for line in text.split()])
    p = len(r)
    tied = np.triu(r == 0.3, 1)
    assert tied.sum() == p and (tied | tied.T).sum(axis=1).tolist() == [2] * p
    assert (np.abs(r[~np.eye(p, dtype=bool) & ~(tied | tied.T)]) <= 0.05).all()
    runs = tool.manifest(cli, cycles[:1], str(tmp_path), exhaustive=exhaustive[2:3])
    assert sorted(runs) == [
        "c05_s0/analyze", "c05_s0/fit-k", "c05_s0/fit-sigma", "c05_s0/signed",
        "p07_n14_s1/signed-exhaustive", "p07_n14_s1/signed-exhaustive-k",
    ]
    with open(tmp_path / "p07_n14_s1.csv") as fh:
        assert len(fh.read().split()) == 7
    assert all(code in (0, 3) for code, _, _ in runs.values())


def test_kept_documents_and_their_diff(tmp_path, capsys):
    tool = _load_tool()
    inputs = tool.cases(dims=(4,), seeds=(0,))[:1]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    runs = tool.manifest(cli, inputs, str(tmp_path), keep=str(first))
    tool.manifest(cli, inputs, str(tmp_path), keep=str(second))
    assert tool.kept_runs(str(first)) == set(runs) == {
        "p04_n02_s0/analyze", "p04_n02_s0/fit-k", "p04_n02_s0/fit-sigma", "p04_n02_s0/signed",
    }
    # the kept text is the hashed text: the document without generated_at
    for run, (_, digest, _) in runs.items():
        text = (first / f"{run}.json").read_text(encoding="utf-8")
        assert "generated_at" not in text
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert tool.diff_documents(str(first), str(second)) == {}
    assert tool.main(["--diff", str(first), str(second)]) == 0
    assert capsys.readouterr().out == ("4 identical, 0 differ\n0 with a different verdict\n"
                                       "differing runs per key: none\n")
    # move the largest entry of one matrix by a relative 1e-9 and one entry
    # of another by 1e-12 of its largest, drop one key and flip one flag
    path = second / "p04_n02_s0/fit-k.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    sigma = np.array(doc["sigma_hat"])
    top = np.unravel_index(np.abs(sigma).argmax(), sigma.shape)
    doc["sigma_hat"][top[0]][top[1]] *= 1.0 + 1e-9
    size = np.abs(doc["k_hat"]).max()
    doc["k_hat"][0][1] = doc["k_hat"][0][1] + 1e-12 * size
    doc["converged"] = not doc["converged"]
    del doc["sweeps"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    (second / "p04_n02_s0/analyze.json").unlink()
    # and flip the certificate's verdict, the last sign and the method of
    # the signed fit
    path = second / "p04_n02_s0/signed.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["certificate"]["passed"] = not doc["certificate"]["passed"]
    doc["signs"][-1] = -doc["signs"][-1]
    doc["method"] = "heuristic" if doc["method"] != "heuristic" else "balanced_exact"
    path.write_text(json.dumps(doc), encoding="utf-8")
    differ = tool.diff_documents(str(first), str(second))
    assert sorted(differ) == ["p04_n02_s0/analyze", "p04_n02_s0/fit-k", "p04_n02_s0/signed"]
    keys, rel, where, flips = differ["p04_n02_s0/fit-k"]
    assert keys == ["converged", "k_hat", "sigma_hat", "sweeps"]
    assert abs(rel - 1e-9) <= 1e-15 and where == "sigma_hat"
    assert flips == ["converged", "sweeps"]
    assert differ["p04_n02_s0/analyze"] == (["<missing>"], 0.0, None, [])
    assert differ["p04_n02_s0/signed"] == (["certificate", "method", "signs"], 2.0, "signs",
                                           ["certificate.passed", "signs", "method"])
    assert tool.main(["--diff", str(first), str(second)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3] == "1 identical, 3 differ"
    assert out[1] == ("p04_n02_s0/fit-k: converged, k_hat, sigma_hat, sweeps; "
                      "largest relative difference 1e-09 (sigma_hat)")
    # the second-to-last line names the runs whose verdict differs, and where
    assert out[-2] == ("2 with a different verdict: p04_n02_s0/fit-k (converged, sweeps); "
                       "p04_n02_s0/signed (certificate.passed, signs, method)")
    # the last counts the differing runs per top-level key, most first
    assert out[-1] == ("differing runs per key: <missing> 1, certificate 1, converged 1, k_hat 1, "
                       "method 1, sigma_hat 1, signs 1, sweeps 1")


def test_blas_threads_pinned_before_numpy_is_imported():
    # a fresh interpreter without the variables records them at the moment
    # numpy is first looked up, then loads the tool
    probe = f"""
import importlib.util, json, os, sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(json.dumps({{v: os.environ.get(v) for v in {BLAS_ENV!r}}}))
            sys.meta_path.remove(self)

sys.meta_path.insert(0, Probe())
spec = importlib.util.spec_from_file_location("cli_parity", {str(TOOL)!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out.splitlines()[0]) == dict.fromkeys(BLAS_ENV, "1")
    assert _load_tool().BLAS_ENV == BLAS_ENV
