"""The parity gate in tools/cli_parity.py: command line output is
deterministic, so two manifests of the same tree are identical."""

import importlib.util
from pathlib import Path

from totpos import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_parity.py"


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
