"""tools/stage_us.py on one small case: its JSON and its bitwise state check."""

import importlib.util
import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CASE = "density-bump:20:on"


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module, set to a short warm-up and a few short chunks;
    the trees it loads are dropped from ``sys.modules`` afterwards."""
    spec = importlib.util.spec_from_file_location(
        "stage_us", os.path.join(ROOT, "tools", "stage_us.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "WARMUP_S", 0.05)
    monkeypatch.setattr(module, "TARGET_S", 0.005)
    monkeypatch.setattr(module, "CHUNKS", 4)
    yield module
    for name in [n for n in sys.modules if n.startswith("specvol_")]:
        del sys.modules[name]


def run(tool, capsys, *srcs):
    assert tool.main([*(a for src in srcs for a in ("--src", src)), "--case", CASE]) == 0
    return json.loads(capsys.readouterr().out)


def test_one_tree(tool, capsys):
    out = run(tool, capsys, SRC)
    assert set(out) == {"python", "numpy", "cpus", "src", "chunks", "cases"}
    assert out["src"] == [SRC] and out["chunks"] == 4
    figures = out["cases"]["density-bump N=20 on"]
    assert set(figures) == {"steps_per_chunk", "stage_us", "faults_per_stage"}
    assert figures["steps_per_chunk"] >= 1
    assert len(figures["stage_us"]) == 1 and figures["stage_us"][0] > 0.0
    assert len(figures["faults_per_stage"]) == 1


def test_one_tree_twice_is_bitwise_equal(tool, capsys):
    out = run(tool, capsys, SRC, SRC)
    figures = out["cases"]["density-bump N=20 on"]
    assert set(figures) == {
        "steps_per_chunk", "stage_us", "faults_per_stage", "median_ratio", "wins"
    }
    assert len(figures["stage_us"]) == 2 and min(figures["stage_us"]) > 0.0
    assert figures["median_ratio"] > 0.0 and 0 <= figures["wins"] <= 4


def test_trees_that_differ_stop_the_run(tool, tmp_path):
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "specvol" / "cli.py", "a") as fh:
        fh.write('\nBUILTIN_SCENARIOS["density-bump"] = '
                 'replace(BUILTIN_SCENARIOS["density-bump"], cfl=0.09)\n')
    with pytest.raises(SystemExit, match="states differ after chunk 0"):
        tool.main(["--src", SRC, "--src", str(other), "--case", CASE])


@pytest.mark.parametrize(
    "argv", [["--ab", SRC], ["--repeat", "3"], ["--src", SRC, "--src", SRC]]
)
def test_retired_options_and_a_third_tree_rejected(tool, argv):
    with pytest.raises(SystemExit) as info:
        tool.main(["--src", SRC, *argv])
    assert info.value.code == 2


@pytest.mark.parametrize("case", [
    "density-bump:20:yes", "nosuch:20:on", "density-bump:20", "density-bump:20:on:x",
    "density-bump:0:on", "density-bump:-4:on", "density-bump:x:on", "density-bump:020:on",
])
def test_malformed_case_rejected(tool, capsys, case):
    # Not <builtin>:<positive integer>:<on|off>: a usage error before any stage runs.
    with pytest.raises(SystemExit) as info:
        tool.main(["--src", SRC, "--case", case])
    assert info.value.code == 2
    assert f"--case must be <builtin>:<positive integer>:<on|off>, got {case!r}" in (
        capsys.readouterr().err
    )
