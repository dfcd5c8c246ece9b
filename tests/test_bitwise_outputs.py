"""tools/bitwise_outputs.py on two short runs: equal trees, differing trees, one tree."""

import importlib.util
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module, set to one run that succeeds and one that exits 1."""
    spec = importlib.util.spec_from_file_location(
        "bitwise_outputs", os.path.join(ROOT, "tools", "bitwise_outputs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RUNS", {
        "density-bump": ["run", "density-bump", "--nsv", "4", "--t-end", "0.5"],
        "burgers-sine-pure-fails": ["run", "burgers-sine", "--no-stabilization", "--nsv", "25"],
    })
    return module


def test_one_tree_twice_has_no_difference(tool, capsys):
    assert tool.main(["--src", SRC, "--src", SRC]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "same burgers-sine-pure-fails: exit status 1 vs 1" in out
    assert "same burgers-sine-pure-fails: error line" in out
    assert "same density-bump/density-bump_solution.csv" in out
    # A run that succeeds everywhere has no error line to compare.
    assert "same density-bump: error line" not in out
    assert out[-1] == "0 difference(s) over 2 runs and 2 checkouts"


def test_other_digits_differ(tool, capsys, tmp_path):
    # A tree that writes 16 significant digits instead of 17.
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "specvol" / "cli.py"
    text = cli.read_text()
    assert text.count('_FMT = "%.17g"') == 1
    cli.write_text(text.replace('_FMT = "%.17g"', '_FMT = "%.16g"'))
    assert tool.main(["--src", SRC, "--src", str(other)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "DIFFERS density-bump/density-bump_solution.csv" in out
    assert "same density-bump: exit status 0 vs 0" in out


def test_other_error_line_differs(tool, capsys, tmp_path):
    # A tree whose failure line names its time to 3 digits instead of 6; its
    # output files and exit status are the same.
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "specvol" / "cli.py"
    text = cli.read_text()
    assert text.count("t={error.time:.6g}") == 1
    cli.write_text(text.replace("t={error.time:.6g}", "t={error.time:.3g}"))
    assert tool.main(["--src", SRC, "--src", str(other)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "same burgers-sine-pure-fails: exit status 1 vs 1" in out
    at = out.index("DIFFERS burgers-sine-pure-fails: error line")
    assert out[at + 1 : at + 3] == [
        "  error kind=step-failure scenario=burgers-sine sv=4 cv=3 t=0.371785",
        "  error kind=step-failure scenario=burgers-sine sv=4 cv=3 t=0.372",
    ]
    assert "same burgers-sine-pure-fails/burgers-sine_solution.csv" in out
    assert out[-1] == "1 difference(s) over 2 runs and 2 checkouts"


def test_one_tree_is_rejected(tool):
    with pytest.raises(SystemExit) as info:
        tool.main(["--src", SRC])
    assert info.value.code == 2
