"""The benchmark's tracer still finds every attribute it wraps.

``perfbench/run.py::install`` replaces module attributes and system methods
by name (``timeint.interface_states``, ``Euler.flux_raw``, ...). A renamed or
deleted one makes every traced benchmark run fail with ``AttributeError``;
this test installs the traced hooks, restores them and checks that every
wrapped attribute is the original again.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports spans from there
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run, importlib.import_module("spans")


def test_traced_install_resolves_and_restores(perfbench):
    run, spans = perfbench
    patcher = spans.Patcher(spans.SpanLog())
    try:
        run.install(patcher, run.Round(traced=True))
        wrapped = list(patcher._saved)
    finally:
        patcher.restore()
    assert len(wrapped) > 20
    for owner, attr, original in wrapped:
        assert owner.__dict__.get(attr, spans._MISSING) is original, f"{owner}.{attr}"
    layers = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in wrapped}
    assert ("specvol.timeint", "interface_states") in layers
    assert ("Euler", "flux_raw") in layers and ("Burgers", "entropy_gradient_raw") in layers
