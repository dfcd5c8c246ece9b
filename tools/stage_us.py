#!/usr/bin/env python3
"""Microseconds and minor page faults per SSP-RK3 stage, in interleaved chunks, as JSON.

    python3 tools/stage_us.py --src <checkout>/src [--case <scenario>:<n>:<on|off>]
    python3 tools/stage_us.py --src <a>/src --src <b>/src [--case ...]

Cases, all at k = 4: the builtin density bump at N = 20, 200, 2000 and 20000,
the builtin Sod tube at N = 200 and the builtin Burgers sine wave at
N = 20000, each with stabilization on and off. The Burgers cases are the only
scalar (m = 1) ones. ``--case`` names one case, which may be any builtin of
every tree at any N >= 1; anything else is a usage error (status 2).

Without ``--case`` every case runs in a Python process of its own, this
script with that ``--case``, so no case inherits another's allocator state.
A case's process imports each ``--src`` tree as a package of its own and
sets the case up as ``specvol run`` does (``cli._setup``): its t = 0 field,
the stage plan ``integrate`` would build (which holds the grid's operators)
and the CFL step. It then runs steps of every tree in turn for ``WARMUP_S``
seconds of wall time, because OpenBLAS and the allocator take many stages to
settle at large N. A chunk is a fixed number of ``ssp_rk3_step`` calls from
the t = 0 field, about ``TARGET_S`` of work; ``CHUNKS`` chunks per tree run
alternately, which tree goes first alternating too, so every tree sees the
same machine load. On a 2-core machine two identical checkouts differed by up
to 14 % between processes, and by 2-3 % in chunks. With two trees the states
must agree bit for bit after every pair of chunks, or the tool stops with
status 1. Both trees need the stage API in which the plan holds the grid's
operators (``ssp_rk3_step(state, dt, config, plan=...)``, ``select_dt(state,
cfl)``) and is built as ``timeint._StagePlan(grid, system)``.

The JSON holds the Python and numpy versions, the core count, the trees, the
chunk count and, under "cases" keyed "<scenario> N=<n> on" (or "off"), the
steps per chunk and, per tree in ``--src`` order, the median µs per stage
over the chunks ("stage_us") and the minor page faults per stage over all
chunks ("faults_per_stage", ``ru_minflt`` of the process): a stage whose
temporaries the allocator maps afresh every call faults on each of their
pages. With two trees it also holds the median of the per-chunk time ratios
second / first ("median_ratio") and the number of chunks the second tree won
("wins"). Faults depend on what the process freed before: glibc raises its
mmap threshold when it frees a large block, after which arrays of that size
come from the heap without faulting, and the two trees of a case share one
process.

How a two-tree ratio gates a change: two trees that run the same operations
read a ``median_ratio`` anywhere from 0.9475 to 1.0535 on a shared 2-vCPU
host, so no fixed same-tree figure measured once is a bound. Run each case
in both tree orders (``--src A --src B`` and ``--src B --src A``) and,
right beside those runs, with one tree twice (``--src A --src A``). The
change is slower on a case only where both orders read it slower by more
than the largest deviation from 1 of those same-tree runs.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy

CASES = [("density-bump", n) for n in (20, 200, 2000, 20000)] + [
    ("sod", 200),
    ("burgers-sine", 20000),
]
TARGET_S = 0.05
WARMUP_S = 2.0
CHUNKS = 20


def load_tree(src: str, name: str):
    """The (cli, timeint) modules of the ``specvol`` package under ``src``,
    imported as the package ``name``."""
    pkg_dir = os.path.join(src, "specvol")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.timeint")


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def chunk_runner(cli, timeint, name: str, n_sv: int, stab: bool):
    """A function of ``steps`` that runs that many SSP-RK3 steps of one case
    from its t = 0 field, as ``integrate`` sets it up, and returns (seconds,
    minor faults, final averages)."""
    sc = replace(cli.BUILTIN_SCENARIOS[name], n_sv=n_sv, stabilization=stab)
    system, grid, u0, breakpoints, config = cli._setup(sc)
    state = timeint.init_field(u0, grid, system, breakpoints=breakpoints)
    plan = timeint._StagePlan(state.grid, state.system)
    dt = timeint.select_dt(state, config.cfl)

    def run(steps):
        current = state
        faults = minor_faults()
        t0 = time.perf_counter()
        for _ in range(steps):
            current, _ = timeint.ssp_rk3_step(current, dt, config, plan=plan)
        return time.perf_counter() - t0, minor_faults() - faults, current.data

    return run


def parse_case(parser, text: str, trees):
    """(scenario, N, "on" or "off") of a ``--case`` that names a builtin of
    every tree; anything but <builtin>:<positive integer>:<on|off> is a usage error."""
    match = re.fullmatch(r"(.+):([1-9][0-9]*):(on|off)", text)
    if match is None or any(match[1] not in cli.BUILTIN_SCENARIOS for cli, _ in trees):
        parser.error(f"--case must be <builtin>:<positive integer>:<on|off>, got {text!r}")
    return match[1], int(match[2]), match[3]


def measure_case(trees, name: str, n_sv: int, stab: bool) -> dict:
    """Interleaved chunks of every tree's (cli, timeint) on one case, in this process."""
    runs = [chunk_runner(cli, timeint, name, n_sv, stab) for cli, timeint in trees]
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        for run in runs:
            run(1)
    steps = max(1, int(TARGET_S / min(runs[0](1)[0] for _ in range(3))))
    seconds = [[] for _ in runs]
    faults = [0] * len(runs)
    for c in range(CHUNKS):
        states = {}
        for i in range(len(runs)) if c % 2 == 0 else reversed(range(len(runs))):
            chunk_s, chunk_faults, states[i] = runs[i](steps)
            seconds[i].append(chunk_s)
            faults[i] += chunk_faults
        if len(states) == 2 and states[0].tobytes() != states[1].tobytes():
            raise SystemExit(f"error: {name} N={n_sv} states differ after chunk {c}")
    stages = 3 * steps
    figures = {
        "steps_per_chunk": steps,
        "stage_us": [round(statistics.median(s) / stages * 1e6, 2) for s in seconds],
        "faults_per_stage": [round(f / (stages * CHUNKS), 2) for f in faults],
    }
    if len(runs) == 2:
        ratios = [b / a for a, b in zip(*seconds)]
        figures["median_ratio"] = round(statistics.median(ratios), 4)
        figures["wins"] = sum(r < 1.0 for r in ratios)
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="the src directory of a checkout; give it once or twice")
    parser.add_argument("--case", help="only this case, as <scenario>:<n>:<on|off>")
    args = parser.parse_args(argv)
    srcs = [os.path.abspath(s) for s in args.src]
    if len(srcs) > 2:
        parser.error("give --src once or twice")
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "specvol", "__init__.py")):
            print(f"error: no specvol sources under {src}", file=sys.stderr)
            return 2

    if args.case:
        trees = [load_tree(src, f"specvol_{i}") for i, src in enumerate(srcs)]
        name, n_sv, stab = parse_case(parser, args.case, trees)
        figures = {f"{name} N={n_sv} {stab}": measure_case(trees, name, n_sv, stab == "on")}
        print(json.dumps({
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
            "src": srcs,
            "chunks": CHUNKS,
            "cases": figures,
        }, indent=1))
        return 0

    out = None
    for name, n_sv in CASES:
        for stab in ("on", "off"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 *(arg for src in srcs for arg in ("--src", src)),
                 "--case", f"{name}:{n_sv}:{stab}"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            case = json.loads(proc.stdout)
            if out is None:
                out = case
            else:
                out["cases"].update(case["cases"])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
