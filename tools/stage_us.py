#!/usr/bin/env python3
"""Microseconds per ``euler_adapted`` stage on a stage plan, printed as JSON.

    python3 tools/stage_us.py --src <checkout>/src [--repeat 15]
    python3 tools/stage_us.py --src <a>/src --ab <b>/src

Cases, all at k = 4: the builtin density bump at N = 20, 200, 2000 and 20000,
the builtin Sod tube at N = 200 and the builtin Burgers sine wave at
N = 20000, each with stabilization on and off. The Burgers cases are the only
scalar (m = 1) ones.
Each case sets the scenario up as ``specvol run`` does (``cli._setup``),
builds its t = 0 field, the stage plan ``integrate`` would build (which
holds the grid's operators) and the CFL step, then runs stages from that field for
``WARMUP_S`` seconds of wall time before anything is timed: OpenBLAS and
the allocator take many stages to settle at large N.

Without ``--ab`` every case runs in a Python process of its own, which
imports ``specvol`` from ``--src`` and times stages with ``timeit``. A
case's figure is the minimum over ``--repeat`` repeats of the mean time per
stage; each repeat runs the stage often enough to last about 50 ms. Beside
it goes the mean count of minor page faults per stage over all the timed
repeats (``ru_minflt`` of the process): a stage whose temporaries the
allocator maps afresh every call faults on each of their pages. The JSON
holds the figures under "stage_us" and the faults under "faults_per_stage",
both keyed "<scenario> N=<n> on" (or "off"), and the Python and numpy
versions and the core count.

With ``--ab`` one process imports both trees, ``--src`` as the package
``specvol_a`` and ``--ab`` as ``specvol_b``, and for each case alternates
``CHUNKS`` pairs of chunks between them, which side goes first
alternating too. Both trees must have the stage API this tool calls, in
which the plan holds the grid's operators (``euler_adapted(state, dt,
config, plan=...)``, ``select_dt(state, cfl)``); a tree from before that
API cannot be compared with one after it. A chunk is a fixed number of ``ssp_rk3_step`` calls from
the case's t = 0 field, about 50 ms of work; after every pair the two
states must agree bit for bit, or the tool stops with status 1. The JSON
holds, per case under "ab", the median of the per-chunk time ratios b / a,
the number of chunks b won, the chunk count, the steps per chunk and each
side's minor page faults per stage over its timed chunks. Faults depend on
what the process freed before: glibc raises its mmap threshold when it frees
a large block, after which arrays of that size come from the heap without
faulting. Both sides share one process, and a run of several cases carries
each case's history into the next, so compare faults of one ``--case`` run.
Interleaved chunks in one process see the same machine load, which
separate processes do not: on a 2-core machine two identical checkouts
differed by up to 14 % between processes, and by 2-3 % in chunks.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

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


def build_case(cli, timeint, name: str, n_sv: int, stab: bool):
    """(state, dt, config, plan) of one case, as ``integrate`` sets it up."""
    sc = replace(cli.BUILTIN_SCENARIOS[name], n_sv=n_sv, stabilization=stab)
    system, grid, u0, breakpoints, config = cli._setup(sc)
    state = timeint.init_field(u0, grid, system, breakpoints=breakpoints)
    plan = timeint._plan_for(state, config)
    dt = timeint.select_dt(state, config.cfl)
    return state, dt, config, plan


def warm_up(*calls) -> None:
    """Run the calls in turn until ``WARMUP_S`` seconds have passed."""
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        for call in calls:
            call()


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_case(name: str, n_sv: int, stab: bool, repeat: int):
    """(minimum mean µs per stage, minor faults per timed stage) of one case,
    in this process."""
    import timeit

    from specvol import cli, timeint

    state, dt, config, plan = build_case(cli, timeint, name, n_sv, stab)
    stage = lambda: timeint.euler_adapted(state, dt, config, plan=plan)
    warm_up(stage)
    timer = timeit.Timer(stage)
    once = min(timer.repeat(repeat=3, number=1))
    number = max(1, int(TARGET_S / max(once, 1e-9)))
    faults = minor_faults()
    best = min(timer.repeat(repeat=repeat, number=number))
    faults = (minor_faults() - faults) / (repeat * number)
    return best / number * 1e6, faults


def chunk_runner(cli, timeint, name: str, n_sv: int, stab: bool):
    """A function of ``steps`` that runs that many SSP-RK3 steps of one case
    from its t = 0 field and returns (seconds, minor faults, final averages)."""
    state, dt, config, plan = build_case(cli, timeint, name, n_sv, stab)

    def run(steps):
        current = state
        faults = minor_faults()
        t0 = time.perf_counter()
        for _ in range(steps):
            current, _ = timeint.ssp_rk3_step(current, dt, config, plan=plan)
        return time.perf_counter() - t0, minor_faults() - faults, current.data

    return run


def ab_case(trees, name: str, n_sv: int, stab: bool) -> dict:
    """Interleaved chunks of SSP-RK3 steps of trees a and b on one case."""
    runs = [chunk_runner(cli, timeint, name, n_sv, stab) for cli, timeint in trees]
    warm_up(*(lambda run=run: run(1) for run in runs))
    steps = max(1, int(TARGET_S / min(runs[0](1)[0] for _ in range(3))))
    ratios, faults = [], [0, 0]
    for c in range(CHUNKS):
        order = (0, 1) if c % 2 == 0 else (1, 0)
        results = {side: runs[side](steps) for side in order}
        if results[0][2].tobytes() != results[1][2].tobytes():
            raise SystemExit(f"error: {name} N={n_sv} states differ after chunk {c}")
        ratios.append(results[1][0] / results[0][0])
        for side in (0, 1):
            faults[side] += results[side][1]
    stages = 3 * steps * CHUNKS
    return {
        "median_ratio_b_over_a": round(statistics.median(ratios), 4),
        "b_wins": sum(r < 1.0 for r in ratios),
        "chunks": CHUNKS,
        "steps_per_chunk": steps,
        "faults_per_stage_a": round(faults[0] / stages, 2),
        "faults_per_stage_b": round(faults[1] / stages, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    parser.add_argument("--ab", help="the src directory of a second checkout to compare")
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--case", help="only this case, as <scenario>:<n>:<on|off>")
    args = parser.parse_args(argv)
    srcs = [os.path.abspath(s) for s in (args.src, args.ab) if s]
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "specvol", "__init__.py")):
            print(f"error: no specvol sources under {src}", file=sys.stderr)
            return 2
    if args.case and not args.ab:
        sys.path.insert(0, srcs[0])
        name, n_sv, stab = args.case.split(":")
        print(*time_case(name, int(n_sv), stab == "on", args.repeat))
        return 0

    cases = [(name, n_sv, stab) for name, n_sv in CASES for stab in ("on", "off")]
    if args.case:
        name, n_sv, stab = args.case.split(":")
        cases = [(name, int(n_sv), stab)]
    if args.ab:
        import numpy

        trees = [load_tree(src, f"specvol_{side}") for src, side in zip(srcs, "ab")]
        figures = {
            f"{name} N={n_sv} {stab}": ab_case(trees, name, n_sv, stab == "on")
            for name, n_sv, stab in cases
        }
        versions = [platform.python_version(), numpy.__version__]
        key, extra = "ab", {"a": srcs[0], "b": srcs[1]}
    else:
        figures, faults = {}, {}
        for name, n_sv, stab in cases:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--src", srcs[0],
                 "--repeat", str(args.repeat), "--case", f"{name}:{n_sv}:{stab}"],
                check=True, capture_output=True, text=True,
            ).stdout
            us, per_stage = map(float, out.split())
            figures[f"{name} N={n_sv} {stab}"] = round(us, 2)
            faults[f"{name} N={n_sv} {stab}"] = round(per_stage, 2)
        versions = subprocess.run(
            [sys.executable, "-c", "import numpy, platform; "
             "print(platform.python_version(), numpy.__version__)"],
            check=True, capture_output=True, text=True,
        ).stdout.split()
        key, extra = "stage_us", {"repeat": args.repeat, "faults_per_stage": faults}
    print(json.dumps({
        "python": versions[0],
        "numpy": versions[1],
        "cpus": os.cpu_count(),
        **extra,
        key: figures,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
