#!/usr/bin/env python3
"""Microseconds per ``euler_adapted`` stage on a stage plan, printed as JSON.

    python3 tools/stage_us.py --src <checkout>/src [--repeat 15]

Cases, all at k = 4: the builtin density bump at N = 20, 200, 2000 and 20000
and the builtin Sod tube at N = 200, each with stabilization on and off.
Every case runs in a Python process of its own, which imports ``specvol``
from ``--src``, builds the scenario's t = 0 field, one stage plan and the
CFL step, and times stages from that field on that plan with ``timeit``.
A case's figure is the minimum over ``--repeat`` repeats of the mean time
per stage; each repeat runs the stage often enough to last about 50 ms.

The JSON holds the figures under "stage_us", keyed "<scenario> N=<n> on"
(or "off"), and the Python and numpy versions and the core count of the
machine. Give ``--src`` the ``src`` directory of each checkout to compare
two versions on one machine.
"""

import argparse
import json
import os
import subprocess
import sys

CASES = [("density-bump", n) for n in (20, 200, 2000, 20000)] + [("sod", 200)]
TARGET_S = 0.05


def time_case(name: str, n_sv: int, stab: bool, repeat: int) -> float:
    """Minimum mean µs per stage of one case, in this process."""
    import timeit

    import numpy as np

    from specvol import timeint
    from specvol.cli import BUILTIN_SCENARIOS
    from specvol.filters import build_generator
    from specvol.mesh import build_grid
    from specvol.reconstruction import build_reconstruction
    from specvol.riemann import FixedBC, PeriodicBC

    sc = BUILTIN_SCENARIOS[name]
    u0, breakpoints = sc.initial_condition()
    grid = build_grid(sc.a, sc.b, n_sv, sc.n_cv)
    state = timeint.init_field(u0, grid, sc.build_system(), breakpoints=breakpoints)
    if sc.bc == "periodic":
        bc = PeriodicBC()
    else:
        left, right = (np.asarray(u0(x), dtype=float) for x in (sc.a, sc.b))
        bc = FixedBC(left=left, right=right)
    config = timeint.SolverConfig(t_end=sc.t_end, cfl=sc.cfl, bc=bc, stabilization_enabled=stab)
    op, gen = build_reconstruction(grid), build_generator(grid.cv_widths)
    try:
        plan = timeint._StagePlan(grid, state.system, bc, stab)
    except TypeError:  # a checkout whose plans are always stabilized
        plan = timeint._StagePlan(grid, state.system, bc)
    dt = timeint.select_dt(grid, state, state.system, config.cfl)
    timer = timeit.Timer(lambda: timeint.euler_adapted(state, dt, op, gen, config, plan=plan))
    once = min(timer.repeat(repeat=3, number=1))
    number = max(1, int(TARGET_S / max(once, 1e-9)))
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--case", help=argparse.SUPPRESS)  # "<scenario>:<n>:<on|off>"
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "specvol", "__init__.py")):
        print(f"error: no specvol sources under {src}", file=sys.stderr)
        return 2
    if args.case:
        sys.path.insert(0, src)
        name, n_sv, stab = args.case.split(":")
        print(time_case(name, int(n_sv), stab == "on", args.repeat))
        return 0

    figures = {}
    for name, n_sv in CASES:
        for stab in ("on", "off"):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--src", src,
                 "--repeat", str(args.repeat), "--case", f"{name}:{n_sv}:{stab}"],
                check=True, capture_output=True, text=True,
            ).stdout
            figures[f"{name} N={n_sv} {stab}"] = round(float(out), 2)
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, platform; "
         "print(platform.python_version(), numpy.__version__)"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    print(json.dumps({
        "python": versions[0],
        "numpy": versions[1],
        "cpus": os.cpu_count(),
        "repeat": args.repeat,
        "stage_us": figures,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
