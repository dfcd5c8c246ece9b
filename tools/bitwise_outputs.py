#!/usr/bin/env python3
"""Compare the output files of ``specvol`` runs between checkouts, byte for byte.

    python3 tools/bitwise_outputs.py --src <parent>/src --src <change>/src

For each ``--src`` (the ``src`` directory of a checkout) the script runs,
each in a Python process of its own that imports ``specvol`` from there and
writes only into a fresh temporary directory:

* the six builtin scenarios, with sod and lax at ``--ref-cells 3000``;
* ``burgers-sine --no-stabilization --nsv 50``;
* ``sod --no-stabilization --t-end 0.5``: the pure Euler stage;
* ``burgers-sine --nsv 1``, stabilized and pure: a one-SV field, whose
  per-SV products numpy runs as matrix-vector kernels;
* ``burgers-sine --no-stabilization --nsv 25``, a run that fails with
  ``error kind=step-failure`` and exit status 1: the outputs of a failed
  run, the solution and L2 files of its last admissible state;
* ``lax --no-stabilization``, a run that fails with ``error
  kind=step-failure`` on an inadmissible boundary trace (``sv=100
  trace=0``) and exit status 1, and writes the same two files;
* ``convergence density-bump --nsv-list 8,10,12 --t-end 2``;
* ``convergence advect-rect --nsv-list 7,9,11 --t-end 0.5``, an advection
  study that completes: its exact solution, and grids on which the
  rectangle's jumps at 0.25 and 0.75 fall inside CVs;
* ``convergence advect-rect --ncv 8 --no-stabilization --nsv-list 8 --cfl 1
  --t-end 340``, a study whose solve fails (``n_sv=8 sv=3 cv=1``): one
  ``error kind=step-failure`` line, exit status 1 and no table;
* ``burgers-sine --cfl 1e-320``, whose time step underflows: one ``error
  kind=bad-config`` line, exit status 2 and no output file;
* ``sod --nsv 40 --cfl 0.95``, a stabilized run that fails with ``error
  kind=step-failure`` on an inadmissible boundary trace (``sv=19
  trace=4``) and exit status 1;
* the same run with ``--ref-cells 3000``: the failed solve kills its
  reference child, and the run writes no reference file;
* ``run euler-correction-overflows.ini``, a config written into each
  checkout's run directory: Sod's data with ``gamma = 1e300`` on 40 SVs to
  ``t_end = 1e-160``, whose entropy production overflows, so the correction
  sizes are NaN. It ends in ``error kind=step-failure`` (``sv=0 cv=0``) and
  exit status 1, and writes the solution and L2 files.

That makes 19 runs. It then prints one line per run, comparing the exit
statuses; for a run that exits with a non-zero status in any checkout, one
comparing the last line of stderr, the ``error kind=...`` line; and one per
output file, saying whether every checkout wrote the same bytes. It exits
with status 1 on any difference, 0 when all agree.
The runs take about 30 s per checkout on a 2-core machine.
"""

import argparse
import os
import subprocess
import sys
import tempfile

RUNS = {
    "advect-rect": ["run", "advect-rect"],
    "burgers-sine": ["run", "burgers-sine"],
    "burgers-rarefaction": ["run", "burgers-rarefaction"],
    "sod": ["run", "sod", "--ref-cells", "3000"],
    "lax": ["run", "lax", "--ref-cells", "3000"],
    "density-bump": ["run", "density-bump"],
    "burgers-sine-pure": ["run", "burgers-sine", "--no-stabilization", "--nsv", "50"],
    "sod-pure": ["run", "sod", "--no-stabilization", "--t-end", "0.5"],
    "burgers-sine-one-sv": ["run", "burgers-sine", "--nsv", "1"],
    "burgers-sine-one-sv-pure": ["run", "burgers-sine", "--no-stabilization", "--nsv", "1"],
    "burgers-sine-pure-fails": ["run", "burgers-sine", "--no-stabilization", "--nsv", "25"],
    "lax-pure-fails": ["run", "lax", "--no-stabilization"],
    "density-bump-convergence": ["convergence", "density-bump", "--nsv-list", "8,10,12",
                                 "--t-end", "2"],
    "advect-rect-convergence": ["convergence", "advect-rect", "--nsv-list", "7,9,11",
                                "--t-end", "0.5"],
    "advect-rect-pure-convergence-fails": ["convergence", "advect-rect", "--ncv", "8",
                                           "--no-stabilization", "--nsv-list", "8",
                                           "--cfl", "1", "--t-end", "340"],
    "burgers-sine-dt-underflows": ["run", "burgers-sine", "--cfl", "1e-320"],
    "sod-trace-fails": ["run", "sod", "--nsv", "40", "--cfl", "0.95"],
    "sod-trace-fails-with-reference": ["run", "sod", "--nsv", "40", "--cfl", "0.95",
                                       "--ref-cells", "3000"],
    "euler-correction-overflows": ["run", "euler-correction-overflows.ini"],
}
OVERFLOW_CONFIG = """[scenario]
system = euler
initial = sod
a = 0
b = 10
n_sv = 40
n_cv = 4
bc = fixed
t_end = 1e-160
gamma = 1e300
"""


def run_all(src: str, out_root: str):
    """{run: (exit status, last line of stderr, {file name: bytes})} of every
    run against ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SPECVOL_OUT_DIR", None)
    with open(os.path.join(out_root, "euler-correction-overflows.ini"), "w") as fh:
        fh.write(OVERFLOW_CONFIG)
    results = {}
    for label, argv in RUNS.items():
        # Not in the working directory: a directory there named like a
        # builtin would be read as a config path by some versions.
        out_dir = os.path.join(out_root, "out", label)
        proc = subprocess.run(
            [sys.executable, "-m", "specvol.cli", *argv, "--out-dir", out_dir],
            env=env, cwd=out_root, capture_output=True, text=True,
        )
        files = {}
        if os.path.isdir(out_dir):
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files[name] = fh.read()
        error_line = (proc.stderr.splitlines() or [""])[-1]
        results[label] = (proc.returncode, error_line, files)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="the src directory of a checkout; give it two or more times")
    args = parser.parse_args(argv)
    srcs = [os.path.abspath(s) for s in args.src]
    if len(srcs) < 2:
        parser.error("give --src at least twice")
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "specvol", "__init__.py")):
            print(f"error: no specvol sources under {src}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="specvol-bitwise-") as tmp:
        results = []
        for i, src in enumerate(srcs):
            root = os.path.join(tmp, str(i))
            os.makedirs(root)
            results.append(run_all(src, root))

    differ = 0
    for label in RUNS:
        codes = [r[label][0] for r in results]
        same = len(set(codes)) == 1
        differ += not same
        print(f"{'same' if same else 'DIFFERS'} {label}: exit status "
              f"{' vs '.join(map(str, codes))}")
        if any(codes):
            lines = [r[label][1] for r in results]
            same = len(set(lines)) == 1
            differ += not same
            print(f"{'same' if same else 'DIFFERS'} {label}: error line")
            if not same:
                for line in lines:
                    print(f"  {line}")
        names = sorted(set().union(*(r[label][2] for r in results)))
        for name in names:
            contents = [r[label][2].get(name) for r in results]
            if None in contents:
                state = "MISSING"
            elif all(c == contents[0] for c in contents):
                state = "same"
            else:
                state = "DIFFERS"
            differ += state != "same"
            print(f"{state} {label}/{name}")
    print(f"{differ} difference(s) over {len(RUNS)} runs and {len(srcs)} checkouts")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
