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
  kind=state-error`` (an inadmissible boundary trace) and exit status 1,
  and writes the same two files;
* ``convergence density-bump --nsv-list 8,10,12 --t-end 2``.

That makes 13 runs. It then prints one line per run, comparing the exit
statuses, and one per output file, saying whether every checkout wrote the
same bytes, and exits with status 1 on any difference, 0 when all agree.
The runs take about 25 s per checkout on a 2-core machine.
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
}


def run_all(src: str, out_root: str):
    """{run: (exit status, {file name: bytes})} of every run against ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SPECVOL_OUT_DIR", None)
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
        results[label] = (proc.returncode, files)
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
        names = sorted(set().union(*(r[label][1] for r in results)))
        for name in names:
            contents = [r[label][1].get(name) for r in results]
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
