#!/usr/bin/env python3
"""specvol benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload sod-ref --seed 0 --seconds 30 --trace 0

Runs whole rounds of one workload (see workloads.py) until --seconds have
passed, checks every round's outputs and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the rounds.
With --trace 1 rounds alternate between untraced and traced; the traced ones
wrap the calls into each specvol module (spans.py) and give the per-layer
metrics, the untraced ones give the tracing overhead and page-fault counts.
The program is imported from ./src of the checkout the script sits in; the
benchmark writes only below ./.perfbench_out of that checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_LAYERS = (
    "mesh.build_grid",
    "timeint.init_field",
    "reconstruction.build_reconstruction",
    "filters.build_generator",
)
OPERATOR_LAYERS = ("reconstruction.build_reconstruction", "filters.build_generator")
STAGE_LAYERS = (
    "reconstruction.reconstruct_all",
    "filters.apply_generator",
    "systems.flux_raw",
    "systems.max_signal_speed_raw",
    "systems.entropy_raw",
    "systems.entropy_flux_raw",
    "systems.entropy_gradient_raw",
    "systems.admissible",
    "systems.check_admissible",
    "riemann.interface_states",
    "riemann.sigma",
    "stabilization.compute_correction",
    "stabilization.corrected_rhs",
)
SYSTEM_METHODS = (
    "flux_raw",
    "max_signal_speed_raw",
    "entropy_raw",
    "entropy_flux_raw",
    "entropy_gradient_raw",
    "admissible",
    "check_admissible",
)
STAGE_TOLERANCE = 0.03  # per-layer self times must cover the traced stage this closely


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Round:
    """Spans, solver results and correction reports of one round."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.solves = []  # (degrees of freedom, CVs per SV, steps) per integrate call
        self.reports = []  # every CorrectionReport of the round
        self.wall_ns = 0
        self.span_range = (0, 0)
        self.outputs = None
        self.error = None


def install(patcher, rnd: Round):
    """Wrap the phase-level calls always, and the stage-level calls when traced."""
    from specvol import cli, mesh, reference, systems, timeint

    def on_integrate(result):
        final, diag = result
        rnd.solves.append((final.data.size, final.grid.num_cv, diag.steps))

    w = patcher.wrap
    w(cli, "main", "cli.main")
    for owner in (cli, mesh):
        w(owner, "build_grid", "mesh.build_grid")
    for owner in (cli, timeint):
        w(owner, "init_field", "timeint.init_field")
        w(owner, "integrate", "timeint.integrate", observe=on_integrate, count_faults=True)
    w(timeint, "build_reconstruction", "reconstruction.build_reconstruction")
    w(timeint, "build_generator", "filters.build_generator")
    w(cli, "lax_friedrichs_solver", "reference.lax_friedrichs_solver")
    w(reference, "error_norms", "reference.error_norms")
    w(cli, "_write_solution_csv", "cli.write_solution")
    w(cli, "_write_csv", "cli.write_csv")
    if not rnd.traced:
        return
    w(timeint, "ssp_rk3_step", "timeint.ssp_rk3_step")
    w(timeint, "euler_adapted", "timeint.euler_adapted")
    w(timeint, "reconstruct_all", "reconstruction.reconstruct_all")
    w(timeint, "apply_generator", "filters.apply_generator")
    w(timeint, "interface_states", "riemann.interface_states")
    w(timeint, "_sigma_from_parts", "riemann.sigma")
    w(timeint, "compute_correction", "stabilization.compute_correction",
      observe=rnd.reports.append)
    w(timeint, "corrected_rhs", "stabilization.corrected_rhs")
    for cls in (systems.Euler, systems.Burgers):
        for method in SYSTEM_METHODS:
            w(cls, method, f"systems.{method}")


def run_round(workload, log, traced: bool) -> Round:
    from spans import Patcher
    from specvol.exceptions import InadmissibleStateError, StepFailureError
    from workloads import OperationFailed

    rnd = Round(traced)
    patcher = Patcher(log)
    lo = len(log)
    install(patcher, rnd)
    start = time.perf_counter_ns()
    try:
        rnd.outputs = workload.run_round()
    except (OperationFailed, StepFailureError, InadmissibleStateError) as exc:
        rnd.error = f"{type(exc).__name__}: {exc}"
    finally:
        rnd.wall_ns = time.perf_counter_ns() - start
        patcher.restore()
    rnd.span_range = (lo, len(log))
    return rnd


def _leaves(obj):
    """Numpy arrays and numbers inside a round's outputs, in a fixed order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    elif isinstance(obj, (np.ndarray, float, int)):
        yield np.asarray(obj)


def same_outputs(a, b) -> bool:
    """Bitwise equality of every array and number in two rounds' outputs."""
    left, right = list(_leaves(a)), list(_leaves(b))
    return len(left) == len(right) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(left, right)
    )


def phase_times(log, rnd: Round):
    """(setup_s, solve_s) of one round from its phase spans."""
    from spans import layer_table

    table = layer_table(log, *rnd.span_range)
    total = lambda name: table.get(name, (0, 0, 0))[1]
    setup = sum(total(name) for name in SETUP_LAYERS)
    solve = total("timeint.integrate") - sum(total(name) for name in OPERATOR_LAYERS)
    return setup * 1e-9, solve * 1e-9


def minor_faults_per_step(log, rnd: Round):
    lo, hi = rnd.span_range
    faults = sum(f for idx, f in log.minor_faults if lo <= idx < hi)
    steps = sum(steps for _, _, steps in rnd.solves)
    return faults / steps


def end_to_end(log, rounds):
    setup, solve, rate = [], [], []
    for rnd in rounds:
        s, v = phase_times(log, rnd)
        setup.append(s)
        solve.append(v)
        rate.append(sum(3 * dofs * steps for dofs, _, steps in rnd.solves) / v)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(r.wall_ns for r in rounds) * 1e-9, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.median(solve), "s"),
        "dof_stages_per_s": (statistics.median(rate), "1/s"),
        "peak_rss_mib": (peak, "MiB"),
    }


def per_layer(log, traced, untraced):
    """Per-layer metrics: timings are medians over the traced rounds."""
    from spans import layer_table

    samples = {}

    def add(name, value, unit):
        samples.setdefault(name, ([], unit))[0].append(value)

    for rnd in traced:
        lo, hi = rnd.span_range
        table = layer_table(log, lo, hi)
        stage_table = layer_table(log, lo, hi, under="timeint.euler_adapted")
        under_writer = layer_table(log, lo, hi, under="cli.write_solution")
        get = lambda tbl, name: tbl.get(name, (0, 0, 0))
        stages = get(table, "timeint.euler_adapted")[0]
        steps = get(table, "timeint.ssp_rk3_step")[0]
        add("timeint.steps", steps, "count")
        add("timeint.stages", stages, "count")
        stage_ns = get(table, "timeint.euler_adapted")[1]
        add("timeint.stage_us", stage_ns / stages * 1e-3, "us")
        covered = get(stage_table, "timeint.euler_adapted")[2]
        for name in STAGE_LAYERS:
            calls, _, own = get(stage_table, name)
            covered += own
            add(f"{name}.self_us_per_stage", own / stages * 1e-3, "us")
            add(f"{name}.calls_per_stage", calls / stages, "count")
        add("timeint.euler_adapted.self_us_per_stage",
            get(stage_table, "timeint.euler_adapted")[2] / stages * 1e-3, "us")
        add("trace.stage_coverage", covered / stage_ns, "ratio")
        # Bytes a call moves, computed from the array sizes, not measured:
        # reconstruct_all reads k averages and writes k+1 traces per SV,
        # apply_generator reads and writes k values (float64).
        recon_bytes = sum(3 * steps * 8 * dofs * (2 * k + 1) / k for dofs, k, steps in rnd.solves)
        gen_bytes = sum(3 * steps * 8 * dofs * 2 for dofs, _, steps in rnd.solves)
        for name, per_call in (("reconstruction.reconstruct_all", recon_bytes),
                               ("filters.apply_generator", gen_bytes)):
            calls = get(stage_table, name)[0]
            add(f"{name}.bytes_per_stage", per_call / stages * calls / stages, "B")
        add("timeint.ssp_rk3_step.self_us_per_step",
            get(table, "timeint.ssp_rk3_step")[2] / steps * 1e-3, "us")
        add("timeint.integrate.self_s", get(table, "timeint.integrate")[2] * 1e-9, "s")
        for name in SETUP_LAYERS + ("reference.lax_friedrichs_solver", "reference.error_norms"):
            add(f"{name}.s", get(table, name)[1] * 1e-9, "s")
        write_ns = (get(table, "cli.write_solution")[1] + get(table, "cli.write_csv")[1]
                    - get(under_writer, "cli.write_csv")[1])
        add("cli.write_s", write_ns * 1e-9, "s")
        add("cli.main.self_s", get(table, "cli.main")[2] * 1e-9, "s")
        reports = rnd.reports
        n_sv = sum(r.num_sv for r in reports)
        add("stabilization.active_frac",
            sum(int((r.lambda_final > 0.0).sum()) for r in reports) / n_sv if n_sv else 0.0,
            "ratio")
        add("stabilization.clamped_frac",
            sum(int(r.clamped.sum()) for r in reports) / n_sv if n_sv else 0.0, "ratio")
        add("stabilization.dropped_demands", sum(r.dropped_demands for r in reports), "count")
        add("stabilization.den_fallbacks", sum(r.den_fallbacks for r in reports), "count")
        add("riemann.sigma_fallbacks", sum(r.sigma_fallbacks for r in reports), "count")

    untraced_solve = statistics.median(phase_times(log, r)[1] for r in untraced)
    traced_solve = statistics.median(phase_times(log, r)[1] for r in traced)
    add("trace.overhead_s", traced_solve - untraced_solve, "s")
    add("process.minflt_per_step",
        statistics.median(minor_faults_per_step(log, r) for r in untraced), "count")
    return {name: (statistics.median(values), unit) for name, (values, unit) in samples.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specvol" / "__init__.py").is_file():
        print(f"error: no specvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import SpanLog
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        log = SpanLog()
        rounds, checks, failures = [], None, []
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rnd = run_round(workload, log, traced)
            rounds.append(rnd)
            if rnd.outputs is not None:
                first = next(r for r in rounds if r.outputs is not None)
                if rnd is first:
                    checks, failures = workload.check(rnd.outputs)
                elif not same_outputs(first.outputs, rnd.outputs):
                    failures.append(f"round {len(rounds)} differs bitwise from the first")
                if rnd is not first:
                    rnd.outputs = None  # keep one copy; later rounds matched it
            # A unit is one round, or an untraced and a traced round. Stop at
            # the unit boundary nearest to --seconds.
            per_unit = 2 if args.trace else 1
            if len(rounds) % per_unit == 0:
                elapsed = time.perf_counter() - begin
                unit = elapsed / (len(rounds) // per_unit)
                if elapsed + 0.5 * unit >= args.seconds:
                    break

        ok_rounds = [r for r in rounds if r.error is None]
        attempted = workload.ops_per_round * len(rounds)
        failed = workload.ops_per_round * (len(rounds) - len(ok_rounds))
        traced = [r for r in ok_rounds if r.traced]
        untraced = [r for r in ok_rounds if not r.traced]
        metrics = {}
        if args.trace and traced and untraced:
            metrics = per_layer(log, traced, untraced)
            coverage = metrics["trace.stage_coverage"][0]
            if abs(coverage - 1.0) > STAGE_TOLERANCE:
                failures.append(f"per-layer self times cover {coverage:.4f} of the stage")
            log.save(OUT / f"spans_{args.workload}_seed{args.seed}.npz")
        elif not args.trace and ok_rounds:
            metrics = end_to_end(log, ok_rounds)
        result = {
            "correct": not failures and checks is not None,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      rounds=len(rounds), checks=checks, failures=failures,
                      errors=[r.error for r in rounds if r.error],
                      wall_s=[r.wall_ns * 1e-9 for r in rounds],
                      phases_s=[phase_times(log, r) for r in ok_rounds],
                      python=sys.version.split()[0], cpus=os.cpu_count())
        name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(detail, indent=1, default=float) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
