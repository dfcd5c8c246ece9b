"""Scenario runner and command-line entry point.

Builtin scenarios cover the classic experiment set (advected rectangle,
Burgers sine and rarefaction step, Sod and Lax shock tubes, the smooth Euler
density bump for convergence studies); each can also be described in an INI
config file. Outputs are plot-ready CSV files written with 17 significant
digits so they parse back to the exact in-memory values.

``run_scenario(..., ref_cells=R)`` computes the fine Lax-Friedrichs
reference in a ``multiprocessing`` child started with "fork" once the field
is set up, while the parent solves. It needs a POSIX system: the initial
condition is a closure, which the other start methods would have to pickle.
The reference depends on nothing the solve makes, so on a machine with a
second core it runs beside the solve. It is not free there: on a shared
2-vCPU host, over 9 interleaved pairs, ``specvol run sod`` solved in
3.04-4.02 s alone and in 3.04-5.06 s beside the 10000-cell child (the
reference alone takes 1.56-1.74 s), the pairs differing by -0.73 to
+1.43 s. The trace operator and the filter generator are built into their
per-process caches before the fork, so ``integrate``'s stage plan only looks
them up. The child sends the ``ReferenceSolution`` back through a one-way
``Pipe``, or the type, message and ``where`` of the exception it raised,
which the run records as an ``error kind=reference-failure`` line. A failed
solve, or anything that raises in the parent, kills and reaps the child.
"""

import argparse
import configparser
import io
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .exceptions import DegenerateSpeedError, StepFailureError
from .mesh import build_grid
from .reference import (
    MIN_CELLS,
    ReferenceSolution,
    error_norms,
    exact_advection,
    exact_euler_density_bump,
    lax_friedrichs_solver,
    observed_order,
)
from .riemann import FixedBC, PeriodicBC
from .systems import advection_system, burgers_system, euler_system, primitive_to_conserved
from . import timeint
from .timeint import SolverConfig, init_field, integrate

__all__ = ["Scenario", "ScenarioError", "BUILTIN_SCENARIOS", "list_scenarios",
           "load_scenario", "run_scenario", "run_convergence", "main"]

OUT_DIR_ENV = "SPECVOL_OUT_DIR"

_FMT = "%.17g"


def _shock_tube(left, right, gamma: float):
    """(u0, breakpoints) of a shock tube: primitive ``left`` for x < 5, ``right`` beyond.

    A scalar position gives a 3-vector, an (n,) array of positions (n, 3).
    """
    diaphragm = 5.0

    def u0(x):
        below = np.asarray(x) < diaphragm
        return np.where(
            below[..., None],
            primitive_to_conserved(*left, gamma),
            primitive_to_conserved(*right, gamma),
        )

    return u0, (diaphragm,)


class ScenarioError(ValueError):
    """A scenario that cannot run as asked, found before any solve.

    A bad system, initial or boundary condition, grid, solver setting or
    reference size, an output directory that cannot be made, or a
    convergence study of a scenario without an exact solution has ``kind``
    "bad-config"; a name that is neither a builtin nor a config file has
    ``kind`` "unknown-scenario".
    """

    def __init__(self, message, kind="bad-config"):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Scenario:
    name: str
    system: str  # advection | burgers | euler
    initial: str  # key into the initial-condition registry
    a: float
    b: float
    n_sv: int
    n_cv: int
    bc: str  # periodic | fixed
    t_end: float
    cfl: float = 0.1
    stabilization: bool = True
    velocity: float = 1.0  # advection only
    gamma: float = 1.4  # euler only
    diagnostics_every: int = 10

    def build_system(self):
        if self.system == "advection":
            return advection_system(self.velocity)
        if self.system == "burgers":
            return burgers_system()
        if self.system == "euler":
            return euler_system(self.gamma)
        raise ValueError(f"unknown system {self.system!r}")

    def initial_condition(self):
        """(u0 callable, jump locations) for this scenario."""
        gamma = self.gamma
        table = {
            "rectangle": (
                lambda x: np.where((0.25 <= x) & (x <= 0.75), 1.0, 0.0),
                (0.25, 0.75),
            ),
            "sine": (lambda x: np.sin(np.pi * x), ()),
            "step": (lambda x: np.where(x <= 1.0, -1.0, 1.0), (1.0,)),
            "sod": _shock_tube((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), gamma),
            "lax": _shock_tube((0.445, 0.698, 3.528), (0.5, 0.0, 0.571), gamma),
            "density-bump": (
                lambda x: primitive_to_conserved(*exact_euler_density_bump(0.0, x), gamma),
                (),
            ),
        }
        if self.initial not in table:
            raise ValueError(f"unknown initial condition {self.initial!r}")
        return table[self.initial]

    def to_config_text(self) -> str:
        """The INI text ``load_scenario`` reads back into this scenario, every field once."""
        text = {str: str, int: str, float: lambda v: _FMT % v, bool: lambda v: str(v).lower()}
        cp = configparser.ConfigParser()
        cp["scenario"] = {f.name: text[f.type](getattr(self, f.name)) for f in fields(Scenario)}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


BUILTIN_SCENARIOS = {
    s.name: s
    for s in [
        Scenario("advect-rect", "advection", "rectangle", 0.0, 1.0, 60, 4, "periodic", 1.0),
        Scenario("burgers-sine", "burgers", "sine", 0.0, 2.0, 200, 4, "periodic", 0.5),
        Scenario("burgers-rarefaction", "burgers", "step", 0.0, 2.0, 200, 4, "fixed", 0.5),
        Scenario("sod", "euler", "sod", 0.0, 10.0, 200, 4, "fixed", 2.0),
        Scenario("lax", "euler", "lax", 0.0, 10.0, 200, 4, "fixed", 2.0),
        Scenario("density-bump", "euler", "density-bump", 0.0, 10.0, 20, 4, "periodic", 10.0),
    ]
}


def list_scenarios():
    return sorted(BUILTIN_SCENARIOS)


def load_scenario(path: str) -> Scenario:
    """The ``[scenario]`` section of the INI file ``path``; ``bc`` defaults to periodic.

    Raises ``FileNotFoundError`` for a file it cannot read, and a
    ``ScenarioError`` naming the file (and the key) for one that does not parse,
    lacks the section or a required key, or holds an unknown key or a value of
    the wrong type.
    """
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise FileNotFoundError(f"cannot read config {path!r}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).split())  # one line
        raise ScenarioError(f"config {path!r} does not parse: {message}") from exc
    if not cp.has_section("scenario"):
        raise ScenarioError(f"config {path!r} has no [scenario] section")
    sec = cp["scenario"]
    unknown = sorted(set(sec) - {f.name for f in fields(Scenario)})
    if unknown:  # a misspelt or retired setting would be ignored
        raise ScenarioError(f"config {path!r} has unknown keys {unknown}")
    getters = {str: sec.get, float: sec.getfloat, int: sec.getint, bool: sec.getboolean}
    values = {"name": os.path.splitext(os.path.basename(path))[0], "bc": "periodic"}
    for f in fields(Scenario):
        if f.name in sec:
            try:
                values[f.name] = getters[f.type](f.name)
            except (ValueError, configparser.Error) as exc:
                raise ScenarioError(f"config {path!r} key {f.name!r}: {exc}") from exc
        elif f.default is MISSING and f.name not in values:
            raise ScenarioError(f"config {path!r} has no key {f.name!r}")
    return Scenario(**values)


def _component_names(system):
    return ["rho", "momentum", "energy"] if system.m == 3 else ["u"]


def _boundary_condition(scenario: Scenario, u0):
    if scenario.bc == "periodic":
        return PeriodicBC()
    if scenario.bc == "fixed":
        left = np.reshape(np.asarray(u0(scenario.a), dtype=float), (-1,))
        right = np.reshape(np.asarray(u0(scenario.b), dtype=float), (-1,))
        return FixedBC(left=left, right=right)
    raise ValueError(f"unknown boundary condition {scenario.bc!r}")


def _setup(scenario: Scenario, ref_cells: int = 0):
    """(system, grid, u0, breakpoints, config) of a run, checked before any solve.

    Raises ``ScenarioError`` when the scenario's name is not a plain file
    name (the output files are named after it), when it names an unknown
    system, initial condition or boundary condition, an initial condition
    with another number of components than the system's, when the grid or
    the ``SolverConfig`` rejects its values, or when ``ref_cells`` is
    neither 0 nor at least ``MIN_CELLS``.
    """
    try:
        name = scenario.name
        if name in ("", ".", "..") or name != os.path.basename(name):
            raise ValueError(f"scenario name {name!r} is not a plain file name")
        if ref_cells and ref_cells < MIN_CELLS:
            raise ValueError(f"ref_cells must be 0 or at least {MIN_CELLS}, got {ref_cells}")
        system = scenario.build_system()
        grid = build_grid(scenario.a, scenario.b, scenario.n_sv, scenario.n_cv)
        u0, breakpoints = scenario.initial_condition()
        components = np.size(u0(scenario.a))
        if components != system.m:
            raise ValueError(
                f"initial condition {scenario.initial!r} has {components} components, "
                f"system {scenario.system!r} has {system.m}"
            )
        config = SolverConfig(
            t_end=scenario.t_end,
            cfl=scenario.cfl,
            bc=_boundary_condition(scenario, u0),
            stabilization_enabled=scenario.stabilization,
            diagnostics_every=scenario.diagnostics_every,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return system, grid, u0, breakpoints, config


def _make_out_dir(out_dir):
    """Make the output directory ``out_dir`` and its parents unless it exists.

    Raises ``ScenarioError`` when it cannot be made, as when ``out_dir`` or
    one of its parents is a file.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot make out_dir {out_dir!r}: {exc.strerror}") from exc


def _write_csv(path, header_comment, table):
    """Write ``table``, {column name: 1-D column}, as a CSV under one comment line.

    The rows are streamed from the columns (arrays, lists or ranges of one
    length), floats with 17 significant digits and anything else as ``str``.
    """
    # Overwrite in place and cut the file at the end of the new content.
    # open(path, "w") would truncate an existing file to zero first, which
    # makes ext4 (auto_da_alloc) flush the old file to disk: 30-90 ms per
    # file on every rerun into the same directory. Unlike unlinking the old
    # file, this keeps open(path, "w")'s handling of symlinks, hard links
    # and read-only files. The price: that flush is also what makes a
    # rewrite by truncation survive a system crash, and a process killed
    # mid-write leaves new rows over the old file's tail. A write that
    # raises cuts the file at the bytes written so far, so it leaves a
    # short file as open(path, "w") would.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            fh.write(f"# {header_comment}\n")
            fh.write(",".join(table) + "\n")
            for row in zip(*table.values()):
                fh.write(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row))
                fh.write("\n")
        except BaseException:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            raise
        fh.truncate()
    return path


def _profile_table(system, centers, widths, values):
    """The columns of a solution or reference CSV: ``x_center``, ``width``, components."""
    table = {"x_center": centers, "width": widths}
    table.update(zip(_component_names(system), values.T))
    return table


def _write_solution_csv(path, scenario, state):
    grid = state.grid
    table = _profile_table(state.system, grid.cv_centers().ravel(),
                           np.tile(grid.cv_widths, grid.num_sv),
                           state.data.reshape(-1, state.system.m))
    comment = (
        f"system={scenario.system} scenario={scenario.name} t={_FMT % state.time} "
        f"n_sv={scenario.n_sv} n_cv={scenario.n_cv} "
        f"stabilization={'on' if scenario.stabilization else 'off'}"
    )
    return _write_csv(path, comment, table)


def read_solution_csv(path):
    """Parse a solution CSV back into (x_centers, widths, values)."""
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    data = np.atleast_2d(data)
    return data[:, 0], data[:, 1], data[:, 2:]


def _send_reference(pipe, args):
    """The reference child's work: send ``lax_friedrichs_solver(*args)`` through ``pipe``.

    An exception is sent as its type name, message and ``where`` instead.
    """
    try:
        sent = lax_friedrichs_solver(*args)
    except Exception as exc:
        sent = (type(exc).__name__, str(exc), getattr(exc, "where", None))
    pipe.send(sent)


def _reference_result(child, pipe):
    """The reference ``child``'s ``ReferenceSolution``, or a message naming its failure.

    Reads what the child sent through ``pipe`` and joins it.
    """
    try:
        sent = pipe.recv()
    except (EOFError, OSError):  # the child died before it sent all: its exit code says how
        sent = None
    child.join()
    if child.exitcode != 0:
        return f"the reference process ended with exit code {child.exitcode}"
    if isinstance(sent, ReferenceSolution):
        return sent
    name, message, where = sent
    return f"{name}{'' if where is None else f' where={where}'}: {message}"


def run_scenario(scenario: Scenario, out_dir: str, ref_cells: int = 0):
    """Run one scenario and write its output files; returns {kind: path}.

    A scenario that cannot run, or an output directory that cannot be made,
    raises ``ScenarioError`` before anything is solved or written; one whose
    initial field and CFL number give no usable time step raises it when
    the solve starts, after the output directory is made and before any
    file is written. A step failure keeps whatever was computed: the last
    admissible field and the diagnostics collected so far are written, and
    the error is recorded in the returned mapping under ``"error"``.

    With ``ref_cells`` the Lax-Friedrichs reference runs in a
    ``multiprocessing`` child started with "fork" (POSIX only, as ``u0`` is
    a closure) while this process solves (see the module docstring). It is
    written only after a successful solve; a reference that raises or a
    child that dies writes no reference file and is recorded under
    ``"error"`` as a ``reference-failure``. The child has ended and been
    joined whenever this returns or raises.
    """
    system, grid, u0, breakpoints, config = _setup(scenario, ref_cells)
    _make_out_dir(out_dir)
    state = init_field(u0, grid, system, breakpoints=breakpoints)
    # Fill both operator caches before the fork, so that integrate's stage
    # plan only looks them up: after a fork the parent's first write to each
    # page it shares with the child copies that page, and building C and H
    # there raised a first run's set-up of Sod at N=200 by a median 0.9 ms
    # (5.7 -> 6.7 ms, 12 runs on a 2-vCPU VM). Called as attributes of
    # ``timeint``, the names the plan calls, so a tracer that wraps those
    # names still sees them.
    timeint.build_reconstruction(grid)
    timeint.build_generator(grid.cv_widths)
    child = None
    if ref_cells:
        # Imported only here, so a run without a reference loads none of it:
        # 0.2 MiB less peak RSS (perfbench burgers-large-pure, 15 runs each).
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        pipe, sender = fork.Pipe(duplex=False)
        args = (system, u0, scenario.a, scenario.b, ref_cells, scenario.t_end, config.bc)
        child = fork.Process(target=_send_reference, args=(sender, args))
        child.start()
        sender.close()  # the child's copy is then the only one: its death ends the pipe
    error = ref = None
    try:
        try:
            final, diag = integrate(state, config)
        except StepFailureError as exc:
            final, diag, error = exc.last_state, exc.diagnostics, exc
        except DegenerateSpeedError as exc:  # an initial field with no usable time step
            raise ScenarioError(str(exc)) from exc
        if child is not None and error is None:
            ref = _reference_result(child, pipe)
    finally:
        if child is not None:
            pipe.close()
            child.kill()
            child.join()

    outputs = {}
    base = os.path.join(out_dir, scenario.name)
    outputs["solution"] = _write_solution_csv(f"{base}_solution.csv", scenario, final)
    if diag.l2_times:
        outputs["l2"] = _write_csv(
            f"{base}_l2.csv",
            f"scenario={scenario.name} discrete L2 norm over time",
            {"t": diag.l2_times, "l2": diag.l2_values},
        )
    if diag.last_report is not None:
        rep = diag.last_report
        outputs["diagnostics"] = _write_csv(
            f"{base}_lambda.csv",
            f"scenario={scenario.name} correction sizes of the last stage; "
            f"den_fallbacks={rep.den_fallbacks} sigma_fallbacks={rep.sigma_fallbacks}",
            {"sv": range(rep.num_sv), "lambda_ed": rep.lambda_ed,
             "lambda_er_l": rep.lambda_er_l, "lambda_er_r": rep.lambda_er_r,
             "lambda_sum": rep.lambda_sum, "lambda_final": rep.lambda_final,
             "clamped": rep.clamped.astype(int), "clamp_total": diag.clamp_totals},
        )
    if isinstance(ref, ReferenceSolution):
        width = (scenario.b - scenario.a) / ref_cells
        outputs["reference"] = _write_csv(
            f"{base}_reference.csv",
            f"system={scenario.system} scenario={scenario.name} reference "
            f"t={_FMT % scenario.t_end} cells={ref_cells} provenance={ref.provenance}",
            _profile_table(system, ref.positions, np.full(ref_cells, width), ref.values),
        )
    elif isinstance(ref, str):
        outputs["error"] = f"error kind=reference-failure scenario={scenario.name} {ref}"
    if error is not None:
        outputs["error"] = (f"error kind=step-failure scenario={scenario.name} "
                            f"{_failure_tail(error)}")
    return outputs


def _failure_tail(error: StepFailureError) -> str:
    """The ``sv=<i> <part>=<j> t=<time>`` tail of a step-failure line."""
    sv, j = error.where
    return f"sv={sv} {error.part}={j} t={error.time:.6g}"


def _periodic_exact(scenario: Scenario, t: float):
    """Exact state function (conserved) at time t for smooth periodic cases.

    The density bump's is the scenario's own initial condition at the
    advected coordinate x - t, wrapped into [0, 10) so integer periods line
    back up; it needs bc = periodic on [0, 10]. Any other bump, and any
    scenario without an exact solution, raises ``ScenarioError``.
    """
    length = scenario.b - scenario.a
    if scenario.system == "euler" and scenario.initial == "density-bump":
        if scenario.bc != "periodic" or (scenario.a, scenario.b) != (0.0, 10.0):
            raise ScenarioError("the exact density bump needs bc = periodic on [0, 10]")
        u0, _ = scenario.initial_condition()
        return lambda xs: u0(np.mod(np.asarray(xs, dtype=float) - t - 5.0 + 0.5 * length, length))
    if scenario.system == "advection" and scenario.bc == "periodic":
        u0, _ = scenario.initial_condition()
        v = scenario.velocity

        def exact(xs):
            vals = exact_advection(u0, v, t, np.asarray(xs, dtype=float), scenario.a, scenario.b)
            return np.reshape(vals, (-1, 1))

        return exact
    raise ScenarioError(f"no exact solution registered for scenario {scenario.name!r}")


def run_convergence(base: Scenario, n_sv_list, out_dir: str):
    """One run per resolution against the exact solution; returns (results, path).

    ``results`` holds (n_sv, L1, L2) per resolution; the CSV at ``path`` adds
    per-pair experimental orders for both norms (empty for the first
    resolution). Every resolution is set up, and the output directory made,
    before the first solve, so a bad one raises ``ScenarioError`` before
    anything is solved or written. A resolution whose initial field gives no
    usable time step raises ``ScenarioError`` when its solve starts. A solve
    that fails raises its ``StepFailureError`` with the resolution attached
    as ``n_sv``. Either way no CSV is written: a partial table would read as
    a complete study.
    """
    exact = _periodic_exact(base, base.t_end)
    setups = [
        (int(n_sv), _setup(replace(base, n_sv=int(n_sv), diagnostics_every=0)))
        for n_sv in n_sv_list
    ]
    _make_out_dir(out_dir)
    results = []
    for n_sv, (system, grid, u0, breakpoints, config) in setups:
        state = init_field(u0, grid, system, breakpoints=breakpoints)
        try:
            final, _ = integrate(state, config)
        except StepFailureError as exc:
            exc.n_sv = n_sv
            raise
        except DegenerateSpeedError as exc:  # an initial field with no usable time step
            raise ScenarioError(str(exc)) from exc
        results.append((n_sv, error_norms(final, exact, "L1"), error_norms(final, exact, "L2")))
    ns, l1, l2 = zip(*results)
    # One order per consecutive pair, so none for the first resolution.
    orders = [observed_order(errors, ns) if len(ns) > 1 else [] for errors in (l1, l2)]
    path = os.path.join(out_dir, f"{base.name}_convergence.csv")
    _write_csv(
        path,
        f"scenario={base.name} t={_FMT % base.t_end} n_cv={base.n_cv}",
        {"n_sv": ns, "l1": l1, "l2": l2, "eoc_l1": ["", *orders[0]], "eoc_l2": ["", *orders[1]]},
    )
    return results, path


def _resolve_scenario(token: str) -> Scenario:
    if os.path.isfile(token):
        return load_scenario(token)
    if token in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[token]
    raise ScenarioError(
        f"name={token!r}; builtins: {', '.join(list_scenarios())}", kind="unknown-scenario"
    )


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """``scenario`` with the fields the command-line flags set (``--nsv``: run only)."""
    flags = {"cfl": "cfl", "n_sv": "nsv", "n_cv": "ncv", "t_end": "t_end"}
    updates = {key: getattr(args, flag, None) for key, flag in flags.items()}
    updates = {key: value for key, value in updates.items() if value is not None}
    if args.no_stabilization:
        updates["stabilization"] = False
    return replace(scenario, **updates) if updates else scenario


def _nsv_list(text: str):
    """The spectral-volume counts of ``--nsv-list``.

    Raises ``ScenarioError`` when a count is not an integer, the list names
    none, or it names a count twice (two runs at one resolution give no
    order).
    """
    try:
        counts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError(f"bad --nsv-list {text!r}: {exc}") from exc
    if not counts:
        raise ScenarioError(f"--nsv-list {text!r} names no resolution")
    if len(set(counts)) < len(counts):
        raise ScenarioError(f"--nsv-list {text!r} names a count more than once")
    return counts


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specvol",
        description="Spectral-volume solver for 1-D conservation laws with "
        "entropy-rate stabilization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario (builtin name or config path)")
    run_p.add_argument("scenario")
    # No abbreviated flags: --nsv would be read as --nsv-list.
    conv_p = sub.add_parser("convergence", allow_abbrev=False,
                            help="refinement study for a smooth scenario")
    conv_p.add_argument("scenario")
    conv_p.add_argument(
        "--nsv-list",
        default="10,12,14,16,18,20,22",
        help="comma-separated spectral-volume counts",
    )
    sub.add_parser("list", help="list builtin scenarios")

    run_p.add_argument("--nsv", type=int, default=None)
    run_p.add_argument("--ref-cells", type=int, default=0)
    for p in (run_p, conv_p):
        p.add_argument("--no-stabilization", action="store_true")
        p.add_argument("--cfl", type=float, default=None)
        p.add_argument("--ncv", type=int, default=None)
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in list_scenarios():
            print(name)
        return 0

    name = args.scenario
    try:
        scenario = _apply_overrides(_resolve_scenario(args.scenario), args)
        name = scenario.name
        if args.command == "run":
            outputs = run_scenario(scenario, _out_dir(args), ref_cells=args.ref_cells)
        else:
            results, path = run_convergence(scenario, _nsv_list(args.nsv_list), _out_dir(args))
    except ScenarioError as exc:
        subject = "" if exc.kind == "unknown-scenario" else f"scenario={name} "
        print(f"error kind={exc.kind} {subject}{exc}", file=sys.stderr)
        return 2
    except StepFailureError as exc:  # a convergence solve; ``run`` records its own
        print(f"error kind=step-failure scenario={name} n_sv={exc.n_sv} {_failure_tail(exc)}",
              file=sys.stderr)
        return 1
    if args.command == "run":
        for kind, path in outputs.items():
            if kind != "error":
                print(f"{kind}: {path}")
        if "error" in outputs:
            print(outputs["error"], file=sys.stderr)
            return 1
        return 0

    print(f"convergence: {path}")
    for n_sv, l1, l2 in results:
        print(f"n_sv={n_sv} L1={l1:.6e} L2={l2:.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
