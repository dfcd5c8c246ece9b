"""Semidiscrete right-hand side, adapted Euler step and SSP-RK3 driver.

One Euler stage of the stabilized scheme, all of it in ``euler_adapted``,
makes four passes of the system over its states:

1. the admissibility check of the boundary traces;
2. ``system.stage_terms`` over one rows array that holds the stacked left
   and right interface states, shape (2, N+1, m), and the cell averages. It
   gives the sides' flux, signal speed, entropy, entropy flux and gradient,
   and the averages' entropy and gradient. ``riemann.interface_terms`` takes
   the sides' terms, writes their LLF flux into the CV faces and gives their
   ``InterfaceTerms``: the dissipation estimate sigma, the numerical entropy
   flux F* and the LLF dissipation. ``compute_correction`` takes that record
   whole, with the averages' entropies and gradients;
3. the Riemann-fan mean states of sigma, in ``interface_terms``;
4. the admissibility check of the new averages

    u_new = u + dt * (D + lambda_i * v_i),   v_i = H u_i.

Without stabilization the stage passes over the traces, each interface side
and the new averages, and ``riemann.llf_flux`` computes only the signal
speeds and the LLF flux; neither ``interface_terms`` nor
``compute_correction`` runs.

The traces come in CV-face order from ``reconstruct_faces`` and v = H u from
one matrix product over all SVs (see ``reconstruction``), and
``interface_states`` writes the interface sides, ghost states included, from
each SV's first and last trace. The fluxes go into the N*k + 1 CV faces,
left to right: face i*k + j is boundary j of SV i, so every SV interface has
one slot shared by its two SVs. Both stage kinds write the analytical flux
of the first N*k traces straight into faces[:-1] in one contiguous pass
(``flux_raw``'s ``out``), ``llf_flux`` or ``interface_terms`` then writes
the interface fluxes over the SV interfaces faces[::k] (their ``out``), and
D = (faces[:-1] - faces[1:]) / h is one contiguous pass with the CV widths
tiled once per run.

A run keeps its operators and arrays in a stage plan that ``integrate``
builds once from the state's grid and system alone, with one layout for both
stage kinds. It owns the two per-SV operators that the grid's CV partition
fixes, the trace reconstruction C (``plan.op``) and the filter generator H
(``plan.gen``), which the cached builders hand out; a stage applies its
plan's, and a stage given a plan built for another grid raises
``ValueError``. The plan's arrays are the traces, the rows array, the CV
faces, the tiled widths and three (N, k, m) arrays, one for the RK state and
two that the stages write their new averages into, each stage into the one
that is not its input. The interface sides, which every stage writes, are a
view of the rows array; a stabilized stage copies its averages into the
rest. ``rates``, a (2, N, k, m) array, holds a stabilized stage's D and its
filter direction v side by side, so that ``compute_correction`` takes both
inner products of every SV from one product. A pure stage leaves the
correction's arrays untouched: the averages' rows and ``rates``. Their
``np.empty`` pages are then never written; at
large N, where numpy maps them afresh, they never become resident. The RK
combinations run in place with ``out=``, and the correction lambda_i v_i is
computed into the stage's output array before it is added into D, so a step
allocates no array of the field's size beyond what the system methods, the
interface terms and the correction's per-SV arrays return.
``euler_adapted(state, dt, config, plan=...)`` and ``ssp_rk3_step(state, dt,
config, plan=...)`` take the plan as the keyword ``plan``. Without one they
build a fresh plan, so the fields they return own their data; with one,
those fields live in the plan's arrays until its next stage or step.
``integrate`` returns, and attaches to a failure, copies.

The SSP-RK3 method chains three such stages through convex combinations, so
conservation and the filter positivity bound survive the full step. The time
step is fixed from the CFL condition at t = 0; a trailing shortened stage
lands exactly on t_end.

The system methods check nothing. States are checked where they enter or
leave a stage. ``InadmissibleStateError`` rejects ``init_field``'s averages
(NaN and inf included) and the state ``select_dt`` (and so ``integrate``)
is given; ``DegenerateSpeedError`` a state, CFL number and t_end that give
no usable time step or step count; ``StepFailureError`` names a stage's first bad trace or
average.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateSpeedError, StepFailureError
from .filters import apply_generator, build_generator
from .mesh import SpectralGrid, gauss_legendre_rule
from .reconstruction import _sv_traces, build_reconstruction, reconstruct_all, reconstruct_faces
# reconstruct_all and _sigma_from_parts are not called here; the benchmark's
# tracer wraps them as attributes of this module, so they stay importable from it.
from .riemann import (
    PeriodicBC, _check_bc, _sigma_from_parts, interface_states, interface_terms, llf_flux
)
from .stabilization import CorrectionReport, compute_correction, corrected_rhs
from .systems import ConservationSystem, LinearAdvection

__all__ = [
    "CellAverageField",
    "SolverConfig",
    "RunDiagnostics",
    "init_field",
    "euler_adapted",
    "ssp_rk3_step",
    "select_dt",
    "integrate",
    "discrete_l2",
]


@dataclass(frozen=True)
class CellAverageField:
    """The solver state: cell averages (N, k, m) at time t on a grid."""

    data: np.ndarray = field(repr=False)
    time: float
    grid: SpectralGrid
    system: ConservationSystem

    def with_data(self, data: np.ndarray, time=None) -> "CellAverageField":
        return CellAverageField(data, self.time if time is None else time, self.grid, self.system)

    def total_mass(self) -> np.ndarray:
        """Width-weighted total per component, shape (m,)."""
        return np.einsum("j,ijc->c", self.grid.cv_widths, self.data)


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.1
    bc: object = PeriodicBC()
    stabilization_enabled: bool = True
    diagnostics_every: int = 0  # sample the L2 norm every n steps; 0 = off

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        every = self.diagnostics_every
        if not (isinstance(every, numbers.Integral) and every >= 0):
            raise ValueError(f"diagnostics_every must be an integer >= 0, got {every!r}")
        _check_bc(self.bc)


@dataclass
class RunDiagnostics:
    """L2 samples, the last stage's correction report and clamp totals.

    ``clamp_totals`` counts, per SV, the ``clamped`` flags of every RK stage.
    """

    l2_times: list = field(default_factory=list)
    l2_values: list = field(default_factory=list)
    last_report: CorrectionReport | None = None
    clamp_totals: np.ndarray | None = None
    steps: int = 0

    def record_l2(self, t: float, value: float) -> None:
        self.l2_times.append(t)
        self.l2_values.append(value)

    def record_step(self, reports) -> None:
        """Count one step and record its stages' correction reports."""
        self.steps += 1
        for report in reports:
            self.last_report = report
            if self.clamp_totals is None:
                self.clamp_totals = np.zeros(report.num_sv, dtype=int)
            self.clamp_totals += report.clamped


def _evaluate(u0, x: np.ndarray, m: int) -> np.ndarray:
    """``u0`` at every position of the 1-D array ``x``, as an (n, m) float array.

    One call on the whole array is tried first. Its result is accepted only
    with shape (n, m), or (n,) when m = 1; if the call raises or returns any
    other shape (a scalar-only callable, a constant), ``u0`` is called once
    per position instead. An error that is not about array input therefore
    re-raises from the per-point calls. With n = m > 1 an (m, n) result could
    not be told from an (n, m) one, so those few points go per point.
    """
    n = x.shape[0]
    if n != m or m == 1:
        try:
            vals = np.asarray(u0(x), dtype=float)
        except Exception:
            vals = None
        if vals is not None and (vals.shape == (n, m) or (m == 1 and vals.shape == (n,))):
            return vals.reshape(n, m)
    return np.array([np.reshape(np.asarray(u0(p), dtype=float), (m,)) for p in x]).reshape(n, m)


def _segments(edges: np.ndarray, breakpoints):
    """Gauss-Legendre segments of the CVs with the (N, k + 1) edges ``edges``.

    Each CV is split at the breakpoints strictly inside it. Returns (cvs,
    mid, half) per segment rank r: the midpoints and half-widths of the r-th
    segment, left to right, of every CV that has one; ``cvs`` holds flat CV
    indices, a slice for r = 0, which every CV has.
    """
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    cuts = np.array(sorted(set(breakpoints)), dtype=float)
    first = np.searchsorted(cuts, lo, side="right")  # first cut above lo
    n_cuts = np.searchsorted(cuts, hi, side="left") - first  # cuts in (lo, hi)
    ends = np.append(cuts, np.inf)
    segments = []
    for r in range(int(n_cuts.max()) + 1):
        cvs = slice(None) if r == 0 else np.flatnonzero(n_cuts >= r)
        s_lo = lo if r == 0 else cuts[first[cvs] + r - 1]
        s_hi = np.minimum(hi[cvs], ends[first[cvs] + r])
        segments.append((cvs, 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)))
    return segments


# The most positions one quadrature batch passes to u0: as many nodes as fit
# go into one call. A grid of more CVs (the 80000 of N = 20000, k = 4) takes
# one node per call, which keeps the call's arrays, and u0's temporaries, at
# one node's size.
QUAD_BATCH_POINTS = 1 << 16


def _quadrature_batches(u0, mid: np.ndarray, half: np.ndarray, nodes: np.ndarray, m: int):
    """Yield (q, u0 at mid + half * nodes[q]) per node q, in node order.

    ``mid`` and ``half`` have one shape; each value has that shape plus (m,).
    ``u0`` is called once per batch of nodes that fits in
    ``QUAD_BATCH_POINTS`` positions, at least one node per call.
    """
    per_call = max(1, QUAD_BATCH_POINTS // mid.size)
    for q0 in range(0, nodes.size, per_call):
        batch = nodes[q0 : q0 + per_call]
        x = mid + half * batch.reshape((-1,) + (1,) * mid.ndim)
        vals = _evaluate(u0, x.ravel(), m).reshape(x.shape + (m,))
        yield from enumerate(vals, q0)


def init_field(
    u0,
    grid: SpectralGrid,
    system: ConservationSystem,
    quad_order: int = 8,
    breakpoints=(),
) -> CellAverageField:
    """Cell-average the initial condition with Gauss-Legendre quadrature.

    ``u0`` maps an array of n positions to an (n, m) array of states, or to
    an (n,) array when m = 1. Per segment rank it is called on batches of
    quadrature nodes, each node at every CV of that rank: as many nodes per
    call as fit in ``QUAD_BATCH_POINTS`` positions, and at least one. A
    callable that only takes a scalar position and returns an m-vector (or a
    scalar for m = 1) still works: it is called once per point, which is much
    slower on large grids. Known discontinuity locations can be passed as
    ``breakpoints``, in any order; each straddling CV is then integrated
    piecewise so jumps are averaged exactly to quadrature tolerance. The
    averages do not depend on the batch size.
    """
    nodes, weights = gauss_legendre_rule(quad_order)
    edges = grid.cv_edges
    acc = np.zeros((grid.num_sv * grid.num_cv, system.m))
    # Rank by rank and node by node: each CV sums its segments left to
    # right, the order of a per-CV quadrature loop.
    for cvs, mid, half in _segments(edges, breakpoints):
        for q, vals in _quadrature_batches(u0, mid, half, nodes, system.m):
            acc[cvs] += (half * weights[q])[:, None] * vals
    acc /= (edges[:, 1:] - edges[:, :-1]).reshape(-1, 1)
    data = acc.reshape(grid.num_sv, grid.num_cv, system.m)
    system.check_admissible(data, "initial cell average")
    return CellAverageField(data=data, time=0.0, grid=grid, system=system)


class _StagePlan:
    """The operators and arrays of one run's stages, for one grid and system.

    ``op`` and ``gen`` are the grid's trace reconstruction and filter
    generator, built through this module's ``build_reconstruction`` and
    ``build_generator``. A pure stage never writes the correction's arrays:
    the averages' rows and ``rates``.
    """

    def __init__(self, grid: SpectralGrid, system: ConservationSystem):
        n_sv, k, m = grid.num_sv, grid.num_cv, system.m
        self.grid = grid
        self.op = build_reconstruction(grid)
        self.gen = build_generator(grid.cv_widths)
        self.traces = np.empty((n_sv * (k + 1), m))  # in CV-face order
        # The states of the stabilized stage's system pass: the interface
        # sides, side first (0 left, 1 right), then the averages.
        self.n_sides = 2 * (n_sv + 1)
        self.rows = np.empty((self.n_sides + n_sv * k, m))
        self.sides = self.rows[: self.n_sides].reshape(2, n_sv + 1, m)
        self.averages = self.rows[self.n_sides :].reshape(n_sv, k, m)
        self.faces = np.empty((n_sv * k + 1, m))
        self.widths = np.tile(grid.cv_widths, n_sv)[:, None]
        self.state = np.empty((n_sv, k, m))
        self.stages = (np.empty((n_sv, k, m)), np.empty((n_sv, k, m)))
        # D and the filter direction v of a stage, side by side for the one
        # product of the correction.
        self.rates = np.empty((2, n_sv, k, m))


def _failure(state, dt, part, ok) -> StepFailureError:
    """The failure of the (N, j) mask ``ok``'s first False, in (sv, j) order."""
    i, j = map(int, np.argwhere(~ok)[0])
    time = state.time + dt
    message = f"step to t={time:.6g} left the admissible set at sv={i} {part}={j}"
    return StepFailureError(message, (i, j), part, time)


def euler_adapted(state: CellAverageField, dt: float, config: SolverConfig, *, plan=None):
    """One (possibly corrected) Euler stage; returns (new_field, report).

    The stage applies the operators of ``state.grid``, its plan's. With
    stabilization disabled the entropy machinery is skipped entirely and
    the report is None. With a run's stage ``plan``, which must have been
    built for ``state.grid``, the new averages go into its stage array that
    is not ``state.data``; without one the new field owns its data. The
    report's arrays are always fresh.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if plan is None:
        plan = _StagePlan(state.grid, state.system)
    elif plan.grid is not state.grid:
        raise ValueError("the stage plan was built for another grid than the state's")
    u, system = state.data, state.system
    n_sv, k, m = u.shape
    out = plan.stages[1] if u is plan.stages[0] else plan.stages[0]
    traces = reconstruct_faces(plan.op, u, out=plan.traces)
    interface_states(traces[: n_sv * k : k], traces[n_sv * k :], config.bc, out=plan.sides)

    ok = system.admissible(traces)
    if not ok.all():
        raise _failure(state, dt, "trace", _sv_traces(ok, n_sv))
    faces = plan.faces
    if k > 1:
        # Every trace j < k in one pass; the SV interfaces are overwritten below.
        system.flux_raw(traces[: n_sv * k], out=faces[:-1])
    stabilized = config.stabilization_enabled
    if stabilized:
        # One pass over the interface sides and the averages.
        plan.averages[...] = u
        row_terms = system.stage_terms(plan.rows, plan.n_sides)
        terms = interface_terms(plan.sides, system, row_terms, faces[::k])
        rhs = plan.rates[0]
    else:
        llf_flux(plan.sides, system, faces[::k])
        rhs = out
    d = rhs.reshape(n_sv * k, m)
    np.subtract(faces[:-1], faces[1:], out=d)
    np.divide(d, plan.widths, out=d)

    report = None
    if stabilized:
        direction = apply_generator(plan.gen, u, out=plan.rates[1])
        entropy = row_terms.entropy[plan.n_sides :].reshape(n_sv, k)
        gradient = row_terms.gradient[plan.n_sides :].reshape(n_sv, k, m)
        report = compute_correction(
            entropy, gradient, plan.rates, terms, dt, plan.gen, config.bc.periodic
        )
        # The product lambda_i v_i goes into ``out``, which is free until
        # the new averages are written.
        corrected_rhs(rhs, report.lambda_final, direction, work=out)

    np.multiply(rhs, dt, out=rhs)
    new = np.add(u, rhs, out=out)
    ok = system.admissible(new)
    if not ok.all():
        raise _failure(state, dt, "cv", ok)
    return state.with_data(new, time=state.time + dt), report


def ssp_rk3_step(state: CellAverageField, dt: float, config: SolverConfig, *, plan=None):
    """Third-order SSP Runge-Kutta step built from adapted Euler stages.

    u1 = E(u0); u2 = 3/4 u0 + 1/4 E(u1); u_new = 1/3 u0 + 2/3 E(u2). The
    correction sizes are recomputed inside every stage. Each stage is given
    its input at the step's start time, so a stage that fails, whichever it
    is, names the time the step targets, t_n + dt. Returns (new_field,
    reports): the stages' correction reports in stage order, empty with
    stabilization disabled. With a ``plan`` the new field is the plan's RK
    state array, which may be ``state``'s own; without one it owns its data.
    """
    if plan is None:
        plan = _StagePlan(state.grid, state.system)
    u0 = state.data
    stage1, r1 = euler_adapted(state, dt, config, plan=plan)
    stage2_full, r2 = euler_adapted(state.with_data(stage1.data), dt, config, plan=plan)
    # The combinations reuse the stage arrays an earlier stage is done with.
    u2 = np.multiply(stage2_full.data, 0.25, out=stage2_full.data)
    np.add(np.multiply(u0, 0.75, out=stage1.data), u2, out=u2)
    stage3_full, r3 = euler_adapted(state.with_data(u2), dt, config, plan=plan)
    u3 = np.multiply(stage3_full.data, 2.0 / 3.0, out=stage3_full.data)
    new = np.add(np.divide(u0, 3.0, out=u2), u3, out=plan.state)
    reports = () if r1 is None else (r1, r2, r3)
    return state.with_data(new, time=state.time + dt), reports


def select_dt(state: CellAverageField, cfl: float) -> float:
    """CFL time step from the smallest CV width and the t = 0 signal speeds.

    dt = cfl * min_j h_j / c_global with c_global the largest per-cell signal
    speed; advection at velocity zero carries no CFL constraint and takes
    dt = cfl * min_j h_j. A dt that is zero, subnormal or infinite (from a
    zero or subnormal speed, or a subnormal cfl) raises
    ``DegenerateSpeedError``, an inadmissible state ``InadmissibleStateError``.
    """
    system = state.system
    system.check_admissible(state.data, "initial state")
    c_global = float(np.max(system.max_signal_speed_raw(state.data)))
    min_width = float(np.min(state.grid.cv_widths))
    if c_global <= 0.0 and isinstance(system, LinearAdvection):
        dt = cfl * min_width
    else:
        dt = cfl * min_width / c_global if c_global > 0.0 else math.inf
    if not sys.float_info.min <= dt < math.inf:
        raise DegenerateSpeedError(f"cfl {cfl!r} at global signal speed {c_global!r} "
                                   f"gives no usable time step (dt={dt!r})")
    return dt


def discrete_l2(state: CellAverageField) -> float:
    """Width-weighted discrete L2 norm of the cell averages."""
    return float(np.sqrt(np.einsum("j,ijc,ijc->", state.grid.cv_widths, state.data, state.data)))


def integrate(state: CellAverageField, config: SolverConfig):
    """Run SSP-RK3 from the field's time to t_end; returns (field, diagnostics).

    The step size is frozen at the start (T = floor(t_end / dt) full steps);
    a final shortened step hits t_end exactly. A step count t_end / dt of
    2**53 or more raises ``DegenerateSpeedError``. Identical inputs produce
    bitwise-identical results. Every step runs on one stage plan, built for
    the state's grid, with that grid's operators; the returned field, and
    ``last_state`` of a failure, own their data.
    """
    dt = select_dt(state, config.cfl)
    remaining = config.t_end - state.time
    if remaining <= 0.0:
        raise ValueError(f"t_end={config.t_end} is not ahead of t={state.time}")
    steps = remaining / dt
    if not steps < 2**53:  # past 2**53 a float no longer counts steps exactly
        raise DegenerateSpeedError(f"dt={dt!r} to t_end={config.t_end!r} is no usable step count")
    n_full = int(np.floor(steps))

    plan = _StagePlan(state.grid, state.system)
    diag = RunDiagnostics()
    if config.diagnostics_every:
        diag.record_l2(state.time, discrete_l2(state))
    try:
        # Each step's checks name a stage that overflows; the floating-point
        # warnings on the way there are noise.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for n in range(n_full):
                state, reports = ssp_rk3_step(state, dt, config, plan=plan)
                diag.record_step(reports)
                if config.diagnostics_every and (n + 1) % config.diagnostics_every == 0:
                    diag.record_l2(state.time, discrete_l2(state))
            dt_last = config.t_end - state.time
            if dt_last > 1e-12 * dt:
                state, reports = ssp_rk3_step(state, dt_last, config, plan=plan)
                diag.record_step(reports)
    except StepFailureError as exc:
        # Let callers keep whatever was computed before the failure, in an
        # array of its own: the plan's arrays belong to this run.
        exc.last_state = state.with_data(state.data.copy())
        exc.diagnostics = diag
        raise
    state = state.with_data(state.data.copy(), time=config.t_end)
    if config.diagnostics_every:
        diag.record_l2(state.time, discrete_l2(state))
    return state, diag
