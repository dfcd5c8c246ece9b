"""Semidiscrete right-hand side, adapted Euler step and SSP-RK3 driver.

One Euler stage of the stabilized scheme reconstructs the boundary traces and
checks them, then evaluates every interface term of both sides in one pass:
``system.stage_terms`` on the stacked left and right traces, shape
(2, N+1, m), gives the fluxes, signal speeds, entropies, entropy fluxes and
entropy gradients. From these follow the LLF flux, the dissipation estimate
sigma, the numerical entropy flux F* and the LLF dissipation. The per-SV
correction is sized from one pass over the cell averages' entropies and
gradients, then

    u_new = u + dt * (D + lambda_i * v_i),   v_i = H u_i.

Without stabilization a stage computes only the signal speeds and fluxes.

The SSP-RK3 method chains three such stages through convex combinations, so
conservation and the filter positivity bound survive the full step. The time
step is fixed from the CFL condition at t = 0; a trailing shortened stage
lands exactly on t_end.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateSpeedError, InadmissibleStateError, StepFailureError
from .filters import FilterGenerator, apply_generator, build_generator
from .mesh import SpectralGrid
from .reconstruction import ReconstructionOperator, build_reconstruction, reconstruct_all
from .riemann import PeriodicBC, _sigma_from_parts, assemble_fluxes, interface_states
from .stabilization import CorrectionReport, compute_correction, corrected_rhs
from .systems import ConservationSystem, LinearAdvection

__all__ = [
    "CellAverageField",
    "SolverConfig",
    "RunDiagnostics",
    "init_field",
    "base_rhs",
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
    lambda_max: float | None = None
    diagnostics_every: int = 0  # sample the L2 norm every n steps; 0 = off

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")


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

    def record_report(self, report: CorrectionReport) -> None:
        self.last_report = report
        if self.clamp_totals is None:
            self.clamp_totals = np.zeros(report.num_sv, dtype=int)
        self.clamp_totals += report.clamped.astype(int)


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
    ends = np.append(cuts, np.inf)
    first = np.searchsorted(cuts, lo, side="right")  # first cut above lo
    n_cuts = np.searchsorted(cuts, hi, side="left") - first  # cuts in (lo, hi)
    segments = []
    for r in range(int(n_cuts.max()) + 1):
        cvs = slice(None) if r == 0 else np.flatnonzero(n_cuts >= r)
        s_lo = lo if r == 0 else cuts[first[cvs] + r - 1]
        s_hi = np.minimum(hi[cvs], ends[first[cvs] + r])
        segments.append((cvs, 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)))
    return segments


def init_field(
    u0,
    grid: SpectralGrid,
    system: ConservationSystem,
    quad_order: int = 8,
    breakpoints=(),
) -> CellAverageField:
    """Cell-average the initial condition with Gauss-Legendre quadrature.

    ``u0`` maps an array of n positions to an (n, m) array of states, or to
    an (n,) array when m = 1, and is called once per quadrature node for all
    CVs together. A callable that only takes a scalar position and returns an
    m-vector (or a scalar for m = 1) still works: it is called once per
    point, which is much slower on large grids. Known discontinuity
    locations can be passed as ``breakpoints``, in any order; each
    straddling CV is then integrated piecewise so jumps are averaged exactly
    to quadrature tolerance.
    """
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    edges = grid.cv_edges
    acc = np.zeros((grid.num_sv * grid.num_cv, system.m))
    # Rank by rank and node by node: each CV sums its segments left to
    # right, the order of a per-CV quadrature loop.
    for cvs, mid, half in _segments(edges, breakpoints):
        for node, weight in zip(nodes, weights):
            vals = _evaluate(u0, mid + half * node, system.m)
            acc[cvs] += (half * weight)[:, None] * vals
    acc /= (edges[:, 1:] - edges[:, :-1]).reshape(-1, 1)
    data = acc.reshape(grid.num_sv, grid.num_cv, system.m)
    if not np.all(np.isfinite(data)):
        raise ValueError("initial-condition quadrature produced non-finite averages")
    system.check_admissible(data, "initial cell average")
    return CellAverageField(data=data, time=0.0, grid=grid, system=system)


def base_rhs(
    field_data: np.ndarray,
    op: ReconstructionOperator,
    system: ConservationSystem,
    bc,
    cv_widths: np.ndarray,
) -> np.ndarray:
    """Pure SV time derivative D = (f*_{j-1/2} - f*_{j+1/2}) / h_j."""
    traces = reconstruct_all(op, field_data)
    fluxes = assemble_fluxes(traces, system, bc)
    return (fluxes[:, :-1] - fluxes[:, 1:]) / cv_widths[None, :, None]


def euler_adapted(
    state: CellAverageField,
    dt: float,
    op: ReconstructionOperator,
    gen: FilterGenerator,
    config: SolverConfig,
):
    """One (possibly corrected) Euler stage; returns (new_field, report).

    With stabilization disabled the entropy machinery is skipped entirely and
    the report is None.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid, system = state.grid, state.system
    widths = grid.cv_widths
    traces = reconstruct_all(op, state.data)
    system.check_admissible(traces, "boundary trace")
    u_l, u_r = interface_states(traces, config.bc)

    stabilized = config.stabilization_enabled
    if stabilized:
        # Every interface term of both sides from one pass over the stacked
        # traces: the first axis indexes the side (0 left, 1 right).
        flux_lr, speed_lr, ent_lr, eflux_lr, grad_lr = system.stage_terms(np.stack([u_l, u_r]))
        f_l, f_r = flux_lr
        c_max = np.maximum(speed_lr[0], speed_lr[1])
    else:
        c_max = system.max_signal_speed_raw(u_l, u_r)
        f_l = system.flux_raw(u_l)
        f_r = system.flux_raw(u_r)
    jump = u_r - u_l
    interface_flux = 0.5 * (f_l + f_r) - 0.5 * c_max[:, None] * jump
    n_sv, nodes, m = traces.shape
    fluxes = np.empty((n_sv, nodes, m))
    if nodes > 2:
        fluxes[:, 1:-1] = system.flux_raw(traces[:, 1:-1])
    fluxes[:, 0] = interface_flux[:-1]
    fluxes[:, -1] = interface_flux[1:]
    rhs = (fluxes[:, :-1] - fluxes[:, 1:]) / widths[None, :, None]

    report = None
    if stabilized:
        periodic = isinstance(config.bc, PeriodicBC)
        counters = {}
        ent_l, ent_r = ent_lr
        eflux_l, eflux_r = eflux_lr
        sigma = _sigma_from_parts(
            u_l, u_r, f_l, f_r, c_max, ent_l, ent_r, eflux_l, eflux_r, system, counters
        )
        # F* on the same one-sided traces the state flux uses: on smooth data
        # the two traces agree to reconstruction order, so the entropy budget
        # F*_l - F*_r tracks the actual production instead of drowning it in
        # O(h) dissipation from adjacent-average jumps.
        f_star = 0.5 * (eflux_l + eflux_r) - 0.5 * c_max * (ent_r - ent_l)
        # Entropy the interface LLF flux itself dissipates; the scale on
        # which correction demands are actually realizable.
        d_llf = 0.5 * c_max * np.einsum("sc,sc->s", jump, grad_lr[1] - grad_lr[0])
        direction = apply_generator(gen, state.data)
        report = compute_correction(
            state.data,
            rhs,
            direction,
            sigma,
            f_star,
            widths,
            system,
            dt,
            gen,
            periodic,
            dissipation_scale=d_llf,
            lambda_max=config.lambda_max,
            sigma_fallbacks=counters.get("sigma_fallbacks", 0),
        )
        rhs = corrected_rhs(rhs, report.lambda_final, direction)

    new_data = state.data + dt * rhs
    ok = system.admissible(new_data)
    if not np.all(ok):
        i, j = map(int, np.argwhere(~ok)[0])
        raise StepFailureError(
            f"step to t={state.time + dt:.6g} left the admissible set at sv={i} cv={j}",
            sv=i,
            cv=j,
            time=state.time + dt,
        )
    return state.with_data(new_data, time=state.time + dt), report


def ssp_rk3_step(
    state: CellAverageField,
    dt: float,
    op: ReconstructionOperator,
    gen: FilterGenerator,
    config: SolverConfig,
):
    """Third-order SSP Runge-Kutta step built from adapted Euler stages.

    u1 = E(u0); u2 = 3/4 u0 + 1/4 E(u1); u_new = 1/3 u0 + 2/3 E(u2). The
    correction sizes are recomputed inside every stage. Returns (new_field,
    reports): the stages' correction reports in stage order, empty with
    stabilization disabled.
    """
    stage1, r1 = euler_adapted(state, dt, op, gen, config)
    stage2_full, r2 = euler_adapted(stage1, dt, op, gen, config)
    stage2 = state.with_data(
        0.75 * state.data + 0.25 * stage2_full.data, time=state.time + 0.5 * dt
    )
    stage3_full, r3 = euler_adapted(stage2, dt, op, gen, config)
    new = state.with_data(
        state.data / 3.0 + (2.0 / 3.0) * stage3_full.data, time=state.time + dt
    )
    return new, tuple(r for r in (r1, r2, r3) if r is not None)


def select_dt(
    grid: SpectralGrid, state: CellAverageField, system: ConservationSystem, cfl: float
) -> float:
    """CFL time step from the smallest CV width and the t = 0 signal speeds.

    dt = cfl * min_j h_j / c_global with c_global the largest per-cell signal
    speed. Advection at velocity zero carries no CFL constraint; any other
    system with vanishing c_global is degenerate.
    """
    cells = state.data.reshape(-1, system.m)
    c_global = float(np.max(system.max_signal_speed(cells, cells)))
    min_width = float(np.min(grid.cv_widths))
    if c_global <= 0.0:
        if isinstance(system, LinearAdvection):
            return cfl * min_width
        raise DegenerateSpeedError("global signal speed is zero")
    return cfl * min_width / c_global


def discrete_l2(state: CellAverageField) -> float:
    """Width-weighted discrete L2 norm of the cell averages."""
    return float(np.sqrt(np.einsum("j,ijc,ijc->", state.grid.cv_widths, state.data, state.data)))


def integrate(
    state: CellAverageField,
    config: SolverConfig,
    op: ReconstructionOperator | None = None,
    gen: FilterGenerator | None = None,
):
    """Run SSP-RK3 from the field's time to t_end; returns (field, diagnostics).

    The step size is frozen at the start (T = floor(t_end / dt) full steps);
    a final shortened step hits t_end exactly. Identical inputs produce
    bitwise-identical results.
    """
    if op is None:
        op = build_reconstruction(state.grid)
    if gen is None:
        gen = build_generator(state.grid.cv_widths)
    dt = select_dt(state.grid, state, state.system, config.cfl)
    remaining = config.t_end - state.time
    if remaining <= 0.0:
        raise ValueError(f"t_end={config.t_end} is not ahead of t={state.time}")
    n_full = int(np.floor(remaining / dt))

    diag = RunDiagnostics()
    if config.diagnostics_every:
        diag.record_l2(state.time, discrete_l2(state))
    try:
        for n in range(n_full):
            state, reports = ssp_rk3_step(state, dt, op, gen, config)
            diag.steps += 1
            for report in reports:
                diag.record_report(report)
            if config.diagnostics_every and (n + 1) % config.diagnostics_every == 0:
                diag.record_l2(state.time, discrete_l2(state))
        dt_last = config.t_end - state.time
        if dt_last > 1e-12 * dt:
            state, reports = ssp_rk3_step(state, dt_last, op, gen, config)
            diag.steps += 1
            for report in reports:
                diag.record_report(report)
    except (StepFailureError, InadmissibleStateError) as exc:
        # Let callers keep whatever was computed before the failure.
        exc.last_state = state
        exc.diagnostics = diag
        raise
    state = state.with_data(state.data, time=config.t_end)
    if config.diagnostics_every:
        diag.record_l2(state.time, discrete_l2(state))
    return state, diag
