import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specvol import timeint
from specvol.cli import BUILTIN_SCENARIOS
from specvol.exceptions import DegenerateSpeedError, InadmissibleStateError, StepFailureError
from specvol.filters import apply_generator, build_generator
from specvol.mesh import build_grid
from specvol.reconstruction import build_reconstruction, reconstruct_all
from specvol.riemann import FixedBC, InterfaceTerms, PeriodicBC, _sigma_from_parts, interface_states
from specvol.stabilization import compute_correction
from specvol.systems import (
    Euler,
    advection_system,
    burgers_system,
    euler_system,
    primitive_to_conserved,
)
from specvol.timeint import (
    SolverConfig,
    discrete_l2,
    euler_adapted,
    init_field,
    integrate,
    select_dt,
    ssp_rk3_step,
)
from support import REPORT_ATTRIBUTES, builtin_setup, scenario_state


def setup_burgers(n_sv=20, k=4, domain=(0.0, 2.0)):
    grid = build_grid(domain[0], domain[1], n_sv, k)
    system = burgers_system()
    state = init_field(lambda x: np.sin(np.pi * x), grid, system, 8)
    return grid, system, state


class TestInitField:
    def test_constant(self):
        grid = build_grid(0.0, 1.0, 3, 4)
        state = init_field(lambda x: 2.5, grid, advection_system(1.0))
        np.testing.assert_allclose(state.data, 2.5, atol=1e-14)

    def test_linear_gives_midpoints(self):
        grid = build_grid(0.0, 1.0, 4, 4)
        state = init_field(lambda x: x, grid, advection_system(1.0))
        np.testing.assert_allclose(state.data[..., 0], grid.cv_centers(), atol=1e-14)

    def test_rectangle_jump_aligned_grid(self):
        grid = build_grid(0.0, 1.0, 60, 4)
        state = init_field(
            lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0,
            grid,
            advection_system(1.0),
            breakpoints=(0.25, 0.75),
        )
        vals = state.data[..., 0]
        # jumps at 0.25 and 0.75 coincide with SV boundaries at N=60
        assert set(np.round(np.unique(vals), 12)) == {0.0, 1.0}

    def test_breakpoints_make_straddling_cells_exact(self):
        grid = build_grid(0.0, 1.0, 7, 4)  # 0.25 falls inside a CV
        u0 = lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0
        state = init_field(u0, grid, advection_system(1.0), breakpoints=(0.25, 0.75))
        lo, hi = grid.cv_edges[:, :-1], grid.cv_edges[:, 1:]
        exact = (np.minimum(hi, 0.75) - np.maximum(lo, 0.25)).clip(0.0) / (hi - lo)
        np.testing.assert_allclose(state.data[..., 0], exact, atol=1e-13)

    def test_total_mass_is_integral(self):
        grid = build_grid(0.0, 2.0, 11, 4)
        state = init_field(lambda x: np.sin(np.pi * x), grid, burgers_system(), 8)
        assert state.total_mass()[0] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "system", [advection_system(1.0), burgers_system(), euler_system(1.4)],
        ids=["advection", "burgers", "euler"],
    )
    def test_nonfinite_average_names_its_cv(self, system, bad):
        grid = build_grid(0.0, 1.0, 5, 4)
        lo, hi = grid.cv_edges[2, 1], grid.cv_edges[2, 2]
        good = np.array([1.0, 0.0, 2.5])[: system.m]

        def u0(x):
            inside = (lo <= x) & (x < hi)
            return np.where(inside[:, None], bad, good)

        with pytest.raises(InadmissibleStateError) as info:
            init_field(u0, grid, system)
        assert info.value.where == (2, 1)


def per_point_averages(u0, grid, m, quad_order=8, breakpoints=()):
    """The CV x segment x node loop that ``init_field`` vectorizes."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    cuts = sorted(set(breakpoints))
    data = np.empty((grid.num_sv, grid.num_cv, m))
    for i in range(grid.num_sv):
        for j in range(grid.num_cv):
            lo, hi = grid.cv_edges[i, j], grid.cv_edges[i, j + 1]
            inner = [b for b in cuts if lo < b < hi]
            acc = np.zeros(m)
            for s_lo, s_hi in zip([lo, *inner], [*inner, hi]):
                mid, half = 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)
                for x, w in zip(mid + half * nodes, half * weights):
                    acc += w * np.reshape(np.asarray(u0(x), dtype=float), (m,))
            data[i, j] = acc / (hi - lo)
    return data


class CountingU0:
    """Wraps u0 and records whether each call got an array or a scalar."""

    def __init__(self, fn):
        self.fn = fn
        self.array_calls = 0
        self.scalar_calls = 0

    def __call__(self, x):
        if np.ndim(x):
            self.array_calls += 1
        else:
            self.scalar_calls += 1
        return self.fn(x)


class TestBatchedInitField:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_scenarios_match_per_point(self, name, monkeypatch):
        scen = BUILTIN_SCENARIOS[name]
        grid = build_grid(scen.a, scen.b, scen.n_sv, scen.n_cv)
        system = scen.build_system()
        u0, breaks = scen.initial_condition()
        state = init_field(u0, grid, system, breakpoints=breaks)
        ref = per_point_averages(u0, grid, system.m, breakpoints=breaks)
        assert np.array_equal(state.data, ref)
        # One node per call, as on a grid above the point budget.
        monkeypatch.setattr(timeint, "QUAD_BATCH_POINTS", 1)
        counted = CountingU0(u0)
        per_node = init_field(counted, grid, system, breakpoints=breaks)
        assert np.array_equal(per_node.data, state.data)
        assert counted.array_calls == 8 * len(timeint._segments(grid.cv_edges, breaks))

    def test_straddling_breakpoints_match_per_point(self):
        grid = build_grid(0.0, 1.0, 7, 4)  # 0.25 and 0.75 fall inside CVs
        u0 = CountingU0(BUILTIN_SCENARIOS["advect-rect"].initial_condition()[0])
        state = init_field(u0, grid, advection_system(1.0), 8, (0.25, 0.75))
        assert (u0.array_calls, u0.scalar_calls) == (2, 0)  # one per segment rank
        ref = per_point_averages(u0.fn, grid, 1, 8, (0.25, 0.75))
        assert np.array_equal(state.data, ref)

    @pytest.mark.parametrize(
        "u0",
        [lambda x: 1.0 if x < 0.5 else 0.0, math.sin, lambda x: 2.5],
        ids=["branch", "math-sin", "constant"],
    )
    def test_scalar_only_u0_falls_back(self, u0):
        grid = build_grid(0.0, 1.0, 7, 4)  # two CVs straddle a breakpoint
        counted = CountingU0(u0)
        state = init_field(counted, grid, advection_system(1.0), 8, (0.25, 0.75))
        # one rejected array call per segment rank (all 8 nodes), then every point
        assert counted.array_calls == 2
        assert counted.scalar_calls == 8 * (grid.num_sv * grid.num_cv + 2)
        assert np.array_equal(state.data, per_point_averages(u0, grid, 1, 8, (0.25, 0.75)))

    def test_euler_vector_u0_takes_fast_path(self):
        grid = build_grid(0.0, 10.0, 12, 4)
        system = euler_system(1.4)
        u0 = CountingU0(
            lambda x: primitive_to_conserved(1.0 + np.exp(-0.5 * (x - 5.0) ** 2), 1.0, 1.0)
        )
        state = init_field(u0, grid, system, 8)
        assert (u0.array_calls, u0.scalar_calls) == (1, 0)
        assert np.array_equal(state.data, per_point_averages(u0.fn, grid, 3, 8))

    def test_component_major_u0_not_mistaken_for_batched(self):
        # u0 returns (3, n) for arrays; with three straddling CVs the second
        # segments form a batch of n = m = 3 whose layout cannot be checked.
        grid = build_grid(0.0, 10.0, 12, 4)
        breaks = tuple(grid.cv_centers()[[1, 5, 9], 1])
        u0 = lambda x: np.array([1.5 + np.sin(x), 0.2 * x, 2.5 + 0.0 * x])
        state = init_field(u0, grid, euler_system(1.4), 8, breaks)
        assert np.array_equal(state.data, per_point_averages(u0, grid, 3, 8, breaks))

    @pytest.mark.parametrize("breaks", [(), (0.25, 0.75)])
    def test_one_call_without_straddling(self, breaks):
        grid = build_grid(0.0, 1.0, 60, 4)  # 0.25 and 0.75 are SV edges
        u0 = CountingU0(lambda x: np.sin(np.pi * x))
        init_field(u0, grid, advection_system(1.0), 6, breaks)
        assert (u0.array_calls, u0.scalar_calls) == (1, 0)

    def test_batches_split_at_the_point_budget(self, monkeypatch):
        # 40 CVs and a budget of 100 positions: two nodes per call.
        monkeypatch.setattr(timeint, "QUAD_BATCH_POINTS", 100)
        grid = build_grid(0.0, 2.0, 10, 4)
        u0 = CountingU0(lambda x: np.sin(np.pi * x))
        state = init_field(u0, grid, burgers_system(), 5)
        assert (u0.array_calls, u0.scalar_calls) == (3, 0)
        assert np.array_equal(state.data, per_point_averages(u0.fn, grid, 1, 5))

    @pytest.mark.parametrize("u0", [
        lambda x: primitive_to_conserved(1.0 + np.exp(-0.5 * (x - 5.0) ** 2), 1.0, 1.0),
        lambda x: np.array([1.5 + np.sin(x), 0.2 * x, 2.5 + 0.0 * x]),
    ], ids=["batched", "component-major"])
    def test_above_the_point_budget_one_call_per_node(self, monkeypatch, u0):
        # A grid of 48 CVs over a budget of 40 positions: each call takes one
        # node, and the averages equal those of one batch for all nodes.
        grid = build_grid(0.0, 10.0, 12, 4)
        batched = init_field(u0, grid, euler_system(1.4), 8).data
        monkeypatch.setattr(timeint, "QUAD_BATCH_POINTS", 40)
        counted = CountingU0(u0)
        state = init_field(counted, grid, euler_system(1.4), 8)
        assert counted.array_calls == 8
        assert np.array_equal(state.data, batched)
        assert np.array_equal(state.data, per_point_averages(u0, grid, 3, 8))

    @pytest.mark.parametrize("breaks", [(), (0.0, 1.0), (-3.0, 7.5), "cv-edges"])
    def test_segments_without_straddling_are_the_cvs(self, breaks):
        grid = build_grid(0.0, 1.0, 7, 4)
        if breaks == "cv-edges":
            breaks = tuple(grid.cv_edges[[0, 3, 6], [1, 2, 4]])
        lo, hi = grid.cv_edges[:, :-1].ravel(), grid.cv_edges[:, 1:].ravel()
        [(cvs, mid, half)] = timeint._segments(grid.cv_edges, breaks)
        assert cvs == slice(None)
        assert np.array_equal(mid, 0.5 * (lo + hi)) and np.array_equal(half, 0.5 * (hi - lo))

    def test_breakpoint_order_and_duplicates_do_not_matter(self):
        rect = BUILTIN_SCENARIOS["advect-rect"].initial_condition()[0]
        one_cv = build_grid(0.0, 1.0, 1, 1)
        for breaks in [(0.25, 0.75), (0.75, 0.25), (0.75, 0.25, 0.75)]:
            state = init_field(rect, one_cv, advection_system(1.0), 8, breaks)
            assert state.data[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        grid = build_grid(0.0, 1.0, 7, 4)
        runs = [
            init_field(rect, grid, advection_system(1.0), 8, breaks).data
            for breaks in [(0.25, 0.75), (0.75, 0.25), (0.25, 0.75, 0.25, 0.75)]
        ]
        assert all(np.array_equal(runs[0], other) for other in runs[1:])


class TestBaseRhs:
    """D, the stage's time derivative without correction: (E(u) - u) / dt."""

    def base_rhs(self, state, dt=1e-3):
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=False)
        new, _ = euler_adapted(state, dt, cfg)
        return (new.data - state.data) / dt

    def test_constant_field_zero(self):
        grid, system, state = setup_burgers()
        state = state.with_data(np.full_like(state.data, 1.7))
        np.testing.assert_allclose(self.base_rhs(state), 0.0, atol=1e-13)

    def test_periodic_total_telescopes(self):
        grid, system, state = setup_burgers()
        rhs = self.base_rhs(state)
        assert abs(np.einsum("j,ijc->", grid.cv_widths, rhs)) <= 1e-12


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field, bad",
        [("t_end", math.inf), ("t_end", math.nan), ("t_end", 0.0),
         ("diagnostics_every", -3), ("diagnostics_every", 2.5)],
    )
    def test_bad_value_rejected(self, field, bad):
        kwargs = {"t_end": 1.0, field: bad}
        with pytest.raises(ValueError, match=field):
            SolverConfig(**kwargs)

    def test_good_values_accepted(self):
        for every in (0, 7, np.int64(3)):
            SolverConfig(t_end=1.0, diagnostics_every=every)
        for sc in BUILTIN_SCENARIOS.values():
            SolverConfig(t_end=sc.t_end, cfl=sc.cfl, diagnostics_every=sc.diagnostics_every)

    def test_unknown_boundary_condition_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown boundary condition 'open'"):
            SolverConfig(t_end=1.0, bc="open")


class TestSystemPassesPerStage:
    """A stage computes the primitives of each of its state sets once.

    Every Euler pressure but the flux's comes from ``_primitives``. A
    stabilized stage passes over the traces, the interface sides with the
    averages, the Riemann-fan mean states and the new averages; a pure stage
    over the traces, each side and the new averages.
    """

    @pytest.mark.parametrize("stab", [True, False])
    def test_primitives_calls_per_stage(self, stab):
        state, config = builtin_setup("density-bump", n_sv=16, stabilization=stab)
        dt = select_dt(state, config.cfl)
        real = Euler._primitives
        with mock.patch.object(Euler, "_primitives", autospec=True, side_effect=real) as spy:
            euler_adapted(state, dt, config)
        assert spy.call_count == 4


class TestEulerAdapted:
    def test_constant_field_fixed_point(self):
        grid, system, state = setup_burgers()
        state = state.with_data(np.full_like(state.data, 0.8))
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        new, rep = euler_adapted(state, 1e-3, cfg)
        np.testing.assert_allclose(new.data, 0.8, atol=1e-13)
        np.testing.assert_allclose(rep.lambda_final, 0.0, atol=1e-13)

    def test_mass_conserved(self):
        grid, system, state = setup_burgers()
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        new, _ = euler_adapted(state, 1e-3, cfg)
        np.testing.assert_allclose(
            new.total_mass(), state.total_mass(), atol=1e-12
        )

    def test_stabilization_off_skips_report(self):
        grid, system, state = setup_burgers()
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=False)
        _, rep = euler_adapted(state, 1e-3, cfg)
        assert rep is None

    def test_nonpositive_dt_rejected(self):
        grid, system, state = setup_burgers()
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        with pytest.raises(ValueError):
            euler_adapted(state, 0.0, cfg)

    def test_fixed_bc_uses_ghost_states(self):
        # A constant 1 between the ghost states -1 and 1: only the left
        # interface flux changes, to llf(-1, 1) = 0.5*(0.5+0.5) - 0.5*1*(1-(-1)) = -0.5.
        grid = build_grid(0.0, 1.0, 4, 4)
        state = init_field(lambda x: 1.0, grid, burgers_system())
        bc = FixedBC(left=np.array([-1.0]), right=np.array([1.0]))
        cfg = SolverConfig(t_end=1.0, bc=bc, stabilization_enabled=False)
        dt = 1e-3
        new, _ = euler_adapted(state, dt, cfg)
        h0 = grid.cv_widths[0]
        # D of the first CV is (-0.5 - f(1)) / h0 with f(1) = 0.5 from its right face.
        assert new.data[0, 0, 0] == pytest.approx(1.0 - dt / h0, abs=1e-13)
        rest = new.data.reshape(-1)[1:]
        np.testing.assert_allclose(rest, 1.0, atol=1e-13)


def reference_stage(state, dt, config):
    """One stabilized stage from the textbook formulas, on (N, k+1, m) traces.

    At each interface, with c the larger signal speed of its two sides:
    the LLF flux 0.5 (f_l + f_r) - (c/2)(u_r - u_l), the entropy flux
    F* = 0.5 (F_l + F_r) - (c/2)(U_r - U_l) and the LLF dissipation
    d_llf = (c/2)(u_r - u_l).(dU/du_r - dU/du_l). sigma is the solver's own
    ``_sigma_from_parts`` of these sides, so this stage checks the stage's
    plumbing; ``two_pass_sigma`` checks sigma itself.
    """
    system, widths = state.system, state.grid.cv_widths
    op, gen = build_reconstruction(state.grid), build_generator(widths)
    traces = reconstruct_all(op, state.data)
    u_l, u_r = interface_states(traces[:, 0], traces[:, -1], config.bc)
    f_l, f_r = system.flux_raw(u_l), system.flux_raw(u_r)
    ent_l, ent_r = system.entropy_raw(u_l), system.entropy_raw(u_r)
    eflux_l, eflux_r = system.entropy_flux_raw(u_l), system.entropy_flux_raw(u_r)
    c = np.maximum(system.max_signal_speed_raw(u_l), system.max_signal_speed_raw(u_r))
    interface_flux = 0.5 * (f_l + f_r) - 0.5 * c[:, None] * (u_r - u_l)
    fluxes = system.flux_raw(traces)
    fluxes[:, 0] = interface_flux[:-1]
    fluxes[:, -1] = interface_flux[1:]
    rhs = (fluxes[:, :-1] - fluxes[:, 1:]) / widths[None, :, None]
    sigma, fallbacks = _sigma_from_parts(u_l, u_r, f_l, f_r, c, ent_l, ent_r, eflux_l, eflux_r,
                                         system)
    f_star = 0.5 * (eflux_l + eflux_r) - 0.5 * c * (ent_r - ent_l)
    d_llf = 0.5 * c * np.einsum(
        "sc,sc->s", u_r - u_l,
        system.entropy_gradient_raw(u_r) - system.entropy_gradient_raw(u_l),
    )
    direction = apply_generator(gen, state.data)
    terms = InterfaceTerms(interface_flux, sigma, fallbacks, f_star, d_llf)
    report = compute_correction(
        system.entropy_raw(state.data), system.entropy_gradient_raw(state.data),
        np.stack([rhs, direction]), terms, dt, gen, config.bc.periodic,
    )
    return state.data + dt * (rhs + report.lambda_final[:, None, None] * direction), report


class TestStageMatchesCheckedApi:
    """The solver's stage equals the same stage built from the textbook formulas, bitwise."""

    @pytest.mark.parametrize(
        "name, t_end, n_sv",
        [("sod", 0.3, None), ("burgers-sine", 0.35, 50), ("advect-rect", 0.1, None),
         ("density-bump", 0.5, 20), ("burgers-rarefaction", 0.1, 1)],
    )
    def test_stage_bitwise(self, name, t_end, n_sv):
        state, config = scenario_state(name, t_end, n_sv)
        dt = select_dt(state, config.cfl)
        new, report = euler_adapted(state, dt, config)
        want_data, want = reference_stage(state, dt, config)
        # The correction acts somewhere, so every report field is exercised.
        assert np.count_nonzero(report.lambda_final > 0.0) > 0
        assert new.data.tobytes() == want_data.tobytes()
        for name in REPORT_ATTRIBUTES:
            got, expected = getattr(report, name), getattr(want, name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name
            else:
                assert type(got) is type(expected) and got == expected, name


class TestSspRk3:
    def test_constant_fixed_point(self):
        grid, system, state = setup_burgers()
        state = state.with_data(np.full_like(state.data, -0.4))
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        new, _ = ssp_rk3_step(state, 1e-3, cfg)
        np.testing.assert_allclose(new.data, -0.4, atol=1e-13)
        assert new.time == pytest.approx(1e-3)

    def test_third_order_in_time(self):
        # smooth advection; Richardson: halving dt cuts the new-error by ~8
        grid = build_grid(0.0, 1.0, 16, 4)
        system = advection_system(1.0)
        state = init_field(lambda x: np.sin(2 * np.pi * x), grid, system, 10)
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=False)

        def advance(dt, steps):
            s = state
            for _ in range(steps):
                s, _ = ssp_rk3_step(s, dt, cfg)
            return s.data

        ref = advance(0.0025, 16)  # fine-dt proxy for the dt -> 0 limit
        err_coarse = np.max(np.abs(advance(0.02, 2) - ref))
        err_fine = np.max(np.abs(advance(0.01, 4) - ref))
        order = np.log2(err_coarse / err_fine)
        assert order > 2.5

    def test_conservation_over_steps(self):
        grid, system, state = setup_burgers(n_sv=30)
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        dt = select_dt(state, 0.1)
        s = state
        for _ in range(20):
            s, _ = ssp_rk3_step(s, dt, cfg)
        np.testing.assert_allclose(s.total_mass(), state.total_mass(), atol=1e-12)


class TestSelectDt:
    def test_advection_formula(self):
        grid = build_grid(0.0, 1.0, 60, 4)
        system = advection_system(1.0)
        state = init_field(lambda x: 1.0, grid, system)
        assert select_dt(state, 0.1) == pytest.approx(
            0.1 * grid.cv_widths.min(), rel=1e-14
        )

    def test_speed_doubling_halves_dt(self):
        grid = build_grid(0.0, 1.0, 10, 4)
        s1 = advection_system(1.0)
        s2 = advection_system(2.0)
        state = init_field(lambda x: 1.0, grid, s1)
        faster = dataclasses.replace(state, system=s2)
        assert select_dt(faster, 0.1) == pytest.approx(
            0.5 * select_dt(state, 0.1), rel=1e-14
        )

    def test_sod_sound_speed(self):
        grid = build_grid(0.0, 10.0, 20, 4)
        system = euler_system(1.4)
        u0 = lambda x: (
            primitive_to_conserved(1.0, 0.0, 1.0)
            if x < 5
            else primitive_to_conserved(0.125, 0.0, 0.1)
        )
        state = init_field(u0, grid, system, 8, (5.0,))
        expected = 0.1 * grid.cv_widths.min() / np.sqrt(1.4)
        assert select_dt(state, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_zero_speed_advection_allowed(self):
        grid = build_grid(0.0, 1.0, 5, 4)
        system = advection_system(0.0)
        state = init_field(lambda x: x, grid, system)
        assert select_dt(state, 0.1) == pytest.approx(
            0.1 * grid.cv_widths.min()
        )

    def test_zero_speed_nonlinear_rejected(self):
        grid = build_grid(0.0, 1.0, 5, 4)
        system = burgers_system()
        state = init_field(lambda x: 0.0, grid, system)
        with pytest.raises(DegenerateSpeedError):
            select_dt(state, 0.1)

    @pytest.mark.parametrize("cfl", [1e-320, 5e-324])
    @pytest.mark.parametrize("system", [burgers_system(), advection_system(0.0)],
                             ids=["burgers", "advection-at-rest"])
    def test_step_that_underflows_rejected(self, cfl, system):
        # A subnormal or zero dt, with or without a signal speed.
        state = init_field(lambda x: np.sin(np.pi * x), build_grid(0.0, 2.0, 5, 4), system)
        with pytest.raises(DegenerateSpeedError, match="no usable time step"):
            select_dt(state, cfl)

    def test_subnormal_speed_rejected(self):
        # h / c overflows to inf: a degenerate speed, not a step.
        grid, system, state = setup_burgers(n_sv=5)
        state = state.with_data(np.full_like(state.data, 2.2e-313))
        with pytest.raises(DegenerateSpeedError, match="2.2e-313"):
            select_dt(state, 0.1)


class TestIntegrate:
    def test_subnormal_speed_raises_instead_of_stamping_t_end(self):
        grid, system, state = setup_burgers(n_sv=5)
        state = state.with_data(np.full_like(state.data, 2.2e-313))
        with pytest.raises(DegenerateSpeedError):
            integrate(state, SolverConfig(t_end=1.0, bc=PeriodicBC()))

    def test_step_count_that_overflows_raises(self):
        # A normal dt, but t_end / dt is past the largest float.
        grid, system, state = setup_burgers(n_sv=5)
        with pytest.raises(DegenerateSpeedError, match="step count"):
            integrate(state, SolverConfig(t_end=1e307, cfl=1e-3, bc=PeriodicBC()))

    def test_step_count_floats_cannot_count_raises(self):
        # 2**53 steps exactly: past it a float skips integers, so it is refused.
        grid, system, state = setup_burgers(n_sv=5)
        dt = select_dt(state, 0.1)
        with pytest.raises(DegenerateSpeedError, match="step count"):
            integrate(state, SolverConfig(t_end=dt * 2.0**53, cfl=0.1, bc=PeriodicBC()))

    def test_lands_exactly_on_t_end(self):
        grid, system, state = setup_burgers(n_sv=10)
        cfg = SolverConfig(t_end=0.0371, cfl=0.1, bc=PeriodicBC())
        final, _ = integrate(state, cfg)
        assert final.time == 0.0371

    def test_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            grid, system, state = setup_burgers(n_sv=15)
            cfg = SolverConfig(t_end=0.05, cfl=0.1, bc=PeriodicBC())
            final, _ = integrate(state, cfg)
            results.append(final.data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_conservation_with_and_without_stabilization(self):
        for stab in (False, True):
            grid, system, state = setup_burgers(n_sv=25)
            cfg = SolverConfig(t_end=0.1, cfl=0.1, bc=PeriodicBC(), stabilization_enabled=stab)
            final, _ = integrate(state, cfg)
            drift = np.abs(final.total_mass() - state.total_mass())
            assert np.all(drift <= 1e-12)

    @pytest.mark.parametrize("name", ["advection", "burgers", "euler"])
    @pytest.mark.parametrize("stab", [False, True])
    def test_conservation_all_systems(self, name, stab):
        if name == "euler":
            grid = build_grid(0.0, 10.0, 12, 4)
            system = euler_system(1.4)
            u0 = lambda x: primitive_to_conserved(1.0 + np.exp(-0.5 * (x - 5.0) ** 2), 1.0, 1.0)
        else:
            grid = build_grid(0.0, 2.0, 12, 4)
            system = advection_system(1.0) if name == "advection" else burgers_system()
            u0 = lambda x: np.sin(np.pi * x)
        state = init_field(u0, grid, system, 8)
        cfg = SolverConfig(t_end=0.05, cfl=0.1, bc=PeriodicBC(), stabilization_enabled=stab)
        final, _ = integrate(state, cfg)
        scale = np.maximum(1.0, np.abs(state.total_mass()))
        assert np.all(np.abs(final.total_mass() - state.total_mass()) / scale <= 1e-12)

    def test_fixed_bc_burgers_step(self):
        grid = build_grid(0.0, 2.0, 40, 4)
        system = burgers_system()
        state = init_field(lambda x: -1.0 if x <= 1.0 else 1.0, grid, system, 8, (1.0,))
        bc = FixedBC(left=np.array([-1.0]), right=np.array([1.0]))
        cfg = SolverConfig(t_end=0.2, cfl=0.1, bc=bc)
        final, _ = integrate(state, cfg)
        assert final.data[0, 0, 0] == pytest.approx(-1.0, abs=1e-10)
        assert final.data[-1, -1, 0] == pytest.approx(1.0, abs=1e-10)

    def test_clamp_totals_count_every_stage(self, monkeypatch):
        reports = []
        stage = timeint.euler_adapted

        def recording_stage(*args, **kwargs):
            new, report = stage(*args, **kwargs)
            reports.append(report)
            return new, report

        monkeypatch.setattr(timeint, "euler_adapted", recording_stage)
        final, diag = integrate(*sod_setup())
        assert len(reports) == 3 * diag.steps
        expected = np.sum([r.clamped for r in reports], axis=0)
        assert expected.sum() > 0
        np.testing.assert_array_equal(diag.clamp_totals, expected)
        assert diag.last_report is reports[-1]

    def test_l2_diagnostics_recorded(self):
        grid, system, state = setup_burgers(n_sv=10)
        cfg = SolverConfig(t_end=0.02, cfl=0.1, bc=PeriodicBC(), diagnostics_every=5)
        final, diag = integrate(state, cfg)
        assert len(diag.l2_times) >= 2
        assert diag.l2_times[0] == 0.0
        assert diag.l2_times[-1] == pytest.approx(0.02)
        assert diag.l2_values[0] == pytest.approx(discrete_l2(state))


def plan_arrays(plan):
    return (plan.traces, plan.rows, plan.faces, plan.widths, plan.state, *plan.stages, plan.rates)


def capture_plans(monkeypatch):
    """Record every stage plan built from now on."""
    plans = []
    build = timeint._StagePlan

    def recording(*args, **kwargs):
        plan = build(*args, **kwargs)
        plans.append(plan)
        return plan

    monkeypatch.setattr(timeint, "_StagePlan", recording)
    return plans


def assert_owns_data(array, plan):
    assert not any(np.shares_memory(array, buf) for buf in plan_arrays(plan))


def burgers_setup(n_sv, k=4, bc=PeriodicBC(), stab=True, u0=lambda x: np.sin(np.pi * x) + 0.5):
    grid = build_grid(0.0, 2.0, n_sv, k)
    state = init_field(u0, grid, burgers_system(), 8)
    config = SolverConfig(t_end=1.0, bc=bc, stabilization_enabled=stab)
    return state, config


def sod_setup(n_sv=40, cfl=0.1, t_end=0.1, stab=True):
    return builtin_setup("sod", n_sv=n_sv, cfl=cfl, t_end=t_end, stabilization=stab)


class TestStagePlan:
    """A run's stages on reused arrays give the fresh-array results, bit for bit."""

    @pytest.mark.parametrize("case", ["burgers-periodic", "burgers-pure", "sod-fixed"])
    def test_integrate_equals_fresh_steps(self, case):
        if case == "sod-fixed":
            state, config = sod_setup()
        else:
            state, config = burgers_setup(20, stab=case == "burgers-periodic")
            config = dataclasses.replace(config, t_end=0.05)
        before = state.data.copy()
        final, diag = integrate(state, config)
        assert state.data.tobytes() == before.tobytes()
        dt = select_dt(state, config.cfl)
        fresh, reports = state, []
        for _ in range(int(np.floor(config.t_end / dt))):
            fresh, step_reports = ssp_rk3_step(fresh, dt, config)
            reports.extend(step_reports)
        if config.t_end - fresh.time > 1e-12 * dt:
            fresh, step_reports = ssp_rk3_step(fresh, config.t_end - fresh.time, config)
            reports.extend(step_reports)
        assert len(reports) == (3 * diag.steps if config.stabilization_enabled else 0)
        assert final.data.tobytes() == fresh.data.tobytes()
        if config.stabilization_enabled:
            assert diag.last_report.lambda_final.tobytes() == reports[-1].lambda_final.tobytes()

    def test_stage_with_plan_equals_fresh_stage(self):
        state, config = sod_setup()
        plan = timeint._StagePlan(state.grid, state.system)
        dt = select_dt(state, config.cfl)
        # Twice on one plan, so the second stage starts from used arrays.
        for _ in range(2):
            got, got_report = euler_adapted(state, dt, config, plan=plan)
        want, want_report = euler_adapted(state, dt, config)
        assert got.data.tobytes() == want.data.tobytes()
        assert got_report.lambda_final.tobytes() == want_report.lambda_final.tobytes()
        assert_owns_data(want.data, plan)

    def test_pure_steps_leave_the_correction_arrays_untouched(self):
        # What makes one layout free for a pure run: its stages never write
        # the stabilized stage's arrays, so their pages never become resident.
        state, config = burgers_setup(20, stab=False)
        plan = timeint._StagePlan(state.grid, state.system)
        untouched = (plan.rates, plan.averages)
        for array in untouched:
            array.fill(np.nan)
        dt = select_dt(state, config.cfl)
        for _ in range(3):
            state, reports = ssp_rk3_step(state, dt, config, plan=plan)
        assert reports == () and np.isfinite(state.data).all()
        for array in untouched:
            assert np.isnan(array).all()

    @pytest.mark.parametrize("stab", [True, False])
    def test_one_interface_states_call_into_the_plan(self, stab):
        # Called as an attribute of timeint, where the benchmark's tracer wraps it.
        state, config = burgers_setup(6, stab=stab)
        plan = timeint._StagePlan(state.grid, state.system)
        with mock.patch.object(timeint, "interface_states",
                               side_effect=timeint.interface_states) as spy:
            euler_adapted(state, 1e-3, config, plan=plan)
        (call,) = spy.call_args_list
        assert call.kwargs["out"] is plan.sides

    def test_unknown_boundary_condition_rejected(self):
        state, config = burgers_setup(5)
        with pytest.raises(ValueError, match="unknown boundary condition"):
            integrate(state, dataclasses.replace(config, bc="open"))


def legendre_gauss(grid):
    """``grid`` with the CV faces of every SV at [-1, zeros of P_{k-1}, 1] (LG)."""
    nodes = np.concatenate(([-1.0], np.polynomial.legendre.leggauss(grid.num_cv - 1)[0], [1.0]))
    edges = grid.sv_centers[:, None] + 0.5 * grid.sv_width * nodes
    edges[:, [0, -1]] = grid.cv_edges[:, [0, -1]]
    return dataclasses.replace(grid, ref_nodes=nodes, ref_widths=np.diff(nodes),
                               cv_edges=edges, cv_widths=0.5 * grid.sv_width * np.diff(nodes))


def operator_grids():
    """The density bump's GL grid at N = 12, its LG partition, and a GL grid of half the SV width."""
    gl = build_grid(0.0, 10.0, 12, 4)
    return {"gl": gl, "lg": legendre_gauss(gl), "half-width": build_grid(0.0, 10.0, 24, 4)}


def bump_on(grid):
    sc = BUILTIN_SCENARIOS["density-bump"]
    u0, _ = sc.initial_condition()
    return init_field(u0, grid, sc.build_system()), SolverConfig(t_end=0.05, cfl=sc.cfl)


def record_operators(monkeypatch):
    """Record (call, operator) for every operator a stage applies from now on."""
    seen = []
    for name, index in (("reconstruct_faces", 0), ("apply_generator", 0), ("compute_correction", 5)):
        real = getattr(timeint, name)

        def spy(*args, _name=name, _index=index, _real=real, **kwargs):
            seen.append((_name, args[_index]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(timeint, name, spy)
    return seen


class TestStagePlanOperators:
    """A stage and a run apply the operators of their state's grid and of no other."""

    def test_stage_and_run_use_their_grids_operators(self, monkeypatch):
        grids = operator_grids()
        seen = record_operators(monkeypatch)
        for grid in grids.values():  # one process, grids of two partitions and two widths
            state, config = bump_on(grid)
            op, gen = build_reconstruction(grid), build_generator(grid.cv_widths)
            dt = select_dt(state, config.cfl)
            for run in (lambda: euler_adapted(state, dt, config), lambda: integrate(state, config)):
                seen.clear()
                run()
                assert {name for name, _ in seen} == {
                    "reconstruct_faces", "apply_generator", "compute_correction"
                }
                for name, used in seen:
                    assert used is (op if name == "reconstruct_faces" else gen), name
            # The formula stage with the grid's own operators, bit for bit.
            new, _ = euler_adapted(state, dt, config)
            assert new.data.tobytes() == reference_stage(state, dt, config)[0].tobytes()
        ops = {name: build_reconstruction(g) for name, g in grids.items()}
        gens = {name: build_generator(g.cv_widths) for name, g in grids.items()}
        assert ops["lg"] is not ops["gl"] and ops["half-width"] is ops["gl"]
        assert len({id(g) for g in gens.values()}) == 3

    @pytest.mark.parametrize("other", ["lg", "half-width"])
    def test_plan_of_another_grid_raises(self, other):
        grids = operator_grids()
        state, config = bump_on(grids["gl"])
        plan = timeint._StagePlan(grids[other], state.system)
        dt = select_dt(state, config.cfl)
        for step in (euler_adapted, ssp_rk3_step):
            with pytest.raises(ValueError, match="another grid"):
                step(state, dt, config, plan=plan)


class TestResultsOwnTheirData:
    """Nothing a run hands out aliases its plan's arrays, and it stays unchanged."""

    def test_integrate_result_and_reports(self, monkeypatch):
        plans = capture_plans(monkeypatch)
        reports = []
        stage = timeint.euler_adapted

        def recording_stage(*args, **kwargs):
            new, report = stage(*args, **kwargs)
            reports.append(report)
            return new, report

        monkeypatch.setattr(timeint, "euler_adapted", recording_stage)
        state, config = sod_setup()
        final, diag = integrate(state, config)
        (plan,) = plans
        held = [final.data] + [
            getattr(r, name) for r in reports for name in REPORT_ATTRIBUTES
            if isinstance(getattr(r, name), np.ndarray)
        ]
        copies = [a.copy() for a in held]
        for a in held:
            assert_owns_data(a, plan)
        # Keep running on the same plan.
        dt = select_dt(state, config.cfl)
        s = state
        for _ in range(3):
            s, _ = ssp_rk3_step(s, dt, config, plan=plan)
        for a, c in zip(held, copies):
            assert a.tobytes() == c.tobytes()

    def test_last_state_of_a_step_failure(self, monkeypatch):
        # The frozen t = 0 step of sod at CFL 0.8 fails after a few steps.
        plans = capture_plans(monkeypatch)
        scen = BUILTIN_SCENARIOS["sod"]
        state, config = sod_setup(n_sv=scen.n_sv, cfl=0.8, t_end=scen.t_end)
        with pytest.raises(StepFailureError) as err:
            integrate(state, config)
        (plan,) = plans
        last = err.value.last_state
        assert err.value.diagnostics.steps > 0 and last.time > 0.0
        assert_owns_data(last.data, plan)
        kept = last.data.copy()
        dt = select_dt(state, 0.1)
        s = state
        for _ in range(3):
            s, _ = ssp_rk3_step(s, dt, config, plan=plan)
        assert last.data.tobytes() == kept.tobytes()
        assert np.all(last.system.admissible(last.data))

    def test_fresh_stage_and_step_own_their_data(self):
        state, config = burgers_setup(10)
        for step in (euler_adapted, ssp_rk3_step):
            new, _ = step(state, 1e-3, config)
            assert not np.shares_memory(new.data, state.data)
            again, _ = step(state, 1e-3, config)
            assert not np.shares_memory(new.data, again.data)


def step_peak(state, config):
    """tracemalloc peak of one SSP-RK3 step on a plan after a warm-up step, in field sizes."""
    plan = timeint._StagePlan(state.grid, state.system)
    state, _ = ssp_rk3_step(state, 1e-4, config, plan=plan)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ssp_rk3_step(state, 1e-4, config, plan=plan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / state.data.nbytes


class TestStepAllocation:
    def test_pure_step_on_a_plan_allocates_little(self):
        # Measured: 1.28 * N*k*m*8 bytes at N = 2000, the interface terms'
        # arrays over the 2(N+1) sides: the sides' flux, which the LLF flux
        # is built in, and the signal speeds. It was 2.02 while Burgers' flux
        # over the N*k interior traces made two temporaries before it was
        # copied into the faces; without the plan a step peaked at 10.0
        # times the field's size.
        assert step_peak(*burgers_setup(2000, 4, stab=False)) <= 1.51

    @pytest.mark.parametrize(
        "system_name, bound", [("euler", 6.6), ("burgers", 14.0)], ids=["euler", "burgers"]
    )
    def test_stabilized_step_on_a_plan(self, system_name, bound):
        # Measured at N = 2000: 6.39 (Euler) and 13.63 (Burgers) times the
        # field's size, against 7.38 and 15.24 when the filter direction and
        # lambda*v were new arrays each stage, the system pass's fluxes were
        # copied into the CV faces and Euler's gradient was stacked from
        # separate components. Writing Burgers' flux in place left 13.63 as
        # it was: the peak is inside compute_correction, whose per-SV arrays
        # and the stages' reports are large beside a field of m = 1.
        setup = sod_setup(2000) if system_name == "euler" else burgers_setup(2000, 4)
        assert step_peak(*setup) <= bound


def sv_with_bad_trace(system, node, k=4):
    """Admissible averages of one SV whose reconstruction fails at ``node`` (0 or k) only."""
    end = 0 if node == 0 else -1
    if system.m == 1:
        # Overflow: an end trace weighs the average beside it by 1.73.
        avg = np.zeros(k)
        avg[end] = 1.5e308
        return avg[:, None]
    rho = np.ones(k)
    rho[end] = 0.2  # the density's trace at that end is negative
    return primitive_to_conserved(rho, 0.0, 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestTraceCheckLocation:
    """The stage names the first bad trace in (sv, node) order, as for (N, k+1, m):
    its ``StepFailureError`` has the ``where`` that ``check_admissible`` finds on
    ``reconstruct_all``'s layout.

    In CV-face order the right-end traces come after every other trace, so
    a bad right end of an earlier SV must still be named before a bad first
    trace of a later one.
    """

    @pytest.mark.parametrize("system_name", ["euler", "burgers"])
    @pytest.mark.parametrize(
        "bad, where",
        [({3: 4}, (3, 4)), ({7: 4}, (7, 4)), ({0: 0}, (0, 0)), ({2: 4, 5: 0}, (2, 4)),
         ({1: 0, 6: 4}, (1, 0))],
    )
    def test_where_matches_sv_layout(self, system_name, bad, where):
        n_sv, k = 8, 4
        system = euler_system() if system_name == "euler" else burgers_system()
        grid = build_grid(0.0, 1.0, n_sv, k)
        op = build_reconstruction(grid)
        constant = np.zeros(1) if system.m == 1 else primitive_to_conserved(1.0, 0.0, 1.0)
        data = np.tile(constant, (n_sv, k, 1))
        for sv, node in bad.items():
            data[sv] = sv_with_bad_trace(system, node, k)
        assert np.all(system.admissible(data))
        with pytest.raises(InadmissibleStateError) as want:
            system.check_admissible(reconstruct_all(op, data), "boundary trace")
        assert want.value.where == where
        state = timeint.CellAverageField(data, 0.0, grid, system)
        for stab in (False, True):
            config = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=stab)
            with pytest.raises(StepFailureError) as got:
                euler_adapted(state, 1e-4, config)
            assert got.value.where == where
            assert (got.value.part, got.value.time) == ("trace", 1e-4)
            assert str(got.value) == (
                f"step to t=0.0001 left the admissible set at sv={where[0]} trace={where[1]}"
            )


class TestScalarNonFinite:
    """Scalar runs reject non-finite states with the same named errors as Euler."""

    @pytest.mark.parametrize("system", [advection_system(1.0), burgers_system()],
                             ids=["advection", "burgers"])
    @pytest.mark.parametrize("stab", [False, True])
    def test_nan_average_fails_the_trace_check(self, system, stab):
        grid = build_grid(0.0, 2.0, 10, 4)
        state = init_field(lambda x: np.sin(np.pi * x) + 0.5, grid, system, 8)
        data = state.data.copy()
        data[6, 2, 0] = np.nan
        config = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=stab)
        with pytest.raises(StepFailureError, match="sv=6 trace=0") as err:
            euler_adapted(state.with_data(data), 1e-3, config)
        assert (err.value.where, err.value.part) == ((6, 0), "trace")

    @pytest.mark.parametrize("system", [advection_system(1.0), burgers_system()],
                             ids=["advection", "burgers"])
    @pytest.mark.parametrize("stab", [False, True])
    def test_non_finite_stage_end_fails_the_step(self, system, stab):
        # An infinite step turns every average non-finite: inf * 0 is nan.
        grid = build_grid(0.0, 2.0, 10, 4)
        state = init_field(lambda x: np.sin(np.pi * x) + 0.5, grid, system, 8)
        config = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=stab)
        with np.errstate(all="ignore"), pytest.raises(StepFailureError) as err:
            euler_adapted(state, np.inf, config)
        assert (err.value.where, err.value.part) == ((0, 0), "cv")


def smooth_state(name, n_sv=6, k=4):
    grid = build_grid(0.0, 2.0, n_sv, k)
    if name == "euler":
        system = euler_system()
        u0 = lambda x: primitive_to_conserved(1.0 + 0.2 * np.sin(np.pi * x), 0.5, 1.0)
    else:
        system = advection_system(1.0) if name == "advection" else burgers_system()
        u0 = lambda x: np.sin(np.pi * x) + 0.5
    return init_field(u0, grid, system, 8)


def state_with_bad_average(name, bad):
    """A smooth field whose average (2, 2) is nan, inf or of negative pressure."""
    state = smooth_state(name)
    data = state.data.copy()
    if bad == "pressure":
        rho, mom = data[2, 2, 0], data[2, 2, 1]
        data[2, 2, 2] = 0.5 * mom**2 / rho - 0.1
    else:
        data[2, 2, 0] = float(bad)
    return state.with_data(data)


BAD_AVERAGES = pytest.mark.parametrize(
    "name, bad",
    [("advection", "nan"), ("advection", "inf"), ("burgers", "nan"), ("burgers", "inf"),
     ("euler", "nan"), ("euler", "inf"), ("euler", "pressure")],
)


class TestIntegrateChecksItsInput:
    """integrate, and select_dt on its own, name the first bad average of the state."""

    @BAD_AVERAGES
    @pytest.mark.parametrize("stab", [False, True])
    def test_bad_average_is_named(self, name, bad, stab):
        state = state_with_bad_average(name, bad)
        config = SolverConfig(t_end=0.1, bc=PeriodicBC(), stabilization_enabled=stab)
        with pytest.raises(InadmissibleStateError, match="initial state") as err:
            integrate(state, config)
        assert err.value.where == (2, 2)

    @BAD_AVERAGES
    def test_select_dt_rejects_bad_average(self, name, bad):
        state = state_with_bad_average(name, bad)
        with pytest.raises(InadmissibleStateError, match="initial state") as err:
            select_dt(state, 0.1)
        assert err.value.where == (2, 2)


@st.composite
def stage_cases(draw):
    """A system and an admissible (N, k, m) field of it."""
    kind = draw(st.sampled_from(["advection", "burgers", "euler"]))
    shape = (draw(st.integers(2, 12)), draw(st.integers(2, 5)))
    if kind == "euler":
        rho, p = (draw(hnp.arrays(float, shape, elements=st.floats(0.1, 3.0))) for _ in "rp")
        v = draw(hnp.arrays(float, shape, elements=st.floats(-2.0, 2.0)))
        # Full-range fields mostly fail the stage with an inadmissible trace;
        # mild ones around (1.55, 0, 1.55) pass it and reach the correction.
        amp = draw(st.sampled_from([1.0, 0.05]))
        rho, v, p = 1.55 + amp * (rho - 1.55), amp * v, 1.55 + amp * (p - 1.55)
        system, data = euler_system(), primitive_to_conserved(rho, v, p)
    else:
        data = draw(hnp.arrays(float, shape + (1,), elements=st.floats(-3.0, 3.0)))
        if kind == "burgers":
            system = burgers_system()
        else:
            system = advection_system(draw(st.sampled_from([-1.5, 0.7, 2.0])))
    return system, data


def entropy_inequality_holds(grad, rates, f_star, widths, report):
    """Per SV, whether <dU/du, D + lambda v>_S <= F*_{i-1/2} - F*_{i+1/2}.

    ``grad`` (N, k, m) is dU/du of the stage's averages, ``rates`` its D and
    filter direction v, ``f_star`` the numerical entropy flux of its
    interface terms. Roundoff: 1e-12 of the magnitudes that cancel, those of
    the summed products and of the two entropy fluxes, plus a subnormal
    floor for the products' sum.
    """
    d, v = rates
    lam = report.lambda_final[:, None, None]
    production = np.einsum("ijc,ijc,j->i", grad, d + lam * v, widths)
    magnitude = np.einsum("ijc,ijc,j->i", np.abs(grad), np.abs(d) + lam * np.abs(v), widths)
    budget = f_star[:-1] - f_star[1:]
    tol = 1e-12 * (magnitude + np.abs(f_star[:-1]) + np.abs(f_star[1:]))
    tol += 4 * grad[0].size * np.finfo(float).smallest_subnormal
    return production <= budget + tol


def discrete_entropy_inequality_holds(system, u, new, dt, f_star, widths):
    """Per SV, whether sum_j h_j U(E(u))_j - sum_j h_j U(u)_j <= dt (F*_{i-1/2} - F*_{i+1/2}).

    The fully discrete form of the per-SV entropy inequality: ``u`` (N, k, m)
    is a stage's input averages, ``new`` its output E(u) = u + dt (D + lambda
    v) and ``f_star`` the numerical entropy flux of its interface terms. By
    convexity of U the left side exceeds dt <dU/du, D + lambda v>_S by the
    (dt^2/2) r.U''.r term, so above roundoff it fails wherever the
    semi-discrete form does, and on more SVs. Roundoff as in
    ``entropy_inequality_holds``: 1e-12 of the magnitudes that cancel, the
    two SV entropies and dt times the two entropy fluxes, plus a subnormal
    floor.
    """
    ent_u, ent_new = system.entropy_raw(u), system.entropy_raw(new)
    change = np.einsum("ij,j->i", ent_new, widths) - np.einsum("ij,j->i", ent_u, widths)
    magnitude = np.einsum("ij,j->i", np.abs(ent_new) + np.abs(ent_u), widths)
    budget = dt * (f_star[:-1] - f_star[1:])
    tol = 1e-12 * (magnitude + dt * (np.abs(f_star[:-1]) + np.abs(f_star[1:])))
    tol += 4 * u[0].size * np.finfo(float).smallest_subnormal
    return change <= budget + tol


def assert_entropy_inequality(grad, rates, f_star, widths, report):
    """The per-SV entropy inequality on every SV whose correction was neither
    clamped nor a denominator fallback; returns how many SVs it checked."""
    checked = ~report.clamped & report.usable
    assert np.all(entropy_inequality_holds(grad, rates, f_star, widths, report)[checked])
    return int(np.count_nonzero(checked))


# Per builtin, the SV-stages of its first 20 steps that fail the per-SV
# entropy inequality: (denominator fallbacks, budget excess cut by the cap,
# the rest). Of 2400 SV-stages (720 for the density bump, 1800 for
# advect-rect). No failing SV with a usable denominator escapes the cap.
FAILING_SV_STAGES = {
    "sod": (390, 0, 0),
    "lax": (167, 0, 0),
    "density-bump": (0, 329, 0),
    "burgers-sine": (0, 1200, 0),
    "advect-rect": (13, 0, 0),
}

# Per builtin, the SV-stages of the same runs that fail the fully discrete
# form of the inequality, and how many of those pass the semi-discrete one.
# The semi-discrete failures of sod (256) and lax (all 167) that the fully
# discrete form does not see are constant SVs, denominator fallbacks whose
# D is roundoff: E(u) rounds back to u, or U moves by an ulp.
FAILING_SV_STAGES_DISCRETE = {
    "sod": (428, 294),
    "lax": (8, 8),
    "density-bump": (425, 96),
    "burgers-sine": (2108, 908),
    "advect-rect": (110, 97),
}


class TestStageInvariants:
    """One real stage on random admissible fields: a named error, or an admissible
    field of the same total mass, with sigma <= 0 on every interface and, with
    the stabilization on, the per-SV entropy inequality on every SV whose
    correction was neither clamped nor a denominator fallback."""

    @pytest.mark.parametrize("stab", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(case=stage_cases())
    def test_stage_keeps_invariants(self, stab, case):
        system, data = case
        n_sv, k, _ = data.shape
        grid = build_grid(0.0, 1.0, n_sv, k)
        state = timeint.CellAverageField(data, 0.0, grid, system)
        config = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=stab)
        try:
            dt = select_dt(state, 0.1)
        except DegenerateSpeedError:
            assume(False)
        seen, rates = [], []
        real_terms, real_correction = timeint.interface_terms, timeint.compute_correction

        def recording(*args, **kwargs):
            seen.append(real_terms(*args, **kwargs))
            return seen[-1]

        def recording_rates(*args, **kwargs):
            rates.append(args[2].copy())  # D and the filter direction v
            return real_correction(*args, **kwargs)

        with mock.patch.object(timeint, "interface_terms", recording), \
                mock.patch.object(timeint, "compute_correction", recording_rates):
            try:
                new, report = euler_adapted(state, dt, config)
            except StepFailureError:
                return
        assert np.all(system.admissible(new.data))
        # Roundoff: 1e-13 of the largest component's width-weighted L1 total,
        # plus an absolute floor where the arithmetic is subnormal and has no
        # relative precision: a few half-ulps per CV in the update and the
        # mass sum, and in the flux differences, which dt ~ h/|u| magnifies
        # (a Burgers field of |u| ~ 1e-160 has a subnormal flux).
        scale = np.max(np.einsum("j,ijc->c", grid.cv_widths, np.abs(data)))
        floor = 8 * data.size * (1.0 + dt) * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(new.total_mass() - state.total_mass()) <= 1e-13 * scale + floor)
        if not stab:
            # The pure stage builds its LLF flux alone: no interface record,
            # no correction.
            assert seen == [] and rates == [] and report is None
            return
        (terms,) = seen
        assert np.all(terms.sigma <= 0.0)
        (rates_seen,) = rates
        assert_entropy_inequality(system.entropy_gradient_raw(data), rates_seen, terms.f_star,
                                  grid.cv_widths, report)

    @pytest.mark.parametrize(
        "name, n_sv",
        [("sod", 40), ("lax", 40), ("density-bump", 12), ("burgers-sine", 40), ("advect-rect", 30)],
    )
    def test_entropy_inequality_along_builtin_runs(self, name, n_sv):
        # Every stage of the first steps of a builtin run, on the solver's
        # plan: the terms come from the arguments of the real correction.
        state, config = builtin_setup(name, n_sv=n_sv)
        system, grid = state.system, state.grid
        dt = select_dt(state, config.cfl)
        plan = timeint._StagePlan(grid, system)
        stages, outputs = [], []
        real, real_stage = timeint.compute_correction, timeint.euler_adapted

        def recording(entropy, gradient, rates, terms, *args, **kwargs):
            report = real(entropy, gradient, rates, terms, *args, **kwargs)
            stages.append((gradient.copy(), rates.copy(), terms.f_star.copy(), terms.d_llf.copy(),
                           report))
            return report

        def recording_stage(stage_state, stage_dt, *args, **kwargs):
            before = stage_state.data.copy()
            new, report = real_stage(stage_state, stage_dt, *args, **kwargs)
            outputs.append((before, new.data.copy(), stage_dt))
            return new, report

        with mock.patch.object(timeint, "compute_correction", recording), \
                mock.patch.object(timeint, "euler_adapted", recording_stage):
            for _ in range(20):
                state, _ = ssp_rk3_step(state, dt, config, plan=plan)
        checked = sum(assert_entropy_inequality(g, r, f, grid.cv_widths, rep)
                      for g, r, f, _, rep in stages)
        assert len(stages) == 60 and checked > 0
        # The SV-stages that fail the inequality, split into denominator
        # fallbacks, SVs whose budget excess the LLF-dissipation cap cut
        # (excess > cap_l + cap_r, from compute_correction's own product, so
        # the split is exact) and the rest, pinned with the 4.3 % that
        # roundoff moves the clamp flags by: a change that widens any of the
        # three sets shows here.
        failing = np.zeros(3, dtype=int)
        for g, r, f, scale, rep in stages:
            fails = ~entropy_inequality_holds(g, r, f, grid.cv_widths, rep)
            production = np.einsum("ijc,bijc,j->bi", g, r, grid.cv_widths)[0]
            cap = np.maximum(scale, 0.0)
            capped = production - (f[:-1] - f[1:]) > cap[:-1] + cap[1:]
            usable = fails & rep.usable
            failing += [np.count_nonzero(fails & ~rep.usable),
                        np.count_nonzero(usable & capped),
                        np.count_nonzero(usable & ~capped)]
        want = np.array(FAILING_SV_STAGES[name])
        assert np.all(np.abs(failing - want) <= 0.043 * want), failing
        # The fully discrete form on each stage's output E(u), pinned the
        # same way: the SV-stages that fail it, and of those the ones that
        # pass the semi-discrete form.
        discrete = np.zeros(2, dtype=int)
        for (g, r, f, _, rep), (u, new, stage_dt) in zip(stages, outputs, strict=True):
            fails = ~discrete_entropy_inequality_holds(system, u, new, stage_dt, f,
                                                       grid.cv_widths)
            semi = entropy_inequality_holds(g, r, f, grid.cv_widths, rep)
            discrete += [np.count_nonzero(fails), np.count_nonzero(fails & semi)]
        want = np.array(FAILING_SV_STAGES_DISCRETE[name])
        assert np.all(np.abs(discrete - want) <= 0.043 * want), discrete
