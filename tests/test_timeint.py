import dataclasses
import math

import numpy as np
import pytest

from specvol import timeint
from specvol.cli import BUILTIN_SCENARIOS
from specvol.exceptions import DegenerateSpeedError
from specvol.filters import apply_generator, build_generator
from specvol.mesh import build_grid
from specvol.reconstruction import build_reconstruction, reconstruct_all
from specvol.riemann import (
    FixedBC,
    PeriodicBC,
    assemble_fluxes,
    dissipation_estimate,
    interface_states,
    llf_entropy_flux,
)
from specvol.stabilization import CorrectionReport, compute_correction, corrected_rhs
from specvol.systems import advection_system, burgers_system, euler_system, primitive_to_conserved
from specvol.timeint import (
    SolverConfig,
    base_rhs,
    discrete_l2,
    euler_adapted,
    init_field,
    integrate,
    select_dt,
    ssp_rk3_step,
)


def setup_burgers(n_sv=20, k=4, domain=(0.0, 2.0)):
    grid = build_grid(domain[0], domain[1], n_sv, k)
    system = burgers_system()
    state = init_field(lambda x: np.sin(np.pi * x), grid, system, 8)
    return grid, system, state, build_reconstruction(grid), build_generator(grid.cv_widths)


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
    def test_builtin_scenarios_match_per_point(self, name):
        scen = BUILTIN_SCENARIOS[name]
        grid = build_grid(scen.a, scen.b, scen.n_sv, scen.n_cv)
        system = scen.build_system()
        u0, breaks = scen.initial_condition()
        state = init_field(u0, grid, system, scen.quad_order, breaks)
        ref = per_point_averages(u0, grid, system.m, scen.quad_order, breaks)
        assert np.array_equal(state.data, ref)

    def test_straddling_breakpoints_match_per_point(self):
        grid = build_grid(0.0, 1.0, 7, 4)  # 0.25 and 0.75 fall inside CVs
        u0 = BUILTIN_SCENARIOS["advect-rect"].initial_condition()[0]
        state = init_field(u0, grid, advection_system(1.0), 8, (0.25, 0.75))
        ref = per_point_averages(u0, grid, 1, 8, (0.25, 0.75))
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
        # one rejected array call per node and segment rank, then every point
        assert counted.array_calls == 2 * 8
        assert counted.scalar_calls == 8 * (grid.num_sv * grid.num_cv + 2)
        assert np.array_equal(state.data, per_point_averages(u0, grid, 1, 8, (0.25, 0.75)))

    def test_euler_vector_u0_takes_fast_path(self):
        grid = build_grid(0.0, 10.0, 12, 4)
        system = euler_system(1.4)
        u0 = CountingU0(
            lambda x: primitive_to_conserved(1.0 + np.exp(-0.5 * (x - 5.0) ** 2), 1.0, 1.0)
        )
        state = init_field(u0, grid, system, 8)
        assert (u0.array_calls, u0.scalar_calls) == (8, 0)
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
    def test_one_call_per_node_without_straddling(self, breaks):
        grid = build_grid(0.0, 1.0, 60, 4)  # 0.25 and 0.75 are SV edges
        u0 = CountingU0(lambda x: np.sin(np.pi * x))
        init_field(u0, grid, advection_system(1.0), 6, breaks)
        assert (u0.array_calls, u0.scalar_calls) == (6, 0)

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
    def test_constant_field_zero(self):
        grid, system, state, op, _ = setup_burgers()
        state = state.with_data(np.full_like(state.data, 1.7))
        rhs = base_rhs(state.data, op, system, PeriodicBC(), grid.cv_widths)
        np.testing.assert_allclose(rhs, 0.0, atol=1e-13)

    def test_periodic_total_telescopes(self):
        grid, system, state, op, _ = setup_burgers()
        rhs = base_rhs(state.data, op, system, PeriodicBC(), grid.cv_widths)
        assert abs(np.einsum("j,ijc->", grid.cv_widths, rhs)) <= 1e-12


class TestEulerAdapted:
    def test_constant_field_fixed_point(self):
        grid, system, state, op, gen = setup_burgers()
        state = state.with_data(np.full_like(state.data, 0.8))
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        new, rep = euler_adapted(state, 1e-3, op, gen, cfg)
        np.testing.assert_allclose(new.data, 0.8, atol=1e-13)
        np.testing.assert_allclose(rep.lambda_final, 0.0, atol=1e-13)

    def test_mass_conserved(self):
        grid, system, state, op, gen = setup_burgers()
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        new, _ = euler_adapted(state, 1e-3, op, gen, cfg)
        np.testing.assert_allclose(
            new.total_mass(), state.total_mass(), atol=1e-12
        )

    def test_stabilization_off_skips_report(self):
        grid, system, state, op, gen = setup_burgers()
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=False)
        _, rep = euler_adapted(state, 1e-3, op, gen, cfg)
        assert rep is None

    def test_nonpositive_dt_rejected(self):
        grid, system, state, op, gen = setup_burgers()
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        with pytest.raises(ValueError):
            euler_adapted(state, 0.0, op, gen, cfg)


def reference_stage(state, dt, op, gen, config):
    """One stabilized stage from the checked public API, as criterion 5 builds it."""
    system, widths = state.system, state.grid.cv_widths
    traces = reconstruct_all(op, state.data)
    fluxes = assemble_fluxes(traces, system, config.bc)
    rhs = (fluxes[:, :-1] - fluxes[:, 1:]) / widths[None, :, None]
    u_l, u_r = interface_states(traces, config.bc)
    c = system.max_signal_speed(u_l, u_r)
    counters = {}
    sigma = dissipation_estimate(u_l, u_r, system, counters)
    f_star = llf_entropy_flux(u_l, u_r, system, c)
    d_llf = 0.5 * c * np.einsum(
        "sc,sc->s", u_r - u_l, system.entropy_gradient(u_r) - system.entropy_gradient(u_l)
    )
    direction = apply_generator(gen, state.data)
    report = compute_correction(
        state.data, rhs, direction, sigma, f_star, widths, system, dt, gen,
        isinstance(config.bc, PeriodicBC), d_llf, config.lambda_max,
        counters.get("sigma_fallbacks", 0),
    )
    return state.data + dt * corrected_rhs(rhs, report.lambda_final, direction), report


def scenario_state(name, t_end, n_sv=None):
    """(state at t_end, config, op, gen) of a builtin scenario."""
    sc = BUILTIN_SCENARIOS[name]
    system = sc.build_system()
    u0, breakpoints = sc.initial_condition()
    grid = build_grid(sc.a, sc.b, n_sv or sc.n_sv, sc.n_cv)
    state = init_field(u0, grid, system, sc.quad_order, breakpoints)
    bc = PeriodicBC() if sc.bc == "periodic" else FixedBC(left=u0(sc.a), right=u0(sc.b))
    config = SolverConfig(t_end=t_end, cfl=sc.cfl, bc=bc)
    state, _ = integrate(state, config)
    return state, config, build_reconstruction(grid), build_generator(grid.cv_widths)


class TestStageMatchesCheckedApi:
    """The solver's stage equals the same stage built from the checked API, bitwise."""

    @pytest.mark.parametrize(
        "name, t_end, n_sv",
        [("sod", 0.3, None), ("burgers-sine", 0.35, 50), ("advect-rect", 0.1, None)],
    )
    def test_stage_bitwise(self, name, t_end, n_sv):
        state, config, op, gen = scenario_state(name, t_end, n_sv)
        dt = select_dt(state.grid, state, state.system, config.cfl)
        new, report = euler_adapted(state, dt, op, gen, config)
        want_data, want = reference_stage(state, dt, op, gen, config)
        # The correction acts somewhere, so every report field is exercised.
        assert np.count_nonzero(report.lambda_final > 0.0) > 0
        assert new.data.tobytes() == want_data.tobytes()
        for f in dataclasses.fields(CorrectionReport):
            got, expected = getattr(report, f.name), getattr(want, f.name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and got.shape == expected.shape, f.name
                assert got.tobytes() == expected.tobytes(), f.name
            else:
                assert got == expected, f.name


class TestSspRk3:
    def test_constant_fixed_point(self):
        grid, system, state, op, gen = setup_burgers()
        state = state.with_data(np.full_like(state.data, -0.4))
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        new, _ = ssp_rk3_step(state, 1e-3, op, gen, cfg)
        np.testing.assert_allclose(new.data, -0.4, atol=1e-13)
        assert new.time == pytest.approx(1e-3)

    def test_third_order_in_time(self):
        # smooth advection; Richardson: halving dt cuts the new-error by ~8
        grid = build_grid(0.0, 1.0, 16, 4)
        system = advection_system(1.0)
        state = init_field(lambda x: np.sin(2 * np.pi * x), grid, system, 10)
        op = build_reconstruction(grid)
        gen = build_generator(grid.cv_widths)
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC(), stabilization_enabled=False)

        def advance(dt, steps):
            s = state
            for _ in range(steps):
                s, _ = ssp_rk3_step(s, dt, op, gen, cfg)
            return s.data

        ref = advance(0.0025, 16)  # fine-dt proxy for the dt -> 0 limit
        err_coarse = np.max(np.abs(advance(0.02, 2) - ref))
        err_fine = np.max(np.abs(advance(0.01, 4) - ref))
        order = np.log2(err_coarse / err_fine)
        assert order > 2.5

    def test_conservation_over_steps(self):
        grid, system, state, op, gen = setup_burgers(n_sv=30)
        cfg = SolverConfig(t_end=1.0, bc=PeriodicBC())
        dt = select_dt(grid, state, system, 0.1)
        s = state
        for _ in range(20):
            s, _ = ssp_rk3_step(s, dt, op, gen, cfg)
        np.testing.assert_allclose(s.total_mass(), state.total_mass(), atol=1e-12)


class TestSelectDt:
    def test_advection_formula(self):
        grid = build_grid(0.0, 1.0, 60, 4)
        system = advection_system(1.0)
        state = init_field(lambda x: 1.0, grid, system)
        assert select_dt(grid, state, system, 0.1) == pytest.approx(
            0.1 * grid.cv_widths.min(), rel=1e-14
        )

    def test_speed_doubling_halves_dt(self):
        grid = build_grid(0.0, 1.0, 10, 4)
        s1 = advection_system(1.0)
        s2 = advection_system(2.0)
        state = init_field(lambda x: 1.0, grid, s1)
        assert select_dt(grid, state, s2, 0.1) == pytest.approx(
            0.5 * select_dt(grid, state, s1, 0.1), rel=1e-14
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
        assert select_dt(grid, state, system, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_zero_speed_advection_allowed(self):
        grid = build_grid(0.0, 1.0, 5, 4)
        system = advection_system(0.0)
        state = init_field(lambda x: x, grid, system)
        assert select_dt(grid, state, system, 0.1) == pytest.approx(
            0.1 * grid.cv_widths.min()
        )

    def test_zero_speed_nonlinear_rejected(self):
        grid = build_grid(0.0, 1.0, 5, 4)
        system = burgers_system()
        state = init_field(lambda x: 0.0, grid, system)
        with pytest.raises(DegenerateSpeedError):
            select_dt(grid, state, system, 0.1)


class TestIntegrate:
    def test_lands_exactly_on_t_end(self):
        grid, system, state, op, gen = setup_burgers(n_sv=10)
        cfg = SolverConfig(t_end=0.0371, cfl=0.1, bc=PeriodicBC())
        final, _ = integrate(state, cfg, op, gen)
        assert final.time == 0.0371

    def test_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            grid, system, state, op, gen = setup_burgers(n_sv=15)
            cfg = SolverConfig(t_end=0.05, cfl=0.1, bc=PeriodicBC())
            final, _ = integrate(state, cfg, op, gen)
            results.append(final.data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_conservation_with_and_without_stabilization(self):
        for stab in (False, True):
            grid, system, state, op, gen = setup_burgers(n_sv=25)
            cfg = SolverConfig(t_end=0.1, cfl=0.1, bc=PeriodicBC(), stabilization_enabled=stab)
            final, _ = integrate(state, cfg, op, gen)
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
        scen = BUILTIN_SCENARIOS["sod"]
        grid = build_grid(scen.a, scen.b, 40, 4)
        u0, breaks = scen.initial_condition()
        state = init_field(u0, grid, scen.build_system(), 8, breaks)
        bc = FixedBC(left=u0(scen.a), right=u0(scen.b))
        final, diag = integrate(state, SolverConfig(t_end=0.1, cfl=0.1, bc=bc))
        assert len(reports) == 3 * diag.steps
        expected = np.sum([r.clamped for r in reports], axis=0)
        assert expected.sum() > 0
        np.testing.assert_array_equal(diag.clamp_totals, expected)
        assert diag.last_report is reports[-1]

    def test_l2_diagnostics_recorded(self):
        grid, system, state, op, gen = setup_burgers(n_sv=10)
        cfg = SolverConfig(t_end=0.02, cfl=0.1, bc=PeriodicBC(), diagnostics_every=5)
        final, diag = integrate(state, cfg, op, gen)
        assert len(diag.l2_times) >= 2
        assert diag.l2_times[0] == 0.0
        assert diag.l2_times[-1] == pytest.approx(0.02)
        assert diag.l2_values[0] == pytest.approx(discrete_l2(state))
