import numpy as np
import pytest

from specvol import timeint
from specvol.cli import BUILTIN_SCENARIOS
from specvol.mesh import build_grid
from specvol.reference import (
    REFERENCE_CFL,
    ReferenceSolution,
    _exact_cv_averages,
    error_norms,
    exact_advection,
    exact_burgers_rarefaction,
    exact_euler_density_bump,
    lax_friedrichs_solver,
    least_squares_order,
    observed_order,
)
from specvol.exceptions import InadmissibleStateError
from specvol.riemann import FixedBC, PeriodicBC
from specvol.systems import (
    advection_system,
    burgers_system,
    euler_system,
    primitive_to_conserved,
)
from specvol.timeint import _evaluate, init_field


class TestLaxFriedrichsSolver:
    def test_constant_initial_data(self):
        sys = advection_system(1.0)
        ref = lax_friedrichs_solver(sys, lambda x: 0.7, 0.0, 1.0, 50, 0.3, PeriodicBC())
        np.testing.assert_allclose(ref.values, 0.7, atol=1e-13)

    def test_advection_refines_toward_exact(self):
        sys = advection_system(1.0)
        u0 = lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0
        errors = []
        for n in (200, 800):
            ref = lax_friedrichs_solver(sys, u0, 0.0, 1.0, n, 0.37, PeriodicBC())
            exact = exact_advection(u0, 1.0, 0.37, ref.positions, 0.0, 1.0)
            errors.append(np.sum(np.abs(ref.values[:, 0] - exact)) / n)
        assert errors[1] < errors[0]
        order = np.log(errors[0] / errors[1]) / np.log(4.0)
        assert 0.3 < order < 1.2

    def test_burgers_shock_position(self):
        # sine on [0, 2]: shock forms at x = 1 and stays there by symmetry
        sys = burgers_system()
        ref = lax_friedrichs_solver(
            sys, lambda x: np.sin(np.pi * x), 0.0, 2.0, 3000, 0.5, PeriodicBC()
        )
        vals = ref.values[:, 0]
        drop = np.diff(vals).argmin()
        assert ref.positions[drop] == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("name", ["sod", "lax"])
    def test_batched_initial_data_match_per_point(self, name):
        scen = BUILTIN_SCENARIOS[name]
        u0, _ = scen.initial_condition()
        calls = []

        def batched(x):
            calls.append(np.shape(x))
            return u0(x)

        scalar_only = lambda x: u0(float(x))  # float() rejects arrays: per-point path
        bc = FixedBC(left=u0(scen.a), right=u0(scen.b))
        runs = [
            lax_friedrichs_solver(scen.build_system(), f, scen.a, scen.b, 2000, 0.01, bc)
            for f in (batched, scalar_only)
        ]
        assert calls == [(2000,)]
        assert np.array_equal(runs[0].values, runs[1].values)

    def test_unknown_boundary_condition_rejected_before_any_work(self):
        calls = []

        def u0(x):
            calls.append(x)
            return np.zeros_like(x)

        with pytest.raises(ValueError, match="unknown boundary condition 'open'"):
            lax_friedrichs_solver(burgers_system(), u0, 0.0, 1.0, 20, 0.1, "open")
        assert calls == []

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            lax_friedrichs_solver(
                advection_system(1.0), lambda x: 0.0, 0.0, 1.0, 5, 0.1, PeriodicBC()
            )

    # SolverConfig's rule. t_end = inf is left out: a solver without the
    # check would loop forever on it.
    @pytest.mark.parametrize("t_end", [0.0, np.nan])
    def test_t_end_out_of_range_rejected_before_any_work(self, t_end):
        calls = []

        def u0(x):
            calls.append(x)
            return np.sin(np.pi * x)

        with pytest.raises(ValueError, match="t_end must be"):
            lax_friedrichs_solver(burgers_system(), u0, 0.0, 2.0, 20, t_end, PeriodicBC())
        assert calls == []


def lax_friedrichs_oracle(system, u0, a, b, n_cells, t_end, bc):
    """The reference loop on fresh arrays every step, as it was before it used
    buffers; returns (values, steps). The solver must match it bit for bit."""
    dx = (b - a) / n_cells
    centers = a + dx * (np.arange(n_cells) + 0.5)
    u = _evaluate(u0, centers, system.m)
    system.check_admissible(u, "reference initial data")

    periodic = isinstance(bc, PeriodicBC)
    if not periodic:
        ghost_l = np.asarray(bc.left, dtype=float)
        ghost_r = np.asarray(bc.right, dtype=float)
    ext = np.empty((n_cells + 2, system.m))

    t = 0.0
    check_every = 200
    steps = 0
    while t < t_end - 1e-14 * max(t_end, 1.0):
        c_now = float(np.max(system.max_signal_speed_raw(u)))
        if c_now <= 0.0:
            break
        dt = min(REFERENCE_CFL * dx / c_now, t_end - t)
        ext[1:-1] = u
        if periodic:
            ext[0] = u[-1]
            ext[-1] = u[0]
        else:
            ext[0] = ghost_l
            ext[-1] = ghost_r
        f = system.flux_raw(ext)
        lam = dx / (2.0 * dt)
        flux = 0.5 * (f[:-1] + f[1:]) - lam * (ext[1:] - ext[:-1])
        u = u + (dt / dx) * (flux[:-1] - flux[1:])
        t += dt
        steps += 1
        if steps % check_every == 0:
            system.check_admissible(u, f"reference data at t={t:.6g}")
    system.check_admissible(u, "reference final data")
    return u, steps


def _rect(x):
    return np.where((0.25 <= x) & (x <= 0.75), 1.0, 0.0)


def _oracle_case(name):
    """(system, u0, a, b, n_cells, t_end, bc) of one oracle comparison."""
    if name in ("sod", "lax", "density-bump"):
        scen = BUILTIN_SCENARIOS[name]
        u0, _ = scen.initial_condition()
        if scen.bc == "periodic":
            bc = PeriodicBC()
        else:
            bc = FixedBC(left=u0(scen.a), right=u0(scen.b))
        return scen.build_system(), u0, scen.a, scen.b, 1000, 2.0, bc
    if name == "advection-periodic":
        return advection_system(1.0), _rect, 0.0, 1.0, 400, 1.0, PeriodicBC()
    if name == "burgers-periodic":
        return burgers_system(), lambda x: np.sin(np.pi * x), 0.0, 2.0, 1000, 0.5, PeriodicBC()
    step = lambda x: np.where(x <= 1.0, -1.0, 1.0)  # burgers-fixed
    bc = FixedBC(left=np.array([-1.0]), right=np.array([1.0]))
    return burgers_system(), step, 0.0, 2.0, 1000, 0.5, bc


class TestLaxFriedrichsOracle:
    """The buffered loop gives the fresh-array loop's values, steps and errors."""

    @pytest.mark.parametrize(
        "name",
        ["advection-periodic", "burgers-periodic", "burgers-fixed", "sod", "lax", "density-bump"],
    )
    def test_bitwise_equal_to_fresh_array_loop(self, name):
        case = _oracle_case(name)
        want, steps = lax_friedrichs_oracle(*case)
        assert steps > 200  # past the first periodic admissibility check
        got = lax_friedrichs_solver(*case)
        assert got.values.shape == want.shape
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "case",
        [
            # Overflow: the fluxes of a 1e308 plateau are inf, its updates
            # NaN, and the check at step 200 names it.
            (advection_system(1.0), lambda x: 1e308 * _rect(x), 0.0, 1.0, 100, 100.0,
             PeriodicBC()),
            # A right ghost state of negative energy drives the last cell's
            # pressure negative, which makes the speed NaN and ends the loop;
            # the final check names it.
            (*_oracle_case("sod")[:-1],
             FixedBC(left=np.array([1.0, 0.0, 2.5]), right=np.array([0.125, 0.0, -1.0]))),
            # Inadmissible initial data.
            (euler_system(), lambda x: np.tile([1.0, 0.0, -1.0], (np.size(x), 1)),
             0.0, 1.0, 50, 0.1, PeriodicBC()),
        ],
        ids=["advection-overflow", "sod-unstable", "euler-initial"],
    )
    def test_inadmissible_data_raise_like_fresh_array_loop(self, case):
        with pytest.raises(InadmissibleStateError) as want:
            lax_friedrichs_oracle(*case)
        with pytest.raises(InadmissibleStateError) as got:
            lax_friedrichs_solver(*case)
        assert str(got.value) == str(want.value)
        assert got.value.where == want.value.where


class TestExactSolutions:
    def test_advection_identity_at_t0(self):
        u0 = lambda x: np.sin(2 * np.pi * x)
        xs = np.linspace(0, 1, 17)
        np.testing.assert_allclose(
            exact_advection(u0, 1.0, 0.0, xs, 0.0, 1.0), u0(xs), atol=1e-12
        )

    def test_advection_full_period(self):
        u0 = lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0
        xs = np.linspace(0.01, 0.99, 37)
        np.testing.assert_allclose(
            exact_advection(u0, 1.0, 1.0, xs, 0.0, 1.0), [u0(x) for x in xs]
        )

    def test_advection_array_shape_kept_for_scalar_and_array_u0(self):
        xs = np.linspace(0.01, 0.99, 12).reshape(3, 4)
        scalar_only = lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0
        batched = lambda x: np.where((0.25 <= x) & (x <= 0.75), 1.0, 0.0)
        a = exact_advection(scalar_only, 1.0, 0.3, xs, 0.0, 1.0)
        b = exact_advection(batched, 1.0, 0.3, xs, 0.0, 1.0)
        assert a.shape == b.shape == (3, 4)
        assert np.array_equal(a, b)

    def test_advection_half_period_shift(self):
        u0 = lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0
        assert exact_advection(u0, 1.0, 0.5, 0.9, 0.0, 1.0) == 1.0
        assert exact_advection(u0, 1.0, 0.5, 0.5, 0.0, 1.0) == 0.0

    def test_rarefaction_small_time_recovers_step(self):
        xs = np.array([0.0, 0.999, 1.001, 2.0])
        np.testing.assert_allclose(
            exact_burgers_rarefaction(1e-12, xs), [-1.0, -1.0, 1.0, 1.0]
        )

    def test_rarefaction_at_half(self):
        assert exact_burgers_rarefaction(0.5, 1.0) == pytest.approx(0.0)
        assert exact_burgers_rarefaction(0.5, 1.25) == pytest.approx(0.5)
        assert exact_burgers_rarefaction(0.5, 0.25) == -1.0
        assert exact_burgers_rarefaction(0.5, 1.75) == 1.0

    def test_rarefaction_self_similar_center(self):
        assert exact_burgers_rarefaction(0.25, 1.0) == pytest.approx(0.0)

    def test_density_bump_initial(self):
        rho, v, p = exact_euler_density_bump(0.0, 5.0)
        assert rho == pytest.approx(2.0)
        assert v == 1.0 and p == 1.0

    def test_density_bump_advects(self):
        rho, _, _ = exact_euler_density_bump(10.0, 15.0)
        assert rho == pytest.approx(2.0)

    def test_density_bump_velocity_pressure_constant(self):
        xs = np.linspace(0, 20, 41)
        for t in (0.0, 3.7, 10.0):
            _, v, p = exact_euler_density_bump(t, xs)
            np.testing.assert_array_equal(v, 1.0)
            np.testing.assert_array_equal(p, 1.0)


class TestErrorNorms:
    def make_field(self, fn, n_sv=10):
        grid = build_grid(0.0, 1.0, n_sv, 4)
        system = advection_system(1.0)
        return init_field(fn, grid, system, 10)

    def test_identical_fields_zero(self):
        state = self.make_field(lambda x: np.sin(2 * np.pi * x))
        exact = lambda xs: np.sin(2 * np.pi * np.asarray(xs)).reshape(-1, 1)
        assert error_norms(state, exact, "L1") < 1e-12
        assert error_norms(state, exact, "L2") < 1e-12

    def test_constant_offset(self):
        state = self.make_field(lambda x: 1.0)
        exact = lambda xs: np.full((np.size(xs), 1), 1.25)
        assert error_norms(state, exact, "L1") == pytest.approx(0.25, rel=1e-12)
        assert error_norms(state, exact, "L2") == pytest.approx(0.25, rel=1e-12)

    def test_reference_solution_sampling(self):
        state = self.make_field(lambda x: x)
        xs = np.linspace(0.0, 1.0, 1001)
        ref = ReferenceSolution(positions=xs, values=xs[:, None], provenance="exact")
        assert error_norms(state, ref, "L1") < 1e-6

    def test_metric_properties(self):
        rng = np.random.default_rng(41)
        grid = build_grid(0.0, 1.0, 6, 4)
        system = advection_system(1.0)
        base = init_field(lambda x: 0.0, grid, system)
        fields = [base.with_data(rng.normal(size=base.data.shape)) for _ in range(3)]
        zero = lambda xs: np.zeros((np.size(xs), 1))
        for f in fields:
            assert error_norms(f, zero, "L2") >= 0.0
        # triangle inequality through the zero reference
        a = error_norms(fields[0], zero, "L1")
        b = error_norms(fields[1], zero, "L1")
        both = fields[0].with_data(fields[0].data + fields[1].data)
        assert error_norms(both, zero, "L1") <= a + b + 1e-12

    @pytest.mark.parametrize("budget", [1, 100])
    def test_exact_averages_batched_match_one_node_per_call(self, monkeypatch, budget):
        grid = build_grid(0.0, 10.0, 12, 4)  # 48 CVs, 12 nodes
        calls = []

        def exact(x):
            calls.append(x.size)
            rho, v, p = exact_euler_density_bump(0.3, x)
            return np.stack([rho, rho * v, p / 0.4 + 0.5 * rho * v * v], axis=-1)

        batched = _exact_cv_averages(exact, grid, 3)
        assert calls == [48 * 12]
        monkeypatch.setattr(timeint, "QUAD_BATCH_POINTS", budget)
        calls.clear()
        split = _exact_cv_averages(exact, grid, 3)
        per_call = max(1, budget // 48)
        assert calls == [48 * min(per_call, 12 - q) for q in range(0, 12, per_call)]
        assert np.array_equal(split, batched)

    def euler_field(self):
        grid = build_grid(0.0, 10.0, 6, 4)
        u0 = lambda x: primitive_to_conserved(*exact_euler_density_bump(0.0, x))
        return init_field(u0, grid, euler_system(1.4))

    def test_component_selected_by_index(self):
        state = self.euler_field()
        zero = lambda xs: np.zeros((np.size(xs), 3))
        energy = error_norms(state, zero, "L1", component=2)
        assert energy > 0.0
        assert error_norms(state, zero, "L1", component=-1) == energy
        assert error_norms(state, zero, "L2", component=-3) == error_norms(
            state, zero, "L2", component=0
        )

    @pytest.mark.parametrize("component", [3, -4])
    def test_component_out_of_range_rejected(self, component):
        state = self.euler_field()
        with pytest.raises(ValueError, match="component"):
            error_norms(state, lambda xs: np.zeros((np.size(xs), 3)), "L1", component=component)

    def test_unknown_norm_rejected(self):
        state = self.make_field(lambda x: 0.0)
        with pytest.raises(ValueError):
            error_norms(state, lambda xs: np.zeros((np.size(xs), 1)), "Linf")


class TestObservedOrder:
    def test_exact_fourth_order(self):
        ns = np.array([10, 14, 20, 28])
        errs = ns**-4.0
        np.testing.assert_allclose(observed_order(errs, ns), 4.0, rtol=1e-12)

    def test_first_order(self):
        ns = np.array([8, 16, 32])
        np.testing.assert_allclose(observed_order(1.0 / ns, ns), 1.0, rtol=1e-12)

    def test_least_squares_slope(self):
        ns = np.array([10, 12, 14, 16])
        errs = 3.7 * ns**-4.5
        assert least_squares_order(errs, ns) == pytest.approx(4.5, rel=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            observed_order([1.0], [10])

    def test_equal_consecutive_resolutions_rejected(self):
        with pytest.raises(ValueError, match="consecutive resolutions must differ"):
            observed_order([1e-3, 1e-3], [10, 10])
        with pytest.raises(ValueError, match="consecutive resolutions must differ"):
            observed_order([1e-2, 1e-3, 1e-3], [8, 10, 10])
        # Equal resolutions apart are still a pair each with its own order.
        np.testing.assert_allclose(observed_order([4.0, 1.0, 4.0], [8, 16, 8]), [2.0, 2.0])


class TestFixedBcReference:
    def test_ghost_states_hold_plateaus(self):
        sys = burgers_system()
        u0 = lambda x: -1.0 if x <= 1.0 else 1.0
        bc = FixedBC(left=np.array([-1.0]), right=np.array([1.0]))
        ref = lax_friedrichs_solver(sys, u0, 0.0, 2.0, 400, 0.25, bc)
        assert ref.values[0, 0] == pytest.approx(-1.0, abs=1e-8)
        assert ref.values[-1, 0] == pytest.approx(1.0, abs=1e-8)
