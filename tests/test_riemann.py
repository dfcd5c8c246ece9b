from unittest import mock

import numpy as np
import pytest

from specvol import riemann
from specvol.mesh import build_grid
from specvol.reconstruction import build_reconstruction, reconstruct_all
from specvol.riemann import (
    FixedBC,
    PeriodicBC,
    _sigma_from_parts,
    interface_states,
    interface_terms,
    llf_flux,
)
from specvol.systems import advection_system, burgers_system, euler_system, primitive_to_conserved
from specvol.timeint import CellAverageField, SolverConfig, _StagePlan, euler_adapted, select_dt
from support import admissible_states, scenario_state, two_pass_sigma


def sides_of(u_l, u_r):
    """The (2, S, m) sides of the left states u_l and right states u_r."""
    return np.stack([np.atleast_2d(u_l), np.atleast_2d(u_r)])


def terms(u_l, u_r, system):
    """interface_terms of the left states u_l and right states u_r, each (S, m)."""
    sides = sides_of(u_l, u_r)
    side_terms = system.stage_terms(sides.reshape(-1, system.m), 2 * sides.shape[1])
    return interface_terms(sides, system, side_terms)


SYSTEMS = [lambda: advection_system(1.3), burgers_system, euler_system]


class TestLlfFlux:
    @pytest.mark.parametrize("make", SYSTEMS)
    def test_consistency(self, make):
        system = make()
        rng = np.random.default_rng(1)
        u = admissible_states(system, rng, 1000)
        for got in (llf_flux(sides_of(u, u), system), terms(u, u, system).flux):
            np.testing.assert_allclose(got, system.flux_raw(u), atol=1e-13)

    @pytest.mark.parametrize("make", SYSTEMS)
    def test_pure_and_stabilized_flux_agree(self, make):
        system = make()
        rng = np.random.default_rng(3)
        u_l, u_r = admissible_states(system, rng, 300), admissible_states(system, rng, 300)
        pure = llf_flux(sides_of(u_l, u_r), system)
        full = terms(u_l, u_r, system)
        # The flux carries c_max, so equal bytes mean equal c_max too.
        assert pure.tobytes() == full.flux.tobytes()

    def test_advection_upwind(self):
        flux = terms(np.array([1.0]), np.array([0.0]), advection_system(1.0)).flux
        assert flux[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_burgers_opposed_states(self):
        flux = terms(np.array([1.0]), np.array([-1.0]), burgers_system()).flux
        assert flux[0, 0] == pytest.approx(1.5, abs=1e-15)


class TestDissipationEstimate:
    def test_equal_states_zero(self):
        sys = burgers_system()
        assert terms(np.array([0.8]), np.array([0.8]), sys).sigma[0] == 0.0

    def test_burgers_shock_value(self):
        sigma = terms(np.array([1.0]), np.array([-1.0]), burgers_system()).sigma
        assert sigma[0] == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_advection_positive_raw_clamped(self):
        sigma = terms(np.array([1.0]), np.array([0.0]), advection_system(1.0)).sigma
        assert sigma[0] == 0.0

    @pytest.mark.parametrize(
        "make", [lambda: advection_system(1.5), burgers_system, euler_system]
    )
    def test_never_positive(self, make):
        system = make()
        rng = np.random.default_rng(13)
        u_l = admissible_states(system, rng, 500)
        u_r = admissible_states(system, rng, 500)
        assert np.all(terms(u_l, u_r, system).sigma <= 0.0)

    def test_inadmissible_intermediate_counts_fallback(self):
        sys = euler_system()
        # near-vacuum opposed jets: the mean state loses pressure
        u_l = primitive_to_conserved(1e-2, -2.0, 1e-3)[None, :]
        u_r = primitive_to_conserved(1e-2, 2.0, 1e-3)[None, :]
        got = terms(u_l, u_r, sys)
        if got.sigma_fallbacks:
            assert got.sigma[0] == 0.0


class TestSigmaOnePass:
    """sigma and its fallback count equal the two-pass formula bitwise."""

    @pytest.mark.parametrize("make", [lambda: advection_system(1.5), burgers_system, euler_system])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_two_pass_formula(self, make, seed):
        system = make()
        rng = np.random.default_rng(seed)
        u_l, u_r = admissible_states(system, rng, 400), admissible_states(system, rng, 400)
        u_r[:50] = u_l[:50]
        if system.m == 1:
            u_r[:20] = u_l[:20] = 0.0  # c = 0 on these lanes for Burgers
        c = np.maximum(system.max_signal_speed_raw(u_l), system.max_signal_speed_raw(u_r))
        if system.m == 3:
            # Below the true signal speed u_lr can lose its pressure: fallbacks.
            c[100:200] *= 0.05
        parts = (
            u_l, u_r, system.flux_raw(u_l), system.flux_raw(u_r), c, system.entropy_raw(u_l),
            system.entropy_raw(u_r), system.entropy_flux_raw(u_l), system.entropy_flux_raw(u_r),
            system,
        )
        got, got_fallbacks = _sigma_from_parts(*parts)
        want, want_fallbacks = two_pass_sigma(*parts)
        assert got.tobytes() == want.tobytes()
        assert type(got_fallbacks) is int and got_fallbacks == want_fallbacks
        if system.m == 3:
            assert want_fallbacks > 0

    @pytest.mark.parametrize("name, t_end, n_sv", [("sod", 0.3, None), ("burgers-sine", 0.35, 50)])
    def test_matches_two_pass_formula_on_stage_states(self, name, t_end, n_sv):
        # The parts a stage of the solver hands to sigma: its interface sides,
        # their fluxes, entropies and entropy fluxes, and their c_max.
        state, config = scenario_state(name, t_end, n_sv)
        real, seen = riemann._sigma_from_parts, []

        def recording(*parts):
            result = real(*parts)
            seen.append(([np.copy(p) if isinstance(p, np.ndarray) else p for p in parts], result))
            return result

        with mock.patch.object(riemann, "_sigma_from_parts", recording):
            euler_adapted(state, select_dt(state, config.cfl), config)
        ((parts, (got, got_fallbacks)),) = seen
        assert parts[0].shape == (state.grid.num_sv + 1, state.system.m)
        want, want_fallbacks = two_pass_sigma(*parts)
        assert np.count_nonzero(want) > 0
        assert got.tobytes() == want.tobytes()
        assert type(got_fallbacks) is int and got_fallbacks == want_fallbacks


class TestLlfEntropyFlux:
    @pytest.mark.parametrize(
        "make", [lambda: advection_system(2.0), burgers_system, euler_system]
    )
    def test_consistency(self, make):
        system = make()
        rng = np.random.default_rng(21)
        u = admissible_states(system, rng, 1000)
        got = terms(u, u, system)
        np.testing.assert_allclose(got.f_star, system.entropy_flux_raw(u), atol=1e-13)
        assert np.all(got.d_llf == 0.0)

    def test_burgers_opposed(self):
        out = terms(np.array([1.0]), np.array([-1.0]), burgers_system()).f_star
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_advection_example(self):
        out = terms(np.array([1.0]), np.array([0.0]), advection_system(1.0)).f_star
        assert out[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("make", SYSTEMS)
    def test_llf_dissipation_nonnegative(self, make):
        system = make()
        rng = np.random.default_rng(31)
        u_l, u_r = admissible_states(system, rng, 500), admissible_states(system, rng, 500)
        assert np.all(terms(u_l, u_r, system).d_llf >= 0.0)


class TestIntermediateState:
    """The mean state u_lr of the Riemann fan that sigma evaluates U at."""

    def u_lr(self, u_l, u_r, system):
        # The last U that ``interface_terms`` evaluates is sigma's, at u_lr.
        with mock.patch.object(system, "entropy_raw", wraps=system.entropy_raw) as spy:
            terms(u_l, u_r, system)
        (u_lr,), _ = spy.call_args
        return u_lr[0]

    def test_equal_states(self):
        u = np.array([0.3])
        np.testing.assert_array_equal(self.u_lr(u, u, burgers_system()), u)

    def test_burgers_opposed(self):
        out = self.u_lr(np.array([1.0]), np.array([-1.0]), burgers_system())
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_advection_example(self):
        out = self.u_lr(np.array([1.0]), np.array([0.0]), advection_system(1.0))
        assert out[0] == pytest.approx(1.0, abs=1e-15)


class TestInterfaceSpeed:
    @pytest.mark.parametrize("make", SYSTEMS)
    def test_speed_is_the_larger_side_speed(self, make):
        system = make()
        rng = np.random.default_rng(41)
        u_l, u_r = admissible_states(system, rng, 300), admissible_states(system, rng, 300)
        # c_max is read through the LLF flux it enters, in the flux's own
        # arithmetic: 0.5 (f_l + f_r) - (c_max/2)(u_r - u_l).
        c_max = np.maximum(system.max_signal_speed_raw(u_l), system.max_signal_speed_raw(u_r))
        mean = 0.5 * (system.flux_raw(u_l) + system.flux_raw(u_r))
        want = mean - (0.5 * c_max)[:, None] * (u_r - u_l)
        for got in (llf_flux(sides_of(u_l, u_r), system), terms(u_l, u_r, system).flux):
            assert got.tobytes() == want.tobytes()


class TestAssembleFluxes:
    """The CV-face fluxes one stage assembles, read from its plan as (N, k+1, m)."""

    def grid_traces(self, data, k=4):
        grid = build_grid(0.0, 1.0, data.shape[0], k)
        op = build_reconstruction(grid)
        return grid, reconstruct_all(op, data)

    def stage_fluxes(self, data, system, bc, k=4):
        n_sv = data.shape[0]
        grid = build_grid(0.0, 1.0, n_sv, k)
        plan = _StagePlan(grid, system)
        state = CellAverageField(data=data, time=0.0, grid=grid, system=system)
        cfg = SolverConfig(t_end=1.0, bc=bc, stabilization_enabled=False)
        euler_adapted(state, 1e-3, cfg, plan=plan)
        faces = plan.faces
        fluxes = np.empty((n_sv, k + 1, system.m))
        fluxes[:, :-1] = faces[:-1].reshape(n_sv, k, system.m)
        fluxes[:, -1] = faces[k::k]
        return fluxes

    def test_constant_field(self):
        sys = advection_system(1.0)
        data = np.full((6, 4, 1), 2.0)
        fluxes = self.stage_fluxes(data, sys, PeriodicBC())
        np.testing.assert_allclose(fluxes, 2.0, atol=1e-13)

    def test_shared_interface_values_identical(self):
        sys = burgers_system()
        rng = np.random.default_rng(2)
        data = rng.normal(size=(8, 4, 1))
        fluxes = self.stage_fluxes(data, sys, PeriodicBC())
        np.testing.assert_array_equal(fluxes[:-1, -1], fluxes[1:, 0])
        np.testing.assert_array_equal(fluxes[-1, -1], fluxes[0, 0])

    def test_interior_boundaries_use_analytic_flux(self):
        sys = burgers_system()
        rng = np.random.default_rng(4)
        data = rng.normal(size=(5, 4, 1))
        _, traces = self.grid_traces(data)
        fluxes = self.stage_fluxes(data, sys, PeriodicBC())
        np.testing.assert_array_equal(fluxes[:, 1:-1], sys.flux_raw(traces[:, 1:-1]))

    def test_periodic_telescoping(self):
        sys = burgers_system()
        rng = np.random.default_rng(6)
        data = rng.normal(size=(10, 4, 1))
        fluxes = self.stage_fluxes(data, sys, PeriodicBC())
        total = np.sum(fluxes[:, :-1] - fluxes[:, 1:])
        assert abs(total) <= 1e-12

    def test_fixed_bc_uses_ghost_states(self):
        sys = burgers_system()
        data = np.full((4, 4, 1), 1.0)
        bc = FixedBC(left=np.array([-1.0]), right=np.array([1.0]))
        fluxes = self.stage_fluxes(data, sys, bc)
        # left boundary: llf(-1, 1) = 0.5*(0.5+0.5) - 0.5*1*(1-(-1)) = -0.5
        assert fluxes[0, 0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert fluxes[-1, -1, 0] == pytest.approx(sys.flux_raw(np.array([1.0]))[0], abs=1e-15)

    def test_interface_states_wrap(self):
        data = np.arange(8.0).reshape(2, 4, 1)
        _, traces = self.grid_traces(data)
        u_l, u_r = interface_states(traces[:, 0], traces[:, -1], PeriodicBC())
        assert u_l.shape == (3, 1)
        np.testing.assert_array_equal(u_l[0], traces[-1, -1])
        np.testing.assert_array_equal(u_r[-1], traces[0, 0])


class TestBoundaryConditions:
    """Each boundary condition's ghost rule, and the one builder of the interface sides."""

    FIXED = FixedBC(left=np.array([-1.0]), right=np.array([2.0]))

    def test_periodic_ghosts_wrap(self):
        first, last = np.array([3.0]), np.array([4.0])
        left, right = PeriodicBC().ghosts(first, last)
        assert left is last and right is first

    def test_fixed_ghosts_are_the_frozen_states(self):
        left, right = self.FIXED.ghosts(np.array([3.0]), np.array([4.0]))
        assert left is self.FIXED.left and right is self.FIXED.right

    @pytest.mark.parametrize("bc", [PeriodicBC(), FIXED], ids=["periodic", "fixed"])
    def test_interface_states_fill_out(self, bc):
        first = np.arange(3.0).reshape(3, 1)
        last = first + 10.0
        buf = np.full((2, 4, 1), np.nan)
        u_l, u_r = interface_states(first, last, bc, out=buf)
        assert np.shares_memory(u_l, buf[0]) and np.shares_memory(u_r, buf[1])
        ghost_l, ghost_r = (last[-1], first[0]) if bc.periodic else (bc.left, bc.right)
        np.testing.assert_array_equal(buf[0], np.vstack([ghost_l, last]))
        np.testing.assert_array_equal(buf[1], np.vstack([first, ghost_r]))
