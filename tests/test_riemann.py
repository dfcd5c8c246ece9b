import numpy as np
import pytest

from specvol.mesh import build_grid
from specvol.reconstruction import build_reconstruction, reconstruct_all
from specvol.riemann import (
    FixedBC,
    PeriodicBC,
    _sigma_from_parts,
    assemble_fluxes,
    dissipation_estimate,
    hll_flux,
    intermediate_state,
    interface_states,
    llf_entropy_flux,
    llf_flux,
)
from specvol.systems import advection_system, burgers_system, euler_system, primitive_to_conserved


def sample_states(system, rng, n):
    if system.m == 1:
        return rng.uniform(-3.0, 3.0, (n, 1))
    return primitive_to_conserved(
        rng.uniform(0.1, 3.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(0.05, 4.0, n)
    )


class TestLlfFlux:
    @pytest.mark.parametrize(
        "make", [lambda: advection_system(1.3), burgers_system, euler_system]
    )
    def test_consistency(self, make):
        system = make()
        rng = np.random.default_rng(1)
        u = sample_states(system, rng, 1000)
        np.testing.assert_allclose(llf_flux(u, u, system), system.flux(u), atol=1e-13)

    def test_advection_upwind(self):
        flux = llf_flux(np.array([1.0]), np.array([0.0]), advection_system(1.0))
        assert flux[0] == pytest.approx(1.0, abs=1e-15)

    def test_burgers_opposed_states(self):
        flux = llf_flux(np.array([1.0]), np.array([-1.0]), burgers_system())
        assert flux[0] == pytest.approx(1.5, abs=1e-15)


class TestHllFlux:
    def test_right_moving_waves_take_left_flux(self):
        sys = burgers_system()
        out = hll_flux(np.array([2.0]), np.array([1.0]), 0.5, 3.0, sys)
        np.testing.assert_allclose(out, sys.flux(np.array([2.0])))

    def test_left_moving_waves_take_right_flux(self):
        sys = burgers_system()
        out = hll_flux(np.array([-2.0]), np.array([-1.0]), -3.0, -0.5, sys)
        np.testing.assert_allclose(out, sys.flux(np.array([-1.0])))

    def test_consistency_with_straddling_speeds(self):
        sys = burgers_system()
        u = np.array([0.7])
        np.testing.assert_allclose(hll_flux(u, u, -1.0, 1.0, sys), sys.flux(u), atol=1e-15)

    @pytest.mark.parametrize("make", [burgers_system, euler_system])
    def test_symmetric_speeds_reduce_to_llf(self, make):
        system = make()
        rng = np.random.default_rng(9)
        u_l = sample_states(system, rng, 200)
        u_r = sample_states(system, rng, 200)
        c = system.max_signal_speed(u_l, u_r)
        np.testing.assert_allclose(
            hll_flux(u_l, u_r, -c, c, system), llf_flux(u_l, u_r, system), atol=1e-14
        )

    def test_misordered_speeds_rejected(self):
        with pytest.raises(ValueError):
            hll_flux(np.array([1.0]), np.array([0.0]), 1.0, -1.0, burgers_system())


class TestIntermediateState:
    def test_equal_states(self):
        u = np.array([0.3])
        np.testing.assert_array_equal(
            intermediate_state(u, u, 1.0, burgers_system()), u
        )

    def test_burgers_opposed(self):
        out = intermediate_state(np.array([1.0]), np.array([-1.0]), 1.0, burgers_system())
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_advection_example(self):
        out = intermediate_state(
            np.array([1.0]), np.array([0.0]), 1.0, advection_system(1.0)
        )
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_speed_unequal_states_rejected(self):
        with pytest.raises(ValueError):
            intermediate_state(np.array([1.0]), np.array([0.0]), 0.0, advection_system(0.0))


class TestDissipationEstimate:
    def test_equal_states_zero(self):
        sys = burgers_system()
        assert dissipation_estimate(np.array([0.8]), np.array([0.8]), sys)[()] == 0.0

    def test_burgers_shock_value(self):
        sigma = dissipation_estimate(np.array([1.0]), np.array([-1.0]), burgers_system())
        assert sigma[()] == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_advection_positive_raw_clamped(self):
        sigma = dissipation_estimate(np.array([1.0]), np.array([0.0]), advection_system(1.0))
        assert sigma[()] == 0.0

    @pytest.mark.parametrize(
        "make", [lambda: advection_system(1.5), burgers_system, euler_system]
    )
    def test_never_positive(self, make):
        system = make()
        rng = np.random.default_rng(13)
        u_l = sample_states(system, rng, 500)
        u_r = sample_states(system, rng, 500)
        assert np.all(dissipation_estimate(u_l, u_r, system) <= 0.0)

    def test_inadmissible_intermediate_counts_fallback(self):
        sys = euler_system()
        # near-vacuum opposed jets: the mean state loses pressure
        u_l = primitive_to_conserved(1e-2, -2.0, 1e-3)[None, :]
        u_r = primitive_to_conserved(1e-2, 2.0, 1e-3)[None, :]
        counters = {}
        sigma = dissipation_estimate(u_l, u_r, sys, counters)
        if counters.get("sigma_fallbacks"):
            assert sigma[0] == 0.0


def two_pass_sigma(u_l, u_r, f_l, f_r, c, ent_l, ent_r, eflux_l, eflux_r, system, counters):
    """sigma with the admissibility of u_lr and its entropy from separate passes."""
    live = c > 0.0
    sigma = np.zeros(np.shape(c))
    if np.any(live):
        c_safe = np.where(live, c, 1.0)
        u_lr = 0.5 * (u_l + u_r) + (f_l - f_r) / (2.0 * c_safe[..., None])
        ok = live & system.admissible(u_lr)
        fallbacks = int(np.count_nonzero(live & ~ok))
        if fallbacks:
            counters["sigma_fallbacks"] = fallbacks
        if np.any(ok):
            u_mid = np.where(ok[..., None], u_lr, u_l)
            raw = c * (2.0 * system.entropy_raw(u_mid) - ent_l - ent_r) + eflux_l - eflux_r
            sigma = np.where(ok, np.minimum(raw, 0.0), 0.0)
    return sigma


class TestSigmaOnePass:
    """sigma and its fallback count equal the two-pass formula bitwise."""

    @pytest.mark.parametrize("make", [lambda: advection_system(1.5), burgers_system, euler_system])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_two_pass_formula(self, make, seed):
        system = make()
        rng = np.random.default_rng(seed)
        u_l, u_r = sample_states(system, rng, 400), sample_states(system, rng, 400)
        u_r[:50] = u_l[:50]
        if system.m == 1:
            u_r[:20] = u_l[:20] = 0.0  # c = 0 on these lanes for Burgers
        c = system.max_signal_speed(u_l, u_r)
        if system.m == 3:
            # Below the true signal speed u_lr can lose its pressure: fallbacks.
            c[100:200] *= 0.05
        parts = (
            u_l, u_r, system.flux(u_l), system.flux(u_r), c, system.entropy(u_l),
            system.entropy(u_r), system.entropy_flux(u_l), system.entropy_flux(u_r), system,
        )
        got_counts, want_counts = {}, {}
        got = _sigma_from_parts(*parts, got_counts)
        want = two_pass_sigma(*parts, want_counts)
        assert got.tobytes() == want.tobytes()
        assert got_counts.get("sigma_fallbacks") == want_counts.get("sigma_fallbacks")
        if system.m == 3:
            assert want_counts["sigma_fallbacks"] > 0


class TestLlfEntropyFlux:
    @pytest.mark.parametrize(
        "make", [lambda: advection_system(2.0), burgers_system, euler_system]
    )
    def test_consistency(self, make):
        system = make()
        rng = np.random.default_rng(21)
        u = sample_states(system, rng, 1000)
        c = system.max_signal_speed(u, u)
        np.testing.assert_allclose(
            llf_entropy_flux(u, u, system, c), system.entropy_flux(u), atol=1e-13
        )

    def test_burgers_opposed(self):
        out = llf_entropy_flux(np.array([1.0]), np.array([-1.0]), burgers_system(), 1.0)
        assert out[()] == pytest.approx(0.0, abs=1e-15)

    def test_advection_example(self):
        out = llf_entropy_flux(np.array([1.0]), np.array([0.0]), advection_system(1.0), 1.0)
        assert out[()] == pytest.approx(0.5, abs=1e-15)


class TestAssembleFluxes:
    def grid_traces(self, data, k=4):
        grid = build_grid(0.0, 1.0, data.shape[0], k)
        op = build_reconstruction(grid)
        return grid, reconstruct_all(op, data)

    def test_constant_field(self):
        sys = advection_system(1.0)
        data = np.full((6, 4, 1), 2.0)
        _, traces = self.grid_traces(data)
        fluxes = assemble_fluxes(traces, sys, PeriodicBC())
        np.testing.assert_allclose(fluxes, 2.0, atol=1e-13)

    def test_shared_interface_values_identical(self):
        sys = burgers_system()
        rng = np.random.default_rng(2)
        data = rng.normal(size=(8, 4, 1))
        _, traces = self.grid_traces(data)
        fluxes = assemble_fluxes(traces, sys, PeriodicBC())
        np.testing.assert_array_equal(fluxes[:-1, -1], fluxes[1:, 0])
        np.testing.assert_array_equal(fluxes[-1, -1], fluxes[0, 0])

    def test_interior_boundaries_use_analytic_flux(self):
        sys = burgers_system()
        rng = np.random.default_rng(4)
        data = rng.normal(size=(5, 4, 1))
        _, traces = self.grid_traces(data)
        fluxes = assemble_fluxes(traces, sys, PeriodicBC())
        np.testing.assert_allclose(fluxes[:, 1:-1], sys.flux(traces[:, 1:-1]), atol=1e-15)

    def test_periodic_telescoping(self):
        sys = burgers_system()
        rng = np.random.default_rng(6)
        data = rng.normal(size=(10, 4, 1))
        grid, traces = self.grid_traces(data)
        fluxes = assemble_fluxes(traces, sys, PeriodicBC())
        total = np.sum(fluxes[:, :-1] - fluxes[:, 1:])
        assert abs(total) <= 1e-12

    def test_fixed_bc_uses_ghost_states(self):
        sys = burgers_system()
        data = np.full((4, 4, 1), 1.0)
        _, traces = self.grid_traces(data)
        bc = FixedBC(left=np.array([-1.0]), right=np.array([1.0]))
        fluxes = assemble_fluxes(traces, sys, bc)
        # left boundary: llf(-1, 1) = 0.5*(0.5+0.5) - 0.5*1*(1-(-1)) = -0.5
        assert fluxes[0, 0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert fluxes[-1, -1, 0] == pytest.approx(sys.flux(np.array([1.0]))[0], abs=1e-15)

    def test_interface_states_wrap(self):
        data = np.arange(8.0).reshape(2, 4, 1)
        _, traces = self.grid_traces(data)
        u_l, u_r = interface_states(traces, PeriodicBC())
        assert u_l.shape == (3, 1)
        np.testing.assert_array_equal(u_l[0], traces[-1, -1])
        np.testing.assert_array_equal(u_r[-1], traces[0, 0])
