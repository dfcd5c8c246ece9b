"""Tests of the benchmark's own oracles: ``python3 -m pytest perfbench``."""

import math

import numpy as np
import pytest

from oracles import (
    EulerRiemann,
    bump_density_averages,
    burgers_characteristic,
    cell_averages,
    gauss_legendre,
)

SOD = ((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_gauss_legendre_is_exact_to_degree_2n_minus_1(n):
    nodes, weights = gauss_legendre(n)
    for degree in range(2 * n):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert abs(np.dot(weights, nodes**degree) - exact) < 1e-14


def test_cell_averages_split_at_breakpoints():
    step = lambda x: np.where(x < 0.3, 1.0, 5.0)
    lo, hi = np.array([0.0, 0.25, 0.5]), np.array([0.25, 0.5, 1.0])
    avg = cell_averages(step, lo, hi, breakpoints=(0.3,))
    assert np.allclose(avg, [1.0, (0.05 * 1.0 + 0.2 * 5.0) / 0.25, 5.0], rtol=0, atol=1e-14)


def test_sod_star_state_matches_toro():
    sol = EulerRiemann(*SOD)
    assert abs(sol.p_star - 0.30313) < 5e-6
    assert abs(sol.u_star - 0.92745) < 5e-6


@pytest.mark.parametrize(
    "left,right,p_star,u_star",
    [
        # Toro, table 4.2: tests 2, 3 and 5.
        ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4), 0.00189, 0.0),
        ((1.0, 0.0, 1000.0), (1.0, 0.0, 0.01), 460.894, 19.5975),
        ((5.99924, 19.5975, 460.894), (5.99242, -6.19633, 46.0950), 1691.64, 8.68975),
    ],
)
def test_star_states_of_other_toro_tests(left, right, p_star, u_star):
    sol = EulerRiemann(left, right)
    assert abs(sol.p_star - p_star) <= 5e-5 * max(1.0, p_star)
    assert abs(sol.u_star - u_star) <= 5e-5 * max(1.0, abs(u_star))


def test_sod_sample_is_consistent_across_waves():
    sol = EulerRiemann(*SOD)
    speeds = sol.wave_speeds()
    assert len(speeds) == 4  # fan head, fan tail, contact, shock
    rho, u, p = sol.sample(np.array([-10.0, 10.0]))
    assert np.allclose(rho, [1.0, 0.125]) and np.allclose(p, [1.0, 0.1]) and np.allclose(u, 0.0)
    # The fan joins the undisturbed and star states continuously.
    eps = 1e-9
    inside = sol.sample(np.array([speeds[0] + eps, speeds[1] - eps]))
    assert abs(inside[0][0] - 1.0) < 1e-7
    assert abs(inside[2][1] - sol.p_star) < 1e-7
    # Rankine-Hugoniot across the shock: s [U] = [F(U)].
    s = speeds[3]
    (rho_a, rho_b), (u_a, u_b), (p_a, p_b) = sol.sample(np.array([s - eps, s + eps]))
    assert abs(s * (rho_a - rho_b) - (rho_a * u_a - rho_b * u_b)) < 1e-7


def test_sod_total_mass_grows_by_the_boundary_fluxes_only():
    sol = EulerRiemann(*SOD)
    x0, t = 5.0, 2.0
    edges = np.linspace(0.0, 10.0, 401)
    bps = [x0 + s * t for s in sol.wave_speeds()]
    avg = cell_averages(lambda x: sol.conserved(x, x0, t), edges[:-1], edges[1:], bps)
    totals = np.sum(avg * np.diff(edges)[:, None], axis=0)
    assert abs(totals[0] - 5.625) < 1e-12
    assert abs(totals[1] - 0.9 * t) < 1e-12  # momentum gain (p_L - p_R) t
    assert abs(totals[2] - 13.75) < 1e-12


def test_burgers_characteristic_solves_the_implicit_relation():
    x = np.linspace(0.0, 2.0, 101)
    t, phase = 0.3, 0.37
    u = burgers_characteristic(x, t, phase)
    assert np.max(np.abs(u - np.sin(np.pi * (x - u * t - phase)))) < 1e-14
    assert np.array_equal(burgers_characteristic(x, 0.0, phase), np.sin(np.pi * (x - phase)))
    with pytest.raises(ValueError):
        burgers_characteristic(x, 0.4)


def test_bump_averages_match_quadrature_and_total_mass():
    centre, length = 3.7, 10.0
    edges = np.linspace(0.0, length, 61)

    def rho(x):
        d = x - centre
        d = d - length * np.round(d / length)
        return 1.0 + np.exp(-0.5 * d * d)

    exact = bump_density_averages(edges[:-1], edges[1:], centre, length)
    opposite = centre + 0.5 * length
    quad = cell_averages(rho, edges[:-1], edges[1:], breakpoints=(opposite,), n_nodes=12)
    assert np.max(np.abs(exact - quad)) < 1e-14
    total = np.dot(exact, np.diff(edges))
    assert abs(total - (length + math.sqrt(2.0 * math.pi) * math.erf(5.0 / math.sqrt(2.0)))) < 1e-13
