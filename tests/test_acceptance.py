"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight cases (convergence study, shock tubes) sit at the end.
"""

import time

import numpy as np
import pytest

from specvol.cli import BUILTIN_SCENARIOS, run_convergence
from specvol.filters import apply_generator, build_generator, jensen_dissipation_check
from specvol.mesh import build_grid
from specvol.reconstruction import build_reconstruction, reconstruct_all
from specvol.reference import (
    error_norms,
    exact_burgers_rarefaction,
    lax_friedrichs_solver,
    least_squares_order,
)
from specvol.riemann import FixedBC, PeriodicBC, interface_terms
from specvol.systems import burgers_system, euler_system, primitive_to_conserved
from specvol.timeint import (
    SolverConfig,
    _StagePlan,
    discrete_l2,
    euler_adapted,
    init_field,
    integrate,
    select_dt,
    ssp_rk3_step,
)
from support import admissible_states


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:2d}] {description}: {status} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_reconstruction_exactness():
    start = time.perf_counter()
    grid = build_grid(0.0, 1.0, 5, 4)
    op = build_reconstruction(grid)
    rng = np.random.default_rng(2024)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    trace_err = 0.0
    avg_err = 0.0
    for _ in range(100):
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 4))
        anti = poly.integ()
        lo, hi = grid.cv_edges[:, :-1], grid.cv_edges[:, 1:]
        data = ((anti(hi) - anti(lo)) / (hi - lo))[..., None]
        traces = reconstruct_all(op, data)
        trace_err = max(trace_err, np.max(np.abs(traces[..., 0] - poly(grid.cv_edges))))
        coeffs = op.coefficients(data)
        mid = 0.5 * (grid.ref_nodes[:-1] + grid.ref_nodes[1:])
        half = 0.5 * np.diff(grid.ref_nodes)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        for i in range(grid.num_sv):
            vals = np.polynomial.legendre.legval(pts, coeffs[i, :, 0])
            avgs = 0.5 * np.sum(weights * vals, axis=1)
            avg_err = max(avg_err, np.max(np.abs(avgs - data[i, :, 0])))
    elapsed = time.perf_counter() - start
    report(
        1,
        "reconstruction exactness (100 cubics, k=4)",
        trace_err <= 1e-9 and avg_err <= 1e-10 and elapsed < 1.0,
        f"trace_err={trace_err:.2e} avg_err={avg_err:.2e} t={elapsed:.2f}s",
    )


def test_criterion_2_filter_generator_suite():
    start = time.perf_counter()
    worst = 0.0
    ranks_ok = True
    offdiag_ok = True
    for k in (2, 3, 4, 5):
        widths = build_grid(0.0, 1.0, 1, k).cv_widths
        h = build_generator(widths).matrix
        worst = max(worst, np.max(np.abs(h.sum(axis=1))))
        worst = max(worst, np.max(np.abs(widths @ h)))
        offdiag_ok &= bool(np.all(h - np.diag(np.diag(h)) >= 0.0))
        ranks_ok &= np.linalg.matrix_rank(h) == k - 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "filter generator suite (k in 2..5)",
        worst <= 1e-12 and offdiag_ok and ranks_ok and elapsed < 1.0,
        f"max_violation={worst:.2e} t={elapsed:.2f}s",
    )


def test_criterion_3_jensen_dissipation():
    rng = np.random.default_rng(7)
    widths = build_grid(0.0, 1.0, 1, 4).cv_widths
    gen = build_generator(widths)
    euler = euler_system(1.4)
    quad_ok = True
    euler_ok = True
    for _ in range(1000):
        tau = rng.uniform(0.0, 1.0 / gen.max_diag)
        u = rng.normal(size=(4, 1))
        quad_ok &= jensen_dissipation_check(gen, tau, u, lambda w: 0.5 * w[..., 0] ** 2)
        ue = admissible_states(euler, rng, 4)
        euler_ok &= jensen_dissipation_check(gen, tau, ue, euler.entropy_raw)
    report(
        3,
        "Jensen dissipation (1000 states, quadratic and Euler entropy)",
        quad_ok and euler_ok,
        "",
    )


def test_criterion_4_conservation_100_steps():
    grid = build_grid(0.0, 2.0, 50, 4)
    system = burgers_system()
    state0 = init_field(lambda x: np.sin(np.pi * x), grid, system, 8)
    scale = float(np.einsum("j,ijc->", grid.cv_widths, np.abs(state0.data)))
    worst = 0.0
    for stab in (True, False):
        config = SolverConfig(t_end=1.0, cfl=0.1, bc=PeriodicBC(), stabilization_enabled=stab)
        dt = select_dt(state0, config.cfl)
        state = state0
        for _ in range(100):
            state, _ = ssp_rk3_step(state, dt, config)
        drift = float(np.max(np.abs(state.total_mass() - state0.total_mass())))
        worst = max(worst, drift / scale)
    report(
        4,
        "conservation over 100 SSP-RK3 steps (stabilization on/off)",
        worst <= 1e-11,
        f"relative drift={worst:.2e}",
    )


def test_criterion_5_per_sv_entropy_inequality():
    grid = build_grid(0.0, 2.0, 50, 4)
    system = burgers_system()
    state = init_field(lambda x: np.sin(np.pi * x), grid, system, 8)
    config = SolverConfig(t_end=0.35, cfl=0.1, bc=PeriodicBC())
    state, _ = integrate(state, config)  # just past shock formation at 1/pi

    widths = grid.cv_widths
    dt = select_dt(state, config.cfl)
    plan = _StagePlan(grid, system)
    _, rep = euler_adapted(state, dt, config, plan=plan)
    # The stage's D from the CV-face fluxes it left in its plan, and its F*
    # from the interface terms of the interface states it left there.
    rhs = ((plan.faces[:-1] - plan.faces[1:]) / plan.widths).reshape(state.data.shape)
    side_terms = system.stage_terms(plan.sides.reshape(-1, 1), plan.n_sides)
    f_star = interface_terms(plan.sides, system, side_terms).f_star
    direction = apply_generator(plan.gen, state.data)
    grad = system.entropy_gradient_raw(state.data)
    corrected = rhs + rep.lambda_final[:, None, None] * direction
    lhs = np.einsum("ijc,ijc,j->i", grad, corrected, widths)
    budget = f_star[:-1] - f_star[1:]
    free = ~rep.clamped
    violation = float(np.max(lhs[free] - budget[free])) if np.any(free) else 0.0
    report(
        5,
        "per-SV entropy inequality near shock formation (unclamped SVs)",
        np.any(free) and violation <= 1e-8,
        f"unclamped={int(np.count_nonzero(free))}/{rep.num_sv} worst={violation:.2e}",
    )


def test_criterion_6_stability_contrast():
    start = time.perf_counter()
    grid = build_grid(0.0, 1.0, 60, 4)
    system = __import__("specvol").advection_system(1.0)
    state = init_field(
        lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0, grid, system, 8, (0.25, 0.75)
    )
    l2_0 = discrete_l2(state)
    ratios = {}
    for stab in (False, True):
        config = SolverConfig(
            t_end=1.0, cfl=0.1, bc=PeriodicBC(), stabilization_enabled=stab,
            diagnostics_every=20,
        )
        final, diag = integrate(state, config)
        ratios[stab] = (discrete_l2(final) / l2_0, max(diag.l2_values) / l2_0)
    elapsed = time.perf_counter() - start
    pure_final = ratios[False][0]
    adapted_max = ratios[True][1]
    report(
        6,
        "stability contrast on the advected rectangle",
        pure_final >= 1.01 and adapted_max <= 1.01 and elapsed < 30.0,
        f"pure L2(t=1)/L2(0)={pure_final:.4f} adapted max ratio={adapted_max:.4f} t={elapsed:.1f}s",
    )


def test_criterion_7_convergence_order(tmp_path):
    start = time.perf_counter()
    results, _ = run_convergence(
        BUILTIN_SCENARIOS["density-bump"], [10, 12, 14, 16, 18, 20, 22], str(tmp_path)
    )
    ns = [r[0] for r in results]
    l1 = [r[1] for r in results]
    eoc = least_squares_order(l1, ns)
    elapsed = time.perf_counter() - start
    report(
        7,
        "Euler density-bump convergence order (L1 least-squares)",
        eoc >= 3.5 and elapsed < 300.0,
        f"EOC={eoc:.2f} (band 4-5 expected) t={elapsed:.0f}s",
    )


_TUBE_STATES = {
    "sod": ((1.0, 0.0, 1.0), (0.125, 0.0, 0.1)),
    "lax": ((0.445, 0.698, 3.528), (0.5, 0.0, 0.571)),
}


def _tube_initial(name):
    """u0 of a tube: a 3-vector at a scalar position, (n, 3) at n positions."""
    left, right = (primitive_to_conserved(*state, 1.4) for state in _TUBE_STATES[name])
    return lambda x: np.where((np.asarray(x) < 5.0)[..., None], left, right)


def _run_tube(name):
    """SV run plus both FV references for one tube; safe to run per-process."""
    system = euler_system(1.4)
    u0 = _tube_initial(name)
    grid = build_grid(0.0, 10.0, 200, 4)
    state = init_field(u0, grid, system, 8, (5.0,))
    bc = FixedBC(left=u0(0.0), right=u0(10.0))
    config = SolverConfig(t_end=2.0, cfl=0.1, bc=bc, stabilization_enabled=True)
    final, _ = integrate(state, config)
    fine = lax_friedrichs_solver(system, u0, 0.0, 10.0, 30000, 2.0, bc)
    coarse = lax_friedrichs_solver(system, u0, 0.0, 10.0, 3000, 2.0, bc)
    dist = error_norms(final, fine, "L1", component=0)
    gap = float(
        np.sum(np.abs(coarse.values[:, 0] - fine.sample(coarse.positions)[:, 0]))
        * (10.0 / 3000)
    )
    finite = bool(np.all(np.isfinite(final.data)))
    admissible = bool(np.all(system.admissible(final.data)))
    return name, dist, gap, finite, admissible


def test_criterion_8_shock_tubes_vs_reference():
    from concurrent.futures import ProcessPoolExecutor

    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_run_tube, ["lax", "sod"]))
    elapsed = time.perf_counter() - start
    ok = all(finite and admissible and dist < gap for _, dist, gap, finite, admissible in results)
    details = "; ".join(f"{n}: L1={d:.3e} gap={g:.3e}" for n, d, g, _, _ in results)
    report(
        8,
        "shock tubes vs fine-FV reference (oracle-relative)",
        ok and elapsed < 120.0,
        details + f" t={elapsed:.0f}s",
    )


def test_criterion_9_burgers_rarefaction():
    grid = build_grid(0.0, 2.0, 200, 4)
    system = burgers_system()
    state = init_field(lambda x: -1.0 if x <= 1.0 else 1.0, grid, system, 8, (1.0,))
    bc = FixedBC(left=np.array([-1.0]), right=np.array([1.0]))
    config = SolverConfig(t_end=0.5, cfl=0.1, bc=bc, stabilization_enabled=True)
    final, _ = integrate(state, config)
    exact = lambda xs: exact_burgers_rarefaction(0.5, np.asarray(xs)).reshape(-1, 1)
    l1 = error_norms(final, exact, "L1")
    centers = grid.cv_centers().ravel()
    vals = final.data[:, :, 0].ravel()
    # fan edges at 0.5 and 1.5; allow three SV widths of kink neighbourhood
    margin = 3.0 * grid.sv_width
    outside = (np.abs(centers - 0.5) > margin) & (np.abs(centers - 1.5) > margin)
    overshoot = float(np.max(np.abs(vals[outside])) - 1.0)
    report(
        9,
        "Burgers rarefaction vs exact fan at t=0.5",
        l1 <= 5e-3 and overshoot <= 1e-6,
        f"L1={l1:.2e} outside-fan overshoot={overshoot:.2e}",
    )


def test_criterion_10_sigma_spot_check():
    sides = np.array([[[1.0]], [[-1.0]]])  # u_l = 1, u_r = -1 at one interface
    system = burgers_system()
    sigma = interface_terms(sides, system, system.stage_terms(sides.reshape(2, 1), 2)).sigma
    err = abs(float(sigma[0]) + 1.0 / 3.0)
    report(10, "sigma spot check, Burgers (1,-1)", err <= 1e-14, f"|sigma+1/3|={err:.1e}")
