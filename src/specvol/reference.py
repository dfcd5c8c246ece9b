"""Reference solvers, exact solutions and error norms.

The workhorse reference is a first-order finite-volume scheme with the
classical (global) Lax-Friedrichs flux on a fine uniform grid, the same
yardstick the shock-tube comparisons use. Smooth and self-similar cases have
closed-form solutions instead.

The Lax-Friedrichs loop keeps its state in one (n+2, m) array whose two
ghost cells the boundary condition's ``ghosts`` rule fills every step, and
each step's interface fluxes, jumps and updates in three buffers allocated
once per call, so a step allocates only what the system's methods return.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import gauss_legendre_rule
from .riemann import _check_bc
from .systems import ConservationSystem
from .timeint import CellAverageField, _evaluate, _quadrature_batches

__all__ = [
    "MIN_CELLS",
    "REFERENCE_CFL",
    "ReferenceSolution",
    "lax_friedrichs_solver",
    "exact_advection",
    "exact_burgers_rarefaction",
    "exact_euler_density_bump",
    "error_norms",
    "observed_order",
]


MIN_CELLS = 10  # the fewest cells lax_friedrichs_solver accepts
REFERENCE_CFL = 0.9  # the CFL number of lax_friedrichs_solver's steps


@dataclass(frozen=True)
class ReferenceSolution:
    positions: np.ndarray = field(repr=False)  # (n,) sorted cell centers
    values: np.ndarray = field(repr=False)  # (n, m)
    provenance: str = "fine-FV"

    def sample(self, x) -> np.ndarray:
        """Componentwise linear interpolation at positions x."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (self.values.shape[1],))
        for c in range(self.values.shape[1]):
            out[..., c] = np.interp(x, self.positions, self.values[:, c])
        return out


def lax_friedrichs_solver(
    system: ConservationSystem,
    u0,
    a: float,
    b: float,
    n_cells: int,
    t_end: float,
    bc,
) -> ReferenceSolution:
    """First-order FV reference with the global Lax-Friedrichs flux.

    Interface flux 0.5(f_l + f_r) - (dx / (2 dt))(u_r - u_l) on a uniform
    grid of midpoint-sampled cells. The step size follows the CFL condition
    at ``REFERENCE_CFL`` against the current maximum signal speed (shock
    breakup can raise it well above the initial value), with a shortened
    final step onto t_end. A ``bc`` that is neither a ``PeriodicBC`` nor a
    ``FixedBC``, or a ``t_end`` that ``SolverConfig`` would reject (not
    positive and finite), raises ``ValueError`` before any work.
    """
    if n_cells < MIN_CELLS:
        raise ValueError(f"need at least {MIN_CELLS} cells, got {n_cells}")
    if not 0.0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    _check_bc(bc)
    dx = (b - a) / n_cells
    centers = a + dx * (np.arange(n_cells) + 0.5)
    m = system.m
    # The cells and one ghost cell at each end; u is the view of the cells.
    ext = np.empty((n_cells + 2, m))
    u = ext[1:-1]
    u[...] = _evaluate(u0, centers, m)
    system.check_admissible(u, "reference initial data")

    flux = np.empty((n_cells + 1, m))
    jump = np.empty((n_cells + 1, m))
    du = np.empty((n_cells, m))

    t = 0.0
    check_every = 200
    steps = 0
    while t < t_end - 1e-14 * max(t_end, 1.0):
        c_now = float(np.max(system.max_signal_speed_raw(u)))
        if c_now <= 0.0:
            break  # nothing propagates; the field is already final
        dt = min(REFERENCE_CFL * dx / c_now, t_end - t)
        ext[0], ext[-1] = bc.ghosts(u[0], u[-1])
        f = system.flux_raw(ext)
        lam = dx / (2.0 * dt)
        # flux = 0.5 (f_l + f_r) - lam (u_r - u_l), u += (dt/dx)(flux_l - flux_r):
        # each operation with its operands in the plain expressions' order,
        # so the result is bitwise theirs.
        np.add(f[:-1], f[1:], out=flux)
        flux *= 0.5
        np.subtract(ext[1:], ext[:-1], out=jump)
        jump *= lam
        flux -= jump
        np.subtract(flux[:-1], flux[1:], out=du)
        du *= dt / dx
        u += du
        t += dt
        steps += 1
        if steps % check_every == 0:
            system.check_admissible(u, f"reference data at t={t:.6g}")
    system.check_admissible(u, "reference final data")
    return ReferenceSolution(positions=centers, values=u, provenance="fine-FV")


def exact_advection(u0, velocity: float, t: float, x, a: float, b: float):
    """Exact periodic advection: u0 evaluated at x - v t wrapped into [a, b].

    A scalar x gives u0's own return value; an array x gives an array of
    x's shape, from one call of u0 on all positions when u0 takes arrays.
    """
    x = np.asarray(x, dtype=float)
    shifted = a + np.mod(x - velocity * t - a, b - a)
    if x.ndim == 0:
        return u0(float(shifted))
    return _evaluate(u0, shifted.ravel(), 1).reshape(x.shape)


def exact_burgers_rarefaction(t: float, x):
    """Self-similar fan for the step -1 -> 1 at x = 1: valid while inside [0, 2].

    u = -1 for x <= 1 - t, (x - 1)/t inside the fan, 1 for x >= 1 + t.
    """
    x = np.asarray(x, dtype=float)
    if t <= 0.0:
        return np.where(x <= 1.0, -1.0, 1.0)
    return np.clip((x - 1.0) / t, -1.0, 1.0)


def exact_euler_density_bump(t: float, x):
    """Advected Gaussian density bump: rho = 1 + exp(-(x-5-t)^2/2), v = p = 1.

    The velocity and pressure stay constant, so the density rides along the
    uniform flow unchanged. Returns primitive (rho, v, p) arrays.
    """
    x = np.asarray(x, dtype=float)
    rho = 1.0 + np.exp(-0.5 * (x - 5.0 - t) ** 2)
    return rho, np.ones_like(rho), np.ones_like(rho)


def _exact_cv_averages(exact, grid, m: int) -> np.ndarray:
    """12-point Gauss-Legendre cell averages of an exact state function on the grid.

    ``exact`` is called on batches of quadrature nodes, as in ``init_field``.
    """
    nodes, weights = gauss_legendre_rule(12)
    lo = grid.cv_edges[:, :-1]
    hi = grid.cv_edges[:, 1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out = np.zeros((grid.num_sv, grid.num_cv, m))
    for q, vals in _quadrature_batches(exact, mid, half, nodes, m):
        out += 0.5 * weights[q] * vals
    return out


def error_norms(
    numerical: CellAverageField, reference, norm: str = "L1", component=None
) -> float:
    """Discrete L1 or L2 distance between a field and a reference.

    ``reference`` is either a callable x -> (n_points, m) of exact states
    (compared through exact CV averages) or a :class:`ReferenceSolution`
    (sampled at CV midpoints). ``component`` restricts the norm to the state
    component of that index, -1 the last; by default all components
    contribute. An index outside -m..m-1 raises ``ValueError``.
    """
    grid = numerical.grid
    m = numerical.system.m
    if component is not None and not -m <= component < m:
        raise ValueError(f"component {component} out of range for m = {m}")
    if callable(reference):
        ref = _exact_cv_averages(reference, grid, m)
    else:
        ref = reference.sample(grid.cv_centers().ravel()).reshape(grid.num_sv, grid.num_cv, m)
    diff = numerical.data - ref
    if component is not None:
        diff = diff[..., component, None]
    if norm == "L1":
        return float(np.einsum("j,ijc->", grid.cv_widths, np.abs(diff)))
    if norm == "L2":
        return float(np.sqrt(np.einsum("j,ijc,ijc->", grid.cv_widths, diff, diff)))
    raise ValueError(f"unknown norm {norm!r}; use 'L1' or 'L2'")


def observed_order(errors, resolutions) -> np.ndarray:
    """Per-pair experimental order: ln(e1/e2) / ln(N2/N1) for consecutive runs.

    Raises ``ValueError`` for sequences of unequal length or shorter than 2,
    and for two consecutive equal resolutions, which give no order.
    """
    errors = np.asarray(errors, dtype=float)
    ns = np.asarray(resolutions, dtype=float)
    if errors.size != ns.size or errors.size < 2:
        raise ValueError("need matching error/resolution sequences of length >= 2")
    if np.any(ns[1:] == ns[:-1]):
        raise ValueError(f"consecutive resolutions must differ, got {ns.tolist()}")
    return np.log(errors[:-1] / errors[1:]) / np.log(ns[1:] / ns[:-1])
