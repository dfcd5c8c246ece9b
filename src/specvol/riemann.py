"""Numerical fluxes and interface entropy estimates.

Inside a spectral volume the reconstruction is a single polynomial, so the
analytical flux applies at interior CV boundaries. At SV boundaries two
one-sided traces meet; there the local Lax-Friedrichs flux resolves the
Riemann problem. The same interfaces supply the entropy dissipation estimate
sigma and the numerical entropy flux F* used by the stabilization.

Interface arrays are indexed s = 0..N where interface s is the left boundary
of SV s and interface N is the right end of the domain. Under periodic
boundary conditions interfaces 0 and N are the same physical interface and
carry identical values.
"""

from dataclasses import dataclass

import numpy as np

from .systems import ConservationSystem

__all__ = [
    "PeriodicBC",
    "FixedBC",
    "llf_flux",
    "hll_flux",
    "intermediate_state",
    "dissipation_estimate",
    "llf_entropy_flux",
    "interface_states",
    "assemble_fluxes",
]


@dataclass(frozen=True)
class PeriodicBC:
    kind: str = "periodic"


@dataclass(frozen=True)
class FixedBC:
    """Ghost traces frozen at the t = 0 boundary states."""

    left: np.ndarray
    right: np.ndarray
    kind: str = "fixed"


def _llf(f_l, f_r, u_l, u_r, c_max):
    c = np.asarray(c_max, dtype=float)[..., None]
    return 0.5 * (f_l + f_r) - 0.5 * c * (u_r - u_l)


def llf_flux(u_l, u_r, system: ConservationSystem) -> np.ndarray:
    """Local Lax-Friedrichs flux 0.5(f_l + f_r) - (c_max/2)(u_r - u_l)."""
    u_l = np.atleast_1d(np.asarray(u_l, dtype=float))
    u_r = np.atleast_1d(np.asarray(u_r, dtype=float))
    c = system.max_signal_speed(u_l, u_r)
    return _llf(system.flux(u_l), system.flux(u_r), u_l, u_r, c)


def hll_flux(u_l, u_r, a_l, a_r, system: ConservationSystem) -> np.ndarray:
    """HLL flux with signal-speed bounds a_l <= a_r.

    Upwind cases: f(u_l) when a_l >= 0, f(u_r) when a_r <= 0, otherwise the
    weighted two-state formula. Choosing a_r = -a_l = c_max recovers the
    local Lax-Friedrichs flux.
    """
    u_l = np.atleast_1d(np.asarray(u_l, dtype=float))
    u_r = np.atleast_1d(np.asarray(u_r, dtype=float))
    a_l = np.asarray(a_l, dtype=float)
    a_r = np.asarray(a_r, dtype=float)
    if np.any(a_l > a_r):
        raise ValueError("need a_l <= a_r")
    f_l = system.flux(u_l)
    f_r = system.flux(u_r)
    span = np.where(a_r - a_l > 0.0, a_r - a_l, 1.0)[..., None]
    middle = (
        a_r[..., None] * f_l - a_l[..., None] * f_r
        + (a_l * a_r)[..., None] * (u_r - u_l)
    ) / span
    out = np.where(a_l[..., None] >= 0.0, f_l, middle)
    return np.where(a_r[..., None] <= 0.0, f_r, out)


def intermediate_state(u_l, u_r, c_max, system: ConservationSystem) -> np.ndarray:
    """Mean state of the interface Riemann fan.

    u_lr = (u_l + u_r)/2 + (f(u_l) - f(u_r)) / (2 c_max).
    """
    u_l = np.atleast_1d(np.asarray(u_l, dtype=float))
    u_r = np.atleast_1d(np.asarray(u_r, dtype=float))
    c = np.asarray(c_max, dtype=float)
    if np.any(c <= 0.0):
        if np.array_equal(u_l, u_r):
            return u_l.copy()
        raise ValueError("degenerate interface: c_max = 0 with u_l != u_r")
    return 0.5 * (u_l + u_r) + (system.flux(u_l) - system.flux(u_r)) / (2.0 * c[..., None])


def _sigma_from_parts(u_l, u_r, f_l, f_r, c, ent_l, ent_r, eflux_l, eflux_r, system, counters):
    """Clamped sigma given precomputed fluxes, entropies and speed bounds."""
    live = c > 0.0
    sigma = np.zeros(np.shape(c))
    if np.any(live):
        c_safe = np.where(live, c, 1.0)
        u_lr = 0.5 * (u_l + u_r) + (f_l - f_r) / (2.0 * c_safe[..., None])
        admissible, ent_lr = system._admissible_entropy(u_lr)
        ok = live & admissible
        fallbacks = int(np.count_nonzero(live & ~ok))
        if fallbacks and counters is not None:
            counters["sigma_fallbacks"] = counters.get("sigma_fallbacks", 0) + fallbacks
        if np.any(ok):
            # ent_lr is garbage (nan, inf) on the lanes that are not ok; the
            # final where discards them.
            with np.errstate(all="ignore"):
                raw = c * (2.0 * ent_lr - ent_l - ent_r) + eflux_l - eflux_r
                sigma = np.where(ok, np.minimum(raw, 0.0), 0.0)
    return sigma


def dissipation_estimate(u_l, u_r, system: ConservationSystem, counters=None):
    """Entropy dissipation speed estimate sigma at an interface, clamped <= 0.

    sigma = c_max (2 U(u_lr) - U(u_l) - U(u_r)) + F(u_l) - F(u_r). The raw
    value can come out positive for some trace pairs; it is clamped to
    min(sigma, 0) so the correction never injects entropy. Interfaces where
    u_lr leaves the admissible set (possible for Euler) fall back to 0 and
    bump ``counters["sigma_fallbacks"]`` when a dict is supplied.
    """
    u_l = np.atleast_1d(np.asarray(u_l, dtype=float))
    u_r = np.atleast_1d(np.asarray(u_r, dtype=float))
    c = system.max_signal_speed(u_l, u_r)
    return _sigma_from_parts(
        u_l,
        u_r,
        system.flux(u_l),
        system.flux(u_r),
        c,
        system.entropy(u_l),
        system.entropy(u_r),
        system.entropy_flux(u_l),
        system.entropy_flux(u_r),
        system,
        counters,
    )


def llf_entropy_flux(u_l, u_r, system: ConservationSystem, c_max) -> np.ndarray:
    """Lax-Friedrichs numerical entropy flux on adjacent cell averages.

    F* = 0.5 (F(u_l) + F(u_r)) - (c_max/2)(U(u_r) - U(u_l)), with the same
    interface speed bound the state flux uses.
    """
    u_l = np.atleast_1d(np.asarray(u_l, dtype=float))
    u_r = np.atleast_1d(np.asarray(u_r, dtype=float))
    c = np.asarray(c_max, dtype=float)
    return 0.5 * (system.entropy_flux(u_l) + system.entropy_flux(u_r)) - 0.5 * c * (
        system.entropy(u_r) - system.entropy(u_l)
    )


def interface_states(traces: np.ndarray, bc):
    """One-sided states at the N+1 SV interfaces.

    Returns (u_left, u_right), each shaped (N+1, m). Periodic runs wrap the
    domain ends onto the same interface; fixed runs pair the end traces with
    the frozen ghost states.
    """
    n_sv = traces.shape[0]
    m = traces.shape[2]
    u_left = np.empty((n_sv + 1, m))
    u_right = np.empty((n_sv + 1, m))
    u_left[1:] = traces[:, -1]
    u_right[:-1] = traces[:, 0]
    if isinstance(bc, PeriodicBC):
        u_left[0] = traces[-1, -1]
        u_right[-1] = traces[0, 0]
    elif isinstance(bc, FixedBC):
        u_left[0] = np.asarray(bc.left, dtype=float)
        u_right[-1] = np.asarray(bc.right, dtype=float)
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return u_left, u_right


def assemble_fluxes(traces: np.ndarray, system: ConservationSystem, bc) -> np.ndarray:
    """Numerical flux at every CV boundary, shaped (N, k+1, m).

    Interior CV boundaries get the analytical flux of the single trace; SV
    interfaces get the LLF flux of the two one-sided traces, stored once and
    shared by both adjoining SVs so the scheme telescopes exactly.
    """
    n_sv, nodes, m = traces.shape
    u_l, u_r = interface_states(traces, bc)
    interface_flux = llf_flux(u_l, u_r, system)
    fluxes = np.empty((n_sv, nodes, m))
    if nodes > 2:
        fluxes[:, 1:-1] = system.flux(traces[:, 1:-1])
    fluxes[:, 0] = interface_flux[:-1]
    fluxes[:, -1] = interface_flux[1:]
    return fluxes
