"""Interface terms of the SV stage: LLF flux, dissipation estimate, entropy flux.

Inside a spectral volume the reconstruction is a single polynomial, so the
analytical flux applies at interior CV boundaries. At SV boundaries two
one-sided traces meet; there the local Lax-Friedrichs flux resolves the
Riemann problem. The same interfaces supply the entropy dissipation estimate
sigma, the numerical entropy flux F* and the LLF entropy dissipation that
size the stabilization. ``interface_terms`` computes all of them, for the
solver's stage and for the tests alike. For the stabilization terms it takes
the sides' flux, speeds, entropies, entropy fluxes and gradients from the
caller: one ``stage_terms`` pass that the stage shares with its boundary
traces and its cell averages.

Interface arrays are indexed s = 0..N where interface s is the left boundary
of SV s and interface N is the right end of the domain. ``interface_states``
builds the two sides of every interface, for the stage and the tests alike;
at the domain's ends the boundary condition's ``ghosts`` rule gives the
missing side. Under periodic boundary conditions interfaces 0 and N are the
same physical interface and carry identical values.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .systems import ConservationSystem

__all__ = [
    "PeriodicBC",
    "FixedBC",
    "InterfaceTerms",
    "interface_states",
    "interface_terms",
]


@dataclass(frozen=True)
class PeriodicBC:
    periodic = True

    def ghosts(self, first, last):
        """The states just beyond the left and right ends: the domain wraps around."""
        return last, first


@dataclass(frozen=True)
class FixedBC:
    """Ghost traces frozen at the t = 0 boundary states."""

    left: np.ndarray
    right: np.ndarray
    periodic = False

    def ghosts(self, first, last):
        """The states just beyond the left and right ends: the frozen ones."""
        return self.left, self.right


def _check_bc(bc) -> None:
    """The one boundary-condition check: a ``PeriodicBC`` or a ``FixedBC``."""
    if not isinstance(bc, (PeriodicBC, FixedBC)):
        raise ValueError(f"unknown boundary condition {bc!r}")


class InterfaceTerms(NamedTuple):
    """Per-interface results of ``interface_terms``.

    ``sigma``, ``f_star`` and ``d_llf`` are None without stabilization.
    """

    flux: np.ndarray  # LLF flux, (S, m)
    speed: np.ndarray  # c_max (S,), the larger signal speed of the two sides
    sigma: np.ndarray | None = None
    sigma_fallbacks: int = 0
    f_star: np.ndarray | None = None
    d_llf: np.ndarray | None = None


def _sigma_from_parts(u_l, u_r, f_l, f_r, c, ent_l, ent_r, eflux_l, eflux_r, system):
    """(sigma clamped <= 0, fallback count) given fluxes, entropies and speed bounds.

    sigma = c (2 U(u_lr) - U(u_l) - U(u_r)) + F(u_l) - F(u_r) with the mean
    state u_lr = (u_l + u_r)/2 + (f_l - f_r) / (2c) of the Riemann fan. The
    raw value can come out positive for some trace pairs; it is clamped to
    min(sigma, 0) so the correction never injects entropy. Interfaces with
    c = 0 get 0; so do those whose u_lr leaves the admissible set (possible
    for Euler), which the fallback count reports.
    """
    live = c > 0.0
    n_live = np.count_nonzero(live)
    # Usually every c > 0; otherwise the dead lanes divide by 1 and are dropped.
    c_safe = c if n_live == c.size else np.where(live, c, 1.0)
    u_lr = 0.5 * (u_l + u_r) + (f_l - f_r) / (2.0 * c_safe[..., None])
    # U(u_lr) is garbage (nan, inf) where u_lr is not admissible; the final
    # where discards those lanes.
    with np.errstate(all="ignore"):
        admissible, ent_lr = system._admissible_entropy(u_lr)
        raw = c * (2.0 * ent_lr - ent_l - ent_r) + eflux_l - eflux_r
    ok = admissible if n_live == c.size else live & admissible
    sigma = np.where(ok, np.minimum(raw, 0.0), 0.0)
    return sigma, int(n_live - np.count_nonzero(ok))


def interface_terms(
    sides: np.ndarray, system: ConservationSystem, side_terms=None
) -> InterfaceTerms:
    """Every interface term of the one-sided states ``sides``, shape (2, S, m).

    ``sides[0]`` holds the left states u_l and ``sides[1]`` the right states
    u_r, which must be admissible; nothing is checked here. Always computed:
    the LLF flux 0.5 (f_l + f_r) - (c_max/2)(u_r - u_l) and c_max.

    ``side_terms`` turns on the stabilization terms. It is the
    ``StageTerms`` of ``system.stage_terms`` of the stacked states
    ``sides.reshape(2 * S, m)``, of which only the first 2S rows of each
    term are read, so a caller may pass the terms of a longer array whose
    rows from ``skip`` on begin with those states, such as
    ``stage_terms(rows, skip + 2 * S, skip)``. From it come the
    dissipation estimate sigma with its fallback count, the numerical entropy
    flux F* = 0.5 (F_l + F_r) - (c_max/2)(U_r - U_l) and the entropy the LLF
    flux dissipates, d_llf = (c_max/2)(u_r - u_l).(dU/du_r - dU/du_l) >= 0.
    F* uses the same one-sided traces as the state flux: on smooth data the
    two traces agree to reconstruction order, so the entropy budget
    F*_l - F*_r tracks the actual production instead of drowning it in O(h)
    dissipation from adjacent-average jumps.
    """
    u_l, u_r = sides
    n = u_l.shape[0]
    if side_terms is None:
        # The LLF flux alone, built in the array of the sides' fluxes with
        # the operations, and so the bits, of the stabilized branch below.
        flux, work = system.flux_raw(sides)
        c_max = np.maximum(system.max_signal_speed_raw(u_l), system.max_signal_speed_raw(u_r))
        np.multiply(np.add(flux, work, out=flux), 0.5, out=flux)
        np.multiply(np.subtract(u_r, u_l, out=work), (0.5 * c_max)[:, None], out=work)
        return InterfaceTerms(np.subtract(flux, work, out=flux), c_max)
    flux_lr, speed_lr = side_terms.flux, side_terms.speed
    f_l, f_r = flux_lr[:n], flux_lr[n : 2 * n]
    c_max = np.maximum(speed_lr[:n], speed_lr[n : 2 * n])
    jump = u_r - u_l
    half_c = 0.5 * c_max
    flux = 0.5 * (f_l + f_r) - half_c[:, None] * jump
    ent_lr, eflux_lr, grad_lr = side_terms.entropy, side_terms.entropy_flux, side_terms.gradient
    ent_l, ent_r = ent_lr[:n], ent_lr[n : 2 * n]
    eflux_l, eflux_r = eflux_lr[:n], eflux_lr[n : 2 * n]
    sigma, fallbacks = _sigma_from_parts(
        u_l, u_r, f_l, f_r, c_max, ent_l, ent_r, eflux_l, eflux_r, system
    )
    f_star = 0.5 * (eflux_l + eflux_r) - half_c * (ent_r - ent_l)
    d_llf = half_c * np.einsum("sc,sc->s", jump, grad_lr[n : 2 * n] - grad_lr[:n])
    return InterfaceTerms(flux, c_max, sigma, fallbacks, f_star, d_llf)


def interface_states(first, last, bc, out=None):
    """(u_left, u_right) at the N+1 SV interfaces, each (N+1, m).

    ``first`` and ``last`` are each SV's first and last trace, shaped (N, m);
    ``bc.ghosts`` gives the sides beyond the domain's ends. The states go
    into the (2, N+1, m) array ``out`` when given, else into a new one.
    """
    if out is None:
        out = np.empty((2, first.shape[0] + 1, first.shape[1]))
    u_left, u_right = out
    u_left[1:] = last
    u_right[:-1] = first
    u_left[0], u_right[-1] = bc.ghosts(first[0], last[-1])
    return u_left, u_right
