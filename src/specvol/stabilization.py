"""Correction sizes enforcing the entropy rate criterion.

Per spectral volume the correction lambda_i scales the dissipation direction
v_i = H u_i added to the time derivative. Three parts are summed:

* lambda_ED makes the SV entropy production not exceed the numerical entropy
  flux balance F*_{i-1/2} - F*_{i+1/2};
* lambda_ER_l / lambda_ER_r realize the interface dissipation estimates
  sigma, split between the two SVs adjoining each interface;
* the total is clamped at lambda_max = 1 / (dt * max|H_jj|) so the implied
  filter I + dt*lambda*H stays positive.

All inner products are discrete: <f, g>_S = sum_j h_j f_j . g_j evaluated on
cell averages. Denominators smaller than eps_den (1e-12 scaled by the SV
entropy magnitude) return a zero correction part; a constant SV needs none.
"""

from dataclasses import dataclass, field

import numpy as np

from .filters import FilterGenerator

__all__ = [
    "CorrectionReport",
    "sv_inner_product",
    "sv_entropy",
    "lambda_ed",
    "lambda_er",
    "lambda_final",
    "corrected_rhs",
    "compute_correction",
]

DEN_FLOOR = 1e-12


@dataclass
class CorrectionReport:
    """Per-SV correction sizes of one Euler stage plus fallback diagnostics."""

    lambda_ed: np.ndarray = field(repr=False)
    lambda_er_l: np.ndarray = field(repr=False)
    lambda_er_r: np.ndarray = field(repr=False)
    lambda_sum: np.ndarray = field(repr=False)
    lambda_final: np.ndarray = field(repr=False)
    clamped: np.ndarray = field(repr=False)  # bool, some demand hit the filter limit
    den_fallbacks: int = 0
    sigma_fallbacks: int = 0
    dropped_demands: int = 0  # parts whose demand exceeded lambda_max

    @property
    def num_sv(self) -> int:
        return self.lambda_final.size


def sv_inner_product(f_vals, g_vals, cv_widths) -> float:
    """Discrete inner product sum_j h_j (f_j . g_j) on one SV.

    ``f_vals`` and ``g_vals`` are (k, m); the dot product contracts the m
    components.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    g_vals = np.asarray(g_vals, dtype=float)
    if f_vals.shape != g_vals.shape:
        raise ValueError(f"shape mismatch {f_vals.shape} vs {g_vals.shape}")
    return float(np.einsum("j,jc,jc->", np.asarray(cv_widths, dtype=float), f_vals, g_vals))


def sv_entropy(u, system, cv_widths) -> float:
    """Discrete total entropy of one SV: sum_j h_j U(u_j)."""
    u = np.asarray(u, dtype=float)
    return float(np.dot(np.asarray(cv_widths, dtype=float), system.entropy(u)))


def _den_guard(den, eps_den):
    """True where a denominator is usable (clearly negative, not roundoff)."""
    return np.abs(den) > eps_den


def lambda_ed(entropy_production, f_star_left, f_star_right, direction_ip, eps_den=DEN_FLOOR):
    """Entropy-dissipativity part of the correction (vectorized).

    max(0, -(production - (F*_l - F*_r)) / <dU/du, v>); zero where the
    direction inner product is below the denominator guard.
    """
    production = np.asarray(entropy_production, dtype=float)
    excess = production - (np.asarray(f_star_left) - np.asarray(f_star_right))
    den = np.asarray(direction_ip, dtype=float)
    usable = _den_guard(den, eps_den)
    safe = np.where(usable, den, 1.0)
    lam = np.where(usable, np.maximum(0.0, -excess / safe), 0.0)
    return lam if lam.ndim else float(lam)


def lambda_er(sigma_left, sigma_right, ip_prev, ip_self, ip_next, eps_den=DEN_FLOOR):
    """Entropy-rate parts from the two adjacent interface estimates.

    lambda_ER_l = max(0, sigma_l / (ip_prev + ip_self)) and mirrored for the
    right; parts with a degenerate denominator are zero.
    """
    den_l = np.asarray(ip_prev, dtype=float) + np.asarray(ip_self, dtype=float)
    den_r = np.asarray(ip_self, dtype=float) + np.asarray(ip_next, dtype=float)
    usable_l = _den_guard(den_l, eps_den)
    usable_r = _den_guard(den_r, eps_den)
    lam_l = np.where(
        usable_l, np.maximum(0.0, np.asarray(sigma_left) / np.where(usable_l, den_l, 1.0)), 0.0
    )
    lam_r = np.where(
        usable_r, np.maximum(0.0, np.asarray(sigma_right) / np.where(usable_r, den_r, 1.0)), 0.0
    )
    if lam_l.ndim:
        return lam_l, lam_r
    return float(lam_l), float(lam_r)


def lambda_final(lambda_sum, dt: float, gen: FilterGenerator, lambda_max=None):
    """Clamp the summed correction at lambda_max = 1 / (dt * max|H_jj|).

    The clamp realizes the positivity condition dt * lambda * max|H_jj| <= 1
    of the generated filter. ``lambda_max`` overrides the computed limit.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if lambda_max is None:
        lambda_max = np.inf if gen.max_diag == 0.0 else 1.0 / (dt * gen.max_diag)
    lam = np.minimum(lambda_max, np.asarray(lambda_sum, dtype=float))
    return lam if lam.ndim else float(lam)


def corrected_rhs(base_rhs: np.ndarray, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Time derivative with the per-SV correction added: D + lambda_i v_i."""
    base_rhs = np.asarray(base_rhs, dtype=float)
    lam = np.asarray(lam, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("correction sizes must be nonnegative")
    return base_rhs + lam[:, None, None] * v


def compute_correction(
    averages: np.ndarray,
    base_rhs: np.ndarray,
    direction: np.ndarray,
    sigma: np.ndarray,
    f_star: np.ndarray,
    cv_widths: np.ndarray,
    system,
    dt: float,
    gen: FilterGenerator,
    periodic: bool,
    dissipation_scale=None,
    lambda_max=None,
    sigma_fallbacks: int = 0,
) -> CorrectionReport:
    """Assemble all per-SV correction sizes for one Euler stage.

    ``sigma``, ``f_star`` and ``dissipation_scale`` are interface arrays
    (N+1,), indexed like :func:`specvol.riemann.interface_states`. For
    non-periodic runs the missing-neighbour inner products at the domain ends
    count as zero.

    ``dissipation_scale`` is the LLF entropy dissipation of each interface
    jump, (c/2)(u_r - u_l).(dU_r - dU_l) >= 0. It bounds the entropy demands
    the correction is asked to realize: the estimate sigma is linear in the
    trace jump while a genuine Riemann fan only dissipates quadratically, so
    on smooth data the raw demands are discretization noise orders of
    magnitude above anything the interface supports. Left uncapped they
    flatten the reconstruction polynomials SV by SV (each flattened SV hands
    an O(h) jump to its neighbour, amplifying the demand there) and the
    scheme degrades to first order. At discontinuities the cap is slack of
    order one and the stabilization acts at full strength.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    widths = np.asarray(cv_widths, dtype=float)
    ent, grad = system.entropy_terms(averages)  # (N, k), (N, k, m)
    production = np.einsum("ijc,ijc,j->i", grad, base_rhs, widths)
    direction_ip = np.einsum("ijc,ijc,j->i", grad, direction, widths)
    eps_den = DEN_FLOOR * np.maximum(1.0, np.abs(np.einsum("j,ij->i", widths, ent)))
    n_sv = direction_ip.size

    sigma = np.asarray(sigma, dtype=float)
    if not periodic:
        # No neighbouring SV outside a fixed boundary: its sigma is absent.
        sigma = sigma.copy()
        sigma[0] = 0.0
        sigma[-1] = 0.0
    excess = production - (f_star[:-1] - f_star[1:])
    if dissipation_scale is None:
        sigma_used, excess_used = sigma, excess
        capped = np.zeros(n_sv, dtype=bool)
    else:
        cap = np.maximum(np.asarray(dissipation_scale, dtype=float), 0.0)
        sigma_used = np.maximum(sigma, -cap)
        excess_used = np.minimum(excess, cap[:-1] + cap[1:])
        raised = sigma_used > sigma
        capped = (excess_used < excess) | raised[:-1] | raised[1:]

    # One row per part of the correction, over the SVs. Row 0 is the signed
    # budget term: positive where production overshoots the entropy flux
    # balance, negative (slack) where the scheme already dissipates more,
    # e.g. through the LLF flux at a sonic interface. Rows 1 and 2 are the
    # entropy-rate parts of the left and right interface: its sigma over
    # the summed inner products of the two SVs adjoining it, where a
    # missing neighbour beyond a fixed boundary counts as zero.
    num = np.empty((3, n_sv))
    num[0] = -excess_used
    num[1] = sigma_used[:-1]
    num[2] = sigma_used[1:]
    den = np.empty((3, n_sv))
    den[0] = direction_ip
    pair_ip = direction_ip[:-1] + direction_ip[1:]
    den[1, 1:] = pair_ip
    den[2, :-1] = pair_ip
    if periodic:
        den[1, 0] = den[2, -1] = direction_ip[-1] + direction_ip[0]
    else:
        den[1, 0] = direction_ip[0]
        den[2, -1] = direction_ip[-1]
    usable = _den_guard(den, eps_den)
    parts = np.where(usable, num / np.where(usable, den, 1.0), 0.0)
    parts[1:] = np.maximum(0.0, parts[1:])

    if lambda_max is None:
        limit = np.inf if gen.max_diag == 0.0 else 1.0 / (dt * gen.max_diag)
    else:
        limit = float(lambda_max)
    # A part demanding more than the positivity limit cannot realize its
    # target dissipation: the direction is too weak for the requested rate.
    # Saturating it would flatten the SV's internal structure every step, so
    # such demands are dropped as degenerate (and the SV marked clamped).
    unrealizable = parts > limit
    parts[unrealizable] = 0.0

    # The necessary size for the target inequality
    #   <dU/du, du/dt + lambda*v> <= sigma_i + F*_l - F*_r:
    # budget slack offsets the entropy-rate demands, so interfaces whose
    # dissipation already happens inside the scheme are not dissipated twice.
    # The sum is then clamped at the positivity limit, as in lambda_final.
    lam_sum = np.maximum(0.0, parts[0] + parts[1] + parts[2])
    lam = np.minimum(limit, lam_sum)
    return CorrectionReport(
        lambda_ed=np.maximum(0.0, parts[0]),
        lambda_er_l=parts[1],
        lambda_er_r=parts[2],
        lambda_sum=lam_sum,
        lambda_final=lam,
        clamped=(lam_sum > lam) | unrealizable.any(axis=0) | capped,
        den_fallbacks=n_sv - int(np.count_nonzero(usable[0])),
        sigma_fallbacks=sigma_fallbacks,
        dropped_demands=int(np.count_nonzero(unrealizable)),
    )
