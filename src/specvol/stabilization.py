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
cell averages, whose entropies and entropy gradients the caller passes in.
Denominators smaller than eps_den (1e-12 scaled by the SV entropy magnitude)
return a zero correction part; a constant SV needs none.
"""

from dataclasses import dataclass, field

import numpy as np

from .filters import FilterGenerator

__all__ = [
    "CorrectionReport",
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


def corrected_rhs(base_rhs: np.ndarray, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Add the per-SV correction into the time derivative: D += lambda_i v_i.

    ``base_rhs`` is a float array that is updated in place and returned.
    Negative or NaN sizes raise before anything is written.
    """
    lam = np.asarray(lam, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.all(lam >= 0.0):  # nan fails too
        raise ValueError("correction sizes must be nonnegative")
    base_rhs += lam[:, None, None] * v
    return base_rhs


def compute_correction(
    entropy: np.ndarray,
    gradient: np.ndarray,
    base_rhs: np.ndarray,
    direction: np.ndarray,
    sigma: np.ndarray,
    f_star: np.ndarray,
    cv_widths: np.ndarray,
    dt: float,
    gen: FilterGenerator,
    periodic: bool,
    dissipation_scale: np.ndarray,
    lambda_max=None,
    sigma_fallbacks: int = 0,
) -> CorrectionReport:
    """Assemble all per-SV correction sizes for one Euler stage.

    ``entropy`` (N, k) and ``gradient`` (N, k, m) are U and dU/du of the cell
    averages, as ``system.stage_terms`` gives them; the stage computes them
    in one pass with its interface sides' terms. ``sigma``, ``f_star`` and
    ``dissipation_scale`` are interface arrays (N+1,), indexed like
    :func:`specvol.riemann.interface_states`, as
    :func:`specvol.riemann.interface_terms` returns them. For non-periodic
    runs the missing-neighbour inner products at the domain ends count as
    zero. Nothing here converts its inputs: all of them are float arrays.

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
    production = np.einsum("ijc,ijc,j->i", gradient, base_rhs, cv_widths)
    direction_ip = np.einsum("ijc,ijc,j->i", gradient, direction, cv_widths)
    eps_den = DEN_FLOOR * np.maximum(1.0, np.abs(np.einsum("j,ij->i", cv_widths, entropy)))
    n_sv = direction_ip.size

    if not periodic:
        # No neighbouring SV outside a fixed boundary: its sigma is absent.
        sigma = sigma.copy()
        sigma[0] = 0.0
        sigma[-1] = 0.0
    excess = production - (f_star[:-1] - f_star[1:])
    cap = np.maximum(dissipation_scale, 0.0)
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
    usable = np.abs(den) > eps_den  # clearly nonzero, not roundoff
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
    parts = np.where(unrealizable, 0.0, parts)

    # The necessary size for the target inequality
    #   <dU/du, du/dt + lambda*v> <= sigma_i + F*_l - F*_r:
    # budget slack offsets the entropy-rate demands, so interfaces whose
    # dissipation already happens inside the scheme are not dissipated twice.
    # The sum is then clamped at the positivity limit, lambda_max =
    # 1 / (dt * max|H_jj|) unless ``lambda_max`` overrides it.
    lam_sum = np.maximum(0.0, parts[0] + parts[1] + parts[2])
    lam = np.minimum(limit, lam_sum)
    return CorrectionReport(
        lambda_ed=np.maximum(0.0, parts[0]),
        lambda_er_l=parts[1],
        lambda_er_r=parts[2],
        lambda_sum=lam_sum,
        lambda_final=lam,
        clamped=(lam_sum > lam) | unrealizable[0] | unrealizable[1] | unrealizable[2] | capped,
        den_fallbacks=n_sv - int(np.count_nonzero(usable[0])),
        sigma_fallbacks=sigma_fallbacks,
        dropped_demands=int(np.count_nonzero(unrealizable)),
    )
