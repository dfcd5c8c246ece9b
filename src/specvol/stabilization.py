"""Correction sizes enforcing the entropy rate criterion.

Per spectral volume the correction lambda_i scales the dissipation direction
v_i = H u_i added to the time derivative. Three parts are summed:

* lambda_ED makes the SV entropy production not exceed the numerical entropy
  flux balance F*_{i-1/2} - F*_{i+1/2};
* lambda_ER_l / lambda_ER_r realize the interface dissipation estimates
  sigma, split between the two SVs adjoining each interface;
* the total is clamped at lambda_max = 1 / (dt * max|H_jj|), derived and not
  a setting, so the implied filter I + dt*lambda*H stays positive.

All inner products are discrete: <f, g>_S = sum_j h_j f_j . g_j evaluated on
cell averages, whose entropies and entropy gradients the caller passes in.
Denominators smaller than eps_den (1e-12 scaled by the SV entropy magnitude)
return a zero correction part; a constant SV needs none.

A ``CorrectionReport`` keeps the arrays the correction computes anyway: the
three parts, the summed and the final sizes, the ``clamped`` flags and the
masks of the usable denominators and the dropped demands. ``lambda_ed``,
``den_fallbacks`` and ``dropped_demands`` are derived from them when read.
"""

import numpy as np

from .filters import FilterGenerator

__all__ = [
    "CorrectionReport",
    "corrected_rhs",
    "compute_correction",
]

DEN_FLOOR = 1e-12


class CorrectionReport:
    """Per-SV correction sizes of one Euler stage plus fallback diagnostics.

    Arrays over the N SVs: ``lambda_ed``, ``lambda_er_l``, ``lambda_er_r``,
    ``lambda_sum``, ``lambda_final`` and ``clamped`` (bool: some demand hit
    the filter limit or the dissipation cap). Counts: ``den_fallbacks`` (SVs
    whose budget part had a degenerate denominator), ``sigma_fallbacks`` and
    ``dropped_demands`` (parts whose demand exceeded lambda_max).
    """

    __slots__ = ("_parts", "_usable", "_dropped", "lambda_sum", "lambda_final", "clamped",
                 "sigma_fallbacks")

    def __init__(self, parts, usable, dropped, lambda_sum, lambda_final, clamped,
                 sigma_fallbacks):
        # parts (3, N): the budget part (signed) and the two entropy-rate
        # parts; usable: the budget part's denominator was usable; dropped
        # (3, N): a part exceeded lambda_max.
        self._parts = parts
        self._usable = usable
        self._dropped = dropped
        self.lambda_sum = lambda_sum
        self.lambda_final = lambda_final
        self.clamped = clamped
        self.sigma_fallbacks = sigma_fallbacks

    @property
    def lambda_ed(self) -> np.ndarray:
        return np.maximum(0.0, self._parts[0])

    @property
    def lambda_er_l(self) -> np.ndarray:
        return self._parts[1]

    @property
    def lambda_er_r(self) -> np.ndarray:
        return self._parts[2]

    @property
    def den_fallbacks(self) -> int:
        return self.num_sv - int(np.count_nonzero(self._usable))

    @property
    def dropped_demands(self) -> int:
        return int(np.count_nonzero(self._dropped))

    @property
    def num_sv(self) -> int:
        return self.lambda_final.size

    def __repr__(self) -> str:
        return (f"CorrectionReport(num_sv={self.num_sv}, den_fallbacks={self.den_fallbacks}, "
                f"sigma_fallbacks={self.sigma_fallbacks}, "
                f"dropped_demands={self.dropped_demands})")


def corrected_rhs(base_rhs: np.ndarray, lam: np.ndarray, v: np.ndarray, work=None) -> np.ndarray:
    """Add the per-SV correction into the time derivative: D += lambda_i v_i.

    ``base_rhs`` is a float array that is updated in place and returned.
    ``work``, when given, is a float array shaped like ``v`` that receives
    the product lambda_i v_i, so no array is allocated for it. Negative or
    NaN sizes raise before anything is written.
    """
    lam = np.asarray(lam, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (lam >= 0.0).all():  # nan fails too
        raise ValueError("correction sizes must be nonnegative")
    base_rhs += np.multiply(lam[:, None, None], v, out=work)
    return base_rhs


def compute_correction(
    entropy: np.ndarray,
    gradient: np.ndarray,
    rates: np.ndarray,
    sigma: np.ndarray,
    f_star: np.ndarray,
    dt: float,
    gen: FilterGenerator,
    periodic: bool,
    dissipation_scale: np.ndarray,
    sigma_fallbacks: int = 0,
) -> CorrectionReport:
    """Assemble all per-SV correction sizes for one Euler stage.

    ``entropy`` (N, k) and ``gradient`` (N, k, m) are U and dU/du of the cell
    averages, as ``system.stage_terms`` gives them; the stage computes them
    in one pass with its traces and interface sides. ``rates`` (2, N, k, m)
    holds the time derivative D and the dissipation direction v, so that one
    product gives the entropy production <dU/du, D> and <dU/du, v> of every
    SV, weighted by the CV widths ``gen`` was built from, the grid's own.
    ``sigma``, ``f_star`` and ``dissipation_scale`` are interface arrays
    (N+1,), indexed like :func:`specvol.riemann.interface_states`, as
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
    production, direction_ip = np.einsum("ijc,bijc,j->bi", gradient, rates, gen.cv_widths)
    eps_den = DEN_FLOOR * np.maximum(1.0, np.abs(np.einsum("j,ij->i", gen.cv_widths, entropy)))
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
    num = np.concatenate((-excess_used, sigma_used[:-1], sigma_used[1:])).reshape(3, n_sv)
    pair_ip = direction_ip[:-1] + direction_ip[1:]
    if periodic:
        first = last = direction_ip[-1:] + direction_ip[:1]
    else:
        first, last = direction_ip[:1], direction_ip[-1:]
    den = np.concatenate((direction_ip, first, pair_ip, pair_ip, last)).reshape(3, n_sv)
    usable = np.abs(den) > eps_den  # clearly nonzero, not roundoff
    parts = np.divide(num, den, out=np.zeros((3, n_sv)), where=usable)
    np.maximum(0.0, parts[1:], out=parts[1:])

    limit = np.inf if gen.max_diag == 0.0 else 1.0 / (dt * gen.max_diag)
    # A part demanding more than the positivity limit cannot realize its
    # target dissipation: the direction is too weak for the requested rate.
    # Saturating it would flatten the SV's internal structure every step, so
    # such demands are dropped as degenerate (and the SV marked clamped).
    dropped = parts > limit
    np.copyto(parts, 0.0, where=dropped)

    # The necessary size for the target inequality
    #   <dU/du, du/dt + lambda*v> <= sigma_i + F*_l - F*_r:
    # budget slack offsets the entropy-rate demands, so interfaces whose
    # dissipation already happens inside the scheme are not dissipated twice.
    # The sum is then clamped at the positivity limit, lambda_max =
    # 1 / (dt * max|H_jj|), which the scheme derives (infinite for k = 1).
    lam_sum = parts[0] + parts[1]
    lam_sum += parts[2]
    np.maximum(0.0, lam_sum, out=lam_sum)
    lam = np.minimum(limit, lam_sum)
    clamped = (lam_sum > lam) | dropped[0] | dropped[1] | dropped[2] | capped
    return CorrectionReport(parts, usable[0], dropped, lam_sum, lam, clamped, sigma_fallbacks)
