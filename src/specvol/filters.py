"""Heat-equation filter generator on one spectral volume.

A finite-volume discretization of the heat equation with zero heat flux at
the SV ends yields a tridiagonal matrix H acting on the k cell averages. H
has zero row sums, zero width-weighted column sums and nonnegative
off-diagonal entries, so Y = I + tau*H is a conservative, positive (hence
entropy-dissipative) filter whenever tau * max_j |H_jj| <= 1. Its nullspace
is exactly the constants, which makes v = H u a usable dissipation direction
for every non-constant u.

H depends only on the CV widths, so ``build_generator`` hands out one
read-only generator per width vector and process, as ``build_reconstruction``
does one trace operator per CV partition.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import _read_only
from .reconstruction import _per_sv_product

__all__ = [
    "FilterGenerator",
    "build_generator",
    "apply_generator",
    "filter_matrix",
    "jensen_dissipation_check",
]


@dataclass(frozen=True)
class FilterGenerator:
    matrix: np.ndarray = field(repr=False)  # (k, k) tridiagonal
    cv_widths: np.ndarray = field(repr=False)  # (k,)
    max_diag: float = 0.0
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_cv(self) -> int:
        return self.matrix.shape[0]


_GENERATORS = {}  # cv_widths bytes -> FilterGenerator


def build_generator(cv_widths) -> FilterGenerator:
    """Assemble H from the CV widths of one spectral volume.

    Boundary rows implement the zero-flux end condition; interior row j
    couples to both neighbours through 2 / (h_j (h_{j +- 1} + h_j)). For
    k = 1 the generator degenerates to [0] and the filter is the identity.
    Assembled on the first call for a width vector; later calls with the
    same widths get the same generator, whose arrays are read-only copies.
    """
    widths = np.asarray(cv_widths, dtype=float)
    if widths.ndim != 1 or widths.size < 1:
        raise ValueError("cv_widths must be a 1-D array with at least one entry")
    if np.any(widths <= 0.0):
        raise ValueError("cv_widths must be strictly positive")
    key = widths.tobytes()
    if key in _GENERATORS:
        return _GENERATORS[key]
    k = widths.size
    h = np.zeros((k, k))
    if k > 1:
        left = 2.0 / (widths[1:] * (widths[:-1] + widths[1:]))  # H[j, j-1], j=1..k-1
        right = 2.0 / (widths[:-1] * (widths[:-1] + widths[1:]))  # H[j, j+1], j=0..k-2
        idx = np.arange(k - 1)
        h[idx + 1, idx] = left
        h[idx, idx + 1] = right
        h[np.arange(k), np.arange(k)] = -h.sum(axis=1)
    max_diag = float(np.max(np.abs(np.diag(h))))
    gen = _GENERATORS[key] = FilterGenerator(
        matrix=_read_only(h), cv_widths=_read_only(widths.copy()), max_diag=max_diag
    )
    return gen


def apply_generator(gen: FilterGenerator, u: np.ndarray, out=None) -> np.ndarray:
    """Dissipation direction v = H u of every SV of a batch (N, k, m), componentwise.

    The width-weighted sum of v vanishes per component, so adding v to the
    time derivative never changes the conserved totals. ``out`` is a
    C-contiguous float array of the batch's shape that receives v.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 3 or u.shape[1] != gen.num_cv:
        raise ValueError(f"expected (N, k={gen.num_cv}, m) data, got {u.shape}")
    return _per_sv_product(gen.matrix, gen._blocks, u, out)


def filter_matrix(gen: FilterGenerator, tau: float) -> np.ndarray:
    """Filter Y = I + tau*H for the effective step tau = dt * lambda.

    Y always has unit row sums and width-weighted column sums equal to the
    widths; entries are nonnegative iff tau * max_diag <= 1, which the
    lambda_max clamp enforces for the solver.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return np.eye(gen.num_cv) + tau * gen.matrix


def jensen_dissipation_check(gen: FilterGenerator, tau: float, u: np.ndarray, entropy) -> bool:
    """Whether filtering cannot increase the discrete SV entropy.

    Compares sum_j h_j U((Y u)_j) against sum_j h_j U(u_j) + 1e-12 for a
    convex entropy ``entropy``: states (k, m) -> scalars (k,).
    """
    u = np.asarray(u, dtype=float)
    filtered = filter_matrix(gen, tau) @ u
    before = float(np.dot(gen.cv_widths, np.asarray(entropy(u), dtype=float)))
    after = float(np.dot(gen.cv_widths, np.asarray(entropy(filtered), dtype=float)))
    return after <= before + 1e-12
