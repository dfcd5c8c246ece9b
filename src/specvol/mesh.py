"""Spectral-volume grid construction.

The domain [a, b] is split into N equal spectral volumes (SVs); each SV is
subdivided into k control volumes (CVs) whose boundaries are Gauss-Lobatto
points mapped from the reference interval [-1, 1]. The nonuniform subdivision
clusters CVs toward SV edges, which keeps the reconstruction polynomial from
oscillating the way it would on equidistant sub-cells.

The reference-element data, the Gauss-Lobatto nodes and the Gauss-Legendre
quadrature rules, are computed once per process and handed out as read-only
arrays, so grids with the same k share one ``ref_nodes`` array.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["SpectralGrid", "gauss_lobatto_nodes", "gauss_legendre_rule", "build_grid"]


def _legendre_and_derivatives(degree: int, x: np.ndarray):
    """Return (P_n(x), P_n'(x), P_n''(x)) via the three-term recurrence."""
    p0 = np.ones_like(x)
    d0 = np.zeros_like(x)
    s0 = np.zeros_like(x)
    if degree == 0:
        return p0, d0, s0
    p1, d1, s1 = x.copy(), np.ones_like(x), np.zeros_like(x)
    for n in range(1, degree):
        a = (2 * n + 1) / (n + 1)
        b = n / (n + 1)
        p2 = a * x * p1 - b * p0
        d2 = a * (p1 + x * d1) - b * d0
        s2 = a * (2 * d1 + x * s1) - b * s0
        p0, d0, s0 = p1, d1, s1
        p1, d1, s1 = p2, d2, s2
    return p1, d1, s1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def gauss_lobatto_nodes(n_nodes: int) -> np.ndarray:
    """Gauss-Lobatto nodes on [-1, 1], ascending.

    The nodes are -1, +1 and the roots of the derivative of the Legendre
    polynomial of degree ``n_nodes - 1``. Interior roots are found by Newton
    iteration from a Chebyshev-Gauss-Lobatto initial guess, converged to
    1e-14, then symmetrized so the set is exactly symmetric about 0. They
    are computed once per process; every call with the same ``n_nodes``
    returns the same read-only array.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 Gauss-Lobatto nodes, got {n_nodes}")
    if n_nodes == 2:
        return _read_only(np.array([-1.0, 1.0]))

    degree = n_nodes - 1
    # Interior initial guess: Chebyshev-Gauss-Lobatto points.
    x = np.cos(np.pi * np.arange(1, degree) / degree)
    for _ in range(100):
        _, d1, d2 = _legendre_and_derivatives(degree, x)
        dx = d1 / d2
        x = x - dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    nodes = np.empty(n_nodes)
    nodes[0], nodes[-1] = -1.0, 1.0
    nodes[1:-1] = np.sort(x)
    # Enforce exact symmetry; Newton leaves ~1e-16 asymmetries.
    return _read_only(0.5 * (nodes - nodes[::-1]))


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int):
    """The ``order``-point Gauss-Legendre (nodes, weights) on [-1, 1].

    ``numpy.polynomial.legendre.leggauss``, computed once per process and
    returned as read-only arrays.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return _read_only(nodes), _read_only(weights)


@dataclass(frozen=True)
class SpectralGrid:
    """Two-level partition: N spectral volumes, each with k control volumes.

    All SVs share the same reference subdivision, so ``cv_widths`` (physical)
    and ``ref_widths`` (on [-1, 1]) are single length-k vectors.
    """

    a: float
    b: float
    num_sv: int
    num_cv: int
    sv_width: float
    sv_centers: np.ndarray = field(repr=False)  # (N,)
    ref_nodes: np.ndarray = field(repr=False)  # (k+1,) on [-1, 1]
    ref_widths: np.ndarray = field(repr=False)  # (k,)
    cv_edges: np.ndarray = field(repr=False)  # (N, k+1) physical coordinates
    cv_widths: np.ndarray = field(repr=False)  # (k,) physical, same in every SV

    def cv_centers(self) -> np.ndarray:
        """Midpoints of every control volume, shape (N, k)."""
        return 0.5 * (self.cv_edges[:, :-1] + self.cv_edges[:, 1:])


def build_grid(a: float, b: float, num_sv: int, num_cv: int) -> SpectralGrid:
    """Build the equidistant SV partition with Gauss-Lobatto CV subdivision.

    CV boundaries follow the linear map x_{i,j+1/2} = x_i + h * node_j / 2
    with x_i the center of SV i and h the SV width.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
        raise ValueError(f"invalid domain [{a}, {b}]")
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (num_sv, num_cv)):
        raise ValueError(
            f"need integers num_sv >= 1 and num_cv >= 1, got {num_sv!r}, {num_cv!r}"
        )

    h = (b - a) / num_sv
    centers = a + h * (np.arange(num_sv) + 0.5)
    nodes = gauss_lobatto_nodes(num_cv + 1)
    ref_widths = np.diff(nodes)
    cv_edges = centers[:, None] + 0.5 * h * nodes[None, :]
    # Stamp the shared endpoints exactly so adjacent SVs tile with no gap.
    cv_edges[:, 0] = a + h * np.arange(num_sv)
    cv_edges[:, -1] = a + h * np.arange(1, num_sv + 1)
    return SpectralGrid(
        a=float(a),
        b=float(b),
        num_sv=num_sv,
        num_cv=num_cv,
        sv_width=h,
        sv_centers=centers,
        ref_nodes=nodes,
        ref_widths=ref_widths,
        cv_edges=cv_edges,
        cv_widths=0.5 * h * ref_widths,
    )
