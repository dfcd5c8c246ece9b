"""Cell-average to boundary-trace reconstruction.

Within each spectral volume the k cell averages determine a unique polynomial
of degree k-1, expressed in the Legendre basis on [-1, 1]. The moment matrix M
maps Legendre coefficients to cell averages; A evaluates the basis at the k+1
CV boundaries; C = A @ inv(M) goes straight from averages to boundary traces.
M is inverted once and reused for every time step.

Every SV shares the reference subdivision, so applying C (or any other (p, k)
per-SV operator, such as the filter generator) to all N SVs is one matrix
product: the (N, k, m) field, read as an (N, k*m) matrix, times the
Kronecker block kron(C^T, I_m) gives the (N, p, m) result, C-contiguous and
without transposes. The blocks are built once per component count m and kept
on the operator. Compared with the componentwise sum, the product reorders
each length-k dot product (roundoff-level differences), and a non-finite
entry of one component reaches the other components of its SV through
0 * inf; every such state is inadmissible either way.

The solver takes the traces in CV-face order (``reconstruct_faces``): one
(N*(k+1), m) array whose first N*k rows are the traces j < k of every SV,
row i*k + j being the left boundary of CV j of SV i, and whose last N rows
are each SV's right-end trace. The first block lines up with the CV faces
the flux divergence runs over, so the interior analytical fluxes are one
contiguous pass. It comes from two products, with the blocks of C's first k
rows and of its last row. ``reconstruct_all`` assembles the same traces into
the (N, k+1, m) layout, so both layouts hold identical values.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import SpectralGrid

__all__ = [
    "ReconstructionOperator",
    "legendre_eval",
    "legendre_integral",
    "moment_matrix",
    "build_reconstruction",
    "reconstruct_all",
    "reconstruct_faces",
]


def legendre_eval(m: int, x):
    """Evaluate the Legendre polynomial L_m at x (scalar or array).

    Three-term recurrence: (n+1) L_{n+1} = (2n+1) x L_n - n L_{n-1}.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    if m == 0:
        return p0 if p0.ndim else float(p0)
    p1 = x.copy()
    for n in range(1, m):
        p0, p1 = p1, ((2 * n + 1) * x * p1 - n * p0) / (n + 1)
    return p1 if p1.ndim else float(p1)


def legendre_integral(m: int, lo, hi):
    """Exact integral of L_m over [lo, hi] in [-1, 1].

    Uses the antiderivative identity
    int L_m = (L_{m+1} - L_{m-1}) / (2m + 1) for m >= 1, and int L_0 = x.
    """
    if m == 0:
        return np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)
    anti = lambda x: (legendre_eval(m + 1, x) - legendre_eval(m - 1, x)) / (2 * m + 1)
    return anti(hi) - anti(lo)


def moment_matrix(grid: SpectralGrid) -> np.ndarray:
    """k x k matrix of width-averaged Legendre moments over the reference CVs.

    M[j, m] = (1 / w_j) * int_{node_j}^{node_{j+1}} L_m dx, so column m = 0 is
    identically 1.
    """
    k = grid.num_cv
    lo, hi = grid.ref_nodes[:-1], grid.ref_nodes[1:]
    mat = np.empty((k, k))
    for m in range(k):
        mat[:, m] = legendre_integral(m, lo, hi) / grid.ref_widths
    return mat


@dataclass(frozen=True)
class ReconstructionOperator:
    """Precomputed matrices for one grid; shared by all SVs."""

    moments: np.ndarray = field(repr=False)  # (k, k) cell-average moment matrix
    moments_inv: np.ndarray = field(repr=False)  # (k, k)
    evaluation: np.ndarray = field(repr=False)  # (k+1, k) Legendre values at nodes
    combined: np.ndarray = field(repr=False)  # (k+1, k) averages -> traces
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_cv(self) -> int:
        return self.moments.shape[0]

    def coefficients(self, averages: np.ndarray) -> np.ndarray:
        """Legendre coefficients from cell averages (last-but-one axis = CV)."""
        return np.einsum("ml,...lc->...mc", self.moments_inv, averages)


def build_reconstruction(grid: SpectralGrid) -> ReconstructionOperator:
    """Assemble M, inv(M), A and C = A @ inv(M) for the grid's subdivision."""
    k = grid.num_cv
    moments = moment_matrix(grid)
    try:
        moments_inv = np.linalg.inv(moments)
    except np.linalg.LinAlgError as exc:  # distinct nodes make M regular
        raise np.linalg.LinAlgError(f"singular moment matrix for k={k}") from exc
    evaluation = np.empty((k + 1, k))
    for m in range(k):
        evaluation[:, m] = legendre_eval(m, grid.ref_nodes)
    combined = evaluation @ moments_inv
    return ReconstructionOperator(moments, moments_inv, evaluation, combined)


def _per_sv_product(matrix: np.ndarray, blocks: dict, data: np.ndarray) -> np.ndarray:
    """``matrix`` (p, k) applied to every SV of the (N, k, m) ``data``.

    Equals ``einsum("jl,ilc->ijc", matrix, data)`` up to the order of each
    sum, as one BLAS product with the block kron(matrix^T, I_m), which
    ``blocks`` caches per m. The result is a C-contiguous (N, p, m) array.
    """
    n, k, m = data.shape
    block = blocks.get(m)
    if block is None:
        block = blocks[m] = np.kron(matrix.T, np.eye(m))
    return (data.reshape(n, k * m) @ block).reshape(n, matrix.shape[0], m)


def reconstruct_faces(op: ReconstructionOperator, data: np.ndarray, out=None) -> np.ndarray:
    """Boundary traces for every SV and component, in CV-face order.

    ``data`` has shape (N, k, m); the result has shape (N*(k+1), m). Row
    i*k + j (j < k) is trace j of SV i and row N*k + i is SV i's right-end
    trace k. ``out``, when given, is a C-contiguous float array of that
    shape that receives the result.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 3 or data.shape[1] != op.num_cv:
        raise ValueError(
            f"expected field shaped (N, {op.num_cv}, m), got {data.shape}"
        )
    n, k, m = data.shape
    blocks = op._blocks.get(m)
    if blocks is None:
        # With m = 1 the right-end block also yields trace k-1; see below.
        eye = np.eye(m)
        blocks = op._blocks[m] = (
            np.kron(op.combined[:k].T, eye),
            np.kron(op.combined[k - (m == 1) :].T, eye),
        )
    if out is None:
        out = np.empty((n * (k + 1), m))
    flat = data.reshape(n, k * m)
    if m == 1:
        # A one-column product runs as a matrix-vector kernel, which sums in
        # another order than the matrix product. Two columns, traces k-1 and
        # k, keep it a matrix product: written column-major, trace k lands in
        # the last N rows and trace k-1 in rows the left block overwrites.
        np.matmul(flat, blocks[1], out=out[n * (k - 1) :, 0].reshape(2, n).T)
    else:
        np.matmul(flat, blocks[1], out=out[n * k :])
    np.matmul(flat, blocks[0], out=out[: n * k].reshape(n, k * m))
    return out


def _sv_traces(faces: np.ndarray, n_sv: int) -> np.ndarray:
    """The CV-face ordered traces ``faces`` as an (N, k+1, m) array."""
    m = faces.shape[1]
    k = faces.shape[0] // n_sv - 1
    traces = np.empty((n_sv, k + 1, m))
    traces[:, :k] = faces[: n_sv * k].reshape(n_sv, k, m)
    traces[:, k] = faces[n_sv * k :]
    return traces


def reconstruct_all(op: ReconstructionOperator, data: np.ndarray) -> np.ndarray:
    """Boundary traces for every SV and component.

    ``data`` has shape (N, k, m); the result has shape (N, k+1, m). The trace
    is continuous inside each SV; at a shared SV boundary the left SV's last
    trace and the right SV's first trace generally differ. The values are
    those of ``reconstruct_faces``, bit for bit.
    """
    faces = reconstruct_faces(op, data)
    return _sv_traces(faces, faces.shape[0] // (op.num_cv + 1))
