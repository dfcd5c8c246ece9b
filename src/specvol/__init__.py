"""1-D spectral-volume solver with entropy-rate stabilization."""

from .exceptions import DegenerateSpeedError, InadmissibleStateError, StepFailureError
from .filters import FilterGenerator, apply_generator, build_generator, filter_matrix
from .mesh import SpectralGrid, build_grid, gauss_lobatto_nodes
from .reconstruction import ReconstructionOperator, build_reconstruction, reconstruct_all
from .reference import (
    ReferenceSolution,
    error_norms,
    exact_advection,
    exact_burgers_rarefaction,
    exact_euler_density_bump,
    lax_friedrichs_solver,
    observed_order,
)
from .riemann import FixedBC, PeriodicBC
from .stabilization import CorrectionReport, corrected_rhs
from .systems import (
    Burgers,
    ConservationSystem,
    Euler,
    LinearAdvection,
    advection_system,
    burgers_system,
    euler_system,
    primitive_to_conserved,
)
from .timeint import (
    CellAverageField,
    SolverConfig,
    discrete_l2,
    euler_adapted,
    init_field,
    integrate,
    select_dt,
    ssp_rk3_step,
)

__version__ = "0.1.0"
