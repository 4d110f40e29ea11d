"""Gradient flows of the SRB entropy on Lebesgue-measure-preserving
expanding circle maps."""

from .errors import DomainError, StepError
from .spectral import (
    FourierRep,
    GridRep,
    InverseDerivative,
    TangentVector,
    differentiate,
    project_constraint,
    to_grid,
)
from .entropy import (
    c_squared,
    density_entropy,
    gateaux_g,
    gateaux_h,
    odd_mode_density,
    riesz_gradient,
    simplex_rhs,
)
from .flow import (
    FlowConfig,
    FlowSystem,
    Trajectory,
    even_galerkin_system,
    galerkin_system_n2,
    heat_reference,
    integrate,
    riesz_system,
)
from .verify import CheckReport, run_all

__all__ = [
    "CheckReport", "DomainError", "FlowConfig", "FlowSystem", "FourierRep",
    "GridRep", "InverseDerivative", "StepError", "TangentVector", "Trajectory",
    "c_squared", "density_entropy", "differentiate", "even_galerkin_system",
    "galerkin_system_n2", "gateaux_g", "gateaux_h", "heat_reference", "integrate",
    "odd_mode_density", "project_constraint", "riesz_gradient", "riesz_system",
    "run_all", "simplex_rhs", "to_grid",
]

__version__ = "0.1.0"
