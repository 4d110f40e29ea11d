"""Gradient flows of the SRB entropy on Lebesgue-measure-preserving
expanding circle maps."""

from .errors import DomainError, StepError
from .spectral import (
    FourierRep,
    GridRep,
    InverseDerivative,
    TangentVector,
    constraint_residual,
    derivative_sup_bound,
    differentiate,
    evaluate,
    project_constraint,
    quadrature,
    sobolev_norm,
    tangent_residual,
    to_fourier,
    to_grid,
)
from .entropy import (
    GalerkinState,
    c_squared,
    entropy,
    galerkin_rhs_even,
    gateaux_g,
    gateaux_h,
    pde_rhs_even,
    pde_rhs_n2,
    riesz_gradient,
    simplex_rhs,
    sobolev_gradient_n2,
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
    "GalerkinState", "GridRep", "InverseDerivative", "StepError",
    "TangentVector", "Trajectory", "c_squared", "constraint_residual",
    "derivative_sup_bound", "differentiate", "entropy", "evaluate",
    "even_galerkin_system", "galerkin_rhs_even", "galerkin_system_n2",
    "gateaux_g", "gateaux_h", "heat_reference", "integrate",
    "pde_rhs_even", "pde_rhs_n2", "project_constraint", "quadrature",
    "riesz_gradient", "riesz_system", "run_all", "simplex_rhs",
    "sobolev_gradient_n2", "sobolev_norm",
    "tangent_residual", "to_fourier", "to_grid",
]

__version__ = "0.1.0"
