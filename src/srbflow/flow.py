"""Fixed-step time integration of the four dynamical systems.

Each system is packaged as a FlowSystem: a right-hand side on a flat numpy
state vector plus monitor callbacks (entropy, gradient norm, constraint
residual) evaluated at recorded steps.  Explicit Euler is the default
stepper; classical RK4 is available when tighter monotonicity tolerances
are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import StepError
from .spectral import DEFAULT_GRID, translate_sums
from .entropy import (
    GalerkinState,
    even_entropy,
    flow_density,
    galerkin_rhs_even,
    gibbs_entropy,
    odd_frequencies,
    pde_rhs_even,
    pde_rhs_n2,
    simplex_rhs,
    sobolev_gradient_n2,
)


@dataclass
class FlowConfig:
    """Integration parameters; defaults mirror the reference simulation
    (Euler, step 0.1)."""

    t_end: float
    dt: float = 0.1
    method: str = "euler"
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.dt >= self.t_end:
            raise ValueError("need 0 < dt < t_end")
        if self.method not in ("euler", "rk4"):
            raise ValueError("method must be 'euler' or 'rk4'")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n_records, state_dim)
    entropy: np.ndarray
    grad_norm: np.ndarray
    constraint_residual: np.ndarray


@dataclass(frozen=True)
class FlowSystem:
    """A right-hand side with its monitors, all on flat state vectors."""

    rhs: Callable[[np.ndarray], np.ndarray]
    entropy: Callable[[np.ndarray], float]
    constraint_residual: Callable[[np.ndarray], float]
    grad_norm: Callable[[np.ndarray], float] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.grad_norm is None:
            object.__setattr__(self, "grad_norm", lambda x: float(np.linalg.norm(self.rhs(x))))


# ---------------------------------------------------------------------------
# The individual systems
# ---------------------------------------------------------------------------


def riesz_system(degree: int) -> FlowSystem:
    """L2 gradient flow on grid samples of h (any degree n >= 2).

    At each grid node y the n translated values evolve by simplex_rhs, so
    the constraint sum_i h(y+i) = 1 is preserved.  An n-point state is a
    single fiber (x_1, ..., x_n) = (h(y), h(y+1), ..., h(y+n-1)): the
    simplex flow."""

    def rhs(x):
        return simplex_rhs(x, degree)

    def grad_norm(x):
        r = rhs(x)
        return float(np.sqrt(degree / r.size * np.sum(r**2)))

    return FlowSystem(
        rhs=rhs,
        entropy=lambda x: gibbs_entropy(x, degree / x.size),
        constraint_residual=lambda x: float(np.max(np.abs(translate_sums(x, degree) - 1.0))),
        grad_norm=grad_norm,
    )


def _pack(state: GalerkinState) -> np.ndarray:
    return np.concatenate([state.a, state.b])


def _unpack(x: np.ndarray) -> GalerkinState:
    m = x.size // 2
    return GalerkinState(x[:m], x[m:])


def galerkin_system_n2(n_points: int = DEFAULT_GRID, use_pde: bool = False) -> FlowSystem:
    """Degree-2 flow on the packed state [a_1, a_3, ...; b_1, b_3, ...]."""
    step_rhs = pde_rhs_n2 if use_pde else sobolev_gradient_n2

    def rhs(x):
        return _pack(step_rhs(_unpack(x), n_points))

    return FlowSystem(
        rhs=rhs,
        entropy=lambda x: gibbs_entropy(flow_density(_unpack(x), n_points), 2.0 / n_points),
        constraint_residual=lambda x: 0.0,  # odd harmonics satisfy it identically
    )


def even_galerkin_system(n_points: int = DEFAULT_GRID, use_pde: bool = False) -> FlowSystem:
    """Even-case flow on the B variables (pure cosine densities)."""
    step_rhs = pde_rhs_even if use_pde else galerkin_rhs_even
    return FlowSystem(
        rhs=lambda B: step_rhs(B, n_points),
        entropy=lambda B: even_entropy(B, n_points),
        constraint_residual=lambda B: 0.0,
    )


def heat_reference(B0, t: float) -> np.ndarray:
    """Exact heat-equation (u_t = u_xx) evolution of the even-case modes on
    the period-2pi circle: B_k(t) = B_k(0) exp(-(2k-1)^2 t)."""
    B0 = np.atleast_1d(np.asarray(B0, dtype=float))
    if t < 0:
        raise ValueError("t must be >= 0")
    k = odd_frequencies(B0.size)
    return B0 * np.exp(-(k.astype(float) ** 2) * t)


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------


def _euler_step(rhs, x, dt):
    return x + dt * rhs(x)


def _rk4_step(rhs, x, dt):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(system: FlowSystem, initial, cfg: FlowConfig) -> Trajectory:
    """Fixed-step integration with monitors sampled at recorded steps.

    Raises DomainError if the state leaves the valid region and StepError
    if a step produces a non-finite value.
    """
    x = np.array(initial, dtype=float)
    step = _euler_step if cfg.method == "euler" else _rk4_step
    n_steps = int(round(cfg.t_end / cfg.dt))

    times, states, ents, gnorms, residuals = [], [], [], [], []

    def record(t, x):
        times.append(t)
        states.append(x.copy())
        ents.append(system.entropy(x))
        gnorms.append(system.grad_norm(x))
        residuals.append(system.constraint_residual(x))

    record(0.0, x)
    for i in range(1, n_steps + 1):
        x = step(system.rhs, x, cfg.dt)
        if not np.all(np.isfinite(x)):
            raise StepError(f"non-finite state at step {i}")
        if i % cfg.record_every == 0 or i == n_steps:
            record(i * cfg.dt, x)

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        entropy=np.array(ents),
        grad_norm=np.array(gnorms),
        constraint_residual=np.array(residuals),
    )
