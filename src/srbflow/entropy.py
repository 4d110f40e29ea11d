"""SRB entropy of measure-preserving expanding circle maps, its Gateaux
derivative, and the two gradient fields.

In the inverse-derivative coordinate h = g' the entropy is the Gibbs form
H(h) = -int_0^n h ln h dy.  The L2 gradient is the Riesz representer
R_h = -ln h + (1/n) sum_i ln h(.+i), valid for any degree n.  Under the
H^2 metric an orthonormal basis is only available for degree 2, where the
gradient becomes an ODE system on the odd-harmonic coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import (
    DEFAULT_GRID,
    FourierRep,
    GridRep,
    InverseDerivative,
    TangentVector,
    _as_samples,
    differentiate,
    evaluate,
    to_grid,
)

DELTA_FLOOR = 1e-9


def _guarded(s: np.ndarray) -> np.ndarray:
    """s itself, after checking that it lies inside (delta, 1 - delta).

    min/max allocate no temporary array, which matters on large grid states."""
    lo, hi = s.min(), s.max()
    if lo <= DELTA_FLOOR or hi >= 1.0 - DELTA_FLOOR:
        raise DomainError(f"density leaves (0, 1): min={lo:.3e}, max={hi:.3e}")
    return s


def gibbs_entropy(s: np.ndarray, w: float) -> float:
    """-w sum s ln s: the entropy of density samples s with quadrature weight w."""
    s = _guarded(s)
    return float(-w * np.sum(s * np.log(s)))


def simplex_rhs(x: np.ndarray, n: int) -> np.ndarray:
    """dx_k/dt = -ln x_k + (1/n) sum_i ln x_i on every fiber of x.

    x holds the fibers (x(y), x(y+1), ..., x(y+n-1)) as the rows of
    x.reshape(n, -1), so an n-point x is one point of the simplex and the
    grid samples of a degree-n density are one fiber per node of [0, 1).
    Each fiber's components sum to zero."""
    logs = np.log(_guarded(np.asarray(x, dtype=float))).reshape(n, -1)
    return (logs.sum(axis=0) / n - logs).ravel()


def density_samples(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Grid samples of h, validated to lie inside (delta, 1 - delta)."""
    return _guarded(_as_samples(h.rep, h.degree, n_points))


def _tangent_samples(psi: TangentVector, n_points: int) -> np.ndarray:
    if isinstance(psi.rep, GridRep):
        return psi.rep.samples
    return to_grid(psi.rep, n_points).samples


def entropy(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> float:
    """H(h) = -int_0^n h ln h dy (trapezoid quadrature)."""
    s = _as_samples(h.rep, h.degree, n_points)
    return gibbs_entropy(s, h.degree / s.size)


def gateaux_h(h: InverseDerivative, psi: TangentVector, n_points: int = DEFAULT_GRID) -> float:
    """Directional derivative DH_h(psi) = -int_0^n psi ln h dy."""
    s = density_samples(h, n_points)
    p = _tangent_samples(psi, s.size)
    return float(-h.degree / s.size * np.sum(p * np.log(s)))


def gateaux_g(gprime: InverseDerivative, phi: TangentVector, n_points: int = DEFAULT_GRID) -> float:
    """Directional derivative in map coordinates: -int_0^n ln g' phi' dy.

    Equals int (g''/g') phi dy by periodic integration by parts; phi must
    carry a Fourier representation so phi' is available exactly.
    """
    if not isinstance(phi.rep, FourierRep):
        raise TypeError("gateaux_g needs a Fourier representation of phi")
    s = density_samples(gprime, n_points)
    dphi = evaluate(differentiate(phi.rep), np.arange(s.size) * (gprime.degree / s.size))
    return float(-gprime.degree / s.size * np.sum(np.log(s) * dphi))


def riesz_gradient(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> TangentVector:
    """L2 gradient R_h = -ln h + (1/n) sum_i ln h(y+i), on the grid of h."""
    n = h.degree
    return TangentVector(GridRep(float(n), simplex_rhs(_as_samples(h.rep, n, n_points), n)), n)


# ---------------------------------------------------------------------------
# Degree-2 Sobolev (H^2) gradient on the odd-harmonic coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GalerkinState:
    """Odd-harmonic coefficients of u(y) - y/2 for the degree-2 flow.

    a[m-1], b[m-1] multiply cos((2m-1) pi y) and sin((2m-1) pi y); even
    harmonics are excluded by the measure-preservation constraint.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        if self.a.size != self.b.size:
            raise ValueError("a and b must have the same length")

    @property
    def n_modes(self) -> int:
        return self.a.size


def odd_frequencies(n_modes: int) -> np.ndarray:
    return 2 * np.arange(1, n_modes + 1) - 1


def c_squared(k) -> np.ndarray | float:
    """1 / ||cos(k pi y)||^2_{H^2} = 1 / (1 + (k pi)^2 + (k pi)^4)."""
    kpi = np.asarray(k, dtype=float) * np.pi
    out = 1.0 / (1.0 + kpi**2 + kpi**4)
    return out if out.ndim else float(out)


def flow_density(state: GalerkinState, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """u_y = 1/2 + pi sum (2k-1)(-a sin + b cos) sampled on [0, 2)."""
    k = odd_frequencies(state.n_modes)
    y = np.arange(n_points) * (2.0 / n_points)
    ang = np.pi * np.outer(y, k)
    return 0.5 + np.pi * (np.cos(ang) @ (k * state.b) - np.sin(ang) @ (k * state.a))


def _n2_projection_integrals(state: GalerkinState, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """int_0^2 (u_yy / u_y) cos((2m-1) pi y) dy and the sine counterpart."""
    k = odd_frequencies(state.n_modes)
    y = np.arange(n_points) * (2.0 / n_points)
    ang = np.pi * np.outer(y, k)
    cos, sin = np.cos(ang), np.sin(ang)
    u_y = _guarded(0.5 + np.pi * (cos @ (k * state.b) - sin @ (k * state.a)))
    u_yy = -np.pi**2 * (cos @ (k**2 * state.a) + sin @ (k**2 * state.b))
    ratio = u_yy / u_y
    w = 2.0 / n_points
    return w * (ratio @ cos), w * (ratio @ sin)


def sobolev_gradient_n2(state: GalerkinState, n_points: int = DEFAULT_GRID) -> GalerkinState:
    """Coefficient derivatives of the H^2-metric gradient flow (degree 2):
    da_{2m-1}/dt = c^2_{2m-1} int_0^2 (u_yy/u_y) cos((2m-1) pi y) dy,
    and the sine counterpart."""
    ia, ib = _n2_projection_integrals(state, n_points)
    c2 = c_squared(odd_frequencies(state.n_modes))
    return GalerkinState(c2 * ia, c2 * ib)


def pde_rhs_n2(state: GalerkinState, n_points: int = DEFAULT_GRID) -> GalerkinState:
    """Mode derivatives of the diffusion PDE w_t = w_yy / w_y; same
    projection integrals as the gradient flow but without the c^2 factors."""
    ia, ib = _n2_projection_integrals(state, n_points)
    return GalerkinState(ia, ib)


# ---------------------------------------------------------------------------
# Even-case reduction in the variables B_k = pi (2k-1) b_{2k-1}
# ---------------------------------------------------------------------------


def even_density(B: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """h(tau) = 1/2 + sum B_k cos((2k-1) tau)."""
    B = np.atleast_1d(np.asarray(B, dtype=float))
    k = odd_frequencies(B.size)
    return 0.5 + np.cos(np.outer(tau, k)) @ B


def galerkin_rhs_even(B, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Even-case gradient flow in the rescaled variables:

    dB_m/dt = -pi (2m-1) c^2_{2m-1}
              * int_0^{2pi} [sum_k B_k (2k-1) sin((2k-1)tau)]
                / [1/2 + sum_k B_k cos((2k-1)tau)] * sin((2m-1)tau) dtau

    Implemented directly in the tau variable, independently of
    sobolev_gradient_n2, so the two formulas can cross-check each other.
    """
    B = np.atleast_1d(np.asarray(B, dtype=float))
    k = odd_frequencies(B.size)
    tau = np.arange(n_points) * (2.0 * np.pi / n_points)
    ang = np.outer(tau, k)
    sin = np.sin(ang)
    h = _guarded(0.5 + np.cos(ang) @ B)
    num = sin @ (k * B)
    w = 2.0 * np.pi / n_points
    return -np.pi * k * c_squared(k) * (w * ((num / h) @ sin))


def pde_rhs_even(B, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Even-case diffusion PDE modes: galerkin_rhs_even without c^2."""
    B = np.atleast_1d(np.asarray(B, dtype=float))
    return galerkin_rhs_even(B, n_points) / c_squared(odd_frequencies(B.size))


def even_entropy(B, n_points: int = DEFAULT_GRID) -> float:
    """H of the density h(tau) = 1/2 + sum B_k cos((2k-1)tau), i.e.
    -(1/pi) int_0^{2pi} h ln h dtau."""
    tau = np.arange(n_points) * (2.0 * np.pi / n_points)
    return gibbs_entropy(even_density(B, tau), 2.0 / n_points)


def galerkin_to_even(state: GalerkinState) -> np.ndarray:
    """B_k = pi (2k-1) b_{2k-1}; requires a pure-sine (even-density) state."""
    if np.any(state.a != 0.0):
        raise ValueError("even-case reduction needs a = 0")
    return np.pi * odd_frequencies(state.n_modes) * state.b


def even_to_galerkin(B) -> GalerkinState:
    B = np.atleast_1d(np.asarray(B, dtype=float))
    return GalerkinState(np.zeros(B.size), B / (np.pi * odd_frequencies(B.size)))
