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
from functools import lru_cache, reduce

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
)

DELTA_FLOOR = 1e-9


def _guarded(s: np.ndarray) -> np.ndarray:
    """s itself, after checking that it lies inside (delta, 1 - delta).

    min/max allocate no temporary array, which matters on large grid states;
    the negated test also rejects NaN."""
    lo, hi = s.min(), s.max()
    if not (lo > DELTA_FLOOR and hi < 1.0 - DELTA_FLOOR):
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
    Each fiber's components sum to zero; the result has the shape of x, so
    an (n, b) block of fibers gives an (n, b) block."""
    x = np.asarray(x, dtype=float)
    logs = np.log(_guarded(x)).reshape(n, -1)
    return (logs.sum(axis=0) / n - logs).reshape(x.shape)


def density_samples(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Grid samples of h, validated to lie inside (delta, 1 - delta)."""
    return _guarded(_as_samples(h.rep, h.degree, n_points))


def entropy(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> float:
    """H(h) = -int_0^n h ln h dy (trapezoid quadrature)."""
    s = _as_samples(h.rep, h.degree, n_points)
    return gibbs_entropy(s, h.degree / s.size)


def gateaux_h(h: InverseDerivative, psi: TangentVector, n_points: int = DEFAULT_GRID) -> float:
    """Directional derivative DH_h(psi) = -int_0^n psi ln h dy."""
    s = density_samples(h, n_points)
    p = _as_samples(psi.rep, psi.degree, s.size)
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


@lru_cache(maxsize=8)
def _odd_tables(n_modes: int, n_points: int, blocks: int) -> np.ndarray:
    """The last blocks + 1 of (-sin, cos, sin)(k tau) on tau_j = 2 pi j / N,
    k = odd_frequencies(n_modes), stacked in one array, so every table of
    _odd_mode_rhs is a view.  The tables depend only on (K, N, blocks) and a
    run uses one (K, N), so they are built once and shared read-only."""
    ang = np.outer(np.arange(n_points) * (2.0 * np.pi / n_points), odd_frequencies(n_modes))
    T = np.empty((blocks + 1,) + ang.shape)
    np.cos(ang, out=T[-2])
    np.sin(ang, out=T[-1])
    if blocks == 2:
        np.negative(T[-1], out=T[0])
    T.setflags(write=False)
    return T


def _odd_mode_rhs(x: np.ndarray, k: np.ndarray, w, n_points: int) -> np.ndarray:
    """The one odd-mode kernel of the degree-2 flows, on the grid tau = pi y.

    In the amplitudes x = [A; B] = pi k [a; b] the density is h = 1/2 + C x
    and h' = dh/dtau = -S (k x), with C = [-sin | cos] and S = [cos | sin];
    an even density has A = 0, so x = [B], C = cos and S = sin.  Projecting
    h'/h on the modes gives dx/dt = -pi k w (dtau ((S (k x)) / h)^T S): the
    H^2 gradient flow for the weights w = c^2, the diffusion modes for w = 1.
    The blocks of x pair with the tables T as C = T[:-1] and S = T[1:]."""
    T = _odd_tables(k.size, n_points, len(x))
    h = _guarded(reduce(np.add, map(np.matmul, T[:-1], x), 0.5))
    num = reduce(np.add, map(np.matmul, T[1:], k * x))
    return -np.pi * k * w * ((2.0 * np.pi / n_points) * ((num / h) @ T[1:]))


def _n2_rhs(state: GalerkinState, w, n_points: int) -> GalerkinState:
    """The kernel on [A; B] = pi k [a; b], scaled back to (a, b)."""
    k = odd_frequencies(state.n_modes)
    xdot = _odd_mode_rhs(np.pi * k * np.stack([state.a, state.b]), k, w, n_points)
    return GalerkinState(*(xdot / (np.pi * k)))


def flow_density(state: GalerkinState, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """u_y = 1/2 + pi sum (2k-1)(-a sin + b cos) sampled on [0, 2)."""
    k = odd_frequencies(state.n_modes)
    x = np.pi * k * np.stack([state.a, state.b])
    return reduce(np.add, map(np.matmul, _odd_tables(k.size, n_points, 2)[:2], x), 0.5)


def sobolev_gradient_n2(state: GalerkinState, n_points: int = DEFAULT_GRID) -> GalerkinState:
    """Coefficient derivatives of the H^2-metric gradient flow (degree 2):
    da_{2m-1}/dt = c^2_{2m-1} int_0^2 (u_yy/u_y) cos((2m-1) pi y) dy,
    and the sine counterpart."""
    return _n2_rhs(state, c_squared(odd_frequencies(state.n_modes)), n_points)


def pde_rhs_n2(state: GalerkinState, n_points: int = DEFAULT_GRID) -> GalerkinState:
    """Mode derivatives of the diffusion PDE w_t = w_yy / w_y; same
    projection integrals as the gradient flow, with unit weights for c^2."""
    return _n2_rhs(state, 1.0, n_points)


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

    i.e. the odd-mode kernel on the A = 0 tables with the weights c^2.
    """
    B = np.atleast_1d(np.asarray(B, dtype=float))
    k = odd_frequencies(B.size)
    return _odd_mode_rhs(B[None], k, c_squared(k), n_points)[0]


def pde_rhs_even(B, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Even-case diffusion PDE modes: galerkin_rhs_even with unit weights."""
    B = np.atleast_1d(np.asarray(B, dtype=float))
    return _odd_mode_rhs(B[None], odd_frequencies(B.size), 1.0, n_points)[0]


def even_entropy(B, n_points: int = DEFAULT_GRID) -> float:
    """H of the density h(tau) = 1/2 + sum B_k cos((2k-1)tau), i.e.
    -(1/pi) int_0^{2pi} h ln h dtau, on the kernel's cached cos table."""
    B = np.atleast_1d(np.asarray(B, dtype=float))
    return gibbs_entropy(0.5 + _odd_tables(B.size, n_points, 1)[0] @ B, 2.0 / n_points)
