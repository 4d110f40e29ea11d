"""SRB entropy of measure-preserving expanding circle maps, its Gateaux
derivative, and the two gradient fields.

In the inverse-derivative coordinate h = g' the entropy is the Gibbs form
H(h) = -int_0^n h ln h dy.  The L2 gradient is the Riesz representer
R_h = -ln h + (1/n) sum_i ln h(.+i), valid for any degree n.  Under the
H^2 metric an orthonormal basis is only available for degree 2, where the
gradient becomes an ODE system on the odd-harmonic coefficients; that system
and the diffusion modes are one kernel on amplitude blocks, built and cached
in one place, _odd_kernel(K, N, blocks, use_pde); the flow systems and
odd_mode_density read it.
"""

from __future__ import annotations

from collections import namedtuple
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
    to_grid,
)

DELTA_FLOOR = 1e-9
# bound once: ndarray.sum reaches np.add.reduce through a Python wrapper
_min, _max, _add = np.minimum.reduce, np.maximum.reduce, np.add.reduce


def _guarded(s: np.ndarray) -> np.ndarray:
    """s itself, after checking that it lies inside (delta, 1 - delta).

    min/max allocate no temporary array, which matters on large grid states;
    the negated test also rejects NaN."""
    lo, hi = _min(s, None), _max(s, None)
    if not (lo > DELTA_FLOOR and hi < 1.0 - DELTA_FLOOR):
        raise DomainError(f"density leaves (0, 1): min={lo:.3e}, max={hi:.3e}")
    return s


def gibbs_entropy(s: np.ndarray, w: float) -> np.ndarray | float:
    """-w sum s ln s over the last axis: the entropy of density samples s
    (of each row of a stack of them) with quadrature weight w."""
    s = _guarded(s)
    out = -w * (s * np.log(s)).sum(axis=-1)
    return out if out.ndim else float(out)


def simplex_rhs(x: np.ndarray, n: int) -> np.ndarray:
    """dx_k/dt = -ln x_k + (1/n) sum_i ln x_i on every fiber of x.

    x holds the fibers (x(y), x(y+1), ..., x(y+n-1)) as the rows of
    x.reshape(n, -1), so an n-point x is one point of the simplex and the
    grid samples of a degree-n density are one fiber per node of [0, 1).
    Each fiber's components sum to zero; the result has the shape of x, so
    an (n, b) block of fibers gives an (n, b) block.  One fiber is summed
    flat: its (n, 1) view costs numpy n inner loops of length 1 per call,
    for the same bits."""
    x = np.asarray(x, dtype=float)
    logs = np.log(_guarded(x))
    if x.size == n:
        return _add(logs, None) / n - logs
    logs = logs.reshape(n, -1)
    return (_add(logs, 0) / n - logs).reshape(x.shape)


def density_samples(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Grid samples of h, validated to lie inside (delta, 1 - delta)."""
    return _guarded(_as_samples(h.rep, h.degree, n_points))


def density_entropy(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> float:
    """H(h) = -int_0^n h ln h dy (trapezoid quadrature)."""
    s = _as_samples(h.rep, h.degree, n_points)
    return gibbs_entropy(s, h.degree / s.size)


def gateaux_h(h: InverseDerivative, psi: TangentVector, n_points: int = DEFAULT_GRID) -> float:
    """Directional derivative DH_h(psi) = -int_0^n psi ln h dy."""
    s = density_samples(h, n_points)
    p = _as_samples(psi.rep, psi.degree, s.size)
    return float(_gateaux_rows(p, np.log(s), h.degree / s.size))


def _gateaux_rows(p: np.ndarray, logs: np.ndarray, w: float) -> np.ndarray:
    """-w sum psi ln h over the last axis: DH_h of each row of samples p,
    given logs = ln h on the same grid and the quadrature weight w."""
    return -w * np.sum(p * logs, axis=-1)


def gateaux_g(gprime: InverseDerivative, phi: TangentVector, n_points: int = DEFAULT_GRID) -> float:
    """Directional derivative in map coordinates: -int_0^n ln g' phi' dy.

    Equals int (g''/g') phi dy by periodic integration by parts; phi must
    carry a Fourier representation of period n so phi' is available exactly.
    """
    if not isinstance(phi.rep, FourierRep):
        raise TypeError("gateaux_g needs a Fourier representation of phi")
    s = density_samples(gprime, n_points)
    dphi = to_grid(differentiate(phi.rep), s.size).samples
    return float(-gprime.degree / s.size * np.sum(np.log(s) * dphi))


def riesz_gradient(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> TangentVector:
    """L2 gradient R_h = -ln h + (1/n) sum_i ln h(y+i), on the grid of h."""
    n = h.degree
    return TangentVector(GridRep(float(n), simplex_rhs(_as_samples(h.rep, n, n_points), n)), n)


# ---------------------------------------------------------------------------
# Degree-2 odd-mode equations on the amplitude blocks x = [A; B] = pi k [a; b]
# ---------------------------------------------------------------------------


def odd_frequencies(n_modes: int) -> np.ndarray:
    return np.arange(1, 2 * n_modes, 2)


def c_squared(k) -> np.ndarray | float:
    """1 / ||cos(k pi y)||^2_{H^2} = 1 / (1 + (k pi)^2 + (k pi)^4)."""
    kpi = np.asarray(k, dtype=float) * np.pi
    out = 1.0 / (1.0 + kpi**2 + kpi**4)
    return out if out.ndim else float(out)


# the odd-mode equations of one run on the amplitudes x, s = pi k (x = s [a; b]),
# and the read-only stack of its tables
_OddKernel = namedtuple("_OddKernel", "density rhs entropy s tables")


@lru_cache(maxsize=16)
def _odd_kernel(n_modes: int, n_points: int, blocks: int, use_pde: bool) -> _OddKernel:
    """The odd-mode kernel of the degree-2 flows for K = n_modes modes on the
    grid tau_j = 2 pi j / N (tau = pi y, k = 2m - 1), built once per
    (K, N, blocks, use_pde) and shared: its functions keep no state.

    x = [A; B] = pi k [a; b] holds the amplitudes of a general degree-2
    density as blocks = 2 rows of K, and blocks = 1 the even amplitudes B;
    x may have any shape of that size, and the rhs has the shape of x.  The
    entropy takes one state (blocks, K) or a stack (rows, blocks, K): one
    gemv per state and block, as in density, so each row has the bits of
    its state alone.  With h = 1/2 + C x and h' = dh/dtau = -S (k x), where
    the blocks of x pair with the tables T as C = T[:-1] and S = T[1:],
    projecting h'/h on the modes gives dx/dt = -pi k w (dtau ((S (k x)) / h)^T S):
    the H^2 gradient flow for w = c_squared(k), the diffusion modes of
    w_t = w_yy / w_y for w = 1 (use_pde).  The entropy is -(1/pi) int_0^{2pi}
    h ln h dtau.  What a run holds fixed is bound here once: the tables, k,
    the scale -pi k w, dtau = 2 pi / N and the quadrature weight 2 / N."""
    k = odd_frequencies(n_modes).astype(float)
    ang = np.outer(np.arange(n_points) * (2.0 * np.pi / n_points), k)
    T = np.empty((blocks + 1,) + ang.shape)  # the last blocks + 1 of (-sin, cos, sin)(k tau)
    np.cos(ang, out=T[-2])
    np.sin(ang, out=T[-1])
    if blocks == 2:
        np.negative(T[-1], out=T[0])
    T.setflags(write=False)
    C, S, S_stack = list(T[:-1]), list(T[1:]), T[1:]
    w = 1.0 if use_pde else c_squared(k)
    scale, dtau, weight = -np.pi * k * w, 2.0 * np.pi / n_points, 2.0 / n_points

    def density(x):
        x = x.reshape(blocks, -1)
        h = 0.5 + C[0] @ x[0]
        return h + C[1] @ x[1] if blocks == 2 else h

    def rhs(x):
        h = _guarded(density(x))
        kx = k * x.reshape(blocks, -1)
        num = S[0] @ kx[0] + S[1] @ kx[1] if blocks == 2 else S[0] @ kx[0]
        return (scale * (dtau * ((num / h) @ S_stack))).reshape(x.shape)

    def entropy(x):
        h = reduce(np.add, ((c @ x[..., b, :, None])[..., 0] for b, c in enumerate(C)), 0.5)
        return gibbs_entropy(h, weight)

    return _OddKernel(density, rhs, entropy, np.pi * k, T)


def odd_mode_density(x, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """h(tau) = 1/2 + sum_k (-A_k sin + B_k cos)(k tau) on tau_j = 2 pi j / N
    for x = [A; B]; a 1-D x = B is the even density 1/2 + sum B_k cos(k tau)."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.ndim > 2 or len(X) > 2:
        raise ValueError("x must be the amplitudes B or the two blocks [A; B]")
    return _odd_kernel(X.shape[1], n_points, len(X), False).density(X)
