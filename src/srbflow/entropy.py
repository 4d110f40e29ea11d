"""SRB entropy of measure-preserving expanding circle maps, its Gateaux
derivative, and the two gradient fields.

In the inverse-derivative coordinate h = g' the entropy is the Gibbs form
H(h) = -int_0^n h ln h dy.  The L2 gradient is the Riesz representer
R_h = -ln h + (1/n) sum_i ln h(.+i), valid for any degree n.  Under the
H^2 metric an orthonormal basis is only available for degree 2, where the
gradient becomes an ODE system on the odd-harmonic coefficients; that system
and the diffusion modes are one kernel on a flat amplitude vector and one
table pair, built and cached in one place, _odd_kernel(K, N, blocks); the
flow systems and odd_mode_density read it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

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
# the most values _guarded compares one by one: 0.9-1.6 us at 5-16 values against
# 2.1-2.4 us for the two reductions, which cost as much at about 24
FEW_VALUES = 16
_F64 = np.dtype(float)  # the float64 singleton: another float64 dtype takes the reductions
# below this sum of |x| over its amplitudes x, every computed h = 1/2 + C x of a degree-2
# state lies inside (DELTA_FLOOR, 1 - DELTA_FLOOR): see _odd_kernel
_SAFE_AMPLITUDE = (0.5 - DELTA_FLOOR) * (1.0 - 1e-9)


def _guarded(s: np.ndarray) -> np.ndarray:
    """s itself, after checking that it lies inside (delta, 1 - delta).

    Each numpy reduction costs about 0.9 us to start, whatever the size (two
    took 1.9 of a 5-point simplex_rhs call's 4.0 us), so a float64 state of at
    most FEW_VALUES values is compared value by value.  Any other state, and one
    that fails, takes min/max: they allocate no temporary array on large grid
    states and name the extremes; the negated tests also reject NaN."""
    if 0 < s.size <= FEW_VALUES and s.dtype is _F64:
        floor, ceil = DELTA_FLOOR, 1.0 - DELTA_FLOOR
        for v in s.ravel().tolist():
            if not floor < v < ceil:
                break
        else:
            return s
    lo, hi = _min(s, None), _max(s, None)
    if not (lo > DELTA_FLOOR and hi < 1.0 - DELTA_FLOOR):
        raise DomainError(f"density leaves (0, 1): min={lo:.3e}, max={hi:.3e}")
    return s


def _finite(a: np.ndarray) -> bool:
    """Whether every value of a is finite: a float64 array of at most FEW_VALUES
    values is read value by value (0.4-0.8 us a call at 3-16 values against
    1.1-1.2 us for isfinite and its reduction), any other one by numpy."""
    if a.size <= FEW_VALUES and a.dtype is _F64:
        return all(map(math.isfinite, a.ravel().tolist()))
    return bool(np.logical_and.reduce(np.isfinite(a), None))


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
# Degree-2 odd-mode equations on the flat amplitudes x = [A; B] = pi k [a; b]
# ---------------------------------------------------------------------------


def odd_frequencies(n_modes: int) -> np.ndarray:
    return np.arange(1, 2 * n_modes, 2)


def c_squared(k) -> np.ndarray | float:
    """1 / ||cos(k pi y)||^2_{H^2} = 1 / (1 + (k pi)^2 + (k pi)^4)."""
    kpi = np.asarray(k, dtype=float) * np.pi
    out = 1.0 / (1.0 + kpi**2 + kpi**4)
    return out if out.ndim else float(out)


# the odd-mode equations of one run on the flat amplitudes x, s = pi k (x = s [a; b]),
# and its read-only table pair (C, S)
_OddKernel = namedtuple("_OddKernel", "density rhs entropy s tables")


@lru_cache(maxsize=16)
def _odd_kernel(n_modes: int, n_points: int, blocks: int) -> _OddKernel:
    """The odd-mode kernel of the degree-2 flows for K = n_modes modes on the
    grid tau_j = 2 pi j / N (tau = pi y, k = 2m - 1), built once per
    (K, N, blocks) and shared: its functions keep no state.

    x = [A; B] = pi k [a; b] holds the amplitudes of a general degree-2
    density as one flat vector of m = 2K values (blocks = 2), and x = B the
    even amplitudes (blocks = 1, m = K); k and the scales are tiled to length
    m, so blocks only chooses the table pair (C, S): (cos, sin)(k tau) for B,
    ([-sin | cos], [cos | sin])(k tau) for [A; B].  With h = 1/2 + C x and
    h' = dh/dtau = -S (k x), projecting h'/h on the modes gives
    dx/dt = -pi k w (dtau ((S (k x)) / h)^T S), rhs(x, use_pde): the H^2
    gradient flow for w = c_squared(k), the diffusion modes of w_t = w_yy / w_y
    for w = 1 (use_pde); the tables do not depend on w, so both flows share
    one entry.  The entropy -(1/pi) int_0^{2pi} h ln h dtau takes one state
    (m,) or a stack (rows, m): one gemv per state, as in density, so each row
    has the bits of its state alone.  What a run holds fixed is bound here
    once: the tables, k, both scales -pi k w, dtau = 2 pi / N and the
    quadrature weight 2 / N.  rhs and entropy raise ValueError on a grid
    that aliases the top frequency 2K - 1 (N <= 2 (2K - 1)).

    rhs proves h's range from x where it can, instead of _guarded's two
    reductions over the N nodes.  Every entry of C is a computed cos or sin,
    so |C| <= 1, and a gemv of m terms errs by at most m u sum |C| |x| (u =
    2^-53; Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1), adding 1/2 by at most u: |h - 1/2| <= sum |x| (1 + m u) + u,
    up to terms in u^2.  Python's sum of the |x| is low by at most (m - 1) u
    of itself.  So a float64 x of at most FEW_VALUES values whose computed
    sum of |x| is below _SAFE_AMPLITUDE = (1/2 - delta)(1 - 1e-9) gives
    |h - 1/2| < 1/2 - delta at every node: the margin of 5e-10 exceeds that
    rounding, below 4e-15 at m = 16, about 10^5 times, and an ulp more in a
    table entry or in the threshold itself.  Any other x (a larger sum, NaN,
    +-inf, a sum that overflows, more values, another dtype) takes _guarded
    on h, whose DomainError names h's min and max.  The sum is Python's, not
    math.fsum, which raises OverflowError where _guarded must raise."""
    k = np.tile(odd_frequencies(n_modes).astype(float), blocks)
    ang = np.outer(np.arange(n_points) * (2.0 * np.pi / n_points), k[:n_modes])
    cos, sin = np.cos(ang), np.sin(ang)
    C, S = (cos, sin) if blocks == 1 else (np.hstack([-sin, cos]), np.hstack([cos, sin]))
    C.setflags(write=False)
    S.setflags(write=False)
    scales = tuple(-np.pi * k * w for w in (c_squared(k), 1.0))  # indexed by use_pde
    dtau, weight = 2.0 * np.pi / n_points, 2.0 / n_points
    # the rule of to_grid; density stays pointwise, as the figures sample it on any N
    alias_error = (f"frequency {2 * n_modes - 1} aliases on a grid of {n_points} nodes: "
                   "need fewer than N/2") if 2 * (2 * n_modes - 1) >= n_points else None

    def density(x):
        return 0.5 + C.dot(x)

    def rhs(x, use_pde):
        if alias_error:
            raise ValueError(alias_error)
        h = density(x)
        if not (x.dtype is _F64 and x.size <= FEW_VALUES
                and sum(map(abs, x.tolist())) < _SAFE_AMPLITUDE):
            _guarded(h)
        return scales[use_pde] * (dtau * (S.dot(k * x) / h).dot(S))

    def entropy(X):
        if alias_error:
            raise ValueError(alias_error)
        return gibbs_entropy(0.5 + (C @ X[..., None])[..., 0], weight)

    return _OddKernel(density, rhs, entropy, np.pi * k, (C, S))


def odd_mode_density(x, n_points: int = DEFAULT_GRID) -> np.ndarray:
    """h(tau) = 1/2 + sum_k (-A_k sin + B_k cos)(k tau) on tau_j = 2 pi j / N
    for x = [A; B]; a 1-D x = B is the even density 1/2 + sum B_k cos(k tau)."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.ndim > 2 or len(X) > 2:
        raise ValueError("x must be the amplitudes B or the two blocks [A; B]")
    return _odd_kernel(X.shape[1], n_points, len(X)).density(X.ravel())
