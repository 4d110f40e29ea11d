"""Periodic function machinery on [0, n].

Functions here carry two interchangeable representations: a truncated
Fourier series (mean + cos/sin coefficients at frequencies 2*pi*k/n) and
uniform grid samples.  Quadrature is the periodic trapezoid rule, which is
exact on the Fourier basis and spectrally accurate for smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_GRID = 1024
GRID_TABLE_MAX = 2**15  # the largest grid whose trig tables to_grid caches
# the most modes a larger grid sums by angle addition, O(N K) whatever N's
# factors; more take the inverse real FFT, O(N log N) but slower the larger
# N's prime factors.  K = 8 on one thread: angle addition 50-53 ms on 2^21,
# 2^21 - 2 and 2^21 - 1 nodes against 63, 103 and 225 ms by irfft; on the
# smallest grids it takes it loses at most half a millisecond (0.9 against
# 0.6 ms on 32770 nodes, 1.1 against 1.0 ms on 40001)
K_SPLIT = 8
# values per row block of the angle-addition sampler: 256 KiB, kept in L2
SAMPLE_ELEMENTS = 2**15


@dataclass(frozen=True)
class FourierRep:
    """Truncated Fourier series on a period-`period` domain.

    cos[k-1] and sin[k-1] multiply cos(2*pi*k*y/period) and
    sin(2*pi*k*y/period); `mean` is the constant term.
    """

    period: float
    mean: float = 0.0
    cos: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "cos", np.atleast_1d(np.asarray(self.cos, dtype=float)))
        object.__setattr__(self, "sin", np.atleast_1d(np.asarray(self.sin, dtype=float)))
        if not 0 < self.period < math.inf:  # negated, so NaN fails too
            raise ValueError("period must be positive and finite")
        a, b = self.cos, self.sin
        if a.size != b.size:
            raise ValueError(f"{a.size} cos but {b.size} sin coefficients")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.isfinite(self.mean)):
            raise ValueError("coefficients must be finite")

    @property
    def n_modes(self) -> int:
        return self.cos.size


@dataclass(frozen=True)
class GridRep:
    """Samples of a periodic function at uniform nodes y_j = j*period/N."""

    period: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not 0 < self.period < math.inf:  # negated, so NaN fails too
            raise ValueError("period must be positive and finite")
        if self.samples.ndim != 1 or self.samples.size < 4:
            raise ValueError("need at least 4 samples")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite")


@dataclass(frozen=True)
class _OnDegree:
    """A function on [0, n] for a degree-n map: its rep must have period n."""

    rep: FourierRep | GridRep
    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        if self.rep.period != self.degree:
            raise ValueError(f"rep period {self.rep.period:g} is not the degree {self.degree}")


@dataclass(frozen=True)
class InverseDerivative(_OnDegree):
    """h = g', the derivative of the inverse of a degree-n expanding map.

    Valid states satisfy 0 < h < 1 and the measure-preservation constraint
    sum_{i=0}^{n-1} h(y + i) = 1.
    """


@dataclass(frozen=True)
class TangentVector(_OnDegree):
    """A perturbation psi with sum_{i=0}^{n-1} psi(y + i) = 0."""


@lru_cache(maxsize=16)
def _grid_tables(period: float, n_points: int, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (cos, sin)(2 pi k y_j / period) tables, k = 1..K, on the uniform
    grid y_j = j*period/N.  A run samples a few fixed grids many times (a
    verify run samples six of them and reads two for its moments), so the
    tables are built once and shared read-only."""
    y = np.arange(n_points) * (period / n_points)
    ang = (2.0 * np.pi / period) * np.multiply.outer(y, np.arange(1, n_modes + 1))
    tables = np.cos(ang), np.sin(ang)
    for t in tables:
        t.setflags(write=False)
    return tables


def differentiate(rep: FourierRep) -> FourierRep:
    """Termwise derivative: a_k -> (2 pi k / n) b_k, b_k -> -(2 pi k / n) a_k."""
    k = np.arange(1, rep.n_modes + 1)
    w = 2.0 * np.pi * k / rep.period
    return FourierRep(rep.period, 0.0, w * rep.sin, -w * rep.cos)


def to_grid(rep: FourierRep, n_points: int = DEFAULT_GRID) -> GridRep:
    """Samples at y_j = j*period/N; fewer than N/2 modes, as more would
    alias.  Grids of at most GRID_TABLE_MAX nodes read cached trig tables.
    A larger grid of at most K_SPLIT modes is summed by angle addition over
    the node index j = qB + r; one of more modes is the inverse real FFT of
    the half-spectrum F_0 = mean, F_k = (a_k - i b_k)/2 (unnormalised, so it
    sums the series as written)."""
    return GridRep(rep.period, _sample(rep.period, n_points, rep.mean, rep.cos, rep.sin))


def _sample(period: float, n_points: int, mean: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """to_grid's samples for coefficient rows a, b of shape (..., K), one
    sample row per row; on the tables that is one matrix-vector product per
    row, and by angle addition the one-row code on each row, so each row has
    the bits of to_grid on that row alone."""
    K = a.shape[-1]
    if 2 * K >= n_points:
        raise ValueError(f"{K} modes alias on a grid of {n_points} nodes: need fewer than N/2")
    if n_points <= GRID_TABLE_MAX:
        cos, sin = _grid_tables(period, n_points, K)
        return mean + ((cos @ a[..., None])[..., 0] + (sin @ b[..., None])[..., 0])
    if K <= K_SPLIT:
        rows = [_angle_sum(n_points, mean, a[i], b[i]) for i in np.ndindex(a.shape[:-1])]
        return rows[0] if a.ndim == 1 else np.reshape(rows, a.shape[:-1] + (n_points,))
    F = np.zeros(a.shape[:-1] + (n_points // 2 + 1,), dtype=complex)
    F[..., 0] = mean
    F[..., 1:K + 1] = 0.5 * (a - 1j * b)
    return np.fft.irfft(F, n_points, norm="forward")


def _turns(m: np.ndarray, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi m / N for integers m, reduced to |m| <= N/2 first."""
    m = m % n_points
    ang = (2.0 * np.pi / n_points) * np.where(2 * m > n_points, m - n_points, m)
    return np.cos(ang), np.sin(ang)


def _angle_sum(n_points: int, mean: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mean + sum_k a_k cos(2 pi k j/N) + b_k sin(2 pi k j/N) at j = qB + r,
    for rows q of width B ~ sqrt(N): with the row phase phi = 2 pi k qB/N,
    alpha = a cos phi + b sin phi and beta = b cos phi - a sin phi, a sample
    is mean + alpha_k cos(2 pi k r/N) + beta_k sin(2 pi k r/N), added for
    k = 1..K in that order, one row block of SAMPLE_ELEMENTS values after
    another on the calling thread."""
    B = math.isqrt(n_points - 1) + 1
    Q = -(-n_points // B)
    k = np.arange(1, a.size + 1)
    cos_r, sin_r = _turns(np.multiply.outer(k, np.arange(B)), n_points)
    cos_q, sin_q = _turns(np.multiply.outer(np.arange(Q) * B, k), n_points)
    alpha, beta = a * cos_q + b * sin_q, b * cos_q - a * sin_q
    out = np.empty((Q, B))
    rows = max(1, SAMPLE_ELEMENTS // B)
    tmp = np.empty((rows, B))
    for q in range(0, Q, rows):
        o = out[q:q + rows]
        t = tmp[:len(o)]
        o[...] = mean
        for i in range(a.size):
            o += np.multiply(alpha[q:q + rows, i, None], cos_r[i], out=t)
            o += np.multiply(beta[q:q + rows, i, None], sin_r[i], out=t)
    return out.ravel()[:n_points]


def grid_points_for(degree: int, n_points: int = DEFAULT_GRID) -> int:
    """Largest multiple of `degree` not above n_points (at least 4*degree),
    so translation by 1 is an exact index shift."""
    return max(4 * degree, (n_points // degree) * degree)


def _as_samples(rep: FourierRep | GridRep, degree: int, n_points: int) -> np.ndarray:
    """Samples on the grid of rep, or on grid_points_for(degree, n_points)
    nodes; the grid size must be divisible by the degree."""
    s = rep.samples if isinstance(rep, GridRep) else \
        to_grid(rep, grid_points_for(degree, n_points)).samples
    if s.size % degree:
        raise ValueError("grid size must be divisible by the degree")
    return s


def translate_sums(samples: np.ndarray, degree: int) -> np.ndarray:
    """sum_{i=0}^{n-1} f(y+i) at every node, of each row of a stack of
    samples (..., N); N must be divisible by n."""
    N = samples.shape[-1]
    if N % degree:
        raise ValueError("grid size must be divisible by the degree")
    return samples.reshape(samples.shape[:-1] + (degree, N // degree)).sum(axis=-2)


def project_constraint(rep: FourierRep, degree: int) -> FourierRep:
    """Remove the modes violating sum_i f(y+i) = const.

    Modes with frequency index divisible by n are invariant under
    translation by 1 and survive the sum; all others cancel.  The mean is
    zeroed as well (tangent vectors carry no constant term).
    """
    k = np.arange(1, rep.n_modes + 1)
    keep = (k % degree) != 0
    return FourierRep(rep.period, 0.0, np.where(keep, rep.cos, 0.0), np.where(keep, rep.sin, 0.0))

