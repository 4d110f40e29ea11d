"""Periodic function machinery on [0, n].

Functions here carry two interchangeable representations: a truncated
Fourier series (mean + cos/sin coefficients at frequencies 2*pi*k/n) and
uniform grid samples.  Quadrature is the periodic trapezoid rule, which is
exact on the Fourier basis and spectrally accurate for smooth integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_GRID = 1024
GRID_TABLE_MAX = 2**15  # the largest grid whose trig tables to_grid caches


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
        if self.period <= 0:
            raise ValueError("period must be positive")
        a, b = self.cos, self.sin
        if a.size != b.size:
            m = max(a.size, b.size)
            a = np.concatenate([a, np.zeros(m - a.size)])
            b = np.concatenate([b, np.zeros(m - b.size)])
            object.__setattr__(self, "cos", a)
            object.__setattr__(self, "sin", b)
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
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.samples.ndim != 1 or self.samples.size < 4:
            raise ValueError("need at least 4 samples")

    @property
    def n_points(self) -> int:
        return self.samples.size


def _check_degree(rep: FourierRep | GridRep, degree: int):
    """A degree-n function lives on [0, n]: its rep must have period n."""
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if rep.period != degree:
        raise ValueError(f"rep period {rep.period:g} is not the degree {degree}")


@dataclass(frozen=True)
class InverseDerivative:
    """h = g', the derivative of the inverse of a degree-n expanding map.

    Valid states satisfy 0 < h < 1 and the measure-preservation constraint
    sum_{i=0}^{n-1} h(y + i) = 1.
    """

    rep: FourierRep | GridRep
    degree: int

    def __post_init__(self):
        _check_degree(self.rep, self.degree)


@dataclass(frozen=True)
class TangentVector:
    """A perturbation psi with sum_{i=0}^{n-1} psi(y + i) = 0."""

    rep: FourierRep | GridRep
    degree: int

    def __post_init__(self):
        _check_degree(self.rep, self.degree)


def evaluate(rep: FourierRep, y) -> np.ndarray | float:
    """Evaluate the Fourier series at point(s) y, of any shape."""
    y = np.asarray(y, dtype=float)
    ang = _angles(rep.period, y, rep.n_modes)
    out = rep.mean + (np.cos(ang) @ rep.cos + np.sin(ang) @ rep.sin)
    return out if y.ndim else float(out)


def _angles(period: float, y: np.ndarray, n_modes: int) -> np.ndarray:
    """2 pi k y / period for k = 1..n_modes, one column per mode."""
    return (2.0 * np.pi / period) * np.multiply.outer(y, np.arange(1, n_modes + 1))


@lru_cache(maxsize=16)
def _grid_tables(period: float, n_points: int, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (cos, sin) tables of evaluate on the uniform grid y_j = j*period/N.

    A run samples a few fixed grids many times (a verify run samples six
    of them, its random trials in blocks), so the tables are built once
    and shared read-only; they are the arrays evaluate builds, bit for bit."""
    ang = _angles(period, np.arange(n_points) * (period / n_points), n_modes)
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
    A larger grid is the inverse real FFT of the half-spectrum F_0 = mean,
    F_k = (a_k - i b_k)/2 (unnormalised, so it sums the series as written)."""
    return GridRep(rep.period, _sample(rep.period, n_points, rep.mean, rep.cos, rep.sin))


def _sample(period: float, n_points: int, mean: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """to_grid's samples for coefficient rows a, b of shape (..., K), one
    sample row per row; on the tables that is one matrix-vector product per
    row, so each row has the bits of to_grid on that row alone."""
    K = a.shape[-1]
    if 2 * K >= n_points:
        raise ValueError(f"{K} modes alias on a grid of {n_points} nodes: need fewer than N/2")
    if n_points <= GRID_TABLE_MAX:
        cos, sin = _grid_tables(period, n_points, K)
        return mean + ((cos @ a[..., None])[..., 0] + (sin @ b[..., None])[..., 0])
    F = np.zeros(a.shape[:-1] + (n_points // 2 + 1,), dtype=complex)
    F[..., 0] = mean
    F[..., 1:K + 1] = 0.5 * (a - 1j * b)
    return np.fft.irfft(F, n_points, norm="forward")


def to_fourier(grid: GridRep, n_modes: int | None = None) -> FourierRep:
    """Least-squares Fourier coefficients from uniform samples (via FFT)."""
    N = grid.n_points
    if n_modes is None:
        n_modes = N // 2 - 1
    if n_modes > N // 2 - 1:
        raise ValueError("n_modes too large for grid resolution")
    F = np.fft.rfft(grid.samples)
    mean = F[0].real / N
    a = 2.0 * F[1 : n_modes + 1].real / N
    b = -2.0 * F[1 : n_modes + 1].imag / N
    return FourierRep(grid.period, mean, a, b)


def quadrature(grid: GridRep) -> float:
    """Periodic trapezoid rule: (period/N) * sum(samples)."""
    return float(grid.period / grid.n_points * np.sum(grid.samples))


def sobolev_norm(rep: FourierRep, r: int) -> float:
    """H^r norm: sum over derivative orders j <= r of the L2 norm squared
    of the j-th derivative, computed by Parseval."""
    if r < 0:
        raise ValueError("r must be >= 0")
    k = np.arange(1, rep.n_modes + 1)
    w2 = (2.0 * np.pi * k / rep.period) ** 2
    power = rep.cos**2 + rep.sin**2
    total = rep.mean**2 * rep.period  # j = 0 contribution of the constant term
    for j in range(r + 1):
        total += (rep.period / 2.0) * np.sum(w2**j * power)
    return float(np.sqrt(total))


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


def constraint_residual(h: InverseDerivative, n_points: int = DEFAULT_GRID) -> float:
    """max_y |sum_i h(y+i) - 1| over the nodes of one unit interval."""
    s = _as_samples(h.rep, h.degree, n_points)
    return float(np.max(np.abs(translate_sums(s, h.degree) - 1.0)))


def tangent_residual(psi: TangentVector, n_points: int = DEFAULT_GRID) -> float:
    """max_y |sum_i psi(y+i)| over the nodes of one unit interval."""
    s = _as_samples(psi.rep, psi.degree, n_points)
    return float(np.max(np.abs(translate_sums(s, psi.degree))))


def project_constraint(rep: FourierRep, degree: int) -> FourierRep:
    """Remove the modes violating sum_i f(y+i) = const.

    Modes with frequency index divisible by n are invariant under
    translation by 1 and survive the sum; all others cancel.  The mean is
    zeroed as well (tangent vectors carry no constant term).
    """
    k = np.arange(1, rep.n_modes + 1)
    keep = (k % degree) != 0
    return FourierRep(rep.period, 0.0, np.where(keep, rep.cos, 0.0), np.where(keep, rep.sin, 0.0))


def sup_derivative_constant() -> float:
    """2 * sqrt(sum 1/k^2) = 2 * sqrt(pi^2/6), the H^2 sup-derivative bound."""
    return 2.0 * np.sqrt(np.pi**2 / 6.0)


def derivative_sup_bound(rep: FourierRep, n_points: int = 4096) -> tuple[float, float]:
    """(sup |f'| on a fine grid, 2*sqrt(pi^2/6) * ||f||_{H^2}).

    The first component never exceeds the second for functions with zero mean.
    """
    d = differentiate(rep)
    sup = float(np.max(np.abs(to_grid(d, n_points).samples))) if rep.n_modes else 0.0
    return sup, sup_derivative_constant() * sobolev_norm(rep, 2)
