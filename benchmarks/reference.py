"""Reference values for every benchmark operation, frozen at the commit that
introduced the benchmark.

Each function re-states the arithmetic the srbflow CLI performed at that
commit, numpy call for numpy call, so at that commit the program's output
matches these tables bit for bit. Later program versions are compared
against them, which is how `max_rel_err` sees a change in rounding.

Two shortcuts keep the oracle cheap without changing a single bit: trig
tables are built once per (modes, grid) instead of once per call, and the
right-hand side evaluated for the gradient-norm monitor at a record is
reused as the first stage of the next step (the same function of the same
state gives the same numbers).

Nothing here imports srbflow.
"""

from __future__ import annotations

import numpy as np


def _odd(n_modes):
    return 2 * np.arange(1, n_modes + 1) - 1


def _c_squared(k):
    kpi = np.asarray(k, dtype=float) * np.pi
    return 1.0 / (1.0 + kpi**2 + kpi**4)


def _integrate(rhs, monitors, x0, dt, t_end, method, record_every):
    """Fixed-step Euler/RK4 with a record at step 0, every `record_every`
    steps and at the last step; each record row is (t, *monitors(x, rhs(x)))."""
    x = np.array(x0, dtype=float)
    n_steps = int(round(t_end / dt))
    rows = []
    f = rhs(x)
    rows.append(monitors(0.0, x, f))
    for i in range(1, n_steps + 1):
        k1 = f if f is not None else rhs(x)
        if method == "euler":
            x = x + dt * k1
        else:
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f = None
        if i % record_every == 0 or i == n_steps:
            f = rhs(x)
            rows.append(monitors(i * dt, x, f))
    return np.array(rows)


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


def _simplex_rhs(x):
    logs = np.log(x)
    return -logs + logs.mean()


def simplex(x0, dt, t_end, method, record_every):
    """Rows t, x1..xn, entropy, grad_norm, constraint_residual."""
    def monitors(t, x, f):
        return [t, *x, float(-np.sum(x * np.log(x))), float(np.linalg.norm(f)),
                float(abs(np.sum(x) - 1.0))]
    return _integrate(_simplex_rhs, monitors, x0, dt, t_end, method, record_every)


# ---------------------------------------------------------------------------
# Fourier densities on [0, n] and the Riesz flow
# ---------------------------------------------------------------------------


def _projected(n, coeffs):
    """(cos, sin) coefficients after removing the modes k with n | k."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = np.arange(1, coeffs.size // 2 + 1)
    keep = (k % n) != 0
    return np.where(keep, coeffs[0::2], 0.0), np.where(keep, coeffs[1::2], 0.0)


def _grid_points(n, grid):
    return max(4 * n, (grid // n) * n)


def _density_on_grid(n, coeffs, n_points):
    """Samples of 1/n + sum a_k cos(2 pi k y/n) + b_k sin(2 pi k y/n)."""
    a, b = _projected(n, coeffs)
    period = float(n)
    y = np.arange(n_points) * (period / n_points)
    ang = (2.0 * np.pi / period) * np.multiply.outer(y, np.arange(1, a.size + 1))
    return 1.0 / n + (np.cos(ang) @ a + np.sin(ang) @ b)


def entropy_value(n, coeffs, grid):
    """The number `srbflow entropy` prints."""
    s = _density_on_grid(n, coeffs, _grid_points(n, grid))
    return float(-n / s.size * np.sum(s * np.log(s)))


def _translate_sums(x, n):
    return x.reshape(n, x.size // n).sum(axis=0)


def riesz(n, coeffs, grid, dt, t_end, method, record_every):
    """Rows t, entropy, grad_norm, constraint_residual, h_min, h_max."""
    samples = _density_on_grid(n, coeffs, _grid_points(n, grid))

    def rhs(x):
        logs = np.log(x)
        return -logs + np.tile(_translate_sums(logs, n) / n, n)

    def monitors(t, x, f):
        return [t, float(-n / x.size * np.sum(x * np.log(x))),
                float(np.sqrt(n / f.size * np.sum(f**2))),
                float(np.max(np.abs(_translate_sums(x, n) - 1.0))), x.min(), x.max()]
    return _integrate(rhs, monitors, samples, dt, t_end, method, record_every)


# ---------------------------------------------------------------------------
# Degree-2 Galerkin and diffusion modes
# ---------------------------------------------------------------------------


class _EvenTables:
    """cos/sin of (2k-1) tau on the grid tau_j = 2 pi j / N."""

    def __init__(self, n_modes, n_points):
        self.k = _odd(n_modes)
        tau = np.arange(n_points) * (2.0 * np.pi / n_points)
        ang = np.outer(tau, self.k)
        self.cos, self.sin = np.cos(ang), np.sin(ang)
        self.n_points = n_points

    def density(self, B):
        return 0.5 + self.cos @ B

    def rhs(self, B, use_pde):
        k = self.k
        num = self.sin @ (k * B)
        w = 2.0 * np.pi / self.n_points
        out = -np.pi * k * _c_squared(k) * (w * ((num / self.density(B)) @ self.sin))
        return out / _c_squared(k) if use_pde else out

    def entropy(self, B):
        h = self.density(B)
        return float(-2.0 / self.n_points * np.sum(h * np.log(h)))


def even_galerkin(B0, grid, dt, t_end, method, record_every, use_pde):
    """`galerkin|pde --B`: rows t, B1..BK, entropy, grad_norm."""
    B0 = np.asarray(B0, dtype=float)
    tab = _EvenTables(B0.size, grid)

    def monitors(t, x, f):
        return [t, *x, tab.entropy(x), float(np.linalg.norm(f))]
    return _integrate(lambda B: tab.rhs(B, use_pde), monitors, B0, dt, t_end,
                      method, record_every)


def galerkin_n2(coeffs, grid, dt, t_end, method, record_every, use_pde):
    """`galerkin|pde --coeffs`: rows t, a1.., b1.., entropy, grad_norm."""
    coeffs = np.asarray(coeffs, dtype=float)
    m = coeffs.size // 2
    k = _odd(m)
    y = np.arange(grid) * (2.0 / grid)
    ang = np.pi * np.outer(y, k)
    cos, sin = np.cos(ang), np.sin(ang)
    w = 2.0 / grid
    c2 = _c_squared(k)

    def u_y(x):
        a, b = x[:m], x[m:]
        return 0.5 + np.pi * (cos @ (k * b) - sin @ (k * a))

    def rhs(x):
        a, b = x[:m], x[m:]
        u_yy = -np.pi**2 * (cos @ (k**2 * a) + sin @ (k**2 * b))
        ratio = u_yy / u_y(x)
        ia, ib = w * (ratio @ cos), w * (ratio @ sin)
        return np.concatenate([ia, ib]) if use_pde else np.concatenate([c2 * ia, c2 * ib])

    def monitors(t, x, f):
        u = u_y(x)
        return [t, *x, float(-2.0 / grid * np.sum(u * np.log(u))), float(np.linalg.norm(f))]
    x0 = np.concatenate([coeffs[0::2], coeffs[1::2]])
    return _integrate(rhs, monitors, x0, dt, t_end, method, record_every)


def _even_density(B, tau):
    return 0.5 + np.cos(np.outer(tau, _odd(B.size))) @ B


def figure(which, tau_points, grid):
    """`srbflow figure --which fig1|fig2` table (no header)."""
    B0 = np.array([0.25, 0.0, 0.0])
    tau = np.arange(tau_points) * (2.0 * np.pi / tau_points)
    t_end = 20.0 if which == "fig1" else 50.0
    rows = even_galerkin(B0, grid, 0.1, t_end, "euler", 100, use_pde=False)
    times, states = rows[:, 0], rows[:, 1:1 + B0.size]
    if which == "fig1":
        cols = [tau]
        for t in (0.0, 10.0, 20.0):
            i = int(np.argmin(np.abs(times - t)))
            cols.append(_even_density(states[i], tau) - 0.5)
    else:
        B = states[-1]
        heat = B0 * np.exp(-(_odd(B0.size).astype(float) ** 2) * 50.0)
        cols = [tau, 1000.0 * (_even_density(B, tau) - 0.5), 1000.0 * (B[0] * np.cos(tau)),
                1000.0 * (_even_density(heat, tau) - 0.5)]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# verify: the directional derivatives its finite-difference checks test
# ---------------------------------------------------------------------------


def _fourier_samples(period, mean, cos, sin, n_points):
    y = np.arange(n_points) * (period / n_points)
    ang = (2.0 * np.pi / period) * np.multiply.outer(y, np.arange(1, cos.size + 1))
    return mean + (np.cos(ang) @ cos + np.sin(ang) @ sin)


def _random_tangent(rng, n, n_modes=5):
    """(cos, sin) of a unit-L2 constraint-projected tangent vector."""
    while True:
        keep = (np.arange(1, n_modes + 1) % n) != 0
        cos = np.where(keep, rng.uniform(-1.0, 1.0, n_modes), 0.0)
        sin = np.where(keep, rng.uniform(-1.0, 1.0, n_modes), 0.0)
        norm = np.sqrt(n / 2.0 * np.sum(cos**2 + sin**2))
        if norm != 0.0:
            return cos / norm, sin / norm


def fd_check_derivatives(seed, grid=1024):
    """DH_h(psi) = -int psi ln h dy for the (h, psi) pairs, n = 2 then 3,
    that `srbflow verify --seed seed` differentiates by central differences."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (2, 3):
        cos, sin = _random_tangent(rng, n)
        scale = 0.3 / n / max(np.max(np.abs(_fourier_samples(n, 0.0, cos, sin, grid))), 1e-30)
        s = _fourier_samples(n, 1.0 / n, scale * cos, scale * sin, _grid_points(n, grid))
        psi_cos, psi_sin = _random_tangent(rng, n)
        p = _fourier_samples(n, 0.0, psi_cos, psi_sin, s.size)
        out.append(float(-n / s.size * np.sum(p * np.log(s))))
    return out
