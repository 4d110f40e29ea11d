"""Independent oracles and invariant monitors.

Each check compares an implementation against an identity it must satisfy
(finite differences vs. the analytic derivative, the Riesz defining
identity, both degree-2 mode equations vs. the map-form derivative
DH_g, equilibrium degeneracy)
and emits a CheckReport.  Random inputs are drawn from a seeded generator
so reports are reproducible bit for bit.

Tolerance classes: quadrature-limited identities use 1e-8, purely
algebraic identities 1e-10 .. 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    _gateaux_rows,
    c_squared,
    density_entropy,
    density_samples,
    gateaux_h,
    gibbs_entropy,
    odd_frequencies,
    odd_mode_rhs,
    riesz_gradient,
    simplex_rhs,
)
from .spectral import (
    DEFAULT_GRID,
    FourierRep,
    InverseDerivative,
    TangentVector,
    _as_samples,
    _sample,
    grid_points_for,
    to_grid,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    samples: int


def _report(name: str, err: float, tol: float, samples: int) -> CheckReport:
    return CheckReport(name, float(err), float(tol), bool(err <= tol), samples)


# ---------------------------------------------------------------------------
# Random input generators (constraint-exact by construction)
# ---------------------------------------------------------------------------


_TRIAL_CHUNK = 2**13  # sample values per block of random trials; bounds their memory


def _tangent_rows(rng: np.random.Generator, degree: int, count: int,
                  n_modes: int = 5) -> np.ndarray:
    """(count, 2, n_modes) cos/sin coefficients of unit-L2 tangent vectors:
    bounded random Fourier modes, constraint projection, then normalization.

    One draw gives the stream of count one-row draws.  A row whose kept
    modes are all zero is drawn again: it is dropped and the rows drawn
    after the batch take its place at the end, as in a draw-by-draw loop."""
    keep = np.arange(1, n_modes + 1) % degree != 0  # as project_constraint
    rows = np.where(keep, rng.uniform(-1.0, 1.0, (count, 2, n_modes)), 0.0)
    norm = np.sqrt(degree / 2.0 * np.sum(rows[:, 0]**2 + rows[:, 1]**2, axis=-1))
    if np.all(norm):
        return rows / norm[:, None, None]
    ok = norm != 0.0
    more = _tangent_rows(rng, degree, count - np.count_nonzero(ok), n_modes)
    return np.concatenate([rows[ok] / norm[ok, None, None], more])


def random_tangent(rng: np.random.Generator, degree: int, n_modes: int = 5) -> TangentVector:
    """Unit-L2 tangent vector: the one-row case of _tangent_rows."""
    a, b = _tangent_rows(rng, degree, 1, n_modes)[0]
    return TangentVector(FourierRep(float(degree), 0.0, a, b), degree)


def _trial_samples(rng: np.random.Generator, degree: int, trials: int, n_points: int):
    """Samples on n_points nodes of `trials` random tangents, drawn at once
    and yielded in blocks of at most _TRIAL_CHUNK values (at least one row),
    in the order of successive random_tangent draws."""
    rows = _tangent_rows(rng, degree, trials)
    step = max(1, _TRIAL_CHUNK // n_points)
    for i in range(0, trials, step):
        yield _sample(float(degree), n_points, 0.0, rows[i:i + step, 0], rows[i:i + step, 1])


def _moment_rows(rows: np.ndarray, logs: np.ndarray, degree: int) -> np.ndarray:
    """DH_h = -w sum_j psi_j ln h_j of each tangent psi = (a, b) of _tangent_rows,
    as -w (a . m_c + b . m_s), m_c, m_s = sum_j ln h_j (cos, sin)(2 pi k j / N)."""
    # the 2K unit coefficient rows sample the trig basis: the K cos rows, then the K sin rows
    m = _sample(float(degree), logs.size, 0.0, *np.hsplit(np.eye(2 * rows.shape[-1]), 2)) @ logs
    return -degree / logs.size * (rows.reshape(-1, m.size) @ m)


def random_density(rng: np.random.Generator, degree: int, n_modes: int = 5,
                   amplitude: float = 0.3, n_points: int = DEFAULT_GRID) -> InverseDerivative:
    """Valid h: 1/n plus a constraint-projected perturbation scaled so the
    samples stay well inside (0, 1)."""
    psi = random_tangent(rng, degree, n_modes)
    s = to_grid(psi.rep, n_points).samples
    scale = amplitude / degree / max(np.max(np.abs(s)), 1e-30)
    rep = FourierRep(float(degree), 1.0 / degree,
                     scale * psi.rep.cos, scale * psi.rep.sin)
    return InverseDerivative(rep, degree)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def fd_errors(h: InverseDerivative, psi: TangentVector, eps_list,
              n_points: int = DEFAULT_GRID) -> tuple[float, np.ndarray]:
    """(analytic DH_h(psi), per-epsilon central-difference errors)."""
    analytic = gateaux_h(h, psi, n_points)
    s = density_samples(h, n_points)
    p, w = _as_samples(psi.rep, psi.degree, s.size), h.degree / s.size
    errs = [abs((gibbs_entropy(s + eps * p, w) - gibbs_entropy(s - eps * p, w)) / (2.0 * eps)
                - analytic) for eps in eps_list]
    return analytic, np.array(errs)


def fd_derivative_check(h: InverseDerivative, psi: TangentVector,
                        eps_list=(1e-5,), tol: float = 1e-6,
                        n_points: int = DEFAULT_GRID) -> CheckReport:
    """Central finite differences of H must reproduce the Gateaux
    derivative, along psi and along the Riesz direction R_h; the report
    holds the worse of the two relative errors.

    Each error is relative to max(|DH|, ||ln h - mean ln h|| ||dir||), the
    Cauchy-Schwarz bound on |DH| for a tangent direction: |DH| alone can be
    near 0 while the O(eps^2) difference error is not.  Along R_h,
    DH = ||R_h||^2 > 0, so a relative error in DH cannot hide there.
    """
    eps_list = tuple(eps_list)  # read once per direction: a generator would run dry
    logs = np.log(density_samples(h, n_points))
    spread = h.degree / logs.size * np.linalg.norm(logs - logs.mean())
    rel = 0.0
    for direction in (psi, riesz_gradient(h, n_points)):
        analytic, errs = fd_errors(h, direction, eps_list, n_points)
        bound = spread * np.linalg.norm(_as_samples(direction.rep, h.degree, logs.size))
        rel = max(rel, np.max(errs) / max(abs(analytic), bound, 1e-30))
    return _report("fd_derivative", rel, tol, 2 * len(eps_list))


def riesz_identity_check(h: InverseDerivative, trials: int = 100, seed: int = 0,
                         tol: float = 1e-8, n_points: int = DEFAULT_GRID) -> CheckReport:
    """int R_h psi dy = -int psi ln h dy for random tangent vectors."""
    rng = np.random.default_rng(seed)
    R = riesz_gradient(h, n_points).rep.samples
    s = density_samples(h, n_points)
    w = h.degree / s.size
    logs = np.log(s)
    worst = max((np.max(np.abs(w * np.sum(R * P, axis=-1) - _gateaux_rows(P, logs, w)))
                 for P in _trial_samples(rng, h.degree, trials, s.size)), default=0.0)
    return _report("riesz_identity", worst, tol, trials)


def gradient_maximality_check(h: InverseDerivative, trials: int = 1000, seed: int = 0,
                              tol: float = 1e-9, n_points: int = DEFAULT_GRID) -> CheckReport:
    """Among unit tangent vectors the normalized Riesz direction maximizes
    the derivative: DH_h(psi) <= DH_h(R_hat) for all unit psi.  No trial is
    sampled: _moment_rows costs O(N K) once and O(K) per trial."""
    rng = np.random.default_rng(seed)
    R = riesz_gradient(h, n_points)
    s = density_samples(h, n_points)
    w = h.degree / s.size
    r_norm = np.sqrt(w * np.sum(R.rep.samples**2))
    if r_norm == 0.0:
        raise ValueError("maximality check needs a nonconstant h")
    best = gateaux_h(h, R, n_points) / r_norm  # = ||R_h||, the max value
    dh = _moment_rows(_tangent_rows(rng, h.degree, trials), np.log(s), h.degree)
    return _report("gradient_maximality", np.max(dh - best, initial=0.0), tol, trials)


def ode_pde_proportionality_check(n_states: int = 10, seed: int = 0,
                                  tol: float = 1e-10, n_modes: int = 3,
                                  n_points: int = DEFAULT_GRID) -> CheckReport:
    """Mode m of the Galerkin rhs equals c^2_{2m-1} DH_g(phi) and mode m of
    the PDE rhs equals DH_g(phi), for phi = cos, sin((2m-1) pi y) and DH_g
    summed as gateaux_g sums it: the two mode equations differ only by the
    factor c^2, and both are checked against a derivative computed without
    them.  The rhs is odd_mode_rhs on x = s [a; b], s = pi k, divided by s.
    The phi' are sampled once: a state costs one ln g' and a (2K, N) product."""
    rng = np.random.default_rng(seed)
    k = odd_frequencies(n_modes)
    s = np.pi * k
    c2 = c_squared(k)
    d = np.eye(k[-1])[k - 1] * s[:, None]  # phi' = -s sin for phi = cos, s cos for sin
    dphi = _sample(2.0, grid_points_for(2, n_points), 0.0,
                   np.vstack([0 * d, d]), np.vstack([-d, 0 * d]))
    worst = 0.0
    for _ in range(n_states):
        # coefficient box sized so u_y stays inside (0, 1) for 3 modes
        ab = rng.uniform(-0.004, 0.004, (2, n_modes))
        x = s * ab
        # g' = 1/2 + pi sum k (-a sin + b cos) as Fourier data
        cs = np.zeros((2, k[-1]))
        cs[:, k - 1] = x[1], -x[0]
        g = density_samples(InverseDerivative(FourierRep(2.0, 0.5, *cs), 2), n_points)
        dh = _gateaux_rows(dphi, np.log(g), 2 / g.size).reshape(2, n_modes)
        worst = max(worst, np.max(np.abs(odd_mode_rhs(x, c2, n_points) / s - c2 * dh)),
                    np.max(np.abs(odd_mode_rhs(x, 1.0, n_points) / s - dh)))
    return _report("ode_pde_proportionality", worst, tol, n_states)


def equilibrium_check(n: int, tol: float = 1e-12,
                      n_points: int = DEFAULT_GRID) -> CheckReport:
    """At h = 1/n: zero Riesz gradient, zero simplex rhs, entropy = ln n,
    and (for n = 2) zero Galerkin rhs."""
    h = InverseDerivative(FourierRep(float(n), 1.0 / n, [0.0], [0.0]), n)
    err = np.max(np.abs(riesz_gradient(h, n_points).rep.samples))
    err = max(err, np.max(np.abs(simplex_rhs(np.full(n, 1.0 / n), n))))
    err = max(err, abs(density_entropy(h, n_points) - np.log(n)))
    if n == 2:
        g = odd_mode_rhs(np.zeros((2, 1)), c_squared(1), n_points) / np.pi
        err = max(err, np.max(np.abs(g)))
    return _report(f"equilibrium_n{n}", err, tol, 1)


def run_all(seed: int = 0, n_points: int = DEFAULT_GRID) -> list[CheckReport]:
    """The full verification suite with deterministic aggregation order."""
    rng = np.random.default_rng(seed)
    reports = [equilibrium_check(n, n_points=n_points) for n in (2, 3, 5)]
    for n in (2, 3):
        h = random_density(rng, n)
        psi = random_tangent(rng, n)
        reports.append(fd_derivative_check(h, psi, (1e-4, 1e-5), n_points=n_points))
        reports.append(riesz_identity_check(h, 100, seed=seed + n, n_points=n_points))
    h2 = random_density(rng, 2)
    reports.append(gradient_maximality_check(h2, 1000, seed=seed, n_points=n_points))
    reports.append(ode_pde_proportionality_check(10, seed=seed, n_points=n_points))
    return reports
