"""Independent oracles and invariant monitors.

Each check compares an implementation against an identity it must satisfy
(finite differences vs. the analytic derivative, the Riesz defining
identity, mode-by-mode ODE/PDE proportionality, equilibrium degeneracy)
and emits a CheckReport.  Random inputs are drawn from a seeded generator
so reports are reproducible bit for bit.

Tolerance classes: quadrature-limited identities use 1e-8, purely
algebraic identities 1e-10 .. 1e-12.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .entropy import (
    GalerkinState,
    c_squared,
    density_samples,
    entropy as density_entropy,
    gateaux_h,
    odd_frequencies,
    pde_rhs_n2,
    riesz_gradient,
    simplex_rhs,
    sobolev_gradient_n2,
)
from .spectral import (
    DEFAULT_GRID,
    FourierRep,
    GridRep,
    InverseDerivative,
    TangentVector,
    project_constraint,
    to_grid,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    samples: int

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name: str, err: float, tol: float, samples: int) -> CheckReport:
    return CheckReport(name, float(err), float(tol), bool(err <= tol), samples)


# ---------------------------------------------------------------------------
# Random input generators (constraint-exact by construction)
# ---------------------------------------------------------------------------


def random_tangent(rng: np.random.Generator, degree: int, n_modes: int = 5,
                   n_points: int = DEFAULT_GRID) -> TangentVector:
    """Unit-L2 tangent vector: bounded random Fourier modes, constraint
    projection, then normalization."""
    rep = FourierRep(float(degree), 0.0,
                     rng.uniform(-1.0, 1.0, n_modes),
                     rng.uniform(-1.0, 1.0, n_modes))
    rep = project_constraint(rep, degree)
    norm = np.sqrt(degree / 2.0 * np.sum(rep.cos**2 + rep.sin**2))
    if norm == 0.0:  # all modes removed; retry
        return random_tangent(rng, degree, n_modes, n_points)
    rep = FourierRep(rep.period, 0.0, rep.cos / norm, rep.sin / norm)
    return TangentVector(rep, degree)


def random_density(rng: np.random.Generator, degree: int, n_modes: int = 5,
                   amplitude: float = 0.3, n_points: int = DEFAULT_GRID) -> InverseDerivative:
    """Valid h: 1/n plus a constraint-projected perturbation scaled so the
    samples stay well inside (0, 1)."""
    psi = random_tangent(rng, degree, n_modes, n_points)
    s = to_grid(psi.rep, n_points).samples
    scale = amplitude / degree / max(np.max(np.abs(s)), 1e-30)
    rep = FourierRep(float(degree), 1.0 / degree,
                     scale * psi.rep.cos, scale * psi.rep.sin)
    return InverseDerivative(rep, degree)


def _perturbed(h: InverseDerivative, psi: TangentVector, eps: float,
               n_points: int) -> InverseDerivative:
    s = density_samples(h, n_points)
    s = s + eps * to_grid(psi.rep, s.size).samples
    return InverseDerivative(GridRep(float(h.degree), s), h.degree)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def fd_errors(h: InverseDerivative, psi: TangentVector, eps_list,
              n_points: int = DEFAULT_GRID) -> tuple[float, np.ndarray]:
    """(analytic DH_h(psi), per-epsilon central-difference errors)."""
    analytic = gateaux_h(h, psi, n_points)
    errs = []
    for eps in eps_list:
        plus = density_entropy(_perturbed(h, psi, eps, n_points))
        minus = density_entropy(_perturbed(h, psi, -eps, n_points))
        errs.append(abs((plus - minus) / (2.0 * eps) - analytic))
    return analytic, np.array(errs)


def fd_derivative_check(h: InverseDerivative, psi: TangentVector,
                        eps_list=(1e-5,), tol: float = 1e-6,
                        n_points: int = DEFAULT_GRID) -> CheckReport:
    """Central finite differences of H must reproduce the Gateaux
    derivative.

    The error is relative to max(|DH|, ||ln h - mean ln h|| ||psi||), the
    Cauchy-Schwarz bound on |DH| for a tangent psi: |DH| alone can be near
    0 while the O(eps^2) difference error is not.
    """
    analytic, errs = fd_errors(h, psi, eps_list, n_points)
    logs = np.log(density_samples(h, n_points))
    bound = h.degree / logs.size * np.linalg.norm(logs - logs.mean()) \
        * np.linalg.norm(to_grid(psi.rep, logs.size).samples)
    rel = np.max(errs) / max(abs(analytic), bound, 1e-30)
    return _report("fd_derivative", rel, tol, len(list(eps_list)))


def riesz_identity_check(h: InverseDerivative, trials: int = 100, seed: int = 0,
                         tol: float = 1e-8, n_points: int = DEFAULT_GRID) -> CheckReport:
    """int R_h psi dy = -int psi ln h dy for random tangent vectors."""
    rng = np.random.default_rng(seed)
    R = riesz_gradient(h, n_points).rep.samples
    s = density_samples(h, n_points)
    w = h.degree / s.size
    worst = 0.0
    for _ in range(trials):
        p = to_grid(random_tangent(rng, h.degree).rep, s.size).samples
        worst = max(worst, abs(w * np.sum(R * p) + w * np.sum(p * np.log(s))))
    return _report("riesz_identity", worst, tol, trials)


def gradient_maximality_check(h: InverseDerivative, trials: int = 1000, seed: int = 0,
                              tol: float = 1e-9, n_points: int = DEFAULT_GRID) -> CheckReport:
    """Among unit tangent vectors the normalized Riesz direction maximizes
    the derivative: DH_h(psi) <= DH_h(R_hat) for all unit psi."""
    rng = np.random.default_rng(seed)
    R = riesz_gradient(h, n_points)
    w = h.degree / density_samples(h, n_points).size
    r_norm = np.sqrt(w * np.sum(R.rep.samples**2))
    if r_norm == 0.0:
        raise ValueError("maximality check needs a nonconstant h")
    best = gateaux_h(h, R, n_points) / r_norm  # = ||R_h||, the max value
    worst = 0.0
    for _ in range(trials):
        psi = random_tangent(rng, h.degree)
        worst = max(worst, gateaux_h(h, psi, n_points) - best)
    return _report("gradient_maximality", max(worst, 0.0), tol, trials)


def ode_pde_proportionality_check(n_states: int = 50, seed: int = 0,
                                  tol: float = 1e-10, n_modes: int = 3,
                                  n_points: int = DEFAULT_GRID) -> CheckReport:
    """Per-mode ratio of the Galerkin rhs to the PDE rhs equals c^2_{2m-1}
    wherever the PDE component is not negligibly small."""
    rng = np.random.default_rng(seed)
    c2 = c_squared(odd_frequencies(n_modes))
    worst = 0.0
    for _ in range(n_states):
        # coefficient box sized so u_y stays inside (0, 1) for 3 modes
        state = GalerkinState(rng.uniform(-0.004, 0.004, n_modes),
                              rng.uniform(-0.004, 0.004, n_modes))
        g = sobolev_gradient_n2(state, n_points)
        p = pde_rhs_n2(state, n_points)
        for gi, pi in ((g.a, p.a), (g.b, p.b)):
            mask = np.abs(pi) > 1e-12
            if np.any(mask):
                worst = max(worst, np.max(np.abs(gi[mask] / pi[mask] - c2[mask])))
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
        g = sobolev_gradient_n2(GalerkinState([0.0], [0.0]), n_points)
        err = max(err, np.max(np.abs(g.a)), np.max(np.abs(g.b)))
    return _report(f"equilibrium_n{n}", err, tol, 1)


def run_all(seed: int = 0, n_points: int = DEFAULT_GRID) -> list[CheckReport]:
    """The full verification suite with deterministic aggregation order."""
    rng = np.random.default_rng(seed)
    reports = []
    for n in (2, 3, 5):
        reports.append(equilibrium_check(n, n_points=n_points))
    for n in (2, 3):
        h = random_density(rng, n)
        psi = random_tangent(rng, n)
        reports.append(fd_derivative_check(h, psi, (1e-4, 1e-5), n_points=n_points))
        reports.append(riesz_identity_check(h, 100, seed=seed + n, n_points=n_points))
    h2 = random_density(rng, 2)
    reports.append(gradient_maximality_check(h2, 1000, seed=seed, n_points=n_points))
    reports.append(ode_pde_proportionality_check(50, seed=seed, n_points=n_points))
    return reports
