"""Independent oracles and invariant monitors.

Each check compares an implementation against an identity it must satisfy
(finite differences vs. the analytic derivative, the Riesz defining
identity, the rhs of both degree-2 Galerkin systems the CLI integrates
vs. the map-form derivative DH_g, equilibrium degeneracy) and emits a
CheckReport.  Random inputs are drawn from a seeded generator
so reports are reproducible bit for bit.  The Riesz identity and the
maximality of R_h are checked in closed form on the whole tangent span
that random_tangent draws from, not on random draws from it.

Each check has one fixed tolerance: 1e-6 for the finite differences, 1e-8
.. 1e-9 for the quadrature-limited identities, 1e-10 .. 1e-12 for the
purely algebraic ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    _gateaux_rows,
    _guarded,
    c_squared,
    density_entropy,
    density_samples,
    gateaux_h,
    gibbs_entropy,
    odd_frequencies,
    riesz_gradient,
    simplex_rhs,
)
from .flow import galerkin_system_n2
from .spectral import (
    DEFAULT_GRID,
    FourierRep,
    InverseDerivative,
    TangentVector,
    _as_samples,
    _grid_tables,
    _sample,
    grid_points_for,
    to_grid,
)

SPAN_MODES = 5  # random tangents draw from, and the closed-form checks cover, k = 1..5


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


def random_tangent(rng: np.random.Generator, degree: int) -> TangentVector:
    """Unit-L2 tangent vector: bounded random Fourier modes, constraint
    projection, then normalization; drawn again while its kept modes are
    all zero."""
    if degree < 2:  # every mode would be removed, so no draw could be kept
        raise ValueError("degree must be >= 2")
    keep = np.arange(1, SPAN_MODES + 1) % degree != 0  # as project_constraint
    while True:
        a, b = np.where(keep, rng.uniform(-1.0, 1.0, (2, SPAN_MODES)), 0.0)
        norm = np.sqrt(degree / 2.0 * np.sum(a**2 + b**2))
        if norm:
            return TangentVector(FourierRep(float(degree), 0.0, a / norm, b / norm), degree)


def random_density(rng: np.random.Generator, degree: int) -> InverseDerivative:
    """Valid h: 1/n plus a constraint-projected perturbation scaled to at
    most 0.3/n, so the samples stay well inside (0, 1)."""
    psi = random_tangent(rng, degree)
    s = to_grid(psi.rep).samples
    scale = 0.3 / degree / max(np.max(np.abs(s)), 1e-30)
    rep = FourierRep(float(degree), 1.0 / degree,
                     scale * psi.rep.cos, scale * psi.rep.sin)
    return InverseDerivative(rep, degree)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def fd_errors(h: InverseDerivative, psi: TangentVector, eps_list) -> tuple[float, np.ndarray]:
    """(analytic DH_h(psi), per-epsilon central-difference errors)."""
    analytic = gateaux_h(h, psi)
    s = density_samples(h)
    p, w = _as_samples(psi.rep, psi.degree, s.size), h.degree / s.size
    errs = [abs((gibbs_entropy(s + eps * p, w) - gibbs_entropy(s - eps * p, w)) / (2.0 * eps)
                - analytic) for eps in eps_list]
    return analytic, np.array(errs)


def fd_derivative_check(h: InverseDerivative, psi: TangentVector,
                        eps_list=(1e-5,)) -> CheckReport:
    """Central finite differences of H must reproduce the Gateaux
    derivative, along psi and along the Riesz direction R_h; the report
    holds the worse of the two relative errors.

    Each error is relative to max(|DH|, ||ln h - mean ln h|| ||dir||), the
    Cauchy-Schwarz bound on |DH| for a tangent direction: |DH| alone can be
    near 0 while the O(eps^2) difference error is not.  Along R_h,
    DH = ||R_h||^2 > 0, so a relative error in DH cannot hide there.
    """
    eps_list = tuple(eps_list)  # read once per direction: a generator would run dry
    logs = np.log(density_samples(h))
    spread = h.degree / logs.size * np.linalg.norm(logs - logs.mean())
    rel = 0.0
    for direction in (psi, riesz_gradient(h)):
        analytic, errs = fd_errors(h, direction, eps_list)
        bound = spread * np.linalg.norm(_as_samples(direction.rep, h.degree, logs.size))
        rel = max(rel, np.max(errs) / max(abs(analytic), bound, 1e-30))
    return _report("fd_derivative", rel, 1e-6, 2 * len(eps_list))


def _span_moments(f: np.ndarray, degree: int) -> np.ndarray:
    """(rows, 2, K) moments w sum_j f_j (cos, sin)(2 pi k y_j / n) of each
    row of the (rows, N) samples f, for the K kept modes k % n != 0 among
    k = 1..SPAN_MODES: the span random_tangent draws from.  A tangent
    psi = (a, b) in it has int f psi dy = (a, b) . m(f) on the grid."""
    cos, sin = _grid_tables(float(degree), f.shape[-1], SPAN_MODES)
    keep = np.arange(1, SPAN_MODES + 1) % degree != 0
    return degree / f.shape[-1] * np.stack([f @ cos, f @ sin], axis=1)[..., keep]


def riesz_identity_check(h: InverseDerivative) -> CheckReport:
    """int R_h psi dy = -int psi ln h dy on the tangent span of
    _span_moments.  The error (a, b) . e, e = m(R_h) + m(ln h), is linear in
    psi, and ||psi||^2 = (n/2) |(a, b)|^2, so by Cauchy-Schwarz its supremum
    over unit psi is sqrt(2/n) ||e||: the report bounds every tangent a
    random draw could give.  samples counts the 2K per-mode errors."""
    R = riesz_gradient(h).rep.samples
    m = _span_moments(np.stack([R, np.log(density_samples(h))]), h.degree)
    e = m[0] + m[1]
    return _report("riesz_identity", np.sqrt(2.0 / h.degree) * np.linalg.norm(e), 1e-8, e.size)


def gradient_maximality_check(h: InverseDerivative) -> CheckReport:
    """Among unit tangent vectors the normalized Riesz direction maximizes
    the derivative: DH_h(psi) <= DH_h(R_hat) for all unit psi.  On the span
    of _span_moments DH_h(psi) = -(a, b) . m(ln h), so its supremum over
    unit psi is sqrt(2/n) ||m(ln h)||, attained at psi* ~ -m(ln h): the
    check holds on the whole span, with no trial drawn."""
    R = riesz_gradient(h).rep.samples
    s = density_samples(h)
    w = h.degree / s.size
    r_norm = np.sqrt(w * np.sum(R**2))
    if r_norm == 0.0:
        raise ValueError("maximality check needs a nonconstant h")
    logs = np.log(s)
    best = _gateaux_rows(R, logs, w) / r_norm  # = ||R_h||, the max value
    m = _span_moments(logs[None], h.degree)
    sup = np.sqrt(2.0 / h.degree) * np.linalg.norm(m)
    return _report("gradient_maximality", max(sup - best, 0.0), 1e-9, m.size)


def ode_pde_proportionality_check(n_states: int = 10, seed: int = 0) -> CheckReport:
    """Mode m of the Galerkin rhs equals c^2_{2m-1} DH_g(phi) and mode m of
    the PDE rhs equals DH_g(phi), for phi = cos, sin((2m-1) pi y) and DH_g
    summed as gateaux_g sums it: the two mode equations differ only by the
    factor c^2, and both are checked against a derivative computed without
    them.  Both rhs are galerkin_system_n2's, on packed 3-mode states (a, b).
    The phi' are sampled once and the g' of all states as one stack, whose
    rows have the bits of to_grid; a state costs one (2K, N) product."""
    rng = np.random.default_rng(seed)
    k = odd_frequencies(3)
    s = np.pi * k
    c2 = np.tile(c_squared(k), 2)
    N = grid_points_for(2, DEFAULT_GRID)
    d = np.eye(k[-1])[k - 1] * s[:, None]  # phi' = -s sin for phi = cos, s cos for sin
    dphi = _sample(2.0, N, 0.0, np.vstack([0 * d, d]), np.vstack([-d, 0 * d]))
    # coefficient box sized so u_y stays inside (0, 1) for 3 modes
    ab = rng.uniform(-0.004, 0.004, (n_states, 2, 3))
    x = s * ab
    # g' = 1/2 + pi sum k (-a sin + b cos) as Fourier data, one row per state
    cs = np.zeros((2, n_states, k[-1]))
    cs[:, :, k - 1] = x[:, 1], -x[:, 0]
    logs = np.log(_guarded(_sample(2.0, N, 0.5, *cs)))
    ode, pde = galerkin_system_n2().rhs, galerkin_system_n2(use_pde=True).rhs
    worst = 0.0
    for abi, log_g in zip(ab.reshape(n_states, -1), logs):
        dh = _gateaux_rows(dphi, log_g, 2 / N)
        worst = max(worst, np.max(np.abs(ode(abi) - c2 * dh)), np.max(np.abs(pde(abi) - dh)))
    return _report("ode_pde_proportionality", worst, 1e-10, n_states)


def equilibrium_check(n: int) -> CheckReport:
    """At h = 1/n: zero Riesz gradient, zero simplex rhs, entropy = ln n,
    and (for n = 2) zero Galerkin rhs."""
    h = InverseDerivative(FourierRep(float(n), 1.0 / n, [0.0], [0.0]), n)
    err = np.max(np.abs(riesz_gradient(h).rep.samples))
    err = max(err, np.max(np.abs(simplex_rhs(np.full(n, 1.0 / n), n))))
    err = max(err, abs(density_entropy(h) - np.log(n)))
    if n == 2:
        err = max(err, np.max(np.abs(galerkin_system_n2().rhs(np.zeros(2)))))
    return _report(f"equilibrium_n{n}", err, 1e-12, 1)


def run_all(seed: int = 0) -> list[CheckReport]:
    """The full verification suite with deterministic aggregation order."""
    rng = np.random.default_rng(seed)
    reports = [equilibrium_check(n) for n in (2, 3, 5)]
    for n in (2, 3):
        h = random_density(rng, n)
        psi = random_tangent(rng, n)
        reports.append(fd_derivative_check(h, psi, (1e-4, 1e-5)))
        reports.append(riesz_identity_check(h))
    h2 = random_density(rng, 2)
    reports.append(gradient_maximality_check(h2))
    reports.append(ode_pde_proportionality_check(10, seed=seed))
    return reports
