"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -rA` or on
failure) before asserting, so the suite doubles as a readable report.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from srbflow.entropy import c_squared, density_entropy
from srbflow.flow import (
    FlowConfig,
    even_galerkin_system,
    heat_reference,
    integrate,
    riesz_system,
)
from srbflow.spectral import (
    FourierRep,
    InverseDerivative,
    differentiate,
    grid_points_for,
    to_grid,
)
from srbflow.verify import (
    fd_derivative_check,
    fd_errors,
    gradient_maximality_check,
    ode_pde_proportionality_check,
    random_density,
    random_tangent,
    riesz_identity_check,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")


def test_criterion_01_equilibrium_entropy():
    errs = []
    for n in (2, 3, 5, 10):
        h = InverseDerivative(FourierRep(float(n), 1.0 / n, [0.0], [0.0]), n)
        errs.append(abs(density_entropy(h) - np.log(n)))
    ok = max(errs) <= 1e-12
    report(1, "equilibrium entropy = ln n", ok, f"max err {max(errs):.2e}")
    assert ok


def test_criterion_02_derivative_oracle():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    ratios = []
    for n in (2, 3):
        for _ in range(10):  # 20 pairs total across both degrees
            h = random_density(rng, n)
            psi = random_tangent(rng, n)
            rep = fd_derivative_check(h, psi, (1e-5,))
            worst_rel = max(worst_rel, rep.max_abs_error)
            analytic, errs = fd_errors(h, psi, (4e-4, 2e-4, 1e-4))
            ratios.append(errs[0] / errs[1])
            ratios.append(errs[1] / errs[2])
    # closed-form pair: DH = -2 pi (2 - sqrt 3) for the quarter-cosine density
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.25], [0.0]), 2)
    psi_rep = FourierRep(2.0, 0.0, [np.pi], [0.0])
    from srbflow.spectral import TangentVector
    analytic, errs = fd_errors(h, TangentVector(psi_rep, 2), (1e-5,))
    closed = -2.0 * np.pi * (2.0 - np.sqrt(3.0))
    closed_ok = abs(analytic - closed) / abs(closed) <= 1e-10 and \
        errs[0] / abs(closed) <= 1e-6
    second_order = all(abs(r - 4.0) < 0.5 for r in ratios)
    ok = worst_rel <= 1e-6 and second_order and closed_ok
    report(2, "finite-difference derivative oracle", ok,
           f"max rel err {worst_rel:.2e}, ratio range "
           f"[{min(ratios):.2f}, {max(ratios):.2f}]")
    assert ok


def test_criterion_03_riesz_identity_and_maximality():
    worst = 0.0
    for n in (2, 3, 5):
        rng = np.random.default_rng(300 + n)
        rep = riesz_identity_check(random_density(rng, n))
        worst = max(worst, rep.max_abs_error)
        assert rep.passed
    maxi = gradient_maximality_check(
        InverseDerivative(FourierRep(2.0, 0.5, [0.25], [0.0]), 2))
    ok = worst <= 1e-8 and maxi.passed
    report(3, "Riesz identity + gradient maximality", ok,
           f"identity err {worst:.2e}, maximality err {maxi.max_abs_error:.2e}")
    assert ok


def test_criterion_04_constraint_preservation():
    n_pts = grid_points_for(2, 512)
    s0 = to_grid(FourierRep(2.0, 0.5, [0.25], [0.0]), n_pts).samples
    cfg = FlowConfig(t_end=50.0, dt=0.01, method="rk4", record_every=10)
    traj = integrate(riesz_system(2), s0, cfg)
    max_residual = float(np.max(traj.constraint_residual))
    min_dip = float(np.min(np.diff(traj.entropy)))
    ok = max_residual <= 1e-9 and min_dip >= -1e-10
    report(4, "Riesz flow stays on the constraint, entropy nondecreasing", ok,
           f"residual {max_residual:.2e}, worst entropy dip {min_dip:.2e}")
    assert ok


def test_criterion_05_simplex_convergence():
    rng = np.random.default_rng(55)
    x0 = rng.uniform(0.5, 1.5, 5)
    x0 /= x0.sum()
    cfg = FlowConfig(t_end=200.0, dt=0.01, method="rk4", record_every=10)
    traj = integrate(riesz_system(5), x0, cfg)
    final_err = float(np.max(np.abs(traj.states[-1] - 0.2)))
    sum_err = float(np.max(np.abs(traj.states.sum(axis=1) - 1.0)))
    gaps_ok = True
    flips_ok = True
    for i in range(5):
        for j in range(i + 1, 5):
            d = traj.states[:, i] - traj.states[:, j]
            if np.any(np.diff(np.abs(d)) > 1e-14):
                gaps_ok = False
            s = np.sign(d[np.abs(d) > 1e-12])
            if s.size and not (np.all(s == s[0])):
                flips_ok = False
    ok = final_err <= 1e-6 and sum_err <= 1e-12 and gaps_ok and flips_ok
    report(5, "five-branch simplex flow converges to uniform", ok,
           f"|x-0.2| {final_err:.2e}, |sum-1| {sum_err:.2e}, "
           f"gaps nonincreasing {gaps_ok}, no sign flips {flips_ok}")
    assert ok


# Metric factor c1^2 = 1 / (1 + pi^2 + pi^4) of mode 1, as the README states
# it, and the linearized decay rate 2 pi^2 c1^2 of B1 (about 0.1823).
C1_SQUARED = 1.0 / (1.0 + np.pi**2 + np.pi**4)
LINEAR_RATE = 2.0 * np.pi**2 * C1_SQUARED


def one_mode_B1(t):
    """B1(t) of the one-mode even flow from B1(0) = B0 = 1/4, in closed form.

    For h = a + B cos(tau), int_0^{2pi} sin^2(tau) / h dtau
    = 2 pi (a - sqrt(a^2 - B^2)) / B^2, so the flow is
    dB/dt = -2 pi^2 c1^2 (a - sqrt(a^2 - B^2)) / B. Separating variables gives
    t(B) = [F(B0) - F(B)] / (2 pi^2 c1^2) with
    F(B) = a ln B + sqrt(a^2 - B^2) - a ln((a + sqrt(a^2 - B^2)) / B),
    which brentq solves for B. No srbflow kernel is used.
    """
    a, B0 = 0.5, 0.25

    def F(B):
        r = np.sqrt(a * a - B * B)
        return a * np.log(B) + r - a * np.log((a + r) / B)

    return brentq(lambda B: (F(B0) - F(B)) / LINEAR_RATE - t, 1e-12, B0,
                  xtol=1e-16)


def test_criterion_06_reference_trajectory():
    # Euler, dt = 0.1, three modes, B(0) = (1/4, 0, 0); B1 must match the
    # closed-form one-mode solution within a factor of 2 at t = 10, 20, 50,
    # with max |B2| < 1e-3 and max |B3| < 1e-5 over the run.
    # The previously reported B1 = 0.121, 0.043, 0.000431 are not used: no
    # solution of this flow reaches them, since 2a(a - sqrt(a^2 - B^2)) / B^2
    # >= 1 gives B1(t) <= 0.25 exp(-2 pi^2 c1^2 t), so B1(10) <= 0.0404,
    # less than half of 0.121.
    cfg = FlowConfig(t_end=50.0, dt=0.1, method="euler")
    traj = integrate(even_galerkin_system(), [0.25, 0.0, 0.0], cfg)

    def at(t):
        return traj.states[int(np.argmin(np.abs(traj.times - t)))]

    b10, b20, b50 = at(10.0), at(20.0), at(50.0)
    monotone = bool(np.all(np.diff(traj.states[:, 0]) < 0.0))
    peak_b2 = float(np.max(np.abs(traj.states[:, 1])))
    peak_b3 = float(np.max(np.abs(traj.states[:, 2])))
    b2_ok = peak_b2 < 1e-3
    b3_ok = peak_b3 < 1e-5
    bound = 0.25 * np.exp(-LINEAR_RATE * traj.times[1:])
    below_bound = bool(np.all(traj.states[1:, 0] <= bound))
    reference = {t: one_mode_B1(t) for t in (10.0, 20.0, 50.0)}
    recorded = {10.0: b10[0], 20.0: b20[0], 50.0: b50[0]}
    within_factor_2 = all(0.5 <= recorded[t] / reference[t] <= 2.0
                          for t in reference)
    detail = ("B1 recorded {10: %.6g, 20: %.6g, 50: %.6g} vs closed form "
              "{10: %.6g, 20: %.6g, 50: %.6g}; max B1 / linear bound %.4f; "
              "max |B2|=%.3e, max |B3|=%.3e" %
              (b10[0], b20[0], b50[0], reference[10.0], reference[20.0],
               reference[50.0], float(np.max(traj.states[1:, 0] / bound)),
               peak_b2, peak_b3))
    ok = monotone and b2_ok and b3_ok and below_bound and within_factor_2
    report(6, "reference trajectory reproduction", ok, detail)
    assert monotone and b2_ok and b3_ok, detail
    assert below_bound, (
        "B1 exceeds the upper bound 0.25 exp(-2 pi^2 c1^2 t): " + detail)
    assert within_factor_2, (
        "B1 does not match the closed-form one-mode solution within a "
        "factor of 2: " + detail)


def fit_rate(times, values):
    mask = values > 0
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    return -slope


def test_criterion_07_linearized_decay_rates():
    cfg = FlowConfig(t_end=5.0, dt=0.01, method="rk4", record_every=10)
    rel_errs = []
    for m in (1, 2, 3):
        B0 = np.zeros(3)
        B0[m - 1] = 1e-4
        traj = integrate(even_galerkin_system(), B0, cfg)
        rate = fit_rate(traj.times, traj.states[:, m - 1])
        k = 2 * m - 1
        expect = 2.0 * np.pi**2 * k**2 * c_squared(k)
        rel_errs.append(abs(rate - expect) / expect)
    ok = rel_errs[0] <= 1e-3 and max(rel_errs[1:]) <= 5e-3
    report(7, "linearized decay rates match 2 pi^2 (2m-1)^2 c^2", ok,
           "rel errs " + ", ".join(f"{e:.2e}" for e in rel_errs))
    assert ok


def test_criterion_08_mode_equation_proportionality():
    rep = ode_pde_proportionality_check(50, seed=808)
    report(8, "Sobolev-metric rhs = c^2 * diffusion rhs per mode", rep.passed,
           f"max err {rep.max_abs_error:.2e} over {rep.samples} states")
    assert rep.passed


# criterion 09's oracle: an H^2 norm by Parseval, which the library does not use
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


def test_criterion_09_derivative_sup_bound():
    rng = np.random.default_rng(909)
    const = sup_derivative_constant()
    assert const == pytest.approx(2.0 * np.sqrt(np.pi**2 / 6.0), rel=1e-15)
    violations = 0
    margin = np.inf
    for _ in range(1000):
        rep = FourierRep(2.0, 0.0, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8))
        sup, bound = derivative_sup_bound(rep, n_points=512)
        if sup > bound:
            violations += 1
        margin = min(margin, bound - sup)
    ok = violations == 0
    report(9, "sup |phi'| <= 2 sqrt(pi^2/6) ||phi||_H2", ok,
           f"violations {violations}/1000, min margin {margin:.3e}")
    assert ok


def test_criterion_10_spectral_richness():
    B0 = np.array([0.25, 0.0, 0.0])
    one_step = B0 + 0.1 * even_galerkin_system().rhs(B0)
    heat = heat_reference(B0, 0.1)
    ok = abs(one_step[1]) > 1e-12 and one_step[2] != 0.0 and \
        heat[1] == 0.0 and heat[2] == 0.0
    report(10, "higher modes appear after one step (heat flow leaves them 0)",
           ok, f"B2 {one_step[1]:.3e}, B3 {one_step[2]:.3e}")
    assert ok
