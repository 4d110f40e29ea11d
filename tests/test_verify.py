import numpy as np
import pytest

import srbflow.verify as vf
from srbflow.spectral import FourierRep, InverseDerivative, TangentVector, tangent_residual, to_grid
from srbflow.verify import (
    equilibrium_check,
    fd_derivative_check,
    fd_errors,
    gradient_maximality_check,
    ode_pde_proportionality_check,
    random_density,
    random_tangent,
    riesz_identity_check,
    run_all,
)


def cos_quarter():
    return InverseDerivative(FourierRep(2.0, 0.5, [0.25], [0.0]), 2)


def test_random_tangent_is_unit_and_tangent():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        psi = random_tangent(rng, n)
        assert tangent_residual(psi) <= 1e-12
        norm2 = n / 2.0 * np.sum(psi.rep.cos**2 + psi.rep.sin**2)
        assert norm2 == pytest.approx(1.0, rel=1e-12)


def test_random_density_is_valid():
    rng = np.random.default_rng(1)
    from srbflow.entropy import density_samples
    from srbflow.spectral import constraint_residual
    for n in (2, 3, 5):
        h = random_density(rng, n)
        s = density_samples(h)
        assert 0.0 < s.min() and s.max() < 1.0
        assert constraint_residual(h) <= 1e-12


def test_fd_check_constant_density():
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.0], [0.0]), 2)
    psi = TangentVector(FourierRep(2.0, 0.0, [0.1], [0.0]), 2)
    _, errs = fd_errors(h, psi, (1e-3, 1e-4))
    assert np.max(errs) < 1e-9


def test_fd_check_closed_form_pair():
    psi = TangentVector(FourierRep(2.0, 0.0, [np.pi], [0.0]), 2)
    analytic, errs = fd_errors(cos_quarter(), psi, (1e-4, 1e-5))
    assert analytic == pytest.approx(-2.0 * np.pi * (2.0 - np.sqrt(3.0)), rel=1e-10)
    assert np.max(errs) / abs(analytic) < 1e-6


def test_fd_second_order_convergence():
    psi = TangentVector(FourierRep(2.0, 0.0, [np.pi], [0.0]), 2)
    _, errs = fd_errors(cos_quarter(), psi, (4e-4, 2e-4, 1e-4))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.3)


def test_fd_check_passes_where_derivative_is_small():
    # seed 16 draws a degree-3 pair with |DH| = 2.3e-3, where the error
    # relative to |DH| alone was 1.26e-6 on correct code
    assert all(r.passed for r in run_all(16))


def test_fd_check_catches_scaled_derivative(monkeypatch):
    real = vf.gateaux_h
    monkeypatch.setattr(vf, "gateaux_h", lambda *a, **k: 1.001 * real(*a, **k))
    reports = [r for r in run_all(0) if r.name == "fd_derivative"]
    assert len(reports) == 2 and not any(r.passed for r in reports)


def test_fd_derivative_check_report():
    rng = np.random.default_rng(4)
    rep = fd_derivative_check(random_density(rng, 2), random_tangent(rng, 2),
                              (1e-4, 1e-5))
    assert rep.passed and rep.max_abs_error <= rep.tolerance


def test_riesz_identity_check_passes():
    for n in (2, 3):
        rng = np.random.default_rng(100 + n)
        rep = riesz_identity_check(random_density(rng, n), trials=100, seed=n)
        assert rep.passed and rep.samples == 100


def test_riesz_identity_constant_density():
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.0], [0.0]), 2)
    rep = riesz_identity_check(h, trials=10, seed=0)
    assert rep.max_abs_error <= 1e-14  # roundoff of int psi dy = 0


def test_gradient_maximality():
    rep = gradient_maximality_check(cos_quarter(), trials=200, seed=0)
    assert rep.passed


def test_gradient_maximality_orthogonal_direction():
    # a tangent vector orthogonal to R_h has zero derivative
    from srbflow.entropy import gateaux_h, riesz_gradient
    h = cos_quarter()
    R = riesz_gradient(h)
    # sin(pi y) is L2-orthogonal to R_h = even function of y in this case
    psi = TangentVector(FourierRep(2.0, 0.0, [0.0], [1.0]), 2)
    assert gateaux_h(h, psi) == pytest.approx(0.0, abs=1e-9)


def test_ode_pde_proportionality_check():
    rep = ode_pde_proportionality_check(50, seed=0)
    assert rep.passed and rep.max_abs_error <= 1e-10


def test_equilibrium_checks():
    for n in (2, 5):
        rep = equilibrium_check(n)
        assert rep.passed and rep.max_abs_error <= 1e-12


def test_perturbed_equilibrium_has_nonzero_gradient():
    from srbflow.entropy import riesz_gradient
    rng = np.random.default_rng(8)
    psi = random_tangent(rng, 2)
    rep = FourierRep(2.0, 0.5, 1e-3 * psi.rep.cos, 1e-3 * psi.rep.sin)
    R = riesz_gradient(InverseDerivative(rep, 2))
    assert np.max(np.abs(R.rep.samples)) > 1e-5


def test_run_all_passes_and_is_reproducible():
    first = run_all(seed=42)
    second = run_all(seed=42)
    assert all(r.passed for r in first)
    assert first == second  # bit-for-bit reproducible given the seed
