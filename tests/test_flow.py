import re

import numpy as np
import pytest

from srbflow.entropy import galerkin_rhs_even, riesz_gradient, simplex_rhs
from srbflow.errors import DomainError, StepError
from srbflow.flow import (
    FlowConfig,
    FlowSystem,
    even_galerkin_system,
    galerkin_system_n2,
    heat_reference,
    integrate,
    riesz_system,
)
from srbflow.spectral import FourierRep, GridRep, InverseDerivative, grid_points_for, to_grid


def cos_quarter_samples(n_points=1024):
    n_pts = grid_points_for(2, n_points)
    return to_grid(FourierRep(2.0, 0.5, [0.25], [0.0]), n_pts).samples


def test_simplex_rhs_equilibrium():
    assert np.all(simplex_rhs(np.array([0.5, 0.5]), 2) == 0.0)
    assert np.all(simplex_rhs(np.full(3, 1.0 / 3.0), 3) == 0.0)


def test_simplex_rhs_values():
    out = simplex_rhs(np.array([0.3, 0.7]), 2)
    expect = 0.5 * np.log(7.0 / 3.0)
    assert out[0] == pytest.approx(expect, rel=1e-14)
    assert out[1] == pytest.approx(-expect, rel=1e-14)


def test_simplex_rhs_sums_to_zero():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 8):
        x = rng.uniform(0.5, 1.5, n)
        x /= x.sum()
        assert abs(simplex_rhs(x, n).sum()) < 1e-14


def test_simplex_rhs_domain_guard():
    with pytest.raises(DomainError):
        simplex_rhs(np.array([1e-12, 1.0 - 1e-12]), 2)


# On a 3-point grid the values 1/2 + amp cos(2 pi j / 3) are (1/2 + amp,
# 1/2 - amp/2, 1/2 - amp/2), so amp = -1/2 touches 0 only and amp = 1/2
# touches 1 only (an even grid would give h(y+1) = 1 - h(y) for n = 2).
GUARDED = {
    "simplex_rhs": lambda amp: riesz_system(3).rhs(
        0.5 + amp * np.cos(2 * np.pi * np.arange(3) / 3)),
    "galerkin_rhs_even": lambda amp: galerkin_rhs_even([amp], n_points=3),
    "n2_entropy_monitor": lambda amp: galerkin_system_n2(n_points=3).entropy(
        np.array([0.0, amp / np.pi])),
}


@pytest.mark.parametrize("amp, lo, hi", [(-0.5, 0.0, 0.75), (0.5, 0.25, 1.0)],
                         ids=["touches_0", "touches_1"])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_domain_guard_names_min_and_max(name, amp, lo, hi):
    with pytest.raises(DomainError) as exc:
        GUARDED[name](amp)
    found = re.search(r"min=(\S+), max=(\S+)", str(exc.value))
    assert found, str(exc.value)
    assert float(found[1]) == pytest.approx(lo, abs=1e-3)
    assert float(found[2]) == pytest.approx(hi, abs=1e-3)


def test_riesz_flow_reduces_to_simplex_pointwise():
    # (rhs(y), rhs(y+1), ..., rhs(y+n-1)) = simplex_rhs of the translated values
    for n in (2, 3):
        n_pts = grid_points_for(n, 512)
        rep = FourierRep(float(n), 1.0 / n, [0.1 / n, 0.05 / n], [0.02 / n, 0.0])
        from srbflow.spectral import project_constraint
        p = project_constraint(rep, n)
        h = InverseDerivative(FourierRep(float(n), 1.0 / n, p.cos, p.sin), n)
        s = to_grid(h.rep, n_pts).samples
        R = riesz_gradient(InverseDerivative(GridRep(float(n), s), n)).rep.samples
        stride = n_pts // n
        for j in range(0, stride, 37):
            fiber = s[j::stride]
            np.testing.assert_allclose(R[j::stride], simplex_rhs(fiber, n), atol=1e-12)


def test_heat_reference():
    B0 = np.array([0.25, 0.01, 0.001])
    np.testing.assert_array_equal(heat_reference(B0, 0.0), B0)
    out = heat_reference(np.array([0.25]), 1.0)
    assert out[0] == pytest.approx(0.25 * np.exp(-1.0), rel=1e-15)
    out3 = heat_reference(B0, 0.5)
    assert out3[1] / B0[1] == pytest.approx(np.exp(-9.0 * 0.5), rel=1e-13)
    assert out3[2] / B0[2] == pytest.approx(np.exp(-25.0 * 0.5), rel=1e-13)


def test_integrate_equilibrium_is_constant():
    cfg = FlowConfig(t_end=2.0, dt=0.1)
    traj = integrate(riesz_system(2), [0.5, 0.5], cfg)
    np.testing.assert_array_equal(traj.states, np.full_like(traj.states, 0.5))
    traj2 = integrate(even_galerkin_system(), np.zeros(3), cfg)
    assert np.all(traj2.states == 0.0)


def test_simplex_converges_to_uniform():
    cfg = FlowConfig(t_end=50.0, dt=0.01, method="rk4", record_every=100)
    traj = integrate(riesz_system(2), [0.3, 0.7], cfg)
    np.testing.assert_allclose(traj.states[-1], [0.5, 0.5], atol=1e-6)
    assert np.all(np.diff(traj.entropy) >= -1e-10)
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-12


def test_euler_galerkin_monotone_decay():
    cfg = FlowConfig(t_end=10.0, dt=0.1, method="euler")
    traj = integrate(even_galerkin_system(), [0.25, 0.0, 0.0], cfg)
    B1 = traj.states[:, 0]
    assert np.all(np.diff(B1) < 0.0)
    assert np.all(np.diff(traj.entropy) >= -1e-6)


def test_riesz_flow_preserves_constraint_and_entropy():
    s0 = cos_quarter_samples(512)
    cfg = FlowConfig(t_end=5.0, dt=0.01, method="rk4", record_every=10)
    traj = integrate(riesz_system(2), s0, cfg)
    assert np.max(traj.constraint_residual) <= 1e-9
    assert np.all(np.diff(traj.entropy) >= -1e-10)


def test_galerkin_preserves_even_symmetry():
    # pure-sine (even-density) start: cosine components of the full degree-2
    # flow stay at zero
    cfg = FlowConfig(t_end=5.0, dt=0.1, method="euler")
    b0 = np.array([0.25 / np.pi, 0.0, 0.0])
    traj = integrate(galerkin_system_n2(), np.concatenate([np.zeros(3), b0]), cfg)
    assert np.max(np.abs(traj.states[:, :3])) < 1e-10


def test_euler_first_order_convergence():
    finals = []
    for dt in (0.1, 0.05, 0.025):
        cfg = FlowConfig(t_end=10.0, dt=dt, method="euler", record_every=10**6)
        traj = integrate(even_galerkin_system(), [0.25, 0.0, 0.0], cfg)
        finals.append(traj.states[-1])
    ref_cfg = FlowConfig(t_end=10.0, dt=0.01, method="rk4", record_every=10**6)
    ref = integrate(even_galerkin_system(), [0.25, 0.0, 0.0], ref_cfg).states[-1]
    e1 = np.linalg.norm(finals[0] - ref)
    e2 = np.linalg.norm(finals[1] - ref)
    e3 = np.linalg.norm(finals[2] - ref)
    assert e1 / e2 == pytest.approx(2.0, abs=0.2)
    assert e2 / e3 == pytest.approx(2.0, abs=0.2)


def test_integrate_raises_on_domain_exit():
    # an amplitude of 0.6 puts h below zero somewhere
    with pytest.raises(DomainError):
        integrate(even_galerkin_system(), [0.6, 0.0, 0.0],
                  FlowConfig(t_end=1.0, dt=0.1))


def test_integrate_raises_step_error_on_blowup():
    system = FlowSystem(rhs=lambda x: np.full_like(x, np.inf),
                        entropy=lambda x: 0.0,
                        constraint_residual=lambda x: 0.0,
                        grad_norm=lambda x: 0.0)
    with pytest.raises(StepError):
        integrate(system, [1.0], FlowConfig(t_end=1.0, dt=0.1))


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, dt=2.0)
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, dt=0.1, method="leapfrog")
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, dt=0.1, record_every=0)


def test_record_every():
    cfg = FlowConfig(t_end=1.0, dt=0.1, record_every=5)
    traj = integrate(riesz_system(2), [0.4, 0.6], cfg)
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])
