import numpy as np
import pytest

import srbflow.flow as flow
import srbflow.verify as vf
from srbflow.entropy import (
    _gateaux_rows,
    _odd_kernel,
    c_squared,
    density_samples,
    gateaux_g,
    gateaux_h,
    odd_frequencies,
    riesz_gradient,
)
from srbflow.flow import riesz_system
from srbflow.spectral import (
    FourierRep,
    GridRep,
    InverseDerivative,
    TangentVector,
    _sample,
    grid_points_for,
    project_constraint,
    to_grid,
    translate_sums,
)
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
        psi_samples = to_grid(psi.rep, grid_points_for(n)).samples
        assert np.max(np.abs(translate_sums(psi_samples, n))) <= 1e-12
        norm2 = n / 2.0 * np.sum(psi.rep.cos**2 + psi.rep.sin**2)
        assert norm2 == pytest.approx(1.0, rel=1e-12)


def test_random_density_is_valid():
    rng = np.random.default_rng(1)
    from srbflow.entropy import density_samples
    for n in (2, 3, 5):
        h = random_density(rng, n)
        s = density_samples(h)
        assert 0.0 < s.min() and s.max() < 1.0
        assert riesz_system(n).constraint_residual(s) <= 1e-12


class _NoDraws:
    def uniform(self, *args):
        raise AssertionError("drew before checking the degree")


@pytest.mark.parametrize("draw", [random_tangent, random_density])
@pytest.mark.parametrize("degree", [0, 1])
def test_random_inputs_refuse_a_degree_below_two(draw, degree):
    # every mode k % 1 == 0 is removed, so the redraw loop never ended at degree 1
    with pytest.raises(ValueError, match="degree must be >= 2"):
        draw(_NoDraws(), degree)


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


def test_fd_check_catches_scaled_derivative_where_psi_is_blind(monkeypatch):
    # DH = 0 along sin(pi y) at cos_quarter, so only the Riesz direction,
    # where DH = ||R_h||^2, can show the 1.001 factor
    real = vf.gateaux_h
    monkeypatch.setattr(vf, "gateaux_h", lambda *a, **k: 1.001 * real(*a, **k))
    psi = TangentVector(FourierRep(2.0, 0.0, [0.0], [1.0]), 2)
    assert not fd_derivative_check(cos_quarter(), psi, (1e-4, 1e-5)).passed


def test_fd_derivative_check_reads_a_generator_once_per_direction():
    rng = np.random.default_rng(4)
    h, psi = random_density(rng, 2), random_tangent(rng, 2)
    want = fd_derivative_check(h, psi, (1e-4, 1e-5))
    assert fd_derivative_check(h, psi, (eps for eps in (1e-4, 1e-5))) == want
    assert want.samples == 4


def test_fd_derivative_check_report():
    rng = np.random.default_rng(4)
    rep = fd_derivative_check(random_density(rng, 2), random_tangent(rng, 2),
                              (1e-4, 1e-5))
    assert rep.passed and rep.max_abs_error <= rep.tolerance


def test_riesz_identity_check_passes():
    for n in (2, 3):
        rng = np.random.default_rng(100 + n)
        rep = riesz_identity_check(random_density(rng, n))
        assert rep.passed and rep.samples == {2: 6, 3: 8}[n]  # 2K kept modes


def test_riesz_identity_constant_density():
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.0], [0.0]), 2)
    rep = riesz_identity_check(h)
    assert rep.max_abs_error <= 1e-14  # roundoff of int psi dy = 0


def test_gradient_maximality():
    rep = gradient_maximality_check(cos_quarter())
    assert rep.passed and rep.samples == 6


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


def test_ode_pde_proportionality_catches_scaled_kernel(monkeypatch):
    # a common factor in both mode equations keeps their ratio at c^2, but
    # not their agreement with gateaux_g
    real = flow._odd_kernel

    def scaled(*args):
        f = real(*args)
        return f._replace(rhs=lambda x, use_pde: 1.001 * f.rhs(x, use_pde))

    monkeypatch.setattr(flow, "_odd_kernel", scaled)
    assert not ode_pde_proportionality_check(10, seed=0).passed


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


# ---------------------------------------------------------------------------
# The closed-form checks against draw-by-draw random trials
# ---------------------------------------------------------------------------


def _loop_tangent(rng, degree, n_modes=5):
    # the reference: one tangent per draw, drawn again while its kept modes are all zero
    rep = FourierRep(float(degree), 0.0, rng.uniform(-1.0, 1.0, n_modes),
                     rng.uniform(-1.0, 1.0, n_modes))
    rep = project_constraint(rep, degree)
    norm = np.sqrt(degree / 2.0 * np.sum(rep.cos**2 + rep.sin**2))
    if norm == 0.0:
        return _loop_tangent(rng, degree, n_modes)
    return FourierRep(rep.period, 0.0, rep.cos / norm, rep.sin / norm)


class _Stream:
    """A generator stand-in that serves a fixed value stream in draw order."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def uniform(self, low, high, size):
        n = int(np.prod(size))
        out = self.values[self.used:self.used + n]
        self.used += n
        return out.reshape(size)


@pytest.mark.parametrize("degree", [2, 3, 5])
@pytest.mark.parametrize("count", [1, 7, 13, 21])
def test_tangent_rows_are_successive_draws_bitwise(degree, count):
    loop_rng, one_row_rng = np.random.default_rng(count), np.random.default_rng(count)
    for _ in range(count):
        want = _loop_tangent(loop_rng, degree)
        psi = random_tangent(one_row_rng, degree)
        assert np.array_equal(psi.rep.cos, want.cos) and np.array_equal(psi.rep.sin, want.sin)
    # the draws left the generator where the loop left it
    assert one_row_rng.uniform() == loop_rng.uniform()


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_tangent_rows_draw_a_zero_row_again(degree):
    # row 2 of the stream is all zero, so draw 2 is the stream's row 3,
    # and one more row is drawn after the sixth draw
    values = np.random.default_rng(degree).uniform(-1.0, 1.0, 100)
    values[20:30] = 0.0
    draws, loop = _Stream(values), _Stream(values)
    rows = [random_tangent(draws, degree).rep for _ in range(6)]
    for row in rows:
        want = _loop_tangent(loop, degree)
        assert np.array_equal(row.cos, want.cos) and np.array_equal(row.sin, want.sin)
    assert draws.used == loop.used == 70
    psi = random_tangent(_Stream(values[20:]), degree)
    assert np.array_equal(psi.rep.cos, rows[2].cos) and np.array_equal(psi.rep.sin, rows[2].sin)


def _trials(degree, count, n_points, seed):
    # samples of count successive random tangents, as one stack through _sample
    rng = np.random.default_rng(seed)
    reps = [random_tangent(rng, degree).rep for _ in range(count)]
    return _sample(float(degree), n_points, 0.0,
                   np.array([r.cos for r in reps]), np.array([r.sin for r in reps]))


@pytest.mark.parametrize("degree", [2, 3, 5])
@pytest.mark.parametrize("trials, grid",
                         [(5, 1024), (13, 1024), (21, 1024), (3, 10000), (3, 40000)])
def test_trial_samples_are_to_grid_rows_bitwise(degree, trials, grid):
    # 40000 nodes are sampled by angle addition, one row at a time
    n = grid_points_for(degree, grid)
    samples = _trials(degree, trials, n, trials)
    rng = np.random.default_rng(trials)
    assert samples.shape == (trials, n)
    for row in samples:
        assert np.array_equal(row, to_grid(_loop_tangent(rng, degree), n).samples)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_batched_derivatives_are_gateaux_h_bitwise(degree):
    h = random_density(np.random.default_rng(degree), degree)
    s = density_samples(h)
    dh = _gateaux_rows(_trials(degree, 13, s.size, 0), np.log(s), degree / s.size)
    rng = np.random.default_rng(0)
    for value in dh:
        assert value == gateaux_h(h, TangentVector(_loop_tangent(rng, degree), degree))


def _scaled_riesz_gradient(monkeypatch, factor, shift=0.0):
    # R_h -> factor R_h + shift phi_1, phi_1 = cos(2 pi y / n)
    def scaled(h, *args, **kwargs):
        R = riesz_gradient(h, *args, **kwargs)
        y = np.arange(R.rep.samples.size) * (h.degree / R.rep.samples.size)
        phi = np.cos(2.0 * np.pi / h.degree * y)
        return TangentVector(GridRep(R.rep.period, factor * R.rep.samples + shift * phi),
                             R.degree)
    monkeypatch.setattr(vf, "riesz_gradient", scaled)


def _identity_errors(h, R, trials, seed):
    # |int R psi + int psi ln h| of each of `trials` draw-by-draw random tangents
    s = density_samples(h)
    w, logs = h.degree / s.size, np.log(s)
    rng = np.random.default_rng(seed)
    P = np.array([to_grid(_loop_tangent(rng, h.degree), s.size).samples for _ in range(trials)])
    return np.abs(w * (P @ R) + w * (P @ logs))


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_riesz_identity_bounds_every_sampled_trial(monkeypatch, degree):
    # the trials come from the seed that drew h, so trial 0 is the direction
    # of h - 1/n, close to that of R_h: under 1.001 R_h it nearly attains
    # the supremum, which shows the bound is tight
    for seed in range(5):
        h = random_density(np.random.default_rng(seed), degree)
        R = riesz_gradient(h).rep.samples
        for factor in (1.0, 1.001):
            _scaled_riesz_gradient(monkeypatch, factor)
            rep = riesz_identity_check(h)
            errs = _identity_errors(h, factor * R, 100, seed)
            assert np.max(errs) <= rep.max_abs_error + 1e-14
            if factor != 1.0:
                assert not rep.passed
                assert np.max(errs) >= 0.99 * rep.max_abs_error


def test_riesz_identity_catches_a_shifted_gradient(monkeypatch):
    # R_h + 1e-5 phi_1 misses the identity by 1e-5 sqrt(n/2) along phi_1
    _scaled_riesz_gradient(monkeypatch, 1.0, 1e-5)
    reports = [r for r in run_all(0) if r.name == "riesz_identity"]
    assert len(reports) == 2 and not any(r.passed for r in reports)
    for n, r in zip((2, 3), reports):
        assert r.max_abs_error == pytest.approx(1e-5 * np.sqrt(n / 2), rel=1e-6)


def test_gradient_maximality_catches_negated_gradient(monkeypatch):
    _scaled_riesz_gradient(monkeypatch, -1.0)
    reports = [r for r in run_all(0) if r.name == "gradient_maximality"]
    assert len(reports) == 1 and not reports[0].passed


def test_riesz_identity_catches_scaled_gradient(monkeypatch):
    _scaled_riesz_gradient(monkeypatch, 1.001)
    reports = [r for r in run_all(0) if r.name == "riesz_identity"]
    assert len(reports) == 2 and not any(r.passed for r in reports)


def _trapezoid_moments(h):
    # w sum_j ln h_j (cos, sin)(2 pi k y_j / n) of the kept modes, from np.cos/np.sin
    s = density_samples(h)
    n, w = h.degree, h.degree / s.size
    k = np.array([k for k in range(1, 6) if k % n])
    ang = 2.0 * np.pi / n * np.multiply.outer(np.arange(s.size) * (n / s.size), k)
    return k, w * (np.log(s) @ np.cos(ang)), w * (np.log(s) @ np.sin(ang))


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_moment_rows_are_the_sampled_derivatives(degree):
    # DH_h(psi) = -(a . m_c + b . m_s) on the span: the same trapezoid sum in
    # another order, within 1e-13 of the largest |DH|
    for seed in range(10):
        h = random_density(np.random.default_rng(seed), degree)
        s = density_samples(h)
        m = vf._span_moments(np.log(s)[None], degree)[0]
        k, m_c, m_s = _trapezoid_moments(h)
        assert np.allclose(m, [m_c, m_s], rtol=0.0, atol=1e-15)
        rng = np.random.default_rng(seed)
        reps = [_loop_tangent(rng, degree) for _ in range(50)]
        sampled = np.array([gateaux_h(h, TangentVector(r, degree)) for r in reps])
        moments = np.array([-(r.cos[k - 1] @ m[0] + r.sin[k - 1] @ m[1]) for r in reps])
        assert np.max(np.abs(moments - sampled)) <= 1e-13 * np.max(np.abs(sampled))


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_gradient_maximality_is_attained_on_the_span(monkeypatch, degree):
    # psi* ~ -(m_c, m_s) attains sup = sqrt(2/n) ||m||, and no sampled trial
    # exceeds it; with R_h negated the report is sup + ||R_h||, which shows the sup
    for seed in range(5):
        h = random_density(np.random.default_rng(seed), degree)
        k, m_c, m_s = _trapezoid_moments(h)
        sup = np.sqrt(2.0 / degree) * np.sqrt(np.sum(m_c**2 + m_s**2))
        a, b = np.zeros(5), np.zeros(5)
        a[k - 1], b[k - 1] = -m_c, -m_s
        norm = np.sqrt(degree / 2.0 * np.sum(a**2 + b**2))
        best = TangentVector(FourierRep(float(degree), 0.0, a / norm, b / norm), degree)
        assert gateaux_h(h, best) == pytest.approx(sup, rel=1e-13)
        s = density_samples(h)
        trials = _trials(degree, 1000, s.size, seed)
        assert np.max(_gateaux_rows(trials, np.log(s), degree / s.size)) <= sup
        R = riesz_gradient(h)
        r_norm = np.sqrt(degree / s.size * np.sum(R.rep.samples**2))
        assert gradient_maximality_check(h).passed
        _scaled_riesz_gradient(monkeypatch, -1.0)
        rep = gradient_maximality_check(h)
        assert rep.max_abs_error - r_norm == pytest.approx(sup, rel=1e-13)
        monkeypatch.undo()


@pytest.mark.parametrize("factor", [1.0, -1.0])
def test_run_all_maximality_bounds_the_sampled_trials(monkeypatch, factor):
    # the report is max(sup DH - DH(R_hat), 0); every one of 1000 sampled
    # trials has DH(psi) - DH(R_hat) at or below it
    _scaled_riesz_gradient(monkeypatch, factor)
    calls = []
    real = vf.gradient_maximality_check

    def recorded(h, **kwargs):
        calls.append(h)
        return real(h, **kwargs)

    monkeypatch.setattr(vf, "gradient_maximality_check", recorded)
    for seed in range(20):
        report = next(r for r in run_all(seed) if r.name == "gradient_maximality")
        h = calls[-1]
        s = density_samples(h)
        w, logs = 2 / s.size, np.log(s)
        R = vf.riesz_gradient(h).rep.samples
        best = _gateaux_rows(R, logs, w) / np.sqrt(w * np.sum(R**2))
        dh = _gateaux_rows(_trials(2, 1000, s.size, seed), logs, w)
        assert (report.passed, report.samples) == (factor > 0, 6)
        assert np.max(dh - best) <= report.max_abs_error + 1e-15


def _loop_ode_pde(n_states, seed, n_modes=3):
    # ode_pde_proportionality_check with one gateaux_g call per state and basis vector
    rng = np.random.default_rng(seed)
    k = odd_frequencies(n_modes)
    s = np.tile(np.pi * k, 2)
    c2 = np.tile(c_squared(k), 2)
    zero = np.zeros(k[-1])
    odd = np.eye(k[-1])[k - 1]
    basis = [TangentVector(FourierRep(2.0, 0.0, e, zero), 2) for e in odd] \
        + [TangentVector(FourierRep(2.0, 0.0, zero, e), 2) for e in odd]
    # the kernel the check reads, reached without the systems it checks
    kernel = _odd_kernel(n_modes, 1024, 2)
    worst = 0.0
    for _ in range(n_states):
        ab = rng.uniform(-0.004, 0.004, (2, n_modes))
        cos, sin = zero.copy(), zero.copy()
        cos[k - 1], sin[k - 1] = np.pi * k * ab[1], -np.pi * k * ab[0]
        gprime = InverseDerivative(FourierRep(2.0, 0.5, cos, sin), 2)
        dh = np.array([gateaux_g(gprime, phi) for phi in basis])
        x = s * ab.ravel()
        worst = max(worst, np.max(np.abs(kernel.rhs(x, False) / s - c2 * dh)),
                    np.max(np.abs(kernel.rhs(x, True) / s - dh)))
    return worst


@pytest.mark.parametrize("seed", range(10))
def test_ode_pde_proportionality_matches_the_loop_bitwise(seed):
    rep = ode_pde_proportionality_check(10, seed=seed)
    assert rep.max_abs_error == _loop_ode_pde(10, seed)
    assert rep.samples == 10
