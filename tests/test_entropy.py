from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

from srbflow import flow
from srbflow.entropy import (
    _odd_kernel,
    c_squared,
    density_entropy,
    density_samples,
    gateaux_g,
    gateaux_h,
    odd_frequencies,
    odd_mode_density,
    riesz_gradient,
)
from srbflow.errors import DomainError
from srbflow.flow import even_galerkin_system, galerkin_system_n2, riesz_system
from srbflow.spectral import (DEFAULT_GRID, FourierRep, GridRep, InverseDerivative,
                              TangentVector, to_grid, translate_sums)
from srbflow.verify import random_density, random_tangent

# closed-form value of -int_0^2 pi*cos(pi*y) * ln(1/2 + 1/4 cos(pi*y)) dy,
# via int_0^{2pi} cos(t) ln(1 + a cos t) dt = 2*pi*(1 - sqrt(1-a^2))/a
DH_CLOSED = -2.0 * np.pi * (2.0 - np.sqrt(3.0))

COS_QUARTER = FourierRep(2.0, 0.5, [0.25], [0.0])  # h = 1/2 + (1/4) cos(pi y)


def h_cos_quarter():
    return InverseDerivative(COS_QUARTER, 2)


def galerkin_to_even(ab: np.ndarray) -> np.ndarray:
    """B_k = pi (2k-1) b_{2k-1} of the coefficients ab = [a; b]; requires a
    pure-sine (even-density) state."""
    if np.any(ab[0] != 0.0):
        raise ValueError("even-case reduction needs a = 0")
    return np.pi * odd_frequencies(ab.shape[1]) * ab[1]


def even_to_galerkin(B) -> np.ndarray:
    B = np.atleast_1d(np.asarray(B, dtype=float))
    return np.stack([np.zeros(B.size), B / (np.pi * odd_frequencies(B.size))])


def c2(n_modes):
    """The H^2 weights c^2_k of the odd frequencies k = 1, 3, ..."""
    return c_squared(odd_frequencies(n_modes))


def n2_rhs(ab, use_pde, n_points=DEFAULT_GRID):
    """galerkin_system_n2's rhs on the coefficients ab = [a; b], in the shape of ab."""
    return galerkin_system_n2(n_points, use_pde).rhs(ab.ravel()).reshape(ab.shape)


def test_entropy_uniform():
    assert density_entropy(InverseDerivative(FourierRep(2.0, 0.5, [0.0], [0.0]), 2)) == \
        pytest.approx(np.log(2.0), abs=1e-13)
    assert density_entropy(InverseDerivative(FourierRep(3.0, 1 / 3, [0.0], [0.0]), 3)) == \
        pytest.approx(np.log(3.0), abs=1e-13)


def test_entropy_cos_quarter_against_quadrature_oracle():
    oracle, err = quad(lambda y: -(0.5 + 0.25 * np.cos(np.pi * y))
                       * np.log(0.5 + 0.25 * np.cos(np.pi * y)), 0.0, 2.0, limit=200)
    assert err < 1e-10
    assert oracle == pytest.approx(0.6285090485394579, abs=1e-12)  # frozen
    assert density_entropy(h_cos_quarter()) == pytest.approx(oracle, abs=1e-10)


def test_entropy_domain_guard():
    with pytest.raises(DomainError):
        density_entropy(InverseDerivative(FourierRep(2.0, 0.5, [0.5], [0.0]), 2))
    with pytest.raises(DomainError):
        density_entropy(InverseDerivative(GridRep(2.0, np.full(8, 1e-12)), 2))


def test_entropy_upper_bound_random():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        for _ in range(20):
            h = random_density(rng, n)
            assert density_entropy(h) <= np.log(n) + 1e-12


def test_gateaux_h_constant_h():
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.0], [0.0]), 2)
    psi = TangentVector(FourierRep(2.0, 0.0, [0.3], [0.1]), 2)
    assert gateaux_h(h, psi) == pytest.approx(0.0, abs=1e-14)


def test_gateaux_h_closed_form():
    psi = TangentVector(FourierRep(2.0, 0.0, [np.pi], [0.0]), 2)  # pi cos(pi y)
    assert gateaux_h(h_cos_quarter(), psi) == pytest.approx(DH_CLOSED, rel=1e-10)


def test_gateaux_h_linearity():
    rng = np.random.default_rng(5)
    h = random_density(rng, 2)
    psi = random_tangent(rng, 2)
    base = gateaux_h(h, psi)
    scaled = TangentVector(FourierRep(2.0, 0.0, 3.5 * psi.rep.cos, 3.5 * psi.rep.sin), 2)
    assert gateaux_h(h, scaled) == pytest.approx(3.5 * base, rel=1e-12)


def test_gateaux_g_constant_gprime():
    g = InverseDerivative(FourierRep(2.0, 0.5, [0.0], [0.0]), 2)
    phi = TangentVector(FourierRep(2.0, 0.0, [0.2], [0.4]), 2)
    assert gateaux_g(g, phi) == pytest.approx(0.0, abs=1e-14)


def test_gateaux_g_closed_form():
    phi = TangentVector(FourierRep(2.0, 0.0, [0.0], [1.0]), 2)  # sin(pi y)
    assert gateaux_g(h_cos_quarter(), phi) == pytest.approx(DH_CLOSED, rel=1e-10)


def test_gateaux_g_matches_gateaux_h_of_derivative():
    # -int ln g' phi' dy must equal DH_h(psi) with psi = phi'
    rng = np.random.default_rng(9)
    h = random_density(rng, 2)
    phi = random_tangent(rng, 2)
    from srbflow.spectral import differentiate
    psi = TangentVector(differentiate(phi.rep), 2)
    assert gateaux_g(h, phi) == pytest.approx(gateaux_h(h, psi), abs=1e-9)


def test_gateaux_g_integration_by_parts_form():
    # the (g''/g') phi form, evaluated by independent quadrature
    phi = TangentVector(FourierRep(2.0, 0.0, [0.0], [1.0]), 2)
    val, err = quad(lambda y: (-0.25 * np.pi * np.sin(np.pi * y))
                    / (0.5 + 0.25 * np.cos(np.pi * y)) * np.sin(np.pi * y), 0.0, 2.0,
                    limit=200)
    assert err < 1e-6
    assert gateaux_g(h_cos_quarter(), phi) == pytest.approx(val, abs=1e-7)


def test_riesz_gradient_constant_h():
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.0], [0.0]), 2)
    assert np.max(np.abs(riesz_gradient(h).rep.samples)) == 0.0


def test_riesz_gradient_point_value():
    R = riesz_gradient(h_cos_quarter())
    # at y = 0: (ln h(1) - ln h(0)) / 2 = -ln(3)/2
    assert R.rep.samples[0] == pytest.approx(-0.5 * np.log(3.0), rel=1e-12)


def test_riesz_defining_identity_random():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        h = random_density(rng, n)
        R = riesz_gradient(h)
        s = R.rep.samples
        w = n / s.size
        hs = density_samples(h, s.size)
        for _ in range(100):
            p = to_grid(random_tangent(rng, n).rep, s.size).samples
            lhs = w * np.sum(s * p)
            rhs = -w * np.sum(p * np.log(hs))
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_riesz_gradient_is_tangent():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        h = random_density(rng, n)
        assert np.max(np.abs(translate_sums(riesz_gradient(h).rep.samples, n))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 5])
def test_typed_functionals_are_the_riesz_system_on_the_samples_bitwise(n):
    # the typed API only samples a FourierRep; the Gibbs sum and the fiber
    # kernel are the ones the Riesz flow steps with
    rng = np.random.default_rng(n)
    system = riesz_system(n)
    for _ in range(200):
        h = random_density(rng, n)
        s = density_samples(h)
        H, want = density_entropy(h), system.entropy(s)
        assert type(H) is float and type(want) is float and H == want
        assert np.array_equal(riesz_gradient(h).rep.samples, system.rhs(s))


def test_sobolev_gradient_zero_state():
    g = n2_rhs(np.zeros((2, 1)), False)
    assert np.all(g[0] == 0.0) and np.all(g[1] == 0.0)


def test_sobolev_gradient_even_case_closed_form():
    # B1 = 1/4 means b1 = 1/(4 pi); Bdot1 = -pi c1^2 * 2 pi (2 - sqrt 3)
    state = even_to_galerkin([0.25, 0.0, 0.0])
    g = n2_rhs(state, False)
    bdot1_expect = -np.pi * c_squared(1) * 2.0 * np.pi * (2.0 - np.sqrt(3.0)) / np.pi
    assert g[1][0] == pytest.approx(bdot1_expect, rel=1e-9)
    assert np.max(np.abs(g[0])) < 1e-15  # parity: no cosine components appear


def test_sobolev_gradient_parity_random_even_states():
    rng = np.random.default_rng(40)
    for _ in range(20):
        state = np.stack([np.zeros(3), rng.uniform(-0.01, 0.01, 3)])
        g = n2_rhs(state, False)
        assert np.max(np.abs(g[0])) < 1e-13


def test_galerkin_rhs_even_equilibrium():
    assert np.all(even_galerkin_system().rhs(np.zeros(3)) == 0.0)


def test_galerkin_rhs_even_closed_form_and_oracle():
    B = np.array([0.25, 0.0, 0.0])
    out = even_galerkin_system().rhs(B)
    expect1 = -np.pi * c_squared(1) * 2.0 * np.pi * (2.0 - np.sqrt(3.0))
    assert out[0] == pytest.approx(expect1, rel=1e-10)
    # higher modes via independent adaptive quadrature
    for m in (2, 3):
        k = 2 * m - 1
        val, err = quad(lambda t, k=k: (0.25 * np.sin(t)) / (0.5 + 0.25 * np.cos(t))
                        * np.sin(k * t), 0.0, 2.0 * np.pi, limit=400)
        assert err < 1e-9
        expect = -np.pi * k * c_squared(k) * val
        assert out[m - 1] == pytest.approx(expect, rel=1e-6, abs=1e-12)
        assert out[m - 1] != 0.0


def test_galerkin_rhs_even_linearization_rate():
    B = np.array([1e-6, 0.0, 0.0])
    out = even_galerkin_system().rhs(B)
    rate = 2.0 * np.pi**2 * c_squared(1)
    assert rate == pytest.approx(0.1823059, abs=1e-4)
    assert out[0] / B[0] == pytest.approx(-rate, rel=1e-4)


def test_even_formula_cross_checks_general_formula():
    # the even entry point (B, on the A = 0 tables) and the general one
    # ((a, b), on the full tables) must agree under B_k = pi (2k-1) b_{2k-1}
    rng = np.random.default_rng(51)
    for _ in range(10):
        B = rng.uniform(-0.05, 0.05, 3)
        state = even_to_galerkin(B)
        g = n2_rhs(state, False)
        from_even = even_galerkin_system().rhs(B)
        np.testing.assert_allclose(galerkin_to_even(np.stack([np.zeros(3), g[1]])),
                                   from_even, atol=1e-12)


def test_pde_proportionality():
    rng = np.random.default_rng(60)
    w = c2(3)
    for _ in range(10):
        state = rng.uniform(-0.004, 0.004, (2, 3))
        g = n2_rhs(state, False)
        p = n2_rhs(state, True)
        np.testing.assert_allclose(g[0], w * p[0], atol=1e-14)
        np.testing.assert_allclose(g[1], w * p[1], atol=1e-14)
        B = rng.uniform(-0.05, 0.05, 3)
        np.testing.assert_allclose(even_galerkin_system().rhs(B),
                                   w * even_galerkin_system(use_pde=True).rhs(B), atol=1e-14)


@pytest.mark.parametrize("weight, use_pde", [(c_squared, False), (lambda k: 1.0, True)],
                         ids=["sobolev_gradient_n2", "pde_rhs_n2"])
def test_sobolev_gradient_matches_basis_projection(weight, use_pde):
    # independent route: coefficient m of the gradient flow is
    # c_{2m-1}^2 * DH_g(cos/sin basis vector), with DH_g from gateaux_g, and
    # the diffusion modes carry the weight 1 in place of c^2
    rng = np.random.default_rng(71)
    state = rng.uniform(-0.003, 0.003, (2, 3))
    g = n2_rhs(state, use_pde)
    a_full = np.zeros(5)  # frequencies 1..5; odd slots populated
    b_full = np.zeros(5)
    a_full[0::2] = state[0]
    b_full[0::2] = state[1]
    # g' = 1/2 + pi sum (2k-1)(-a sin + b cos), written as Fourier data
    k = np.arange(1, 6)
    gp = FourierRep(2.0, 0.5, np.pi * k * b_full, -np.pi * k * a_full)
    gprime = InverseDerivative(gp, 2)
    for m in range(3):
        km = 2 * m + 1
        e_cos = np.zeros(5)
        e_cos[km - 1] = 1.0
        phi_cos = TangentVector(FourierRep(2.0, 0.0, e_cos, np.zeros(5)), 2)
        phi_sin = TangentVector(FourierRep(2.0, 0.0, np.zeros(5), e_cos), 2)
        assert g[0][m] == pytest.approx(weight(km) * gateaux_g(gprime, phi_cos), abs=1e-9)
        assert g[1][m] == pytest.approx(weight(km) * gateaux_g(gprime, phi_sin), abs=1e-9)


# ---------------------------------------------------------------------------
# The cached odd-mode tables against tables built afresh on every call
# ---------------------------------------------------------------------------


def fresh_tables(K, N):
    """cos and sin of (2m-1) tau on tau_j = 2 pi j / N, built anew."""
    ang = np.outer(np.arange(N) * (2.0 * np.pi / N), odd_frequencies(K))
    return np.cos(ang), np.sin(ang)


def oracle_even_rhs(B, w, N):
    C, S = fresh_tables(B.size, N)
    k = odd_frequencies(B.size)
    ratio = (S @ (k * B)) / (0.5 + C @ B)
    return -np.pi * k * w * ((2.0 * np.pi / N) * (ratio @ S))


def oracle_n2_density(ab, N):
    C, S = fresh_tables(ab.shape[1], N)
    k = odd_frequencies(ab.shape[1])
    return 0.5 + (-S) @ (np.pi * k * ab[0]) + C @ (np.pi * k * ab[1])


def oracle_n2_rhs(ab, w, N):
    C, S = fresh_tables(ab.shape[1], N)
    k = odd_frequencies(ab.shape[1])
    A, B = np.pi * k * ab[0], np.pi * k * ab[1]
    ratio = (C @ (k * A) + S @ (k * B)) / oracle_n2_density(ab, N)
    xdot = -np.pi * k * w * ((2.0 * np.pi / N) * np.stack([ratio @ C, ratio @ S]))
    return xdot / (np.pi * k)


def oracle_even_density(B, N):
    C, _ = fresh_tables(B.size, N)
    return 0.5 + C @ B


def oracle_entropy(s, N):
    return float(-(2.0 / N) * np.sum(s * np.log(s)))


def oracle_even_entropy(B, N):
    return oracle_entropy(oracle_even_density(B, N), N)


@pytest.mark.parametrize("N", [256, 1000, 1024])
@pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
def test_cached_table_readers_match_fresh_tables_bitwise(monkeypatch, K, N):
    rng = np.random.default_rng(1000 * K + N)
    k = odd_frequencies(K)
    c2 = c_squared(k)
    for _ in range(3):
        # sum |B| < 1/2 and pi sum k (|a| + |b|) < 1/2 keep the densities in (0, 1)
        B = rng.uniform(-1.0, 1.0, K)
        B *= rng.uniform(0.05, 0.4) / np.sum(np.abs(B))
        ab = rng.uniform(-1.0, 1.0, (2, K))
        ab *= rng.uniform(0.05, 0.4) / (np.pi * np.sum(k * np.abs(ab)))
        assert np.array_equal(even_galerkin_system(N).rhs(B), oracle_even_rhs(B, c2, N))
        assert np.array_equal(even_galerkin_system(N, True).rhs(B), oracle_even_rhs(B, 1.0, N))
        assert np.array_equal(odd_mode_density(B, N), oracle_even_density(B, N))
        assert np.array_equal(odd_mode_density(np.pi * k * ab, N), oracle_n2_density(ab, N))
        for use_pde, w in ((False, c2), (True, 1.0)):
            assert np.array_equal(n2_rhs(ab, use_pde, N), oracle_n2_rhs(ab, w, N))
        # the flow systems' kernels, built once per state size, on the packed [a; b]
        ab_even = even_to_galerkin(B)
        for use_pde, w in ((False, c2), (True, 1.0)):
            even, n2 = even_galerkin_system(N, use_pde), galerkin_system_n2(N, use_pde)
            for _ in range(2):  # the call that builds the kernel, then one that reuses it
                assert np.array_equal(even.rhs(B), oracle_even_rhs(B, w, N))
                assert even.entropy(B) == oracle_even_entropy(B, N)
                assert np.array_equal(n2.rhs(ab.ravel()), oracle_n2_rhs(ab, w, N).ravel())
                assert np.array_equal(n2.rhs(ab_even.ravel()), oracle_n2_rhs(ab_even, w, N).ravel())
                assert n2.entropy(ab_even.ravel()) == oracle_even_entropy(galerkin_to_even(ab_even), N)
    # the entropy monitors on a stack of 40 states, in row slices of 7 and a ragged last
    # one of 5: each row has the bits of the oracle on that state alone
    monkeypatch.setattr(flow, "MONITOR_ELEMENTS", 7 * N)
    Bs = rng.uniform(-1.0, 1.0, (40, K))
    Bs *= rng.uniform(0.05, 0.4, (40, 1)) / np.sum(np.abs(Bs), axis=1, keepdims=True)
    abs_ = rng.uniform(-1.0, 1.0, (40, 2, K))
    abs_ *= rng.uniform(0.05, 0.4, (40, 1, 1)) / (np.pi * np.sum(k * np.abs(abs_), axis=(1, 2),
                                                                 keepdims=True))
    n2_oracle = [oracle_entropy(oracle_n2_density(ab, N), N) for ab in abs_]
    for use_pde in (False, True):
        for system, X, want in ((even_galerkin_system(N, use_pde), Bs,
                                 [oracle_even_entropy(B, N) for B in Bs]),
                                (galerkin_system_n2(N, use_pde), abs_.reshape(40, -1), n2_oracle)):
            one = [system.entropy(x) for x in X]
            assert all(type(v) is float for v in one) and one == want
            assert np.array_equal(system.entropy(X), want)


def test_odd_mode_functions_reject_more_than_two_blocks():
    # the tables exist for B and [A; B] only; a third block would read unset memory
    x = np.full((3, 2), 0.01)
    with pytest.raises(ValueError, match="two blocks"):
        odd_mode_density(x)
    with pytest.raises(ValueError, match="two blocks"):
        odd_mode_density(x[None, :2])


def test_cached_tables_are_read_only():
    for blocks in (1, 2):
        T = _odd_kernel(3, 64, blocks, False).tables
        with pytest.raises(ValueError):
            T[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            T[-1] += 1.0


def test_table_cache_is_bounded():
    assert _odd_kernel.cache_info().maxsize is not None


def test_table_cache_builds_once_per_grid_and_mode_count():
    # an empty cache, so the first call is the one miss
    _odd_kernel.cache_clear()
    before = _odd_kernel.cache_info()
    B = np.array([0.1, 0.02, -0.01, 0.005])
    first = even_galerkin_system(520).rhs(B)
    second = even_galerkin_system(520).rhs(B)
    after = _odd_kernel.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("use_pde", [False, True], ids=["h2", "pde"])
def test_odd_mode_density_and_even_system_share_one_kernel_cache(use_pde):
    # odd_mode_density reads the H^2 kernel of (K, N, 1 block), which the H^2
    # system reuses; the diffusion system builds its own entry next to it
    _odd_kernel.cache_clear()
    B, N = np.array([0.1, 0.02, -0.01]), 256
    density = odd_mode_density(B, N)
    rhs = even_galerkin_system(N, use_pde).rhs(B)
    info = _odd_kernel.cache_info()
    assert (info.misses, info.hits) == ((2, 0) if use_pde else (1, 1))
    kernel = _odd_kernel(3, N, 1, use_pde)
    assert np.array_equal(density, kernel.density(B)) and np.array_equal(rhs, kernel.rhs(B))


def _reduce_kernel(K, w, N, blocks):
    """_odd_kernel's density and rhs as a reduce over the blocks' gemvs."""
    k = odd_frequencies(K).astype(float)
    T = _odd_kernel(K, N, blocks, False).tables
    C, S = list(T[:-1]), list(T[1:])

    def density(x):
        return reduce(np.add, map(np.matmul, C, x.reshape(blocks, -1)), 0.5)

    def rhs(x):
        num = reduce(np.add, map(np.matmul, S, k * x.reshape(blocks, -1)))
        return (-np.pi * k * w * (2.0 * np.pi / N * ((num / density(x)) @ T[1:]))).reshape(x.shape)

    return density, rhs


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("K, N", [(1, 1024), (3, 1024), (3, 512), (8, 1000)])
def test_odd_kernel_matches_the_reduce_over_blocks_bitwise(K, N, blocks):
    rng = np.random.default_rng(10 * K + blocks)
    k = odd_frequencies(K)
    for use_pde, w in ((False, c_squared(k)), (True, 1.0)):
        kernel = _odd_kernel(K, N, blocks, use_pde)
        density, rhs = _reduce_kernel(K, w, N, blocks)
        for _ in range(50):
            # pi sum k (|a| + |b|) < 1/2 keeps the density in (0, 1)
            x = rng.uniform(-1.0, 1.0, (blocks, K))
            x *= rng.uniform(0.05, 0.4) / np.sum(np.abs(x))
            for state in (x, x.ravel()):
                assert np.array_equal(kernel.density(state), density(state))
                got = kernel.rhs(state)
                assert got.shape == state.shape and np.array_equal(got, rhs(state))
