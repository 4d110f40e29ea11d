from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

from srbflow import entropy, flow
from srbflow.entropy import (
    DELTA_FLOOR,
    FEW_VALUES,
    _finite,
    _guarded,
    _odd_kernel,
    c_squared,
    density_entropy,
    density_samples,
    gateaux_g,
    gateaux_h,
    gibbs_entropy,
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


# the two bounds, one step to either side of each, and values past them
GUARD_EDGES = [DELTA_FLOOR, 1.0 - DELTA_FLOOR, 0.0, -0.0, 1.0, np.nan, np.inf, -np.inf] + [
    np.nextafter(b, to) for b in (DELTA_FLOOR, 1.0 - DELTA_FLOOR) for to in (0.0, 1.0)]


def guard_oracle(s):
    """_guarded's message from the two reductions over s, or None if s passes."""
    lo, hi = np.min(s), np.max(s)
    if lo > DELTA_FLOOR and hi < 1.0 - DELTA_FLOOR:
        return None
    return f"density leaves (0, 1): min={lo:.3e}, max={hi:.3e}"


def assert_guard_matches_oracle(s):
    expected = guard_oracle(s)
    if expected is None:
        assert _guarded(s) is s
    else:
        with pytest.raises(DomainError) as exc:
            _guarded(s)
        assert str(exc.value) == expected


@pytest.mark.parametrize("size", range(1, FEW_VALUES + 2))
def test_guard_matches_the_two_reductions(size):
    # one edge value among interior ones, at the front, middle and back, as a flat
    # state, a stack of rows and a strided view; then every edge value at once
    rng = np.random.default_rng(size)
    for edge in GUARD_EDGES + [0.5]:
        for at in sorted({0, size // 2, size - 1}):
            x = rng.uniform(0.01, 0.99, size)
            x[at] = edge
            wide = np.repeat(x, 2)
            for s in (x, x[None], x.reshape(-1, 1), wide[::2], wide.reshape(-1, 2)[:, :1]):
                assert_guard_matches_oracle(s)
    assert_guard_matches_oracle(np.resize(np.array(GUARD_EDGES), size))
    # a few-value start that passes never reaches the reductions
    if size <= FEW_VALUES:
        x = rng.uniform(0.01, 0.99, size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "_min", None)
            assert _guarded(x) is x


def test_guard_falls_through_on_empty_and_other_dtypes():
    # an empty state keeps numpy's ValueError; other dtypes take the reductions
    for empty in (np.empty(0), np.empty((0, 3)), np.empty((2, 0))):
        with pytest.raises(ValueError, match="zero-size array"):
            _guarded(empty)
    for s in (np.array([0.25, 0.75], dtype=np.float32), np.array([0, 1]),
              np.array([0.5, 1.5], dtype=np.float32), np.array([0.5, 0.5], dtype=">f8"),
              np.array([0.3 + 2j, 0.7 - 1j]), np.array([0.3 + 2j, 1.7 - 1j])):
        assert_guard_matches_oracle(s)


def test_complex_one_row_stack_keeps_its_complex_step():
    # complex states take the reductions (numpy orders them by real part first), so
    # a one-row complex stack is guarded on its real part and gives the complex step
    rng = np.random.default_rng(3)
    s = rng.uniform(0.1, 0.9, 8)
    p = rng.standard_normal(8)
    w, eps = 0.25, 1e-30
    got = gibbs_entropy((s + 1j * eps * p)[None], w)
    assert got.shape == (1,) and got.dtype == complex
    assert got[0].real == pytest.approx(gibbs_entropy(s, w), rel=1e-15)
    assert got[0].imag / eps == pytest.approx(-w * np.sum(p * (np.log(s) + 1.0)), rel=1e-13)
    bad = s.astype(complex)
    bad[2] = 1.2 + 1j * eps
    with pytest.raises(DomainError) as exc:
        gibbs_entropy(bad[None], w)
    assert str(exc.value) == guard_oracle(bad)


@pytest.mark.parametrize("size", range(FEW_VALUES + 2))
def test_finite_matches_isfinite(size):
    # NaN and +-inf at the front, middle and back, as a flat state, a row, a column
    # and a strided view; a few-value float64 state never reaches numpy
    rng = np.random.default_rng(size)
    base = rng.standard_normal(size)
    cases = [base]
    for bad in (np.nan, np.inf, -np.inf):
        for at in sorted({0, size // 2, size - 1}) if size else ():
            x = base.copy()
            x[at] = bad
            cases.append(x)
    for x in cases:
        for a in (x, x[None], x.reshape(-1, 1), np.repeat(x, 2)[::2]):
            want = bool(np.isfinite(a).all())
            assert _finite(a) is want
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(entropy, "np", None)  # the numpy branch would raise
                if size <= FEW_VALUES:
                    assert _finite(a) is want
                else:
                    with pytest.raises(AttributeError):
                        _finite(a)


def test_finite_on_ragged_blocks_and_other_dtypes():
    # the ragged last block of a fiber state: a 2-D view of 15 values, then of 20
    Z = np.ones((5, 40))
    for cols in (3, 4):
        for at in ((0, -cols), (2, -2), (4, -1)):
            block = Z[:, -cols:]
            assert not block.flags.contiguous and _finite(block) is True
            for bad in (np.nan, np.inf, -np.inf):
                Z[at] = bad
                assert _finite(block) is False
                Z[at] = 1.0
    # other dtypes take numpy: math.isfinite would refuse complex values
    for a, want in ((np.array([1.0, np.inf], dtype=np.float32), False),
                    (np.array([1, 2]), True), (np.array([1.0, np.nan], dtype=">f8"), False),
                    (np.array([1.0, 1.0 + 1j * np.inf]), False), (np.array([0.5 + 1j]), True)):
        assert _finite(a) is want


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


def flat_tables(K, N, blocks):
    """The kernel's table pair (C, S), built anew: (cos, sin) for the even
    amplitudes B, ([-sin | cos], [cos | sin]) for [A; B]."""
    cos, sin = fresh_tables(K, N)
    return (cos, sin) if blocks == 1 else (np.hstack([-sin, cos]), np.hstack([cos, sin]))


def flat_kernel(K, w, N, blocks):
    """The density 1/2 + C x and the rhs -pi k w (dtau ((S (k x)) / h) S) on a
    flat x of blocks * K amplitudes, on fresh tables; k and w tiled."""
    C, S = flat_tables(K, N, blocks)
    k = np.tile(odd_frequencies(K).astype(float), blocks)
    scale = -np.pi * k * np.tile(np.broadcast_to(w, K), blocks)

    def density(x):
        return 0.5 + C @ x

    def rhs(x):
        return scale * ((2.0 * np.pi / N) * (((S @ (k * x)) / density(x)) @ S))

    return density, rhs


def blockwise_kernel(K, w, N, blocks):
    """The same density and rhs summed block by block: a reduce over one gemv
    per block of K amplitudes, on fresh (N, K) tables C = (-sin, cos) and
    S = (cos, sin) (cos and sin alone for one block), projected on the stack
    of the S blocks."""
    cos, sin = fresh_tables(K, N)
    T = [-sin, cos, sin][2 - blocks:]
    C, S = T[:-1], T[1:]
    k = odd_frequencies(K).astype(float)

    def density(x):
        return reduce(np.add, map(np.matmul, C, x.reshape(blocks, -1)), 0.5)

    def rhs(x):
        num = reduce(np.add, map(np.matmul, S, k * x.reshape(blocks, -1)))
        return (-np.pi * k * w * (2.0 * np.pi / N * ((num / density(x)) @ np.stack(S)))).ravel()

    return density, rhs


U = np.finfo(float).eps / 2  # the unit roundoff u


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * U / (1.0 - n * U)


def packed_error_bounds(K, w, N, x):
    """How far the packed kernel's density and rhs at the amplitudes x = [A; B]
    (m = 2K values) can be off their exact values, whatever the order of its
    sums.  The flat kernel takes one dot of m terms where the per-block one
    takes two of K, so the two may differ by twice these bounds.

    Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), section
    3.1: a dot product of n terms, summed in any order, with or without fused
    multiply-adds, is off by at most gamma_n sum_i |x_i y_i|; one more
    operation adds u times its value.  To first order in u, at node j:
      h_j = 1/2 + sum_i C_ji x_i, m products and the 1/2:
        |dh_j| <= gamma_{m+1} b_j,  b_j = 1/2 + sum_i |C_ji x_i|;
      n_j = sum_i S_ji (k x)_i, m products (k x has the same bits in both):
        |dn_j| <= gamma_m a_j,  a_j = sum_i |S_ji (k x)_i|;
      r_j = n_j / h_j, one division:
        |dr_j| <= (|dn_j| + |r_j| |dh_j|) / h_j + u |r_j|;
    and in mode i, the projection y_i = sum_j r_j S_ji of N terms, then the
    products by dtau and by the scale, two more roundings:
        |drhs_i| <= |scale_i| dtau (sum_j |S_ji| |dr_j| + gamma_{N+2} sum_j |r_j S_ji|).
    The exact h and r are taken as the computed ones: with 1/10 < h < 9/10 here
    that moves the bound by a factor 1 + O(N u), as do the u^2 terms dropped."""
    C, S = flat_tables(K, N, 2)
    k = np.tile(odd_frequencies(K).astype(float), 2)
    kx, absC, absS = k * x, np.abs(C), np.abs(S)
    h = 0.5 + C @ x
    abs_r = np.abs((S @ kx) / h)
    dh = gamma(2 * K + 1) * (0.5 + absC @ np.abs(x))
    dr = (gamma(2 * K) * (absS @ np.abs(kx)) + abs_r * dh) / h + U * abs_r
    dy = dr @ absS + gamma(N + 2) * (abs_r @ absS)
    return dh, np.pi * k * np.tile(np.broadcast_to(w, K), 2) * (2.0 * np.pi / N) * dy


def entropy_gap_bound(h, dh, N):
    """How far the entropies -w sum_j h_j ln h_j (w = 2 / N) of two densities,
    each within dh of the exact h, can be apart.  To first order in u: the
    inputs move it by at most w sum_j |1 + ln h_j| 2 dh_j (mean value theorem),
    and each evaluation is off by at most gamma_{N+6} w sum_j |h_j ln h_j|: the
    log within 2 ulp (4u), the product (u), the sum of N terms (gamma_N, as
    the dot products above) and the scaling by w (u)."""
    w = 2.0 / N
    return w * np.sum(np.abs(1.0 + np.log(h)) * 2.0 * dh) \
        + 2.0 * gamma(N + 6) * w * np.sum(np.abs(h * np.log(h)))


def oracle_n2_density(ab, N):
    s = np.pi * np.tile(odd_frequencies(ab.shape[1]), 2)
    return flat_kernel(ab.shape[1], 1.0, N, 2)[0](s * ab.ravel())


def oracle_n2_rhs(ab, w, N):
    s = np.pi * np.tile(odd_frequencies(ab.shape[1]), 2)
    return (flat_kernel(ab.shape[1], w, N, 2)[1](s * ab.ravel()) / s).reshape(ab.shape)


def oracle_even_density(B, N):
    C, _ = fresh_tables(B.size, N)
    return 0.5 + C @ B


def oracle_entropy(s, N):
    return float(-(2.0 / N) * np.sum(s * np.log(s)))


def oracle_even_entropy(B, N):
    return oracle_entropy(oracle_even_density(B, N), N)


@pytest.mark.parametrize("N", [256, 1000, 1024])
@pytest.mark.parametrize("K", [1, 2, 3, 5, 8, 16, 24])
def test_cached_table_readers_match_fresh_tables_bitwise(monkeypatch, K, N):
    rng = np.random.default_rng(1000 * K + N)
    k = odd_frequencies(K)
    c2 = c_squared(k)
    s = np.pi * np.tile(k, 2)
    for _ in range(3):
        # sum |B| < 1/2 and pi sum k (|a| + |b|) < 1/2 keep the densities in (0, 1)
        B = rng.uniform(-1.0, 1.0, K)
        B *= rng.uniform(0.05, 0.4) / np.sum(np.abs(B))
        ab = rng.uniform(-1.0, 1.0, (2, K))
        ab *= rng.uniform(0.05, 0.4) / (np.pi * np.sum(k * np.abs(ab)))
        assert np.array_equal(even_galerkin_system(N).rhs(B), oracle_even_rhs(B, c2, N))
        assert np.array_equal(even_galerkin_system(N, True).rhs(B), oracle_even_rhs(B, 1.0, N))
        assert np.array_equal(odd_mode_density(B, N), oracle_even_density(B, N))
        h = odd_mode_density(np.pi * k * ab, N)
        assert np.array_equal(h, oracle_n2_density(ab, N))
        # the per-block sums, a second oracle within the bound derived for their order
        x = s * ab.ravel()
        dh, _ = packed_error_bounds(K, c2, N, x)
        assert np.all(np.abs(h - blockwise_kernel(K, c2, N, 2)[0](x)) <= 2 * dh)
        for use_pde, w in ((False, c2), (True, 1.0)):
            got = n2_rhs(ab, use_pde, N)
            assert np.array_equal(got, oracle_n2_rhs(ab, w, N))
            got = got.ravel()
            _, drhs = packed_error_bounds(K, w, N, x)
            # one more rounding each: the division by s
            bound = 2 * (drhs / s + U * np.abs(got))
            assert np.all(np.abs(got - blockwise_kernel(K, w, N, 2)[1](x) / s) <= bound)
        # the flow systems' kernels, built once per state size, on the packed [a; b]
        ab_even = even_to_galerkin(B)
        for use_pde, w in ((False, c2), (True, 1.0)):
            even, n2 = even_galerkin_system(N, use_pde), galerkin_system_n2(N, use_pde)
            for _ in range(2):  # the call that builds the kernel, then one that reuses it
                assert np.array_equal(even.rhs(B), oracle_even_rhs(B, w, N))
                assert even.entropy(B) == oracle_even_entropy(B, N)
                assert np.array_equal(n2.rhs(ab.ravel()), oracle_n2_rhs(ab, w, N).ravel())
                assert np.array_equal(n2.rhs(ab_even.ravel()), oracle_n2_rhs(ab_even, w, N).ravel())
                got = n2.entropy(ab_even.ravel())
                assert got == oracle_entropy(oracle_n2_density(ab_even, N), N)
                # the even system's sums, a second oracle within the bound for their order
                h = oracle_n2_density(ab_even, N)
                dh, _ = packed_error_bounds(K, w, N, s * ab_even.ravel())
                assert abs(got - oracle_even_entropy(galerkin_to_even(ab_even), N)) \
                    <= entropy_gap_bound(h, dh, N)
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


# ---------------------------------------------------------------------------
# The degree-2 rhs proves h's range from the amplitudes, or takes the guard
# ---------------------------------------------------------------------------


def amplitude_states(m, rng):
    """Flat states of m amplitudes: sums of |x| on both sides of the kernel's
    threshold, one value at it and a nextafter step to either side, one just
    inside and one just outside the domain's reach, and NaN, +-inf and 1e308
    entries (two of them overflow the sum, where math.fsum would raise)."""
    T = entropy._SAFE_AMPLITUDE
    states = []
    for f in (0.1, 0.5, 0.9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 1.1, 1.5, 2.0):
        d = rng.standard_normal(m)
        states.append(d * (f * T / np.sum(np.abs(d))))
    for edge in (T, np.nextafter(T, 0.0), np.nextafter(T, 1.0), 0.5 - DELTA_FLOOR,
                 0.5 - 1e-10, 0.5):
        for at in sorted({0, m // 2, m - 1}):
            for sign in (1.0, -1.0):
                x = np.zeros(m)
                x[at] = sign * edge
                states.append(x)
    for bad in (np.nan, np.inf, -np.inf, 1e308):
        for at in sorted({0, m // 2, m - 1}):
            x = rng.uniform(-0.01, 0.01, m)
            x[at] = bad
            states.append(x)
    states += [np.full(m, 1e308), np.full(m, -1e308)]
    return states


@pytest.mark.parametrize("use_pde", [False, True], ids=["h2", "pde"])
@pytest.mark.parametrize("K,blocks", [(1, 1), (1, 2), (3, 1), (3, 2), (8, 1), (8, 2), (17, 1)])
def test_rhs_skips_the_guard_only_where_a_min_max_oracle_passes(monkeypatch, K, blocks, use_pde):
    # a skipped guard: the oracle passes on h; a guard taken: the oracle's message,
    # or its pass; every pass has the bits of the fresh-table rhs
    N = DEFAULT_GRID
    w = 1.0 if use_pde else c_squared(odd_frequencies(K))
    density, oracle_rhs = flat_kernel(K, w, N, blocks)
    rhs = _odd_kernel(K, N, blocks).rhs
    guarded = []
    monkeypatch.setattr(entropy, "_guarded", lambda s: guarded.append(s) or _guarded(s))
    skipped = 0
    for x in amplitude_states(K * blocks, np.random.default_rng(100 * K + blocks)):
        guarded.clear()
        with np.errstate(all="ignore"):
            expected = guard_oracle(density(x))
            if expected is None:
                assert np.array_equal(rhs(x, use_pde), oracle_rhs(x))
            else:
                with pytest.raises(DomainError) as exc:
                    rhs(x, use_pde)
                assert str(exc.value) == expected
        if not guarded:
            assert expected is None
            skipped += 1
    assert (skipped > 0) is (K * blocks <= FEW_VALUES)


def test_rhs_takes_the_guard_on_other_dtypes(monkeypatch):
    # float32, non-native float64 and complex amplitudes take the guard, with the
    # fresh-table rhs's bits; a float64 one of the same values does not
    density, oracle_rhs = flat_kernel(3, c_squared(odd_frequencies(3)), DEFAULT_GRID, 1)
    rhs = _odd_kernel(3, DEFAULT_GRID, 1).rhs
    guarded = []
    monkeypatch.setattr(entropy, "_guarded", lambda s: guarded.append(s) or _guarded(s))
    x = np.array([0.1, -0.05, 0.02])
    others = (x.astype(np.float32), x.astype(">f8"), x.astype(complex), x + 1e-30j)
    for y in others:
        assert np.array_equal(rhs(y, False), oracle_rhs(y))
    assert len(guarded) == len(others)
    assert np.array_equal(rhs(x, False), oracle_rhs(x)) and len(guarded) == len(others)
    with pytest.raises(DomainError) as exc:
        rhs(np.array([0.6, 0.0, 0.0], dtype=np.float32), False)
    assert str(exc.value) == guard_oracle(density(np.array([0.6, 0.0, 0.0], dtype=np.float32)))


def test_odd_mode_functions_reject_more_than_two_blocks():
    # the tables exist for B and [A; B] only; a third block would read unset memory
    x = np.full((3, 2), 0.01)
    with pytest.raises(ValueError, match="two blocks"):
        odd_mode_density(x)
    with pytest.raises(ValueError, match="two blocks"):
        odd_mode_density(x[None, :2])


def test_cached_tables_are_read_only():
    for blocks in (1, 2):
        tables = _odd_kernel(3, 64, blocks).tables
        assert len(tables) == 2
        for T in tables:
            with pytest.raises(ValueError):
                T[0, 0] = 1.0
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
    # odd_mode_density reads the kernel of (K, N, 1 block), which the H^2 and
    # the diffusion system both reuse
    _odd_kernel.cache_clear()
    B, N = np.array([0.1, 0.02, -0.01]), 256
    density = odd_mode_density(B, N)
    rhs = even_galerkin_system(N, use_pde).rhs(B)
    info = _odd_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    kernel = _odd_kernel(3, N, 1)
    assert np.array_equal(density, kernel.density(B))
    assert np.array_equal(rhs, kernel.rhs(B, use_pde))


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("K, N", [(1, 1024), (3, 1024), (3, 512), (8, 1000)]
                         + [(K, N) for K in (16, 24) for N in (256, 1000, 1024)])
def test_odd_kernel_matches_the_reduce_over_blocks_bitwise(K, N, blocks):
    # the kernel is the flat formula on fresh tables bit for bit.  One block is also
    # the per-block reduce bit for bit; two blocks sum 2K products in another order
    # there, so the reduce is an oracle within packed_error_bounds
    rng = np.random.default_rng(10 * K + blocks)
    k = odd_frequencies(K)
    kernel = _odd_kernel(K, N, blocks)
    for use_pde, w in ((False, c_squared(k)), (True, 1.0)):
        density, rhs = flat_kernel(K, w, N, blocks)
        block_density, block_rhs = blockwise_kernel(K, w, N, blocks)
        for _ in range(50):
            # pi sum k (|a| + |b|) < 1/2 keeps the density in (0, 1)
            x = rng.uniform(-1.0, 1.0, blocks * K)
            x *= rng.uniform(0.05, 0.4) / np.sum(np.abs(x))
            h, got = kernel.density(x), kernel.rhs(x, use_pde)
            assert got.shape == x.shape
            assert np.array_equal(h, density(x)) and np.array_equal(got, rhs(x))
            X = np.stack([x, 0.5 * x])
            assert np.array_equal(kernel.entropy(X), [oracle_entropy(density(y), N) for y in X])
            if blocks == 1:
                assert np.array_equal(h, block_density(x)) and np.array_equal(got, block_rhs(x))
            else:
                dh, drhs = packed_error_bounds(K, w, N, x)
                assert np.all(np.abs(h - block_density(x)) <= 2 * dh)
                assert np.all(np.abs(got - block_rhs(x)) <= 2 * drhs)
