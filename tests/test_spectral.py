import threading

import numpy as np
import pytest

from srbflow import spectral, verify
from srbflow.entropy import gateaux_h
from srbflow.spectral import (
    FourierRep,
    GridRep,
    InverseDerivative,
    TangentVector,
    constraint_residual,
    derivative_sup_bound,
    differentiate,
    evaluate,
    project_constraint,
    quadrature,
    sobolev_norm,
    sup_derivative_constant,
    tangent_residual,
    to_fourier,
    to_grid,
)


def test_eval_constant():
    rep = FourierRep(2.0, 0.5, [], [])
    assert evaluate(rep, 0.3) == 0.5
    assert evaluate(rep, -7.1) == 0.5


def test_eval_cosine():
    rep = FourierRep(2.0, 0.5, [0.25], [0.0])
    assert evaluate(rep, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert evaluate(rep, 1.0) == pytest.approx(0.25, abs=1e-15)  # cos(pi) = -1


def _one_shot_evaluate(rep, y):
    # the whole-array formula: one (points, modes) angle table
    y = np.asarray(y, dtype=float)
    k = np.arange(1, rep.n_modes + 1)
    ang = (2.0 * np.pi / rep.period) * np.multiply.outer(y, k)
    out = rep.mean + (np.cos(ang) @ rep.cos + np.sin(ang) @ rep.sin)
    return out if out.ndim else float(out)


@pytest.mark.parametrize("period", [2.0, 3.0, 5.0])
def test_chunked_evaluate_matches_one_shot_bitwise(monkeypatch, period):
    # a small chunk keeps the BLAS calls single-threaded; sizes below, at
    # and above one chunk, several chunks and a ragged tail
    chunk = 64
    monkeypatch.setattr(spectral, "EVAL_CHUNK", chunk)
    rng = np.random.default_rng(int(period))
    for n_modes in range(1, 9):
        rep = FourierRep(period, 1.0 / period, 0.1 * rng.normal(size=n_modes),
                         0.1 * rng.normal(size=n_modes))
        for size in (1, 5, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 3 * chunk + 5):
            y = np.arange(size) * (period / size)
            assert np.array_equal(evaluate(rep, y), _one_shot_evaluate(rep, y)), (n_modes, size)
        y2 = rng.uniform(0.0, period, (3 * chunk + 5, 2))
        assert np.array_equal(evaluate(rep, y2), _one_shot_evaluate(rep, y2)), n_modes
        value = evaluate(rep, 0.3)
        assert type(value) is float and value == _one_shot_evaluate(rep, 0.3)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_evaluate_chunks_on_any_core_count_match_one_shot_bitwise(monkeypatch, cores):
    # one to six chunks (the last one ragged) shared out over 1, 2 or 3 cores
    chunk = 64
    monkeypatch.setattr(spectral, "EVAL_CHUNK", chunk)
    monkeypatch.setattr(spectral, "_cores", lambda: cores)
    rng = np.random.default_rng(cores)
    for n_modes in (1, 3, 8):
        rep = FourierRep(5.0, 0.2, 0.1 * rng.normal(size=n_modes), 0.1 * rng.normal(size=n_modes))
        for size in (chunk, 2 * chunk + 1, 3 * chunk + 5, 6 * chunk + 63):
            y = np.arange(size) * (5.0 / size)
            assert np.array_equal(evaluate(rep, y), _one_shot_evaluate(rep, y)), (n_modes, size)


def test_on_cores_splits_contiguous_shares(monkeypatch):
    # one share per core, the first on the calling thread, in share order
    monkeypatch.setattr(spectral, "_cores", lambda: 3)
    caller = threading.get_ident()
    out = spectral._on_cores(lambda share: (share, threading.get_ident() == caller), list(range(7)))
    assert out == [([0, 1], True), ([2, 3], False), ([4, 5, 6], False)]
    assert spectral._on_cores(lambda share: share, [9]) == [[9]]
    monkeypatch.setattr(spectral, "_cores", lambda: 8)
    assert spectral._on_cores(len, list(range(3))) == [1, 1, 1]


@pytest.mark.parametrize("failing", [0, 2])
def test_on_cores_reraises_a_share_failure(monkeypatch, failing):
    monkeypatch.setattr(spectral, "_cores", lambda: 3)
    done = []

    def fn(share):
        if failing in share:
            raise ZeroDivisionError(f"share {share}")
        done.append(share)

    with pytest.raises(ZeroDivisionError, match=rf"share \[{failing}\]"):
        spectral._on_cores(fn, [0, 1, 2])
    assert sorted(done) == [[b] for b in (0, 1, 2) if b != failing]


@pytest.mark.parametrize("period", [2.0, 3.0, 5.0])
def test_to_grid_matches_evaluate_bitwise(monkeypatch, period):
    # cached tables below and at one chunk, the chunked evaluate path above
    chunk = 64
    monkeypatch.setattr(spectral, "EVAL_CHUNK", chunk)
    rng = np.random.default_rng(10 + int(period))
    for n_modes in range(9):
        rep = FourierRep(period, 1.0 / period, 0.1 * rng.normal(size=n_modes),
                         0.1 * rng.normal(size=n_modes))
        for size in (4, chunk, chunk + 1):
            want = evaluate(rep, np.arange(size) * (period / size))
            assert np.array_equal(to_grid(rep, size).samples, want), (n_modes, size)


def test_grid_tables_read_only():
    for table in spectral._grid_tables(2.0, 16, 3):
        assert table.shape == (16, 3) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_large_grid_not_cached(monkeypatch):
    chunk = 64
    monkeypatch.setattr(spectral, "EVAL_CHUNK", chunk)
    rep = FourierRep(3.0, 0.0, [0.1, 0.2], [0.3, 0.0])
    before = spectral._grid_tables.cache_info()
    to_grid(rep, chunk + 1)
    assert spectral._grid_tables.cache_info() == before
    to_grid(rep, chunk)
    assert spectral._grid_tables.cache_info() != before


def test_verify_rerun_hits_grid_cache():
    # the cache holds every grid a verify run samples
    verify.run_all(0)
    before = spectral._grid_tables.cache_info()
    verify.run_all(0)
    after = spectral._grid_tables.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_rep_period_must_be_the_degree():
    # sampled over [0, 3) a period-3 rep would pass for a degree-2 function
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.1], [0.0]), 2)
    with pytest.raises(ValueError, match="period 3 is not the degree 2"):
        gateaux_h(h, TangentVector(FourierRep(3.0, 0.0, [0.2], [0.1]), 2))
    with pytest.raises(ValueError, match="period 2 is not the degree 3"):
        InverseDerivative(GridRep(2.0, np.full(6, 1 / 3)), 3)
    with pytest.raises(ValueError, match="degree must be >= 2"):
        TangentVector(FourierRep(1.0), 1)


def test_differentiate_constant():
    d = differentiate(FourierRep(2.0, 0.5, [0.0], [0.0]))
    assert d.mean == 0.0
    assert np.all(d.cos == 0.0) and np.all(d.sin == 0.0)


def test_differentiate_sine():
    # d/dy sin(pi y) = pi cos(pi y)
    d = differentiate(FourierRep(2.0, 0.0, [0.0], [1.0]))
    assert d.cos[0] == pytest.approx(np.pi, rel=1e-15)
    assert d.sin[0] == 0.0


def test_differentiate_twice_single_harmonic():
    for k in (1, 2, 5):
        rep = FourierRep(2.0, 0.0, np.eye(5)[k - 1], np.zeros(5))
        dd = differentiate(differentiate(rep))
        expect = -((2.0 * np.pi * k / 2.0) ** 2)
        assert dd.cos[k - 1] == pytest.approx(expect, rel=1e-15)


def test_quadrature_constant():
    g = GridRep(2.0, np.full(64, 0.5))
    assert quadrature(g) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_cosine_orthogonality():
    y = np.arange(64) * (2.0 / 64)
    assert quadrature(GridRep(2.0, np.cos(np.pi * y))) == pytest.approx(0.0, abs=1e-14)
    assert quadrature(GridRep(2.0, np.cos(np.pi * y) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_exact_on_trig_polynomials():
    # exact (to roundoff) whenever the max frequency index is < N/2
    rng = np.random.default_rng(7)
    N = 64
    y = np.arange(N) * (2.0 / N)
    for _ in range(20):
        a = rng.uniform(-1, 1, 20)
        b = rng.uniform(-1, 1, 20)
        mean = rng.uniform(-1, 1)
        rep = FourierRep(2.0, mean, a, b)
        assert quadrature(to_grid(rep, N)) == pytest.approx(2.0 * mean, abs=1e-12)


def test_grid_fourier_roundtrip():
    rng = np.random.default_rng(3)
    rep = FourierRep(2.0, 0.3, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
    grid = to_grid(rep, 64)
    back = to_fourier(grid, 10)
    assert back.mean == pytest.approx(rep.mean, abs=1e-12)
    np.testing.assert_allclose(back.cos, rep.cos, atol=1e-12)
    np.testing.assert_allclose(back.sin, rep.sin, atol=1e-12)
    grid2 = to_grid(back, 64)
    np.testing.assert_allclose(grid2.samples, grid.samples, atol=1e-12)


def test_sobolev_norm_zero():
    assert sobolev_norm(FourierRep(2.0, 0.0, [0.0], [0.0]), 3) == 0.0


def test_sobolev_norm_cos_h2():
    # ||cos(pi y)||^2_{H^2} = 1 + pi^2 + pi^4 on [0, 2]
    norm = sobolev_norm(FourierRep(2.0, 0.0, [1.0], [0.0]), 2)
    assert norm == pytest.approx(np.sqrt(1.0 + np.pi**2 + np.pi**4), rel=1e-14)


def test_sobolev_norm_sin_l2():
    assert sobolev_norm(FourierRep(2.0, 0.0, [0.0], [1.0]), 0) == pytest.approx(1.0, rel=1e-14)


def test_constraint_residual_uniform():
    for n in (2, 3, 5):
        h = InverseDerivative(FourierRep(float(n), 1.0 / n, [0.0], [0.0]), n)
        assert constraint_residual(h) <= 1e-15


def test_constraint_residual_odd_harmonic_cancels():
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.25], [0.0]), 2)
    assert constraint_residual(h) <= 1e-14


def test_constraint_residual_even_harmonic_survives():
    # cos(2 pi y) is invariant under translation by 1: residual = 2 * 1/4
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.0, 0.25], [0.0, 0.0]), 2)
    assert constraint_residual(h) == pytest.approx(0.5, abs=1e-12)


def test_project_constraint_n2():
    rep = FourierRep(2.0, 0.1, [0.1, 0.3], [0.0, 0.2])
    out = project_constraint(rep, 2)
    assert out.cos[0] == 0.1 and out.cos[1] == 0.0
    assert out.sin[1] == 0.0 and out.mean == 0.0


def test_project_constraint_idempotent_and_tangent():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        rep = FourierRep(float(n), rng.uniform(-1, 1),
                         rng.uniform(-1, 1, 12), rng.uniform(-1, 1, 12))
        once = project_constraint(rep, n)
        twice = project_constraint(once, n)
        np.testing.assert_array_equal(once.cos, twice.cos)
        np.testing.assert_array_equal(once.sin, twice.sin)
        assert tangent_residual(TangentVector(once, n)) <= 1e-12


def test_project_constraint_n3_multiple_removed():
    # a single mode at frequency 3 violates the n=3 constraint; brute force
    # confirms the non-multiples cancel while multiples of 3 survive
    rep = FourierRep(3.0, 0.0, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    out = project_constraint(rep, 3)
    assert np.all(out.cos == 0.0) and np.all(out.sin == 0.0)
    y = np.linspace(0.0, 1.0, 17)
    brute = sum(evaluate(rep, y + i) for i in range(3))
    assert np.max(np.abs(brute)) > 2.9  # the surviving mode really violates it
    # while a non-multiple frequency cancels under the translate sum
    rep2 = FourierRep(3.0, 0.0, [1.0], [0.5])
    brute2 = sum(evaluate(rep2, y + i) for i in range(3))
    assert np.max(np.abs(brute2)) < 1e-12


def test_derivative_sup_bound_zero():
    sup, bound = derivative_sup_bound(FourierRep(2.0, 0.0, [0.0], [0.0]))
    assert sup == 0.0 and bound == 0.0


def test_derivative_sup_bound_sine():
    sup, bound = derivative_sup_bound(FourierRep(2.0, 0.0, [0.0], [1.0]))
    assert sup == pytest.approx(np.pi, rel=1e-6)
    expect = 2.0 * np.sqrt(np.pi**2 / 6.0) * np.sqrt(1.0 + np.pi**2 + np.pi**4)
    assert bound == pytest.approx(expect, rel=1e-14)
    assert sup <= bound


def test_derivative_sup_bound_random_property():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rep = FourierRep(2.0, 0.0, rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
        sup, bound = derivative_sup_bound(rep, n_points=512)
        assert sup <= bound


def test_sup_derivative_constant_is_computed():
    assert sup_derivative_constant() == pytest.approx(2.0 * np.sqrt(np.pi**2 / 6.0), rel=1e-15)
