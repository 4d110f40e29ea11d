import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from srbflow import spectral, verify
from srbflow.cli import main
from srbflow.entropy import gateaux_h
from srbflow.flow import riesz_system
from srbflow.spectral import (
    FourierRep,
    GridRep,
    InverseDerivative,
    TangentVector,
    differentiate,
    grid_points_for,
    project_constraint,
    to_grid,
    translate_sums,
)
from test_acceptance import derivative_sup_bound, sobolev_norm, sup_derivative_constant


def _one_shot_evaluate(rep, y):
    # the oracle of to_grid: the whole-array formula, one (points, modes)
    # angle table, at any points y
    y = np.asarray(y, dtype=float)
    k = np.arange(1, rep.n_modes + 1)
    ang = (2.0 * np.pi / rep.period) * np.multiply.outer(y, k)
    out = rep.mean + (np.cos(ang) @ rep.cos + np.sin(ang) @ rep.sin)
    return out if out.ndim else float(out)


def test_eval_constant():
    rep = FourierRep(2.0, 0.5, [], [])
    assert _one_shot_evaluate(rep, 0.3) == 0.5
    assert _one_shot_evaluate(rep, -7.1) == 0.5


def test_eval_cosine():
    rep = FourierRep(2.0, 0.5, [0.25], [0.0])
    assert _one_shot_evaluate(rep, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert _one_shot_evaluate(rep, 1.0) == pytest.approx(0.25, abs=1e-15)  # cos(pi) = -1


@pytest.mark.parametrize("period", [2.0, 3.0, 5.0])
def test_fft_to_grid_matches_one_shot_evaluate(monkeypatch, period):
    # grids just above the table cache (odd and even N) are summed by angle
    # addition up to K_SPLIT modes and by the inverse FFT above: a different
    # summation order, so equal within a few rounding errors of the
    # coefficients' total size (the worst seen over N up to 2^21 is 18 eps)
    table_max = 64
    monkeypatch.setattr(spectral, "GRID_TABLE_MAX", table_max)
    rng = np.random.default_rng(int(period))
    eps = np.finfo(float).eps
    for n_modes in range(spectral.K_SPLIT + 4):
        rep = FourierRep(period, 1.0 / period, 0.1 * rng.normal(size=n_modes),
                         0.1 * rng.normal(size=n_modes))
        scale = abs(rep.mean) + np.sum(np.abs(rep.cos) + np.abs(rep.sin))
        for size in (table_max + 1, table_max + 2, 3 * table_max + 5, 4 * table_max):
            want = _one_shot_evaluate(rep, np.arange(size) * (period / size))
            err = np.max(np.abs(to_grid(rep, size).samples - want))
            assert err <= 32 * eps * scale, (n_modes, size, err / (eps * scale))


@pytest.mark.parametrize("period", [2.0, 3.0, 5.0])
def test_to_grid_matches_evaluate_bitwise(period):
    # cached grids read tables built as the oracle builds them; K >= N/2
    # modes would alias, and are refused as on the larger grids
    rng = np.random.default_rng(10 + int(period))
    for n_modes in range(9):
        rep = FourierRep(period, 1.0 / period, 0.1 * rng.normal(size=n_modes),
                         0.1 * rng.normal(size=n_modes))
        for size in (4, 5, 64, 65):
            if 2 * n_modes >= size:
                with pytest.raises(ValueError, match=f"{n_modes} modes alias on a grid of {size} "):
                    to_grid(rep, size)
                continue
            want = _one_shot_evaluate(rep, np.arange(size) * (period / size))
            assert np.array_equal(to_grid(rep, size).samples, want), (n_modes, size)


def _from_samples(grid, n_modes):
    # the mean and the first n_modes cos/sin coefficients of uniform samples, by FFT
    N = grid.samples.size
    F = np.fft.rfft(grid.samples)
    return FourierRep(grid.period, F[0].real / N, 2.0 * F[1:n_modes + 1].real / N,
                      -2.0 * F[1:n_modes + 1].imag / N)


@pytest.mark.parametrize("size", [65, 66, 1001, 1002])
@pytest.mark.parametrize("n_modes", [0, 1, 8, spectral.K_SPLIT + 1])
def test_fft_grid_round_trips_through_to_fourier(monkeypatch, size, n_modes):
    monkeypatch.setattr(spectral, "GRID_TABLE_MAX", 64)
    rng = np.random.default_rng(size + n_modes)
    rep = FourierRep(3.0, 1.0 / 3.0, 0.1 * rng.normal(size=n_modes), 0.1 * rng.normal(size=n_modes))
    back = _from_samples(to_grid(rep, size), n_modes)
    assert back.mean == pytest.approx(rep.mean, abs=1e-15)
    assert back.n_modes == n_modes
    np.testing.assert_allclose(back.cos, rep.cos, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back.sin, rep.sin, rtol=0, atol=1e-15)


def test_fft_grid_rejects_aliasing_modes(monkeypatch):
    # K >= N/2 folds modes onto each other on either path: the size switch
    # does not decide whether an input is valid
    monkeypatch.setattr(spectral, "GRID_TABLE_MAX", 64)
    for size, n_modes in ((65, 33), (66, 33), (66, 40)):
        rep = FourierRep(3.0, 0.0, np.full(n_modes, 0.01), np.zeros(n_modes))
        with pytest.raises(ValueError, match=f"{n_modes} modes alias on a grid of {size} nodes"):
            to_grid(rep, size)
    to_grid(FourierRep(3.0, 0.0, np.full(32, 0.01), np.zeros(32)), 65)
    rep = FourierRep(3.0, 0.0, np.full(40, 0.01), np.zeros(40))
    with pytest.raises(ValueError, match="40 modes alias on a grid of 64 nodes"):
        to_grid(rep, 64)


@pytest.mark.parametrize("cmd", ["riesz", "entropy"])
def test_cli_rejects_aliasing_modes(capsys, cmd):
    # 2^15 + 2 nodes are above the table cache; 16385 modes are more than N/2
    coeffs = ",".join(["0.0001"] + ["0"] * (2 * 16385 - 1))
    argv = [cmd, "--n", "2", "--coeffs", coeffs, "--grid", str(2**15 + 2)]
    assert main(argv + (["--t-end", "0.2"] if cmd == "riesz" else [])) == 3
    assert "16385 modes alias on a grid of 32770 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("size", [1023, 1024, 40000, 40001])
def test_sampled_stack_rows_are_to_grid_bitwise(size):
    # a stack of coefficient rows (tables, angle addition and, above K_SPLIT
    # modes, the inverse FFT) gives each row's to_grid bits
    rng = np.random.default_rng(size)
    for n_modes in (5, spectral.K_SPLIT + 1):
        a, b = rng.uniform(-1.0, 1.0, (2, 2, 3, n_modes))
        stack = spectral._sample(3.0, size, 0.0, a, b)
        assert stack.shape == (2, 3, size)
        for i in np.ndindex(2, 3):
            want = to_grid(FourierRep(3.0, 0.0, a[i], b[i]), size).samples
            assert np.array_equal(stack[i], want), (n_modes, i)


def test_cli_rejects_aliasing_modes_on_a_cached_grid(capsys):
    # mode 5 on 8 nodes would be summed as mode 3
    argv = ["entropy", "--n", "2", "--coeffs", "0.1,0,0,0,0,0,0,0,0.05,0", "--grid", "8"]
    assert main(argv) == 3
    assert "5 modes alias on a grid of 8 nodes" in capsys.readouterr().err


def test_fft_grid_bytes_do_not_depend_on_blas_threads():
    # angle addition calls no BLAS, so 8-mode samples are the same on any
    # thread count (a BLAS matrix product changed their last bit)
    script = (
        "import hashlib, numpy as np\n"
        "from srbflow.spectral import FourierRep, to_grid\n"
        "rng = np.random.default_rng(8)\n"
        "for period, size in ((2.0, 98310), (5.0, 2097150)):\n"
        "    rep = FourierRep(period, 1 / period, 0.05 * rng.normal(size=8), 0.05 * rng.normal(size=8))\n"
        "    print(hashlib.sha256(to_grid(rep, size).samples.tobytes()).hexdigest())\n"
    )
    src = str(Path(spectral.__file__).parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(done.stdout)
    assert len(out[0].split()) == 2 and out[0] == out[1]


@pytest.mark.parametrize("size", [40001, 2097150])
@pytest.mark.parametrize("n_modes", [3, 8])
def test_large_grids_are_sampled_on_the_calling_thread(monkeypatch, size, n_modes):
    # angle addition starts no thread; each sample gets the same arithmetic
    # in row blocks of any size
    def no_thread(*args, **kwargs):
        raise AssertionError("to_grid started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    rng = np.random.default_rng(size + n_modes)
    rep = FourierRep(5.0, 0.2, 0.05 * rng.normal(size=n_modes), 0.05 * rng.normal(size=n_modes))
    samples = []
    for elements in (spectral.SAMPLE_ELEMENTS, 2**12, 2**20):
        monkeypatch.setattr(spectral, "SAMPLE_ELEMENTS", elements)
        samples.append(to_grid(rep, size).samples)
    assert all(np.array_equal(s, samples[0]) for s in samples[1:])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="no extended-precision long double for the oracle")
@pytest.mark.parametrize("size", [40001, 2097150, 2097151])
@pytest.mark.parametrize("n_modes", [1, 3, 8, spectral.K_SPLIT + 1])
def test_large_grid_accuracy_against_long_double(size, n_modes):
    # both large-grid paths (angle addition up to K_SPLIT modes, the inverse
    # FFT above) within 8 rounding errors of the coefficients' total size,
    # on random nodes; the oracle reduces k j mod N exactly before the angle
    rng = np.random.default_rng(size + n_modes)
    eps = np.finfo(float).eps
    for period in (2.0, 3.0, 5.0):
        rep = FourierRep(period, 1.0 / period, 0.1 * rng.normal(size=n_modes),
                         0.1 * rng.normal(size=n_modes))
        scale = abs(rep.mean) + np.sum(np.abs(rep.cos) + np.abs(rep.sin))
        j = rng.integers(0, size, 30000)
        turns = (np.multiply.outer(j, np.arange(1, n_modes + 1)) % size).astype(np.longdouble)
        ang = np.longdouble(2) * np.arccos(np.longdouble(-1)) * turns / size
        want = (np.longdouble(rep.mean) + np.cos(ang) @ rep.cos.astype(np.longdouble)
                + np.sin(ang) @ rep.sin.astype(np.longdouble))
        err = float(np.max(np.abs(to_grid(rep, size).samples[j] - want)))
        assert err <= 8 * eps * scale, (period, err / (eps * scale))


def test_grid_tables_read_only():
    for table in spectral._grid_tables(2.0, 16, 3):
        assert table.shape == (16, 3) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_large_grid_not_cached(monkeypatch):
    table_max = 64
    monkeypatch.setattr(spectral, "GRID_TABLE_MAX", table_max)
    rep = FourierRep(3.0, 0.0, [0.1, 0.2], [0.3, 0.0])
    before = spectral._grid_tables.cache_info()
    to_grid(rep, table_max + 1)
    assert spectral._grid_tables.cache_info() == before
    to_grid(rep, table_max)
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


def test_density_and_tangent_stay_distinct_types():
    # the two share their fields and checks, not their identity
    rep = FourierRep(2.0, 0.0, [0.1], [0.0])
    psi, h = TangentVector(rep, 2), InverseDerivative(rep, 2)
    assert psi != h and h != psi
    assert psi == TangentVector(rep, 2) and h == InverseDerivative(rep, 2)
    assert repr(psi).startswith("TangentVector(rep=FourierRep(")
    assert repr(h).startswith("InverseDerivative(rep=FourierRep(")


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


def test_grid_fourier_roundtrip():
    rng = np.random.default_rng(3)
    rep = FourierRep(2.0, 0.3, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
    grid = to_grid(rep, 64)
    back = _from_samples(grid, 10)
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


def _samples(f):
    return to_grid(f.rep, grid_points_for(f.degree)).samples


def constraint_residual(h):
    # max |sum_i h(y+i) - 1| on the default grid, by the Riesz flow's monitor
    return riesz_system(h.degree).constraint_residual(_samples(h))


def tangent_residual(psi):
    # max |sum_i psi(y+i)| on the default grid
    return np.max(np.abs(translate_sums(_samples(psi), psi.degree)))


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
    brute = sum(_one_shot_evaluate(rep, y + i) for i in range(3))
    assert np.max(np.abs(brute)) > 2.9  # the surviving mode really violates it
    # while a non-multiple frequency cancels under the translate sum
    rep2 = FourierRep(3.0, 0.0, [1.0], [0.5])
    brute2 = sum(_one_shot_evaluate(rep2, y + i) for i in range(3))
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


def test_fourier_rep_rejects_unequal_cos_and_sin():
    # a missing coefficient is not taken as zero
    with pytest.raises(ValueError, match="2 cos but 1 sin coefficients"):
        FourierRep(2.0, 0.5, [0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match="0 cos but 1 sin coefficients"):
        FourierRep(2.0, 0.5, sin=[0.3])


# NaN fails every comparison, so only a negated check rejects it; accepted, a NaN
# period samples to all-NaN and keys a grid-table entry that no later call can hit
BAD_PERIODS = [0.0, -2.0, float("nan"), float("inf")]


@pytest.mark.parametrize("period", BAD_PERIODS)
def test_fourier_rep_rejects_a_period_that_is_not_positive_and_finite(period):
    with pytest.raises(ValueError, match="period must be positive and finite"):
        FourierRep(period, 0.5, [0.1], [0.0])


@pytest.mark.parametrize("period", BAD_PERIODS)
def test_grid_rep_rejects_a_period_that_is_not_positive_and_finite(period):
    with pytest.raises(ValueError, match="period must be positive and finite"):
        GridRep(period, np.full(8, 0.5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_grid_rep_rejects_non_finite_samples(bad):
    samples = np.full(8, 0.5)
    samples[3] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        GridRep(2.0, samples)


def test_gateaux_h_rejects_a_nan_tangent_on_a_grid():
    # a NaN grid tangent used to give a NaN derivative
    h = InverseDerivative(FourierRep(2.0, 0.5, [0.1], [0.0]), 2)
    with pytest.raises(ValueError, match="samples must be finite"):
        gateaux_h(h, TangentVector(GridRep(2.0, np.full(1024, np.nan)), 2))


def test_public_api():
    # the package exports the library and no test-only helper
    import srbflow
    assert srbflow.__all__ == [
        "CheckReport", "DomainError", "FlowConfig", "FlowSystem", "FourierRep",
        "GridRep", "InverseDerivative", "StepError", "TangentVector", "Trajectory",
        "c_squared", "density_entropy", "differentiate", "even_galerkin_system",
        "galerkin_system_n2", "gateaux_g", "gateaux_h", "heat_reference", "integrate",
        "odd_mode_density", "project_constraint", "riesz_gradient", "riesz_system",
        "run_all", "simplex_rhs", "to_grid",
    ]
    assert all(getattr(srbflow, name) is not None for name in srbflow.__all__)
