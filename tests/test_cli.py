import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from srbflow import cli, flow
from srbflow.cli import main
from srbflow.entropy import _odd_kernel
from srbflow.flow import FlowConfig, integrate, riesz_system
from srbflow.spectral import FourierRep, grid_points_for, project_constraint, to_grid

GAL = "0.01,0.02,0.003,-0.004,0.001,0.002"


def run(args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_galerkin_csv_columns(tmp_path):
    out = tmp_path / "run.csv"
    code = run(["galerkin", "--n", "2", "--modes", "3", "--B", "0.25,0,0",
                "--dt", "0.1", "--t-end", "2", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["t", "B1", "B2", "B3", "entropy", "grad_norm"]
    assert data[0, 1] == 0.25
    assert np.all(np.diff(data[:, 1]) < 0)  # B1 decays


def test_galerkin_single_step_at_the_default_dt(tmp_path):
    # --t-end equal to the default --dt 0.1 is one Euler step
    out = tmp_path / "run.csv"
    assert run(["galerkin", "--B", "0.25,0,0", "--t-end", "0.1", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data[:, 0].tolist() == [0.0, 0.1]
    assert data[0, 1] == 0.25 and data[1, 1] < 0.25


def test_galerkin_general_coeffs(tmp_path):
    out = tmp_path / "run.csv"
    code = run(["galerkin", "--n", "2", "--coeffs", "0,0.02,0,0", "--dt", "0.1",
                "--t-end", "1", "--out", str(out)])
    assert code == 0
    header, _ = read_csv(out)
    assert header[:5] == ["t", "a1", "a3", "b1", "b3"]


def test_modes_must_match_initial_condition(capsys):
    # an explicit --modes is checked against --coeffs pairs as against --B
    assert run(["galerkin", "--coeffs", "0.01,0.02", "--modes", "5", "--t-end", "0.2"]) == 3
    assert "--coeffs must hold --modes a,b pairs" in capsys.readouterr().err
    assert run(["pde", "--coeffs", "0.01,0.02", "--modes", "2", "--dt", "0.002",
                "--t-end", "0.004"]) == 3
    assert run(["galerkin", "--coeffs", "0.01,0.02", "--modes", "1", "--t-end", "0.2"]) == 0
    # without --modes, --B still expects its default length of 3
    assert run(["galerkin", "--B", "0.1,0.2", "--t-end", "0.2"]) == 3
    assert run(["galerkin", "--B", "0.1,0.2", "--modes", "2", "--t-end", "0.2"]) == 0


def test_simplex_equilibrium_constant(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["simplex", "--n", "2", "--x", "0.5,0.5", "--t-end", "1",
                "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert np.all(data[:, 1] == 0.5) and np.all(data[:, 2] == 0.5)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simplex", "--n", "3", "--x", "0.2,0.3,0.5", "--t-end", "2",
            "--dt", "0.05", "--method", "rk4"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_json_format(tmp_path):
    out = tmp_path / "run.json"
    run(["galerkin", "--B", "0.1,0,0", "--t-end", "1", "--format", "json",
         "--out", str(out)])
    payload = json.loads(out.read_text())
    assert set(payload) == {"t", "B1", "B2", "B3", "entropy", "grad_norm"}


def test_riesz_run(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["riesz", "--n", "2", "--coeffs", "0.25,0", "--t-end", "1",
                "--method", "rk4", "--dt", "0.1", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header[0] == "t" and "constraint_residual" in header
    assert np.max(data[:, header.index("constraint_residual")]) <= 1e-9


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_riesz_writes_the_table_of_the_trajectory(tmp_path, workers, fmt):
    # riesz reduces each record as it comes; its table is integrate's monitors
    # and the extrema of its stacked states, byte for byte, on 2 blocks over 2 cores
    workers(2)
    coeffs = "0.1,0.05,0.02,-0.03"
    out = tmp_path / f"r.{fmt}"
    assert run(["riesz", "--n", "2", "--coeffs", coeffs, "--grid", "70000", "--t-end", "0.6",
                "--method", "rk4", "--format", fmt, "--out", str(out)]) == 0
    samples = cli._initial_samples(argparse.Namespace(n=2, grid=70000, coeffs=coeffs))
    assert samples.size > flow.BLOCK_ELEMENTS
    traj = integrate(riesz_system(2), samples, FlowConfig(t_end=0.6, method="rk4"))
    assert len(traj.times) == 7
    want = tmp_path / f"want.{fmt}"
    cli._write_table(str(want), ["t", "entropy", "grad_norm", "constraint_residual",
                                 "h_min", "h_max"],
                     np.column_stack([traj.times, traj.entropy, traj.grad_norm,
                                      traj.constraint_residual, traj.states.min(axis=1),
                                      traj.states.max(axis=1)]), fmt)
    assert out.read_bytes() == want.read_bytes()


PEAK_RSS = """
import contextlib, io, resource, sys
from srbflow.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_riesz_peak_memory_does_not_grow_with_the_record_count(tmp_path):
    # 65536 nodes of degree 2: a 0.5 MiB state.  A kept stack of records would
    # raise the peak by 190 states (95 MiB) from 11 to 201 records; what riesz
    # does keep per record, a table row and its text line, is under 1 KiB.  The
    # margin, 4 states (2 MiB), leaves room for the allocator's page granularity
    pytest.importorskip("resource")
    state_kib = 65536 * 8 / 1024
    kib = 1 / 1024 if sys.platform == "darwin" else 1  # ru_maxrss is bytes there
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    peaks = []
    for t_end in ("1", "20"):
        argv = ["riesz", "--n", "2", "--coeffs", "0.1,0.05", "--grid", "65536",
                "--t-end", t_end, "--out", str(tmp_path / "r.csv")]
        done = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        code, peak = done.stdout.split()
        assert code == "0"
        peaks.append(float(peak) * kib)
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 202
    assert abs(peaks[1] - peaks[0]) < 4 * state_kib, peaks


def test_riesz_peaks_at_three_grid_states(workers, tmp_path):
    # riesz_grid's shape on 2^20 - 1 nodes, an 8 MiB state.  Past the start, a
    # riesz run holds three: the stepped x, its rhs r, and one monitor
    # temporary (s ln s for the entropy, then r^2 for grad_norm).  A reference
    # kept to the sampled start would add a fourth.  Between records each pool
    # thread steps one BLOCK_ELEMENTS block at a time, its temporaries a few
    # blocks; the slack, one block of floats per core (2 x 512 KiB, 1/8 state
    # on the 2-thread pool patched here), holds what the run keeps besides its
    # states: the parser, the grid caches and the table rows (0.03 states measured)
    workers(2)
    state = grid_points_for(5, 1048576) * 8
    slack = 2 * flow.BLOCK_ELEMENTS * 8
    argv = ["riesz", "--n", "5", "--coeffs=0.04,-0.02,0.03,0.01,-0.02,0.015", "--grid", "1048576",
            "--method", "rk4", "--dt", "0.02", "--t-end", "0.2", "--record-every", "10",
            "--out", str(tmp_path / "r.csv")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 3
    assert peak <= 3 * state + slack, peak / state


@pytest.mark.parametrize("cores", [1, 2])
def test_riesz_peaks_at_two_grid_states(workers, tmp_path, cores):
    # riesz_grid's own shape, 2^21 - 2 nodes, a 16 MiB state.  The monitors of a
    # record reduce in leaves of MONITOR_ELEMENTS values, so past the start a run
    # holds two grid states, x and r, plus the RK4 temporaries of the block each
    # pool thread steps: k2, k3, the stage input, its logs and k4 (5 blocks), the
    # n-fold sums (2/n of a block) and the finite mask (1/8 of one), under 6 blocks
    # per thread.  One more block holds the rest: the parser, the grid caches and
    # the table rows.  Measured: 2.18 states on 1 core, 2.34 on 2; a state-sized
    # monitor temporary would make it 3
    workers(cores)
    state = grid_points_for(5, 2097152) * 8
    slack = (6 * cores + 1) * flow.BLOCK_ELEMENTS * 8
    argv = ["riesz", "--n", "5", "--coeffs=0.04,-0.02,0.03,0.01,-0.02,0.015", "--grid", "2097152",
            "--method", "rk4", "--dt", "0.02", "--t-end", "0.2", "--record-every", "10",
            "--out", str(tmp_path / "r.csv")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 3
    assert peak <= 2 * state + slack, peak / state


def test_pde_run(tmp_path):
    out = tmp_path / "p.csv"
    # the undamped mode equations are stiff: small rk4 steps needed
    assert run(["pde", "--B", "0.01,0,0", "--t-end", "0.2", "--dt", "0.001",
                "--method", "rk4", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert np.all(np.diff(data[:, 1]) < 0)


def test_entropy_subcommand(capsys):
    assert run(["entropy", "--n", "2", "--coeffs", "0.25,0"]) == 0
    out = capsys.readouterr().out
    assert "entropy = 0.62850904" in out


def test_entropy_residual_on_requested_grid(capsys):
    coeffs = [0.04205932124840204, -0.009385825581446683, 0.033995003037978956,
              0.04973391350188549, -0.05225686153686261, 0.04596105409475878,
              -0.013938401738071447, -0.0026696192605940045]
    assert run(["entropy", "--n", "2", "--grid", "40",
                "--coeffs=" + ",".join(map(repr, coeffs))]) == 0
    p = project_constraint(FourierRep(2.0, 0.5, coeffs[0::2], coeffs[1::2]), 2)
    h = FourierRep(2.0, 0.5, p.cos, p.sin)

    def constraint_residual(n_points):
        return riesz_system(2).constraint_residual(to_grid(h, grid_points_for(2, n_points)).samples)

    # this density's residual differs between the 40- and 1024-point grids
    expected = f"{constraint_residual(40):.3e}"
    assert expected != f"{constraint_residual(1024):.3e}"
    assert f"constraint residual = {expected}\n" in capsys.readouterr().out


def test_verify_subcommand(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "42", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert all(r["passed"] for r in reports)
    assert {"name", "max_abs_error", "tolerance", "passed", "samples"} <= set(reports[0])


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    # refused before any check runs, naming the flag, and no report is written
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "-1", "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == "validation error: --seed must be at least 0\n"
    assert not out.exists()


def test_figure_fig1(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run(["figure", "--which", "fig1", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["tau", "t0", "t10", "t20"]
    tau = data[:, 0]
    np.testing.assert_allclose(data[:, 1], 0.25 * np.cos(tau), atol=1e-14)
    # later snapshots are dominated by mode 1
    for col in (2, 3):
        dev = data[:, col]
        m1 = np.abs(np.trapezoid(dev * np.cos(tau), tau) / np.pi)
        m3 = np.abs(np.trapezoid(dev * np.cos(3 * tau), tau) / np.pi)
        assert m3 < 5e-2 * m1


def test_figure_reads_density_from_the_cached_tables(tmp_path):
    # --tau-points is the table's N: the t0 column is 1/2 + cos(tau k) B0 - 1/2
    # on a freshly built cos table, bit for bit
    out = tmp_path / "fig1.csv"
    assert run(["figure", "--which", "fig1", "--tau-points", "100", "--out", str(out)]) == 0
    _, data = read_csv(out)
    tau = np.arange(100) * (2.0 * np.pi / 100)
    fresh = 0.5 + np.cos(np.outer(tau, [1, 3, 5])) @ np.array([0.25, 0.0, 0.0]) - 0.5
    assert np.array_equal(data[:, 0], tau)
    assert np.array_equal(data[:, 1], fresh)


def test_figure_fig2(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run(["figure", "--which", "fig2", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["tau", "deviation_x1000", "cosine_x1000", "heat_x1000"]
    tau = data[:, 0]
    cosine = data[:, 2]
    amplitude = cosine[0]
    np.testing.assert_allclose(cosine, amplitude * np.cos(tau), atol=1e-12)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["galerkin", "--bogus-flag", "1"])
    assert exc.value.code == 2


def test_validation_error_exit_code(capsys):
    assert run(["simplex", "--n", "2", "--x", "0.3,0.4", "--t-end", "1"]) == 3
    assert run(["galerkin", "--t-end", "1"]) == 3
    assert run(["galerkin", "--B", "0.1,0,0", "--grid", "8", "--t-end", "1"]) == 3
    # initial states that the domain guard of the first monitor rejects
    assert run(["simplex", "--n", "2", "--x", "1e-10,0.9999999999", "--t-end", "1"]) == 3
    assert run(["riesz", "--n", "2", "--coeffs", "0.4999999999999,0", "--t-end", "1"]) == 3
    assert run(["galerkin", "--B", "0.6,0,0", "--t-end", "1"]) == 3
    assert run(["galerkin", "--coeffs", "0,0.2,0,0", "--t-end", "1"]) == 3
    # NaN starts, a step count that is not finite, and sizes that divide by 0
    assert run(["simplex", "--n", "2", "--x", "nan,nan", "--t-end", "1"]) == 3
    assert run(["galerkin", "--B", "nan,0,0", "--t-end", "1"]) == 3
    assert run(["galerkin", "--coeffs", "nan,0", "--t-end", "1"]) == 3
    assert run(["simplex", "--n", "2", "--x", "0.5,0.5", "--t-end", "inf"]) == 3
    assert run(["simplex", "--n", "2", "--x", "0.5,0.5", "--t-end", "1e300", "--dt", "1e-300"]) == 3
    assert run(["entropy", "--n", "0", "--coeffs", "0.1,0"]) == 3
    # a degree below 2 is named before the state is read
    capsys.readouterr()
    assert run(["simplex", "--n", "1", "--x", "1", "--t-end", "1"]) == 3
    assert "--n must be at least 2" in capsys.readouterr().err
    assert run(["figure", "--which", "fig1", "--tau-points", "0"]) == 3
    # an input density outside (0, 1), with nothing integrated
    assert run(["entropy", "--n", "2", "--coeffs", "0.6,0"]) == 3
    # t_end / dt that is not a whole number of steps (would stop at 0.8 / 0.9)
    assert run(["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "1", "--dt", "0.4"]) == 3
    assert run(["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "1", "--dt", "0.3"]) == 3
    # a non-positive grid (would silently run on 4 * n nodes)
    assert run(["riesz", "--n", "2", "--coeffs", "0.1,0", "--grid", "0", "--t-end", "1"]) == 3
    assert run(["riesz", "--n", "2", "--coeffs", "0.1,0", "--grid", "-4", "--t-end", "1"]) == 3
    assert run(["entropy", "--n", "2", "--coeffs", "0.1,0", "--grid", "0"]) == 3
    # a figure grid below 4 * its 3 modes (0 divided by zero, 2 gave a flat figure)
    for grid in ("0", "-4", "2"):
        assert run(["figure", "--which", "fig1", "--grid", grid]) == 3
    # no modes: --modes 0 was ignored, and an empty list ran a zero-mode flow
    assert run(["galerkin", "--B", "0.25,0,0", "--modes", "0"]) == 3
    assert run(["galerkin", "--coeffs=", "--t-end", "0.2"]) == 3
    assert run(["pde", "--B=", "--modes", "0", "--t-end", "0.2"]) == 3
    # two initial conditions: --coeffs was silently ignored
    assert run(["galerkin", "--B", "0.1,0,0", "--coeffs", "0.01,0.02", "--t-end", "0.2"]) == 3
    assert run(["pde", "--B", "0.1,0,0", "--coeffs", "0.01,0.02", "--dt", "0.002",
                "--t-end", "0.004"]) == 3


@pytest.mark.parametrize("cmd", ["galerkin", "pde"])
@pytest.mark.parametrize("start", [["--B", "0.25,0,0"], ["--coeffs", "0.01,0.02,0.003,-0.004"]])
def test_bad_grid_prints_nothing(capsys, cmd, start):
    # the grid is checked before the h range is printed
    assert run([cmd, *start, "--grid", "4", "--t-end", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "--grid must be at least 4 * the number of modes" in err


@pytest.mark.parametrize("argv", [
    ["riesz", "--n", "2", "--coeffs", "0.1,0", "--t-end", "1", "--record-every", "0"],
    ["galerkin", "--B", "0.25,0,0", "--dt", "0.3", "--t-end", "1"],
    ["pde", "--B", "0.25,0,0", "--dt", "0", "--t-end", "1"],
])
def test_bad_flow_flags_print_nothing(capsys, argv):
    # the step flags are checked before the grid is sampled or the h range printed
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("validation error: ")


def test_galerkin_h_range_on_the_kernel_nodes(capsys, tmp_path):
    # the range is that of odd_mode_density on the run's own nodes tau_j = 2 pi j / N,
    # N = --grid, for --B and --coeffs alike
    out = str(tmp_path / "g.csv")
    assert run(["galerkin", "--B", "0.25,0,0", "--t-end", "0.2", "--out", out]) == 0
    assert capsys.readouterr().out == "h range: [0.25, 0.75] (must stay inside (0, 1))\n"
    assert run(["galerkin", "--B", "0.6,0,0", "--t-end", "1"]) == 3
    assert capsys.readouterr().out.startswith("h range: [-0.1, 1.1] ")
    assert run(["galerkin", "--coeffs", GAL, "--t-end", "0.2", "--out", out]) == 0
    assert capsys.readouterr().out.startswith("h range: [0.399153, 0.600847] ")


@pytest.mark.parametrize("argv", [
    ["galerkin", "--B", "0.25,0,0", "--t-end", "0.2"],
    ["galerkin", "--coeffs", GAL, "--t-end", "0.2"],
    ["pde", "--B", "0.25,0,0", "--dt", "0.002", "--t-end", "0.004"],
    ["pde", "--coeffs", GAL, "--dt", "0.002", "--t-end", "0.004"],
], ids=["B", "coeffs", "pde-B", "pde-coeffs"])
def test_h2_run_builds_one_kernel(tmp_path, argv):
    # the printed h range reads the system's own kernel entry, whose tables
    # serve the H^2 flow and the diffusion modes alike
    _odd_kernel.cache_clear()
    assert run([*argv, "--out", str(tmp_path / "g.csv")]) == 0
    assert _odd_kernel.cache_info().misses == 1


def test_csv_rows_match_the_per_value_format(tmp_path):
    # one % per row over Python floats writes the bytes of formatting each value alone
    rows = np.array([[np.inf, -np.inf, np.nan, -0.0, 0.0],
                     [5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-20, 1e3],
                     [1.0 / 3.0, -0.1, 123456.789, 1e16 + 2.0, -1.7976931348623157e308]])
    path = tmp_path / "t.csv"
    for table in (rows, rows[0]):
        cli._write_table(str(path), list("abcde"), table, "csv")
        want = ["a,b,c,d,e"] + [",".join(cli.FLOAT_FMT % v for v in row)
                                for row in np.atleast_2d(table)]
        assert path.read_text() == "\n".join(want) + "\n"


def test_json_columns_match_the_per_value_format(tmp_path):
    # json.dumps writes each float's shortest repr, which reads back as the
    # double %.17g gives; inf, -inf and nan become Infinity, -Infinity and NaN
    rows = np.array([[np.inf, -np.inf, np.nan, -0.0],
                     [5e-324, 1.0 / 3.0, 1e16 + 2.0, -1.7976931348623157e308]])
    path = tmp_path / "t.json"
    for table in (rows, rows[0]):
        cli._write_table(str(path), list("abcd"), table, "json")
        want = {name: [float(cli.FLOAT_FMT % v) for v in col]
                for name, col in zip("abcd", np.atleast_2d(table).T)}
        assert path.read_text() == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simplex_refuses_grid(tmp_path, capsys, source):
    # the simplex flow has no grid: --grid is a usage error, a grid config key unknown
    argv = ["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "0.2"]
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--grid", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 7" in capsys.readouterr().err
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 5\n")
        assert run(argv + ["--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "validation error: unknown config key: grid\n"


def test_runtime_error_exit_code(tmp_path, capsys):
    # valid initial state; explicit Euler at dt = 0.1 is unstable for the
    # diffusion modes and leaves the domain at step 2
    code = run(["pde", "--B", "0.25,0,0", "--dt", "0.1", "--t-end", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err.endswith(" at step 2 (t = 0.2)\n")


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dt = 0.5\nt-end = 2\nmethod = rk4\n")
    out = tmp_path / "c.csv"
    assert run(["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg),
                "--dt", "0.25", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data[1, 0] == 0.25  # flag wins over the file
    assert data[-1, 0] == 2.0  # file supplies t_end
    assert run(["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg),
                "--dt=0.25", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data[1, 0] == 0.25  # the --flag=value form wins too
    # file values meet the flags' types and choices
    cfg.write_text("t-end = 1\nformat = xml\n")
    with pytest.raises(SystemExit) as exc:  # as `--format xml` on the line
        run(["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    cfg.write_text("t-end = 1\nbogus = 3\n")
    assert run(["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg)]) == 3
    assert "unknown config key: bogus" in capsys.readouterr().err
    # the parser's own attributes are no flags either, and a config file
    # cannot name another one
    for key in ("func", "command", "config"):
        cfg.write_text(f"t-end = 1\n{key} = /nonexistent\n")
        assert run(["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg)]) == 3
        assert f"unknown config key: {key}\n" in capsys.readouterr().err


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SRBFLOW_OUTDIR", str(tmp_path))
    assert run(["simplex", "--n", "2", "--x", "0.4,0.6", "--t-end", "1",
                "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


def _outcome(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = f"SystemExit {e.code}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_matches_a_fresh_parser(tmp_path, capsys, monkeypatch):
    # main reuses one parser; a run of subcommands, a --config run and a usage
    # error in one process give what a parser built for each call gives
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dt = 0.5\nt-end = 2\nmethod = rk4\n")
    argvs = [
        ["entropy", "--n", "3", "--coeffs", "0.1,0.05"],
        ["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg), "--dt", "0.25"],
        ["galerkin", "--bogus-flag", "1"],
        ["galerkin", "--B", "0.1,0,0", "--t-end", "0.3"],
        ["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "0.3", "--format", "json"],
        ["figure", "--which", "fig1", "--tau-points", "4"],
        ["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg), "--format", "xml"],
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = [_outcome(argv, capsys) for argv in argvs]
    assert cached[2][0] == cached[-1][0] == "SystemExit 2"
    for argv in argvs[:2] + argvs[3:-1]:
        assert vars(cli.build_parser().parse_args(argv)) == \
            vars(cli.build_parser.__wrapped__().parse_args(argv))
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_outcome(argv, capsys) for argv in argvs] == cached


RUNTIME_IMPORTS = """
import sys
import numpy, numpy.random
before = set(sys.modules)
import contextlib, io
from srbflow.cli import main
from srbflow.entropy import _odd_kernel
argvs = [a.split() for a in sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(a) for a in argvs]
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(codes, sorted(loaded - set(sys.stdlib_module_names) - {"srbflow", "numpy"}))
"""


@pytest.mark.parametrize("argv", [
    "galerkin --coeffs=inf,0 --t-end 1",
    "simplex --n 2 --x=inf,-inf --t-end 1",
    "simplex --n 3 --x=0.2,nan,0.8",
    "pde --B=nan,0,0 --t-end 1",
    "riesz --n 2 --coeffs=0.1,inf --t-end 1",
], ids=lambda argv: argv.split()[0])
def test_non_finite_numbers_are_refused_before_any_arithmetic(argv):
    # no numpy warning reaches stderr: the list is refused as it is parsed
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "srbflow.cli", *argv.split()], env=env,
                          capture_output=True, text=True, timeout=300)
    text = next(a for a in argv.split() if "=" in a).split("=", 1)[1]
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"validation error: bad number list {text!r}: numbers must be finite\n"


@pytest.mark.parametrize("argv,stdout,stderr", [
    ("pde --B=1e308,1e308,0 --t-end 1", "h range: [-inf, inf] (must stay inside (0, 1))\n",
     "initial state: density leaves (0, 1): min=-inf, max=inf"),
    ("galerkin --coeffs=1e308,1e308 --t-end 1", "h range: [nan, nan] (must stay inside (0, 1))\n",
     "initial state: density leaves (0, 1): min=nan, max=nan"),
    ("simplex --n 2 --x=1e308,1e308 --t-end 1", "", "--x must sum to 1"),
], ids=["pde", "galerkin", "simplex"])
def test_an_overflowing_start_is_refused_without_numpy_warnings(argv, stdout, stderr):
    # finite numbers whose start arithmetic overflows: the h range, then one error line
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "srbflow.cli", *argv.split()], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (3, stdout, f"validation error: {stderr}\n")


def test_numpy_is_the_only_runtime_dependency():
    # numpy is imported first: it loads its own Cython runtime modules, and the
    # interpreter may load site hooks at startup; every module loaded after it
    # must be the standard library's, srbflow's or numpy's own (numpy.fft is
    # loaded on first use)
    argvs = [
        "simplex --n 3 --x 0.2,0.3,0.5 --t-end 0.2",
        "galerkin --B 0.25,0,0 --t-end 0.2",
        "pde --B 0.01,0,0 --dt 0.001 --t-end 0.002",
        # 2^17 nodes: sampled in row blocks, stepped in fiber blocks on all cores
        f"riesz --n 2 --coeffs 0.1,0 --grid {2**17} --t-end 0.2",
        "entropy --n 3 --coeffs 0.1,0.05",
        # 9 modes on 2^16 nodes: sampled by the inverse real FFT
        "entropy --n 2 --coeffs " + ",".join(["0.01,0"] * 9) + f" --grid {2**16}",
        "verify --seed 1",
        "figure --which fig1 --tau-points 8",
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", RUNTIME_IMPORTS, *argvs], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    assert done.stdout == f"{[0] * len(argvs)} []\n"

