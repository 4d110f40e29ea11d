import json

import numpy as np
import pytest

from srbflow.cli import main
from srbflow.spectral import (FourierRep, InverseDerivative, constraint_residual,
                              grid_points_for, project_constraint)


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


def test_galerkin_general_coeffs(tmp_path):
    out = tmp_path / "run.csv"
    code = run(["galerkin", "--n", "2", "--coeffs", "0,0.02,0,0", "--dt", "0.1",
                "--t-end", "1", "--out", str(out)])
    assert code == 0
    header, _ = read_csv(out)
    assert header[:5] == ["t", "a1", "a3", "b1", "b3"]


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
    h = InverseDerivative(FourierRep(2.0, 0.5, p.cos, p.sin), 2)
    # this density's residual differs between the 40- and 1024-point grids
    expected = f"{constraint_residual(h, grid_points_for(2, 40)):.3e}"
    assert expected != f"{constraint_residual(h):.3e}"
    assert f"constraint residual = {expected}\n" in capsys.readouterr().out


def test_verify_subcommand(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "42", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert all(r["passed"] for r in reports)
    assert {"name", "max_abs_error", "tolerance", "passed", "samples"} <= set(reports[0])


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


def test_simplex_ignores_grid(tmp_path):
    # the simplex flow has no quadrature grid, so --grid cannot invalidate it
    assert run(["simplex", "--n", "5", "--grid", "16", "--x", "0.1,0.15,0.2,0.25,0.3",
                "--t-end", "0.2", "--out", str(tmp_path / "s.csv")]) == 0


def test_runtime_error_exit_code(tmp_path):
    # valid initial state that leaves the domain guard region immediately
    code = run(["galerkin", "--B", "0.6,0,0", "--t-end", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == 4


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dt = 0.5\nt-end = 2\nmethod = rk4\n")
    out = tmp_path / "c.csv"
    assert run(["simplex", "--n", "2", "--x", "0.3,0.7", "--config", str(cfg),
                "--dt", "0.25", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data[1, 0] == 0.25  # flag wins over the file
    assert data[-1, 0] == 2.0  # file supplies t_end


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SRBFLOW_OUTDIR", str(tmp_path))
    assert run(["simplex", "--n", "2", "--x", "0.4,0.6", "--t-end", "1",
                "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()
