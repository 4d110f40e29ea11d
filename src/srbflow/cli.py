"""Command-line front end: run flows, emit trajectory/figure CSV data, and
drive the verification suite.

Exit codes: 0 success, 2 usage, 3 validation, 4 runtime (flow left the
valid domain), 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import flow as fl
from . import verify as vf
from .entropy import (
    GalerkinState,
    density_samples,
    entropy as density_entropy,
    even_density,
    flow_density,
)
from .errors import DomainError, StepError
from .spectral import FourierRep, GridRep, InverseDerivative, constraint_residual, \
    grid_points_for, project_constraint, to_grid

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME, EXIT_IO = 0, 2, 3, 4, 5
FLOAT_FMT = "%.17g"
OUTDIR_ENV = "SRBFLOW_OUTDIR"


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as e:
        raise ValueError(f"bad number list {text!r}: {e}") from None


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write_table(path: str | None, header: list[str], rows: np.ndarray, fmt: str):
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(FLOAT_FMT % v for v in row))
    text = "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {name: [float(FLOAT_FMT % v) for v in np.atleast_2d(rows)[:, i]]
                   for i, name in enumerate(header)}
        text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _trajectory_table(traj: fl.Trajectory, state_names: list[str],
                      with_residual: bool) -> tuple[list[str], np.ndarray]:
    cols = [traj.times] + [traj.states[:, i] for i in range(len(state_names))]
    header = ["t"] + state_names + ["entropy", "grad_norm"]
    cols += [traj.entropy, traj.grad_norm]
    if with_residual:
        header.append("constraint_residual")
        cols.append(traj.constraint_residual)
    return header, np.column_stack(cols)


def _flow_config(args) -> fl.FlowConfig:
    return fl.FlowConfig(t_end=args.t_end, dt=args.dt, method=args.method,
                         record_every=args.record_every)


def _coeff_rep(n: int, coeffs: np.ndarray) -> FourierRep:
    """Alternating a1,b1,a2,b2,... coefficients around the mean 1/n."""
    if coeffs.size % 2:
        raise ValueError("--coeffs needs an even-length a,b,... list")
    return FourierRep(float(n), 1.0 / n, coeffs[0::2], coeffs[1::2])


def _print_extrema(samples: np.ndarray):
    print(f"h range: [{samples.min():.6g}, {samples.max():.6g}] "
          f"(must stay inside (0, 1))")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simplex(args) -> int:
    x0 = _parse_floats(args.x)
    if x0.size != args.n:
        raise ValueError(f"--x needs {args.n} components")
    if abs(x0.sum() - 1.0) > 1e-9 or np.any(x0 <= 0) or np.any(x0 >= 1):
        raise ValueError("--x must be an interior point of the simplex")
    traj = fl.integrate(fl.riesz_system(args.n), x0, _flow_config(args))
    names = [f"x{k+1}" for k in range(args.n)]
    header, rows = _trajectory_table(traj, names, with_residual=True)
    _write_table(_resolve_out(args.out), header, rows, args.format)
    return EXIT_OK


def _galerkin_like(args, use_pde: bool) -> int:
    if args.n != 2:
        raise ValueError("the Sobolev-metric Galerkin flow is degree-2 only")
    if args.B is not None:
        x0 = _parse_floats(args.B)
        if args.modes and x0.size != args.modes:
            raise ValueError("--B length must equal --modes")
        _print_extrema(even_density(x0, np.linspace(0, 2 * np.pi, 512)))
        system = fl.even_galerkin_system(args.grid, use_pde=use_pde)
        n_modes = x0.size
        names = [f"B{k+1}" for k in range(n_modes)]
    elif args.coeffs is not None:
        c = _parse_floats(args.coeffs)
        if c.size % 2:
            raise ValueError("--coeffs needs alternating a,b pairs for the odd modes")
        state = GalerkinState(c[0::2], c[1::2])
        _print_extrema(flow_density(state, 512))
        system = fl.galerkin_system_n2(args.grid, use_pde=use_pde)
        x0 = np.concatenate([state.a, state.b])
        n_modes = state.n_modes
        names = [f"a{2*k+1}" for k in range(n_modes)] + \
                [f"b{2*k+1}" for k in range(n_modes)]
    else:
        raise ValueError("provide an initial condition via --B or --coeffs")
    if args.grid < 4 * max(n_modes, 1):
        raise ValueError("--grid must be at least 4 * the number of modes")
    traj = fl.integrate(system, x0, _flow_config(args))
    header, rows = _trajectory_table(traj, names, with_residual=False)
    _write_table(_resolve_out(args.out), header, rows, args.format)
    return EXIT_OK


def cmd_galerkin(args) -> int:
    return _galerkin_like(args, use_pde=False)


def cmd_pde(args) -> int:
    return _galerkin_like(args, use_pde=True)


def _initial_density(args) -> InverseDerivative:
    rep = _coeff_rep(args.n, _parse_floats(args.coeffs))
    projected = project_constraint(rep, args.n)
    rep = FourierRep(rep.period, 1.0 / args.n, projected.cos, projected.sin)
    return InverseDerivative(rep, args.n)


def cmd_riesz(args) -> int:
    h0 = _initial_density(args)
    n_pts = grid_points_for(args.n, args.grid)
    samples = to_grid(h0.rep, n_pts).samples
    _print_extrema(samples)
    if samples.min() <= 0.0 or samples.max() >= 1.0:
        raise ValueError("initial density leaves (0, 1)")
    traj = fl.integrate(fl.riesz_system(args.n), samples, _flow_config(args))
    # grid states are large; emit the monitors plus the density extrema
    hmin = traj.states.min(axis=1)
    hmax = traj.states.max(axis=1)
    rows = np.column_stack([traj.times, traj.entropy, traj.grad_norm,
                            traj.constraint_residual, hmin, hmax])
    _write_table(_resolve_out(args.out),
                 ["t", "entropy", "grad_norm", "constraint_residual", "h_min", "h_max"],
                 rows, args.format)
    return EXIT_OK


def cmd_entropy(args) -> int:
    h = _initial_density(args)
    h = InverseDerivative(GridRep(float(args.n), density_samples(h, args.grid)), args.n)
    value = density_entropy(h)
    _print_extrema(h.rep.samples)
    print(f"entropy = {FLOAT_FMT % value} (max ln n = {FLOAT_FMT % np.log(args.n)})")
    print(f"constraint residual = {constraint_residual(h):.3e}")
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = vf.run_all(args.seed)
    text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_abs_error={r.max_abs_error:.3e} "
              f"tol={r.tolerance:.1e}", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else 1


def cmd_figure(args) -> int:
    B0 = np.array([0.25, 0.0, 0.0])
    tau = np.arange(args.tau_points) * (2.0 * np.pi / args.tau_points)
    system = fl.even_galerkin_system(args.grid)
    if args.which == "fig1":
        cfg = fl.FlowConfig(t_end=20.0, dt=0.1, method="euler", record_every=100)
        traj = fl.integrate(system, B0, cfg)
        cols = [tau]
        header = ["tau"]
        for t in (0.0, 10.0, 20.0):
            i = int(np.argmin(np.abs(traj.times - t)))
            cols.append(even_density(traj.states[i], tau) - 0.5)
            header.append(f"t{int(t)}")
    else:
        cfg = fl.FlowConfig(t_end=50.0, dt=0.1, method="euler", record_every=100)
        traj = fl.integrate(system, B0, cfg)
        B = traj.states[-1]
        dev = even_density(B, tau) - 0.5
        cosine = B[0] * np.cos(tau)  # matched-amplitude mode-1 cosine
        heat = even_density(fl.heat_reference(B0, 50.0), tau) - 0.5
        cols = [tau, 1000.0 * dev, 1000.0 * cosine, 1000.0 * heat]
        header = ["tau", "deviation_x1000", "cosine_x1000", "heat_x1000"]
    _write_table(_resolve_out(args.out), header, np.column_stack(cols), "csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_flow_flags(p):
    p.add_argument("--dt", type=float, default=0.1, help="time step")
    p.add_argument("--t-end", type=float, default=50.0, help="final time")
    p.add_argument("--method", choices=("euler", "rk4"), default="euler")
    p.add_argument("--record-every", type=int, default=1,
                   help="record one state every k steps")
    p.add_argument("--grid", type=int, default=1024,
                   help="quadrature grid size")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", default=None,
                   help="key=value file with defaults; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srbflow",
        description="Gradient flows of the SRB entropy on expanding circle maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simplex", help="n-point simplex ODE of the L2 flow")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--x", required=True, help="comma list of n simplex values")
    _add_flow_flags(p)
    p.set_defaults(func=cmd_simplex)

    for name, helptext in (("galerkin", "degree-2 Sobolev-metric Galerkin flow"),
                           ("pde", "gradient-dependent diffusion PDE modes")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--modes", type=int, default=3)
        p.add_argument("--B", default=None,
                       help="even-case initial B1,B2,... (rescaled variables)")
        p.add_argument("--coeffs", default=None,
                       help="general odd-mode initial a1,b1,a3,b3,...")
        _add_flow_flags(p)
        p.set_defaults(func=cmd_galerkin if name == "galerkin" else cmd_pde)

    p = sub.add_parser("riesz", help="L2 Riesz gradient flow (any degree)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--coeffs", required=True,
                   help="initial a1,b1,a2,b2,... around the mean 1/n "
                        "(projected onto the constraint)")
    _add_flow_flags(p)
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("entropy", help="evaluate the entropy of a density")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figure", help="emit figure data (trajectory snapshots)")
    p.add_argument("--which", choices=("fig1", "fig2"), required=True)
    p.add_argument("--tau-points", type=int, default=256)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_figure)

    return parser


def _apply_config(args, argv):
    """Fill in values from a key=value file for flags not given on the line."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config) as f:
        entries = {}
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key.replace("-", "_")] = value
    for key, value in entries.items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key: {key}")
        if f"--{key.replace('_', '-')}" in argv:
            continue  # explicit flag wins
        current = getattr(args, key)
        caster = type(current) if current is not None and not isinstance(current, bool) else str
        setattr(args, key, caster(value))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, argv)
        return args.func(args)
    except (DomainError, StepError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
