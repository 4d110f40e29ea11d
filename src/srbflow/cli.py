"""Command-line front end: run flows, emit trajectory/figure CSV data, and
drive the verification suite.

Exit codes: 0 success, 2 usage, 3 validation (also a start outside (0, 1)),
4 runtime (the flow left the valid domain while integrating), 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import lru_cache

import numpy as np

from . import flow as fl
from . import verify as vf
from .entropy import _guarded, odd_frequencies, odd_mode_density
from .errors import DomainError, StepError
from .spectral import DEFAULT_GRID, FourierRep, grid_points_for, project_constraint, to_grid

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME, EXIT_IO = 0, 2, 3, 4, 5
FLOAT_FMT = "%.17g"
OUTDIR_ENV = "SRBFLOW_OUTDIR"
DEFAULT_B_MODES = 3  # --B length expected when --modes is not given


def _parse_floats(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise ValueError(f"bad number list {text!r}: {e}") from None
    if not all(map(math.isfinite, values)):  # refused before any arithmetic warns on it
        raise ValueError(f"bad number list {text!r}: numbers must be finite")
    return np.array(values)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(path: str | None, text: str):
    """Write text to path, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_table(path: str | None, header: list[str], rows: np.ndarray, fmt: str):
    rows = np.atleast_2d(rows)
    if fmt == "json":  # each float's repr: the %.17g value, the same double
        text = json.dumps(dict(zip(header, rows.T.tolist())), indent=2) + "\n"
    else:
        row_fmt = ",".join([FLOAT_FMT] * rows.shape[1])
        lines = [",".join(header)] + [row_fmt % tuple(row) for row in rows.tolist()]
        text = "\n".join(lines) + "\n"
    _emit(path, text)


def _trajectory_table(traj: fl.Trajectory, state_names: list[str],
                      with_residual: bool) -> tuple[list[str], np.ndarray]:
    header = ["t"] + state_names + ["entropy", "grad_norm"]
    cols = [traj.times, traj.states, traj.entropy, traj.grad_norm]
    if with_residual:
        header.append("constraint_residual")
        cols.append(traj.constraint_residual)
    return header, np.column_stack(cols)


def _start(system: fl.FlowSystem, x0: np.ndarray) -> np.ndarray:
    """x0, after the domain guard of the first monitor (_guarded on the samples
    of a fiber system, else system.entropy): a start outside (0, 1) is bad
    input, not a runtime failure."""
    try:
        (_guarded if system.fiber else system.entropy)(x0)
    except DomainError as e:
        raise ValueError(f"initial state: {e}") from None
    return x0


def _check_grid(grid: int, n_modes: int):
    if grid < 4 * n_modes:
        raise ValueError("--grid must be at least 4 * the number of modes")


def _print_extrema(samples: np.ndarray):
    print(f"h range: [{samples.min():.6g}, {samples.max():.6g}] "
          f"(must stay inside (0, 1))")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simplex(args) -> int:
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    x0 = _parse_floats(args.x)
    if x0.size != args.n:
        raise ValueError(f"--x needs {args.n} components")
    with np.errstate(over="ignore"):  # a sum that overflows is refused here, unwarned
        if abs(x0.sum() - 1.0) > 1e-9:
            raise ValueError("--x must sum to 1")
    system = fl.riesz_system(args.n)
    traj = fl.integrate(system, _start(system, x0), args.flow_config)
    names = [f"x{k+1}" for k in range(args.n)]
    header, rows = _trajectory_table(traj, names, with_residual=True)
    _write_table(_resolve_out(args.out), header, rows, args.format)
    return EXIT_OK


def _galerkin_like(args) -> int:
    if args.n != 2:
        raise ValueError("the Sobolev-metric Galerkin flow is degree-2 only")
    if args.modes is not None and args.modes < 1:
        raise ValueError("--modes must be at least 1")
    if args.B is not None and args.coeffs is not None:
        raise ValueError("give --B or --coeffs, not both")
    if args.B is not None:
        x0 = _parse_floats(args.B)
        if x0.size != (DEFAULT_B_MODES if args.modes is None else args.modes):
            raise ValueError("--B length must equal --modes")
        system = fl.even_galerkin_system(args.grid, use_pde=args.use_pde)
        n_modes = x0.size
        names = [f"B{k+1}" for k in range(n_modes)]
    elif args.coeffs is not None:
        c = _parse_floats(args.coeffs)
        if c.size == 0 or c.size % 2:
            raise ValueError("--coeffs needs alternating a,b pairs for the odd modes")
        x0 = np.concatenate([c[0::2], c[1::2]])
        n_modes = c.size // 2
        if args.modes is not None and args.modes != n_modes:
            raise ValueError("--coeffs must hold --modes a,b pairs")
        system = fl.galerkin_system_n2(args.grid, use_pde=args.use_pde)
        names = [f"{ab}{2*k+1}" for ab in "ab" for k in range(n_modes)]
    else:
        raise ValueError("provide an initial condition via --B or --coeffs")
    _check_grid(args.grid, n_modes)
    # a start whose arithmetic overflows is printed and then refused by _start, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = (x0 if args.B is not None
                      else np.pi * odd_frequencies(n_modes) * x0.reshape(2, -1))
        _print_extrema(odd_mode_density(amplitudes, args.grid))
        _start(system, x0)
    traj = fl.integrate(system, x0, args.flow_config)
    header, rows = _trajectory_table(traj, names, with_residual=False)
    _write_table(_resolve_out(args.out), header, rows, args.format)
    return EXIT_OK


def _initial_samples(args) -> np.ndarray:
    """Alternating a1,b1,a2,b2,... coefficients around the mean 1/n,
    projected onto the constraint, sampled on grid_points_for(n, --grid)."""
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    if args.grid < 1:
        raise ValueError("--grid must be positive")
    c = _parse_floats(args.coeffs)
    if c.size % 2:
        raise ValueError("--coeffs needs an even-length a,b,... list")
    p = project_constraint(FourierRep(float(args.n), 1.0 / args.n, c[0::2], c[1::2]), args.n)
    h = FourierRep(float(args.n), 1.0 / args.n, p.cos, p.sin)
    return to_grid(h, grid_points_for(args.n, args.grid)).samples


def cmd_riesz(args) -> int:
    samples = _initial_samples(args)
    _print_extrema(samples)
    system = fl.riesz_system(args.n)
    # grid states are large: records steps a copy of the start, so ours is dropped, and each
    # record becomes its row as it comes; the monitors reduce in leaves, so a run holds x, r
    # and a few blocks of temporaries per core
    run = fl.records(system, _start(system, samples), args.flow_config)
    del samples
    rows = np.array([(t, system.entropy(x), system.grad_norm(r), system.constraint_residual(x),
                      x.min(), x.max()) for t, x, r in run])
    header = ["t", "entropy", "grad_norm", "constraint_residual", "h_min", "h_max"]
    _write_table(_resolve_out(args.out), header, rows, args.format)
    return EXIT_OK


def cmd_entropy(args) -> int:
    samples = _initial_samples(args)
    system = fl.riesz_system(args.n)
    try:
        value = system.entropy(samples)
    except DomainError as e:  # nothing is integrated: the input alone is bad
        raise ValueError(f"input {e}") from None
    _print_extrema(samples)
    print(f"entropy = {FLOAT_FMT % value} (max ln n = {FLOAT_FMT % np.log(args.n)})")
    print(f"constraint residual = {system.constraint_residual(samples):.3e}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be at least 0")
    reports = vf.run_all(args.seed)
    _emit(_resolve_out(args.out), json.dumps([asdict(r) for r in reports], indent=2) + "\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_abs_error={r.max_abs_error:.3e} "
              f"tol={r.tolerance:.1e}", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else 1


def cmd_figure(args) -> int:
    if args.tau_points < 1:
        raise ValueError("--tau-points must be at least 1")
    B0 = np.array([0.25, 0.0, 0.0])
    _check_grid(args.grid, B0.size)
    tau = np.arange(args.tau_points) * (2.0 * np.pi / args.tau_points)
    cfg = fl.FlowConfig(t_end=20.0 if args.which == "fig1" else 50.0, record_every=100)
    traj = fl.integrate(fl.even_galerkin_system(args.grid), B0, cfg)
    if args.which == "fig1":  # 200 steps, recorded every 100th: t = 0, 10 and 20
        cols = [tau] + [odd_mode_density(B, args.tau_points) - 0.5 for B in traj.states]
        header = ["tau"] + [f"t{int(t)}" for t in traj.times]
    else:
        B = traj.states[-1]
        dev = odd_mode_density(B, args.tau_points) - 0.5
        cosine = B[0] * np.cos(tau)  # matched-amplitude mode-1 cosine
        heat = odd_mode_density(fl.heat_reference(B0, cfg.t_end), args.tau_points) - 0.5
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
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help="quadrature grid size")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", default=None,
                   help="key=value file with defaults; flags override it")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The srbflow parser, built once per process: parse_args does not
    change it, and building it costs more than a short command's work."""
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
        p.add_argument("--modes", type=int, default=None,
                       help=f"number of odd modes: the length of --B (default "
                            f"{DEFAULT_B_MODES}) or the number of --coeffs pairs")
        p.add_argument("--B", default=None,
                       help="even-case initial B1,B2,... (rescaled variables)")
        p.add_argument("--coeffs", default=None,
                       help="general odd-mode initial a1,b1,a3,b3,...")
        _add_flow_flags(p)
        p.set_defaults(func=_galerkin_like, use_pde=name == "pde")

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
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
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
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_figure)

    return parser


def _config_tokens(path: str, args) -> list[str]:
    """The key = value lines of a config file as --key=value flags, so that
    argparse types and checks them and a flag given later on the line wins."""
    tokens = []
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            # func, command and use_pde are the parser's own; a nested config goes unread
            if name in ("func", "command", "use_pde", "config") or not hasattr(args, name):
                raise ValueError(f"unknown config key: {name}")
            tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # argv[0] is the subcommand; the flags after it override the file's
            args = parser.parse_args(argv[:1] + _config_tokens(args.config, args) + argv[1:])
        if hasattr(args, "t_end"):  # a flow command: its flags are checked before any work
            args.flow_config = fl.FlowConfig(args.t_end, args.dt, args.method, args.record_every)
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
