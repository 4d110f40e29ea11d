"""Seeded benchmark workloads: the CLI calls of one pass, and the checks
each call's output must pass.

A pass is a fixed mix of operations whose inputs are drawn from the
workload seed; the runner repeats it. Every operation is one
`srbflow.cli.main(argv)` call; its output is compared with the frozen
reference in `reference.py` and with the invariants the flows must keep.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# An operation whose output is off by more than these counts as failed.
ERR_TOL = 1e-9      # mixed abs/rel deviation from the reference
DIP_TOL = 1e-10     # entropy decrease between consecutive records
DRIFT_TOL = 1e-10   # partition-of-unity residual

RIESZ_GRID = 2**21  # 16 MiB per state: four times the 2 x 2 MiB of L2

# `verify`'s fd_derivative check divides the central-difference error (up to
# ~2e-8 at eps = 1e-4, whatever the slope) by |DH_h(psi)| and compares it
# with 1e-6, so it fails on a correct derivative whenever the random
# direction happens to make |DH| < ~0.02: about 3% of seeds at this
# commit. That is a defect of the oracle, not of the program's derivative;
# the workload draws only seeds whose slopes keep the check's own tolerance
# meaningful, with a 2.5x margin.
FD_MIN_SLOPE = 0.05

# Time here goes to memory traffic on 16 MiB arrays, which the core-bound
# host-speed calibration kernel of run.py does not track: normalizing by it
# widened the run-to-run spread of riesz_grid, so its times are reported raw.
MEMORY_BOUND = {"riesz_grid"}

VERIFY_CHECKS = ["equilibrium_n2", "equilibrium_n3", "equilibrium_n5",
                 "fd_derivative", "riesz_identity", "fd_derivative", "riesz_identity",
                 "gradient_maximality", "ode_pde_proportionality"]


@dataclass
class Op:
    kind: str            # simplex | even | n2 | riesz | figure | entropy | verify
    argv: list[str]      # without --out
    params: dict = field(default_factory=dict)

    @property
    def writes_file(self) -> bool:
        return self.kind != "entropy"


@dataclass
class Check:
    ok: bool
    why: str = ""
    err: float = 0.0     # worst |out - ref| / max(1, |ref|)
    dip: float = 0.0     # worst entropy decrease between records
    drift: float = 0.0   # worst constraint residual
    rows: int = 0        # table rows written


def _num(values) -> str:
    # passed as --flag=value: argparse would take a leading "-" for a flag
    return ",".join(repr(float(v)) for v in values)


def _flow_argv(dt, t_end, method, record_every):
    return ["--dt", repr(dt), "--t-end", repr(t_end), "--method", method,
            "--record-every", str(record_every)]


def _flow_params(dt, t_end, method, record_every):
    return dict(dt=dt, t_end=t_end, method=method, record_every=record_every)


def _scaled(rng, size, total, weights=1.0):
    """Random signed vector with sum(weights * |v|) == total."""
    v = rng.uniform(-1.0, 1.0, size)
    return v * (total / np.sum(weights * np.abs(v)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _even_op(rng, n_modes, use_pde):
    # sum |B_k| < 1/2 keeps h = 1/2 + sum B_k cos((2k-1) tau) inside (0, 1)
    B = _scaled(rng, n_modes, rng.uniform(0.1, 0.4))
    # pde: Euler below 2 / (2 pi^2 (2K-1)^2), the fastest linearized mode
    flow = (0.002, 0.4, "euler", 1) if use_pde else (0.1, 20.0, "euler", 1)
    argv = ["pde" if use_pde else "galerkin", "--B=" + _num(B), "--modes", str(n_modes)]
    return Op("even", argv + _flow_argv(*flow),
              dict(B=B, use_pde=use_pde, grid=1024, **_flow_params(*flow)))


def _n2_op(rng, n_modes):
    # u_y = 1/2 + pi sum k (-a sin + b cos); bound pi sum k (|a| + |b|)
    k = np.repeat(2 * np.arange(1, n_modes + 1) - 1, 2)
    c = _scaled(rng, 2 * n_modes, rng.uniform(0.1, 0.4), np.pi * k)
    flow = (0.1, 20.0, "euler", 1)
    return Op("n2", ["galerkin", "--coeffs=" + _num(c)] + _flow_argv(*flow),
              dict(coeffs=c, use_pde=False, grid=1024, **_flow_params(*flow)))


def galerkin_modes(rng):
    return [_even_op(rng, 3, False), _even_op(rng, 8, False), _n2_op(rng, 3),
            _even_op(rng, 3, True), _even_op(rng, 3, False),
            Op("figure", ["figure", "--which", "fig1"], dict(which="fig1", grid=1024)),
            _even_op(rng, 3, False), _even_op(rng, 8, False), _n2_op(rng, 3),
            _even_op(rng, 3, True), _even_op(rng, 3, False),
            Op("figure", ["figure", "--which", "fig2"], dict(which="fig2", grid=1024))]


def simplex_ensemble(rng):
    flow = (0.01, 2.0, "rk4", 1)
    ns = rng.permutation(np.repeat(np.arange(2, 9), 8))
    ops = []
    for n in ns:
        eps = 0.02  # keeps every component well above the RK4 stability limit dt/2
        x = eps + (1.0 - n * eps) * rng.dirichlet(np.ones(n))
        ops.append(Op("simplex", ["simplex", "--n", str(n), "--x=" + _num(x)] + _flow_argv(*flow),
                      dict(x=x, **_flow_params(*flow))))
    return ops


def riesz_grid(rng):
    flow = (0.02, 0.2, "rk4", 10)
    ops = []
    for _ in range(2):
        # sum |coeffs| <= 0.15 keeps h in [0.05, 0.35] around the mean 1/5
        c = _scaled(rng, 6, rng.uniform(0.08, 0.15))
        argv = ["riesz", "--n", "5", "--coeffs=" + _num(c), "--grid", str(RIESZ_GRID)]
        ops.append(Op("riesz", argv + _flow_argv(*flow),
                      dict(n=5, coeffs=c, grid=RIESZ_GRID, **_flow_params(*flow))))
    return ops


def _verify_seed(rng):
    while True:
        seed = int(rng.integers(0, 2**31 - 1))
        if min(abs(d) for d in ref.fd_check_derivatives(seed)) >= FD_MIN_SLOPE:
            return seed


def verify_suite(rng):
    ops = []
    for _ in range(2):
        ops.append(Op("verify", ["verify", "--seed", str(_verify_seed(rng))]))
        for n in rng.permutation([2, 3, 4, 5]):
            # sum |coeffs| <= 0.8 / n keeps h inside [0.2 / n, 1.8 / n]
            c = _scaled(rng, 8, rng.uniform(0.3, 0.8) / n)
            ops.append(Op("entropy", ["entropy", "--n", str(n), "--coeffs=" + _num(c)],
                          dict(n=int(n), coeffs=c, grid=1024)))
    return ops


WORKLOADS = {f.__name__: f for f in (galerkin_modes, riesz_grid, simplex_ensemble, verify_suite)}


def make_pass(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _expected(op: Op):
    """(state columns, monitor columns, rows) a table-producing op must write."""
    p = op.params
    flow = {key: p[key] for key in ("dt", "t_end", "method", "record_every") if key in p}
    if op.kind == "simplex":
        n = p["x"].size
        return ([f"x{k + 1}" for k in range(n)], ["entropy", "grad_norm", "constraint_residual"],
                ref.simplex(p["x"], **flow))
    if op.kind == "even":
        K = p["B"].size
        return ([f"B{k + 1}" for k in range(K)], ["entropy", "grad_norm"],
                ref.even_galerkin(p["B"], p["grid"], use_pde=p["use_pde"], **flow))
    if op.kind == "n2":
        m = p["coeffs"].size // 2
        names = [f"a{2 * k + 1}" for k in range(m)] + [f"b{2 * k + 1}" for k in range(m)]
        return (names, ["entropy", "grad_norm"],
                ref.galerkin_n2(p["coeffs"], p["grid"], use_pde=p["use_pde"], **flow))
    if op.kind == "riesz":
        return ([], ["entropy", "grad_norm", "constraint_residual", "h_min", "h_max"],
                ref.riesz(p["n"], p["coeffs"], p["grid"], **flow))
    header = (["t0", "t10", "t20"] if p["which"] == "fig1"
              else ["deviation_x1000", "cosine_x1000", "heat_x1000"])
    return (header, [], ref.figure(p["which"], 256, p["grid"]))


def _deviation(out: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(out - want) / np.maximum(1.0, np.abs(want))))


def _check_table(op: Op, text: str) -> Check:
    state, monitors, want = _expected(op)
    lead = ["tau"] if op.kind == "figure" else ["t"]
    header = lead + state + monitors
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        return Check(False, f"header {lines[:1]} != {header}")
    try:
        out = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as e:
        return Check(False, f"unparsable row: {e}")
    if out.shape != want.shape:
        return Check(False, f"table shape {out.shape} != {want.shape}")
    c = Check(True, err=_deviation(out, want), rows=out.shape[0])
    if "entropy" in header and out.shape[0] > 1:
        H = out[:, header.index("entropy")]
        c.dip = max(0.0, float(np.max(H[:-1] - H[1:])))
    if "constraint_residual" in header:
        c.drift = float(np.max(out[:, header.index("constraint_residual")]))
    return c


def _check_entropy(op: Op, stdout: str) -> Check:
    value = re.search(r"^entropy = (\S+)", stdout, re.M)
    residual = re.search(r"^constraint residual = (\S+)", stdout, re.M)
    if not (value and residual):
        return Check(False, "entropy or residual line missing")
    p = op.params
    H, want = float(value.group(1)), ref.entropy_value(p["n"], p["coeffs"], p["grid"])
    if H > math.log(p["n"]) + DIP_TOL:
        return Check(False, f"entropy {H} above ln n")
    return Check(True, err=_deviation(np.array(H), np.array(want)),
                 drift=float(residual.group(1)))


def _check_verify(text: str) -> Check:
    reports = json.loads(text)
    names = [r["name"] for r in reports]
    if names != VERIFY_CHECKS:
        return Check(False, f"checks {names} != {VERIFY_CHECKS}")
    failing = [r["name"] for r in reports if not r["passed"]]
    return Check(not failing, f"failing checks {failing}" if failing else "")


def check(op: Op, rc, text: str, stdout: str) -> Check:
    """Compare one op's output with its reference and invariants."""
    if rc != 0:
        return Check(False, f"exit code {rc}")
    try:
        if op.kind == "verify":
            c = _check_verify(text)
        elif op.kind == "entropy":
            c = _check_entropy(op, stdout)
        else:
            c = _check_table(op, text)
    except (ValueError, KeyError, TypeError) as e:
        return Check(False, f"unreadable output: {e!r}")
    for value, tol, what in ((c.err, ERR_TOL, "reference deviation"),
                             (c.dip, DIP_TOL, "entropy dip"),
                             (c.drift, DRIFT_TOL, "constraint drift")):
        if c.ok and not value <= tol:  # a NaN fails too
            c.ok, c.why = False, f"{what} {value:.3e} > {tol:.0e}"
    return c
