"""Compare what two srbflow source trees print, command by command.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout of this repository, holding `src/` and `demos/`.
Each of the 60 CLI commands of the output gate (figures, Galerkin and
diffusion modes, Riesz and simplex flows, entropy, verify, and twenty-one
runs that fail on purpose) and each demo runs once under each tree. One line per
command reports IDENTICAL when stdout, stderr and the exit code agree byte
for byte. Otherwise it reports DIFFERS with the largest
|new - old| / max(1, |old|) over the numbers of the two outputs, or "text"
when they do not line up number for number. A last line sums up:
`N identical, M differ; src/srbflow lines OLD → NEW; srbflow.__all__ OLD → NEW`,
the lines counted over each root's src/srbflow/*.py and the names its
package exports, each imported in a subprocess as the commands are.

Exit status 0 when every command is identical, 1 otherwise. Not part of
the test suite; single-threaded BLAS, one command at a time.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

B8 = "0.2,0.02,0.01,0.005,0,0,0,0"
GAL = "0.01,0.02,0.003,-0.004,0.001,0.002"
C4 = "0.1,0.05,0.02,-0.03,0.04,0.01,-0.01,0.02"
C9 = ("0.05,0.02,0.01,-0.01,0.01,0.005,-0.005,0.004,0.003,-0.002,0.002,0.001,-0.001,0.001,"
      "0.001,-0.001,0.0005,0.0005")
C16 = ("0.02,0.01,0.005,-0.004,0.002,0.001,-0.001,0.0008,0.0005,-0.0004,0.0003,0.0002,"
       "-0.0002,0.0001,0.0001,-0.0001")
COMMANDS = [
    ["figure", "--which", "fig1"],
    ["figure", "--which", "fig2"],
    ["figure", "--which", "fig1", "--tau-points", "100"],
    ["galerkin", "--B", "0.25,0,0", "--t-end", "50"],
    ["galerkin", "--B", "0.25,0,0", "--t-end", "20", "--method", "rk4", "--dt", "0.05"],
    ["galerkin", "--B", B8, "--modes", "8", "--t-end", "20"],
    ["galerkin", "--B", B8, "--modes", "8", "--t-end", "10", "--method", "rk4"],
    ["galerkin", "--B", "0.25", "--modes", "1", "--t-end", "5"],
    ["galerkin", "--coeffs", GAL, "--t-end", "20"],
    ["galerkin", "--coeffs", GAL, "--t-end", "10", "--method", "rk4", "--format", "json"],
    # explicit steps below 2 / (2 pi^2 (2K-1)^2), the fastest linearized diffusion rate
    ["pde", "--B", "0.25,0,0", "--dt", "0.002", "--t-end", "0.4"],
    ["pde", "--B", "0.25,0,0", "--dt", "0.002", "--t-end", "0.4", "--method", "rk4"],
    ["pde", "--B", "0.3,0.05,-0.02", "--dt", "0.002", "--t-end", "0.4"],
    ["pde", "--B", B8, "--modes", "8", "--dt", "0.0002", "--t-end", "0.02", "--method", "rk4"],
    ["pde", "--coeffs", GAL, "--dt", "0.002", "--t-end", "0.5"],
    # two blocks of eight modes
    ["pde", "--coeffs", C16, "--dt", "0.0002", "--t-end", "0.02", "--method", "rk4"],
    ["riesz", "--n", "2", "--coeffs", "0.25,0", "--t-end", "5", "--method", "rk4", "--dt", "0.01"],
    ["riesz", "--n", "3", "--coeffs", "0.1,0.05", "--t-end", "5", "--grid", "999"],
    ["riesz", "--n", "5", "--coeffs", "0.05,0.02,0.03,0.01", "--t-end", "2", "--grid", "2048",
     "--method", "rk4", "--dt", "0.02"],
    # a grid state of four fiber blocks, the last one ragged
    ["riesz", "--n", "5", "--coeffs", "0.05,0.02,0.03,0.01", "--grid", "200000", "--t-end", "0.1",
     "--dt", "0.02", "--method", "rk4", "--record-every", "5"],
    # two blocks, sampled by angle addition
    ["riesz", "--n", "2", "--coeffs", C4, "--grid", "70000", "--t-end", "0.2", "--dt", "0.02",
     "--method", "rk4", "--record-every", "3"],
    # three uneven blocks, which do not split evenly over two cores
    ["riesz", "--n", "2", "--coeffs", C4, "--grid", "140000", "--t-end", "0.2", "--dt", "0.02",
     "--method", "rk4", "--record-every", "3"],
    # odd grids sampled by angle addition; the riesz state is one fiber block
    ["riesz", "--n", "3", "--coeffs", "0.1,0.05,0.02,-0.03", "--grid", "40001", "--t-end", "0.2",
     "--dt", "0.02", "--method", "rk4", "--record-every", "5"],
    ["entropy", "--n", "3", "--coeffs", "0.1,0.05,0.02,-0.03", "--grid", "99999"],
    # 2^21 - 1 = 7^2 * 127 * 337 nodes, whose inverse FFT is the slowest near 2^21
    ["riesz", "--n", "7", "--coeffs", "0.1,0.05,0.02,-0.03", "--grid", "2097152", "--t-end", "0.04",
     "--dt", "0.02", "--method", "rk4", "--record-every", "2"],
    # nine modes, one more than angle addition sums: a large grid by inverse FFT
    ["entropy", "--n", "3", "--coeffs", C9, "--grid", "99999"],
    ["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "10"],
    ["simplex", "--n", "5", "--x", "0.1,0.15,0.2,0.25,0.3", "--t-end", "20", "--method", "rk4",
     "--dt", "0.01"],
    ["simplex", "--n", "8", "--x", "0.05,0.1,0.1,0.15,0.15,0.1,0.2,0.15", "--t-end", "5",
     "--format", "json"],
    # a row of eight values, where numpy's sums switch to pairwise summation, as CSV
    ["simplex", "--n", "8", "--x", "0.05,0.1,0.1,0.15,0.15,0.1,0.2,0.15", "--t-end", "2",
     "--dt", "0.01", "--method", "rk4"],
    # to_grid's largest cached grid (2^15 nodes) and the next degree-2 grid, the smallest
    # sampled by angle addition
    ["riesz", "--n", "2", "--coeffs", C4, "--grid", "32768", "--t-end", "0.2"],
    ["riesz", "--n", "2", "--coeffs", C4, "--grid", "32770", "--t-end", "0.2"],
    ["entropy", "--n", "2", "--coeffs", "0.25,0"],
    ["entropy", "--n", "3", "--coeffs", "0.1,0.05", "--grid", "999"],
    ["entropy", "--n", "2", "--coeffs", C4, "--grid", "32768"],
    ["entropy", "--n", "2", "--coeffs", C4, "--grid", "32770"],
    ["verify", "--seed", "0"],
    ["verify", "--seed", "42"],
    ["verify", "--seed", "7"],
    # error paths: stderr and exit code are compared too
    ["pde", "--B", "0.25,0,0", "--dt", "0.1", "--t-end", "1"],
    # both blocks of a two-block grid state leave the domain at step 1
    ["riesz", "--n", "2", "--coeffs", "0.45,0", "--grid", "70000", "--dt", "1", "--t-end", "2"],
    ["galerkin", "--B", "0.6,0,0", "--t-end", "1"],
    ["galerkin", "--coeffs", "0.01,0.02", "--modes", "5", "--t-end", "0.2"],
    ["entropy", "--n", "2", "--coeffs", "0.6,0"],
    ["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "1", "--dt", "0.4"],
    # leaves the domain inside an RK4 stage of step 1
    ["simplex", "--n", "3", "--x", "0.05,0.15,0.8", "--method", "rk4", "--dt", "0.5", "--t-end", "2"],
    ["riesz", "--n", "2", "--coeffs", "0.1,0", "--grid", "0", "--t-end", "1"],
    ["riesz", "--n", "2", "--coeffs", "0.1,0", "--grid", "-4", "--t-end", "1"],
    ["entropy", "--n", "2", "--coeffs", "0.1,0", "--grid", "0"],
    ["figure", "--which", "fig1", "--grid", "0"],
    ["figure", "--which", "fig1", "--grid", "-4"],
    ["figure", "--which", "fig1", "--grid", "2"],
    # a grid below 4 * the modes, refused before the h range is printed
    ["galerkin", "--B", "0.25,0,0", "--grid", "4", "--t-end", "1"],
    # five modes alias on a cached 8-node grid
    ["entropy", "--n", "2", "--coeffs", "0.1,0,0,0,0,0,0,0,0.05,0", "--grid", "8"],
    # no modes at all
    ["galerkin", "--B", "0.25,0,0", "--modes", "0"],
    ["galerkin", "--coeffs=", "--t-end", "0.2"],
    ["pde", "--B=", "--modes", "0", "--t-end", "0.2"],
    # --B and --coeffs together
    ["galerkin", "--B", "0.1,0,0", "--coeffs", "0.01,0.02", "--t-end", "0.2"],
    ["pde", "--B", "0.1,0,0", "--coeffs", "0.01,0.02", "--dt", "0.002", "--t-end", "0.004"],
    # a negative seed, refused before any check runs
    ["verify", "--seed", "-1"],
]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
MAIN = "import sys; from srbflow.cli import main; sys.exit(main(sys.argv[1:]))"


def python(root: Path, args: list[str], workdir: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env.pop("SRBFLOW_OUTDIR", None)
    return subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                          capture_output=True, text=True)


def run(root: Path, args: list[str], workdir: str) -> str:
    done = python(root, args, workdir)
    return f"{done.stdout}\n--stderr--\n{done.stderr}\n--exit {done.returncode}--\n"


def api_size(root: Path, workdir: str) -> str:
    """len(srbflow.__all__) under root, or "?" when the package does not import."""
    done = python(root, ["-c", "import srbflow; print(len(srbflow.__all__))"], workdir)
    return done.stdout.strip() if done.returncode == 0 else "?"


def max_rel_diff(old: str, new: str) -> float | None:
    """Largest |new - old| / max(1, |old|) over matching numbers; None when
    the texts differ outside their numbers or in how many they hold."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    a = np.array([float(v) for v in NUMBER.findall(old)])
    b = np.array([float(v) for v in NUMBER.findall(new)])
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(b - a) / np.maximum(1.0, np.abs(a))))


def command(label: str, root: Path) -> list[str]:
    if label.startswith("demos/"):
        return [str(root / label)]
    return ["-c", MAIN, *label.split(" ")]


def source_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (root / "src" / "srbflow").glob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    old_root, new_root = (Path(p).resolve() for p in argv)
    labels = [" ".join(c) for c in COMMANDS]
    labels += [f"demos/{p.name}" for p in sorted((new_root / "demos").glob("*.py"))]
    differs = 0
    with tempfile.TemporaryDirectory() as workdir:
        for label in labels:
            old = run(old_root, command(label, old_root), workdir)
            new = run(new_root, command(label, new_root), workdir)
            if old == new:
                print(f"{'IDENTICAL':<25}{label}", flush=True)
                continue
            differs += 1
            rel = max_rel_diff(old, new)
            detail = "text" if rel is None else f"max_rel={rel:.2e}"
            print(f"{'DIFFERS ' + detail:<25}{label}", flush=True)
        api = [api_size(root, workdir) for root in (old_root, new_root)]
    print(f"{len(labels) - differs} identical, {differs} differ; src/srbflow lines "
          f"{source_lines(old_root)} → {source_lines(new_root)}; srbflow.__all__ "
          f"{api[0]} → {api[1]}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
