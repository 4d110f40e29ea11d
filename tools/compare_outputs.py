"""Compare what two srbflow source trees print, command by command.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout of this repository, holding `src/` and `demos/`.
Each of the 81 CLI commands of the output gate (figures, Galerkin and
diffusion modes, Riesz and simplex flows, entropy, verify, and thirty runs
that fail on purpose) and each demo runs once under each tree. One line per
command reports IDENTICAL when stdout, stderr and the exit code agree byte
for byte. Otherwise it reports DIFFERS with the largest
|new - old| / max(1, |old|) over the numbers of the two outputs, or "text"
when they do not line up number for number. A last line sums up:
`N identical, M differ; src/srbflow lines OLD → NEW; srbflow.__all__ OLD → NEW;
modules loaded OLD → NEW; largest peak RSS OLD → NEW MB`, the lines counted
over each root's src/srbflow/*.py, the names its package exports and the
modules loaded after `import srbflow.cli`, each imported in a subprocess as
the commands are, so a module added to the import path shows here.  The
peak RSS is the largest over each tree's commands and demos of the child's
own `ru_maxrss` (taken with os.wait4; MB as benchmarks/run.py reports it,
KiB / 1024).  Each child writes its stdout and stderr to temporary files,
so a large output cannot stall it on a full pipe.

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
C6 = "0.04,-0.02,0.03,0.01,-0.02,0.015"
C16 = ("0.02,0.01,0.005,-0.004,0.002,0.001,-0.001,0.0008,0.0005,-0.0004,0.0003,0.0002,"
       "-0.0002,0.0001,0.0001,-0.0001")
COMMANDS = [
    ["figure", "--which", "fig1"],
    ["figure", "--which", "fig2"],
    ["figure", "--which", "fig1", "--tau-points", "100"],
    ["figure", "--which", "fig2", "--tau-points", "100"],
    ["galerkin", "--B", "0.25,0,0", "--t-end", "50"],
    ["galerkin", "--B", "0.25,0,0", "--t-end", "20", "--method", "rk4", "--dt", "0.05"],
    ["galerkin", "--B", B8, "--modes", "8", "--t-end", "20"],
    ["galerkin", "--B", B8, "--modes", "8", "--t-end", "10", "--method", "rk4"],
    ["galerkin", "--B", "0.25", "--modes", "1", "--t-end", "5"],
    ["galerkin", "--coeffs", GAL, "--t-end", "20"],
    ["galerkin", "--coeffs", GAL, "--t-end", "10", "--method", "rk4", "--format", "json"],
    # one a,b pair: the packed state at its smallest
    ["galerkin", "--coeffs", "0.02,0.01", "--t-end", "5"],
    # starts whose sum of |amplitudes| is above the rhs's threshold, so its guard runs
    # the reductions; the first decays below the threshold mid-run
    ["galerkin", "--B=0.3,-0.25,0", "--t-end", "20"],
    ["galerkin", "--coeffs=0.1,0.08", "--t-end", "2"],
    ["pde", "--B=0.3,-0.25,0", "--dt", "0.002", "--t-end", "0.02"],
    # explicit steps below 2 / (2 pi^2 (2K-1)^2), the fastest linearized diffusion rate
    ["pde", "--B", "0.25,0,0", "--dt", "0.002", "--t-end", "0.4"],
    ["pde", "--B", "0.25,0,0", "--dt", "0.002", "--t-end", "0.4", "--method", "rk4"],
    ["pde", "--B", "0.3,0.05,-0.02", "--dt", "0.002", "--t-end", "0.4"],
    ["pde", "--B", B8, "--modes", "8", "--dt", "0.0002", "--t-end", "0.02", "--method", "rk4"],
    ["pde", "--coeffs", GAL, "--dt", "0.002", "--t-end", "0.5"],
    ["pde", "--coeffs", "0.02,0.01", "--dt", "0.002", "--t-end", "0.1"],
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
    # three blocks at the default --record-every 1: 51 records, each reduced as it comes
    ["riesz", "--n", "2", "--coeffs", C4, "--grid", "140000", "--t-end", "1", "--dt", "0.02"],
    ["riesz", "--n", "3", "--coeffs", "0.1,0.05", "--t-end", "2", "--grid", "999", "--format",
     "json"],
    # odd grids sampled by angle addition; the riesz state is one fiber block
    ["riesz", "--n", "3", "--coeffs", "0.1,0.05,0.02,-0.03", "--grid", "40001", "--t-end", "0.2",
     "--dt", "0.02", "--method", "rk4", "--record-every", "5"],
    ["entropy", "--n", "3", "--coeffs", "0.1,0.05,0.02,-0.03", "--grid", "99999"],
    # 2^21 - 1 = 7^2 * 127 * 337 nodes, whose inverse FFT is the slowest near 2^21
    ["riesz", "--n", "7", "--coeffs", "0.1,0.05,0.02,-0.03", "--grid", "2097152", "--t-end", "0.04",
     "--dt", "0.02", "--method", "rk4", "--record-every", "2"],
    # riesz_grid's shape: 2^21 - 2 nodes, three modes by angle addition, 33 fiber blocks
    ["riesz", "--n", "5", "--coeffs=" + C6, "--grid", "2097152", "--method", "rk4", "--dt", "0.02",
     "--t-end", "0.04", "--record-every", "2"],
    # the same density's entropy and residual: one state in leaves and column blocks
    ["entropy", "--n", "5", "--coeffs=" + C6, "--grid", "2097152"],
    # K_SPLIT = 8 modes, the most angle addition sums
    ["entropy", "--n", "3", "--coeffs=" + C16, "--grid", "99999"],
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
    # nine values per row: the stacked residual sums nine-value columns
    ["simplex", "--n", "9", "--x", "0.05,0.1,0.1,0.15,0.1,0.1,0.15,0.1,0.15", "--t-end", "2",
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
    # the same density on a grid of many monitor leaves: the guard names the whole state's
    # min and max, not one leaf's
    ["entropy", "--n", "2", "--coeffs", "0.6,0", "--grid", "140000"],
    ["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "1", "--dt", "0.4"],
    # leaves the domain inside an RK4 stage of step 1
    ["simplex", "--n", "3", "--x", "0.05,0.15,0.8", "--method", "rk4", "--dt", "0.5", "--t-end", "2"],
    # a few-value start outside (0, 1): the guard falls through to its min/max message
    ["simplex", "--n", "2", "--x=-0.5,1.5"],
    # non-finite numbers, refused as they are parsed, before any arithmetic warns on them
    ["simplex", "--n", "3", "--x=0.2,nan,0.8"],
    ["simplex", "--n", "2", "--x=inf,-inf", "--t-end", "1"],
    ["galerkin", "--coeffs=inf,0", "--t-end", "1"],
    # finite numbers whose start arithmetic overflows, refused with no numpy warning
    ["pde", "--B=1e308,1e308,0", "--t-end", "1"],
    ["galerkin", "--coeffs=1e308,1e308", "--t-end", "1"],
    ["simplex", "--n", "2", "--x=1e308,1e308", "--t-end", "1"],
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
    # the simplex flow has no grid: --grid is a usage error
    ["simplex", "--n", "2", "--x", "0.3,0.7", "--t-end", "0.2", "--grid", "7"],
]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
MAIN = "import sys; from srbflow.cli import main; sys.exit(main(sys.argv[1:]))"
RSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss counts bytes there, else KiB


def python(root: Path, args: list[str],
           workdir: str) -> tuple[subprocess.CompletedProcess, float]:
    """Python run on args under root, and the child's own peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env.pop("SRBFLOW_OUTDIR", None)
    # read back as text mode reads a pipe: locale encoding, universal newlines
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen([sys.executable, *args], cwd=workdir, env=env,
                                 stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(child.args, child.returncode, out.read(), err.read())
    return done, usage.ru_maxrss / RSS_PER_MB


def run(root: Path, args: list[str], workdir: str) -> tuple[str, float]:
    """The compared text of one command (stdout, stderr, exit code) and its peak RSS."""
    done, peak = python(root, args, workdir)
    return f"{done.stdout}\n--stderr--\n{done.stderr}\n--exit {done.returncode}--\n", peak


def imported(root: Path, code: str, workdir: str) -> str:
    """What `code` prints under root, or "?" when it fails."""
    done, _ = python(root, ["-c", code], workdir)
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
    peaks = [0.0, 0.0]
    with tempfile.TemporaryDirectory() as workdir:
        for label in labels:
            old, peak_old = run(old_root, command(label, old_root), workdir)
            new, peak_new = run(new_root, command(label, new_root), workdir)
            peaks = [max(peaks[0], peak_old), max(peaks[1], peak_new)]
            if old == new:
                print(f"{'IDENTICAL':<25}{label}", flush=True)
                continue
            differs += 1
            rel = max_rel_diff(old, new)
            detail = "text" if rel is None else f"max_rel={rel:.2e}"
            print(f"{'DIFFERS ' + detail:<25}{label}", flush=True)
        api = [imported(root, "import srbflow; print(len(srbflow.__all__))", workdir)
               for root in (old_root, new_root)]
        mods = [imported(root, "import sys, srbflow.cli; print(len(sys.modules))", workdir)
                for root in (old_root, new_root)]
    print(f"{len(labels) - differs} identical, {differs} differ; src/srbflow lines "
          f"{source_lines(old_root)} → {source_lines(new_root)}; srbflow.__all__ "
          f"{api[0]} → {api[1]}; modules loaded {mods[0]} → {mods[1]}; largest peak RSS "
          f"{peaks[0]:.1f} → {peaks[1]:.1f} MB")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
