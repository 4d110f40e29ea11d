"""srbflow benchmark: seeded CLI workloads, timed end to end and traced per layer.

    python3 benchmarks/run.py --workload galerkin_modes --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Each operation is one in-process `srbflow.cli.main(argv)` call on
inputs generated from `--seed`, writing into a scratch directory under
`.bench_work/`. A single caller runs a fixed pass of operations in a closed
loop, repeating the pass until `--seconds` have passed. Every output is
checked against the frozen reference values and the flow invariants.
Times in the end-to-end metrics are normalized to a reference host speed
(see `calibration_kernel`).

--trace 0 prints the end-to-end metrics (tracing off). --trace 1 alternates
untraced and traced passes and prints the per-layer metrics; the spans of
the first traced pass are written to `.bench_work/`. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. BLAS is pinned to one thread.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, so the baseline is explicitly single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SRBFLOW_OUTDIR", None)  # --out paths are absolute anyway

import argparse
import contextlib
import ctypes
import glob
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5

# Host-speed normalization. On the shared host this benchmark was tuned on
# (2-vCPU Xeon, 2.1 GHz), the same code ran up to 1.7x slower in phases
# lasting seconds to minutes, longer than one run, so raw times of identical
# runs spread by up to 35%. A fixed kernel that does not touch srbflow is
# timed after every op, for about CAL_SHARE of the op's time. Each pass's
# times are divided by the pass's slowness: the median kernel time over
# CAL_REF_S, the kernel's typical time on that host, so normalized times
# read close to raw ones there. Set-up probes are normalized the same way,
# by kernels timed just before and after each probe. Workloads in
# workloads.MEMORY_BOUND are not calibrated; their times are raw.
CAL_SHARE = 0.1
CAL_REF_S = 0.7e-3
SETUP_CAL_KERNELS = 100
_CAL_SMALL = np.linspace(0.1, 1.0, 1024)

# Invariant metrics are reported as max(worst value, floor): the floor sits
# far above this commit's rounding noise (<= 2e-15), so the metric reads the
# floor unless the program gets measurably worse, and never reads 0.
FLOORS = {"max_rel_err": 1e-12, "entropy_dip_max": 1e-12, "constraint_drift_max": 1e-12}


@dataclass
class Result:
    seconds: float
    rc: object          # exit code, or the repr of an exception
    text: str           # contents of --out
    stdout: str


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, generate, run one op, print 'ready'")
    return p.parse_args(argv)


def environment() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    model = platform.processor()
    try:
        model = next(line.split(":", 1)[1].strip()
                     for line in Path("/proc/cpuinfo").read_text().splitlines()
                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the pin."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        blas = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(blas, symbol):
                getter = getattr(blas, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter loop and small numpy calls.
    Of the kernels tried, this mix tracked the host's slow phases best on
    all four workloads (a 2 MiB-array pass tracked only riesz_grid)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += i * 0.5
    for _ in range(30):
        acc += float(np.cos(_CAL_SMALL) @ _CAL_SMALL)
    return time.perf_counter() - start


def slowness(kernel_times) -> float:
    """Host slowness from calibration kernel times; 1 when not calibrated."""
    return statistics.median(kernel_times) / CAL_REF_S if kernel_times else 1.0


def run_op(cli, op, workdir: str, tracer=None, op_id=0) -> Result:
    path = os.path.join(workdir, "op.out")
    argv = op.argv + (["--out", path] if op.writes_file else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = op_id
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = 0 if e.code is None else e.code
        except Exception as e:  # the op failed; count it and keep running
            rc = repr(e)
        seconds = time.perf_counter() - start
    text = ""
    if op.writes_file and os.path.exists(path):
        text = Path(path).read_text()
        os.remove(path)
    return Result(seconds, rc, text, stdout.getvalue())


class Ledger:
    """Outputs of every executed op: pass 1 is checked against the
    reference after timing; later passes must reproduce it byte for byte."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list[Result | None] = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.changed = [0] * len(ops)
        self.latencies: list[float] = []

    def add(self, i, res: Result):
        self.runs[i] += 1
        self.latencies.append(res.seconds)
        if self.first[i] is None:
            self.first[i] = res
        elif (res.rc, res.text, res.stdout) != (self.first[i].rc, self.first[i].text,
                                                 self.first[i].stdout):
            self.changed[i] += 1

    def check(self, workloads):
        """(failed ops, pass-1 checks, failure notes)."""
        checks, failed, notes = [], 0, []
        for i, op in enumerate(self.ops):
            first = self.first[i]
            c = workloads.check(op, first.rc, first.text, first.stdout)
            checks.append(c)
            bad = self.runs[i] if not c.ok else self.changed[i]
            failed += bad
            if not c.ok:
                notes.append(f"op {i} {' '.join(op.argv[:3])}: {c.why}")
            elif bad:
                notes.append(f"op {i} {' '.join(op.argv[:3])}: output changed on {bad} repeats")
        return failed, checks, notes


def run_pass(cli, ops, ledger, workdir, tracer=None, first_id=0, kernel_times=None) -> float:
    """Summed op seconds of one pass; with `kernel_times`, the calibration
    kernel runs after each op and its times are appended there."""
    total = 0.0
    for i, op in enumerate(ops):
        res = run_op(cli, op, workdir, tracer, first_id + i)
        ledger.add(i, res)
        total += res.seconds
        if kernel_times is not None:
            for _ in range(max(1, round(CAL_SHARE * res.seconds / CAL_REF_S))):
                kernel_times.append(calibration_kernel())
    return total


def probe_setup(args, calibrate: bool) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has imported the
    program, generated its inputs and finished one warm-up op, and the host
    slowness measured just before the spawn and just after the exit."""
    kernel_times = [calibration_kernel() for _ in range(SETUP_CAL_KERNELS if calibrate else 0)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err[-2000:]}")
    kernel_times += [calibration_kernel() for _ in range(SETUP_CAL_KERNELS if calibrate else 0)]
    return elapsed, slowness(kernel_times)


def end_to_end(args, cli, workloads, ops, workdir):
    calibrate = args.workload not in workloads.MEMORY_BOUND
    probes = [probe_setup(args, calibrate) for _ in range(SETUP_PROBES)]
    ledger = Ledger(ops)
    run_op(cli, ops[0], workdir)  # warm-up, as in the probes
    walls, slow = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        kernel_times = [] if calibrate else None
        walls.append(run_pass(cli, ops, ledger, workdir, kernel_times=kernel_times))
        slow.append(slowness(kernel_times))
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, checks, notes = ledger.check(workloads)
    # pass k holds latencies k * len(ops) ... (k + 1) * len(ops) - 1
    lat_ms = [1e3 * s / slow[k // len(ops)] for k, s in enumerate(ledger.latencies)]
    metrics = {
        "setup_s": statistics.median(s / f for s, f in probes),
        "wall_s": statistics.median(w / f for w, f in zip(walls, slow)),
        "op_ms_p50": float(np.percentile(lat_ms, 50)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / len(ledger.latencies),
        "max_rel_err": max([FLOORS["max_rel_err"]] + [c.err for c in checks]),
        "entropy_dip_max": max([FLOORS["entropy_dip_max"]] + [c.dip for c in checks]),
        "constraint_drift_max": max([FLOORS["constraint_drift_max"]] + [c.drift for c in checks]),
    }
    raw_ms = [1e3 * s for s in ledger.latencies]
    info = {"passes": len(walls), "ops_per_pass": len(ops),
            "setup_samples": [s for s, _ in probes],
            "setup_slowness": [f for _, f in probes],
            "pass_slowness_median": statistics.median(slow),
            "raw": {"setup_s": statistics.median(s for s, _ in probes),
                    "wall_s": statistics.median(walls),
                    "op_ms_p50": float(np.percentile(raw_ms, 50)),
                    "op_ms_p90": float(np.percentile(raw_ms, 90))}}
    return ledger, failed, notes, metrics, info


def per_layer(args, cli, workloads, ops, workdir):
    import tracing
    ledger = Ledger(ops)
    run_op(cli, ops[0], workdir)  # warm-up
    untraced, traced, summaries, first = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    op_id = 0
    while True:
        untraced.append(run_pass(cli, ops, ledger, workdir))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(cli, ops, ledger, workdir, tracer, op_id))
        finally:
            tracer.uninstall()
        op_id += len(ops)
        summaries.append(tracing.summarize(tracer))
        first = first or tracer
        if time.perf_counter() >= deadline:
            break
    failed, checks, notes = ledger.check(workloads)

    units = tracing.metric_units()
    metrics = {}
    for name, unit in units.items():
        values = [s[name] for s in summaries]
        if unit in ("s", "us"):
            metrics[name] = statistics.median(values)
        else:  # machine-independent counts must repeat exactly
            if len(set(values)) != 1:  # counted as one failed operation
                notes.append(f"counter {name} differs between traced passes: {values}")
                failed += 1
            metrics[name] = values[0]
    metrics.update({
        "cli.rows_out": sum(c.rows for c in checks),
        "cli.bytes_out": sum(len(r.text.encode()) + len(r.stdout.encode())
                             for r in ledger.first),
        "trace.wall_s": statistics.median(traced),
        "trace.untraced_wall_s": statistics.median(untraced),
        # paired with the untraced pass just before it, so slow drift cancels
        "trace.overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
    })
    spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": environment(),
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "names": first.names, "spans": first.spans,
    }))
    info = {"passes": len(traced), "ops_per_pass": len(ops), "spans_file": str(spans_file)}
    return ledger, failed, notes, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "srbflow" / "__init__.py").is_file():
        print(f"error: srbflow sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    sys.path.insert(0, str(SRC))
    import srbflow.cli as cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported srbflow from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    ops = workloads.make_pass(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if args.setup_probe:
            run_op(cli, ops[0], workdir)
            print("ready", flush=True)
            return 0
        spec = json.loads(spec_file.read_text())
        wanted = {m["name"]: m["unit"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]}
        print("# environment " + json.dumps(environment()))
        measure = per_layer if args.trace else end_to_end
        ledger, failed, notes, metrics, info = measure(args, cli, workloads, ops, workdir)

    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} differ from "
              f"{spec_file.name}", file=sys.stderr)
        return 2
    for note in notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)
    attempted = len(ledger.latencies)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={attempted} "
          f"failed={failed} " + json.dumps(info))
    for name, unit in wanted.items():
        print(f"#   {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
