"""Per-layer tracing of srbflow from outside the program.

`Tracer.install` replaces every public function of the five working modules
(`cli`, `flow`, `entropy`, `spectral`, `verify`) with a wrapper that records
a span, at every module binding that holds it: `srbflow.flow.riesz_gradient`
is wrapped as well as `srbflow.entropy.riesz_gradient`. It also makes each
`FlowSystem` built during the run record spans around its right-hand side
(`flow.rhs`) and its three monitors (`flow.monitor.*`). `uninstall` puts
the original objects back. The source files are not touched.

A span is [name id, start, end, parent span, op id]; spans stay in memory
and `summarize` turns one pass of them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "flow", "entropy", "spectral", "verify")
MONITORS = ("entropy", "grad_norm", "constraint_residual")


# ---------------------------------------------------------------------------
# Computed work of the right-hand-side kernels
#
# Element counts are summed over the whole-array numpy passes of each
# kernel as written when the benchmark was defined (reads + writes, O(K)
# work dropped); bytes are 8 per element. They are computed from N (grid)
# and K (modes) or n (degree), not measured, and ignore cache behaviour.
# ---------------------------------------------------------------------------


def _even_counts(K, N):
    # tau 3N, outer N+NK, sin 2NK, cos 2NK, cos@B NK+N, +0.5 2N, min/max 2N,
    # sin@kB NK+N, num/h 3N, (num/h)@sin N+NK
    return 2 * N * K, 8 * (14 * N + 8 * N * K)


def _n2_counts(K, N):
    # y 3N, pi*outer N+3NK, cos/sin 4NK, u_y 2NK+13N, u_yy 2NK+7N,
    # ratio 3N, two projections 2NK+2N
    return 2 * N * K, 8 * (29 * N + 13 * N * K)


def _riesz_counts(n, N):
    # min/max 2N, log 2N, fiber sum N+M, /n 2M, tile M+N, -logs 2N, add 3N
    return 0, 8 * (11 * N + 4 * (N // n))


def _simplex_counts(n):
    # floor test 3n, log 2n, mean n, -logs 2n, add 2n
    return 0, 8 * 10 * n


def _n_points(args, kwargs, default):
    return args[1] if len(args) > 1 else kwargs.get("n_points", default)


def _riesz_note(args, kwargs, default):
    h = args[0]
    samples = getattr(h.rep, "samples", None)
    N = samples.size if samples is not None else _n_points(args, kwargs, default)
    return _riesz_counts(h.degree, N - N % h.degree)


KERNELS = {
    "entropy.galerkin_rhs_even": lambda a, k, d: _even_counts(len(a[0]), _n_points(a, k, d)),
    "entropy.pde_rhs_even": lambda a, k, d: _even_counts(len(a[0]), _n_points(a, k, d)),
    "entropy.sobolev_gradient_n2": lambda a, k, d: _n2_counts(a[0].a.size, _n_points(a, k, d)),
    "entropy.pde_rhs_n2": lambda a, k, d: _n2_counts(a[0].a.size, _n_points(a, k, d)),
    "entropy.riesz_gradient": _riesz_note,
    "flow.simplex_rhs": lambda a, k, d: _simplex_counts(len(a[0])),
}
TRIG_FREE = ("entropy.riesz_gradient", "flow.simplex_rhs")

# (span name, stats reported for it)
FUNCTION_STATS = {
    **{name: ("calls", "us_per_call") for name in KERNELS},
    "cli.main": ("calls",),
    "flow.integrate": ("calls", "s"),
    "entropy.density_samples": ("calls", "s"),
    "entropy.entropy": ("calls", "s"),
    "entropy.gateaux_h": ("calls", "s"),
    "entropy.even_entropy": ("calls", "s"),
    "entropy.flow_density": ("calls", "s"),
    "spectral.to_grid": ("calls", "s"),
    "spectral.evaluate": ("calls", "s"),
    "spectral.translate_sums": ("calls", "s"),
    "verify.run_all": ("calls", "s"),
    "verify.equilibrium_check": ("s",),
    "verify.fd_derivative_check": ("s",),
    "verify.riesz_identity_check": ("s",),
    "verify.gradient_maximality_check": ("s",),
    "verify.ode_pde_proportionality_check": ("s",),
    "verify.random_tangent": ("calls",),
    "verify.random_density": ("calls",),
}
STAT_UNITS = {"calls": "count", "s": "s", "us_per_call": "us"}


def metric_units() -> dict[str, str]:
    """Every metric `summarize` returns, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({
        "flow.steps": "count", "flow.rhs_calls": "count",
        "flow.rhs_calls_per_step": "calls/step",
        "flow.rhs_calls_per_step.euler_every1": "calls/step",
        "flow.rhs_s": "s", "flow.monitor_s": "s", "flow.monitor_calls": "count",
        "trace.spans": "count",
    })
    for name, stats in FUNCTION_STATS.items():
        units.update({f"{name}.{stat}": STAT_UNITS[stat] for stat in stats})
    for name in KERNELS:
        if name not in TRIG_FREE:
            units[f"{name}.trig_per_call_computed"] = "evals/call"
        units[f"{name}.bytes_per_call_computed"] = "B/call"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.notes: dict[int, tuple] = {}  # span index -> kernel (trig, bytes)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, note=None):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            if note is not None:
                notes[index] = note(args, kwargs)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        package = importlib.import_module("srbflow")
        modules = {layer: importlib.import_module(f"srbflow.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, self._note(name, obj)))
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        self._patch(modules["flow"], "FlowSystem", self._traced_system(modules["flow"].FlowSystem))

    def uninstall(self):
        while self._patches:
            namespace, attr, value = self._patches.pop()
            setattr(namespace, attr, value)

    def _note(self, name, fn):
        if name == "flow.integrate":
            def steps(args, kwargs):
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                return int(round(cfg.t_end / cfg.dt)), cfg.method, cfg.record_every
            return steps
        counts = KERNELS.get(name)
        if counts is None:
            return None
        param = inspect.signature(fn).parameters.get("n_points")
        default = param.default if param is not None else None
        return lambda args, kwargs: counts(args, kwargs, default)

    def _traced_system(self, cls):
        def make(*args, **kwargs):
            system = cls(*args, **kwargs)
            # rhs first: the default grad_norm calls self.rhs at call time
            object.__setattr__(system, "rhs", self.wrap("flow.rhs", system.rhs))
            for monitor in MONITORS:
                object.__setattr__(system, monitor,
                                   self.wrap(f"flow.monitor.{monitor}", getattr(system, monitor)))
            return system
        return make


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded by one traced pass."""
    spans, names = tracer.spans, tracer.names
    span_name = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    calls, incl = Counter(span_name), defaultdict(float)
    self_s = defaultdict(float)
    for i, name in enumerate(span_name):
        incl[name] += dur[i]
        self_s[name.split(".")[0]] += dur[i] - child[i]

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    # flow.self_s: integrate minus its children, i.e. the step loop, the
    # stepper's stage arithmetic, finiteness check and record copies (rhs and
    # monitors are reported apart)
    out["flow.self_s"] = sum(dur[i] - child[i] for i, name in enumerate(span_name)
                             if name == "flow.integrate")

    # An rhs call is an outermost kernel span inside integrate, whether the
    # stepper or a monitor made it (the Riesz grad_norm bypasses system.rhs).
    # Per step, the calls of the record at t = 0, before step 1, are left out.
    first_norm, rhs_all, rhs_t0 = {}, Counter(), Counter()
    for i, name in enumerate(span_name):
        if name == "flow.monitor.grad_norm":
            first_norm.setdefault(spans[i][3], i)
    for i, name in enumerate(span_name):
        if name not in KERNELS:
            continue
        parent, monitor = spans[i][3], None
        while parent >= 0 and span_name[parent] not in KERNELS \
                and span_name[parent] != "flow.integrate":
            if span_name[parent] == "flow.monitor.grad_norm":
                monitor = parent
            parent = spans[parent][3]
        if parent >= 0 and span_name[parent] == "flow.integrate":
            rhs_all[parent] += 1
            rhs_t0[parent] += monitor is not None and first_norm.get(parent) == monitor
    steps = {i: tracer.notes[i] for i, name in enumerate(span_name) if name == "flow.integrate"}

    def per_step(keep):
        chosen = [i for i, (_, method, every) in steps.items() if keep(method, every)]
        n = sum(steps[i][0] for i in chosen)
        return sum(rhs_all[i] - rhs_t0[i] for i in chosen) / n if n else 0.0

    out.update({
        "flow.steps": sum(s[0] for s in steps.values()),
        "flow.rhs_calls": sum(rhs_all.values()),
        "flow.rhs_calls_per_step": per_step(lambda method, every: True),
        "flow.rhs_calls_per_step.euler_every1":
            per_step(lambda method, every: method == "euler" and every == 1),
        "flow.rhs_s": incl["flow.rhs"],
        "flow.monitor_s": sum(incl[f"flow.monitor.{m}"] for m in MONITORS),
        "flow.monitor_calls": sum(calls[f"flow.monitor.{m}"] for m in MONITORS),
        "trace.spans": len(spans),
    })
    for name, stats in FUNCTION_STATS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = {
                "calls": calls[name], "s": incl[name],
                "us_per_call": 1e6 * incl[name] / calls[name] if calls[name] else 0.0,
            }[stat]
    for name in KERNELS:
        noted = [tracer.notes[i] for i, n in enumerate(span_name) if n == name]
        for k, stat in enumerate(("trig_per_call_computed", "bytes_per_call_computed")):
            if k == 0 and name in TRIG_FREE:
                continue
            out[f"{name}.{stat}"] = sum(c[k] for c in noted) / len(noted) if noted else 0.0
    return out
