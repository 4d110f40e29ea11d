"""Fixed-step time integration of the four dynamical systems.

Each system is packaged as a FlowSystem: a right-hand side on a flat numpy
state vector plus monitor callbacks (entropy, gradient norm, constraint
residual).  rhs(x) is evaluated once per state: it is the next step's
first stage, and grad_norm maps it to a float at each record.  records
steps the state and yields each record as live arrays, which the next step
overwrites, so a caller that reduces each record as it comes (the riesz
CLI) holds O(state) memory; integrate collects the records into a stack
allocated up front and runs the entropy and constraint monitors once per
run, on that stack.  Explicit Euler is the default stepper; classical RK4
is available when tighter monotonicity tolerances are needed.  RK4 sums its
stages in the arrays the rhs returned, so an rhs returns a fresh array.

A state of independent fibers (FlowSystem.fiber; the Riesz flow's n
translates of each grid node) is stepped in column blocks of its (fiber, M)
view, BLOCK_ELEMENTS values each.  Between two records each block runs all
the steps (stages, their sum and the next state's rhs) while its arrays stay
in cache, as one task of _pool, the process's threads, one per CPU core.  A
state of one block is stepped flat on the calling thread.  Each value gets
the whole-array arithmetic, so no bit of the trajectory depends on the
blocking or the core count.  Records are taken on the calling thread.
Every entropy and constraint monitor is one function on a stack of states,
lifted by _monitor to one state and to row slices of a stack; the Riesz
monitors reduce a long row in leaves and column blocks of at most
MONITOR_ELEMENTS values (tree_sum follows numpy's own pairwise summation
tree, so each sum keeps its bits), so a riesz run holds two grid states, x
and r, plus a few blocks of temporaries per core.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, StepError
from .spectral import DEFAULT_GRID
from .entropy import (MONITOR_ELEMENTS, _add, _finite, _max, _odd_kernel, gibbs_entropy,
                      odd_frequencies, simplex_rhs, tree_sum)


@dataclass
class FlowConfig:
    """Integration parameters; defaults mirror the reference simulation
    (Euler, step 0.1)."""

    t_end: float
    dt: float = 0.1
    method: str = "euler"
    record_every: int = 1

    def __post_init__(self):
        if not (0 < self.dt <= self.t_end and np.isfinite(self.t_end / self.dt)):
            raise ValueError("need 0 < dt <= t_end and a finite t_end / dt")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end / dt = {steps:.6g} is not a whole number of steps")
        if self.method not in ("euler", "rk4"):
            raise ValueError("method must be 'euler' or 'rk4'")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n_records, state_dim)
    entropy: np.ndarray
    grad_norm: np.ndarray
    constraint_residual: np.ndarray


def _monitor(fn, samples: int | None = None) -> Callable:
    """The monitor of fn, which maps a stack of states to one value per row: a
    float for one state, and for a stack fn on row slices of at most
    MONITOR_ELEMENTS samples (`samples` per row, else the state size)."""
    def monitor(x):
        if x.ndim == 1:
            return float(fn(x[None])[0])
        rows = max(1, MONITOR_ELEMENTS // (samples or x.shape[1]))
        return np.concatenate([fn(x[i:i + rows]) for i in range(0, len(x), rows)])
    return monitor


@dataclass(frozen=True)
class FlowSystem:
    """A right-hand side with its monitors, all on flat state vectors."""

    # returns a fresh array: the RK4 step writes into it
    rhs: Callable[[np.ndarray], np.ndarray]
    # entropy and constraint_residual map one state (dim,) to a float and a
    # stack (rows, dim) to one value per row, the one-state call's bit for bit
    entropy: Callable[[np.ndarray], np.ndarray | float]
    # 0 for the degree-2 systems: odd harmonics satisfy the constraint identically
    constraint_residual: Callable[[np.ndarray], np.ndarray | float] = \
        _monitor(lambda X: np.zeros(len(X)))
    # the norm of the gradient from the rhs value r = rhs(x)
    grad_norm: Callable[[np.ndarray], float] = lambda r: math.sqrt(r.dot(r))
    # length of the independent fibers, the rows of x.reshape(fiber, -1) whose
    # columns evolve apart; None: the state is one coupled system.  The rhs of
    # a fiber system runs on _pool's threads, on several blocks at once, so it
    # keeps no state between calls, and it must not itself step a multi-block
    # state: that map would wait on the pool its own call occupies
    fiber: int | None = None


# ---------------------------------------------------------------------------
# The individual systems
# ---------------------------------------------------------------------------


def riesz_system(degree: int) -> FlowSystem:
    """L2 gradient flow on grid samples of h (any degree n >= 2).

    At each grid node y the n translated values evolve by simplex_rhs, so
    the constraint sum_i h(y+i) = 1 is preserved.  An n-point state is a
    single fiber (x_1, ..., x_n) = (h(y), h(y+1), ..., h(y+n-1)): the
    simplex flow.  Both monitors reduce each row in leaves and column blocks
    of at most MONITOR_ELEMENTS values: no temporary is state-sized."""
    if degree < 2:
        raise ValueError("degree must be >= 2")

    def residual(X):
        """max |sum_i h(y+i) - 1| of each row, by column blocks of its (n, M)
        view: each column sums in row order and max is exact, in any blocking."""
        if X.shape[1] % degree:
            raise ValueError("grid size must be divisible by the degree")
        T, w = X.reshape(len(X), degree, -1), MONITOR_ELEMENTS
        return _max([_max(np.abs(_add(T[..., j:j + w], 1) - 1.0), 1)
                     for j in range(0, T.shape[2], w)], 0)

    return FlowSystem(
        rhs=lambda x: simplex_rhs(x, degree),
        entropy=_monitor(lambda X: gibbs_entropy(X, degree / X.shape[1])),
        constraint_residual=_monitor(residual),
        grad_norm=lambda r: math.sqrt(degree / r.size * tree_sum(lambda v: v * v, r)),
        fiber=degree,
    )


def galerkin_system_n2(n_points: int = DEFAULT_GRID, use_pde: bool = False) -> FlowSystem:
    """Degree-2 flow on the packed state [a_1, a_3, ...; b_1, b_3, ...]: the
    odd-mode kernel on the flat amplitudes s x (s = pi k on each half), scaled back by s."""

    def rhs(x):
        f = _odd_kernel(x.size // 2, n_points, 2)
        return f.rhs(f.s * x, use_pde) / f.s

    def entropy(X):
        f = _odd_kernel(X.shape[1] // 2, n_points, 2)
        return f.entropy(f.s * X)

    return FlowSystem(rhs=rhs, entropy=_monitor(entropy, n_points))


def even_galerkin_system(n_points: int = DEFAULT_GRID, use_pde: bool = False) -> FlowSystem:
    """Even-case flow on the amplitudes B (pure cosine densities)."""
    return FlowSystem(
        rhs=lambda B: _odd_kernel(B.size, n_points, 1).rhs(B, use_pde),
        entropy=_monitor(lambda B: _odd_kernel(B.shape[1], n_points, 1).entropy(B), n_points),
    )


def heat_reference(B0, t: float) -> np.ndarray:
    """Exact heat-equation (u_t = u_xx) evolution of the even-case modes on
    the period-2pi circle: B_k(t) = B_k(0) exp(-(2k-1)^2 t)."""
    B0 = np.atleast_1d(np.asarray(B0, dtype=float))
    if not t >= 0:  # negated, so NaN fails too
        raise ValueError("t must be >= 0")
    k = odd_frequencies(B0.size)
    return B0 * np.exp(-(k.astype(float) ** 2) * t)


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------


# values per fiber block: 512 KiB per array.  A block-step makes about 40 numpy
# calls, each releasing and retaking the interpreter lock, so on 2 cores small
# blocks spend their time handing the lock over (2^13: 906 ms wall against
# 657 ms on 1 core); large ones fall out of the 2 MiB L2.  RK4 on 2^21 values,
# 8 rounds of integrate, wall on 1 / 2 cores: 2^15 514 / 417 ms, 2^16
# 498 / 334 ms, 2^17 553 / 376 ms, the fastest of 2^13 ... 2^18 on both
BLOCK_ELEMENTS = 2**16


def _euler_step(rhs, x, k1, dt):
    return x + dt * k1


def _rk4_step(rhs, x, k1, dt):
    """x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), summed in that order into k2."""
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    k2 *= 2.0
    k2 += k1
    k2 += np.multiply(k3, 2.0, out=k3)
    k2 += k4
    return np.add(x, np.multiply(k2, dt / 6.0, out=k2), out=k2)


def _cores() -> int:
    """The number of CPU cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _pool():
    """The process's fiber-block threads, one per core, built on the first multi-block
    record; concurrent.futures is imported here, so a one-block run never loads it."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_cores(), thread_name_prefix="srbflow")


def _blocks(x: np.ndarray, r: np.ndarray, fiber: int | None) -> list[tuple]:
    """Column blocks b of the (fiber, M) views of x and r, which step apart, as
    matching views (b, x_b, r_b); a coupled state or one block: the flat arrays."""
    if fiber is None or x.size <= BLOCK_ELEMENTS:
        return [(0, x, r)]
    X, R = x.reshape(fiber, -1), r.reshape(fiber, -1)
    width = max(1, BLOCK_ELEMENTS // fiber)
    return [(b, X[:, j:j + width], R[:, j:j + width])
            for b, j in enumerate(range(0, X.shape[1], width))]


def _record_steps(cfg: FlowConfig) -> tuple[int, Iterator[int]]:
    """The number of records and, lazily, the steps taken at each: every
    record_every-th, then the last."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    every = range(0, n_steps, cfg.record_every)
    return len(every) + 1, itertools.chain(every, (n_steps,))


def records(system: FlowSystem, initial,
            cfg: FlowConfig) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Fixed-step integration, yielding (t, x, r) at each record: the state x
    and its rhs r = system.rhs(x) as live arrays, which the next step
    overwrites in place, so a caller copies what it keeps.

    Raises DomainError if the state leaves the valid region and StepError
    if a step produces a non-finite value, naming the step and its time; on
    a state of several blocks, the first failure in (step, block) order.
    """
    x = np.array(initial, dtype=float)
    del initial  # stepping reads only the copy: a caller's start is not held here
    step = _euler_step if cfg.method == "euler" else _rk4_step
    r = np.empty_like(x)
    blocks = _blocks(x, r, system.fiber)
    steps = range(0)

    def run(block):
        """Run the steps up to the next record (step 0: the initial rhs only)
        on one block; its first failure as (step, block, error), else None."""
        b, xb, rb = block
        for i in steps:
            try:
                if i:
                    xb[...] = step(system.rhs, xb, rb, cfg.dt)
                    if not _finite(xb):
                        raise StepError("non-finite state")
                rb[...] = system.rhs(xb)
            except Exception as e:  # ranked against the other blocks' failures
                return i, b, e
        return None

    for stop in _record_steps(cfg)[1]:
        steps = range(steps.stop, stop + 1)
        failures = [f for f in (_pool().map if len(blocks) > 1 else map)(run, blocks) if f]
        if failures:  # the first in (step, block) order, as a step-by-step pass meets it
            i, _, e = min(failures, key=lambda f: f[:2])
            if isinstance(e, (DomainError, StepError)):
                raise type(e)(f"{e} at step {i} (t = {i * cfg.dt:.6g})") from e
            raise e
        yield stop * cfg.dt, x, r


def integrate(system: FlowSystem, initial, cfg: FlowConfig) -> Trajectory:
    """The records of records(system, initial, cfg) as one Trajectory:
    grad_norm is taken at each record, the other monitors once, on the
    stack of recorded states.  Raises what records raises, and ValueError
    if a stacked monitor does not give one value per record."""
    n_records = _record_steps(cfg)[0]
    times, grad_norm = np.empty(n_records), np.empty(n_records)
    states = np.empty((n_records, np.size(initial)))
    for j, (t, x, r) in enumerate(records(system, initial, cfg)):
        times[j], states[j], grad_norm[j] = t, x, system.grad_norm(r)
    # every recorded state passed the rhs's domain guard, so the monitors' cannot fire
    entropy, residual = system.entropy(states), system.constraint_residual(states)
    for name, values in (("entropy", entropy), ("constraint_residual", residual)):
        if np.shape(values) != (n_records,):
            raise ValueError(f"{name} gave shape {np.shape(values)} on {n_records} records")
    return Trajectory(times, states, entropy, grad_norm, residual)
