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
in cache, and _on_threads runs them in contiguous shares, one per CPU
core, split once per run.  A state of one block is stepped flat on the
calling thread.  Each value gets the whole-array arithmetic, so no bit of
the trajectory depends on the blocking or the core count.  Records are
taken on the calling thread.  The Riesz monitors of one state reduce it in
leaves of at most MONITOR_ELEMENTS values (tree_sum follows numpy's own
pairwise summation tree, so each sum keeps its bits), so a riesz run holds
two grid states, x and r, plus a few blocks of temporaries per core.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, StepError
from .spectral import DEFAULT_GRID, translate_sums
from .entropy import (_add, _finite, _guarded, _max, _odd_kernel, gibbs_entropy, odd_frequencies,
                      simplex_rhs)


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


def tree_sum(f, a: np.ndarray):
    """np.add.reduce(f(a), None) bit for bit, for a contiguous 1-d array a and an
    elementwise f, in leaves of at most MONITOR_ELEMENTS (>= 128) values: numpy sums
    n > 128 values pairwise, split at n // 2 - (n // 2) % 8 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 4.2), and so does this."""
    n = a.size
    if n <= MONITOR_ELEMENTS:
        return _add(f(a), None)
    n2 = n // 2 - n // 2 % 8
    return tree_sum(f, a[:n2]) + tree_sum(f, a[n2:])


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
    # columns evolve apart; None: the state is one coupled system.  integrate
    # calls the rhs of a fiber system on several blocks from several threads
    # at once, so that rhs must keep no state between calls
    fiber: int | None = None


# ---------------------------------------------------------------------------
# The individual systems
# ---------------------------------------------------------------------------


def riesz_system(degree: int) -> FlowSystem:
    """L2 gradient flow on grid samples of h (any degree n >= 2).

    At each grid node y the n translated values evolve by simplex_rhs, so
    the constraint sum_i h(y+i) = 1 is preserved.  An n-point state is a
    single fiber (x_1, ..., x_n) = (h(y), h(y+1), ..., h(y+n-1)): the
    simplex flow.  One state's monitors reduce it in leaves and column blocks,
    with no state-sized temporary and the bits of the stacked form."""
    if degree < 2:
        raise ValueError("degree must be >= 2")
    stacked_entropy = _monitor(lambda X: gibbs_entropy(X, degree / X.shape[1]))
    stacked_residual = _monitor(lambda X: np.abs(translate_sums(X, degree) - 1.0).max(axis=1))

    def s_ln_s(s):
        t = np.log(s)
        return np.multiply(s, t, out=t)

    def entropy(x):
        if x.ndim > 1:
            return stacked_entropy(x)
        # the guard reads the whole state, so its message names the state's min and max
        return float(-(degree / x.size) * tree_sum(s_ln_s, _guarded(x)))

    def constraint_residual(x):
        if x.ndim > 1 or x.size % degree:  # a ragged grid: translate_sums' ValueError
            return stacked_residual(x)
        # column sums in row order and their max are exact in any blocking
        X, w = x.reshape(degree, -1), MONITOR_ELEMENTS
        return float(_max([_max(np.abs(_add(X[:, j:j + w], 0) - 1.0), None)
                           for j in range(0, X.shape[1], w)], None))

    return FlowSystem(
        rhs=lambda x: simplex_rhs(x, degree),
        entropy=entropy,
        constraint_residual=constraint_residual,
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
# samples per row slice of a stacked monitor: 64 KiB per temporary, taken from the
# heap, not fresh pages (2^15 raised a Galerkin run's peak RSS by 1.6 MB, and was slower)
MONITOR_ELEMENTS = 2**13


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


def _shares(x: np.ndarray, r: np.ndarray, fiber: int | None) -> list[list[tuple]]:
    """Column blocks b of the (fiber, M) views of x and r, which step apart, as
    matching views (b, x_b, r_b) in contiguous shares, one per core (at most
    one per block); a coupled state or one block: the flat arrays, one share."""
    if fiber is None or x.size <= BLOCK_ELEMENTS:
        return [[(0, x, r)]]
    X, R = x.reshape(fiber, -1), r.reshape(fiber, -1)
    width = max(1, BLOCK_ELEMENTS // fiber)
    blocks = [(b, X[:, j:j + width], R[:, j:j + width])
              for b, j in enumerate(range(0, X.shape[1], width))]
    n = min(len(blocks), _cores())
    return [blocks[len(blocks) * c // n:len(blocks) * (c + 1) // n] for c in range(n)]


def _on_threads(fn, shares: list) -> list:
    """[fn(share), ...]: the calling thread runs the first share and a plain
    thread each other one; numpy releases the interpreter lock inside its
    array loops, so the shares run at once.  Once every share has finished,
    the first exception in share order is re-raised here.  One share runs
    here directly, with no thread and no bookkeeping: a one-block state
    takes this path once per record."""
    if len(shares) == 1:
        return [fn(shares[0])]
    results, errors = [None] * len(shares), [None] * len(shares)

    def run(c):
        try:
            results[c] = fn(shares[c])
        except BaseException as e:  # re-raised on the calling thread below
            errors[c] = e

    threads = [threading.Thread(target=run, args=(c,)) for c in range(1, len(shares))]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for e in errors:
        if e is not None:
            raise e
    return results


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
    shares = _shares(x, r, system.fiber)
    steps = range(0)

    def run(share):
        """Run the steps up to the next record (step 0: the initial rhs only)
        on each block of share, block after block; each block's first
        failure as (step, block, error)."""
        failures = []
        for b, xb, rb in share:
            for i in steps:
                try:
                    if i:
                        xb[...] = step(system.rhs, xb, rb, cfg.dt)
                        if not _finite(xb):
                            raise StepError("non-finite state")
                    rb[...] = system.rhs(xb)
                except Exception as e:  # ranked against the other blocks' failures
                    failures.append((i, b, e))
                    break
        return failures

    for stop in _record_steps(cfg)[1]:
        steps = range(steps.stop, stop + 1)
        failures = _on_threads(run, shares)
        if any(failures):  # the first in (step, block) order, as a step-by-step pass meets it
            i, _, e = min((f for share in failures for f in share), key=lambda f: f[:2])
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
