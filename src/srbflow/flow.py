"""Fixed-step time integration of the four dynamical systems.

Each system is packaged as a FlowSystem: a right-hand side on a flat numpy
state vector plus monitor callbacks (entropy, gradient norm, constraint
residual).  rhs(x) is evaluated once per state: it is the next step's
first stage, and grad_norm maps it to a float at each record.  integrate
calls the entropy and constraint monitors once per run, on the stack of
recorded states.  Explicit Euler is the default stepper; classical RK4 is
available when tighter monotonicity tolerances are needed.  RK4 sums its
stages in the arrays the rhs returned, so an rhs returns a fresh array.

A state of independent fibers (FlowSystem.fiber; the Riesz flow's n
translates of each grid node) is stepped in column blocks of its (fiber, M)
view, BLOCK_ELEMENTS values each.  Between two records each block runs all
the steps (stages, their sum and the next state's rhs) while its arrays stay
in cache, and _on_cores shares the blocks out over the CPU cores, one
contiguous share per core.  A state of one block is stepped flat on the
calling thread.  Each value gets the whole-array arithmetic, so no bit of
the trajectory depends on the blocking or the core count.  Records go into
arrays allocated up front and are taken on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, StepError
from .spectral import DEFAULT_GRID, _on_cores, translate_sums
from .entropy import _odd_kernel, gibbs_entropy, odd_frequencies, simplex_rhs


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
    simplex flow."""

    return FlowSystem(
        rhs=lambda x: simplex_rhs(x, degree),
        entropy=_monitor(lambda X: gibbs_entropy(X, degree / X.shape[1])),
        constraint_residual=_monitor(lambda X: np.abs(translate_sums(X, degree) - 1.0).max(axis=1)),
        grad_norm=lambda r: math.sqrt(degree / r.size * np.add.reduce(r * r, None)),
        fiber=degree,
    )


def galerkin_system_n2(n_points: int = DEFAULT_GRID, use_pde: bool = False) -> FlowSystem:
    """Degree-2 flow on the packed state [a_1, a_3, ...; b_1, b_3, ...]: the
    odd-mode kernel on the amplitudes s [a; b], s = pi k, scaled back by s."""

    def rhs(x):
        f = _odd_kernel(x.size // 2, n_points, 2, use_pde)
        return (f.rhs(f.s * x.reshape(2, -1)) / f.s).ravel()

    def entropy(X):
        f = _odd_kernel(X.shape[1] // 2, n_points, 2, use_pde)
        return f.entropy(f.s * X.reshape(len(X), 2, -1))

    return FlowSystem(rhs=rhs, entropy=_monitor(entropy, n_points))


def even_galerkin_system(n_points: int = DEFAULT_GRID, use_pde: bool = False) -> FlowSystem:
    """Even-case flow on the amplitudes B (pure cosine densities)."""
    return FlowSystem(
        rhs=lambda B: _odd_kernel(B.size, n_points, 1, use_pde).rhs(B),
        entropy=_monitor(lambda B: _odd_kernel(B.shape[1], n_points, 1, use_pde)
                         .entropy(B[:, None]), n_points),
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


def _blocks(x: np.ndarray, r: np.ndarray, fiber: int | None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Matching views (x_b, r_b) of x and r that step independently: column
    blocks of the (fiber, M) views, or the flat arrays if one block holds
    the whole state."""
    if fiber is None or x.size <= BLOCK_ELEMENTS:
        return [(x, r)]
    X, R = x.reshape(fiber, -1), r.reshape(fiber, -1)
    width = max(1, BLOCK_ELEMENTS // fiber)
    return [(X[:, j:j + width], R[:, j:j + width]) for j in range(0, X.shape[1], width)]


def integrate(system: FlowSystem, initial, cfg: FlowConfig) -> Trajectory:
    """Fixed-step integration; grad_norm is taken at each record, the other
    monitors once, on the stack of recorded states.

    Raises DomainError if the state leaves the valid region and StepError
    if a step produces a non-finite value, naming the step and its time; on
    a state of several blocks, the first failure in (step, block) order.
    """
    x = np.array(initial, dtype=float)
    step = _euler_step if cfg.method == "euler" else _rk4_step
    n_steps = int(round(cfg.t_end / cfg.dt))
    n_records = n_steps // cfg.record_every + 1 + (n_steps % cfg.record_every > 0)
    times, grad_norm = np.empty(n_records), np.empty(n_records)
    states = np.empty((n_records, x.size))
    r = np.empty_like(x)
    blocks = list(enumerate(_blocks(x, r, system.fiber)))
    steps = range(0)

    def run(share):
        """Run the steps up to the next record (step 0: the initial rhs only)
        on each block of share, block after block; each block's first
        failure as (step, block, error)."""
        failures = []
        for b, (xb, rb) in share:
            for i in steps:
                try:
                    if i:
                        xb[...] = step(system.rhs, xb, rb, cfg.dt)
                        if not np.logical_and.reduce(np.isfinite(xb), None):
                            raise StepError("non-finite state")
                    rb[...] = system.rhs(xb)
                except Exception as e:  # ranked against the other blocks' failures
                    failures.append((i, b, e))
                    break
        return failures

    for j in range(n_records):
        stop = min(j * cfg.record_every, n_steps)
        steps = range(steps.stop, stop + 1)
        failures = _on_cores(run, blocks)
        if any(failures):  # the first in (step, block) order, as a step-by-step pass meets it
            i, _, e = min((f for share in failures for f in share), key=lambda f: f[:2])
            if isinstance(e, (DomainError, StepError)):
                raise type(e)(f"{e} at step {i} (t = {i * cfg.dt:.6g})") from e
            raise e
        times[j], states[j], grad_norm[j] = stop * cfg.dt, x, system.grad_norm(r)
    # every recorded state passed the rhs's domain guard, so the monitors' cannot fire
    return Trajectory(times, states, system.entropy(states), grad_norm,
                      system.constraint_residual(states))
