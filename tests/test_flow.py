import dataclasses
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from srbflow import entropy, flow
from srbflow.entropy import _guarded, _odd_kernel, c_squared, riesz_gradient, simplex_rhs
from srbflow.errors import DomainError, StepError
from srbflow.flow import (
    FlowConfig,
    FlowSystem,
    even_galerkin_system,
    galerkin_system_n2,
    heat_reference,
    integrate,
    records,
    riesz_system,
    tree_sum,
)
from srbflow.spectral import FourierRep, GridRep, InverseDerivative, grid_points_for, to_grid


def cos_quarter_samples(n_points=1024):
    n_pts = grid_points_for(2, n_points)
    return to_grid(FourierRep(2.0, 0.5, [0.25], [0.0]), n_pts).samples


def test_simplex_rhs_equilibrium():
    assert np.all(simplex_rhs(np.array([0.5, 0.5]), 2) == 0.0)
    assert np.all(simplex_rhs(np.full(3, 1.0 / 3.0), 3) == 0.0)


def test_simplex_rhs_values():
    out = simplex_rhs(np.array([0.3, 0.7]), 2)
    expect = 0.5 * np.log(7.0 / 3.0)
    assert out[0] == pytest.approx(expect, rel=1e-14)
    assert out[1] == pytest.approx(-expect, rel=1e-14)


def test_simplex_rhs_sums_to_zero():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 8):
        x = rng.uniform(0.5, 1.5, n)
        x /= x.sum()
        assert abs(simplex_rhs(x, n).sum()) < 1e-14


def test_simplex_rhs_domain_guard():
    with pytest.raises(DomainError):
        simplex_rhs(np.array([1e-12, 1.0 - 1e-12]), 2)


# On a 3-point grid the values 1/2 + amp cos(2 pi j / 3) are (1/2 + amp,
# 1/2 - amp/2, 1/2 - amp/2), so amp = -1/2 touches 0 only and amp = 1/2
# touches 1 only (an even grid would give h(y+1) = 1 - h(y) for n = 2).
GUARDED = {
    "simplex_rhs": lambda amp: riesz_system(3).rhs(
        0.5 + amp * np.cos(2 * np.pi * np.arange(3) / 3)),
    "galerkin_rhs_even": lambda amp: even_galerkin_system(n_points=3).rhs(np.array([amp])),
    "n2_entropy_monitor": lambda amp: galerkin_system_n2(n_points=3).entropy(
        np.array([0.0, amp / np.pi])),
}


@pytest.mark.parametrize("amp, lo, hi", [(-0.5, 0.0, 0.75), (0.5, 0.25, 1.0)],
                         ids=["touches_0", "touches_1"])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_domain_guard_names_min_and_max(name, amp, lo, hi):
    with pytest.raises(DomainError) as exc:
        GUARDED[name](amp)
    found = re.search(r"min=(\S+), max=(\S+)", str(exc.value))
    assert found, str(exc.value)
    assert float(found[1]) == pytest.approx(lo, abs=1e-3)
    assert float(found[2]) == pytest.approx(hi, abs=1e-3)


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_domain_guard_rejects_nan(name):
    with pytest.raises(DomainError, match="min=nan, max=nan"):
        GUARDED[name](np.nan)


def test_riesz_flow_reduces_to_simplex_pointwise():
    # (rhs(y), rhs(y+1), ..., rhs(y+n-1)) = simplex_rhs of the translated values
    for n in (2, 3):
        n_pts = grid_points_for(n, 512)
        rep = FourierRep(float(n), 1.0 / n, [0.1 / n, 0.05 / n], [0.02 / n, 0.0])
        from srbflow.spectral import project_constraint
        p = project_constraint(rep, n)
        h = InverseDerivative(FourierRep(float(n), 1.0 / n, p.cos, p.sin), n)
        s = to_grid(h.rep, n_pts).samples
        R = riesz_gradient(InverseDerivative(GridRep(float(n), s), n)).rep.samples
        stride = n_pts // n
        for j in range(0, stride, 37):
            fiber = s[j::stride]
            np.testing.assert_allclose(R[j::stride], simplex_rhs(fiber, n), atol=1e-12)


def test_heat_reference():
    B0 = np.array([0.25, 0.01, 0.001])
    np.testing.assert_array_equal(heat_reference(B0, 0.0), B0)
    out = heat_reference(np.array([0.25]), 1.0)
    assert out[0] == pytest.approx(0.25 * np.exp(-1.0), rel=1e-15)
    out3 = heat_reference(B0, 0.5)
    assert out3[1] / B0[1] == pytest.approx(np.exp(-9.0 * 0.5), rel=1e-13)
    assert out3[2] / B0[2] == pytest.approx(np.exp(-25.0 * 0.5), rel=1e-13)


@pytest.mark.parametrize("t", [-0.1, float("nan")])
def test_heat_reference_rejects_a_negative_or_nan_time(t):
    # a NaN time would return NaN modes
    with pytest.raises(ValueError, match="t must be >= 0"):
        heat_reference([0.25, 0.0, 0.0], t)


def test_integrate_equilibrium_is_constant():
    cfg = FlowConfig(t_end=2.0, dt=0.1)
    traj = integrate(riesz_system(2), [0.5, 0.5], cfg)
    np.testing.assert_array_equal(traj.states, np.full_like(traj.states, 0.5))
    traj2 = integrate(even_galerkin_system(), np.zeros(3), cfg)
    assert np.all(traj2.states == 0.0)


def test_simplex_converges_to_uniform():
    cfg = FlowConfig(t_end=50.0, dt=0.01, method="rk4", record_every=100)
    traj = integrate(riesz_system(2), [0.3, 0.7], cfg)
    np.testing.assert_allclose(traj.states[-1], [0.5, 0.5], atol=1e-6)
    assert np.all(np.diff(traj.entropy) >= -1e-10)
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-12


def test_euler_galerkin_monotone_decay():
    cfg = FlowConfig(t_end=10.0, dt=0.1, method="euler")
    traj = integrate(even_galerkin_system(), [0.25, 0.0, 0.0], cfg)
    B1 = traj.states[:, 0]
    assert np.all(np.diff(B1) < 0.0)
    assert np.all(np.diff(traj.entropy) >= -1e-6)


@pytest.mark.parametrize("degree", [0, 1])
def test_riesz_system_rejects_a_degree_below_two(degree):
    # a degree-1 "map" would otherwise get an entropy (0.3466 on (0.5, 0.5))
    with pytest.raises(ValueError, match="degree must be >= 2"):
        riesz_system(degree)


def test_riesz_flow_preserves_constraint_and_entropy():
    s0 = cos_quarter_samples(512)
    cfg = FlowConfig(t_end=5.0, dt=0.01, method="rk4", record_every=10)
    traj = integrate(riesz_system(2), s0, cfg)
    assert np.max(traj.constraint_residual) <= 1e-9
    assert np.all(np.diff(traj.entropy) >= -1e-10)


def test_galerkin_preserves_even_symmetry():
    # pure-sine (even-density) start: cosine components of the full degree-2
    # flow stay at zero
    cfg = FlowConfig(t_end=5.0, dt=0.1, method="euler")
    b0 = np.array([0.25 / np.pi, 0.0, 0.0])
    traj = integrate(galerkin_system_n2(), np.concatenate([np.zeros(3), b0]), cfg)
    assert np.max(np.abs(traj.states[:, :3])) < 1e-10


def test_euler_first_order_convergence():
    finals = []
    for dt in (0.1, 0.05, 0.025):
        cfg = FlowConfig(t_end=10.0, dt=dt, method="euler", record_every=10**6)
        traj = integrate(even_galerkin_system(), [0.25, 0.0, 0.0], cfg)
        finals.append(traj.states[-1])
    ref_cfg = FlowConfig(t_end=10.0, dt=0.01, method="rk4", record_every=10**6)
    ref = integrate(even_galerkin_system(), [0.25, 0.0, 0.0], ref_cfg).states[-1]
    e1 = np.linalg.norm(finals[0] - ref)
    e2 = np.linalg.norm(finals[1] - ref)
    e3 = np.linalg.norm(finals[2] - ref)
    assert e1 / e2 == pytest.approx(2.0, abs=0.2)
    assert e2 / e3 == pytest.approx(2.0, abs=0.2)


def test_integrate_raises_on_domain_exit():
    # an amplitude of 0.6 puts h below zero somewhere
    with pytest.raises(DomainError):
        integrate(even_galerkin_system(), [0.6, 0.0, 0.0],
                  FlowConfig(t_end=1.0, dt=0.1))


def test_integrate_raises_step_error_on_blowup():
    system = FlowSystem(rhs=lambda x: np.full_like(x, np.inf),
                        entropy=lambda x: 0.0,
                        constraint_residual=lambda x: 0.0,
                        grad_norm=lambda x: 0.0)
    with pytest.raises(StepError):
        integrate(system, [1.0], FlowConfig(t_end=1.0, dt=0.1))


def test_flow_config_validation():
    # dt out of range, or t_end / dt not a whole number of steps
    for dt in (2.0, 0.0, -0.1, 0.4, 0.3):
        with pytest.raises(ValueError):
            FlowConfig(t_end=1.0, dt=dt)
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, dt=0.1, method="leapfrog")
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, dt=0.1, record_every=0)


def test_flow_config_accepts_a_single_step():
    # dt == t_end is one step: the start and the end are both recorded
    for record_every in (1, 5):
        cfg = FlowConfig(t_end=0.1, dt=0.1, record_every=record_every)
        traj = integrate(riesz_system(2), [0.4, 0.6], cfg)
        assert traj.times.tolist() == [0.0, 0.1]
    with pytest.raises(ValueError, match="need 0 < dt <= t_end"):
        FlowConfig(t_end=0.1, dt=0.2)


def test_record_every():
    cfg = FlowConfig(t_end=1.0, dt=0.1, record_every=5)
    traj = integrate(riesz_system(2), [0.4, 0.6], cfg)
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])


def test_records_lets_go_of_the_callers_start():
    # stepping reads only records' copy: once the caller drops its start, no
    # reference to it outlives the first record (a 16 MiB grid state on riesz_grid)
    start = cos_quarter_samples(1024)
    expect = start.copy()
    ref = weakref.ref(start)
    run = records(riesz_system(2), start, FlowConfig(t_end=0.2, dt=0.1))
    del start
    t, x, _ = next(run)
    assert ref() is None
    assert t == 0.0 and np.array_equal(x, expect)
    assert len(list(run)) == 2


@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("method, stages", [("euler", 1), ("rk4", 4)])
def test_integrate_evaluates_rhs_once_per_stage(method, stages, record_every):
    # the first stage of each step is the rhs of the state it starts from,
    # and a recorded state's grad_norm reuses that value
    base = even_galerkin_system()
    calls = []

    def rhs(x):
        calls.append(1)
        return base.rhs(x)

    cfg = FlowConfig(t_end=5.0, dt=0.1, method=method, record_every=record_every)
    integrate(dataclasses.replace(base, rhs=rhs), [0.25, 0.0, 0.0], cfg)
    assert len(calls) == stages * 50 + 1


@pytest.mark.parametrize("use_pde, dt", [(False, 0.1), (True, 0.001)], ids=["h2", "pde"])
@pytest.mark.parametrize("make, states", [
    (even_galerkin_system, ([0.1, 0.02, -0.01], [0.1, 0.02], [0.05, 0.01, 0.0])),
    (galerkin_system_n2, ([0.003, 0.001, -0.002, 0.004], [0.003, -0.002], [0.001, 0.0, 0.002, 0.0])),
], ids=["even", "n2"])
def test_galerkin_systems_build_the_kernel_once_per_state_size(monkeypatch, make, states,
                                                               use_pde, dt):
    # 200 steps on each state: the kernel and its weights are built on the
    # first call of each state size, and reused for a size seen before.  The
    # cache is emptied before and after, so no kernel built with the counted
    # c_squared hides one of these builds or outlives the test
    calls = {"c_squared": 0}

    def counted(*args):
        calls["c_squared"] += 1
        return c_squared(*args)

    _odd_kernel.cache_clear()
    monkeypatch.setattr(entropy, "c_squared", counted)
    try:
        system = make(256, use_pde)
        for x0 in states:
            integrate(system, x0, FlowConfig(t_end=200 * dt, dt=dt))
        calls["kernel"] = _odd_kernel.cache_info().misses
    finally:
        _odd_kernel.cache_clear()
    # each build weighs both flows' scales, whichever flow asked for it
    assert calls == {"kernel": 2, "c_squared": 2}


def _fibers(n, m, seed):
    x = np.random.default_rng(seed).uniform(0.5, 1.5, (n, m))
    return (x / x.sum(axis=0)).ravel()


@pytest.mark.parametrize("n, m, block", [(n, 1, 3 * n) for n in range(2, 9)]
                         + [(2, 1000, None), (5, 8000, None), (4, 500, 6000)])
def test_stacked_riesz_monitors_match_one_state_calls_bitwise(monkeypatch, n, m, block):
    # 11 states of n fibers of m nodes; one-fiber states in row slices of 3 (the last
    # one ragged), grid states in the slices MONITOR_ELEMENTS gives: 4 rows of 2000
    # samples, 1 row of 40000, or 3 rows of 2000
    if block:
        monkeypatch.setattr(flow, "MONITOR_ELEMENTS", block)
    system = riesz_system(n)
    X = np.array([_fibers(n, m, seed) for seed in range(11)])
    # the one-state formulas as they were before monitors took stacks
    for monitor, oracle in (
            (system.entropy, lambda x: float(-(n / x.size) * np.sum(x * np.log(x)))),
            (system.constraint_residual,
             lambda x: float(np.max(np.abs(x.reshape(n, -1).sum(axis=0) - 1.0))))):
        one = [monitor(x) for x in X]
        assert all(type(v) is float for v in one) and one == [oracle(x) for x in X]
        assert np.array_equal(monitor(X), one)


def _split_boundaries(leaf, top):
    # tree_sum's sizes on both sides of each place where it takes one more level
    # of splits, from one leaf up to top, and the small sizes where numpy's own
    # sum changes its loop
    sizes = {1, 7, 8, 9, 127, 128, 129, 2**21, 2097150}
    m = leaf
    while m <= top:
        sizes |= {m - 1, m, m + 1, m + 7, m + 8, m + 9}
        m *= 2
    return sorted(n for n in sizes if n <= top)


def test_tree_sum_is_numpys_pairwise_sum_bitwise():
    # tree_sum mirrors numpy's pairwise summation down to its leaves; a numpy that
    # sums in another tree fails here instead of moving the riesz monitors' bits
    sizes = _split_boundaries(flow.MONITOR_ELEMENTS, 2**21 + 9)
    assert len(sizes) > 60 and 2**21 in sizes and 2097150 in sizes
    x = np.random.default_rng(3).uniform(0.01, 0.99, sizes[-1])
    r = x - 0.5
    for f, a in ((lambda v: v * np.log(v), x), (lambda v: v * v, r)):
        for n in sizes:
            assert tree_sum(f, a[:n]) == np.add.reduce(f(a[:n]), None), n


def test_tree_sum_leaves_are_at_most_monitor_elements():
    seen = []

    def f(v):
        seen.append(v.size)
        return v * v

    tree_sum(f, np.ones(2**21 - 2))
    assert sum(seen) == 2**21 - 2 and max(seen) <= flow.MONITOR_ELEMENTS


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("m", [flow.BLOCK_ELEMENTS // 2 + 3, 70001, 419430])
def test_riesz_one_state_monitors_match_the_stacked_form_bitwise(n, m):
    # grid states above BLOCK_ELEMENTS: the one-state monitors reduce in leaves and
    # column blocks, the stacked form (integrate's) on whole rows; the last size is
    # riesz_grid's n = 5 state, 2^21 - 2 nodes
    system = riesz_system(n)
    x = _fibers(n, m, m + n)
    assert x.size > flow.BLOCK_ELEMENTS
    X = np.array([x, _fibers(n, m, m + n + 1)])
    r = system.rhs(x)
    assert system.entropy(x) == system.entropy(X)[0] == system.entropy(x[None])[0]
    assert system.constraint_residual(x) == system.constraint_residual(X)[0]
    assert system.constraint_residual(x) > 0.0
    assert system.grad_norm(r) == math.sqrt(n / r.size * np.add.reduce(r * r, None))


@pytest.mark.parametrize("bad", ["low", "high", "both", "nan"])
def test_riesz_leaf_entropy_guard_names_the_whole_state(bad):
    # a bad value in one leaf, the state's true extreme in another: the message
    # is _guarded's on the whole array, as the stacked form gives it
    system = riesz_system(2)
    x = _fibers(2, 70000, 4)
    leaf = flow.MONITOR_ELEMENTS
    if bad in ("low", "both"):
        x[3 * leaf + 5], x[5 * leaf + 1] = -0.1, -0.2
    if bad in ("high", "both"):
        x[leaf + 2], x[7 * leaf + 9] = 1.1, 1.3
    if bad == "nan":
        x[2 * leaf] = np.nan
    with pytest.raises(DomainError) as whole:
        _guarded(x)
    for state in (x, x[None]):
        with pytest.raises(DomainError) as got:
            system.entropy(state)
        assert str(got.value) == str(whole.value)
    if bad != "nan":
        assert f"min={x.min():.3e}, max={x.max():.3e}" in str(whole.value)


def test_record_schedule_is_every_record_every_th_step_then_the_last():
    for n_steps in (1, 2, 3, 7, 10, 12, 100):
        for record_every in (1, 2, 3, 7, 10, 11, 150):
            n_records, steps = flow._record_steps(
                FlowConfig(t_end=0.25 * n_steps, dt=0.25, record_every=record_every))
            schedule = [*range(0, n_steps, record_every), n_steps]
            assert list(steps) == schedule and n_records == len(schedule), (n_steps, record_every)


def test_record_schedule_memory_does_not_grow_with_the_step_count():
    # 10^7 steps at record_every 1 (a tiny state can ask for them): the schedule is
    # made as it is read, not held as a list of 10^7 ints (391 MiB)
    tracemalloc.start()
    try:
        n_records, steps = flow._record_steps(FlowConfig(t_end=100.0, dt=1e-5))
        head = [next(steps) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_records == 10**7 + 1 and head == [0, 1, 2]
    assert peak < 2**20, peak


@pytest.mark.parametrize("system, x0, dt", [
    (riesz_system(5), [0.1, 0.15, 0.2, 0.25, 0.3], 0.01),
    (even_galerkin_system(), [0.25, 0.0, 0.0], 0.1),
], ids=["riesz_system_5", "even_galerkin_system"])
def test_entropy_and_constraint_monitors_run_once_per_run(system, x0, dt):
    # 200 steps, each one recorded: grad_norm reads the rhs value at each record,
    # the other two monitors take the stack of recorded states at the end
    calls = dict.fromkeys(("entropy", "grad_norm", "constraint_residual"), 0)

    def counted(name):
        def monitor(x):
            calls[name] += 1
            return getattr(system, name)(x)
        return monitor

    traj = integrate(dataclasses.replace(system, **{name: counted(name) for name in calls}),
                     x0, FlowConfig(t_end=200 * dt, dt=dt))
    assert calls == {"entropy": 1, "grad_norm": 201, "constraint_residual": 1}
    assert np.array_equal(traj.entropy, [system.entropy(x) for x in traj.states])


ONE_STATE_MONITORS = {"entropy": lambda x: float(-np.sum(x * np.log(x))),
                      "constraint_residual": lambda x: abs(x.sum() - 1.0)}


@pytest.mark.parametrize("one_state, named", [
    (("entropy", "constraint_residual"), "entropy"),
    (("constraint_residual",), "constraint_residual"),
], ids=["both", "constraint_residual"])
def test_integrate_rejects_a_one_state_monitor(one_state, named):
    # written for one state, each monitor sums the whole stack of 4 records into
    # one scalar (entropy 4.266, residual 3.0) instead of one value per record
    system = dataclasses.replace(riesz_system(3),
                                 **{name: ONE_STATE_MONITORS[name] for name in one_state})
    with pytest.raises(ValueError, match=rf"^{named} gave shape \(\) on 4 records$"):
        integrate(system, [0.2, 0.3, 0.5], FlowConfig(t_end=0.3, dt=0.1))


@pytest.mark.parametrize("make, x", [
    (even_galerkin_system, np.array([0.1, 0.0, 0.0, 0.0, 0.05])),
    (galerkin_system_n2, np.array([0.01, 0.0, 0.003, 0.02, -0.004, 0.002])),
], ids=["even", "packed"])
def test_odd_kernel_refuses_an_aliasing_grid(make, x):
    # the top frequency 2K - 1 must be below N/2: on 8 nodes the even K = 5 rhs
    # gave -0.103 in mode 1 against -0.0185 on 1024 nodes, with no error
    K = x.size if make is even_galerkin_system else x.size // 2
    top = 2 * K - 1
    for use_pde in (False, True):
        for n_points in (8, 2 * top):
            system = make(n_points, use_pde)
            for monitor in (system.rhs, system.entropy):
                with pytest.raises(ValueError, match=f"frequency {top} aliases on a grid of "
                                                     f"{n_points} nodes: need fewer than N/2"):
                    monitor(x)
        system = make(2 * top + 1, use_pde)
        assert np.all(np.isfinite(system.rhs(x))) and np.isfinite(system.entropy(x))


@pytest.mark.parametrize("system, x0, norm", [
    (riesz_system(3), _fibers(3, 8, 5), lambda r: float(np.sqrt(3 / r.size * np.sum(r**2)))),
    (galerkin_system_n2(), np.array([0.01, 0.003, 0.001, 0.02, -0.004, 0.002]),
     lambda r: float(np.linalg.norm(r))),
], ids=["riesz_system_3", "galerkin_system_n2"])
def test_recorded_grad_norm_is_norm_of_rhs(system, x0, norm):
    cfg = FlowConfig(t_end=1.0, dt=0.05, method="rk4", record_every=3)
    traj = integrate(system, x0, cfg)
    for state, recorded in zip(traj.states, traj.grad_norm):
        r = system.rhs(state)
        assert recorded == system.grad_norm(r) == norm(r)


# ---------------------------------------------------------------------------
# Fiber-blocked stepping: a small block makes a few thousand nodes span
# several blocks, the last one ragged; the oracle steps the whole array.
# ---------------------------------------------------------------------------

BLOCK = 700  # elements; 233 columns of 3-point fibers, 140 of 5-point ones


def _whole_array_steps(x0, n, method, dt):
    """Yield (x, simplex_rhs(x)) at step 0, 1, 2, ... of the plain
    whole-array Euler or RK4 step."""
    x = np.array(x0, dtype=float)
    r = simplex_rhs(x, n)
    while True:
        yield x, r
        if method == "euler":
            x = x + dt * r
        else:
            k2 = simplex_rhs(x + 0.5 * dt * r, n)
            k3 = simplex_rhs(x + 0.5 * dt * k2, n)
            k4 = simplex_rhs(x + dt * k3, n)
            x = x + (dt / 6.0) * (r + 2.0 * k2 + 2.0 * k3 + k4)
        r = simplex_rhs(x, n)


def _counting(system, calls):
    def rhs(x):
        calls.append(x.shape)
        return system.rhs(x)
    return dataclasses.replace(system, rhs=rhs)


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("n, m", [(3, 1000), (5, 600)])
def test_blocked_riesz_trajectory_matches_whole_array_oracle(monkeypatch, n, m, method,
                                                             record_every):
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    x0 = _fibers(n, m, 11)
    cfg = FlowConfig(t_end=1.0, dt=0.1, method=method, record_every=record_every)
    system, calls = riesz_system(n), []
    traj = integrate(_counting(system, calls), x0, cfg)

    width = BLOCK // n
    n_blocks = -(-m // width)
    assert n_blocks > 1 and m % width  # several blocks, the last one ragged
    stages = 1 if method == "euler" else 4
    assert len(calls) == n_blocks * (stages * 10 + 1)
    assert {shape[1] for shape in calls} == {width, m % width}

    oracle = zip(range(11), _whole_array_steps(x0, n, method, cfg.dt))
    rows = [(i * cfg.dt, x, r) for i, (x, r) in oracle if i % record_every == 0 or i == 10]
    assert np.array_equal(traj.times, [t for t, _, _ in rows])
    assert np.array_equal(traj.states, np.array([x for _, x, _ in rows]))
    assert np.array_equal(traj.entropy, [system.entropy(x) for _, x, _ in rows])
    assert np.array_equal(traj.grad_norm, [system.grad_norm(r) for _, _, r in rows])
    assert np.array_equal(traj.constraint_residual,
                          [system.constraint_residual(x) for _, x, _ in rows])


def test_blocked_riesz_domain_error_at_the_oracle_step(monkeypatch):
    # explicit Euler at a large step overshoots out of (0, 1) after a few
    # steps; only the last, ragged block holds the fibers near the boundary
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    n, m, dt = 3, 1000, 0.5
    x0 = _fibers(n, m, 3).reshape(n, m)
    x0[:, -5:] = [[0.04], [0.443], [0.517]]
    x0 = x0.ravel()
    steps = _whole_array_steps(x0, n, "euler", dt)
    with pytest.raises(DomainError):
        for failed_at in range(20):
            next(steps)
    assert failed_at > 2
    integrate(riesz_system(n), x0, FlowConfig(t_end=(failed_at - 1) * dt, dt=dt))
    with pytest.raises(DomainError):
        integrate(riesz_system(n), x0, FlowConfig(t_end=failed_at * dt, dt=dt))


def test_blocked_step_error_on_non_finite_block(monkeypatch):
    # the rhs is infinite on the last block's columns only
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    system = FlowSystem(rhs=lambda x: np.where(x > 2.0, np.inf, 0.0),
                        entropy=lambda x: 0.0, constraint_residual=lambda x: 0.0,
                        grad_norm=lambda r: 0.0, fiber=2)
    x0 = np.ones((2, 1000))
    x0[:, -1] = 3.0
    with pytest.raises(StepError, match="step 1"):
        integrate(system, x0.ravel(), FlowConfig(t_end=1.0, dt=0.1))


@pytest.mark.parametrize("shape,fiber", [((3,), None), ((16,), None), ((17,), None),
                                         ((5, 203), 5)], ids=str)
def test_step_error_names_the_step_of_the_first_non_finite_value(monkeypatch, shape, fiber):
    # the last value reaches 2.55 at step 5, where the rhs turns NaN, so step 6 is the
    # first non-finite state: on one block of at most FEW_VALUES values, one of more,
    # and a fiber state whose ragged last block is (5, 3)
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", 1000)
    system = FlowSystem(rhs=lambda x: np.where(x > 2.5, np.nan, np.where(x > 2.0, 1.0, 0.0)),
                        entropy=lambda x: 0.0, constraint_residual=lambda x: 0.0,
                        grad_norm=lambda r: 0.0, fiber=fiber)
    x0 = np.ones(shape)
    x0[..., -1] = 2.05
    with pytest.raises(StepError) as exc:
        integrate(system, x0.ravel(), FlowConfig(t_end=1.0, dt=0.1))
    assert str(exc.value) == "non-finite state at step 6 (t = 0.6)"


def test_on_cores_splits_contiguous_shares(monkeypatch):
    # one contiguous share of column blocks per core, at most one per block
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    x, r = np.zeros(3 * 1500), np.zeros(3 * 1500)  # 7 blocks of 233 columns, the last ragged
    monkeypatch.setattr(flow, "_cores", lambda: 3)
    shares = flow._shares(x, r, 3)
    assert [[b for b, _, _ in share] for share in shares] == [[0, 1], [2, 3], [4, 5, 6]]
    for share in shares:
        for b, xb, rb in share:
            assert xb.shape == rb.shape == (3, min(233, 1500 - 233 * b))
            assert np.shares_memory(xb, x) and np.shares_memory(rb, r)
    monkeypatch.setattr(flow, "_cores", lambda: 8)
    assert [len(share) for share in flow._shares(x[:3 * 699], r[:3 * 699], 3)] == [1, 1, 1]


def test_on_threads_runs_the_first_share_on_the_caller():
    # the first share on the calling thread, the results in share order
    caller = threading.get_ident()
    out = flow._on_threads(lambda share: (share, threading.get_ident() == caller),
                           [[0, 1], [2, 3], [4, 5, 6]])
    assert out == [([0, 1], True), ([2, 3], False), ([4, 5, 6], False)]
    assert flow._on_threads(lambda share: share, [[9]]) == [[9]]


def test_on_threads_runs_one_share_inline(monkeypatch):
    # one share: fn on the calling thread, no thread started, [result]; what fn
    # raises reaches the caller as it was raised
    def no_thread(*args, **kwargs):
        raise AssertionError("one share started a thread")

    monkeypatch.setattr(flow.threading, "Thread", no_thread)
    caller = threading.get_ident()
    assert flow._on_threads(lambda share: (share, threading.get_ident() == caller),
                            [[7, 8]]) == [([7, 8], True)]
    error = KeyError("share [7, 8]")

    def fail(share):
        raise error

    with pytest.raises(KeyError) as exc:
        flow._on_threads(fail, [[7, 8]])
    assert exc.value is error and str(exc.value) == "'share [7, 8]'"


@pytest.mark.parametrize("failing", [0, 2, (1, 2)], ids=str)
def test_on_cores_reraises_a_share_failure(failing):
    # every other share still runs; of several failures the first in share order surfaces
    failing = failing if isinstance(failing, tuple) else (failing,)
    done = []

    def fn(share):
        if share[0] in failing:
            raise ZeroDivisionError(f"share {share}")
        done.append(share)

    with pytest.raises(ZeroDivisionError, match=rf"share \[{failing[0]}\]"):
        flow._on_threads(fn, [[0], [1], [2]])
    assert sorted(done) == [[b] for b in (0, 1, 2) if b not in failing]


def test_core_count_is_read_once_per_run(monkeypatch):
    # the shares are fixed before the record loop; a one-block state never asks
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    reads = []
    monkeypatch.setattr(flow, "_cores", lambda: reads.append(1) or 2)
    cfg = FlowConfig(t_end=0.9, dt=0.1, method="rk4")
    traj = integrate(riesz_system(3), _fibers(3, 1000, 5), cfg)  # 5 blocks
    assert len(traj.times) == 10 and len(reads) == 1
    reads.clear()
    integrate(riesz_system(3), _fibers(3, 200, 5), cfg)  # one block
    integrate(riesz_system(5), [0.1, 0.15, 0.2, 0.25, 0.3], cfg)
    assert reads == []


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("n, m", [(3, 1000), (5, 600)])
def test_blocked_riesz_same_bits_on_any_core_count(monkeypatch, n, m, method, record_every):
    # five blocks, an odd count with a ragged last one, shared out over 1, 2
    # and 3 cores; the calling thread steps the first share, 5 // cores blocks
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    x0 = _fibers(n, m, 11)
    cfg = FlowConfig(t_end=1.0, dt=0.1, method=method, record_every=record_every)
    stages = 1 if method == "euler" else 4
    trajs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(flow, "_cores", lambda: cores)
        threads = []

        def rhs(x):
            threads.append(threading.get_ident())
            return simplex_rhs(x, n)

        trajs.append(integrate(dataclasses.replace(riesz_system(n), rhs=rhs), x0, cfg))
        assert len(threads) == 5 * (stages * 10 + 1)
        assert threads.count(threading.get_ident()) == 5 // cores * (stages * 10 + 1)
    for traj in trajs[1:]:
        for field in dataclasses.fields(traj):
            assert np.array_equal(getattr(traj, field.name), getattr(trajs[0], field.name))


def test_blocks_on_more_threads_than_cores(monkeypatch):
    # five blocks on five threads of two cores, switching every microsecond:
    # a write that lands in another block's columns would change the bits
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    x0 = _fibers(3, 1000, 17)
    cfg = FlowConfig(t_end=1.0, dt=0.1, method="rk4", record_every=3)
    want = integrate(riesz_system(3), x0, cfg)
    monkeypatch.setattr(flow, "_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [integrate(riesz_system(3), x0, cfg) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for traj in got:
        assert np.array_equal(traj.states, want.states)
        assert np.array_equal(traj.grad_norm, want.grad_norm)


def _failing_blocks_system(limit, fail):
    """Five 2-fiber blocks of 350 columns under dx/dt = 1; a state reaching
    `limit` fails: DomainError names its block's min and max, StepError
    comes from an infinite rhs."""
    def rhs(x):
        if fail == "domain" and x.max() >= limit:
            raise DomainError(f"density leaves (0, 1): min={x.min():g}, max={x.max():g}")
        return np.where(x >= limit, np.inf, 1.0)
    return FlowSystem(rhs=rhs, entropy=lambda x: 0.0, grad_norm=lambda r: 0.0, fiber=2)


@pytest.mark.parametrize("fail, starts, message", [
    # the last block fails first, at step 2; block 0 fails at step 3
    ("domain", {0: 7.0, 4: 8.5}, "density leaves (0, 1): min=10.5, max=10.5 at step 2 (t = 2)"),
    ("step", {0: 7.0, 4: 8.5}, "non-finite state at step 3 (t = 3)"),
    # blocks 1 and 3 both fail at step 3; the lower block is named
    ("domain", {1: 7.5, 3: 7.0}, "density leaves (0, 1): min=10.5, max=10.5 at step 3 (t = 3)"),
    ("step", {1: 7.5, 3: 7.0}, "non-finite state at step 4 (t = 4)"),
])
def test_first_failure_in_step_then_block_order(monkeypatch, fail, starts, message):
    # block b holds columns 350 b ... 350 b + 349; under Euler at dt = 1 a
    # block starting at x is at x + i after step i
    monkeypatch.setattr(flow, "BLOCK_ELEMENTS", BLOCK)
    x0 = np.zeros((2, 1750))
    for b, start in starts.items():
        x0[:, 350 * b:350 * (b + 1)] = start
    system = _failing_blocks_system(10.0 if fail == "domain" else 9.9, fail)
    cfg = FlowConfig(t_end=6.0, dt=1.0, record_every=4)
    # integrate, and the records it collects taken one by one
    for drive in (integrate, lambda *a: list(records(*a))):
        for cores in (1, 2, 3):
            monkeypatch.setattr(flow, "_cores", lambda: cores)
            with pytest.raises(DomainError if fail == "domain" else StepError) as exc:
                drive(system, x0.ravel(), cfg)
            assert str(exc.value) == message, cores


def test_one_block_runs_start_no_thread(monkeypatch):
    # simplex points, Galerkin states and small grids stay on the calling thread
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-block state started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(flow, "_cores", lambda: 3)
    cfg = FlowConfig(t_end=0.4, dt=0.1, method="rk4")
    integrate(riesz_system(5), [0.1, 0.15, 0.2, 0.25, 0.3], cfg)
    integrate(riesz_system(2), cos_quarter_samples(1024), cfg)
    integrate(even_galerkin_system(), [0.25, 0.0, 0.0], cfg)
    integrate(galerkin_system_n2(), np.array([0.01, 0.003, 0.02, -0.004]), cfg)


# ---------------------------------------------------------------------------
# The small-state path: the same bits as the whole-array expressions
# ---------------------------------------------------------------------------


def _fiber_view_rhs(x, n):
    """simplex_rhs through the (n, -1) fiber view, for any number of fibers."""
    logs = np.log(x).reshape(n, -1)
    return (logs.sum(axis=0) / n - logs).reshape(x.shape)


def _interior_points(rng, n, count):
    eps = 0.02
    return eps + (1.0 - n * eps) * rng.dirichlet(np.ones(n), count)


@pytest.mark.parametrize("n", range(2, 9))
def test_one_fiber_simplex_rhs_matches_the_fiber_view_bitwise(n):
    # n = 8 is where numpy's sums switch to pairwise summation
    rng = np.random.default_rng(80 + n)
    for x in _interior_points(rng, n, 1000):
        out = simplex_rhs(x, n)
        assert out.shape == x.shape and np.array_equal(out, _fiber_view_rhs(x, n))
    # blocks of fibers, a single column and a non-contiguous column block
    X = _interior_points(rng, n, 300).T.copy()
    assert not X[:, 7:250].flags.c_contiguous
    for block in (X, X[:, :1], X[:, 7:250]):
        assert np.array_equal(simplex_rhs(block, n), _fiber_view_rhs(block, n))


def _rk4_expression(rhs, x, k1, dt):
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_cases():
    rng = np.random.default_rng(29)
    grid = _fibers(5, 13106, 31).reshape(5, -1)
    B = rng.uniform(-1.0, 1.0, 3)
    B *= 0.3 / np.abs(B).sum()
    return [
        (riesz_system(5).rhs, np.array([0.1, 0.15, 0.2, 0.25, 0.3]), 0.01),
        (riesz_system(5).rhs, grid[:, 6553:], 0.02),  # a (5, 6553) non-contiguous block
        (even_galerkin_system().rhs, B, 0.1),
    ]


@pytest.mark.parametrize("case", range(3), ids=["one_fiber", "grid_block", "galerkin_k3"])
def test_rk4_step_matches_the_expression_bitwise(case):
    rhs, x, dt = _rk4_cases()[case]
    assert x.ndim == 1 or (x.shape == (5, 6553) and not x.flags.c_contiguous)
    k1 = rhs(x)
    x0, k10 = x.copy(), k1.copy()
    want = _rk4_expression(rhs, x, k1, dt)
    got = flow._rk4_step(rhs, x, k1, dt)
    assert got.shape == x.shape and np.array_equal(got, want)
    # the stages are summed in the arrays the rhs returned, never in x or k1
    assert np.array_equal(x, x0) and np.array_equal(k1, k10)
    assert not np.shares_memory(got, x) and not np.shares_memory(got, k1)


def test_grad_norms_match_the_norm_expressions_bitwise():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        system = riesz_system(n)
        for x in list(_interior_points(rng, n, 200)) + [_fibers(n, 999, n)]:
            r = system.rhs(x)
            got = system.grad_norm(r)
            assert type(got) is float and got == float(np.sqrt(n / r.size * (r**2).sum()))
    default = even_galerkin_system().grad_norm  # FlowSystem's default
    for K in (1, 3, 8):
        for _ in range(200):
            r = rng.normal(size=K) * 10.0 ** rng.uniform(-12, 2)
            got = default(r)
            assert type(got) is float and got == float(np.linalg.norm(r))


@pytest.mark.parametrize("system, x", [
    (riesz_system(3), np.array([0.2, 0.3, 0.5])),
    (riesz_system(2), cos_quarter_samples(1024)),
    (galerkin_system_n2(), np.array([0.01, 0.003, 0.02, -0.004])),
    (even_galerkin_system(), np.array([0.25, 0.0, 0.0])),
    (even_galerkin_system(use_pde=True), np.array([0.1, 0.02, -0.01])),
], ids=["simplex", "riesz_grid", "n2", "even", "even_pde"])
def test_rhs_returns_a_fresh_array(system, x):
    # _rk4_step writes into what the rhs returned, so it must alias neither
    # the input nor anything the rhs keeps between calls
    first, second = system.rhs(x), system.rhs(x)
    assert not np.shares_memory(first, x) and not np.shares_memory(second, x)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)
