"""The one march driver behind every public time loop.

solve_collocation, track_function, track_function_2d and
adapt_schrodinger_run each build one step and hand it to adapt._march, which
owns the step count, the on_step callback and the non-finite guard.
"""

import math
import warnings

import numpy as np
import pytest

from adaptspec import BasisDescriptor, Family, nodes_weights, to_coefficients
from adaptspec.adapt import ControllerConfig
from adaptspec.schrodinger import SchrodingerProblem, adapt_schrodinger_run, gaussian_packet
from adaptspec.solvers import (
    EvolutionProblem,
    advection_rhs,
    solve_collocation,
    track_function,
    track_function_2d,
)

CFG = ControllerConfig(eta=1.2, eta0=1.2, gamma=1.05, n_max=3, beta_lo=0.3, beta_hi=2.0)


# Each case marches a small problem with (dt, T, on_step) and appends to
# `evolved` the time of every evolve it performs (none for the initial data).


def _collocation(dt, T, on_step, evolved):
    d = BasisDescriptor(Family.CHEBYSHEV, 10)
    u0 = to_coefficients(np.cos(2.0 * (nodes_weights(d).nodes + 2.0)), d)

    def rhs(v, d, t):
        evolved.append(t)
        return advection_rhs(v, d, t)

    problem = EvolutionProblem(
        rhs=rhs, dt=dt, T=T, boundary=(-1, lambda s: math.cos(3.0 * (s + 1.0)))
    )
    return solve_collocation(problem, CFG, u0, on_step=on_step)


def _tracking(dt, T, on_step, evolved):
    def target(x, t):
        if t > 0:
            evolved.append(t)
        return np.exp(-x / (0.7 * t + 2.0)) * np.cos(x)

    d0 = BasisDescriptor(Family.LAGUERRE_FN, 30, beta=2.0)
    return track_function(target, CFG, d0, dt, T, on_step=on_step)


def _tracking_2d(dt, T, on_step, evolved):
    def target(X, Y, t):
        if t > 0:
            evolved.append(t)
        return np.sin((2.0 + 6.0 * t) * X) * np.cos(2.0 * Y)

    leg = BasisDescriptor(Family.LEGENDRE, 10)
    return track_function_2d(target, CFG, leg, leg, dt, T, on_step=on_step)


def _schrodinger(dt, T, on_step, evolved):
    def V(x):  # read only when a step propagates
        evolved.append(None)
        return np.zeros_like(x)

    problem = SchrodingerProblem(psi0=lambda x: gaussian_packet(x, 0.0), V=V, dt=dt, T=T)
    d0 = BasisDescriptor(Family.HERMITE_FN, 30, beta=1.3)
    return adapt_schrodinger_run(problem, CFG, d0, on_step=on_step)


MARCHERS = [_collocation, _tracking, _tracking_2d, _schrodinger]


@pytest.mark.parametrize("march", MARCHERS, ids=lambda f: f.__name__.strip("_"))
def test_march_contract(march):
    dt, T = 0.01, 0.05
    seen = []
    u, records = march(dt, T, lambda t, w, rec: seen.append((t, w, rec)), [])
    assert len(records) == round(T / dt) == 5
    assert [t for t, _, _ in seen] == [(n + 1) * dt for n in range(5)]
    assert all(rec is logged for rec, (_, _, logged) in zip(records, seen))
    w = seen[-1][1]
    assert np.array_equal(w.coefficients, u.coefficients)

    evolved = []
    with pytest.raises(ValueError, match="integer number of steps"):
        march(dt, 0.025, None, evolved)
    assert evolved == []


@pytest.mark.parametrize("march", [_tracking, _tracking_2d], ids=lambda f: f.__name__.strip("_"))
def test_march_refuses_a_horizon_shorter_than_one_step(march):
    # the trackers take dt and T directly, with no problem object to check them
    evolved = []
    with pytest.raises(ValueError, match="positive integer number of steps"):
        march(0.01, 1e-12, None, evolved)
    assert evolved == []


def test_guard_stops_tracking_when_the_target_turns_non_finite():
    def target(x, t):
        return np.exp(-x) * np.cos(x) * (math.nan if t > 0.0025 else 1.0)

    d0 = BasisDescriptor(Family.LAGUERRE_FN, 20, beta=2.0)
    with pytest.raises(RuntimeError, match=r"non-finite sample at t=0\.003$"):
        track_function(target, CFG, d0, dt=1e-3, T=0.01)


def test_guard_stops_tensor_tracking_when_the_target_turns_non_finite():
    def target(X, Y, t):
        return np.cos(X * Y) * (math.nan if t > 0.025 else 1.0)

    leg = BasisDescriptor(Family.LEGENDRE, 8)
    with pytest.raises(RuntimeError, match=r"non-finite sample at t=0\.03$"):
        track_function_2d(target, CFG, leg, leg, dt=0.01, T=0.1)


def test_guard_refuses_non_finite_initial_data_before_the_first_step():
    calls = []

    def V(x):
        calls.append(x)
        return np.zeros_like(x)

    problem = SchrodingerProblem(
        psi0=lambda x: np.where(x > 1.0, math.nan, gaussian_packet(x, 0.0)), V=V, dt=0.01, T=0.05
    )
    with pytest.raises(RuntimeError, match=r"non-finite sample at t=0$"):
        adapt_schrodinger_run(problem, CFG, BasisDescriptor(Family.HERMITE_FN, 20))
    assert calls == []


# A target or start infinite at one node is refused where it is sampled, at the
# time of the sample, before the transform can make numpy warn.
INF = pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["plus-inf", "minus-inf"])


@INF
@pytest.mark.parametrize(
    "d0",
    [
        BasisDescriptor(Family.LAGUERRE_FN, 20, beta=2.0),
        BasisDescriptor(Family.HERMITE_FN, 20),
        BasisDescriptor(Family.CHEBYSHEV, 20),
    ],
    ids=lambda d: d.family.name,
)
def test_tracking_refuses_an_infinite_sample_of_the_target(d0, value):
    def target(x, t):
        vals = np.exp(-0.5 * x**2) * np.cos(x)
        if t > 0.015:
            vals[len(x) // 2] = value
        return vals

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"non-finite sample at t=0\.02$"):
            track_function(target, CFG, d0, dt=0.01, T=0.05)


@INF
def test_tensor_tracking_refuses_an_infinite_sample_of_the_target(value):
    def target(X, Y, t):
        vals = np.cos(X * Y)
        if t > 0.015:
            vals[1, 2] = value
        return vals

    leg = BasisDescriptor(Family.LEGENDRE, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"non-finite sample at t=0\.02$"):
            track_function_2d(target, CFG, leg, leg, dt=0.01, T=0.05)


@INF
def test_the_packet_start_refuses_an_infinite_sample(value):
    calls = []

    def V(x):
        calls.append(x)
        return np.zeros_like(x)

    psi0 = lambda x: np.where(np.arange(x.size) == 3, value, gaussian_packet(x, 0.0))
    problem = SchrodingerProblem(psi0=psi0, V=V, dt=0.01, T=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"non-finite sample at t=0$"):
            adapt_schrodinger_run(problem, CFG, BasisDescriptor(Family.HERMITE_FN, 20))
    assert calls == []


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.015, 0.005])
def test_a_problem_refuses_its_horizon_when_constructed(T):
    # the march's own horizon rule, applied before any step is built
    match = "integer number of steps" if math.isfinite(T) else "positive and finite"
    with pytest.raises(ValueError, match=match):
        EvolutionProblem(rhs=advection_rhs, dt=0.01, T=T)
    with pytest.raises(ValueError, match=match):
        SchrodingerProblem(psi0=gaussian_packet, dt=0.01, T=T)
