"""Time-evolution drivers.

Two ways to produce the per-step evolve for the adaptive loop: an explicit
third-order Runge-Kutta collocation solver for PDEs posed on grid values
(with strong Dirichlet imposition), and closed-form target tracking that
samples a known u(x, t) each step.  A 1-D marcher supplies only
its start and its evolve to `adapt._adaptive_march`; the tensor tracker
builds its step, which samples, runs `p_adapt_step_2d` and records the
axis readings it hands back.  The march and the non-finite guard are
`adapt._march`'s, and the horizon rule `adapt._step_count`, which an
EvolutionProblem also applies when constructed; so every run logs the same
`StepRecord` wherever its new time level comes from.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adapt import (
    AdaptiveState,
    ControllerConfig,
    StepRecord,
    _adaptive_march,
    _check_finite,
    _march,
    _sample,
    _step_count,
    p_adapt_step_2d,
)
from .basis import (
    BasisDescriptor,
    Family,
    SpectralExpansion,
    _derivative_matrix,
    node_values,
    nodes_weights,
    to_coefficients,
)
from .indicators import _axis_indicators

__all__ = [
    "EvolutionProblem",
    "rk3_step",
    "advection_rhs",
    "solve_collocation",
    "track_function",
    "track_function_2d",
]


@dataclass(frozen=True)
class EvolutionProblem:
    """A right-hand side in collocation form plus stepping data.

    rhs(v, d, t) takes the values v of u at the nodes of the space d and
    returns du/dt at those nodes; boundary, when given, is (node_index, g)
    and pins the scalar value g(t) at that node after every stage.
    """

    rhs: Callable
    dt: float
    T: float
    boundary: Optional[tuple] = None

    def __post_init__(self):
        _step_count(self.dt, self.T)


def rk3_step(rhs, u: SpectralExpansion, t, dt, boundary=None) -> SpectralExpansion:
    """One Shu-Osher SSP-RK3 step, its stages on node values (one transform each way).

    Stage results approximate times t+dt, t+dt/2, t+dt; the Dirichlet
    value is re-imposed at those times, strongly, at the boundary node.
    Each slope rhs(v, d, ts) and each pinned boundary value g(ts) is checked
    where it is made: a NaN or infinite entry raises RuntimeError naming
    ts.  The stage values are left to the march's check of each step.
    """
    d = u.descriptor

    def slope(v, ts):
        return _check_finite(np.asarray(rhs(v, d, ts)), ts, "right-hand side")

    def pin(vals, ts):
        if boundary is not None:
            node, g = boundary
            if not math.isfinite(g_ts := g(ts)):
                raise RuntimeError(f"non-finite boundary value at t={ts:.6g}")
            vals[node] = g_ts
        return vals

    v0 = node_values(u)
    v1 = pin(v0 + dt * slope(v0, t), t + dt)
    v2 = pin(0.75 * v0 + 0.25 * (v1 + dt * slope(v1, t + dt)), t + 0.5 * dt)
    v3 = pin(v0 / 3.0 + (2.0 / 3.0) * (v2 + dt * slope(v2, t + 0.5 * dt)), t + dt)
    return to_coefficients(v3, d)


def advection_rhs(v: np.ndarray, d: BasisDescriptor, t) -> np.ndarray:
    """((x+2)/(t+1)) du/dx from the values v at the nodes of d (boundary handled by rk3_step)."""
    if d.family is not Family.CHEBYSHEV:
        raise ValueError("this right-hand side is posed on the Chebyshev grid")
    x = nodes_weights(d).nodes
    return (x + 2.0) / (t + 1.0) * (_derivative_matrix(Family.CHEBYSHEV, d.order) @ v)


def solve_collocation(
    problem: EvolutionProblem,
    config: ControllerConfig,
    u0: SpectralExpansion,
    on_step=None,
):
    """March a collocation PDE with the adaptive loop around rk3_step."""
    evolve = lambda w, t, t_next: rk3_step(problem.rhs, w, t, problem.dt, problem.boundary)
    return _adaptive_march(u0, config, evolve, problem.dt, problem.T, on_step)


def track_function(target, config: ControllerConfig, d0: BasisDescriptor, dt, T, on_step=None):
    """Approximate a closed-form target u(x, t) on an adaptive basis.

    The start and each evolve are `adapt._sample` of target(., t) on the
    space the controllers currently prefer, so the time series isolates
    pure approximation behavior from time-integration error; a NaN or
    infinite target value stops the run with a RuntimeError naming t.
    """
    sample = lambda d, t: _sample(lambda x: target(x, t), t, d)
    evolve = lambda w, t, t_next: sample(w.descriptor, t_next)
    return _adaptive_march(sample(d0, 0.0), config, evolve, dt, T, on_step)


def track_function_2d(
    target,
    config: ControllerConfig,
    dx0: BasisDescriptor,
    dy0: BasisDescriptor,
    dt,
    T,
    on_step=None,
):
    """Tensor-product tracking with axis-wise order adaptivity.

    target(X, Y, t) receives the open grids of the current tensor grid: X
    of shape (nx, 1) and Y of shape (1, ny), as meshgrid(..., indexing='ij',
    sparse=True) gives them.  Its result is broadcast to (nx, ny); a shape
    that does not broadcast raises ValueError, and a NaN or infinite value
    a RuntimeError naming t (the sampling of `adapt._sample`).  Bounded
    domains only get order control, so the loop is sample -> order step
    each way.  The records carry the x- and y-axis indicators in freq and ext.
    """
    sample = lambda dx, dy, t: _sample(lambda X, Y: target(X, Y, t), t, dx, dy)

    def step(u, states, t, t_next):
        u = sample(u.descriptor_x, u.descriptor_y, t_next)
        if config.p_adaptivity:
            u, *states, actions, (freq_x, freq_y) = p_adapt_step_2d(u, *states, config)
        else:
            actions, (freq_x, freq_y) = [], _axis_indicators(u)
        return u, states, StepRecord(
            actions=tuple(actions),
            freq=freq_x,
            ext=freq_y,
            order_x=u.descriptor_x.order,
            order_y=u.descriptor_y.order,
        )

    u0 = sample(dx0, dy0, 0.0)
    # only the order controller runs: the scale and exterior references stay unread
    states = tuple(
        AdaptiveState(freq_ref=f, scale_ref=0.0, exterior_ref=0.0, refine_factor=config.eta)
        for f in _axis_indicators(u0)
    )
    return _march(u0, states, step, dt, T, on_step)
