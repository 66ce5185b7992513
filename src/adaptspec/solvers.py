"""Time-evolution drivers.

Two ways to produce the per-step evolve for the adaptive loop: an explicit
third-order Runge-Kutta collocation solver for PDEs posed on grid values
(with strong Dirichlet imposition), and closed-form target tracking that
re-interpolates a known u(x, t) each step.  Each public marcher only builds
its step: the 1-D ones wrap `orchestrate_step` around their evolve, the
tensor tracker interpolates, runs `p_adapt_step_2d` and records the axis
readings it hands back.  The march and the non-finite guard are
`adapt._march`'s, and the horizon rule `adapt._step_count`, which an
EvolutionProblem also applies when constructed; so every run logs the same
`StepRecord` wherever its new time level comes from.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adapt import (
    AdaptiveState,
    ControllerConfig,
    StepRecord,
    _check_finite,
    _march,
    _step_count,
    initial_state,
    orchestrate_step,
    p_adapt_step_2d,
)
from .basis import (
    BasisDescriptor,
    Family,
    SpectralExpansion,
    _on_grid,
    differentiate,
    node_values,
    nodes_weights,
    to_coefficients,
    to_coefficients_2d,
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

    rhs(expansion, t) returns du/dt at the grid nodes; boundary, when
    given, is (node_index, g) and pins value g(t) at that node after
    every stage.
    """

    rhs: Callable
    dt: float
    T: float
    boundary: Optional[tuple] = None

    def __post_init__(self):
        _step_count(self.dt, self.T)


def rk3_step(rhs, u: SpectralExpansion, t, dt, boundary=None) -> SpectralExpansion:
    """One Shu-Osher SSP-RK3 step on grid values.

    Stage results approximate times t+dt, t+dt/2, t+dt; the Dirichlet
    value is re-imposed at those times, strongly, at the boundary node.
    """
    d = u.descriptor

    def finish(vals, ts):
        if boundary is not None:
            node, g = boundary
            vals[node] = g(ts)
        return _check_finite(vals, ts, "stage values")

    v0 = node_values(u)
    k1 = _check_finite(np.asarray(rhs(u, t)), t, "right-hand side")
    v1 = finish(v0 + dt * k1, t + dt)
    u1 = to_coefficients(v1, d)
    k2 = _check_finite(np.asarray(rhs(u1, t + dt)), t + dt, "right-hand side")
    v2 = finish(0.75 * v0 + 0.25 * (v1 + dt * k2), t + 0.5 * dt)
    u2 = to_coefficients(v2, d)
    k3 = _check_finite(np.asarray(rhs(u2, t + 0.5 * dt)), t + 0.5 * dt, "right-hand side")
    v3 = finish(v0 / 3.0 + (2.0 / 3.0) * (v2 + dt * k3), t + dt)
    return to_coefficients(v3, d)


def advection_rhs(u: SpectralExpansion, t) -> np.ndarray:
    """((x+2)/(t+1)) du/dx at the grid nodes (boundary handled by rk3_step)."""
    if u.descriptor.family is not Family.CHEBYSHEV:
        raise ValueError("this right-hand side is posed on the Chebyshev grid")
    x = nodes_weights(u.descriptor).nodes
    return (x + 2.0) / (t + 1.0) * node_values(differentiate(u))


def solve_collocation(
    problem: EvolutionProblem,
    config: ControllerConfig,
    u0: SpectralExpansion,
    on_step=None,
):
    """March a collocation PDE with the adaptive loop around rk3_step."""

    def step(u, state, t, t_next):
        evolve = lambda w: rk3_step(problem.rhs, w, t, problem.dt, problem.boundary)
        return orchestrate_step(u, state, config, evolve)

    return _march(u0, initial_state(u0, config), step, problem.dt, problem.T, on_step)


def track_function(target, config: ControllerConfig, d0: BasisDescriptor, dt, T, on_step=None):
    """Approximate a closed-form target u(x, t) on an adaptive basis.

    The evolve is plain re-interpolation of target(., t+dt) on whatever
    space the controllers currently prefer, so the time series isolates
    pure approximation behavior from time-integration error.
    """

    def interpolate(d, t):
        return to_coefficients(np.asarray(target(nodes_weights(d).nodes, t)), d)

    def step(u, state, t, t_next):
        return orchestrate_step(u, state, config, lambda w: interpolate(w.descriptor, t_next))

    u0 = interpolate(d0, 0.0)
    return _march(u0, initial_state(u0, config), step, dt, T, on_step)


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
    that does not broadcast raises ValueError.  Bounded domains only get
    order control, so the loop is interpolate -> order step each way.  The
    records carry the x- and y-axis indicators in freq and ext.
    """

    def interpolate(dx, dy, t):
        x, y = nodes_weights(dx).nodes, nodes_weights(dy).nodes
        return to_coefficients_2d(_on_grid(lambda X, Y: target(X, Y, t), x, y), dx, dy)

    def step(u, states, t, t_next):
        u = interpolate(u.descriptor_x, u.descriptor_y, t_next)
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

    u0 = interpolate(dx0, dy0, 0.0)
    # only the order controller runs: the scale and exterior references stay unread
    states = tuple(
        AdaptiveState(freq_ref=f, scale_ref=0.0, exterior_ref=0.0, refine_factor=config.eta)
        for f in _axis_indicators(u0)
    )
    return _march(u0, states, step, dt, T, on_step)
