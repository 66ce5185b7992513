"""Adaptivity controllers and reconstruction primitives.

Reconstruction: refine/coarsen (order +-1), rescale (new beta), translate
(shift x_left).  Refinement pads the coefficients with a zero, which is
exact because the spaces are nested; coarsening drops the top coefficient,
which is the L2 projection onto the smaller space.  Neither builds a grid.
The other two evaluate the current expansion at the target space's grid
and re-interpolate.

Controllers: order adaptivity driven by the frequency indicator with a
growing refine threshold and guarded coarsening; scaling that walks beta
by a fixed ratio while trials do not increase the indicator; grid
translation in fixed increments while the exterior indicator exceeds its
reference; each also returns its last reading of its indicator.
`orchestrate_step` chains evolve -> move -> scale -> order per step,
passing those readings on, and renews the reference indicators after
basis changes.  The private `_march` repeats a step to the horizon for
every time loop in the package; `_adaptive_march` runs it with
`orchestrate_step` as the step of every 1-D marcher, and `_sample` puts
every known function (start, target, packet) on a grid.  The exterior
indicator always splits at the default node of the current grid, so the
split point is not carried in AdaptiveState.

Cross matrices are cached on the frame of both spaces and the shift
between them, so repeated moves by a fixed increment reuse one matrix.
On the bounded families only a 2-D coarsening trial needs one: the same or
a finer grid reads the top rows of its core rule's basis values.

The translation trigger/increment loop reconstructs behavior summarized
from a companion method (the source describes only the thresholds), and
is flagged as such here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import basis
from .basis import (
    BasisDescriptor,
    Expansion2D,
    SpectralExpansion,
    _apply_real,
    _at,
    _cross_matrix,
    _cross_matrix_cached,  # noqa: F401  (its cache counters are read from this module too)
    _frame,
    _on_grid,
    _with_order,
    nodes_weights,
    to_coefficients,
    to_coefficients_2d,
)
from .indicators import (
    _axis_indicators,
    exterior_error_indicator,
    frequency_indicator,
    frequency_indicator_axis,
)

__all__ = [
    "ControllerConfig",
    "AdaptiveState",
    "StepRecord",
    "refine",
    "coarsen",
    "rescale",
    "translate",
    "resample",
    "resample_2d",
    "p_adapt_step",
    "p_adapt_step_2d",
    "scale_step",
    "move_step",
    "orchestrate_step",
    "initial_state",
]


@dataclass(frozen=True)
class ControllerConfig:
    """Thresholds and bounds for the three controllers.

    eta is the initial refine multiplier (refine when the indicator
    exceeds refine_factor * freq_ref); gamma grows the multiplier after
    each refinement event.  eta0 is the coarsen divisor: coarsening is
    considered when the indicator falls below freq_ref/eta0.  n_max caps
    order increments per call; n_abs, if set, caps the absolute order.
    q in (0,1) is the scaling ratio; a down-scaling trial proposes
    q*beta, an up-scaling trial beta/q, with beta kept inside
    [beta_lo, beta_hi]; nu*scale_ref is the down-scaling trigger.  mu,
    delta, d_max control translation: move right in steps of delta, at
    most d_max per call, while the exterior indicator exceeds
    mu*exterior_ref.
    """

    eta: float = 1.2
    eta0: float = 1.2
    gamma: float = 1.05
    n_max: int = 6
    n_min: int = 0
    n_abs: int | None = None
    q: float = 0.95
    nu: float = 1.0 / 0.95
    beta_lo: float = 0.1
    beta_hi: float = 10.0
    mu: float = 1.0002
    delta: float = 0.005
    d_max: float = 0.1
    p_adaptivity: bool = True
    scaling: bool = True
    moving: bool = True

    def __post_init__(self):
        if not self.eta > 1.0:
            raise ValueError(f"eta must be > 1, got {self.eta}")
        if not self.eta0 > 1.0:
            raise ValueError(f"eta0 must be > 1, got {self.eta0}")
        if not self.gamma >= 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.n_max < 0 or self.n_min < 0:
            raise ValueError("n_max and n_min must be nonnegative")
        if self.n_abs is not None and self.n_abs < self.n_min:
            raise ValueError("n_abs must be >= n_min")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0,1), got {self.q}")
        if not self.nu > 1.0:
            raise ValueError(f"nu must be > 1, got {self.nu}")
        if not 0.0 < self.beta_lo < self.beta_hi:
            raise ValueError("need 0 < beta_lo < beta_hi")
        if not self.mu > 1.0:
            raise ValueError(f"mu must be > 1, got {self.mu}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not self.d_max >= 0.0:
            raise ValueError(f"d_max must be >= 0, got {self.d_max}")


@dataclass(frozen=True)
class AdaptiveState:
    """Reference values the controllers compare against.

    freq_ref: indicator at the last order event; scale_ref: indicator at
    the last scaling event; exterior_ref: exterior indicator at the last
    move/renewal; refine_factor: current refine multiplier (grows by
    gamma).  The exterior split point is not state: it is always the
    default split node of the current descriptor.
    """

    freq_ref: float
    scale_ref: float
    exterior_ref: float
    refine_factor: float


@dataclass(frozen=True, slots=True)
class StepRecord:
    """What one step did and saw; with t and error filled in, one CSV row.

    A 1-D step fills order, and ext, beta and x_left on an unbounded
    family; a tensor step fills order_x and order_y, and its freq and ext
    hold the x- and y-axis indicators.
    """

    actions: tuple[str, ...]
    freq: float
    ext: float | None = None
    order: int | None = None
    beta: float | None = None
    x_left: float | None = None
    order_x: int | None = None
    order_y: int | None = None
    t: float | None = None
    error: float | None = None


# ---------------------------------------------------- reconstruction


def resample(u: SpectralExpansion, d_new: BasisDescriptor) -> SpectralExpansion:
    """Interpolate u onto another space's grid (two matrix-vector passes)."""
    if d_new == u.descriptor:
        return u
    vals = _apply_real(_cross_matrix(u.descriptor, d_new).T, u.coefficients)
    return to_coefficients(vals, d_new)


def resample_2d(u: Expansion2D, dx_new: BasisDescriptor, dy_new: BasisDescriptor) -> Expansion2D:
    if dx_new == u.descriptor_x and dy_new == u.descriptor_y:
        return u
    vals = (
        _cross_matrix(u.descriptor_x, dx_new).T
        @ u.coefficients
        @ _cross_matrix(u.descriptor_y, dy_new)
    )
    return to_coefficients_2d(vals, dx_new, dy_new)


def refine(u: SpectralExpansion) -> SpectralExpansion:
    """Order N -> N+1 by a zero top coefficient; exact (the spaces are nested)."""
    c = u.coefficients
    b = np.zeros(c.size + 1, dtype=np.result_type(c.dtype, float))
    b[:-1] = c
    return SpectralExpansion(_with_order(u.descriptor, u.descriptor.order + 1), b)


def coarsen(u: SpectralExpansion) -> SpectralExpansion:
    """Order N -> N-1 by dropping the top coefficient; lossy unless it is zero.

    For an orthogonal basis this is the L2 projection onto the smaller
    space, so, like refine, it builds no grid.  Interpolating at the coarse
    grid instead would alias the dropped mode onto the kept ones.
    """
    if u.descriptor.order == 0:
        raise ValueError("cannot coarsen below order 0")
    d = _with_order(u.descriptor, u.descriptor.order - 1)
    return SpectralExpansion(d, u.coefficients[:-1].copy())


def rescale(u: SpectralExpansion, beta_new: float) -> SpectralExpansion:
    """Same order, new scaling factor; values at the new grid preserved."""
    if u.descriptor.bounded:
        raise ValueError("rescale applies to unbounded families only")
    family, order, _, *exponents = _frame(u.descriptor)  # no dataclasses.replace: half the cost
    return resample(u, _at((family, order, float(beta_new), *exponents), u.descriptor.x_left))


def translate(u: SpectralExpansion, dist: float) -> SpectralExpansion:
    """Same order, grid shifted by dist (positive = rightward)."""
    if u.descriptor.bounded:
        raise ValueError("translate applies to unbounded families only")
    d = u.descriptor
    return resample(u, _at(_frame(d), d.x_left + float(dist)))


# ------------------------------------------------------- controllers


def initial_state(u: SpectralExpansion, config: ControllerConfig) -> AdaptiveState:
    """Reference state from the initial expansion (orchestrator init box).

    exterior_ref, read by move_step alone, is measured only where that runs.
    """
    f = frequency_indicator(u)
    e = exterior_error_indicator(u) if config.moving and not u.descriptor.bounded else 0.0
    return AdaptiveState(freq_ref=f, scale_ref=f, exterior_ref=e, refine_factor=config.eta)


def _order_rule(u, state, config, order, trial, indicator, suffix="", f=None):
    """The refine/coarsen rule shared by p_adapt_step and each 2-D axis.

    order(w) is the controlled order of w, trial(w, step) the expansion one
    order up (step = 1) or down (step = -1), indicator(w) the frequency
    indicator the rule reads; suffix tags the actions.  f, when given, is
    indicator(u), already computed; the f returned is that of the result.
    """
    actions: list[str] = []
    if f is None:
        f = indicator(u)
    if f > state.refine_factor * state.freq_ref:
        # refinement never passes n_abs or MAX_ORDER
        cap = min(config.n_abs, basis.MAX_ORDER) if config.n_abs is not None else basis.MAX_ORDER
        while (
            f > state.refine_factor * state.freq_ref
            and len(actions) < config.n_max
            and order(u) < cap
        ):
            u = trial(u, 1)
            actions.append("refine" + suffix)
            f = indicator(u)
        state = replace(
            state, freq_ref=f, refine_factor=config.gamma * state.refine_factor
        )
    elif f < state.freq_ref / config.eta0 and order(u) > config.n_min:
        candidate = trial(u, -1)
        f_trial = indicator(candidate)
        if f_trial < state.freq_ref:
            u, f = candidate, f_trial
            state = replace(state, freq_ref=f_trial)
            actions.append("coarsen" + suffix)
    return u, state, actions, f


def p_adapt_step(
    u: SpectralExpansion, state: AdaptiveState, config: ControllerConfig, f: float | None = None
) -> tuple[SpectralExpansion, AdaptiveState, list[str], float]:
    """One order-adaptivity decision: (u, state, actions, frequency reading).

    Refine while the indicator exceeds refine_factor * freq_ref, at most
    n_max increments (and never past n_abs or MAX_ORDER); afterwards the
    reference is rebased to the current indicator and the refine
    multiplier grows by gamma.  Otherwise, if the indicator sits below freq_ref/eta0 and the
    order exceeds n_min, try a single coarsening and keep it only if it
    strictly lowers the indicator below freq_ref.  f is u's reading, if known.
    """
    return _order_rule(
        u,
        state,
        config,
        order=lambda w: w.descriptor.order,
        trial=lambda w, step: refine(w) if step > 0 else coarsen(w),
        indicator=frequency_indicator,
        f=f,
    )


def p_adapt_step_2d(
    u: Expansion2D,
    state_x: AdaptiveState,
    state_y: AdaptiveState,
    config: ControllerConfig,
) -> tuple[Expansion2D, AdaptiveState, AdaptiveState, list[str], tuple]:
    """Axis-wise order adaptivity: decisions made independently from the
    same input (each axis judged with the other frozen), then applied.
    Returns (u, state_x, state_y, actions, the two axis readings of u).

    Each axis trial resamples the tensor expansion from the previous trial
    (resample_2d), in both directions.  Zero-padding the refine trials, as
    1-D does, is exact in exact arithmetic but not in floating point, and
    example 2's tail sits at roundoff, so its decisions would change.
    """

    f = _axis_indicators(u)  # both axes judge the same input

    def axis(k, state):
        def trial(w, step):
            ds = [w.descriptor_x, w.descriptor_y]
            ds[k] = _with_order(ds[k], ds[k].order + step)
            return resample_2d(w, *ds)

        return _order_rule(
            u,
            state,
            config,
            order=lambda w: (w.descriptor_x, w.descriptor_y)[k].order,
            trial=trial,
            indicator=lambda w: frequency_indicator_axis(w, k),
            suffix=("_x", "_y")[k],
            f=f[k],
        )

    wx, state_x, ax, _ = axis(0, state_x)
    wy, state_y, ay, _ = axis(1, state_y)
    out = resample_2d(u, wx.descriptor_x, wy.descriptor_y)  # u itself when no axis acted
    return out, state_x, state_y, ax + ay, _axis_indicators(out) if ax or ay else f


def scale_step(
    u: SpectralExpansion, state: AdaptiveState, config: ControllerConfig
) -> tuple[SpectralExpansion, AdaptiveState, list[str], float | None]:
    """One scaling decision: walk beta by the ratio q while trials help.

    A trial is kept only if its indicator does not exceed the current one
    and the proposed beta stays inside [beta_lo, beta_hi]; the reference
    indicator follows each accepted trial.  Rejected trials leave the
    expansion untouched.  Also returns the frequency reading of the result
    (None on a bounded family).
    """
    if u.descriptor.bounded:
        return u, state, [], None
    actions: list[str] = []
    f = frequency_indicator(u)
    if f > config.nu * state.scale_ref:
        direction, token = config.q, "scale_down"
    elif f < state.scale_ref:
        direction, token = 1.0 / config.q, "scale_up"
    else:
        return u, state, [], f
    while True:
        beta_trial = direction * u.descriptor.beta
        if not (config.beta_lo <= beta_trial <= config.beta_hi):
            break
        trial = rescale(u, beta_trial)
        f_trial = frequency_indicator(trial)
        if f_trial <= f:
            u = trial
            f = f_trial
            state = replace(state, scale_ref=f_trial)
            actions.append(token)
        else:
            break
    return u, state, actions, f


def move_step(
    u: SpectralExpansion, state: AdaptiveState, config: ControllerConfig
) -> tuple[SpectralExpansion, AdaptiveState, list[str], float | None]:
    """One translation decision (reconstructed companion-method loop).

    While the exterior indicator exceeds mu * exterior_ref, shift the grid
    rightward by delta (at most d_max in total, so an integer number of
    increments), splitting at the shifted grid's default node; after any
    move the exterior reference is renewed.  Also returns the exterior
    reading of the result (None on a bounded family).
    """
    if u.descriptor.bounded:
        return u, state, [], None
    actions: list[str] = []
    e = exterior_error_indicator(u)
    moved = 0.0
    while e > config.mu * state.exterior_ref and moved + config.delta <= config.d_max * (1 + 1e-12):
        u = translate(u, config.delta)
        moved += config.delta
        actions.append("move")
        e = exterior_error_indicator(u)
    if actions:
        state = replace(state, exterior_ref=e)
    return u, state, actions, e


def orchestrate_step(
    u: SpectralExpansion,
    state: AdaptiveState,
    config: ControllerConfig,
    evolve: Callable[[SpectralExpansion], SpectralExpansion],
) -> tuple[SpectralExpansion, AdaptiveState, StepRecord]:
    """One full adaptive step: evolve, then move, scale, and order checks.

    The exterior split point follows the current grid.  Each indicator is
    read once per expansion: scale's reading opens the order step, and the
    record keeps the controllers' last readings and measures the rest; after
    an order change they renew the scale/exterior references on the new basis.
    """
    u = evolve(u)
    actions: list[str] = []
    unbounded = not u.descriptor.bounded
    freq = ext = None  # readings on the current u

    if config.moving and unbounded:
        u, state, acts, ext = move_step(u, state, config)
        actions += acts

    if config.scaling and unbounded:
        u, state, acts, freq = scale_step(u, state, config)
        actions += acts

    order_acts = []
    if config.p_adaptivity:
        u, state, order_acts, freq = p_adapt_step(u, state, config, freq)
        actions += order_acts
    ext = ext if set(actions) <= {"move"} else None  # move's, unless a later controller acted

    d = u.descriptor
    freq = frequency_indicator(u) if freq is None else freq
    ext = exterior_error_indicator(u) if ext is None and unbounded else ext
    if order_acts:
        state = replace(
            state, scale_ref=freq, exterior_ref=ext if unbounded else state.exterior_ref
        )

    return u, state, StepRecord(
        actions=tuple(actions),
        freq=freq,
        ext=ext,
        order=d.order,
        beta=d.beta if unbounded else None,
        x_left=d.x_left if unbounded else None,
    )


def _step_count(dt, T):
    if not (0.0 < dt < math.inf and 0.0 < T < math.inf and T / dt < math.inf):
        raise ValueError("dt and T must be positive and finite")
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must be a positive integer number of steps")
    return n


def _check_finite(vals, t, what):
    if not np.isfinite(vals).all():
        raise RuntimeError(f"non-finite {what} at t={t:.6g}")
    return vals


def _sample(f, t, d, dy=None):
    """f interpolated at the nodes of d, or of the tensor space d x dy, where f(X, Y)
    gets the open grids as `_on_grid` passes them; a NaN or infinite sample raises
    RuntimeError naming t, before it reaches the transform."""
    x = nodes_weights(d).nodes
    if dy is None:
        return to_coefficients(_check_finite(np.asarray(f(x)), t, "sample"), d)
    vals = _check_finite(_on_grid(f, x, nodes_weights(dy).nodes), t, "sample")
    return to_coefficients_2d(vals, d, dy)


def _march(u, state, step, dt, T, on_step):
    """March u from t=0 to t=T in steps of dt; return (u, per-step records).

    step(u, state, t, t_next) returns the next (u, state, record), and
    on_step(t_next, u, record), when given, sees each step.  T must be a
    positive whole number of steps; non-finite coefficients stop the march
    at the time they appear.
    """
    _check_finite(u.coefficients, 0.0, "initial coefficients")
    records = []
    for n in range(_step_count(dt, T)):
        t_next = (n + 1) * dt
        u, state, rec = step(u, state, n * dt, t_next)
        _check_finite(u.coefficients, t_next, "coefficients")
        records.append(rec)
        if on_step is not None:
            on_step(t_next, u, rec)
    return u, records


def _adaptive_march(u0, config, evolve, dt, T, on_step):
    """_march from u0 and initial_state(u0); each step orchestrates evolve(w, t, t_next)."""

    def step(u, state, t, t_next):
        return orchestrate_step(u, state, config, lambda w: evolve(w, t, t_next))

    return _march(u0, initial_state(u0, config), step, dt, T, on_step)
