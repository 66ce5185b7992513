"""RK3 collocation stepping and target-tracking drivers."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from adaptspec import (
    BasisDescriptor,
    Family,
    SpectralExpansion,
    nodes_weights,
    to_coefficients,
    to_values,
)
from adaptspec.adapt import ControllerConfig
from adaptspec.indicators import relative_error
from adaptspec.solvers import (
    EvolutionProblem,
    advection_rhs,
    rk3_step,
    solve_collocation,
    track_function,
    track_function_2d,
)

CHEB = lambda n: BasisDescriptor(Family.CHEBYSHEV, n)
LEG = lambda n: BasisDescriptor(Family.LEGENDRE, n)
LAG = lambda n, **kw: BasisDescriptor(Family.LAGUERRE_FN, n, **kw)

analytic = lambda x, t: np.cos((t + 1.0) * (x + 2.0))
bc = (-1, lambda s: math.cos(3.0 * (s + 1.0)))


def advect_fixed_grid(dt, T, n):
    d = CHEB(n)
    x = nodes_weights(d).nodes
    u = to_coefficients(analytic(x, 0.0), d)
    for k in range(round(T / dt)):
        u = rk3_step(advection_rhs, u, k * dt, dt, bc)
    return u


# ------------------------------------------------------------ rk3_step


def test_rk3_zero_rhs_is_identity():
    rng = np.random.default_rng(0)
    u = SpectralExpansion(CHEB(10), rng.standard_normal(11))
    v = rk3_step(lambda w, t: np.zeros(11), u, 0.0, 0.1)
    npt.assert_allclose(v.coefficients, u.coefficients, atol=1e-13)


def test_rk3_scalar_exponential_order():
    # constant-in-x data turns the step into the scalar stability function
    # R(z) = 1 + z + z^2/2 + z^3/6; R(z) - e^z = O(z^4)
    lam = -2.0
    for dt in (0.1, 0.05):
        u = SpectralExpansion(CHEB(4), np.array([1.0, 0, 0, 0, 0]))
        v = rk3_step(lambda w, t: lam * np.full(5, to_values(w, [0.0])[0]), u, 0.0, dt)
        got = to_values(v, [0.3])[0]
        z = lam * dt
        r = 1 + z + z**2 / 2 + z**3 / 6
        npt.assert_allclose(got, r, rtol=1e-12)
        assert abs(got - math.exp(z)) < abs(z) ** 4


def test_rk3_imposes_boundary_value_exactly():
    u = advect_fixed_grid(0.01, 0.05, 24)
    x = nodes_weights(u.descriptor).nodes
    assert x[-1] == pytest.approx(1.0)
    vals = to_values(u, [1.0])
    npt.assert_allclose(vals[0], math.cos(3.0 * 1.05), atol=1e-12)


def test_rk3_aborts_on_nan():
    u = SpectralExpansion(CHEB(4), np.ones(5))
    with pytest.raises(RuntimeError, match="non-finite"):
        rk3_step(lambda w, t: np.full(5, np.nan), u, 0.0, 0.01)


def _slope_with(node, value, on_call):
    """A zero right-hand side whose call number on_call (0, 1, 2: the three
    stages) returns value at node."""
    calls = []

    def rhs(w, t):
        k = np.zeros(w.descriptor.size)
        if len(calls) == on_call:
            k[node] = value
        calls.append(t)
        return k

    return rhs


# t=0.5, dt=0.25: the stages read slopes at t, t+dt, t+dt/2 and pin at t+dt, t+dt/2, t+dt
_STAGE_TIMES = ("0.5", "0.75", "0.625")


@pytest.mark.parametrize("on_call", [0, 1, 2])
@pytest.mark.parametrize(
    "node,value",
    [(-1, np.nan), (3, np.inf), (3, -np.inf)],
    ids=["nan-at-dirichlet-node", "plus-inf-interior", "minus-inf-interior"],
)
def test_rk3_refuses_a_non_finite_slope(node, value, on_call):
    # a NaN at the Dirichlet node would be overwritten by the pinned value,
    # and an infinite slope would reach the transform, so each slope is
    # checked where it is produced, before either happens
    u = SpectralExpansion(CHEB(6), np.ones(7))
    match = r"non-finite right-hand side at t=%s$" % _STAGE_TIMES[on_call].replace(".", r"\.")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=match):
            rk3_step(_slope_with(node, value, on_call), u, 0.5, 0.25, bc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
@pytest.mark.parametrize("bad_t", ["0.75", "0.625"])
def test_rk3_refuses_a_non_finite_boundary_value(value, bad_t):
    u = SpectralExpansion(CHEB(6), np.ones(7))
    g = lambda s: value if s == float(bad_t) else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"non-finite .* at t=%s$" % bad_t.replace(".", r"\.")):
            rk3_step(lambda w, t: np.zeros(7), u, 0.5, 0.25, (-1, g))


def test_rk3_third_order_convergence():
    # dt choices sit inside the explicit stability region for the N=32
    # Lobatto grid (min spacing ~ N^-2) with time error still far above
    # the spectral-in-space floor
    errs = {}
    for dt in (1e-3, 5e-4):
        u = advect_fixed_grid(dt, 0.5, 32)
        errs[dt] = relative_error(u, lambda x: analytic(x, 0.5))
    ratio = errs[1e-3] / errs[5e-4]
    assert 6.0 < ratio < 10.0


# ------------------------------------------------------- advection_rhs


def test_advection_rhs_constant_is_zero():
    u = SpectralExpansion(CHEB(8), np.r_[3.0, np.zeros(8)])
    npt.assert_allclose(advection_rhs(u, 0.7), np.zeros(9), atol=1e-12)


def test_advection_rhs_linear_data():
    u = SpectralExpansion(CHEB(8), np.r_[0.0, 1.0, np.zeros(7)])
    x = nodes_weights(u.descriptor).nodes
    npt.assert_allclose(advection_rhs(u, 0.0), x + 2.0, atol=1e-12)


def test_advection_rhs_matches_time_derivative_of_analytic():
    # for the analytic solution the PDE gives du/dt = ((x+2)/(t+1)) du/dx
    d = CHEB(30)
    x = nodes_weights(d).nodes
    t = 0.3
    u = to_coefficients(analytic(x, t), d)
    dudt = -(x + 2.0) * np.sin((t + 1.0) * (x + 2.0))
    npt.assert_allclose(advection_rhs(u, t), dudt, atol=1e-8)


def test_advection_rhs_requires_chebyshev():
    with pytest.raises(ValueError):
        advection_rhs(SpectralExpansion(LEG(4), np.ones(5)), 0.0)


# --------------------------------------------------- solve_collocation


def test_fixed_order_anchor():
    # controllers off, N=40: resolvable solution stays accurate
    u = advect_fixed_grid(0.001, 0.5, 40)
    assert relative_error(u, lambda x: analytic(x, 0.5)) < 1e-6


def test_adaptive_advection_run():
    d = CHEB(10)
    x = nodes_weights(d).nodes
    u0 = to_coefficients(analytic(x, 0.0), d)
    problem = EvolutionProblem(rhs=advection_rhs, dt=0.001, T=0.5, boundary=bc)
    cfg = ControllerConfig(eta=1.5, gamma=1.1, n_max=3, n_min=0)
    u, records = solve_collocation(problem, cfg, u0)
    assert len(records) == 500
    # growing oscillation: refinement only, never coarsening
    assert all("coarsen" not in r.actions for r in records)
    assert u.descriptor.order > 10
    assert relative_error(u, lambda x: analytic(x, 0.5)) < 1e-4


def test_problem_validation():
    with pytest.raises(ValueError):
        EvolutionProblem(rhs=advection_rhs, dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        EvolutionProblem(rhs=advection_rhs, dt=0.1, T=0.05)


# ------------------------------------------------------ track_function


def test_tracking_time_independent_target_never_acts():
    target = lambda x, t: np.exp(-x) * np.cos(x)
    cfg = ControllerConfig()
    u, records = track_function(target, cfg, LAG(40, beta=2.0), dt=0.01, T=0.2)
    assert all(r.actions == () for r in records)
    assert u.descriptor.order == 40
    assert u.descriptor.beta == 2.0


@pytest.mark.parametrize("dt, T", [(0.0, 1.0), (0.01, math.inf), (0.01, math.nan), (1e-310, 1e10)])
def test_tracking_refuses_a_step_or_horizon_that_is_not_positive_and_finite(dt, T):
    target = lambda x, t: np.exp(-x)
    with pytest.raises(ValueError, match="positive and finite"):
        track_function(target, ControllerConfig(), LAG(10), dt=dt, T=T)
    with pytest.raises(ValueError, match="positive and finite"):
        track_function_2d(lambda X, Y, t: X * Y, ControllerConfig(), LEG(4), LEG(4), dt=dt, T=T)


def test_tracking_spreading_oscillatory_target():
    # envelope exp(-x/(0.7 t + 2)) relaxes over time: the grid must spread
    # (beta down) and the order must grow to keep the visible cos(x) waves
    target = lambda x, t: np.exp(-x / (0.7 * t + 2.0)) * np.cos(x)
    cfg = ControllerConfig(
        eta=1.2, eta0=1.2, gamma=1.05, n_max=3, q=0.95, nu=1 / 0.95,
        beta_lo=0.3, beta_hi=10.0, moving=False,
    )
    u, records = track_function(target, cfg, LAG(50, beta=4.0), dt=1e-3, T=1.0)
    err = relative_error(u, lambda x: target(x, 1.0))
    assert u.descriptor.beta < 4.0
    assert u.descriptor.order > 50
    assert err < 1e-3


def test_tracking_concentrating_target_coarsens_and_scales_up():
    # envelope exp(-(0.5 t + 0.5) x) sharpens: beta up, order down
    target = lambda x, t: np.exp(-(0.5 * t + 0.5) * x) * np.cos(x)
    cfg = ControllerConfig(
        eta=1.2, eta0=1.2, gamma=1.05, n_max=3, q=0.95, nu=1 / 0.95,
        beta_lo=0.3, beta_hi=10.0, moving=False,
    )
    u, records = track_function(target, cfg, LAG(50, beta=4.0), dt=1e-3, T=1.0)
    assert u.descriptor.beta > 4.0
    assert u.descriptor.order < 50
    assert relative_error(u, lambda x: target(x, 1.0)) < 1e-6


# --------------------------------------------------- track_function_2d


def test_tracking_2d_anisotropic_refinement():
    # oscillation grows in x only; y direction stays lazy
    target = lambda X, Y, t: np.sin((2.0 + 6.0 * t) * X) * np.cos(2.0 * Y)
    cfg = ControllerConfig(eta=1.2, eta0=1.2, gamma=1.05, n_max=3)
    u, records = track_function_2d(target, cfg, LEG(24), LEG(24), dt=0.01, T=0.5)
    assert u.descriptor_x.order > 24
    assert u.descriptor_x.order > u.descriptor_y.order
    fin = records[-1]
    assert fin.order_x == u.descriptor_x.order
    err_ref = lambda X, Y: target(X, Y, 0.5)
    from adaptspec.indicators import relative_error_2d

    assert relative_error_2d(u, err_ref) < 1e-6


def test_tracking_2d_constant_target_silent():
    target = lambda X, Y, t: np.ones_like(X)
    cfg = ControllerConfig()
    u, records = track_function_2d(target, cfg, LEG(8), LEG(8), dt=0.1, T=0.5)
    assert all(r.actions == () for r in records)
    assert (u.descriptor_x.order, u.descriptor_y.order) == (8, 8)


def test_tracking_2d_records_the_order_step_readings(monkeypatch):
    # the order step hands back its axis readings: a step with no action
    # reads the axis indicators once, and every record keeps them bit for bit
    from adaptspec import adapt, indicators, solvers

    calls = []

    def counted(u, *axes):
        calls.append(u)
        return indicators._axis_indicators(u, *axes)

    monkeypatch.setattr(adapt, "_axis_indicators", counted)
    monkeypatch.setattr(solvers, "_axis_indicators", counted)
    target = lambda X, Y, t: np.sin((2.0 + 6.0 * t) * X) * np.cos(2.0 * Y)
    cfg = ControllerConfig(eta=1.2, eta0=1.2, gamma=1.05, n_max=3)
    seen = []
    track_function_2d(target, cfg, LEG(10), LEG(10), dt=0.05, T=0.5,
                      on_step=lambda t, u, rec: seen.append((len(calls), u, rec)))
    reads = [n - m for m, (n, _, _) in zip([1] + [n for n, _, _ in seen], seen)]
    idle = [k for k, (_, _, rec) in enumerate(seen) if not rec.actions]
    assert 0 < len(idle) < len(seen)  # steps with and without an action
    assert [reads[k] for k in idle] == [1] * len(idle)
    for _, u, rec in seen:
        assert (rec.freq, rec.ext) == indicators._axis_indicators(u)


def _on_full_grids(target):
    """target called with full (nx, ny) grids, as meshgrid gives them without sparse=True."""

    def full(X, Y, t):
        X, Y = (np.ascontiguousarray(a) for a in np.broadcast_arrays(X, Y))
        return target(X, Y, t)

    return full


@pytest.mark.parametrize(
    "target",
    [
        lambda X, Y, t: np.sin((2.0 + 6.0 * t) * X) * np.cos(2.0 * Y),  # full (nx, ny)
        lambda X, Y, t: np.ones_like(X),  # shape (nx, 1)
        lambda X, Y, t: np.cos((1.0 + 8.0 * t) * Y),  # Y only: shape (1, ny)
    ],
)
def test_tracking_2d_open_grids_equal_full_grids(target):
    cfg = ControllerConfig(eta=1.2, eta0=1.2, gamma=1.05, n_max=3)
    shapes = set()

    def spy(X, Y, t):
        shapes.add((X.shape[1], Y.shape[0]))
        return target(X, Y, t)

    run = lambda f: track_function_2d(f, cfg, LEG(10), LEG(12), dt=0.05, T=0.5)
    u, records = run(spy)
    w, full_records = run(_on_full_grids(target))
    assert shapes == {(1, 1)}  # open grids: X is (nx, 1), Y is (1, ny)
    assert records == full_records
    assert (u.descriptor_x, u.descriptor_y) == (w.descriptor_x, w.descriptor_y)
    assert np.array_equal(u.coefficients, w.coefficients)


def test_tracking_2d_refuses_a_target_of_the_wrong_shape():
    target = lambda X, Y, t: np.ones((X.shape[0], 2))  # (nx, 2) against ny = 9
    with pytest.raises(ValueError):
        track_function_2d(target, ControllerConfig(), LEG(8), LEG(8), dt=0.1, T=0.2)
