"""Reconstruction primitives and the three adaptivity controllers."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from adaptspec import (
    BasisDescriptor,
    Expansion2D,
    Family,
    SpectralExpansion,
    nodes_weights,
    to_coefficients,
    to_coefficients_2d,
    to_values,
    to_values_2d,
)
from adaptspec import basis
from adaptspec.adapt import (
    AdaptiveState,
    ControllerConfig,
    coarsen,
    initial_state,
    move_step,
    orchestrate_step,
    p_adapt_step,
    p_adapt_step_2d,
    refine,
    rescale,
    resample,
    resample_2d,
    scale_step,
    translate,
)
from adaptspec.indicators import (
    exterior_error_indicator,
    frequency_indicator,
    frequency_indicator_axis,
)

HER = lambda n, **kw: BasisDescriptor(Family.HERMITE_FN, n, **kw)
LAG = lambda n, **kw: BasisDescriptor(Family.LAGUERRE_FN, n, **kw)
LEG = lambda n: BasisDescriptor(Family.LEGENDRE, n)
CHEB = lambda n: BasisDescriptor(Family.CHEBYSHEV, n)


def state_with(**kw):
    base = dict(freq_ref=0.5, scale_ref=0.5, exterior_ref=0.0, refine_factor=1.2)
    base.update(kw)
    return AdaptiveState(**base)


# -------------------------------------------------------- refine/coarsen


def test_refine_constant_legendre():
    u = SpectralExpansion(LEG(2), np.array([1.0, 0.0, 0.0]))
    v = refine(u)
    assert v.descriptor.order == 3
    npt.assert_allclose(v.coefficients, [1, 0, 0, 0], atol=1e-14)


def test_refine_is_lossless():
    rng = np.random.default_rng(1)
    u = SpectralExpansion(CHEB(8), rng.standard_normal(9))
    v = refine(u)
    x = np.linspace(-1, 1, 100)
    npt.assert_allclose(to_values(v, x), to_values(u, x), atol=1e-12)
    # new top coefficient vanishes
    assert abs(v.coefficients[-1]) < 1e-13


@pytest.mark.parametrize(
    "d",
    [
        LEG(11),
        CHEB(11),
        HER(11, beta=1.3, x_left=0.4),
        LAG(11, beta=0.8, x_left=-1.0),
    ],
    ids=str,
)
def test_refine_zero_pad_matches_resample(d):
    rng = np.random.default_rng(4)
    c = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    u = SpectralExpansion(d, c)
    v = refine(u)
    assert v.coefficients[-1] == 0.0 and np.array_equal(v.coefficients[:-1], c)
    w = resample(u, replace(d, order=d.order + 1))
    assert v.descriptor == w.descriptor
    npt.assert_allclose(v.coefficients, w.coefficients, rtol=0, atol=1e-14)


def test_refine_coarsen_refine_idempotent():
    rng = np.random.default_rng(2)
    u = SpectralExpansion(HER(6, beta=1.3), rng.standard_normal(7))
    v = refine(u)  # exactly representable at order 7 with zero top mode
    w = refine(coarsen(v))
    npt.assert_allclose(w.coefficients, v.coefficients, atol=1e-12)


def test_coarsen_exact_when_top_mode_zero():
    rng = np.random.default_rng(3)
    c = np.r_[rng.standard_normal(8), 0.0]
    u = SpectralExpansion(LEG(8), c)
    v = coarsen(u)
    npt.assert_allclose(v.coefficients, c[:8], atol=1e-12)


def test_coarsen_truncates_the_top_mode():
    # the L2 projection drops T_4 entirely; interpolating at the 4-point
    # Chebyshev-Lobatto grid would alias it onto T_2
    u = SpectralExpansion(CHEB(4), np.array([0.0, 0, 0, 0, 1.0]))
    v = coarsen(u)
    assert v.descriptor == CHEB(3)
    npt.assert_array_equal(v.coefficients, np.zeros(4))
    # any family, complex coefficients: the first N coefficients, bit for bit,
    # in a fresh array, with no grid built
    rng = np.random.default_rng(17)
    c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    u = SpectralExpansion(HER(12, beta=1.3, x_left=0.4), c)
    misses = basis._core.cache_info().misses
    v = coarsen(u)
    assert basis._core.cache_info().misses == misses
    assert v.descriptor == HER(11, beta=1.3, x_left=0.4)
    npt.assert_array_equal(v.coefficients, c[:12])
    assert not np.shares_memory(v.coefficients, c)


def test_coarsen_linear_to_constant():
    # order-0 Legendre rule has its node at 0, so the constant is U(0) = a0
    u = SpectralExpansion(LEG(1), np.array([0.7, 0.3]))
    v = coarsen(u)
    npt.assert_allclose(v.coefficients, [0.7], atol=1e-15)


def test_coarsen_order_zero_raises():
    with pytest.raises(ValueError):
        coarsen(SpectralExpansion(LEG(0), np.array([1.0])))


# ------------------------------------------------------ rescale/translate


def test_rescale_identity():
    rng = np.random.default_rng(4)
    u = SpectralExpansion(HER(10, beta=1.5), rng.standard_normal(11))
    v = rescale(u, 1.5)
    npt.assert_allclose(v.coefficients, u.coefficients, atol=1e-13)


def test_rescale_round_trip_smooth():
    d = HER(24)
    r = nodes_weights(d)
    u = to_coefficients(np.exp(-r.nodes**2 / 2), d)
    v = rescale(rescale(u, 1 / 0.9), 0.9 * (1 / 0.9) * 1.0)
    v = rescale(rescale(u, 1 / 0.9), 1.0)
    npt.assert_allclose(v.coefficients, u.coefficients, atol=1e-10)


def test_rescale_preserves_values_at_new_nodes():
    d = LAG(12, beta=1.0)
    r = nodes_weights(d)
    u = to_coefficients(np.exp(-r.nodes), d)
    v = rescale(u, 2.0)
    new_nodes = nodes_weights(v.descriptor).nodes
    npt.assert_allclose(to_values(v, new_nodes), to_values(u, new_nodes), atol=1e-13)


def test_rescale_bounded_raises():
    with pytest.raises(ValueError):
        rescale(SpectralExpansion(LEG(3), np.ones(4)), 2.0)


def test_translate_zero_identity():
    rng = np.random.default_rng(5)
    u = SpectralExpansion(HER(9), rng.standard_normal(10))
    npt.assert_allclose(translate(u, 0.0).coefficients, u.coefficients, atol=1e-13)


def test_translate_round_trip_smooth():
    d = HER(30)
    r = nodes_weights(d)
    u = to_coefficients(np.exp(-r.nodes**2 / 2) * np.cos(r.nodes), d)
    v = translate(translate(u, 0.4), -0.4)
    assert v.descriptor.x_left == pytest.approx(0.0, abs=1e-15)
    npt.assert_allclose(v.coefficients, u.coefficients, atol=1e-10)


def test_resample_2d_refines_both_axes():
    rng = np.random.default_rng(6)
    u = Expansion2D(LEG(5), CHEB(4), rng.standard_normal((6, 5)))
    v = resample_2d(u, LEG(7), CHEB(6))
    xs = np.linspace(-1, 1, 9)
    npt.assert_allclose(to_values_2d(v, xs, xs), to_values_2d(u, xs, xs), atol=1e-12)


def test_resample_2d_axis_trials_build_only_the_coarsening_matrix():
    # the unchanged axis, and a refined one, read the core rules' rows; only
    # a coarsened axis needs a cross matrix of its own
    rng = np.random.default_rng(16)
    u = Expansion2D(LEG(9), LEG(7), rng.standard_normal((10, 8)))
    basis._cross_matrix_cached.cache_clear()
    resample_2d(u, LEG(8), LEG(7))
    assert basis._cross_matrix_cached.cache_info().misses == 1
    resample_2d(u, LEG(10), LEG(7))
    resample_2d(u, LEG(9), LEG(8))
    assert basis._cross_matrix_cached.cache_info().misses == 1
    resample_2d(u, LEG(9), LEG(6))
    assert basis._cross_matrix_cached.cache_info().misses == 2
    xs = np.linspace(-1, 1, 7)
    v = resample_2d(u, LEG(10), LEG(7))
    npt.assert_allclose(to_values_2d(v, xs, xs), to_values_2d(u, xs, xs), atol=1e-12)


@pytest.mark.parametrize("order", [9, 7])
@pytest.mark.parametrize("axis", [0, 1])
def test_resample_2d_keeps_an_unchanged_axis_bit_for_bit(axis, order, monkeypatch):
    # modes above 0 on the frozen axis are exactly zero and stay so: a trial on
    # one axis takes no transform along the other
    U = np.zeros((9, 9))
    U[:, 0] = 0.9 ** np.arange(9)
    u = Expansion2D(LEG(8), LEG(8), U if axis == 0 else U.T)
    transformed = []
    transform_of = basis._transform_of
    monkeypatch.setattr(basis, "_transform_of", lambda d: transformed.append(d) or transform_of(d))
    ds = [LEG(8), LEG(8)]
    ds[axis] = LEG(order)
    w = resample_2d(u, *ds)
    assert transformed == [LEG(order)]
    frozen = w.coefficients[:, 1:] if axis == 0 else w.coefficients[1:, :]
    assert not frozen.any()
    assert frequency_indicator_axis(w, 1 - axis) == 0.0


# ------------------------------------------------------------ p-adapt


def test_p_adapt_dead_zone_no_change():
    rng = np.random.default_rng(7)
    u = SpectralExpansion(HER(10), rng.standard_normal(11))
    f = frequency_indicator(u)
    st = state_with(freq_ref=f, refine_factor=1.2)
    cfg = ControllerConfig(eta0=1.2)
    v, st2, actions, _ = p_adapt_step(u, st, cfg)
    assert actions == []
    assert v is u
    assert st2 == st


def test_p_adapt_exactly_n_max_refinements():
    # slowly decaying modes keep the indicator far above the threshold
    c = 0.9 ** np.arange(13)
    u = SpectralExpansion(HER(12), c)
    st = state_with(freq_ref=1e-9, refine_factor=1.2)
    cfg = ControllerConfig(eta0=1.2, gamma=1.05, n_max=4)
    v, st2, actions, _ = p_adapt_step(u, st, cfg)
    assert actions == ["refine"] * 4
    assert v.descriptor.order == 16
    # reference rebased to the post-loop indicator, multiplier grew once
    npt.assert_allclose(st2.freq_ref, frequency_indicator(v), rtol=1e-13)
    npt.assert_allclose(st2.refine_factor, 1.2 * 1.05, rtol=1e-15)


def test_p_adapt_refine_stops_at_absolute_cap():
    c = 0.9 ** np.arange(13)
    u = SpectralExpansion(HER(12), c)
    st = state_with(freq_ref=1e-9)
    cfg = ControllerConfig(n_max=6, n_abs=14)
    v, st2, actions, _ = p_adapt_step(u, st, cfg)
    assert v.descriptor.order == 14
    assert actions == ["refine"] * 2
    # the branch still rebases the reference
    npt.assert_allclose(st2.freq_ref, frequency_indicator(v), rtol=1e-13)


def test_p_adapt_refine_stops_at_max_order(monkeypatch):
    monkeypatch.setattr(basis, "MAX_ORDER", 12)
    u = SpectralExpansion(LEG(12), np.ones(13))
    v, st2, actions, _ = p_adapt_step(u, state_with(freq_ref=1e-9), ControllerConfig(n_max=6))
    assert actions == [] and v is u
    npt.assert_allclose(st2.freq_ref, frequency_indicator(u), rtol=1e-15)
    # n_abs above the limit does not lift it
    v, _, actions, _ = p_adapt_step(
        SpectralExpansion(LEG(10), np.ones(11)),
        state_with(freq_ref=1e-9),
        ControllerConfig(n_max=6, n_abs=20),
    )
    assert actions == ["refine"] * 2 and v.descriptor.order == 12
    u2 = Expansion2D(LEG(12), LEG(10), np.ones((13, 11)))
    v2, _, _, actions, _ = p_adapt_step_2d(
        u2, state_with(freq_ref=1e-9), state_with(freq_ref=1e-9), ControllerConfig(n_max=6)
    )
    assert actions == ["refine_y"] * 2
    assert (v2.descriptor_x.order, v2.descriptor_y.order) == (12, 12)


def test_p_adapt_accepted_coarsen():
    c = np.array([1.0, 0.5, 1e-9, 1e-10, 1e-11])
    u = SpectralExpansion(HER(4), c)
    f = frequency_indicator(u)
    st = state_with(freq_ref=0.1)
    cfg = ControllerConfig(eta0=1.2)
    assert f < 0.1 / 1.2  # scenario precondition
    v, st2, actions, _ = p_adapt_step(u, st, cfg)
    assert actions == ["coarsen"]
    assert v.descriptor.order == 3
    assert st2.freq_ref == pytest.approx(frequency_indicator(v))
    assert st2.freq_ref < 0.1


def test_p_adapt_coarsen_rejected_when_trial_not_better():
    # the large mode at order 2 sits below the tail band at N=3 but lands
    # inside it at N=2, so the trial indicator jumps by orders of magnitude
    c = np.array([1.0, 0.0, 0.3, 1e-6])
    u = SpectralExpansion(HER(3), c)
    f = frequency_indicator(u)
    ft = frequency_indicator(coarsen(u))
    assert ft > 1.2 * f  # scenario precondition
    st = state_with(freq_ref=ft)  # trial must be strictly below freq_ref
    v, st2, actions, _ = p_adapt_step(u, st, ControllerConfig(eta0=1.2))
    assert actions == []
    assert v is u
    assert st2 == st


def test_p_adapt_at_most_one_coarsen_per_call():
    c = np.array([1.0] + [1e-12] * 10)
    u = SpectralExpansion(HER(10), c)
    st = state_with(freq_ref=0.5)
    v, st2, actions, _ = p_adapt_step(u, st, ControllerConfig(eta0=1.2))
    assert actions.count("coarsen") <= 1
    assert v.descriptor.order >= 9


def test_p_adapt_respects_n_min():
    c = np.array([1.0, 1e-13, 1e-13])
    u = SpectralExpansion(HER(2), c)
    st = state_with(freq_ref=0.5)
    cfg = ControllerConfig(eta0=1.2, n_min=2)
    v, _, actions, _ = p_adapt_step(u, st, cfg)
    assert actions == []
    assert v.descriptor.order == 2


def test_p_adapt_floor_is_order_two_by_default():
    u = SpectralExpansion(HER(2), np.array([1.0, 1e-13, 1e-13]))
    v, _, actions, _ = p_adapt_step(u, state_with(freq_ref=0.5), ControllerConfig())
    assert actions == [] and v.descriptor.order == 2
    # the floor stays settable, and 0 lets the same step coarsen
    v, _, actions, _ = p_adapt_step(u, state_with(freq_ref=0.5), ControllerConfig(n_min=0))
    assert actions == ["coarsen"] and v.descriptor.order == 1


def test_p_adapt_threshold_boundaries_are_dead():
    rng = np.random.default_rng(8)
    u = SpectralExpansion(HER(8), rng.standard_normal(9))
    f = frequency_indicator(u)
    # f == refine_factor * freq_ref exactly: no refine (strict >)
    st = state_with(freq_ref=f / 1.2, refine_factor=1.2)
    _, _, actions, _ = p_adapt_step(u, st, ControllerConfig(eta0=1.2))
    assert actions == []
    # f == freq_ref / eta0 exactly: no coarsen (strict <)
    st = state_with(freq_ref=f * 1.2)
    _, _, actions, _ = p_adapt_step(u, st, ControllerConfig(eta0=1.2))
    assert actions == []


def test_p_adapt_never_refines_on_roundoff():
    # a tail at roundoff reads far above refine_factor * freq_ref, yet at or
    # below the 1e-12 floor; the same shape ten times larger refines
    for tail, refines in [(1e-13, False), (1e-11, True)]:
        u = SpectralExpansion(HER(12), np.r_[1.0, 0.5, 0.25, np.full(10, tail)])
        f = frequency_indicator(u)
        assert (f > 1e-12) == refines  # scenario precondition
        st = state_with(freq_ref=f / 10, refine_factor=1.2)
        v, st2, actions, _ = p_adapt_step(u, st, ControllerConfig())
        if refines:
            assert actions[0] == "refine"
        else:
            assert actions == [] and v is u and st2 == st


def test_p_adapt_2d_axis_reading_roundoff_does_not_refine():
    ay = 0.9 ** np.arange(9)
    for tail, refines in [(1e-13, False), (1e-11, True)]:
        u = Expansion2D(LEG(8), LEG(8), np.outer(np.r_[1.0, 0.5, 0.25, np.full(6, tail)], ay))
        fx = frequency_indicator_axis(u, 0)
        assert (fx > 1e-12) == refines  # scenario precondition
        sx = state_with(freq_ref=fx / 10, refine_factor=1.2)
        sy = state_with(freq_ref=1e-9)
        v, sx2, _, actions, _ = p_adapt_step_2d(u, sx, sy, ControllerConfig(n_max=2))
        assert ("refine_x" in actions) == refines
        assert actions.count("refine_y") == 2
        if not refines:
            assert v.descriptor_x == u.descriptor_x and sx2 == sx


# --------------------------------------------------------- p-adapt 2D


def test_p_adapt_2d_isotropic_symmetric_actions():
    rng = np.random.default_rng(9)
    a = 0.9 ** np.arange(9)
    u = Expansion2D(LEG(8), LEG(8), np.outer(a, a))
    sx = state_with(freq_ref=1e-9)
    sy = state_with(freq_ref=1e-9)
    cfg = ControllerConfig(n_max=2)
    v, sx2, sy2, actions, _ = p_adapt_step_2d(u, sx, sy, cfg)
    assert actions.count("refine_x") == actions.count("refine_y") == 2
    assert v.descriptor_x.order == v.descriptor_y.order == 10
    npt.assert_allclose(sx2.freq_ref, sy2.freq_ref, rtol=1e-12)


def test_p_adapt_2d_anisotropic_refines_one_axis():
    # rows rich in high-i modes; columns negligible beyond j=0
    U = np.zeros((9, 9))
    U[:, 0] = 0.9 ** np.arange(9)
    u = Expansion2D(LEG(8), LEG(8), U)
    fx = frequency_indicator_axis(u, 0)
    fy = frequency_indicator_axis(u, 1)
    assert fx > 0.01 and fy == 0.0
    sx = state_with(freq_ref=fx / 2, refine_factor=1.2)
    sy = state_with(freq_ref=0.5, refine_factor=1.2)
    cfg = ControllerConfig(n_max=1, n_min=8)
    v, _, _, actions, _ = p_adapt_step_2d(u, sx, sy, cfg)
    assert actions == ["refine_x"]
    assert v.descriptor_x.order == 9
    assert v.descriptor_y.order == 8


def test_p_adapt_2d_dead_zone():
    rng = np.random.default_rng(10)
    u = Expansion2D(LEG(6), LEG(6), rng.standard_normal((7, 7)))
    sx = state_with(freq_ref=frequency_indicator_axis(u, 0))
    sy = state_with(freq_ref=frequency_indicator_axis(u, 1))
    v, _, _, actions, _ = p_adapt_step_2d(u, sx, sy, ControllerConfig())
    assert actions == []
    npt.assert_allclose(v.coefficients, u.coefficients, atol=1e-14)


def test_p_adapt_2d_resamples_once_per_trial_and_keeps_the_accepted_one(monkeypatch):
    from adaptspec import adapt

    trials = []

    def counted(*args):
        trials.append(adapt_resample_2d(*args))
        return trials[-1]

    adapt_resample_2d = adapt.resample_2d
    monkeypatch.setattr(adapt, "resample_2d", counted)
    a = 0.9 ** np.arange(9)
    u = Expansion2D(LEG(8), LEG(8), np.outer(a, a))
    low = state_with(freq_ref=1e-9)
    v, _, _, actions, _ = p_adapt_step_2d(u, low, low, ControllerConfig(n_max=2))
    assert len(actions) == len(trials) == 4 and v is trials[-1]

    # both coarsenings accepted: the y trial starts from x's, and is the result
    trials.clear()
    a = np.array([1.0, 0.5, 1e-9, 1e-10, 1e-11])
    u = Expansion2D(LEG(4), LEG(4), np.outer(a, a))
    high = state_with(freq_ref=0.1)
    v, _, _, actions, _ = p_adapt_step_2d(u, high, high, ControllerConfig(eta0=1.2))
    assert actions == ["coarsen_x", "coarsen_y"] and len(trials) == 2
    assert trials[1].descriptor_x == LEG(3) and v is trials[1]

    # both coarsenings rejected: two trials, and u itself comes back
    trials.clear()
    c = np.array([1.0, 0.0, 0.3, 1e-6])
    u = Expansion2D(LEG(3), LEG(3), np.outer(c, c))
    ref = state_with(freq_ref=1.5 * frequency_indicator_axis(u, 0))
    v, _, _, actions, _ = p_adapt_step_2d(u, ref, ref, ControllerConfig(eta0=1.2))
    assert actions == [] and len(trials) == 2 and v is u


# ------------------------------------------------------------ scaling


def make_gaussian_expansion(width, n=24, beta=1.0):
    d = HER(n, beta=beta)
    r = nodes_weights(d)
    return to_coefficients(np.exp(-(r.nodes / width) ** 2 / 2), d)


def test_scale_dead_zone():
    u = make_gaussian_expansion(1.5)
    f = frequency_indicator(u)
    st = state_with(scale_ref=f / 1.02)  # f in [f1, nu f1) for nu = 1/0.95
    v, st2, actions, _ = scale_step(u, st, ControllerConfig())
    assert actions == []
    assert v is u and st2 == st


def test_scale_down_for_wide_data():
    # width-3 Gaussian on a beta=1 grid: spreading the grid lowers the tail
    u = make_gaussian_expansion(3.0)
    f = frequency_indicator(u)
    st = state_with(scale_ref=f / 2)
    cfg = ControllerConfig(q=0.95, nu=1 / 0.95, beta_lo=0.1, beta_hi=10.0)
    v, st2, actions, _ = scale_step(u, st, cfg)
    assert actions and set(actions) == {"scale_down"}
    assert v.descriptor.beta < 1.0
    assert v.descriptor.beta >= cfg.beta_lo
    assert frequency_indicator(v) <= f
    npt.assert_allclose(st2.scale_ref, frequency_indicator(v), rtol=1e-12)


def test_scale_up_for_narrow_data():
    u = make_gaussian_expansion(1 / 3)
    f = frequency_indicator(u)
    st = state_with(scale_ref=f * 2)  # f < scale_ref triggers up-scaling
    cfg = ControllerConfig(q=0.95, nu=1 / 0.95)
    v, st2, actions, _ = scale_step(u, st, cfg)
    assert actions and set(actions) == {"scale_up"}
    assert v.descriptor.beta > 1.0
    assert frequency_indicator(v) <= f


def test_scale_rejected_trial_changes_nothing():
    # width-1 Gaussian is already optimal at beta = 1: any move hurts
    u = make_gaussian_expansion(1.0)
    f = frequency_indicator(u)
    st = state_with(scale_ref=f / 10)  # force the down-branch
    v, st2, actions, _ = scale_step(u, st, ControllerConfig())
    assert actions == []
    assert v.descriptor.beta == 1.0
    assert st2.scale_ref == st.scale_ref
    npt.assert_allclose(v.coefficients, u.coefficients, atol=0)


def test_scale_respects_beta_bounds():
    u = make_gaussian_expansion(3.0)
    f = frequency_indicator(u)
    st = state_with(scale_ref=f / 2)
    cfg = ControllerConfig(beta_lo=0.9, beta_hi=1.5)
    v, _, _, _ = scale_step(u, st, cfg)
    assert cfg.beta_lo <= v.descriptor.beta <= cfg.beta_hi


def test_scale_bounded_noop():
    u = SpectralExpansion(LEG(4), np.ones(5))
    v, _, actions, _ = scale_step(u, state_with(), ControllerConfig())
    assert v is u and actions == []


# ------------------------------------------------------------- moving


def packet_expansion(center, n=40, beta=1.0, x_left=0.0):
    d = HER(n, beta=beta, x_left=x_left)
    r = nodes_weights(d)
    return to_coefficients(np.exp(-((r.nodes - center) ** 2)) * np.cos(3 * r.nodes), d)


def test_move_noop_below_threshold():
    u = packet_expansion(0.0)
    e = exterior_error_indicator(u)
    st = state_with(exterior_ref=e)
    v, st2, actions, _ = move_step(u, st, ControllerConfig())
    assert actions == []
    assert v is u and st2 == st


def test_move_caps_at_d_max():
    # reference far below reality: every increment still exceeds the
    # threshold, so the full budget is spent
    u = packet_expansion(1.0)
    st = state_with(exterior_ref=1e-12)
    cfg = ControllerConfig(mu=1.0002, delta=0.005, d_max=0.1)
    v, st2, actions, _ = move_step(u, st, cfg)
    assert actions == ["move"] * 20
    npt.assert_allclose(v.descriptor.x_left, 0.1, atol=1e-12)
    # reference renewed on the moved basis, split at its default node
    npt.assert_allclose(st2.exterior_ref, exterior_error_indicator(v), rtol=1e-12)


def test_move_displacement_integer_multiple_of_delta():
    u = packet_expansion(0.8)
    e = exterior_error_indicator(u)
    st = state_with(exterior_ref=e / 4)
    cfg = ControllerConfig(mu=1.05, delta=0.03, d_max=0.3)
    v, _, actions, _ = move_step(u, st, cfg)
    k = len(actions)
    npt.assert_allclose(v.descriptor.x_left, k * 0.03, atol=1e-12)
    assert 0 < k * 0.03 <= 0.3 + 1e-12


def test_move_stops_once_indicator_recovers():
    u = packet_expansion(0.6)
    e = exterior_error_indicator(u)
    st = state_with(exterior_ref=e / 1.5)
    cfg = ControllerConfig(mu=1.1, delta=0.02, d_max=1.0)
    v, st2, actions, _ = move_step(u, st, cfg)
    assert actions  # moved at least once
    assert len(actions) * 0.02 < 1.0  # stopped before the cap
    assert st2.exterior_ref <= cfg.mu * (e / 1.5)


# --------------------------------------------------------- orchestrate


def test_orchestrate_dead_zones_change_nothing():
    u = packet_expansion(0.0)
    cfg = ControllerConfig()
    st = initial_state(u, cfg)
    v, st2, rec = orchestrate_step(u, st, cfg, evolve=lambda w: w)
    assert rec.actions == ()
    assert rec.order == u.descriptor.order
    assert rec.beta == u.descriptor.beta
    assert rec.x_left == u.descriptor.x_left
    npt.assert_allclose(v.coefficients, u.coefficients, atol=0)


def test_initial_state_reads_the_exterior_indicator_only_where_move_step_runs(monkeypatch):
    # exterior_ref is read by move_step alone, so it is measured at t=0 only
    # when moving is on and the family is unbounded
    from adaptspec import adapt

    calls = []

    def counted(w):
        calls.append(w.descriptor)
        return exterior_error_indicator(w)

    monkeypatch.setattr(adapt, "exterior_error_indicator", counted)
    u = packet_expansion(0.0)
    st = initial_state(u, ControllerConfig(moving=False))
    assert calls == [] and st.exterior_ref == 0.0
    st = initial_state(u, ControllerConfig(moving=True))
    assert calls == [u.descriptor] and st.exterior_ref == exterior_error_indicator(u)
    calls.clear()
    bounded = to_coefficients(np.cos(nodes_weights(LEG(8)).nodes), LEG(8))
    assert initial_state(bounded, ControllerConfig(moving=True)).exterior_ref == 0.0
    assert calls == []


def test_orchestrate_renews_references_after_order_change(monkeypatch):
    # the record's indicators renew the references: one exterior
    # evaluation follows the order step, not two
    from adaptspec import adapt

    calls = []

    def counted(name):
        fn = getattr(adapt, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("p_adapt_step", "exterior_error_indicator"):
        monkeypatch.setattr(adapt, name, counted(name))
    c = 0.9 ** np.arange(13)
    u = SpectralExpansion(HER(12), c)
    cfg = ControllerConfig(n_max=3, moving=False)
    st = replace(initial_state(u, cfg), freq_ref=1e-9)
    calls.clear()
    v, st2, rec = orchestrate_step(u, st, cfg, evolve=lambda w: w)
    assert "refine" in rec.actions
    assert v.descriptor.order == 15
    assert st2.scale_ref == rec.freq and st2.exterior_ref == rec.ext
    assert calls[calls.index("p_adapt_step") + 1:] == ["exterior_error_indicator"]
    npt.assert_allclose(st2.scale_ref, frequency_indicator(v), rtol=1e-12)
    npt.assert_allclose(st2.exterior_ref, exterior_error_indicator(v), rtol=1e-10)


def test_orchestrate_reads_each_indicator_once_per_expansion(monkeypatch):
    from adaptspec import adapt

    calls = Counter()

    def counted(name):
        fn = getattr(adapt, name)

        def wrapper(w):
            calls[name, w.descriptor] += 1
            return fn(w)

        return wrapper

    for name in ("frequency_indicator", "exterior_error_indicator"):
        monkeypatch.setattr(adapt, name, counted(name))
    d = HER(16)
    u = to_coefficients(np.exp(-((nodes_weights(d).nodes - 0.5) ** 2)), d)
    cfg = ControllerConfig(d_max=0.05)
    st = initial_state(u, cfg)
    # all three controllers on, every reference at the current readings: no action
    calls.clear()
    _, _, rec = orchestrate_step(u, st, cfg, evolve=lambda w: w)
    assert rec.actions == () and list(calls.values()) == [1, 1]
    # ten moves to the d_max budget, then scaling trials: still one reading
    # of each indicator per expansion
    calls.clear()
    _, _, rec = orchestrate_step(u, replace(st, exterior_ref=1e-15), cfg, evolve=lambda w: w)
    assert rec.actions[:11] == ("move",) * 10 + ("scale_up",)
    assert max(calls.values()) == 1


def test_orchestrate_moving_tracks_travelling_packet():
    # scripted advection: the "solver" interpolates a packet moving right
    # at speed 1; translation should follow within the d_max budget
    speed, dt = 1.0, 0.02
    cfg = ControllerConfig(
        mu=1.0002, delta=0.005, d_max=0.1, scaling=False, p_adaptivity=False
    )
    t = [0.0]

    def evolve(w):
        t[0] += dt
        r = nodes_weights(w.descriptor)
        vals = np.exp(-((r.nodes - speed * t[0]) ** 2)) * np.cos(3 * r.nodes)
        return to_coefficients(vals, w.descriptor)

    u = packet_expansion(0.0, n=40)
    st = initial_state(u, cfg)
    for _ in range(100):
        u, st, rec = orchestrate_step(u, st, cfg, evolve)
    # packet travelled 2.0; the grid shift should track it within 20%
    assert u.descriptor.x_left == pytest.approx(2.0, rel=0.2)


def test_orchestrate_bounded_skips_unbounded_controllers():
    rng = np.random.default_rng(12)
    u = SpectralExpansion(LEG(8), rng.standard_normal(9))
    cfg = ControllerConfig()
    st = initial_state(u, cfg)
    v, st2, rec = orchestrate_step(u, st, cfg, evolve=lambda w: w)
    assert rec.ext is None
    assert rec.beta is None and rec.x_left is None
    assert rec.order == v.descriptor.order


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(eta=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(eta0=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(q=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(beta_lo=2.0, beta_hi=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(mu=0.9)
    with pytest.raises(ValueError):
        ControllerConfig(n_abs=3, n_min=5)
    for d_max in (-0.1, math.nan):  # NaN would otherwise switch translation off
        with pytest.raises(ValueError, match="d_max"):
            ControllerConfig(d_max=d_max)
    # an infinite cap or beta bound would void the per-call move cap and the beta range
    for name in ("d_max", "beta_hi", "gamma", "eta", "delta", "q"):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            ControllerConfig(**{name: math.inf})
    assert ControllerConfig(n_abs=None).n_abs is None


def test_an_integer_field_refuses_a_non_integer():
    # an infinite n_max would void the per-call refine cap, a NaN n_min
    # would silently stop coarsening
    for name, value in (("n_max", math.inf), ("n_min", math.nan), ("n_abs", math.inf),
                        ("n_max", 2.5), ("n_abs", 12.0)):
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            ControllerConfig(**{name: value})
    assert ControllerConfig(n_max=np.int64(3), n_abs=None).n_max == 3


# ------------------------------------------- reference-frame operator caches


def _physical_resample(u, d_new):
    """The resample of the physical frame: the old basis at the new nodes."""
    B = basis.evaluate_all(u.descriptor, nodes_weights(d_new).nodes)
    return to_coefficients(B.T @ u.coefficients, d_new)


@pytest.mark.parametrize("d", [HER(30, beta=1.3, x_left=0.37), LAG(24, beta=0.8, x_left=1.1)])
def test_translate_through_shift_cache_matches_physical_frame(d):
    rng = np.random.default_rng(d.order)
    c = (rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)) * 0.85 ** np.arange(d.size)
    u = SpectralExpansion(d, c)
    for dist in (0.005, 0.005, 0.13):
        v = translate(u, dist)
        w = _physical_resample(u, v.descriptor)
        npt.assert_allclose(v.coefficients, w.coefficients, rtol=0, atol=1e-13 * np.abs(c).max())
        u = v


def test_repeated_moves_reuse_cross_matrices_and_panels():
    from adaptspec import indicators

    basis._cross_matrix_cached.cache_clear()
    indicators._exterior_panels.cache_clear()
    u = packet_expansion(1.0, n=36, beta=1.1, x_left=0.21)
    cfg = ControllerConfig(mu=1.0002, delta=0.005, d_max=0.1)
    v, _, actions, _ = move_step(u, state_with(exterior_ref=1e-12), cfg)
    assert actions == ["move"] * 20
    assert basis._cross_matrix_cached.cache_info().misses <= 2
    assert indicators._exterior_panels.cache_info().misses == 1


def test_orchestrate_exterior_at_max_order(monkeypatch):
    u = packet_expansion(0.3, n=12, beta=1.2, x_left=-0.1)
    cfg = ControllerConfig(n_max=3, moving=False, scaling=False)
    st = initial_state(u, cfg)
    _, _, expected = orchestrate_step(u, st, cfg, evolve=lambda w: w)
    monkeypatch.setattr(basis, "MAX_ORDER", 12)
    v, _, rec = orchestrate_step(u, replace(st, freq_ref=1e-9), cfg, evolve=lambda w: w)
    assert v.descriptor.order == 12 and math.isfinite(rec.ext)
    assert rec.ext == expected.ext
