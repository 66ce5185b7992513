"""Frequency/exterior indicators and relative error."""

import math
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from adaptspec import (
    BasisDescriptor,
    Expansion2D,
    Family,
    SpectralExpansion,
    differentiate,
    nodes_weights,
    to_coefficients,
    to_values,
    to_values_2d,
)
from adaptspec.basis import _CACHE_ENTRY_LIMIT
from adaptspec.indicators import (
    _axis_indicators,
    _error_against,
    _relative_errors,
    _composite_gauss,
    _exterior_panels,
    default_tail_width,
    exterior_error_indicator,
    frequency_indicator,
    frequency_indicator_axis,
    relative_error,
    relative_error_2d,
)

HER = lambda n, **kw: BasisDescriptor(Family.HERMITE_FN, n, **kw)
LEG = lambda n: BasisDescriptor(Family.LEGENDRE, n)


def expansion(d, coeffs):
    return SpectralExpansion(d, np.asarray(coeffs, dtype=float))


# ------------------------------------------------------ frequency, 1D


def test_tail_width_rule():
    assert default_tail_width(1) == 1
    assert default_tail_width(2) == 1  # floor(2/3) clamps up to 1
    assert default_tail_width(9) == 3
    assert default_tail_width(50) == 16


def test_frequency_zero_without_tail_energy():
    u = expansion(HER(5), [1, 0, 0, 0, 0, 0])
    assert frequency_indicator(u) == 0.0


def test_frequency_one_with_only_tail_energy():
    u = expansion(HER(5), [0, 0, 0, 0, 0, 1])
    assert frequency_indicator(u) == 1.0


def test_frequency_all_zero_is_zero():
    assert frequency_indicator(expansion(HER(4), np.zeros(5))) == 0.0


def test_frequency_flat_orthonormal():
    # orthonormal basis, N=6, M=floor(6/3)=2, all-ones: sqrt(2/7)
    u = expansion(HER(6), np.ones(7))
    npt.assert_allclose(frequency_indicator(u), math.sqrt(2.0 / 7.0), rtol=1e-15)


def test_frequency_weighted_by_norms():
    # Legendre N=2, M=1, ones: gamma = (2, 2/3, 2/5): sqrt(g2/(g0+g1+g2))
    u = expansion(LEG(2), [1.0, 1.0, 1.0])
    expect = math.sqrt((2 / 5) / (2 + 2 / 3 + 2 / 5))
    npt.assert_allclose(frequency_indicator(u), expect, rtol=1e-14)


def test_frequency_scale_invariance():
    rng = np.random.default_rng(5)
    u = expansion(HER(11, beta=1.7), rng.standard_normal(12))
    f = frequency_indicator(u)
    for c in (1e-8, -3.0, 1e9):
        g = frequency_indicator(SpectralExpansion(u.descriptor, c * u.coefficients))
        npt.assert_allclose(g, f, rtol=1e-12)


def test_frequency_full_tail_is_one():
    # N=1: M=1 = N leaves only mode 0 out of the tail
    rng = np.random.default_rng(6)
    u = expansion(LEG(1), rng.standard_normal(2) + 0.1)
    c = u.coefficients.copy()
    c[0] = 0.0
    assert frequency_indicator(SpectralExpansion(u.descriptor, c)) == 1.0


def test_frequency_complex_modulus():
    # N=5, M=floor(5/3)=1: only the top mode is tail
    u = SpectralExpansion(HER(5), np.array([1j, 0, 0, 0, 0, 1 + 1j]))
    npt.assert_allclose(frequency_indicator(u), math.sqrt(2.0 / 3.0), rtol=1e-14)


def test_frequency_bounds_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        u = expansion(HER(n), rng.standard_normal(n + 1))
        f = frequency_indicator(u)
        assert 0.0 <= f <= 1.0


# ------------------------------------------------------ frequency, 2D


def test_frequency_axis_trivial_cases():
    dx, dy = LEG(4), LEG(3)
    U = np.zeros((5, 4))
    U[0, 0] = 2.0
    u = Expansion2D(dx, dy, U)
    assert frequency_indicator_axis(u, 0) == 0.0
    assert frequency_indicator_axis(u, 1) == 0.0
    U = np.zeros((5, 4))
    U[4, :] = 1.0
    assert frequency_indicator_axis(Expansion2D(dx, dy, U), 0) == 1.0


def test_frequency_axis_rank_one_factorizes():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(7)
    b = rng.standard_normal(5)
    dx, dy = HER(6), HER(4)
    u2 = Expansion2D(dx, dy, np.outer(a, b))
    npt.assert_allclose(
        frequency_indicator_axis(u2, 0),
        frequency_indicator(SpectralExpansion(dx, a)),
        rtol=1e-13,
    )
    npt.assert_allclose(
        frequency_indicator_axis(u2, 1),
        frequency_indicator(SpectralExpansion(dy, b)),
        rtol=1e-13,
    )
    # one Legendre mode in y: the x marginal is the column's energy times
    # gamma_0 = 2, an exact scaling, so the indicator is the 1-D one exactly
    u2 = Expansion2D(LEG(6), LEG(0), a[:, None])
    assert frequency_indicator_axis(u2, 0) == frequency_indicator(SpectralExpansion(LEG(6), a))


def test_frequency_axis_validates_axis():
    u = Expansion2D(LEG(2), LEG(2), np.eye(3))
    with pytest.raises(ValueError):
        frequency_indicator_axis(u, 2)


# ------------------------------------------------------- exterior


def split_node(d):
    """The default split: grid node (2N+2)//3 (Hermite) or (N+2)//3 (Laguerre)."""
    idx = (2 * d.order + 2) // 3 if d.family is Family.HERMITE_FN else (d.order + 2) // 3
    return float(nodes_weights(d).nodes[idx])


def exterior_beyond(u, y_split):
    """The panel quadrature beyond any reference point y_split, read from _exterior_panels."""
    du = differentiate(u)
    b = du.coefficients
    E, w = _exterior_panels(du.descriptor.family, du.descriptor.order, y_split)
    return min(math.sqrt(float(w @ np.abs(E.T @ b) ** 2) / float(np.vdot(b, b).real)), 1.0)


def gaussian_tail(y):
    """Closed form for U = B_0 (beta = 1): E^2 = y e^{-y^2}/sqrt(pi) + erfc(y)/2."""
    from scipy.special import erfc

    return math.sqrt(y * math.exp(-y * y) / math.sqrt(math.pi) + erfc(y) / 2.0)


def test_exterior_constant_is_zero():
    # B_0 is not constant, but a zero expansion's derivative is
    z = expansion(HER(4), np.zeros(5))
    assert exterior_error_indicator(z) == 0.0


def test_exterior_whole_line_is_one():
    rng = np.random.default_rng(9)
    u = expansion(HER(10), rng.standard_normal(11))
    npt.assert_allclose(exterior_beyond(u, -1e6), 1.0, atol=1e-12)


def test_exterior_far_right_is_zero():
    # a split beyond the cut leaves zero-width panels with zero weights
    rng = np.random.default_rng(10)
    u = expansion(HER(10), rng.standard_normal(11))
    assert exterior_beyond(u, 1e6) == 0.0


def test_exterior_gaussian_against_quad_oracle():
    # U = B_0: dU/dy = -y pi^{-1/4} exp(-y^2/2), in the reference coordinate
    du = lambda y: -y * np.pi**-0.25 * np.exp(-0.5 * y * y)
    total, _ = quad(lambda y: du(y) ** 2, -np.inf, np.inf)
    for n, beta, x_left in ((0, 1.0, 0.0), (2, 1.3, 0.4), (5, 0.7, -1.1), (9, 2.0, 0.0)):
        d = HER(n, beta=beta, x_left=x_left)
        u = expansion(d, np.eye(n + 1)[0])
        tail, _ = quad(lambda y: du(y) ** 2, beta * (split_node(d) - x_left), np.inf)
        npt.assert_allclose(exterior_error_indicator(u), math.sqrt(tail / total), rtol=1e-10)
    # the panels at splits that are not grid nodes
    u = expansion(HER(0), [1.0])
    for yr in (-1.0, 0.5, 1.0, 2.5):
        tail, _ = quad(lambda y: du(y) ** 2, yr, np.inf)
        npt.assert_allclose(exterior_beyond(u, yr), math.sqrt(tail / total), rtol=1e-10)


def test_exterior_gaussian_closed_form():
    for n in (1, 2, 5, 12):
        d = HER(n, beta=1.6, x_left=-0.3)
        u = expansion(d, np.eye(n + 1)[0])
        y = d.beta * (split_node(d) - d.x_left)
        npt.assert_allclose(exterior_error_indicator(u), gaussian_tail(y), rtol=1e-12)
    npt.assert_allclose(exterior_beyond(expansion(HER(0), [1.0]), 1.0), gaussian_tail(1.0), rtol=1e-12)


def test_exterior_laguerre_against_quad_oracle():
    # U = l_1 (a=0, beta=1): U(x) = (x-1)e^{-x/2}, U' = (3/2 - x/2)e^{-x/2}
    du = lambda x: (1.5 - 0.5 * x) * np.exp(-0.5 * x)
    total, _ = quad(lambda x: du(x) ** 2, 0, np.inf)
    for n in (1, 2, 4, 7):
        d = BasisDescriptor(Family.LAGUERRE_FN, n)
        u = expansion(d, np.eye(n + 1)[1])
        tail, _ = quad(lambda x: du(x) ** 2, split_node(d), np.inf)
        npt.assert_allclose(exterior_error_indicator(u), math.sqrt(tail / total), rtol=1e-9)


def test_exterior_monotone_in_split():
    rng = np.random.default_rng(11)
    u = expansion(HER(24), rng.standard_normal(25))
    es = [exterior_beyond(u, yr) for yr in np.linspace(-6, 6, 25)]
    assert all(a >= b - 1e-12 for a, b in zip(es, es[1:]))
    assert all(0.0 <= e <= 1.0 for e in es)


def test_exterior_scaling_covariance():
    # the split is a grid node: rescaling or moving the grid leaves E unchanged
    rng = np.random.default_rng(12)
    c = rng.standard_normal(13)
    e1 = exterior_error_indicator(expansion(HER(12, beta=1.0), c))
    e2 = exterior_error_indicator(expansion(HER(12, beta=1.7, x_left=0.4), c))
    npt.assert_allclose(e1, e2, rtol=1e-14)


def test_exterior_rejects_bounded():
    with pytest.raises(ValueError):
        exterior_error_indicator(expansion(LEG(3), np.ones(4)))


# ------------------------------------------------- default split point


def test_default_split_hermite_small():
    # N=1: index (2+2)//3 = 1 -> node +1/sqrt(2)
    assert split_node(HER(1)) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    u = expansion(HER(1), [1.0, 0.0])
    npt.assert_allclose(exterior_error_indicator(u), gaussian_tail(1 / math.sqrt(2)), rtol=1e-12)


def test_default_split_laguerre_small():
    # N=1: the second Radau node, x=2; N=0: the left endpoint, so the whole half-line
    d = BasisDescriptor(Family.LAGUERRE_FN, 1)
    npt.assert_allclose(split_node(d), 2.0, rtol=1e-14)
    u = expansion(d, [0.0, 1.0])
    npt.assert_allclose(exterior_error_indicator(u), exterior_beyond(u, 2.0), rtol=1e-14)
    d0 = BasisDescriptor(Family.LAGUERRE_FN, 0)
    npt.assert_allclose(split_node(d0), 0.0, atol=1e-15)
    npt.assert_allclose(exterior_error_indicator(expansion(d0, [1.0])), 1.0, atol=1e-12)


def test_default_split_tracks_grid():
    rng = np.random.default_rng(13)
    d = HER(30, beta=2.0, x_left=-1.0)
    u = expansion(d, rng.standard_normal(31) * 0.8 ** np.arange(31))
    nodes = nodes_weights(d).nodes
    e = exterior_error_indicator(u)
    npt.assert_allclose(e, exterior_physical(u, nodes[(2 * 30 + 2) // 3]), rtol=1e-13)
    assert exterior_physical(u, nodes[19]) > e > exterior_physical(u, nodes[21])


# ------------------------------------------------------ relative error


def test_relative_error_of_exact_interpolant():
    d = BasisDescriptor(Family.CHEBYSHEV, 12)
    r = nodes_weights(d)
    u = to_coefficients(np.cos(r.nodes), d)
    # not identically the interpolated function, but agreeing to roundoff
    d2 = LEG(3)
    r2 = nodes_weights(d2)
    v = to_coefficients(r2.nodes**2, d2)
    assert relative_error(v, lambda x: x**2) < 1e-14


def test_relative_error_zero_expansion():
    u = expansion(LEG(4), np.zeros(5))
    npt.assert_allclose(relative_error(u, lambda x: np.ones_like(x)), 1.0, rtol=1e-14)


def test_relative_error_chebyshev_exp():
    d = BasisDescriptor(Family.CHEBYSHEV, 20)
    r = nodes_weights(d)
    u = to_coefficients(np.exp(r.nodes), d)
    assert relative_error(u, np.exp) < 1e-12


def test_relative_error_zero_reference_raises():
    u = expansion(LEG(4), np.ones(5))
    with pytest.raises(ValueError):
        relative_error(u, lambda x: np.zeros_like(x))


def test_relative_error_broadcasts_a_constant_reference():
    u = expansion(LEG(6), 0.5 ** np.arange(7))
    assert relative_error(u, lambda x: 1.0) == relative_error(u, np.ones_like)


def test_relative_error_refuses_a_reference_of_the_wrong_shape():
    u = expansion(LEG(6), 0.5 ** np.arange(7))
    with pytest.raises(ValueError):
        relative_error(u, lambda x: np.ones((x.size, 1)))
    with pytest.raises(ValueError):
        relative_error(u, lambda x: np.ones(x.size + 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_relative_error_names_the_first_non_finite_reference_value(bad):
    # before, a NaN reference gave a NaN error, which the CSV writes as an empty cell
    def poisoned(shape):
        f = np.ones(shape, dtype=complex if isinstance(bad, complex) else float)
        f.flat[3], f.flat[5] = bad, math.nan
        return f

    u = expansion(LEG(6), 0.5 ** np.arange(7))
    with pytest.raises(ValueError, match=re.escape(f"reference value (0, 3) is not finite: {bad!r}")):
        relative_error(u, lambda x: poisoned(x.shape))
    U = Expansion2D(LEG(3), LEG(4), np.ones((4, 5)))
    with pytest.raises(ValueError, match=r"reference value \(0, 3\) is not finite"):
        relative_error_2d(U, lambda x, y: poisoned((x.size, y.size)))


RUN_SPACES = [
    (HER(14, beta=1.3, x_left=-0.4), True),
    (HER(14, beta=0.8, x_left=0.3), False),
    (BasisDescriptor(Family.LAGUERRE_FN, 12, beta=0.7, x_left=0.5), True),
    (BasisDescriptor(Family.LAGUERRE_FN, 12, beta=1.4), False),
    (BasisDescriptor(Family.CHEBYSHEV, 11), True),
    (BasisDescriptor(Family.CHEBYSHEV, 11), False),
    (LEG(9), True),
    (LEG(9), False),
]


@pytest.mark.parametrize("d, complex_", RUN_SPACES)
def test_batched_relative_errors_equal_the_one_row_calls(d, complex_):
    # one pass over a run of one space gives each step's error bit for bit
    scale = 1 + 0.5j if complex_ else 1.0
    targets = [
        (lambda x, k=k: np.exp(-0.3 * (x - 0.1 * k) ** 2) * np.cos(x + k) * scale) for k in range(5)
    ]
    us = [SpectralExpansion(d, _coefficients(d, complex_, seed)) for seed in range(5)]
    batched = _relative_errors(us, lambda x: np.stack([f(x) for f in targets]))
    assert batched == [relative_error(u, f) for u, f in zip(us, targets)]
    assert batched == [relative_error_direct(u, f) for u, f in zip(us, targets)]
    assert _relative_errors(us[:1], targets[0]) == [relative_error(us[0], targets[0])]


def _reference_of(u, order, seed):
    """An expansion of the given order in u's frame: u padded, plus a small random tail."""
    d = replace(u.descriptor, order=order)
    c = np.zeros(d.size, dtype=u.coefficients.dtype)
    c[: u.coefficients.size] = u.coefficients
    return SpectralExpansion(d, c + 1e-3 * _coefficients(d, u.coefficients.dtype.kind == "c", seed))


@pytest.mark.parametrize("d, complex_", RUN_SPACES)
def test_error_against_an_expansion_takes_its_rule_from_order_2n_plus_2(d, complex_):
    u = SpectralExpansion(d, _coefficients(d, complex_, 1))
    # order 2N+2 in u's frame: the same rule as relative_error's, values from the
    # reference's own nodes, so the two agree to roundoff
    ref = _reference_of(u, 2 * d.order + 2, 2)
    fine = relative_error(u, lambda x: to_values(ref, x))
    assert 1e-4 < fine and _error_against(u, ref) == pytest.approx(fine, rel=1e-12)
    # one order short of the rule, or of another family: relative_error bit for bit
    ref = _reference_of(u, 2 * d.order + 1, 3)
    assert _error_against(u, ref) == relative_error(u, lambda x: to_values(ref, x))
    if d.bounded:
        other = Family.LEGENDRE if d.family is Family.CHEBYSHEV else Family.CHEBYSHEV
        ref_d = BasisDescriptor(other, 3 * d.order)
        ref = SpectralExpansion(ref_d, _coefficients(ref_d, complex_, 4))
        assert _error_against(u, ref) == relative_error(u, lambda x: to_values(ref, x))


@pytest.mark.parametrize("order_step", [2, 1])
def test_error_against_refuses_a_non_finite_reference(order_step):
    u = SpectralExpansion(HER(8, beta=1.2), _coefficients(HER(8), True, 4))
    ref = _reference_of(u, 2 * 8 + order_step, 5)
    ref.coefficients[3] = math.nan
    with pytest.raises(ValueError, match="is not finite"):
        _error_against(u, ref)


def test_relative_error_unbounded_weighted():
    # approximating exp(-x^2) in a Hermite space: indicator of quality
    d = HER(30, beta=math.sqrt(2.0))
    r = nodes_weights(d)
    f = lambda x: np.exp(-(x**2))
    u = to_coefficients(f(r.nodes), d)
    assert relative_error(u, f) < 1e-13


def test_relative_error_2d():
    dx, dy = LEG(10), LEG(12)
    rx, ry = nodes_weights(dx), nodes_weights(dy)
    X, Y = np.meshgrid(rx.nodes, ry.nodes, indexing="ij")
    from adaptspec import to_coefficients_2d

    f = lambda x, y: np.sin(x) * np.cos(y)
    U = to_coefficients_2d(f(X, Y), dx, dy)
    assert relative_error_2d(U, f) < 1e-10
    V = Expansion2D(dx, dy, np.zeros((11, 13)))
    npt.assert_allclose(relative_error_2d(V, lambda x, y: np.ones_like(x)), 1.0)


# ----------------------------------------- cached operators vs direct path
#
# The reference versions below evaluate the expansion through to_values on
# every call, in the frame the cached indicators use: the expansion and its
# grids with x_left moved to 0, and the exterior panels in the reference
# coordinate y = beta (x - x_left).  The cached indicators must reproduce
# them bit for bit.  The *_physical versions evaluate in physical
# coordinates, as the indicators once did; they agree to roundoff.


def _fine_rule(d):
    return nodes_weights(replace(d, order=2 * d.order + 2))


def _untranslated(u):
    return SpectralExpansion(replace(u.descriptor, x_left=0.0), u.coefficients)


def relative_error_direct(u, reference):
    r = _fine_rule(u.descriptor)
    fv = np.asarray(reference(r.nodes))
    u0 = _untranslated(u)
    uv = to_values(u0, _fine_rule(u0.descriptor).nodes)
    return math.sqrt(float(r.weights @ np.abs(uv - fv) ** 2) / float(r.weights @ np.abs(fv) ** 2))


def relative_error_physical(u, reference):
    r = _fine_rule(u.descriptor)
    fv = np.asarray(reference(r.nodes))
    uv = to_values(u, r.nodes)
    return math.sqrt(float(r.weights @ np.abs(uv - fv) ** 2) / float(r.weights @ np.abs(fv) ** 2))


def relative_error_2d_direct(u, reference):
    rx, ry = _fine_rule(u.descriptor_x), _fine_rule(u.descriptor_y)
    X, Y = np.meshgrid(rx.nodes, ry.nodes, indexing="ij")
    fv = np.asarray(reference(X, Y))
    uv = to_values_2d(u, rx.nodes, ry.nodes)
    W = rx.weights[:, None] * ry.weights[None, :]
    return math.sqrt(float((W * np.abs(uv - fv) ** 2).sum()) / float((W * np.abs(fv) ** 2).sum()))


def _exterior_rule(d, y_split):
    """Panels beyond y_split for the derivative space d: points y, weights w with the Jacobian."""
    n = d.order
    if d.family is Family.HERMITE_FN:
        turn = math.sqrt(2.0 * n + 1.0)
        y_cut = turn + 9.3
        y_lo = min(max(y_split, -y_cut), y_cut)
        panels = int(math.ceil((y_cut - y_lo) * max(turn, 1.0) / (2.0 * math.pi))) + 1
        return _composite_gauss(np.linspace(y_lo, y_cut, panels + 1))
    y_cut = 4.0 * n + 92.0
    y_lo = min(max(y_split, 0.0), y_cut)
    s_lo, s_hi = math.sqrt(y_lo), math.sqrt(y_cut)
    panels = int(math.ceil((s_hi - s_lo) * math.sqrt(n + 1.0) / math.pi)) + 1
    s, w = _composite_gauss(np.linspace(s_lo, s_hi, panels + 1))
    y = s * s
    return y, 2.0 * s * w


def _exterior_from_values(du, w, vals, scale):
    b = du.coefficients
    den2 = float(np.real(np.vdot(b, b)))
    if den2 == 0.0:
        return 0.0
    num2 = float(w @ np.abs(vals) ** 2) / scale
    return min(math.sqrt(max(num2, 0.0) / den2), 1.0)


def exterior_direct(u):
    """The indicator from a fresh panel rule at the reference grid's default split node."""
    du = differentiate(u)
    y, w = _exterior_rule(du.descriptor, split_node(replace(u.descriptor, beta=1.0, x_left=0.0)))
    reference = SpectralExpansion(replace(du.descriptor, beta=1.0, x_left=0.0), du.coefficients)
    return _exterior_from_values(du, w, to_values(reference, y), 1.0)


def exterior_physical(u, x_split):
    """The exterior fraction beyond x_split, from the physical grid and values."""
    du = differentiate(u)
    d = du.descriptor
    y, w = _exterior_rule(d, d.beta * (x_split - d.x_left))
    return _exterior_from_values(du, w, to_values(du, y / d.beta + d.x_left), d.beta)


CACHED_CASES = [
    # Hermite with complex coefficients, then a refined and a translated space
    (HER(18, beta=1.3, x_left=-0.4), True),
    (HER(19, beta=1.3, x_left=-0.4), True),
    (HER(18, beta=1.3, x_left=0.1), True),
    # Laguerre, before and after a rescale
    (BasisDescriptor(Family.LAGUERRE_FN, 16, beta=0.7, x_left=0.5), False),
    (BasisDescriptor(Family.LAGUERRE_FN, 16, beta=0.9, x_left=0.5), False),
]


def _coefficients(d, complex_, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(d.size) * 0.8 ** np.arange(d.size)
    if complex_:
        c = c + 1j * rng.standard_normal(d.size) * 0.8 ** np.arange(d.size)
    return c


def test_cached_exterior_equals_direct_across_descriptor_changes():
    # each space twice in a row and again after the others: hits and misses
    for d, complex_ in CACHED_CASES + CACHED_CASES[::-1] + CACHED_CASES:
        u = SpectralExpansion(d, _coefficients(d, complex_, d.order))
        assert exterior_error_indicator(u) == exterior_direct(u)
        assert exterior_error_indicator(u) == exterior_direct(u)


def test_exterior_reference_frame_matches_physical_frame():
    for d, complex_ in CACHED_CASES:
        u = SpectralExpansion(d, _coefficients(d, complex_, d.order))
        npt.assert_allclose(
            exterior_error_indicator(u), exterior_physical(u, split_node(d)), rtol=1e-13
        )


def test_cached_relative_error_equals_direct():
    f = lambda x: np.exp(-0.3 * (x - 0.2) ** 2) * np.cos(x)
    cases = CACHED_CASES + [(BasisDescriptor(Family.CHEBYSHEV, 14), False), (LEG(9), False)]
    for d, complex_ in cases + cases[::-1]:
        u = SpectralExpansion(d, _coefficients(d, complex_, d.order + 1))
        assert relative_error(u, f) == relative_error_direct(u, f)
        assert relative_error(u, f) == relative_error_direct(u, f)


def test_relative_error_reference_frame_matches_physical_frame():
    f = lambda x: np.exp(-0.3 * (x - 0.2) ** 2) * np.cos(x)
    for d, complex_ in CACHED_CASES:
        u = SpectralExpansion(d, _coefficients(d, complex_, d.order + 1))
        npt.assert_allclose(relative_error(u, f), relative_error_physical(u, f), rtol=1e-13)


def test_cached_relative_error_2d_equals_direct():
    f = lambda x, y: np.sin(2.0 * x) * np.cos(y) + x * y
    spaces = [(LEG(8), LEG(11)), (LEG(9), LEG(11)), (LEG(8), LEG(11))]
    for dx, dy in spaces:
        rng = np.random.default_rng(dx.order)
        u = Expansion2D(dx, dy, rng.standard_normal((dx.size, dy.size)))
        assert relative_error_2d(u, f) == relative_error_2d_direct(u, f)
        assert relative_error_2d(u, f) == relative_error_2d_direct(u, f)


OPEN_GRID_TARGETS = [
    lambda x, y: np.sin(2.0 * x) * np.cos(y) + x * y,  # the full (nx, ny) grid
    lambda x, y: np.ones_like(x),  # shape (nx, 1)
    lambda x, y: np.exp(0.5 * y) - y * y,  # y only: shape (1, ny)
]


@pytest.mark.parametrize("f", OPEN_GRID_TARGETS)
def test_relative_error_2d_takes_open_grids(f):
    # the reference sees X as (nx, 1) and Y as (1, ny); its broadcast result
    # gives the same error, bit for bit, as full meshgrid arrays
    u = Expansion2D(LEG(8), LEG(11), np.random.default_rng(17).standard_normal((9, 12)))
    shapes = []

    def spy(x, y):
        shapes.append((x.shape, y.shape))
        return f(x, y)

    assert relative_error_2d(u, spy) == relative_error_2d_direct(u, f)
    assert shapes == [((19, 1), (1, 25))]


def test_relative_error_2d_refuses_a_reference_of_the_wrong_shape():
    u = Expansion2D(LEG(8), LEG(11), np.ones((9, 12)))
    with pytest.raises(ValueError):
        relative_error_2d(u, lambda x, y: np.ones((x.shape[0] + 1, 1)))
    with pytest.raises(ValueError):
        relative_error_2d(u, lambda x, y: np.ones((x.shape[0], 2)))


def test_axis_indicators_equal_the_per_axis_calls():
    rng = np.random.default_rng(18)
    for U in (rng.standard_normal((9, 13)), np.zeros((9, 13)), np.eye(9, 13)):
        u = Expansion2D(LEG(8), BasisDescriptor(Family.CHEBYSHEV, 12), U)
        both = _axis_indicators(u)
        assert both == tuple(frequency_indicator_axis(u, k) for k in (0, 1))


def test_exterior_panels_stay_resident_at_the_order_cap():
    # order 600: the derivative's 602 x 3880 panel matrix is built once, and
    # repeated, moved and rescaled calls at that order all read it
    _exterior_panels.cache_clear()
    d = HER(600, beta=1.3)
    c = _coefficients(d, False, 3)
    for dk in (d, d, replace(d, x_left=0.05), replace(d, beta=1.1)):
        u = SpectralExpansion(dk, c)
        assert exterior_error_indicator(u) == exterior_direct(u)
    assert _exterior_panels.cache_info().misses == 1
    E, w = _exterior_panels(Family.HERMITE_FN, 601, split_node(replace(d, beta=1.0)))
    assert _exterior_panels.cache_info().misses == 1
    assert E.size > _CACHE_ENTRY_LIMIT and E.shape == (602, w.size)
