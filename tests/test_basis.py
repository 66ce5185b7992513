"""Basis/quadrature layer: grids, transforms, differentiation."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from adaptspec import (
    BasisDescriptor,
    Family,
    MAX_ORDER,
    SpectralExpansion,
    differentiate,
    evaluate_all,
    node_values,
    node_values_2d,
    nodes_weights,
    norms,
    to_coefficients,
    to_coefficients_2d,
    to_values,
    to_values_2d,
)
from adaptspec import basis
from adaptspec.basis import (
    _LOG_RESCALE,
    _RESCALE,
    _apply_real,
    _at,
    _basis_rows,
    _core,
    _core_of,
    _cross_matrix,
    _cross_matrix_build,
    _derivative_matrix,
    _frame,
    _gauss_nodes,
    _orthonormal_table,
    _recurrence,
    _recurrence_hermite,
    _recurrence_jacobi,
    _recurrence_laguerre,
    _rows,
    _transform_of,
    _with_order,
)


def gram(d, rule=None):
    r = rule if rule is not None else nodes_weights(d)
    B = evaluate_all(d, r.nodes)
    return (B * r.weights) @ B.T


# ---------------------------------------------------------------- grids


def test_legendre_lobatto_three_points():
    # closed form: nodes {-1, 0, 1}, weights {1/3, 4/3, 1/3}
    r = nodes_weights(BasisDescriptor(Family.LEGENDRE, 2))
    npt.assert_allclose(r.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    npt.assert_allclose(r.weights, [1 / 3, 4 / 3, 1 / 3], rtol=1e-14)


def test_legendre_lobatto_four_points():
    # interior nodes are the roots of P_3' : +-1/sqrt(5)
    r = nodes_weights(BasisDescriptor(Family.LEGENDRE, 3))
    s5 = 1 / math.sqrt(5.0)
    npt.assert_allclose(r.nodes, [-1.0, -s5, s5, 1.0], rtol=1e-14, atol=1e-15)
    npt.assert_allclose(r.weights, [1 / 6, 5 / 6, 5 / 6, 1 / 6], rtol=1e-14)


@pytest.mark.parametrize("n", [*range(65), 101, 1000, MAX_ORDER - 1, MAX_ORDER])
def test_legendre_centre_node_is_exactly_zero(n):
    # the grid is mirrored bit for bit, so an even order's middle node is the centre
    y = core_built(Family.LEGENDRE, n).y
    assert np.array_equal(y, -y[::-1])
    assert (y[n // 2] == 0.0) == (n % 2 == 0)


@pytest.mark.parametrize("n,tol", [(130, 1e-13), (600, 5e-13)])
def test_legendre_weights_match_the_closed_form_in_extended_precision(n, tol):
    # 2 / (n (n+1) P_n(y)^2) at the rule's own nodes, in 40 digits
    import mpmath

    r = nodes_weights(BasisDescriptor(Family.LEGENDRE, n))
    with mpmath.workdps(40):
        exact = [2 / (n * (n + 1) * mpmath.legendre(n, mpmath.mpf(y)) ** 2) for y in r.nodes]
        err = max(abs(float((w - e) / e)) for w, e in zip(r.weights, exact))
    assert err <= tol


def test_chebyshev_lobatto_nodes_closed_form():
    r = nodes_weights(BasisDescriptor(Family.CHEBYSHEV, 4))
    npt.assert_allclose(r.nodes, [-np.cos(np.pi * j / 4) for j in range(5)], atol=1e-15)
    npt.assert_allclose(r.weights, [np.pi / 8, np.pi / 4, np.pi / 4, np.pi / 4, np.pi / 8])


def test_jacobi_minus_half_matches_chebyshev_grid():
    # the Jacobi(-1/2, -1/2) recurrence shares the Chebyshev weight, so it is
    # an independent oracle for the closed form: the n+1 point Lobatto rule
    # integrates its orthonormal rows of degree 0..2n-1 exactly
    for n in (2, 6, 33):
        r = nodes_weights(BasisDescriptor(Family.CHEBYSHEV, n))
        alpha, beta = _recurrence_jacobi(2 * n, -0.5, -0.5)
        integrals = _rows(_orthonormal_table(alpha, beta), r.nodes) @ r.weights
        npt.assert_allclose(integrals, np.eye(2 * n)[0] * math.sqrt(beta[0]), atol=1e-13)
        # and the interior nodes, the roots of T_n' = n U_{n-1}, are the
        # Gauss nodes of the Jacobi(1/2, 1/2) weight
        y = _gauss_nodes(*_recurrence_jacobi(n - 1, 0.5, 0.5))
        npt.assert_allclose(y, r.nodes[1:-1], atol=1e-14)


def test_hermite_gauss_two_and_three_points():
    r = nodes_weights(BasisDescriptor(Family.HERMITE_FN, 1))
    npt.assert_allclose(r.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-14)
    # roots of H_3: {-sqrt(3/2), 0, sqrt(3/2)}
    r = nodes_weights(BasisDescriptor(Family.HERMITE_FN, 2))
    npt.assert_allclose(r.nodes, [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], rtol=1e-14, atol=1e-15)


def test_laguerre_radau_includes_left_endpoint():
    # two-point Radau for weight e^{-y}: nodes {0, 2}; in function form the
    # node-2 weight picks up e^2: {1/2, e^2/2}
    r = nodes_weights(BasisDescriptor(Family.LAGUERRE_FN, 1))
    npt.assert_allclose(r.nodes, [0.0, 2.0], atol=1e-14)
    npt.assert_allclose(r.weights, [0.5, 0.5 * math.e**2], rtol=1e-13)


def test_laguerre_radau_interior_closed_form():
    # interior nodes = roots of L_2^{(1)}: 3 +- sqrt(3)
    r = nodes_weights(BasisDescriptor(Family.LAGUERRE_FN, 2))
    npt.assert_allclose(r.nodes, [0.0, 3 - math.sqrt(3), 3 + math.sqrt(3)], rtol=1e-13, atol=1e-15)


def test_scaled_translated_grid_mapping():
    base = nodes_weights(BasisDescriptor(Family.HERMITE_FN, 9))
    r = nodes_weights(BasisDescriptor(Family.HERMITE_FN, 9, beta=2.5, x_left=-0.75))
    npt.assert_allclose(r.nodes, base.nodes / 2.5 - 0.75, rtol=1e-14)
    npt.assert_allclose(r.weights, base.weights / 2.5, rtol=1e-14)


def test_order_zero_grids():
    r = nodes_weights(BasisDescriptor(Family.CHEBYSHEV, 0))
    npt.assert_allclose(r.nodes, [0.0])
    npt.assert_allclose(r.weights, [np.pi])
    r = nodes_weights(BasisDescriptor(Family.LAGUERRE_FN, 0, beta=2.0))
    npt.assert_allclose(r.nodes, [0.0])
    r = nodes_weights(BasisDescriptor(Family.HERMITE_FN, 0))
    npt.assert_allclose(r.nodes, [0.0])
    npt.assert_allclose(r.weights, [math.sqrt(math.pi)])


@pytest.mark.parametrize("n", list(range(65)) + [241, 242, 600, 1201])
def test_hermite_grid_and_basis_have_exact_parity(n):
    # the parity-split potential operator reads only the left half of V
    core = _core(Family.HERMITE_FN, n)
    assert np.array_equal(core.y[::-1], -core.y)
    sign = (-1.0) ** np.arange(n + 1)[:, None]
    assert np.array_equal(core.V[:, ::-1] * sign, core.V)
    if n % 2 == 0:
        assert core.y[n // 2] == 0.0


# ------------------------------------------------------- basis values


def test_hermite_functions_at_origin():
    # h_0(0) = pi^{-1/4}, h_1(0) = 0, h_2(0) = -pi^{-1/4}/sqrt(2)
    B = evaluate_all(BasisDescriptor(Family.HERMITE_FN, 2), 0.0)
    c = np.pi ** -0.25
    npt.assert_allclose(B[:, 0], [c, 0.0, -c / math.sqrt(2)], atol=1e-15)


def test_hermite_scaling_prefactor():
    # B_0(x) = sqrt(beta) pi^{-1/4} exp(-(beta(x-xL))^2/2)
    d = BasisDescriptor(Family.HERMITE_FN, 0, beta=3.0, x_left=1.0)
    x = np.array([0.5, 1.0, 2.0])
    expect = math.sqrt(3.0) * np.pi**-0.25 * np.exp(-((3.0 * (x - 1.0)) ** 2) / 2)
    npt.assert_allclose(evaluate_all(d, x)[0], expect, rtol=1e-14)


def test_laguerre_function_values():
    # l_0 = e^{-y/2}, l_1 = (1-y)e^{-y/2} for a = 0
    d = BasisDescriptor(Family.LAGUERRE_FN, 1)
    B = evaluate_all(d, np.array([0.0, 2.0]))
    npt.assert_allclose(B[0], [1.0, math.exp(-1.0)], rtol=1e-14)
    npt.assert_allclose(B[1], [1.0, -math.exp(-1.0)], rtol=1e-14)


def test_high_order_hermite_no_overflow():
    # naive recurrences lose the whole column once exp(-y^2/2) underflows
    d = BasisDescriptor(Family.HERMITE_FN, 1200)
    r = nodes_weights(d)
    B = evaluate_all(d, r.nodes)
    assert np.isfinite(B).all()
    G = (B * r.weights) @ B.T
    npt.assert_allclose(G, np.eye(1201), atol=5e-13)


def test_domain_validation():
    with pytest.raises(ValueError):
        evaluate_all(BasisDescriptor(Family.CHEBYSHEV, 3), 1.01)
    with pytest.raises(ValueError):
        evaluate_all(BasisDescriptor(Family.LAGUERRE_FN, 3, x_left=1.0), 0.5)


ALL_SPACES = [
    BasisDescriptor(Family.CHEBYSHEV, 6),
    BasisDescriptor(Family.LEGENDRE, 6),
    BasisDescriptor(Family.LAGUERRE_FN, 6, beta=2.0, x_left=-1.0),
    BasisDescriptor(Family.HERMITE_FN, 6, beta=0.7, x_left=0.3),
]


@pytest.mark.parametrize("d", ALL_SPACES, ids=lambda d: d.family.value)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused_naming_the_first(d, bad):
    x = np.array([0.5, bad, 0.25, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=r"point 1 is not finite: %s" % bad):
            evaluate_all(d, x)
        with pytest.raises(ValueError, match="point 0 is not finite"):
            evaluate_all(d, bad)
        u = SpectralExpansion(d, np.ones(d.size))
        with pytest.raises(ValueError, match="point 1 is not finite"):
            to_values(u, x)
        U = to_coefficients_2d(np.ones((d.size, 4)), d, BasisDescriptor(Family.LEGENDRE, 3))
        with pytest.raises(ValueError, match="point 1 is not finite"):
            to_values_2d(U, x, np.zeros(2))
        with pytest.raises(ValueError, match="point 3 is not finite"):
            to_values_2d(U, np.zeros(2), [0.0, 0.5, -0.5, bad])


@pytest.mark.parametrize("d", ALL_SPACES, ids=lambda d: d.family.value)
def test_no_points_give_no_columns(d):
    assert evaluate_all(d, np.array([])).shape == (d.size, 0)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        BasisDescriptor(Family.LEGENDRE, -1)
    with pytest.raises(ValueError):
        BasisDescriptor(Family.HERMITE_FN, 4, beta=0.0)
    with pytest.raises(ValueError):
        BasisDescriptor(Family.LEGENDRE, 4, beta=2.0)
    with pytest.raises(ValueError):
        BasisDescriptor(Family.HERMITE_FN, MAX_ORDER + 1)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_no_family_takes_exponents(family):
    # four families, none with a weight exponent: an exponent is no field at all
    assert {f.value for f in Family} == {"chebyshev", "legendre", "laguerre_function", "hermite_function"}
    for kw in (dict(jacobi_a=0.5), dict(jacobi_b=-0.3), dict(laguerre_a=0.5)):
        with pytest.raises(TypeError):
            BasisDescriptor(family, 8, **kw)


ONE_PER_FAMILY = [
    BasisDescriptor(Family.CHEBYSHEV, 7),
    BasisDescriptor(Family.LEGENDRE, 7),
    BasisDescriptor(Family.LAGUERRE_FN, 7, beta=1.7, x_left=-0.4),
    BasisDescriptor(Family.HERMITE_FN, 7, beta=0.6, x_left=2.5),
]


@pytest.mark.parametrize("d", ONE_PER_FAMILY, ids=lambda d: d.family.value)
def test_hand_written_descriptor_constructors_keep_every_field(d):
    # _frame, _at and _with_order list the fields by hand: a field added to
    # the descriptor and missed there fails here
    others = [f.name for f in fields(BasisDescriptor) if f.name != "x_left"]
    assert _frame(d) == tuple(getattr(d, name) for name in others)
    assert _at(_frame(d), d.x_left) == d
    assert _at(_frame(d), 0.0) == replace(d, x_left=0.0)
    assert _with_order(d, d.order) == d
    assert _with_order(d, 9) == replace(d, order=9)


# ---------------------------------------------------- orthogonality


UNBOUNDED_CASES = [
    BasisDescriptor(Family.HERMITE_FN, 0),
    BasisDescriptor(Family.HERMITE_FN, 7, beta=0.4, x_left=2.0),
    BasisDescriptor(Family.HERMITE_FN, 64, beta=2.0),
    BasisDescriptor(Family.LAGUERRE_FN, 5),
    BasisDescriptor(Family.LAGUERRE_FN, 64, beta=4.0, x_left=-1.0),
    BasisDescriptor(Family.LAGUERRE_FN, 20, beta=0.5, x_left=3.0),
]


@pytest.mark.parametrize("d", UNBOUNDED_CASES, ids=str)
def test_unbounded_discrete_orthonormality(d):
    npt.assert_allclose(gram(d), np.eye(d.size), atol=2e-13)


BOUNDED_CASES = [
    BasisDescriptor(Family.CHEBYSHEV, 16),
    BasisDescriptor(Family.LEGENDRE, 16),
]


@pytest.mark.parametrize("d", BOUNDED_CASES, ids=str)
def test_bounded_orthogonality_oversampled(d):
    # the space's own Lobatto rule is exact only to degree 2N-1, so assemble
    # the Gram matrix with the next-order rule
    fine = BasisDescriptor(d.family, d.order + 1)
    G = gram(d, nodes_weights(fine))
    npt.assert_allclose(G, np.diag(norms(d)), atol=2e-13 * max(1.0, norms(d).max()))


def test_chebyshev_norms_closed_form():
    g = norms(BasisDescriptor(Family.CHEBYSHEV, 5))
    npt.assert_allclose(g, [np.pi] + [np.pi / 2] * 5, rtol=1e-15)


def test_legendre_norms_closed_form():
    g = norms(BasisDescriptor(Family.LEGENDRE, 4))
    npt.assert_allclose(g, 2.0 / (2 * np.arange(5) + 1), rtol=1e-15)


def test_unbounded_norms_are_one():
    npt.assert_allclose(norms(BasisDescriptor(Family.HERMITE_FN, 10, beta=3.0)), 1.0)
    npt.assert_allclose(norms(BasisDescriptor(Family.LAGUERRE_FN, 10, beta=0.5)), 1.0)


def test_unbounded_norms_build_no_grid():
    misses = basis._core.cache_info().misses
    assert norms(BasisDescriptor(Family.HERMITE_FN, 1234)).shape == (1235,)
    assert norms(BasisDescriptor(Family.LAGUERRE_FN, 1234, beta=0.25)).shape == (1235,)
    assert basis._core.cache_info().misses == misses


# ------------------------------------------------------- transforms


@pytest.mark.parametrize(
    "d",
    [
        BasisDescriptor(Family.CHEBYSHEV, 17),
        BasisDescriptor(Family.LEGENDRE, 17),
        BasisDescriptor(Family.LAGUERRE_FN, 17, beta=2.0, x_left=-1.0),
        BasisDescriptor(Family.HERMITE_FN, 17, beta=0.7, x_left=0.3),
    ],
    ids=str,
)
def test_transform_round_trip_complex(d):
    rng = np.random.default_rng(42)
    v = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    back = node_values(to_coefficients(v, d))
    npt.assert_allclose(back, v, atol=1e-12)


def test_transform_matrix_ignores_translation():
    d = BasisDescriptor(Family.HERMITE_FN, 21, beta=1.3, x_left=0.0)
    moved = [replace(d, x_left=x) for x in (-2.5, 0.7, 3.1)]
    assert all(_transform_of(m) is _transform_of(d) for m in moved)
    v = np.random.default_rng(5).standard_normal(d.size)
    for m in moved:
        assert np.array_equal(to_coefficients(v, m).coefficients, to_coefficients(v, d).coefficients)
    lag = BasisDescriptor(Family.LAGUERRE_FN, 12, beta=0.8)
    assert _transform_of(replace(lag, x_left=-1.0)) is _transform_of(lag)


@pytest.mark.parametrize("family", [Family.HERMITE_FN, Family.LAGUERRE_FN])
def test_transform_matrix_ignores_scaling(family):
    # one reference matrix per family and order; beta enters as 1/sqrt(beta)
    d1 = BasisDescriptor(family, 21, x_left=0.4)
    scaled = [replace(d1, beta=b) for b in (0.7, 1.3, 2.0)]
    assert all(_transform_of(d) is _transform_of(d1) for d in scaled)
    rng = np.random.default_rng(6)
    real = rng.standard_normal(d1.size)
    for v in (real, real + 1j * rng.standard_normal(d1.size)):
        ref = to_coefficients(v, d1).coefficients
        for d in scaled:
            assert np.array_equal(to_coefficients(v, d).coefficients, ref / math.sqrt(d.beta))


def test_transform_recovers_exact_coefficients():
    # interpolating an exact degree-N combination returns its coefficients
    d = BasisDescriptor(Family.LEGENDRE, 9)
    rng = np.random.default_rng(7)
    coeff = rng.standard_normal(10)
    r = nodes_weights(d)
    vals = evaluate_all(d, r.nodes).T @ coeff
    npt.assert_allclose(to_coefficients(vals, d).coefficients, coeff, atol=1e-13)


def test_chebyshev_interpolation_spectral_decay():
    d = BasisDescriptor(Family.CHEBYSHEV, 16)
    r = nodes_weights(d)
    u = to_coefficients(np.exp(r.nodes), d)
    xs = np.linspace(-1.0, 1.0, 1001)
    assert np.abs(to_values(u, xs) - np.exp(xs)).max() < 1e-12


def test_hermite_interpolation_of_gaussian():
    # beta = sqrt(2) matches the envelope of exp(-x^2) exactly
    d = BasisDescriptor(Family.HERMITE_FN, 40, beta=math.sqrt(2.0))
    r = nodes_weights(d)
    f = lambda x: np.exp(-(x**2)) * np.cos(2 * x)
    u = to_coefficients(f(r.nodes), d)
    xs = np.linspace(-4.0, 4.0, 401)
    assert np.abs(to_values(u, xs) - f(xs)).max() < 1e-12


def test_wrong_length_rejected():
    d = BasisDescriptor(Family.LEGENDRE, 4)
    with pytest.raises(ValueError):
        to_coefficients(np.zeros(4), d)
    with pytest.raises(ValueError):
        SpectralExpansion(d, np.zeros(7))


def test_tensor_round_trip_and_pointwise():
    dx = BasisDescriptor(Family.LEGENDRE, 8)
    dy = BasisDescriptor(Family.CHEBYSHEV, 6)
    rx, ry = nodes_weights(dx), nodes_weights(dy)
    X, Y = np.meshgrid(rx.nodes, ry.nodes, indexing="ij")
    vals = np.sin(X + 0.5 * Y)
    U = to_coefficients_2d(vals, dx, dy)
    npt.assert_allclose(node_values_2d(U), vals, atol=1e-13)
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(-1, 1, 5)
    P = to_values_2d(U, xs, ys)
    Xs, Ys = np.meshgrid(xs, ys, indexing="ij")
    npt.assert_allclose(P, np.sin(Xs + 0.5 * Ys), atol=1e-8)


# --------------------------------------------------- differentiation


def test_chebyshev_derivative_recurrence():
    # T_2' = 4 T_1 ; T_3' = 3 T_0 + 6 T_2
    d = BasisDescriptor(Family.CHEBYSHEV, 3)
    du = differentiate(SpectralExpansion(d, np.array([0.0, 0.0, 1.0, 0.0])))
    npt.assert_allclose(du.coefficients, [0.0, 4.0, 0.0, 0.0], atol=1e-15)
    du = differentiate(SpectralExpansion(d, np.array([0.0, 0.0, 0.0, 1.0])))
    npt.assert_allclose(du.coefficients, [3.0, 0.0, 6.0, 0.0], atol=1e-15)


def test_legendre_derivative_recurrence():
    # P_2' = 3 P_1 ; P_3' = P_0 + 5 P_2
    d = BasisDescriptor(Family.LEGENDRE, 3)
    du = differentiate(SpectralExpansion(d, np.array([0.0, 0.0, 1.0, 0.0])))
    npt.assert_allclose(du.coefficients, [0.0, 3.0, 0.0, 0.0], atol=1e-15)
    du = differentiate(SpectralExpansion(d, np.array([0.0, 0.0, 0.0, 1.0])))
    npt.assert_allclose(du.coefficients, [1.0, 0.0, 5.0, 0.0], atol=1e-15)


def test_hermite_derivative_raises_order():
    # d/dx B_0 = -beta/sqrt(2) B_1 for Hermite functions
    d = BasisDescriptor(Family.HERMITE_FN, 0, beta=1.8)
    du = differentiate(SpectralExpansion(d, np.array([1.0])))
    assert du.descriptor.order == 1
    npt.assert_allclose(du.coefficients, [0.0, -1.8 / math.sqrt(2)], rtol=1e-15)


@pytest.mark.parametrize(
    "d",
    [
        BasisDescriptor(Family.CHEBYSHEV, 14),
        BasisDescriptor(Family.LEGENDRE, 14),
        BasisDescriptor(Family.LAGUERRE_FN, 14, beta=1.4, x_left=-0.5),
        BasisDescriptor(Family.HERMITE_FN, 14, beta=1.7, x_left=0.2),
    ],
    ids=str,
)
def test_derivative_matches_finite_differences(d):
    rng = np.random.default_rng(3)
    u = SpectralExpansion(d, rng.standard_normal(d.size))
    du = differentiate(u)
    if d.bounded:
        x = np.linspace(-0.9, 0.9, 9)
    elif d.family is Family.LAGUERRE_FN:
        x = np.linspace(-0.3, 4.0, 9)
    else:
        x = np.linspace(-2.0, 3.0, 9)
    h = 1e-6
    fd = (to_values(u, x + h) - to_values(u, x - h)) / (2 * h)
    npt.assert_allclose(to_values(du, x), fd, rtol=2e-7, atol=1e-6)


def test_derivative_of_constant_is_zero():
    for d in [BasisDescriptor(Family.CHEBYSHEV, 0), BasisDescriptor(Family.LEGENDRE, 5)]:
        u = SpectralExpansion(d, np.r_[1.0, np.zeros(d.order)])
        npt.assert_allclose(differentiate(u).coefficients, 0.0, atol=1e-15)


def test_derivative_complex_coefficients():
    d = BasisDescriptor(Family.HERMITE_FN, 6, beta=1.2)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    du = differentiate(SpectralExpansion(d, c))
    x = np.linspace(-1.5, 1.5, 5)
    h = 1e-6
    fd = (to_values(SpectralExpansion(d, c), x + h) - to_values(SpectralExpansion(d, c), x - h)) / (2 * h)
    npt.assert_allclose(to_values(du, x), fd, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("order", [0, 1, 2, 20, 64])
@pytest.mark.parametrize("family", [Family.CHEBYSHEV, Family.LEGENDRE], ids=lambda f: f.value)
def test_derivative_matrix_is_the_coefficient_chain(family, order):
    # collocation differentiates node values with one cached matrix per space,
    # which must be the chain through coefficient space, column by column
    d = BasisDescriptor(family, order)
    D = _derivative_matrix(family, order)
    assert D.shape == (d.size, d.size)
    scale = np.abs(D).max()
    for j, e in enumerate(np.eye(d.size)):
        chain = node_values(differentiate(to_coefficients(e, d)))
        npt.assert_allclose(D[:, j], chain, rtol=0.0, atol=1e-12 * scale)
    x = nodes_weights(d).nodes
    if order >= 2:
        npt.assert_allclose(D @ x**2, 2.0 * x, rtol=0.0, atol=1e-12 * scale)
    with pytest.raises(ValueError, match="read-only"):
        D[0, 0] = 1.0


# ---------------------------------------- kernels against their loop forms
#
# One loop per family and per use, in the operation order the package
# used before all of them became one recurrence (basis._recurrence); the
# engine must reproduce each bit for bit.


def chebyshev_loop(nmax, x):
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(1, nmax):
        out[k + 1] = 2.0 * x * out[k] - out[k - 1]
    return out


def legendre_loop(nmax, x):
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(1, nmax):
        out[k + 1] = ((2.0 * k + 1.0) * x * out[k] - k * out[k - 1]) / (k + 1.0)
    return out


def scaled_recurrence_loop(alpha, beta, nmax, y, log_env, orient=1.0):
    """Orthonormal rows times exp(log_env), envelope recomputed on every row."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty((nmax + 1, y.size))
    s = log_env.copy()
    v_prev = np.zeros_like(y)
    v = np.full_like(y, 1.0 / math.sqrt(beta[0]))
    out[0] = v * np.exp(s)
    for k in range(nmax):
        v_next = (orient * (y - alpha[k]) * v - math.sqrt(beta[k]) * v_prev) / math.sqrt(beta[k + 1])
        v_prev, v = v, v_next
        big = np.abs(v) > _RESCALE
        if big.any():
            v[big] /= _RESCALE
            v_prev[big] /= _RESCALE
            s[big] += _LOG_RESCALE
        out[k + 1] = v * np.exp(s)
    return out


def hermite_loop(nmax, y):
    return scaled_recurrence_loop(*_recurrence_hermite(nmax + 2), nmax, y, -0.5 * y * y)


def laguerre_loop(nmax, y, a):
    return scaled_recurrence_loop(*_recurrence_laguerre(nmax + 2, a), nmax, y, -0.5 * y, -1.0)


def laguerre_rows(nmax, y, a):
    """Laguerre(a) function rows from the shared kernels; the family itself has a = 0.

    The classical sign convention, positive at the left endpoint: every odd
    degree of the orthonormal table flipped.
    """
    alpha, beta = _recurrence_laguerre(nmax + 1, a)
    r = np.sqrt(beta)
    return _rows((-np.ones(nmax), alpha[:nmax], r[:nmax], r[1:], 1.0 / r[0]), y, -0.5 * y)


def laguerre_derivative_loop(nmax, y, a):
    """Rows l_k'(y) of the orthonormal Laguerre functions."""
    alpha, beta = _recurrence_laguerre(nmax + 2, a)
    out = np.empty((nmax + 1, y.size))
    s = -0.5 * y
    v_prev = np.zeros_like(y)
    v = np.full_like(y, 1.0 / math.sqrt(beta[0]))
    d_prev = np.zeros_like(y)
    dv = np.zeros_like(y)
    out[0] = (dv - 0.5 * v) * np.exp(s)
    for k in range(nmax):
        rb = math.sqrt(beta[k + 1])
        v_next = ((alpha[k] - y) * v - math.sqrt(beta[k]) * v_prev) / rb
        d_next = (-v + (alpha[k] - y) * dv - math.sqrt(beta[k]) * d_prev) / rb
        v_prev, v, d_prev, dv = v, v_next, dv, d_next
        big = np.abs(v) > _RESCALE
        if big.any():
            for arr in (v, v_prev, dv, d_prev):
                arr[big] /= _RESCALE
            s[big] += _LOG_RESCALE
        out[k + 1] = (dv - 0.5 * v) * np.exp(s)
    return out


def orthonormal_value_loop(t, alpha, beta, m):
    """(p_{m-1}(t), p_m(t)) in scalar arithmetic."""
    p_prev = 0.0
    p = 1.0 / math.sqrt(beta[0])
    for k in range(m):
        p_next = ((t - alpha[k]) * p - math.sqrt(beta[k]) * p_prev) / math.sqrt(beta[k + 1])
        p_prev, p = p, p_next
    return p_prev, p


def newton_ratio_loop(y, alpha, beta, nroot, rescale):
    """p/p' of the degree-nroot orthonormal polynomial (p and p' rescaled together)."""
    v_prev = np.zeros_like(y)
    v = np.full_like(y, 1.0 / math.sqrt(beta[0]))
    d_prev = np.zeros_like(y)
    d = np.zeros_like(y)
    for k in range(nroot):
        rb = math.sqrt(beta[k + 1])
        v_next = ((y - alpha[k]) * v - math.sqrt(beta[k]) * v_prev) / rb
        d_next = (v + (y - alpha[k]) * d - math.sqrt(beta[k]) * d_prev) / rb
        v_prev, v, d_prev, d = v, v_next, d, d_next
        big = np.abs(v) > _RESCALE
        if rescale and big.any():
            for arr in (v, v_prev, d, d_prev):
                arr[big] /= _RESCALE
    return v, d


def orthonormal_derivative_loop(y, alpha, beta, m):
    """(p_{m-1}, p_m, p_m') of the orthonormal polynomials of a monic recurrence.

    p_k' follows the companion recurrence of the rows; all four running
    arrays are rescaled together, so the three share one scale per column.
    """
    v_prev = np.zeros_like(y)
    v = np.full_like(y, 1.0 / math.sqrt(beta[0]))
    d_prev = np.zeros_like(y)
    d = np.zeros_like(y)
    for k in range(m):
        rb = math.sqrt(beta[k + 1])
        v_next = ((y - alpha[k]) * v - math.sqrt(beta[k]) * v_prev) / rb
        d_next = (v + (y - alpha[k]) * d - math.sqrt(beta[k]) * d_prev) / rb
        v_prev, v, d_prev, d = v, v_next, d, d_next
        big = np.abs(v) > _RESCALE
        for arr in (v, v_prev, d, d_prev):
            arr[big] /= _RESCALE
    return v_prev, v, d


def chebyshev_derivative_loop(a):
    """Coefficients of the derivative, b_k = b_{k+2} + 2(k+1) a_{k+1} run downward."""
    n = a.size - 1
    b = np.zeros(n + 1, dtype=a.dtype)
    if n >= 1:
        b[n - 1] = 2.0 * n * a[n]
        for k in range(n - 2, 0, -1):
            b[k] = b[k + 2] + 2.0 * (k + 1.0) * a[k + 1]
        b[0] = a[1] + (0.5 * b[2] if n >= 2 else 0.0)
    return b


def legendre_derivative_loop(a):
    """Coefficients of the derivative, b_k = (2k+1) c_k with c_k = a_{k+1} + c_{k+2}."""
    n = a.size - 1
    b = np.zeros(n + 1, dtype=a.dtype)
    c_kp1 = 0.0
    c_kp2 = 0.0
    for k in range(n - 1, -1, -1):
        c_k = a[k + 1] + c_kp2
        b[k] = (2.0 * k + 1.0) * c_k
        c_kp2, c_kp1 = c_kp1, c_k
    return b


def hermite_derivative_loop(d, a):
    b = np.zeros(d.order + 2, dtype=np.result_type(a.dtype, float))
    for m in range(d.order + 1):
        if a[m] == 0:
            continue
        if m >= 1:
            b[m - 1] += d.beta * math.sqrt(m / 2.0) * a[m]
        b[m + 1] -= d.beta * math.sqrt((m + 1) / 2.0) * a[m]
    return b


@pytest.mark.parametrize("nmax", [0, 1, 2, 400])
def test_polynomial_rows_equal_loop_forms(nmax):
    x = np.r_[-1.0, np.random.default_rng(4).uniform(-1.0, 1.0, 97), 0.0, 1.0]
    assert np.array_equal(_basis_rows(Family.CHEBYSHEV, nmax, x), chebyshev_loop(nmax, x))
    assert np.array_equal(_basis_rows(Family.LEGENDRE, nmax, x), legendre_loop(nmax, x))


def test_scaled_recurrence_matches_loop_form():
    # orders and points far enough out that rescaling fires in some columns
    y = np.linspace(-60.0, 60.0, 301)
    assert np.array_equal(_basis_rows(Family.HERMITE_FN, 900, y), hermite_loop(900, y))
    y = np.linspace(0.0, 900.0, 211)
    assert np.array_equal(laguerre_rows(400, y, 0.5), laguerre_loop(400, y, 0.5))


@pytest.mark.parametrize("family", ["hermite", "laguerre"])
@pytest.mark.parametrize(
    "nmax,npts",
    [(600, 3880), (600, 487), (60, 200), (0, 5), (85, 86), (85, 173), (242, 487), (600, 1203), (56, 115)],
)
def test_scaled_recurrence_in_place_equals_loop_form(family, nmax, npts):
    # the shapes of the order-600 exterior panels, the per-step yardstick
    # and a small expansion, plus the single-row case, and the benchmark's
    # grids and fine grids; rescaling fires far out
    if family == "hermite":
        y = np.linspace(-70.0, 70.0, npts)
        assert np.array_equal(_basis_rows(Family.HERMITE_FN, nmax, y), hermite_loop(nmax, y))
    else:
        y = np.linspace(0.0, 1500.0, npts)
        fast = laguerre_rows(nmax, y, 0.5)
        assert np.array_equal(fast, laguerre_loop(nmax, y, 0.5))


def test_scaled_recurrence_keeps_nan_columns_apart():
    # a NaN column must not stop the other columns from rescaling
    y = np.array([np.nan, 40.0, 60.0, -55.0])
    fast = _basis_rows(Family.HERMITE_FN, 400, y)
    assert np.array_equal(fast, hermite_loop(400, y), equal_nan=True)
    assert np.isnan(fast[:, 0]).all() and np.isfinite(fast[:, 1:]).all()
    y = np.array([1200.0, np.nan, 30.0])
    assert np.array_equal(laguerre_rows(400, y, 0.5), laguerre_loop(400, y, 0.5), equal_nan=True)


def core_built(family, n):
    """A fresh (uncached) core rule; any warning while building it fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _core.__wrapped__(family, n)


@pytest.mark.parametrize("n", [2, 3, 36, 200, 400, 1000])
def test_newton_polish_equals_loop_forms(n):
    # Hermite: h_{n+1} over its derivative, from the function rows
    y = _gauss_nodes(*_recurrence_hermite(n + 1))
    h = hermite_loop(n + 2, y)
    y = y - h[n + 1] / (math.sqrt((n + 1) / 2.0) * h[n] - math.sqrt((n + 2) / 2.0) * h[n + 2])
    assert np.array_equal(core_built(Family.HERMITE_FN, n).y, 0.5 * (y - y[::-1]))
    # Laguerre: the left endpoint, then the Gauss nodes of Laguerre(1) polished
    # on its degree-n function, with the overflow rescale
    y = np.r_[0.0, _gauss_nodes(*_recurrence_laguerre(n, 1.0))]
    v, d = newton_ratio_loop(y[1:], *_recurrence_laguerre(n + 1, 1.0), n, rescale=True)
    y[1:] = y[1:] - v / (d - 0.5 * v)
    assert np.array_equal(core_built(Family.LAGUERRE_FN, n).y, y)
    # Legendre: the endpoints, then the Gauss nodes of Jacobi(1, 1) polished on
    # its degree m = n-1 polynomial, its derivative from the top two rows; mirrored
    x, m = _gauss_nodes(*_recurrence_jacobi(n - 1, 1.0, 1.0)), n - 1
    alpha, beta = _recurrence_jacobi(n, 1.0, 1.0)
    q, p = orthonormal_value_loop(x, alpha, beta, m)
    x = x - (1.0 - x * x) * p / (-m * x * p + (2 * m + 3) * math.sqrt(beta[m]) * q)
    y = np.r_[-1.0, x, 1.0]
    assert np.array_equal(core_built(Family.LEGENDRE, n).y, 0.5 * (y - y[::-1]))


@pytest.mark.parametrize("n", [2, 3, 36, 200, 1000, MAX_ORDER])
def test_newton_identities_equal_the_companion_recurrence(n):
    # each polish takes p_m' from a classical identity in (p_{m-1}, p_m);
    # the companion recurrence for p_k' checks it at the Gauss nodes of the
    # weight, where p_m is near zero and the identity rests on p_{m-1}
    identities = [
        # Hermite (m = n+1): h_m' = -y h_m + sqrt(2m) h_{m-1} is p_m' = sqrt(2m) p_{m-1}
        (_recurrence_hermite(n + 2), n + 1, lambda x, q, p, m, rb: math.sqrt(2.0 * m) * q),
        # Laguerre(1) (m = n): x p_m' = m p_m + sqrt(beta_m) p_{m-1}
        (_recurrence_laguerre(n + 1, 1.0), n, lambda x, q, p, m, rb: (m * p + rb * q) / x),
        # Jacobi(1, 1) (m = n-1): (1-x^2) p_m' = -m x p_m + (2m+3) sqrt(beta_m) p_{m-1}
        (_recurrence_jacobi(n, 1.0, 1.0), n - 1,
         lambda x, q, p, m, rb: (-m * x * p + (2 * m + 3) * rb * q) / (1.0 - x * x)),
    ]
    for (alpha, beta), m, slope in identities:
        x = _gauss_nodes(alpha[:m], beta[:m])
        q, p, dp = orthonormal_derivative_loop(x, alpha, beta, m)
        npt.assert_allclose(slope(x, q, p, m, math.sqrt(beta[m])), dp, rtol=1e-9, atol=0.0)


# ------------------------------------- the rescale test under a running bound
#
# _recurrence measures max|p_k| only where a running bound says the rescale
# might fire; the rows must equal the loop forms, which test every row.


def table_loop(table, x, log_env):
    """Rows of a coefficient table times exp(log_env), rescale tested on every row."""
    A, B, C, D, p0 = table
    out = np.empty((len(A) + 1, x.size))
    s = log_env.copy()
    v_prev, v = np.zeros_like(x), np.full_like(x, p0)
    out[0] = v * np.exp(s)
    for k in range(len(A)):
        v_prev, v = v, ((A[k] * x + B[k]) * v - C[k] * v_prev) / D[k]
        big = np.abs(v) > _RESCALE
        v[big] /= _RESCALE
        v_prev[big] /= _RESCALE
        s[big] += _LOG_RESCALE
        out[k + 1] = v * np.exp(s)
    return out


def test_rows_at_max_order_equal_the_loop_forms():
    y = np.linspace(-90.0, 90.0, 41)
    assert np.array_equal(_basis_rows(Family.HERMITE_FN, MAX_ORDER, y), hermite_loop(MAX_ORDER, y))
    y = np.linspace(0.0, 12100.0, 41)
    fast = laguerre_rows(MAX_ORDER, y, 0.5)
    assert np.array_equal(fast, laguerre_loop(MAX_ORDER, y, 0.5))


def test_rows_at_far_points_equal_the_loop_forms():
    # every column rescales again and again; the envelope underflows to zero
    y = np.array([1e3, -1e3])
    assert np.array_equal(_basis_rows(Family.HERMITE_FN, 400, y), hermite_loop(400, y))
    y = np.array([1e5, 1e5 + 1.0])
    assert np.array_equal(laguerre_rows(400, y, 0.5), laguerre_loop(400, y, 0.5))


def test_a_column_just_below_the_threshold_is_tested_on_every_row():
    # row 1 puts column 0 just below _RESCALE; it stays there for 300 rows,
    # then grows by 1e-4 per row and crosses; the other columns stay small
    n = 400
    A = np.r_[1.0, np.zeros(n - 1)]
    B = np.r_[0.0, np.ones(300), np.full(n - 301, 1.0001)]
    table = (A, B, np.zeros(n), np.ones(n), 1.0)
    x = np.array([0.999 * _RESCALE, 1.0, -5.0])
    log_env = np.array([-3.0, 0.0, -1.0])
    assert np.array_equal(_rows(table, x, log_env), table_loop(table, x, log_env))
    for k, (_, env) in enumerate(_recurrence(table, x, log_env)):
        if k == 301:  # held just below: not rescaled
            assert np.array_equal(env, np.exp(log_env))
    # crossed: column 0 alone was rescaled, once
    assert np.array_equal(env, np.exp(log_env + [_LOG_RESCALE, 0.0, 0.0]))


def test_after_a_rescale_the_bound_counts_the_previous_row():
    # row 2 rescales column 0 and leaves p_2 = (2, 0) with p_1 = (~0, 0.9R);
    # row 3 adds 2 p_1, so column 1 crosses from the previous row alone
    a1 = 0.9 * _RESCALE
    A1 = -2.0 * _RESCALE / (a1 - 1.0)
    A = np.array([1.0, A1, 0.0, 0.0, 0.0])
    B = np.array([0.0, -(A1 * a1), 1.0, 1.0, 1.0])
    C = np.array([0.0, 0.0, -2.0, 0.0, 0.0])
    table = (A, B, C, np.ones(5), 1.0)
    x = np.array([1.0, a1])
    log_env = np.zeros(2)
    assert np.array_equal(_rows(table, x, log_env), table_loop(table, x, log_env))
    for k, (p, env) in enumerate(_recurrence(table, x, log_env)):
        if k == 3:
            assert np.array_equal(env, np.exp([_LOG_RESCALE, _LOG_RESCALE]))
            assert (np.abs(p) <= _RESCALE).all()


@pytest.mark.parametrize("family", [Family.HERMITE_FN, Family.LAGUERRE_FN])
def test_a_column_alone_equals_the_same_column_among_others(family):
    # far columns raise the running bound of the whole block; a near column
    # must come out the same with or without them
    if family is Family.HERMITE_FN:
        y = np.array([0.3, 45.0, -2.0, -80.0, 7.5])
        rows = lambda y: _basis_rows(family, 500, y)
    else:
        y = np.array([0.3, 900.0, 2.0, 4000.0, 75.0])
        rows = lambda y: laguerre_rows(500, y, 0.5)
    block = rows(y)
    for j in range(y.size):
        assert np.array_equal(rows(y[j : j + 1])[:, 0], block[:, j])


def hermite_core_loop(n):
    """(y, w, V, gamma_hat) of the Hermite rule built with two full passes of rows."""
    y = _gauss_nodes(*_recurrence_hermite(n + 1))
    if n >= 1:
        h = hermite_loop(n + 2, y)
        y = y - h[n + 1] / (math.sqrt((n + 1) / 2.0) * h[n] - math.sqrt((n + 2) / 2.0) * h[n + 2])
        y = 0.5 * (y - y[::-1])
    V = hermite_loop(n, y)
    w = 1.0 / np.sum(V * V, axis=0)
    return y, w, V, (V * V) @ w


@pytest.mark.parametrize("n", [0, 1, 2, 85, 242, 600])
def test_hermite_core_equals_the_two_pass_loop_form(n):
    core = core_built(Family.HERMITE_FN, n)
    for fast, slow in zip((core.y, core.w, core.V, core.gamma_hat), hermite_core_loop(n)):
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("complex_", [False, True])
def test_polynomial_derivatives_equal_loop_forms(complex_):
    rng = np.random.default_rng(14)
    for n in range(41):
        c = rng.standard_normal(n + 1)
        if complex_:
            c = c + 1j * rng.standard_normal(n + 1)
        c[rng.integers(0, n + 1, size=n // 3)] = -0.0  # signed zeros pass through unchanged
        for family, loop in [
            (Family.CHEBYSHEV, chebyshev_derivative_loop),
            (Family.LEGENDRE, legendre_derivative_loop),
        ]:
            got = differentiate(SpectralExpansion(BasisDescriptor(family, n), c)).coefficients
            ref = loop(c)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(ref.view(float)))


@pytest.mark.parametrize("complex_", [False, True])
def test_hermite_derivative_matches_loop_form(complex_):
    rng = np.random.default_rng(8)
    d = BasisDescriptor(Family.HERMITE_FN, 40, beta=1.7, x_left=0.2)
    c = rng.standard_normal(d.size)
    if complex_:
        c = c + 1j * rng.standard_normal(d.size)
    c[[3, 17]] = 0.0
    assert np.array_equal(differentiate(SpectralExpansion(d, c)).coefficients, hermite_derivative_loop(d, c))


def test_laguerre_derivative_matches_the_grid_route():
    # differentiate the functions at the nodes, then interpolate: exact in
    # exact arithmetic, since the derivative stays in the space
    d = BasisDescriptor(Family.LAGUERRE_FN, 20, beta=1.6, x_left=-0.3)
    c = np.random.default_rng(9).standard_normal(d.size)
    y = np.array(nodes_weights(replace(d, beta=1.0, x_left=0.0)).nodes)
    rows = laguerre_derivative_loop(d.order, y, 0.0)
    expect = to_coefficients((d.beta * math.sqrt(d.beta)) * (rows.T @ c), d).coefficients
    got = differentiate(SpectralExpansion(d, c)).coefficients
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def laguerre_derivative_fsum(c, beta, a):
    """b_j = -beta (c_j/2 + sum_{n>j} sqrt(h_j/h_n) c_n), summed by fsum.

    For an integer exponent a, h_k/h_0 = C(k+a, k) is an exact integer, so
    each ratio is rounded once.
    """
    if np.iscomplexobj(c):
        return laguerre_derivative_fsum(c.real, beta, a) + 1j * laguerre_derivative_fsum(c.imag, beta, a)
    h = np.array([math.comb(k + a, k) for k in range(c.size)], dtype=float)
    terms = [[0.5 * c[j], *(np.sqrt(h[j] / h[j + 1 :]) * c[j + 1 :])] for j in range(c.size)]
    return np.array([-beta * math.fsum(t) for t in terms])


@pytest.mark.parametrize("a", [0])
@pytest.mark.parametrize("n", [0, 1, 40, 400, 1000])
@pytest.mark.parametrize("complex_", [False, True])
def test_laguerre_derivative_matches_an_exactly_summed_reference(a, n, complex_):
    rng = np.random.default_rng(n + 7)
    c = rng.standard_normal(n + 1)
    if complex_:
        c = c + 1j * rng.standard_normal(n + 1)
    d = BasisDescriptor(Family.LAGUERRE_FN, n, beta=1.3, x_left=0.4)
    got = differentiate(SpectralExpansion(d, c))
    assert got.descriptor == d and got.coefficients.dtype == c.dtype
    ref = laguerre_derivative_fsum(c, d.beta, a)
    assert np.max(np.abs(got.coefficients - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_laguerre_derivative_builds_no_grid():
    d = BasisDescriptor(Family.LAGUERRE_FN, 731, beta=2.0)
    misses = _core.cache_info().misses
    differentiate(SpectralExpansion(d, np.ones(d.size)))
    assert _core.cache_info().misses == misses


# ------------------------------------------------- real-matrix products


def _apply_real_cases():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((7, 9))
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    wide = rng.standard_normal(18) + 1j * rng.standard_normal(18)
    yield A, c  # C-ordered matrix, contiguous complex vector
    yield np.asfortranarray(A), c  # F-ordered matrix
    yield A.T.T, wide[::2]  # strided (non-contiguous) complex vector
    yield rng.standard_normal((9, 7)).T, c  # transposed view, as phi.T
    yield A, rng.standard_normal(9)  # real vector


def test_apply_real_matches_numpy_product():
    for A, c in _apply_real_cases():
        out = _apply_real(A, c)
        ref = A @ c
        assert out.dtype == c.dtype and out.shape == ref.shape
        npt.assert_allclose(out, ref, rtol=1e-15, atol=1e-15 * np.abs(ref).max())


def test_apply_real_passes_real_vectors_through():
    rng = np.random.default_rng(12)
    A, c, v = rng.standard_normal((6, 8)), rng.standard_normal(8), rng.standard_normal(12)
    assert np.array_equal(_apply_real(A, c), A @ c)
    assert np.array_equal(_apply_real(A.T, v[::2]), A.T @ v[::2])


# ---------------------------------------- cross matrices from the core rules


BOUNDED_SPACES = [
    lambda n: BasisDescriptor(Family.LEGENDRE, n),
    lambda n: BasisDescriptor(Family.CHEBYSHEV, n),
]


@pytest.mark.parametrize("space", BOUNDED_SPACES)
def test_bounded_cross_matrix_is_the_core_rows(space):
    # the basis on its own grid, or on a finer grid of its family, is the top
    # rows of that grid's V: no matrix is built or cached
    for n in (0, 1, 2, 30, 36, 64, 130):
        d = space(n)
        before = basis._cross_matrix_cached.cache_info()
        assert _cross_matrix(d, d) is _core_of(d).V
        for m in (n, n + 1, 2 * n + 2):
            fine = space(m)
            built = _cross_matrix_build(_frame(d), _frame(fine), 0.0)
            assert np.array_equal(_cross_matrix(d, fine), built)
        assert basis._cross_matrix_cached.cache_info() == before


def test_cross_matrix_builds_toward_a_coarser_grid_and_another_family():
    basis._cross_matrix_cached.cache_clear()
    d = BasisDescriptor(Family.LEGENDRE, 12)
    for d_to in (BasisDescriptor(Family.LEGENDRE, 11), BasisDescriptor(Family.CHEBYSHEV, 13)):
        B = _cross_matrix(d, d_to)
        assert np.array_equal(B, evaluate_all(d, nodes_weights(d_to).nodes))
    assert basis._cross_matrix_cached.cache_info().misses == 2


@pytest.mark.parametrize(
    "d",
    [
        BasisDescriptor(Family.HERMITE_FN, 20, beta=1.3, x_left=0.4),
        BasisDescriptor(Family.LAGUERRE_FN, 20, beta=0.7, x_left=-1.0),
    ],
    ids=str,
)
def test_unbounded_cross_matrix_is_built_on_its_own_grid(d):
    # y/beta + x_left does not map back to the reference nodes exactly
    basis._cross_matrix_cached.cache_clear()
    B = _cross_matrix(d, d)
    assert basis._cross_matrix_cached.cache_info().misses == 1
    d0 = replace(d, x_left=0.0)
    assert np.array_equal(B, evaluate_all(d0, nodes_weights(d0).nodes))


@pytest.mark.parametrize("family", [Family.HERMITE_FN, Family.LAGUERRE_FN, Family.LEGENDRE],
                         ids=lambda f: f.value)
def test_function_family_rules_are_sound_up_to_max_order(family):
    # finite nodes and weights, and a discrete Gram matrix equal to the
    # identity on sampled rows once normalized (the functions are orthonormal;
    # P_k has squared norm 2/(2k+1), and P_n on the Lobatto grid 2/n); built uncached,
    # so the order-3000 rules do not stay resident
    for n in (0, 1, 2, 50, 300, 1000, MAX_ORDER):
        core = _core.__wrapped__(family, n)
        assert np.isfinite(core.y).all() and np.isfinite(core.w).all()
        rows = np.unique(np.linspace(0, n, 40).astype(int))
        g = np.ones(n + 1)
        if family is Family.LEGENDRE:
            g = 2.0 / (2.0 * np.arange(n + 1) + 1.0)
            g[n] = 2.0 / max(n, 1)
        G = (core.V[rows] * core.w) @ core.V.T / np.sqrt(g[rows, None] * g)
        assert np.max(np.abs(G - np.eye(n + 1)[rows])) <= 1e-12, n
