"""Solver pieces against quadrature, dense-assembly, and analytic oracles."""

import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from adaptspec import (
    BasisDescriptor,
    Family,
    SpectralExpansion,
    differentiate,
    evaluate_all,
    nodes_weights,
    to_coefficients,
    to_values,
)
from adaptspec import schrodinger
from adaptspec.adapt import ControllerConfig, initial_state, orchestrate_step, translate
from adaptspec.basis import _core_of
from adaptspec.experiments import _example_6_potentials, _packet_problem, example_config
from adaptspec.indicators import relative_error
from adaptspec.schrodinger import (
    SchrodingerProblem,
    adapt_schrodinger_run,
    gaussian_packet,
    potential_apply,
    propagate_step,
    stiffness_apply,
    stiffness_matrix,
)

HER = lambda n, **kw: BasisDescriptor(Family.HERMITE_FN, n, **kw)


# ----------------------------------------------------------- stiffness


def test_stiffness_order_zero_by_hand():
    # int (d/dx pi^{-1/4} e^{-x^2/2})^2 dx = 1/2
    npt.assert_allclose(stiffness_matrix(HER(0)), [[0.5]], rtol=1e-15)


def test_stiffness_beta_scaling():
    s1 = stiffness_matrix(HER(8, beta=1.0))
    s2 = stiffness_matrix(HER(8, beta=1.7))
    npt.assert_allclose(s2, 1.7**2 * s1, rtol=1e-14)


def test_stiffness_pattern_and_symmetry():
    s = stiffness_matrix(HER(10))
    npt.assert_array_equal(s, s.T)
    l, j = np.indices(s.shape)
    off = np.abs(l - j)
    assert np.all(s[(off != 0) & (off != 2)] == 0)
    assert np.all(s[off == 2] < 0)


def test_stiffness_positive_semidefinite():
    s = stiffness_matrix(HER(24, beta=0.8))
    assert np.linalg.eigvalsh(s).min() >= -1e-12


def test_stiffness_matches_quadrature_oracle():
    d = HER(6, beta=1.3, x_left=0.4)
    rule = nodes_weights(HER(20, beta=1.3, x_left=0.4))
    dvals = []
    for l in range(7):
        e = np.zeros(7)
        e[l] = 1.0
        dvals.append(to_values(differentiate(SpectralExpansion(d, e)), rule.nodes))
    oracle = np.array(
        [[rule.weights @ (dl * dj) for dj in dvals] for dl in dvals]
    )
    npt.assert_allclose(stiffness_matrix(d), oracle, atol=1e-10)


def test_stiffness_apply_matches_matrix():
    d = HER(15, beta=1.2)
    x = np.random.default_rng(0).standard_normal(16) + 1j
    npt.assert_allclose(stiffness_apply(d, x), stiffness_matrix(d) @ x, atol=1e-13)


def test_stiffness_rejects_bounded_family():
    with pytest.raises(ValueError):
        stiffness_matrix(BasisDescriptor(Family.LEGENDRE, 4))


def test_translated_grid_reuses_the_stiffness_bands():
    # the bands depend on the order and beta only: a moved grid hits the cache
    u = SpectralExpansion(HER(30, beta=1.3, x_left=0.2), np.linspace(1.0, 0.0, 31) + 0j)
    problem = SchrodingerProblem(psi0=lambda s: 0 * s, dt=0.01, T=0.01)
    step = propagate_step(u.coefficients, u.descriptor, problem, 0.0)
    before = schrodinger._stiffness_bands.cache_info()
    moved = translate(u, 0.005)
    moved_step = propagate_step(u.coefficients, moved.descriptor, problem, 0.0)
    after = schrodinger._stiffness_bands.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    npt.assert_array_equal(moved_step, step)


# ----------------------------------------------------------- potential


def test_potential_zero_gives_zero():
    d = HER(6)
    x = np.ones(7, dtype=complex)
    npt.assert_array_equal(potential_apply(d, None, None, 0.0, 0.1, x), np.zeros(7))


def test_potential_constant_is_scaled_identity():
    d = HER(9, beta=1.4)
    x = np.random.default_rng(1).standard_normal(10) + 0j
    y = potential_apply(d, lambda s: 0.7 + 0 * s, None, 0.0, 0.02, x)
    npt.assert_allclose(y, 0.7 * 0.02 * x, atol=1e-12)


def test_potential_matches_dense_assembly():
    d = HER(8, beta=1.1, x_left=-0.3)
    V = lambda s: np.exp(-(s**2))
    rule = nodes_weights(d)
    phi = evaluate_all(d, rule.nodes)
    dense = (phi * (rule.weights * V(rule.nodes) * 0.05)) @ phi.T
    x = np.random.default_rng(2).standard_normal(9) + 0j
    npt.assert_allclose(potential_apply(d, V, None, 0.0, 0.05, x), dense @ x, atol=1e-11)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 241])
@pytest.mark.parametrize("complex_", [False, True])
def test_parity_split_potential_matches_the_dense_product(n, complex_):
    # the grid's basis values sqrt(beta) V of the reference rule, as
    # node_values uses them: evaluate_all at the mapped nodes re-rounds
    # y = beta (x - x_left) and alone moves the product by 2e-14 at order 241
    d = HER(n, beta=1.3, x_left=-0.7)
    V = lambda s: np.exp(-(s**2)) + 0.1 * s**3
    rule = nodes_weights(d)
    phi = np.sqrt(d.beta) * _core_of(d).V
    dense = (phi * (rule.weights * V(rule.nodes) * 0.05)) @ phi.T
    rng = np.random.default_rng(n)
    x = rng.standard_normal(d.size)
    if complex_:
        x = x + 1j * rng.standard_normal(d.size)
    out = potential_apply(d, V, None, 0.0, 0.05, x)
    ref = dense @ x
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_potential_linear_in_coefficients():
    d = HER(7)
    V = lambda s: np.cos(s)
    rng = np.random.default_rng(3)
    x, z = rng.standard_normal(8) + 0j, rng.standard_normal(8) + 0j
    lhs = potential_apply(d, V, None, 0.0, 0.1, 2.0 * x - 1j * z)
    rhs = 2.0 * potential_apply(d, V, None, 0.0, 0.1, x) - 1j * potential_apply(
        d, V, None, 0.0, 0.1, z
    )
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_time_quadrature_integrates_cubic_drive_exactly():
    # space-constant drive t^3: the operator is (int t^3 dt) * identity and
    # the three-point rule is exact through degree five
    d = HER(5)
    x = np.random.default_rng(4).standard_normal(6) + 0j
    t0, dt = 0.3, 0.2
    y = potential_apply(d, None, lambda s, t: t**3 + 0 * s, t0, dt, x)
    exact = ((t0 + dt) ** 4 - t0**4) / 4
    npt.assert_allclose(y, exact * x, atol=1e-13)


# ----------------------------------------------------------- propagate


def test_analytic_packet_satisfies_the_pde():
    # finite-difference honesty check of the oracle itself
    x = np.linspace(-3, 4, 41)
    t, h = 0.23, 1e-5
    u_t = (gaussian_packet(x, t + h) - gaussian_packet(x, t - h)) / (2 * h)
    hx = 1e-4
    u_xx = (
        gaussian_packet(x + hx, t) - 2 * gaussian_packet(x, t) + gaussian_packet(x - hx, t)
    ) / hx**2
    npt.assert_allclose(1j * u_t, -u_xx, atol=2e-5)


def test_free_particle_matches_analytic():
    d = HER(80, beta=1.3)
    prob = SchrodingerProblem(psi0=lambda x: gaussian_packet(x, 0.0), dt=0.005, T=0.1)
    rule = nodes_weights(d)
    psi = to_coefficients(gaussian_packet(rule.nodes, 0.0), d).coefficients
    for n in range(20):
        psi = propagate_step(psi, d, prob, n * prob.dt)
    u = SpectralExpansion(d, psi)
    err = relative_error(u, lambda x: gaussian_packet(x, 0.1))
    assert err < 1e-4


def test_free_particle_spectral_convergence():
    # time stepping is exact for a time-independent generator, so the
    # N-refinement alone must buy orders of magnitude
    errs = {}
    for n in (12, 24):
        d = HER(n, beta=1.3)
        prob = SchrodingerProblem(psi0=lambda x: gaussian_packet(x, 0.0), dt=0.01, T=0.1)
        rule = nodes_weights(d)
        psi = to_coefficients(gaussian_packet(rule.nodes, 0.0), d).coefficients
        for k in range(10):
            psi = propagate_step(psi, d, prob, k * prob.dt)
        errs[n] = relative_error(SpectralExpansion(d, psi), lambda x: gaussian_packet(x, 0.1))
    assert errs[24] < errs[12] / 1e3


def test_norm_preserved_over_200_steps():
    d = HER(32, beta=1.2)
    V = lambda s: -2 * np.exp(-(s**2))
    prob = SchrodingerProblem(psi0=lambda x: gaussian_packet(x, 0.0), V=V, dt=0.01, T=2.0)
    rule = nodes_weights(d)
    psi = to_coefficients(gaussian_packet(rule.nodes, 0.0), d).coefficients
    n0 = np.linalg.norm(psi)
    for n in range(200):
        psi = propagate_step(psi, d, prob, n * prob.dt)
        assert abs(np.linalg.norm(psi) / n0 - 1) < 1e-10 * (n + 1)
    assert abs(np.linalg.norm(psi) / n0 - 1) < 1e-9


def test_small_step_changes_psi_linearly():
    d = HER(20)
    rule = nodes_weights(d)
    psi0 = to_coefficients(gaussian_packet(rule.nodes, 0.0), d).coefficients
    deltas = {}
    for dt in (1e-3, 5e-4):
        prob = SchrodingerProblem(psi0=lambda x: x, dt=dt, T=1.0)
        deltas[dt] = np.linalg.norm(propagate_step(psi0, d, prob, 0.0) - psi0)
    assert deltas[1e-3] == pytest.approx(2 * deltas[5e-4], rel=1e-3)


def test_zero_potential_path_equals_explicit_zero():
    d = HER(16)
    rule = nodes_weights(d)
    psi = to_coefficients(gaussian_packet(rule.nodes, 0.0), d).coefficients
    fast = propagate_step(psi, d, SchrodingerProblem(psi0=lambda x: x, dt=0.02, T=1.0), 0.0)
    slow = propagate_step(
        psi,
        d,
        SchrodingerProblem(psi0=lambda x: x, V=lambda s: 0 * s, dt=0.02, T=1.0),
        0.0,
    )
    npt.assert_allclose(fast, slow, atol=1e-13)


def test_stiff_potential_aborts_with_diagnostics():
    # a spread potential: the spectral half-width (6.7e6) needs far more
    # Chebyshev terms than the degree cap allows
    d = HER(10)
    prob = SchrodingerProblem(psi0=lambda x: x, V=lambda s: 1e6 * s**2, dt=1.0, T=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="term"):
            propagate_step(np.ones(11, dtype=complex), d, prob, 0.0)
    assert not caught


@pytest.mark.parametrize(
    "V,V_ex",
    [
        (lambda x: np.where(abs(x) > 3, np.nan, x**2), None),
        (None, lambda x, t: np.where(x > 1, np.inf, 0.0 * x)),
    ],
    ids=["nan-static", "plus-inf-drive"],
)
def test_a_non_finite_potential_is_refused_where_it_is_sampled(V, V_ex):
    # named at the step's start time, as a RuntimeError, not as a bad spectrum
    psi0 = lambda x: gaussian_packet(x, 0.0)
    prob = SchrodingerProblem(psi0=psi0, V=V, V_ex=V_ex, dt=0.01, T=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"non-finite potential at t=0\.25$"):
            propagate_step(np.ones(21, dtype=complex), HER(20), prob, 0.25)
        with pytest.raises(RuntimeError, match=r"non-finite potential at t=0$"):
            adapt_schrodinger_run(prob, ControllerConfig(), HER(20))


@pytest.mark.parametrize("V", [None, lambda s: 0.5 * s**2], ids=["free", "potential"])
@pytest.mark.parametrize("psi", [np.ones(1), np.ones((2, 11)), np.ones(12)], ids=["short", "2d", "long"])
def test_propagate_step_refuses_a_coefficient_vector_of_the_wrong_shape(V, psi):
    prob = SchrodingerProblem(psi0=lambda x: x, V=V, dt=0.01, T=0.01)
    with pytest.raises(ValueError, match=r"expected 11 coefficients, got shape"):
        propagate_step(psi, HER(10), prob, 0.0)


def test_constant_stiff_potential_is_a_phase():
    # a constant potential only shifts the spectral interval: the step is
    # the free step times exp(-i V dt), whatever the size of V
    d = HER(10)
    psi = np.ones(11, dtype=complex)
    stiff = SchrodingerProblem(psi0=lambda x: x, V=lambda s: 1e6 + 0 * s, dt=1.0, T=1.0)
    free = SchrodingerProblem(psi0=lambda x: x, dt=1.0, T=1.0)
    expect = np.exp(-1e6j) * propagate_step(psi, d, free, 0.0)
    out = propagate_step(psi, d, stiff, 0.0)
    npt.assert_allclose(out, expect, rtol=0, atol=1e-9 * np.linalg.norm(psi))


# ------------------------------------------------------- adaptive runs


def test_adaptive_run_tracks_packet_and_conserves_norm():
    cfg = ControllerConfig(
        eta=1.1,
        eta0=1.1,
        gamma=1.05,
        n_max=6,
        q=0.95,
        nu=1 / 0.95,
        mu=1.0002,
        delta=0.005,
        d_max=0.1,
        beta_lo=0.3,
        beta_hi=2.0,
    )
    prob = SchrodingerProblem(psi0=lambda x: gaussian_packet(x, 0.0), dt=0.005, T=0.25)
    norms = []
    u, records = adapt_schrodinger_run(
        prob, cfg, HER(50, beta=1.3), on_step=lambda t, w, r: norms.append(
            np.linalg.norm(w.coefficients)
        )
    )
    assert len(records) == 50
    # packet centre reached 2t = 0.5; the grid must have moved right
    assert u.descriptor.x_left > 0.05
    assert abs(norms[-1] / norms[0] - 1) < 1e-6
    err = relative_error(u, lambda x: gaussian_packet(x, 0.25))
    assert err < 1e-5


def test_moving_disabled_pins_x_left():
    cfg = ControllerConfig(moving=False)
    prob = SchrodingerProblem(psi0=lambda x: gaussian_packet(x, 0.0), dt=0.01, T=0.1)
    u, records = adapt_schrodinger_run(prob, cfg, HER(40, beta=1.3))
    assert u.descriptor.x_left == 0.0
    assert all("move" not in r.actions for r in records)


def test_run_requires_integer_step_count():
    with pytest.raises(ValueError, match="integer"):
        SchrodingerProblem(psi0=lambda x: x, dt=0.03, T=0.1)


def test_problem_validation():
    with pytest.raises(ValueError):
        SchrodingerProblem(psi0=lambda x: x, dt=0.0)
    with pytest.raises(ValueError):
        SchrodingerProblem(psi0=lambda x: x, dt=0.1, T=0.05)


@pytest.mark.parametrize("n", [24, 25])
def test_propagate_step_with_potential_matches_dense_exponential(n):
    from scipy.linalg import expm

    d = HER(n, beta=1.2, x_left=0.3)
    V = lambda s: 0.5 * s**2
    V_ex = lambda s, t: np.sin(3.0 * t) * np.exp(-(s**2))
    problem = SchrodingerProblem(psi0=lambda s: 0 * s, V=V, V_ex=V_ex, dt=0.01, T=0.01)
    t_n = 0.2
    # assemble the generator densely: potential columns from unit vectors
    rule = nodes_weights(d)
    phi = evaluate_all(d, rule.nodes)
    g = V(rule.nodes) * problem.dt
    for xi, wq in zip((0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)), (5 / 18, 4 / 9, 5 / 18)):
        g = g + wq * problem.dt * V_ex(rule.nodes, t_n + xi * problem.dt)
    generator = -1j * (problem.dt * stiffness_matrix(d) + (phi * (rule.weights * g)) @ phi.T)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    out = propagate_step(psi, d, problem, t_n)
    npt.assert_allclose(out, expm(generator) @ psi, rtol=0, atol=1e-12 * np.linalg.norm(psi))


# ------------------------------------------------ spectral-bound propagator


@pytest.mark.parametrize("n", [10, 50, 242, 600])
def test_gershgorin_bound_is_tight_above_stiffness_spectrum(n):
    d = HER(n, beta=1.3)
    top = np.linalg.eigvalsh(stiffness_matrix(d)).max()
    bound = schrodinger._stiffness_bound(d)
    assert top <= bound <= 1.15 * top


def test_potential_operator_eigenvalues_are_the_node_values():
    d = HER(40, beta=1.3, x_left=0.2)
    cfg = example_config(6)
    V, V_ex = _example_6_potentials(cfg.v_depth, cfg.v_sharp, cfg.drive_amp, cfg.drive_freq)
    g = schrodinger._integrated_potential(d, V, V_ex, 0.37, 0.01)
    phi = evaluate_all(d, nodes_weights(d).nodes)
    vtilde = (phi * (nodes_weights(d).weights * g)) @ phi.T
    eig = np.linalg.eigvalsh((vtilde + vtilde.T) / 2)
    slack = 1e-13 * np.abs(g).max()
    assert g.min() - slack <= eig.min() and eig.max() <= g.max() + slack
    npt.assert_allclose(np.sort(eig), np.sort(g), rtol=0, atol=slack)


def test_example_6_step_at_reference_order_needs_few_applies(monkeypatch):
    cfg = example_config(6)
    V, V_ex = _example_6_potentials(cfg.v_depth, cfg.v_sharp, cfg.drive_amp, cfg.drive_freq)
    problem = _packet_problem(cfg, V, V_ex)
    d = HER(600, beta=1.3)
    psi = to_coefficients(problem.psi0(nodes_weights(d).nodes).astype(complex), d).coefficients
    applies = []
    expm_action = schrodinger.expm_action

    def counted(apply_a, x, *args, **kwargs):
        def apply_counted(v):
            applies.append(1)
            return apply_a(v)

        return expm_action(apply_counted, x, *args, **kwargs)

    monkeypatch.setattr(schrodinger, "expm_action", counted)
    out = propagate_step(psi, d, problem, 0.0)
    assert 0 < len(applies) <= 45
    assert abs(np.linalg.norm(out) / np.linalg.norm(psi) - 1) < 1e-13


# ---------------------------------------------------- harmonic trap
#
# With V = x^2 the generator is H = -d^2/dx^2 + x^2, whose eigenfunctions are
# the Hermite functions at beta=1, x_left=0; every Gaussian state evolves in
# closed form, so the adaptive loop is checked against an exact solution
# that turns around (no packet study does).


def _coherent(x, t, x0=3.0):
    # Schroedinger 1926, Glauber 1963: h_0(x - x0) oscillating with tau = 2t
    tau = 2.0 * t
    xc, pc = x0 * np.cos(tau), -x0 * np.sin(tau)
    phase = pc * x - tau / 2 - xc * pc / 2
    return np.pi**-0.25 * np.exp(-((x - xc) ** 2) / 2 + 1j * phase)


def _squeezed(x, t, s=2.0):
    # (s/pi)^(1/4) exp(-s x^2/2) breathing with period pi/2 (Mehler kernel):
    # z^(-1/2) exp(-x^2/2 (s cos 2t + i sin 2t)/z), z = cos 2t + i s sin 2t.
    # z e^(-2it) has real part >= min(1, s), so e^(it) times its principal
    # root is the root of z continued from t=0; the principal root of z
    # itself flips sign where z crosses the negative axis, at t = pi/2.
    c, sn = np.cos(2.0 * t), np.sin(2.0 * t)
    z = c + 1j * s * sn
    root = np.exp(1j * t) * np.sqrt(z * (c - 1j * sn))
    return (s / np.pi) ** 0.25 / root * np.exp(-(x**2) / 2 * (s * c + 1j * sn) / z)


def _trap_run(psi):
    """Half a trap period (200 steps of pi/400) from psi(x, 0) under example 5's
    controller with moving off: (errors, actions, coefficient norms) per step."""
    controller = dataclasses.replace(example_config(5).controller, moving=False)
    dt = np.pi / 400
    problem = SchrodingerProblem(psi0=lambda x: psi(x, 0.0), V=lambda x: x**2, dt=dt, T=200 * dt)
    errors, actions, norms = [], [], []

    def on_step(t, u, rec):
        errors.append(relative_error(u, lambda x: psi(x, t)))
        actions.extend(rec.actions)
        norms.append(np.linalg.norm(u.coefficients))

    _, records = adapt_schrodinger_run(problem, controller, HER(50, beta=1.0), on_step=on_step)
    assert len(records) == 200
    return np.array(errors), actions, np.array(norms)


def test_trap_coherent_state_is_exact_and_leaves_the_space_alone():
    errors, actions, _ = _trap_run(_coherent)
    assert errors.max() <= 1e-12
    assert actions == []


def test_trap_squeezed_state_breathes_through_both_scalings():
    errors, actions, norms = _trap_run(_squeezed)
    assert "scale_up" in actions and "scale_down" in actions
    assert errors.max() <= 1e-11
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_trap_squeezed_state_does_not_ratchet_the_order():
    # the indicator reads roundoff (about 1e-14) the whole half period, which
    # must not drive the order up from its start at 50
    errors, actions, norms = _trap_run(_squeezed)
    assert 50 + actions.count("refine") - actions.count("coarsen") <= 60
    assert errors.max() <= 1e-11
    assert np.abs(norms - 1.0).max() <= 1e-12
