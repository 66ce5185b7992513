"""Matrix-free exponential against dense eigendecomposition oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from adaptspec.expm import ExpmConfig, expm_action


def random_skew_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m - m.conj().T) / 2


def expm_dense_oracle(a):
    # A skew-Hermitian: iA is Hermitian, so exp(A) = W diag(e^{-i s}) W*
    # with iA = W diag(s) W*
    s, w = np.linalg.eigh(1j * a)
    return (w * np.exp(-1j * s)) @ w.conj().T


def test_zero_operator_is_identity():
    x = np.arange(5.0)
    npt.assert_array_equal(expm_action(lambda v: 0 * v, x), x)


def test_scalar_phase():
    x = np.array([1.0 + 2j, -0.5, 3j])
    y = expm_action(lambda v: 1j * v, x)
    npt.assert_allclose(y, np.exp(1j) * x, atol=1e-14)


def test_matches_eigendecomposition_oracle():
    a = random_skew_hermitian(12, seed=0)
    x = np.random.default_rng(1).standard_normal(12) + 0j
    y = expm_action(lambda v: a @ v, x)
    npt.assert_allclose(y, expm_dense_oracle(a) @ x, atol=1e-12)


@pytest.mark.parametrize("n,seed", [(4, 2), (16, 3), (32, 4)])
def test_oracle_various_sizes(n, seed):
    a = random_skew_hermitian(n, seed)
    x = np.random.default_rng(seed + 100).standard_normal(n) + 0j
    y = expm_action(lambda v: a @ v, x)
    npt.assert_allclose(y, expm_dense_oracle(a) @ x, atol=1e-12)


def test_norm_preserved_for_skew_hermitian():
    a = random_skew_hermitian(20, seed=5)
    x = np.random.default_rng(6).standard_normal(20) + 0j
    y = expm_action(lambda v: a @ v, x)
    ratio = np.linalg.norm(y) / np.linalg.norm(x)
    assert abs(ratio - 1) < 1e-11


def test_semigroup():
    a = random_skew_hermitian(10, seed=7)
    x = np.random.default_rng(8).standard_normal(10) + 0j
    once_twice = expm_action(lambda v: a @ v, expm_action(lambda v: a @ v, x))
    doubled = expm_action(lambda v: 2 * (a @ v), x)
    npt.assert_allclose(once_twice, doubled, atol=1e-10)


def test_linearity():
    a = random_skew_hermitian(9, seed=9)
    rng = np.random.default_rng(10)
    x, z = rng.standard_normal(9) + 0j, rng.standard_normal(9) + 0j
    apply_a = lambda v: a @ v
    lhs = expm_action(apply_a, 2.5 * x - 1j * z)
    rhs = 2.5 * expm_action(apply_a, x) - 1j * expm_action(apply_a, z)
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_matrix_argument():
    # the operand may itself be a matrix (columns evolved together)
    a = random_skew_hermitian(8, seed=11)
    x = np.random.default_rng(12).standard_normal((8, 3)) + 0j
    y = expm_action(lambda v: a @ v, x)
    npt.assert_allclose(y, expm_dense_oracle(a) @ x, atol=1e-12)


def test_unitarity_drift_over_many_steps():
    a = random_skew_hermitian(16, seed=13)
    x = np.random.default_rng(14).standard_normal(16) + 0j
    n0 = np.linalg.norm(x)
    for _ in range(200):
        x = expm_action(lambda v: 0.05 * (a @ v), x)
    assert abs(np.linalg.norm(x) / n0 - 1) < 1e-9


def test_divergence_reports_term_index():
    a = 80.0 * random_skew_hermitian(6, seed=15)
    x = np.ones(6) + 0j
    with pytest.raises(RuntimeError, match="term"):
        expm_action(lambda v: a @ v, x, ExpmConfig(m=1, max_terms=10))


def test_config_validation():
    with pytest.raises(ValueError):
        ExpmConfig(m=0)
    with pytest.raises(ValueError):
        ExpmConfig(taylor_tol=0.0)
    with pytest.raises(ValueError):
        ExpmConfig(max_terms=0)


def test_chebyshev_path_matches_eigendecomposition_on_criterion_6_matrices():
    # the same random skew-Hermitian draws as acceptance criterion 6; the
    # spectral interval comes from the 2-norm, not from the eigensolver
    rng = np.random.default_rng(7)
    for n in (8, 20, 32):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (b - b.conj().T) / 2.0
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rho = np.linalg.norm(a, 2)
        y = expm_action(lambda v: a @ v, x, spectrum=(-rho, rho))
        err = np.linalg.norm(y - expm_dense_oracle(a) @ x) / np.linalg.norm(x)
        assert err < 1e-12


def test_chebyshev_path_on_a_shifted_interval_and_a_point():
    # H = diag(h) on [lo, hi] far from the origin; a one-point interval
    # is a pure phase and needs no apply
    h = np.linspace(40.0, 55.0, 7)
    x = np.random.default_rng(16).standard_normal(7) + 0j
    y = expm_action(lambda v: -1j * h * v, x, spectrum=(40.0, 55.0))
    npt.assert_allclose(y, np.exp(-1j * h) * x, rtol=0, atol=1e-13)
    calls = []
    y = expm_action(lambda v: calls.append(v) or -3j * v, x, spectrum=(3.0, 3.0))
    assert not calls
    npt.assert_allclose(y, np.exp(-3j) * x, rtol=0, atol=1e-15)


def test_chebyshev_path_rejects_a_bad_interval_and_caps_the_degree():
    x = np.ones(3) + 0j
    for bad in ((1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="interval"):
            expm_action(lambda v: 0 * v, x, spectrum=bad)
    with pytest.raises(RuntimeError, match="terms.*half-width 5.000e\\+03"):
        expm_action(lambda v: -1j * v, x, spectrum=(-5e3, 5e3))
