"""Galerkin solver for i dpsi/dt = -psi_xx + (V + V_ex) psi on the line.

The wavefunction lives in a Hermite-function space on an adaptive grid
(order, scaling, shift all movable).  Each step advances the coefficient
vector with the exponential of the exact weak-form generator: the
derivative-derivative term is assembled analytically (pentadiagonal), the
potential term is contracted matrix-free through the quadrature grid, on
parity halves of the basis values (the grid is mirror-symmetric and each
basis function even or odd), and the time dependence of the external drive
is integrated with a three-point Gauss-Legendre rule inside the step.

The step exponential is a Chebyshev series sized from the generator's
spectrum, which is known in closed form: the stiffness matrix is positive
semidefinite with its top eigenvalue bounded by the Gershgorin row sums of
its two bands, and the potential term has exactly the node values of the
time-integrated potential as eigenvalues (the Gauss rule is exact for
products of two basis functions).  No splitting depth is tuned by hand.

Every operator applied to the complex coefficients (the reference basis
values, transforms, cross matrices, exterior panels) is real, so each
product runs in real arithmetic as one two-column real matrix product,
never through a complex copy of the matrix.  The operators within one
space come from the reference rule: beta scales the stiffness bands and
cancels from the potential term, and x_left enters neither, so a moved or
rescaled grid builds no new matrix for them.  A SchrodingerProblem refuses a
horizon that is not a whole number of steps when constructed, by the march's rule.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .adapt import ControllerConfig, _adaptive_march, _check_finite, _sample, _step_count
from .basis import (
    BasisDescriptor,
    Family,
    SpectralExpansion,
    _apply_real,
    _core_of,
    nodes_weights,
)
from .expm import expm_action

__all__ = [
    "SchrodingerProblem",
    "stiffness_matrix",
    "stiffness_apply",
    "potential_apply",
    "propagate_step",
    "adapt_schrodinger_run",
    "gaussian_packet",
]

# 3-point Gauss-Legendre on [0, 1]
_GL3_NODES = np.array([0.5 - math.sqrt(3 / 5) / 2, 0.5, 0.5 + math.sqrt(3 / 5) / 2])
_GL3_WEIGHTS = np.array([5 / 18, 4 / 9, 5 / 18])


@dataclass(frozen=True)
class SchrodingerProblem:
    """Potentials, initial data, and stepping knobs for one run.

    V is the static potential V(x); V_ex(x, t) the time-dependent drive;
    either may be None for identically zero.
    """

    psi0: Callable
    V: Optional[Callable] = None
    V_ex: Optional[Callable] = None
    dt: float = 0.01
    T: float = 1.0

    def __post_init__(self):
        _step_count(self.dt, self.T)


def _require_hermite(d: BasisDescriptor):
    if d.family is not Family.HERMITE_FN:
        raise ValueError("the solver runs in a Hermite-function space")


@lru_cache(maxsize=32)
def _stiffness_bands(size: int, beta: float):
    # d/dx B_n = beta (sqrt(n/2) B_{n-1} - sqrt((n+1)/2) B_{n+1}) gives
    # (B_l', B_j') nonzero only at |l-j| in {0, 2}; x_left does not enter
    n = np.arange(size, dtype=float)
    main = beta**2 * (2 * n + 1) / 2
    upper2 = -(beta**2) * np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) / 2
    main.setflags(write=False)
    upper2.setflags(write=False)
    return main, upper2


def _stiffness_bound(d: BasisDescriptor) -> float:
    """Gershgorin bound on the top eigenvalue of S: largest absolute row sum."""
    main, upper2 = _stiffness_bands(d.size, d.beta)
    rows = main.copy()
    rows[:-2] += np.abs(upper2)
    rows[2:] += np.abs(upper2)
    return float(rows.max())


def stiffness_matrix(d: BasisDescriptor) -> np.ndarray:
    """Dense (B_l', B_j') matrix: symmetric, pentadiagonal pattern."""
    _require_hermite(d)
    main, upper2 = _stiffness_bands(d.size, d.beta)
    s = np.diag(main)
    if len(upper2):
        s += np.diag(upper2, 2) + np.diag(upper2, -2)
    return s


def stiffness_apply(d: BasisDescriptor, x: np.ndarray) -> np.ndarray:
    """S @ x through the two bands, O(N)."""
    _require_hermite(d)
    main, upper2 = _stiffness_bands(d.size, d.beta)
    y = main * x
    if len(x) > 2:
        y[:-2] += upper2 * x[2:]
        y[2:] += upper2 * x[:-2]
    return y


def _potential_operator(d: BasisDescriptor, g: np.ndarray):
    """X -> V diag(w g) V^T X: the Galerkin projection of multiplication by g.

    The rule is exact for products of two basis functions, so no
    mass-matrix solve appears.  The grid's basis values sqrt(beta) V and
    weights w/beta leave beta out of the product, so the reference rule's
    V and w serve every scaled and shifted grid.

    Both products run on parity halves: the grid is mirrored bit for bit
    and B_n(-y) = (-1)^n B_n(y), so the even rows Ve = V[0::2, :k] and the
    odd rows Vo = V[1::2, :h] on the left half of the grid (k nodes up to
    and including the middle one, h mirrored pairs) carry all of V.  The
    node values are e + o on the left and e - o, reversed, on the right,
    with e = Ve^T X[0::2] and o = Vo^T X[1::2]; odd rows vanish at the
    middle node y = 0.  Back in coefficients the even rows take Ve (u + u')
    and the odd rows Vo (u - u'), u and u' the weighted values on the left
    and the reversed right half.  Ve and Vo are strided views of V, and an
    application does half the dense work of V^T then V.
    """
    core = _core_of(d)
    wg = core.w * g
    m = len(wg)
    h, k = m // 2, (m + 1) // 2
    Ve, Vo = core.V[0::2, :k], core.V[1::2, :h]

    def apply(X):
        e = _apply_real(Ve.T, X[0::2])
        o = _apply_real(Vo.T, X[1::2])
        v = np.empty(m, dtype=e.dtype)
        v[:k] = e
        v[:h] += o
        v[k:] = (e[:h] - o)[::-1]
        z = wg * v
        right = z[k:][::-1]
        s = z[:k].copy()
        s[:h] += right
        out = np.empty(m, dtype=z.dtype)
        out[0::2] = _apply_real(Ve, s)
        out[1::2] = _apply_real(Vo, z[:h] - right)
        return out

    return apply


def _check_coefficients(d: BasisDescriptor, X: np.ndarray):
    if X.shape != (d.size,):
        raise ValueError(f"expected {d.size} coefficients, got shape {X.shape}")


def _integrated_potential(d, V, V_ex, t_n, dt):
    """Node values of int_{t_n}^{t_n+dt} (V + V_ex)(x_s, t) dt; a non-finite one raises."""
    x = nodes_weights(d).nodes
    g = np.zeros(len(x))
    if V is not None:
        g = g + np.asarray(V(x), dtype=float) * dt
    if V_ex is not None:
        for xi, wq in zip(_GL3_NODES, _GL3_WEIGHTS):
            g = g + (wq * dt) * np.asarray(V_ex(x, t_n + xi * dt), dtype=float)
    return _check_finite(g, t_n, "potential")


def potential_apply(d: BasisDescriptor, V, V_ex, t_n, dt, X) -> np.ndarray:
    """Time-integrated potential operator times X, matrix-free.

    Returns the coefficient vector of the projection of g(x)*psi where
    g = int (V + V_ex) dt over the step; four products with the parity
    halves of the basis values, half the multiply-adds of V^T then V, no
    explicit matrix.
    """
    _require_hermite(d)
    X = np.asarray(X)
    _check_coefficients(d, X)
    if V is None and V_ex is None:
        return np.zeros_like(X)
    return _potential_operator(d, _integrated_potential(d, V, V_ex, t_n, dt))(X)


def propagate_step(psi, d: BasisDescriptor, problem: SchrodingerProblem, t_n):
    """Advance the coefficient vector by one step of size problem.dt.

    The generator is -i H with H = S dt + Vtilde, S the derivative-derivative
    matrix and Vtilde the time-integrated potential; the step is its exact
    exponential up to the series tolerance.  By Weyl's inequality the
    eigenvalues of H lie in [min g, dt * rho_S + max g], with rho_S the
    Gershgorin bound of S and g the integrated potential at the nodes.
    """
    _require_hermite(d)
    psi = np.asarray(psi, dtype=complex)
    _check_coefficients(d, psi)
    dt = problem.dt
    if problem.V is None and problem.V_ex is None:
        apply_a = lambda X: -1j * dt * stiffness_apply(d, X)
        g_lo = g_hi = 0.0
    else:
        g = _integrated_potential(d, problem.V, problem.V_ex, t_n, dt)
        apply_v = _potential_operator(d, g)
        apply_a = lambda X: -1j * (dt * stiffness_apply(d, X) + apply_v(X))
        g_lo, g_hi = g.min(), g.max()
    return expm_action(apply_a, psi, spectrum=(g_lo, dt * _stiffness_bound(d) + g_hi))


def adapt_schrodinger_run(
    problem: SchrodingerProblem,
    config: ControllerConfig,
    d0: BasisDescriptor,
    on_step=None,
):
    """Evolve psi0 from t=0 to t=T with the full adaptive loop.

    The start is psi0 sampled on d0 (`adapt._sample`: a NaN or infinite
    value raises RuntimeError at t=0).  Each step propagates, then lets the
    controllers move/rescale/reorder the space; the operator pieces follow
    the current descriptor (the stiffness bands are cached per order and
    beta).  on_step(t, u, record) is called after every step.  Returns the
    final expansion and the per-step records.
    """
    _require_hermite(d0)

    def evolve(w, t, t_next):
        psi = propagate_step(w.coefficients, w.descriptor, problem, t)
        return SpectralExpansion(w.descriptor, psi)

    u0 = _sample(problem.psi0, 0.0, d0)
    return _adaptive_march(u0, config, evolve, problem.dt, problem.T, on_step)


def gaussian_packet(x, t, zeta=0.3, k=1.0):
    """Free-particle wave packet: exact solution of i psi_t = -psi_xx.

    Gaussian of initial width set by zeta, carrier wavenumber k; the
    center travels at speed 2k while the envelope disperses.
    """
    z = zeta + 1j * t
    x = np.asarray(x, dtype=float)
    return np.exp(1j * k * (x - k * t) - (x - 2 * k * t) ** 2 / (4 * z)) / np.sqrt(z)
