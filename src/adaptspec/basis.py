"""Orthogonal bases on bounded and unbounded domains.

Provides quadrature rules, basis evaluation, coefficient transforms and
spectral differentiation for five families:

* Jacobi, Chebyshev, Legendre polynomials on [-1, 1] with Gauss-Lobatto
  grids (a single Gauss point for order 0);
* generalized Laguerre functions on [x_left, inf) with Gauss-Radau grids;
* Hermite functions on the real line with Gauss grids.

The unbounded families carry a scaling factor beta and a translation
x_left: grid nodes are x = y/beta + x_left where y is the reference grid,
and the basis functions absorb sqrt(beta) so that discrete orthonormality
is preserved under rescaling.  Nodes come from the symmetric-tridiagonal
(Golub-Welsch) eigenproblem with endpoint modifications computed from
orthonormal polynomial values, followed by one Newton polish; weights for
the function families use the Christoffel form 1/sum_k phi_k(y)^2, which
stays finite for orders in the thousands where the classical closed forms
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

__all__ = [
    "Family",
    "BasisDescriptor",
    "QuadratureRule",
    "SpectralExpansion",
    "Expansion2D",
    "MAX_ORDER",
    "nodes_weights",
    "evaluate_all",
    "norms",
    "to_coefficients",
    "to_values",
    "node_values",
    "to_coefficients_2d",
    "node_values_2d",
    "to_values_2d",
    "differentiate",
]

# Node solve is refused above this order: the eigen + polish route is
# validated to ~2500 and memory grows quadratically.
MAX_ORDER = 3000

_RESCALE = 1e130
_LOG_RESCALE = 130 * math.log(10.0)


class Family(Enum):
    JACOBI = "jacobi"
    CHEBYSHEV = "chebyshev"
    LEGENDRE = "legendre"
    LAGUERRE_FN = "laguerre_function"
    HERMITE_FN = "hermite_function"


_BOUNDED = frozenset({Family.JACOBI, Family.CHEBYSHEV, Family.LEGENDRE})


@dataclass(frozen=True)
class BasisDescriptor:
    """Identifies an approximation space.

    order N means basis functions B_0..B_N (N+1 of them).  beta > 1
    compresses the unbounded grids toward x_left, beta < 1 stretches them.
    Bounded families are pinned to the reference interval (beta = 1,
    x_left = 0).
    """

    family: Family
    order: int
    beta: float = 1.0
    x_left: float = 0.0
    jacobi_a: float = 0.0
    jacobi_b: float = 0.0
    laguerre_a: float = 0.0

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)):
            raise ValueError(f"order must be an integer, got {self.order!r}")
        object.__setattr__(self, "order", int(self.order))
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if self.order > MAX_ORDER:
            raise ValueError(
                f"order {self.order} exceeds the supported limit {MAX_ORDER}"
            )
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not np.isfinite(self.x_left):
            raise ValueError(f"x_left must be finite, got {self.x_left!r}")
        if self.family in _BOUNDED and (self.beta != 1.0 or self.x_left != 0.0):
            raise ValueError("bounded families require beta == 1 and x_left == 0")
        if self.family is Family.JACOBI and (
            self.jacobi_a <= -1.0 or self.jacobi_b <= -1.0
        ):
            raise ValueError("Jacobi exponents must be > -1")
        if self.family is Family.LAGUERRE_FN and self.laguerre_a <= -1.0:
            raise ValueError("Laguerre exponent must be > -1")

    @property
    def bounded(self) -> bool:
        return self.family in _BOUNDED

    @property
    def size(self) -> int:
        return self.order + 1


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (ascending) and weights of the grid attached to a descriptor."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SpectralExpansion:
    """Coefficients u_i of sum_i u_i B_i(x) in the space `descriptor`."""

    descriptor: BasisDescriptor
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients)
        if c.ndim != 1 or c.shape[0] != self.descriptor.size:
            raise ValueError(
                f"expected {self.descriptor.size} coefficients, got shape {c.shape}"
            )
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True)
class Expansion2D:
    """Tensor-product expansion: U[i, j] multiplies Bx_i(x) * By_j(y)."""

    descriptor_x: BasisDescriptor
    descriptor_y: BasisDescriptor
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients)
        if c.shape != (self.descriptor_x.size, self.descriptor_y.size):
            raise ValueError(
                f"expected shape {(self.descriptor_x.size, self.descriptor_y.size)},"
                f" got {c.shape}"
            )
        object.__setattr__(self, "coefficients", c)


# --------------------------------------------------------------------------
# Monic three-term recurrences (alpha_k, beta_k with beta_0 = integral of the
# weight), after Gautschi.


def _recurrence_jacobi(n: int, a: float, b: float):
    alpha = np.zeros(n)
    beta = np.zeros(n)
    apb = a + b
    alpha[0] = (b - a) / (apb + 2.0)
    beta[0] = math.exp(
        (apb + 1.0) * math.log(2.0) + gammaln(a + 1.0) + gammaln(b + 1.0) - gammaln(apb + 2.0)
    )
    if n > 1:
        k = np.arange(1, n, dtype=float)
        den = 2.0 * k + apb
        alpha[1:] = (b * b - a * a) / (den * (den + 2.0))
        beta[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
        if n > 2:
            k = k[1:]
            den = den[1:]
            beta[2:] = (
                4.0 * k * (k + a) * (k + b) * (k + apb)
                / (den * den * (den + 1.0) * (den - 1.0))
            )
    return alpha, beta


def _recurrence_laguerre(n: int, a: float):
    k = np.arange(n, dtype=float)
    alpha = 2.0 * k + a + 1.0
    beta = k * (k + a)
    beta[0] = math.exp(gammaln(a + 1.0))
    return alpha, beta


def _recurrence_hermite(n: int):
    alpha = np.zeros(n)
    beta = np.arange(n, dtype=float) / 2.0
    beta[0] = math.sqrt(math.pi)
    return alpha, beta


def _orthonormal_eval(t: float, alpha: np.ndarray, beta: np.ndarray, m: int):
    """(p_{m-1}(t), p_m(t)) for the orthonormal polynomials of the recurrence."""
    p_prev = 0.0
    p = 1.0 / math.sqrt(beta[0])
    for k in range(m):
        p_next = ((t - alpha[k]) * p - math.sqrt(beta[k]) * p_prev) / math.sqrt(beta[k + 1])
        p_prev, p = p, p_next
    return p_prev, p


def _gauss_nodes(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Jacobi matrix (the vectors are not needed)."""
    if len(alpha) == 1:
        return np.array([alpha[0]])
    return eigh_tridiagonal(alpha, np.sqrt(beta[1:]), eigvals_only=True)


def _lobatto_nodes(alpha: np.ndarray, beta: np.ndarray, lo: float, hi: float):
    """Nodes and weights of the Gauss-Lobatto rule with endpoints lo, hi.

    alpha/beta hold m+1 recurrence rows; the returned rule has m+1 points.
    The modified last diagonal/off-diagonal entries are solved from
    orthonormal polynomial values (the monic values under/overflow first).
    """
    m = len(alpha) - 1
    pl1, pl = _orthonormal_eval(lo, alpha, beta, m)
    pr1, pr = _orthonormal_eval(hi, alpha, beta, m)
    det = pl * pr1 - pr * pl1
    alpha_star = (lo * pl * pr1 - hi * pr * pl1) / det
    beta_star = (hi - lo) * pl * pr / det * math.sqrt(beta[m])
    d = alpha.copy()
    d[m] = alpha_star
    e = np.sqrt(beta[1:])
    e[m - 1] = math.sqrt(beta_star)
    vals, vecs = eigh_tridiagonal(d, e)
    w = beta[0] * vecs[0, :] ** 2
    vals[0], vals[-1] = lo, hi
    return vals, w


def _radau_alpha(alpha: np.ndarray, beta: np.ndarray, t: float):
    """Modified last diagonal entry pinning t as a node (Gauss-Radau)."""
    m = len(alpha) - 1
    p1, p = _orthonormal_eval(t, alpha, beta, m)
    return t - math.sqrt(beta[m]) * p1 / p


# --------------------------------------------------------------------------
# Basis evaluation in reference coordinates.


def _chebyshev_polys(nmax: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(1, nmax):
        out[k + 1] = 2.0 * x * out[k] - out[k - 1]
    return out


def _legendre_polys(nmax: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(1, nmax):
        out[k + 1] = ((2.0 * k + 1.0) * x * out[k] - k * out[k - 1]) / (k + 1.0)
    return out


def _jacobi_polys(nmax: int, x: np.ndarray, a: float, b: float) -> np.ndarray:
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
    for n in range(1, nmax):
        n2ab = 2.0 * n + a + b
        c1 = 2.0 * (n + 1.0) * (n + a + b + 1.0) * n2ab
        c2 = (n2ab + 1.0) * (a * a - b * b)
        c3 = n2ab * (n2ab + 1.0) * (n2ab + 2.0)
        c4 = 2.0 * (n + a) * (n + b) * (n2ab + 2.0)
        out[n + 1] = ((c2 + c3 * x) * out[n] - c4 * out[n - 1]) / c1
    return out


def _scaled_function_recurrence(alpha, beta, nmax, y, log_env, orient=1.0):
    """Orthonormal-polynomial recurrence times an exponential envelope.

    Returns rows f_k(y) = p_k(y) * exp(log_env(y)), k = 0..nmax, evaluated
    stably: the polynomial part is rescaled whenever it exceeds 1e130 and
    the deficit is folded into the envelope exponent, so columns where the
    true function is O(1) never pass through a denormal intermediate.
    orient = -1 selects the classical Laguerre sign convention
    (f_k = (-1)^k p_k, i.e. positive at the left endpoint).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty((nmax + 1, y.size))
    s = log_env.copy()
    v_prev = np.zeros_like(y)
    v = np.full_like(y, 1.0 / math.sqrt(beta[0]))
    v_next = np.empty_like(y)
    mag = np.empty_like(y)
    env = np.exp(s)  # refreshed only in the columns a rescale touched
    np.multiply(v, env, out=out[0])
    for k in range(nmax):
        # v_next = (orient * (y - alpha[k]) * v - sqrt(beta[k]) * v_prev) / sqrt(beta[k+1]),
        # in that operation order, in preallocated buffers
        np.subtract(y, alpha[k], out=v_next)
        if orient != 1.0:
            v_next *= orient
        v_next *= v
        v_prev *= math.sqrt(beta[k])
        v_next -= v_prev
        v_next /= math.sqrt(beta[k + 1])
        v_prev, v, v_next = v, v_next, v_prev
        # "not <=" also lets a NaN column through to the mask, as ">" per column would
        if not np.abs(v, out=mag).max() <= _RESCALE:
            big = mag > _RESCALE
            np.divide(v, _RESCALE, out=v, where=big)
            np.divide(v_prev, _RESCALE, out=v_prev, where=big)
            np.add(s, _LOG_RESCALE, out=s, where=big)
            np.exp(s, out=env, where=big)
        np.multiply(v, env, out=out[k + 1])
    return out


def _hermite_functions(nmax: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_k(y), unit weight on the line."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    alpha, beta = _recurrence_hermite(nmax + 2)
    return _scaled_function_recurrence(alpha, beta, nmax, y, -0.5 * y * y)


def _laguerre_functions(nmax: int, y: np.ndarray, a: float) -> np.ndarray:
    """Orthonormal Laguerre functions l_k(y), weight y^a on the half line."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    alpha, beta = _recurrence_laguerre(nmax + 2, a)
    return _scaled_function_recurrence(alpha, beta, nmax, y, -0.5 * y, orient=-1.0)


def _polish_newton(y, ratio_fn):
    """One Newton step y -= f/f' with the ratio supplied in one piece."""
    return y - ratio_fn(y)


def _hermite_newton_ratio(nroot: int):
    # root function: h_{nroot}; h' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1};
    # the shared envelope cancels, so the plain polynomial parts may be used
    # ... except they overflow, so reuse the rescaled recurrence (ratios of
    # rows at a common column share the column's scale).
    def ratio(y):
        h = _hermite_functions(nroot + 1, y)
        deriv = math.sqrt(nroot / 2.0) * h[nroot - 1] - math.sqrt((nroot + 1) / 2.0) * h[nroot + 1]
        return h[nroot] / deriv

    return ratio


def _laguerre_newton_ratio(nroot: int, a: float):
    # Interior Radau nodes are roots of the degree-nroot Laguerre(a+1)
    # polynomial; work in function form l = p * exp(-y/2), whose derivative
    # is (p' - p/2)exp(-y/2): Newton ratio l/l' = p/(p' - p/2) needs the
    # polynomial and its derivative at a common scale.
    alpha, beta = _recurrence_laguerre(nroot + 1, a + 1.0)

    def ratio(y):
        y = np.atleast_1d(y)
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
            if big.any():
                for arr in (v, v_prev, d, d_prev):
                    arr[big] /= _RESCALE
        return v / (d - 0.5 * v)

    return ratio


def _jacobi_newton_ratio(nroot: int, a: float, b: float):
    # Interior Lobatto nodes: roots of the degree-nroot Jacobi(a+1, b+1)
    # orthonormal polynomial.  Bounded arguments, no rescaling needed.
    alpha, beta = _recurrence_jacobi(nroot + 1, a + 1.0, b + 1.0)

    def ratio(y):
        y = np.atleast_1d(y)
        v_prev = np.zeros_like(y)
        v = np.full_like(y, 1.0 / math.sqrt(beta[0]))
        d_prev = np.zeros_like(y)
        d = np.zeros_like(y)
        for k in range(nroot):
            rb = math.sqrt(beta[k + 1])
            v_next = ((y - alpha[k]) * v - math.sqrt(beta[k]) * v_prev) / rb
            d_next = (v + (y - alpha[k]) * d - math.sqrt(beta[k]) * d_prev) / rb
            v_prev, v, d_prev, d = v, v_next, d, d_next
        return v / d

    return ratio


# --------------------------------------------------------------------------
# Reference (beta-independent) rules, cached per family/order/exponents.


@dataclass(frozen=True)
class _CoreRule:
    y: np.ndarray        # reference nodes, ascending
    w: np.ndarray        # reference weights
    V: np.ndarray        # V[i, s] = phi_i(y_s)
    gamma: np.ndarray    # continuous squared norms of phi_i
    gamma_hat: np.ndarray  # discrete squared norms under (y, w)


@lru_cache(maxsize=256)
def _core(family: Family, order: int, a: float, b: float) -> _CoreRule:
    n = order
    if family is Family.CHEBYSHEV:
        if n == 0:
            y = np.array([0.0])
            w = np.array([math.pi])
        else:
            j = np.arange(n + 1)
            y = -np.cos(math.pi * j / n)
            y[0], y[-1] = -1.0, 1.0
            if n % 2 == 0:
                y[n // 2] = 0.0
            w = np.full(n + 1, math.pi / n)
            w[0] *= 0.5
            w[-1] *= 0.5
        V = _chebyshev_polys(n, y)
        gamma = np.full(n + 1, math.pi / 2.0)
        gamma[0] = math.pi
    elif family in (Family.LEGENDRE, Family.JACOBI):
        if family is Family.LEGENDRE:
            a = b = 0.0
        alpha, beta = _recurrence_jacobi(n + 1, a, b)
        if n == 0:
            y = np.array([alpha[0]])
            w = np.array([beta[0]])
        else:
            y, w = _lobatto_nodes(alpha, beta, -1.0, 1.0)
            if n > 1:
                ratio = _jacobi_newton_ratio(n - 1, a, b)
                y[1:-1] = _polish_newton(y[1:-1], ratio)
        if family is Family.LEGENDRE:
            V = _legendre_polys(n, y)
            i = np.arange(n + 1, dtype=float)
            gamma = 2.0 / (2.0 * i + 1.0)
        else:
            V = _jacobi_polys(n, y, a, b)
            i = np.arange(n + 1, dtype=float)
            logg = (
                (a + b + 1.0) * math.log(2.0)
                + gammaln(i + a + 1.0)
                + gammaln(i + b + 1.0)
                - gammaln(i + 1.0)
                - gammaln(i + a + b + 1.0)
            )
            den = 2.0 * i + a + b + 1.0
            den[0] = 1.0  # i = 0 uses beta[0] directly (den may vanish at a+b=-1)
            gamma = np.exp(logg) / den
            gamma[0] = beta[0]
    elif family is Family.HERMITE_FN:
        alpha, beta = _recurrence_hermite(n + 1)
        y = _gauss_nodes(alpha, beta)
        if n >= 1:
            ratio = _hermite_newton_ratio(n + 1)
            y = _polish_newton(y, ratio)
            y = 0.5 * (y - y[::-1])  # enforce the exact symmetry of the grid
        V = _hermite_functions(n, y)
        w = 1.0 / np.sum(V * V, axis=0)
        gamma = np.ones(n + 1)
    elif family is Family.LAGUERRE_FN:
        alpha, beta = _recurrence_laguerre(n + 1, a)
        alpha = alpha.copy()
        alpha[n] = _radau_alpha(alpha, beta, 0.0) if n >= 1 else a + 1.0
        if n == 0:
            # single Radau node pinned at the left endpoint
            y = np.array([0.0])
        else:
            y = _gauss_nodes(alpha, beta)
            y[0] = 0.0
            ratio = _laguerre_newton_ratio(n, a)
            y[1:] = _polish_newton(y[1:], ratio)
        V = _laguerre_functions(n, y, a)
        w = 1.0 / np.sum(V * V, axis=0)
        gamma = np.ones(n + 1)
    else:  # pragma: no cover
        raise ValueError(f"unknown family {family!r}")

    gamma_hat = (V * V) @ w
    for arr in (y, w, V, gamma, gamma_hat):
        arr.setflags(write=False)
    return _CoreRule(y=y, w=w, V=V, gamma=gamma, gamma_hat=gamma_hat)


def _core_of(d: BasisDescriptor) -> _CoreRule:
    if d.family is Family.JACOBI:
        return _core(d.family, d.order, float(d.jacobi_a), float(d.jacobi_b))
    if d.family is Family.LAGUERRE_FN:
        return _core(d.family, d.order, float(d.laguerre_a), 0.0)
    return _core(d.family, d.order, 0.0, 0.0)


# --------------------------------------------------------------------------
# Public operations.


def nodes_weights(d: BasisDescriptor) -> QuadratureRule:
    """Grid of the space: exact for discrete inner products of the basis.

    Bounded families: Gauss-Lobatto (plain Gauss at order 0).  Laguerre:
    Gauss-Radau with the left endpoint included, mapped to [x_left, inf).
    Hermite: Gauss, mapped by x = y/beta + x_left.
    """
    core = _core_of(d)
    if d.bounded:
        return QuadratureRule(nodes=core.y, weights=core.w)
    nodes = core.y / d.beta + d.x_left
    weights = core.w / d.beta
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def evaluate_all(d: BasisDescriptor, x) -> np.ndarray:
    """Values B_i(x), shape (order+1, len(x)).  Scalar x is promoted."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if d.family is Family.CHEBYSHEV:
        _check_bounded_domain(x)
        return _chebyshev_polys(d.order, x)
    if d.family is Family.LEGENDRE:
        _check_bounded_domain(x)
        return _legendre_polys(d.order, x)
    if d.family is Family.JACOBI:
        _check_bounded_domain(x)
        return _jacobi_polys(d.order, x, d.jacobi_a, d.jacobi_b)
    y = d.beta * (x - d.x_left)
    if d.family is Family.HERMITE_FN:
        return math.sqrt(d.beta) * _hermite_functions(d.order, y)
    if (y < -1e-9).any():
        raise ValueError("evaluation point below x_left for a half-line basis")
    return math.sqrt(d.beta) * _laguerre_functions(d.order, np.maximum(y, 0.0), d.laguerre_a)


def _check_bounded_domain(x: np.ndarray):
    if (np.abs(x) > 1.0 + 1e-12).any():
        raise ValueError("evaluation point outside [-1, 1] for a bounded basis")


def norms(d: BasisDescriptor) -> np.ndarray:
    """Continuous weighted squared norms of the basis functions.

    The function families are orthonormal for every beta (ones, with no
    grid built); the polynomial families return the classical constants.
    """
    if not d.bounded:
        return np.ones(d.size)
    return _core_of(d).gamma


def _frame(d: BasisDescriptor) -> tuple:
    """d without its translation, as a plain tuple (a cheap cache key)."""
    return (d.family, d.order, d.beta, d.jacobi_a, d.jacobi_b, d.laguerre_a)


def _at(frame: tuple, x_left: float) -> BasisDescriptor:
    """The descriptor of a frame placed at x_left."""
    family, order, beta, jacobi_a, jacobi_b, laguerre_a = frame
    return BasisDescriptor(family, order, beta, x_left, jacobi_a, jacobi_b, laguerre_a)


@lru_cache(maxsize=256)
def _transform_matrix(frame: tuple) -> np.ndarray:
    """T with u = T @ values: row i is w_s B_i(x_s) / gamma_hat_i.

    T depends on the core rule and beta only, so it is keyed on the frame
    (through _transform_of) and translated grids share one entry.
    """
    d = _at(frame, 0.0)
    core = _core_of(d)
    T = core.V * core.w / core.gamma_hat[:, None]
    if not d.bounded:
        # (w/beta) * (sqrt(beta) V) / gamma_hat = V * w / (sqrt(beta) gamma_hat)
        T = T / math.sqrt(d.beta)
    T.setflags(write=False)
    return T


def _transform_of(d: BasisDescriptor) -> np.ndarray:
    return _transform_matrix(_frame(d))


# Operator caches hold at most this many matrix entries per matrix; larger
# operators (N=2500-scale pairs, the order-600 exterior panels) are rebuilt
# on every call rather than kept resident.
_CACHE_ENTRY_LIMIT = 2_000_000


def _cross_matrix_build(frame_from: tuple, frame_to: tuple, shift: float) -> np.ndarray:
    return evaluate_all(_at(frame_from, 0.0), nodes_weights(_at(frame_to, shift)).nodes)


@lru_cache(maxsize=24)
def _cross_matrix_cached(frame_from: tuple, frame_to: tuple, shift: float) -> np.ndarray:
    B = _cross_matrix_build(frame_from, frame_to, shift)
    B.setflags(write=False)
    return B


def _cross_matrix(d_from: BasisDescriptor, d_to: BasisDescriptor) -> np.ndarray:
    """B[i, s] = B_i(x_s) for the basis of d_from on the grid of d_to.

    The bases depend on x_left only through differences, so the matrix is
    built with d_from at x_left = 0 and d_to shifted by the difference, and
    cached on that shift: translations by a fixed step share one entry.
    """
    key = (_frame(d_from), _frame(d_to), d_to.x_left - d_from.x_left)
    if d_from.size * d_to.size <= _CACHE_ENTRY_LIMIT:
        return _cross_matrix_cached(*key)
    return _cross_matrix_build(*key)


def _values_matrix(d: BasisDescriptor) -> np.ndarray:
    """B[i, s] = B_i(x_s) on the space's own grid."""
    core = _core_of(d)
    if d.bounded:
        return core.V
    return math.sqrt(d.beta) * core.V


def _apply_real(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A @ c for a real matrix A and a real or complex vector c.

    numpy would cast A to complex for a complex c; viewing c as an (n, 2)
    real array instead runs one two-column real product, with no complex
    copy of A.  Real c passes straight through.
    """
    if not np.iscomplexobj(c):
        return A @ c
    c = np.ascontiguousarray(c, dtype=complex)
    return (A @ c.view(float).reshape(-1, 2)).view(complex).ravel()


def to_coefficients(values, d: BasisDescriptor) -> SpectralExpansion:
    """Interpolate grid values: exact round trip with node_values."""
    values = np.asarray(values)
    if values.shape != (d.size,):
        raise ValueError(f"expected {d.size} grid values, got shape {values.shape}")
    return SpectralExpansion(d, _apply_real(_transform_of(d), values))


def node_values(u: SpectralExpansion) -> np.ndarray:
    """Values of the expansion on its own grid (two-matvec path)."""
    return _apply_real(_values_matrix(u.descriptor).T, u.coefficients)


def to_values(u: SpectralExpansion, x) -> np.ndarray:
    """Evaluate the expansion at arbitrary points."""
    return _apply_real(evaluate_all(u.descriptor, x).T, u.coefficients)


def to_coefficients_2d(values, dx: BasisDescriptor, dy: BasisDescriptor) -> Expansion2D:
    values = np.asarray(values)
    if values.shape != (dx.size, dy.size):
        raise ValueError(f"expected shape {(dx.size, dy.size)}, got {values.shape}")
    U = _transform_of(dx) @ values @ _transform_of(dy).T
    return Expansion2D(dx, dy, U)


def node_values_2d(u: Expansion2D) -> np.ndarray:
    return _values_matrix(u.descriptor_x).T @ u.coefficients @ _values_matrix(u.descriptor_y)


def to_values_2d(u: Expansion2D, x, y) -> np.ndarray:
    return (
        evaluate_all(u.descriptor_x, x).T
        @ u.coefficients
        @ evaluate_all(u.descriptor_y, y)
    )


# --------------------------------------------------------------------------
# Differentiation.


def differentiate(u: SpectralExpansion) -> SpectralExpansion:
    """Expansion of du/dx.

    Chebyshev/Legendre/Hermite use exact coefficient recurrences (the
    Hermite result has order N+1: differentiation couples upward).  Jacobi
    and Laguerre differentiate the recurrence at the grid nodes and
    re-interpolate, which is exact because the derivative stays in a space
    the same grid resolves (degree N polynomials; p(x)e^{-y/2} with
    deg p <= N).
    """
    d = u.descriptor
    n = d.order
    a = np.asarray(u.coefficients, dtype=np.result_type(u.coefficients.dtype, np.float64))

    if d.family is Family.CHEBYSHEV:
        b = np.zeros(n + 1, dtype=a.dtype)
        if n >= 1:
            b[n - 1] = 2.0 * n * a[n]
            for k in range(n - 2, 0, -1):
                b[k] = b[k + 2] + 2.0 * (k + 1.0) * a[k + 1]
            b[0] = a[1] + (0.5 * b[2] if n >= 2 else 0.0)
        return SpectralExpansion(d, b)

    if d.family is Family.LEGENDRE:
        b = np.zeros(n + 1, dtype=a.dtype)
        c_kp1 = 0.0
        c_kp2 = 0.0
        for k in range(n - 1, -1, -1):
            c_k = a[k + 1] + c_kp2
            b[k] = (2.0 * k + 1.0) * c_k
            c_kp2, c_kp1 = c_kp1, c_k
        return SpectralExpansion(d, b)

    if d.family is Family.HERMITE_FN:
        return SpectralExpansion(replace(d, order=n + 1), _hermite_derivative(a, d.beta))

    if d.family is Family.JACOBI:
        return to_coefficients(_deriv_values_jacobi(d, a), d)

    # Laguerre functions
    return to_coefficients(_deriv_values_laguerre(d, a), d)


def _hermite_derivative(a: np.ndarray, beta: float) -> np.ndarray:
    """Order-(N+1) Hermite coefficients of the derivative of an order-N expansion.

    h_m' = beta (sqrt(m/2) h_{m-1} - sqrt((m+1)/2) h_{m+1}).  No descriptor
    is built, so this also serves expansions at MAX_ORDER.
    """
    n = a.size - 1
    b = np.zeros(n + 2, dtype=np.result_type(a.dtype, float))
    b[1:] -= beta * np.sqrt(np.arange(1, n + 2) / 2.0) * a
    b[:n] += beta * np.sqrt(np.arange(1, n + 1) / 2.0) * a[1:]
    return b


def _deriv_values_jacobi(d: BasisDescriptor, a: np.ndarray) -> np.ndarray:
    """d/dx of the expansion at the grid nodes via the derivative recurrence."""
    core = _core_of(d)
    x = core.y
    n = d.order
    aa, bb = d.jacobi_a, d.jacobi_b
    P = core.V
    dP = np.zeros_like(P)
    if n >= 1:
        dP[1] = 0.5 * (aa + bb + 2.0)
    for m in range(1, n):
        n2ab = 2.0 * m + aa + bb
        c1 = 2.0 * (m + 1.0) * (m + aa + bb + 1.0) * n2ab
        c2 = (n2ab + 1.0) * (aa * aa - bb * bb)
        c3 = n2ab * (n2ab + 1.0) * (n2ab + 2.0)
        c4 = 2.0 * (m + aa) * (m + bb) * (n2ab + 2.0)
        dP[m + 1] = ((c2 + c3 * x) * dP[m] + c3 * P[m] - c4 * dP[m - 1]) / c1
    return dP.T @ a


def _deriv_values_laguerre(d: BasisDescriptor, a: np.ndarray) -> np.ndarray:
    """d/dx of the expansion at the grid nodes (chain rule included)."""
    if d.size * d.size <= _CACHE_ENTRY_LIMIT:
        dphi = _laguerre_deriv_rows(d.order, float(d.laguerre_a))
    else:
        dphi = _laguerre_function_derivs(d.order, _core_of(d).y, d.laguerre_a)
    return (d.beta * math.sqrt(d.beta)) * (dphi.T @ a)


@lru_cache(maxsize=2)
def _laguerre_deriv_rows(order: int, a: float) -> np.ndarray:
    """Derivative rows on the reference Radau grid; beta enters as a factor."""
    dphi = _laguerre_function_derivs(order, _core(Family.LAGUERRE_FN, order, a, 0.0).y, a)
    dphi.setflags(write=False)
    return dphi


def _laguerre_function_derivs(nmax: int, y: np.ndarray, a: float) -> np.ndarray:
    """Rows l_k'(y): derivative of the orthonormal Laguerre functions."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
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
