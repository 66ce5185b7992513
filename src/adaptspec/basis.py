"""Orthogonal bases on bounded and unbounded domains.

Provides quadrature rules, basis evaluation, coefficient transforms and
spectral differentiation for four families:

* Chebyshev and Legendre polynomials on [-1, 1] with Gauss-Lobatto grids
  (a single Gauss point for order 0);
* Laguerre functions (exponent 0) on [x_left, inf) with Gauss-Radau grids;
* Hermite functions on the real line with Gauss grids.

The unbounded families carry a scaling factor beta and a translation
x_left: grid nodes are x = y/beta + x_left where y is the reference grid,
and the basis functions absorb sqrt(beta) so that discrete orthonormality
is preserved under rescaling.  Nodes are the eigenvalues of a symmetric
tridiagonal (Golub-Welsch) matrix, the Gauss nodes of a monic recurrence,
beside the fixed endpoints of the Lobatto and Radau rules: the Legendre-Lobatto
interior nodes are the Jacobi(1, 1) Gauss nodes, the roots of P_n'.  The
Legendre weights are the closed form 2/(n(n+1) P_n(y)^2); the function
families use the Christoffel form 1/sum_k phi_k(y)^2, which stays finite for
orders in the thousands where the classical closed forms overflow.

Every family obeys one three-term recurrence (Gautschi),

    p_{k+1} = ((A_k x + B_k) p_k - C_k p_{k-1}) / D_k,

and one engine (_recurrence) evaluates it from a small coefficient table
per family: the classical Chebyshev and Legendre polynomials, and the
orthonormal polynomials of a monic recurrence, which give the Hermite and
Laguerre functions under an exponential envelope (the polynomial part is
divided by 1e130 wherever it exceeds that, and the envelope makes up the
difference; a running bound skips tests that cannot fire).  One Newton
step polishes every rule's nodes, with p_m' from a classical identity in the
top two rows of its table (Szego), and the Hermite and Legendre grids are then
mirrored bit for bit, so an even order's centre node is exactly 0.  Every
family differentiates in coefficient space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat

import numpy as np
from scipy.linalg import eigh_tridiagonal

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

# Node solve is refused above this order; memory grows quadratically.
# Hermite, Laguerre, Legendre and Chebyshev have finite weights and a
# sampled normalized Gram defect <= 4e-13 at N=2500 and at N=3000.
MAX_ORDER = 3000

_RESCALE = 1e130
_LOG_RESCALE = 130 * math.log(10.0)


class Family(Enum):
    CHEBYSHEV = "chebyshev"
    LEGENDRE = "legendre"
    LAGUERRE_FN = "laguerre_function"
    HERMITE_FN = "hermite_function"

    # members are singletons: hash by identity in C, not Enum's Python-level
    # hash of the name, since every lru_cache key holds a Family
    __hash__ = object.__hash__


_BOUNDED = frozenset({Family.CHEBYSHEV, Family.LEGENDRE})


@dataclass(frozen=True)
class BasisDescriptor:
    """Identifies an approximation space.

    order N means basis functions B_0..B_N (N+1 of them).  beta > 1
    compresses the unbounded grids toward x_left, beta < 1 stretches them.
    Bounded families are pinned to the reference interval (beta = 1,
    x_left = 0).  No family takes a weight exponent: Laguerre functions have
    exponent 0, and the Legendre weight is 1.
    """

    family: Family
    order: int
    beta: float = 1.0
    x_left: float = 0.0

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
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not math.isfinite(self.x_left):
            raise ValueError(f"x_left must be finite, got {self.x_left!r}")
        if self.family in _BOUNDED and (self.beta != 1.0 or self.x_left != 0.0):
            raise ValueError("bounded families require beta == 1 and x_left == 0")

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


def _on_grid(f, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f(X, Y) on the open grids of node vectors x and y, broadcast to (x.size, y.size)."""
    X, Y = np.meshgrid(x, y, indexing="ij", sparse=True)
    return np.broadcast_to(f(X, Y), (x.size, y.size))


# --------------------------------------------------------------------------
# Monic three-term recurrences (alpha_k, beta_k with beta_0 = integral of the
# weight), after Gautschi.


# The Legendre-Lobatto rule reads it at (1, 1): its Gauss nodes are the roots of P_n'.
def _recurrence_jacobi(n: int, a: float, b: float):
    alpha = np.zeros(n)
    beta = np.zeros(n)
    apb = a + b
    alpha[0] = (b - a) / (apb + 2.0)
    log_ratio = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(apb + 2.0)
    beta[0] = math.exp((apb + 1.0) * math.log(2.0) + log_ratio)
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
    beta[0] = math.exp(math.lgamma(a + 1.0))
    return alpha, beta


def _recurrence_hermite(n: int):
    alpha = np.zeros(n)
    beta = np.arange(n, dtype=float) / 2.0
    beta[0] = math.sqrt(math.pi)
    return alpha, beta


# --------------------------------------------------------------------------
# One three-term recurrence for every family.  A table (A, B, C, D, p0)
# defines rows p_0 = p0, p_{-1} = 0 and
#     p_{k+1} = ((A_k x + B_k) p_k - C_k p_{k-1}) / D_k.


def _orthonormal_table(alpha: np.ndarray, beta: np.ndarray):
    """Table of the orthonormal polynomials of a monic recurrence, degrees 0..n.

    p_{k+1} = ((x - alpha_k) p_k - sqrt(beta_k) p_{k-1}) / sqrt(beta_{k+1})
    with n = len(alpha) - 1.
    """
    n = len(alpha) - 1
    r = np.sqrt(beta[: n + 1])
    return np.ones(n), -alpha[:n], r[:n], r[1:], 1.0 / r[0]


def _family_table(family: Family, n: int):
    """Table of the reference basis rows 0..n of a family."""
    k = np.arange(n, dtype=float)
    if family is Family.CHEBYSHEV:
        # T_1 = x, T_{k+1} = 2x T_k - T_{k-1}
        return np.where(k == 0, 1.0, 2.0), np.zeros(n), np.ones(n), np.ones(n), 1.0
    if family is Family.LEGENDRE:
        # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
        return 2.0 * k + 1.0, np.zeros(n), k, k + 1.0, 1.0
    if family is Family.HERMITE_FN:
        return _orthonormal_table(*_recurrence_hermite(n + 1))
    # (k+1) L_{k+1} = (2k+1 - x) L_k - k L_{k-1}: orthonormal, positive at 0
    return -np.ones(n), 2.0 * k + 1.0, k, k + 1.0, 1.0


def _recurrence(table, x: np.ndarray, log_env=None):
    """Yield (p_k, env) for k = 0..n, one row at a time.

    With log_env the rows are divided by 1e130 wherever they exceed it and
    the deficit is folded into the exponent, so p_k * env is the row times
    exp(log_env) and columns where that value is O(1) never pass through a
    denormal intermediate; env is None without log_env.  The yielded arrays
    are working buffers: p_k is valid until the generator advances, and
    then holds p_{k-1} at the scale of the new row (a rescale divides both)
    until it advances again.

    max|p_k| is measured for that test only once a running bound on it,
    M_{k+1} = ((|A_k| max|x| + |B_k|) M_k + |C_k| M_{k-1}) / |D_k|, reaches
    half the threshold (the half absorbs rounding): a skipped test could not
    fire, so the rows are bit for bit those of a test on every row.
    """
    A, B, C, D, p0 = table
    p_prev, p = np.zeros_like(x), np.full_like(x, p0)
    p_next, buf = np.empty_like(x), np.empty_like(x)
    env = None
    grow = carry = repeat(None)  # per-row factors of the running bound, with log_env
    if log_env is not None:
        s = log_env.copy()
        env = np.exp(s)  # refreshed only in the columns a rescale touched
        mag = np.empty_like(x)
        xmax = float(np.abs(x).max(initial=0.0))
        grow = ((np.abs(A) * xmax + np.abs(B)) / np.abs(D)).tolist()
        carry = (np.abs(C) / np.abs(D)).tolist()
        bound, bound_prev = float(np.abs(p).max(initial=0.0)), 0.0
    yield p, env
    for a, b, c, dk, g, h in zip(A.tolist(), B.tolist(), C.tolist(), D.tolist(), grow, carry):
        # in this operation order, in preallocated buffers (ufunc calls with
        # out=: in-place operators with a float operand cost more per call);
        # factors of one and terms of zero are skipped (exact either way)
        if a == 1.0:
            xb = np.add(x, b, out=buf) if b else x
        else:
            xb = np.multiply(x, a, out=buf)
            if b:
                np.add(xb, b, out=xb)
        np.multiply(xb, p, out=p_next)
        if c != 1.0:
            np.multiply(p_prev, c, out=p_prev)
        np.subtract(p_next, p_prev, out=p_next)
        if dk != 1.0:
            np.divide(p_next, dk, out=p_next)
        p_prev, p, p_next = p, p_next, p_prev
        if env is not None:
            bound, bound_prev = g * bound + h * bound_prev, bound
            # "not <" and "not <=" let a NaN through to the test and the mask
            if not bound < 0.5 * _RESCALE:
                bound = float(np.abs(p, out=mag).max())
                if not bound <= _RESCALE:
                    big = mag > _RESCALE
                    np.divide(p, _RESCALE, out=p, where=big)
                    np.divide(p_prev, _RESCALE, out=p_prev, where=big)
                    np.add(s, _LOG_RESCALE, out=s, where=big)
                    np.exp(s, out=env, where=big)
                    bound = float(np.abs(p, out=mag).max())
                    bound_prev = float(np.abs(p_prev, out=mag).max())
        yield p, env


def _rows(table, x: np.ndarray, log_env=None) -> np.ndarray:
    """All rows of a table at x, times the envelope when one is given."""
    out = np.empty((len(table[0]) + 1, x.size))
    for k, (p, env) in enumerate(_recurrence(table, x, log_env)):
        if env is None:
            out[k] = p
        else:
            np.multiply(p, env, out=out[k])
    return out


def _basis_rows(family: Family, n: int, y: np.ndarray):
    """Reference basis values B_k(y), k = 0..n (no sqrt(beta) factor)."""
    log_env = None  # the exponent of the function families' envelope
    if family is Family.HERMITE_FN:
        log_env = -0.5 * y * y
    elif family is Family.LAGUERRE_FN:
        log_env = -0.5 * y
    return _rows(_family_table(family, n), y, log_env)


def _top_rows(table, x: np.ndarray, log_env=None):
    """(p_{m-1}, p_m), the top two rows of a table at x, at a common scale per
    column: all a Newton step p_m / p_m' reads, with p_m' from an identity in them."""
    q = p = None
    for row, _ in _recurrence(table, x, log_env):
        q, p = p, row  # the previous row's buffer now holds p_{k-1} at p_k's scale
    return q, p


def _gauss_nodes(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Jacobi matrix (the vectors are not needed)."""
    return eigh_tridiagonal(alpha, np.sqrt(beta[1:]), eigvals_only=True)


# --------------------------------------------------------------------------
# Reference (beta-independent) rules, cached per family and order.


@dataclass(frozen=True)
class _CoreRule:
    y: np.ndarray        # reference nodes, ascending
    w: np.ndarray        # reference weights
    V: np.ndarray        # V[i, s] = phi_i(y_s)
    gamma: np.ndarray    # continuous squared norms of phi_i
    gamma_hat: np.ndarray  # discrete squared norms under (y, w)


@lru_cache(maxsize=256)
def _core(family: Family, order: int) -> _CoreRule:
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
        gamma = np.full(n + 1, math.pi / 2.0)
        gamma[0] = math.pi
    elif family is Family.LEGENDRE:
        if n == 0:
            y = np.array([0.0])
            w = np.array([2.0])
        else:
            # Lobatto: the endpoints, then the roots of P_n', which are the Gauss
            # nodes of the degree m = n-1 Jacobi(1, 1) polynomial (Szego)
            y = np.empty(n + 1)
            y[0], y[-1] = -1.0, 1.0
            if n > 1:
                alpha, beta = _recurrence_jacobi(n, 1.0, 1.0)
                x, m = _gauss_nodes(alpha[:-1], beta[:-1]), n - 1
                # Newton on p_m, with (1-x^2) p_m' = -m x p_m + (2m+3) sqrt(beta_m) p_{m-1}
                table = _orthonormal_table(alpha, beta)
                q, p = _top_rows(table, x)
                y[1:-1] = x - (1.0 - x * x) * p / (-m * x * p + (2 * m + 3) * table[3][-1] * q)
            y = 0.5 * (y - y[::-1])  # enforce the exact symmetry of the grid
        gamma = 2.0 / (2.0 * np.arange(n + 1, dtype=float) + 1.0)
    elif family is Family.HERMITE_FN:
        alpha, beta = _recurrence_hermite(n + 1)
        y = _gauss_nodes(alpha, beta)
        if n >= 1:
            # Newton on h_m, m = n+1, with h_m' = -y h_m + sqrt(2m) h_{m-1}
            q, p = _top_rows(_family_table(family, n + 1), y, -0.5 * y * y)
            y = y - p / (math.sqrt(2.0 * (n + 1)) * q - y * p)
            y = 0.5 * (y - y[::-1])  # enforce the exact symmetry of the grid
    else:  # Family.LAGUERRE_FN
        # Radau: the left endpoint, then the roots of the degree-n Laguerre(1)
        # polynomial, which are the Gauss nodes of its weight (Golub 1973)
        y = np.zeros(n + 1)
        if n >= 1:
            y[1:] = _gauss_nodes(*_recurrence_laguerre(n, 1.0))
            # Newton on the degree-n Laguerre(1) function p e^{-y/2}, with
            # y p' = n p + sqrt(beta_n) p_{n-1}: step y p / (y p' - y p / 2)
            table = _orthonormal_table(*_recurrence_laguerre(n + 1, 1.0))
            x = y[1:]
            q, p = _top_rows(table, x, -0.5 * x)
            y[1:] = x - x * p / (n * p + table[3][-1] * q - 0.5 * x * p)

    V = _basis_rows(family, n, y)
    V2 = V * V
    if family is Family.LEGENDRE and n >= 1:
        w = 2.0 / (n * (n + 1) * V2[n])  # the closed form 2 / (n (n+1) P_n(y)^2)
    elif family not in _BOUNDED:
        with np.errstate(divide="ignore", over="ignore"):
            w = 1.0 / np.sum(V2, axis=0)
        if not np.isfinite(w).all():
            # sum V^2 underflows at the outer nodes
            raise ValueError(f"{family.value} rule of order {n} has non-finite weights")
        gamma = np.ones(n + 1)
    gamma_hat = V2 @ w
    for arr in (y, w, V, gamma, gamma_hat):
        arr.setflags(write=False)
    return _CoreRule(y=y, w=w, V=V, gamma=gamma, gamma_hat=gamma_hat)


def _core_of(d: BasisDescriptor) -> _CoreRule:
    return _core(d.family, d.order)


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
    """Values B_i(x), shape (order+1, len(x)).  Scalar x is promoted; NaN or inf is refused."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"evaluation point {i} is not finite: {float(x.flat[i])!r}")
    if d.bounded:
        _check_bounded_domain(x)
        return _basis_rows(d.family, d.order, x)
    y = d.beta * (x - d.x_left)
    if d.family is Family.LAGUERRE_FN:
        if (y < -1e-9).any():
            raise ValueError("evaluation point below x_left for a half-line basis")
        y = np.maximum(y, 0.0)
    return math.sqrt(d.beta) * _basis_rows(d.family, d.order, y)


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
    return (d.family, d.order, d.beta)


def _at(frame: tuple, x_left: float) -> BasisDescriptor:
    """The descriptor of a frame placed at x_left."""
    family, order, beta = frame
    return BasisDescriptor(family, order, beta, x_left)


def _with_order(d: BasisDescriptor, order: int) -> BasisDescriptor:
    """replace(d, order=order), without dataclasses.replace's walk over the fields."""
    return BasisDescriptor(d.family, order, d.beta, d.x_left)


@lru_cache(maxsize=256)
def _transform_matrix(family: Family, order: int) -> np.ndarray:
    """T with u = T @ values on the reference rule: row i is w_s phi_i(y_s) / gamma_hat_i.

    Keyed like _core.  A scaled and shifted grid has basis values
    sqrt(beta) V and weights w/beta, so its transform is T / sqrt(beta):
    to_coefficients applies that factor, and every beta and x_left of one
    family and order shares this entry.
    """
    core = _core(family, order)
    T = core.V * core.w / core.gamma_hat[:, None]
    T.setflags(write=False)
    return T


def _transform_of(d: BasisDescriptor) -> np.ndarray:
    return _transform_matrix(d.family, d.order)


# The cross-matrix cache holds at most this many entries per matrix; larger
# pairs (N=2500 scale) are rebuilt on every call rather than kept resident.
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
    A bounded basis on the grid of its own family at the same or a higher
    order is the top rows of that space's core V, bit for bit (row k of
    the recurrence depends on rows k-1 and k-2 only), so it is neither
    built nor cached.  The unbounded grids y/beta + x_left do
    not map back to y exactly, so they take no such shortcut.
    """
    if d_from.bounded and d_from.family is d_to.family and d_from.order <= d_to.order:
        V = _core_of(d_to).V
        return V if d_from.order == d_to.order else V[: d_from.size]
    key = (_frame(d_from), _frame(d_to), d_to.x_left - d_from.x_left)
    if d_from.size * d_to.size <= _CACHE_ENTRY_LIMIT:
        return _cross_matrix_cached(*key)
    return _cross_matrix_build(*key)


def _apply_real(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A @ c for a real matrix A and a real or complex vector c.

    numpy would cast A to complex for a complex c; viewing c as an (n, 2)
    real array instead runs one two-column real product, with no complex
    copy of A.  Real c passes straight through.
    """
    if c.dtype.kind != "c":
        return A @ c
    c = np.ascontiguousarray(c, dtype=complex)
    return (A @ c.view(float).reshape(-1, 2)).view(complex).ravel()


def to_coefficients(values, d: BasisDescriptor) -> SpectralExpansion:
    """Interpolate grid values: exact round trip with node_values."""
    values = np.asarray(values)
    if values.shape != (d.size,):
        raise ValueError(f"expected {d.size} grid values, got shape {values.shape}")
    c = _apply_real(_transform_of(d), values)
    return SpectralExpansion(d, c if d.beta == 1.0 else c / math.sqrt(d.beta))


def node_values(u: SpectralExpansion) -> np.ndarray:
    """Values of the expansion on its own grid: sqrt(beta) V^T u."""
    d = u.descriptor
    v = _apply_real(_core_of(d).V.T, u.coefficients)
    return v if d.beta == 1.0 else v * math.sqrt(d.beta)


def to_values(u: SpectralExpansion, x) -> np.ndarray:
    """Evaluate the expansion at arbitrary points."""
    return _apply_real(evaluate_all(u.descriptor, x).T, u.coefficients)


def to_coefficients_2d(values, dx: BasisDescriptor, dy: BasisDescriptor) -> Expansion2D:
    values = np.asarray(values)
    if values.shape != (dx.size, dy.size):
        raise ValueError(f"expected shape {(dx.size, dy.size)}, got {values.shape}")
    U = _transform_of(dx) @ values @ _transform_of(dy).T
    scale = math.sqrt(dx.beta) * math.sqrt(dy.beta)  # sqrt(beta) per unbounded axis
    return Expansion2D(dx, dy, U if scale == 1.0 else U / scale)


def node_values_2d(u: Expansion2D) -> np.ndarray:
    dx, dy = u.descriptor_x, u.descriptor_y
    v = _core_of(dx).V.T @ u.coefficients @ _core_of(dy).V
    scale = math.sqrt(dx.beta) * math.sqrt(dy.beta)
    return v if scale == 1.0 else v * scale


def to_values_2d(u: Expansion2D, x, y) -> np.ndarray:
    return (
        evaluate_all(u.descriptor_x, x).T
        @ u.coefficients
        @ evaluate_all(u.descriptor_y, y)
    )


# --------------------------------------------------------------------------
# Differentiation.


# 1, 2, 3, ...: the integer factors of the Chebyshev, Legendre and Laguerre derivatives
_COUNT = np.arange(1.0, 2.0 * MAX_ORDER + 2.0)
_HALF_ROOT = np.sqrt(_COUNT / 2.0)  # sqrt(m/2): the factors of the Hermite derivative
_COUNT.setflags(write=False)
_HALF_ROOT.setflags(write=False)


def differentiate(u: SpectralExpansion) -> SpectralExpansion:
    """Expansion of du/dx.

    Every family uses an exact coefficient recurrence (the Hermite result
    has order N+1: differentiation couples upward).
    """
    d = u.descriptor
    n = d.order
    a = np.asarray(u.coefficients, dtype=np.result_type(u.coefficients.dtype, np.float64))

    # The Chebyshev and Legendre recurrences run downward in steps of two:
    # each is two running sums, one per parity, summed in the loop's order
    # by np.add.accumulate on reversed strided slices.
    if d.family is Family.CHEBYSHEV:
        # b_k = b_{k+2} + 2(k+1) a_{k+1} from b_{n-1} = 2n a_n and b_n = 0
        s = np.zeros(n + 1, dtype=a.dtype)
        np.multiply(_COUNT[1 : 2 * n : 2], a[1:], out=s[:n])
        b = np.empty_like(s)
        np.add.accumulate(s[n::-2], out=b[n::-2])
        if n >= 1:
            np.add.accumulate(s[n - 1 :: -2], out=b[n - 1 :: -2])
            b[0] = a[1] + (0.5 * b[2] if n >= 2 else 0.0)
        return SpectralExpansion(d, b)

    if d.family is Family.LEGENDRE:
        # b_k = (2k+1) c_k with c_k = a_{k+1} + c_{k+2} and c_n = c_{n+1} = 0
        s = np.zeros(n + 2, dtype=a.dtype)
        s[:n] = a[1:]
        c = np.empty_like(s)
        np.add.accumulate(s[n::-2], out=c[n::-2])
        np.add.accumulate(s[n + 1 :: -2], out=c[n + 1 :: -2])
        b = np.zeros(n + 1, dtype=a.dtype)
        np.multiply(_COUNT[: 2 * n : 2], c[:n], out=b[:n])
        return SpectralExpansion(d, b)

    if d.family is Family.HERMITE_FN:
        return SpectralExpansion(_with_order(d, n + 1), _hermite_derivative(a, d.beta))

    return SpectralExpansion(d, _laguerre_derivative(a, d.beta))  # Family.LAGUERRE_FN


@lru_cache(maxsize=256)
def _derivative_matrix(family: Family, order: int) -> np.ndarray:
    """D @ v = du/dx on a bounded space's grid: node_values ∘ differentiate ∘ to_coefficients."""
    d = BasisDescriptor(family, order)
    D = np.column_stack([node_values(differentiate(to_coefficients(e, d))) for e in np.eye(d.size)])
    D.setflags(write=False)
    return D


def _hermite_derivative(a: np.ndarray, beta: float) -> np.ndarray:
    """Order-(N+1) Hermite coefficients of the derivative of an order-N expansion.

    h_m' = beta (sqrt(m/2) h_{m-1} - sqrt((m+1)/2) h_{m+1}).  No descriptor
    is built, so this also serves expansions at MAX_ORDER.
    """
    n = a.size - 1
    b = np.zeros(n + 2, dtype=np.result_type(a.dtype, float))
    b[1:] -= beta * _HALF_ROOT[: n + 1] * a
    b[:n] += beta * _HALF_ROOT[:n] * a[1:]
    return b


def _laguerre_derivative(a: np.ndarray, beta: float) -> np.ndarray:
    """Order-N Laguerre coefficients of the derivative of an order-N expansion.

    L_n' = -sum_{k<n} L_k (Szego, sec. 5.1) and (p e^{-y/2})' = (p' - p/2) e^{-y/2}
    give b = beta (a/2 - S), with the suffix sums S_k = sum_{n>=k} a_n (one
    reversed cumulative sum).
    """
    return beta * (0.5 * a - np.cumsum(a[::-1])[::-1])
