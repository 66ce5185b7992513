"""Matrix-exponential action on a vector, matrix-free.

Two evaluations, both needing only products A*v, so the operator may be a
matrix, a stencil, or any linear callable:

- With a spectral interval: A = -iH for a Hermitian H whose eigenvalues lie
  in [lo, hi].  exp(A)x is a Chebyshev series in (H - c)/r, c and r the
  centre and half-width of the interval, with Bessel coefficients
  (2 - delta_k0) (-i)^k J_k(r) (Tal-Ezer & Kosloff 1984).  Since every
  Chebyshev polynomial of the scaled operator has norm at most 1, the
  series is cut where twice the tail sum of |J_k(r)| drops below 1e-15;
  the degree follows from the interval alone.
- Without one: (sum_k (A/m)^k / k!)^m x, the truncated Taylor sum of the
  scaled operator applied m times in sequence, for operators with no
  known spectral bound.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

__all__ = ["ExpmConfig", "expm_action"]

# Chebyshev path: truncation tolerance and the largest degree attempted.
_SERIES_TOL = 1e-15
_MAX_DEGREE = 1000


@dataclass(frozen=True)
class ExpmConfig:
    """Knobs for the scaled Taylor evaluation.

    m is a fixed splitting of the exponent, not auto-selected from norm
    estimates; raise it when the operator is stiff enough that the series
    for A/m converges too slowly.
    """

    m: int = 6
    taylor_tol: float = 1e-15
    max_terms: int = 40

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not self.taylor_tol > 0:
            raise ValueError("taylor_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be a positive integer")


def _taylor_apply(apply_a, v, inv_m, config):
    # exp(A/m) v summed term by term in index order; the running term is
    # term_k = (A/m)^k v / k!, and the stop test is relative to the input
    # so a near-unitary operator cannot stall the tolerance
    ref = np.linalg.norm(v)
    acc = v.copy()
    term = v
    for k in range(1, config.max_terms + 1):
        term = apply_a(term) * (inv_m / k)
        acc = acc + term
        if np.linalg.norm(term) <= config.taylor_tol * ref:
            return acc
    raise RuntimeError(
        "Taylor series for the scaled operator did not converge: term %d "
        "has norm %.3e against input %.3e; increase m or max_terms"
        % (config.max_terms, np.linalg.norm(term), ref)
    )


def _bessel_coefficients(r):
    """J_k(r) for k = 0..K, K the first degree whose tail is below tolerance.

    The tail falls below 1e-15 near K = r + 11 r^(1/3) (checked for
    1 <= r <= 900; K = 14 at r = 1).  The window evaluated reaches
    3 r^(1/3) + 8 further, so the terms past it are negligible against
    the tail it does sum.
    """
    n = min(int(r + 14.0 * max(r, 1.0) ** (1.0 / 3.0)) + 8, _MAX_DEGREE + 16)
    j = jv(np.arange(n), r)
    tail = 2.0 * np.cumsum(np.abs(j[::-1]))[::-1]  # tail[k] = 2 sum_{i>=k} |J_i|
    done = np.flatnonzero(tail[1:] < _SERIES_TOL)
    if not len(done) or done[0] > _MAX_DEGREE:
        raise RuntimeError(
            "Chebyshev series needs more than %d terms for spectral half-width "
            "%.3e; shorten the step" % (_MAX_DEGREE, r)
        )
    return j[: done[0] + 1]


def _chebyshev_apply(apply_a, x, lo, hi):
    # exp(-iH) = exp(-ic) sum_k (2 - delta_k0) (-i)^k J_k(r) T_k(X) with
    # X = (H - c)/r and H v = i A v; T_k(X) v by the three-term recurrence
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    j = _bessel_coefficients(r)
    x = np.asarray(x)
    acc = j[0] * x
    if len(j) > 1:
        scale, shift = 1j / r, c / r
        w_prev, w = x, scale * apply_a(x) - shift * x
        acc = acc + (-2j * j[1]) * w
        phase = -2j
        for jk in j[2:]:
            w_prev, w = w, 2.0 * (scale * apply_a(w) - shift * w) - w_prev
            phase *= -1j
            acc = acc + (phase * jk) * w
    return np.exp(-1j * c) * acc


def expm_action(apply_a, x, config=ExpmConfig(), *, spectrum=None):
    """Return exp(A) x where A is given only through apply_a(v) = A v.

    x may be any complex or real ndarray; apply_a must be linear and
    shape-preserving.  With spectrum=(lo, hi), A = -iH is taken to be
    skew-Hermitian with the eigenvalues of H inside [lo, hi], and the
    Chebyshev series runs (config is not used); otherwise the split Taylor
    sum does.  The result is deterministic for fixed inputs.
    """
    if spectrum is not None:
        lo, hi = float(spectrum[0]), float(spectrum[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError("spectrum must be a finite interval (lo, hi), got %r" % (spectrum,))
        return _chebyshev_apply(apply_a, x, lo, hi)
    y = np.asarray(x)
    inv_m = 1.0 / config.m
    for _ in range(config.m):
        y = _taylor_apply(apply_a, y, inv_m, config)
    return y
