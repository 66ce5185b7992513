"""Scalar diagnostics that drive adaptivity.

Three quantities: the frequency indicator (fraction of weighted energy in
the top modes, 1D and per-axis 2D), the exterior-error indicator (fraction
of the derivative's weighted norm beyond a split point, for unbounded
families), and the relative weighted-L2 error against a reference
function on an oversampled grid.

The exterior indicator and the relative error evaluate the expansion
through cached matrices keyed in the reference frame: the exterior panels
per (family, order, exponent, reference split point), the fine-grid matrix
per descriptor without its translation (on the bounded families, the top
rows of the fine rule's own basis values).  Moving or rescaling the grid thus
reuses them, and each call is a matrix-vector product, run in real
arithmetic for complex coefficients.  Matrices above
basis._CACHE_ENTRY_LIMIT entries are rebuilt per call instead of cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import (
    _CACHE_ENTRY_LIMIT,
    MAX_ORDER,
    BasisDescriptor,
    Expansion2D,
    Family,
    SpectralExpansion,
    _apply_real,
    _basis_rows,
    _core_of,
    _cross_matrix,
    _hermite_derivative,
    _with_order,
    differentiate,
    nodes_weights,
    norms,
)

__all__ = [
    "IndicatorConfig",
    "default_tail_width",
    "frequency_indicator",
    "frequency_indicator_axis",
    "exterior_error_indicator",
    "default_split_point",
    "relative_error",
    "relative_error_2d",
]


def default_tail_width(n: int) -> int:
    """Tail width M for order n: floor(n/3), at least 1 (the 2/3 rule)."""
    return max(1, n // 3)


@dataclass(frozen=True)
class IndicatorConfig:
    """How many top modes count as 'tail' when measuring frequency content."""

    m_rule: Callable[[int], int] = field(default=default_tail_width)


_DEFAULT = IndicatorConfig()


def _tail_width(n: int, config: IndicatorConfig | None) -> int:
    m = int((config or _DEFAULT).m_rule(n))
    return max(1, min(m, max(n, 1)))


def frequency_indicator(u: SpectralExpansion, config: IndicatorConfig | None = None) -> float:
    """sqrt(tail energy / total energy) of the expansion, in [0, 1].

    Energy of mode i is gamma_i |u_i|^2 with gamma the continuous squared
    norms.  All-zero coefficients give 0 (nothing to resolve).
    """
    energy = norms(u.descriptor) * np.abs(u.coefficients) ** 2
    total = float(energy.sum())
    if total == 0.0:
        return 0.0
    n = u.descriptor.order
    m = _tail_width(n, config)
    tail = float(energy[max(n - m + 1, 0):].sum())
    return min(math.sqrt(tail / total), 1.0)


def frequency_indicator_axis(
    u: Expansion2D, axis: int, config: IndicatorConfig | None = None
) -> float:
    """Per-axis frequency indicator of a tensor expansion (axis 0 = x)."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return _axis_indicators(u, config)[axis]


def _axis_indicators(u: Expansion2D, config: IndicatorConfig | None = None) -> tuple:
    """The x and y frequency indicators of u, from one energy array."""
    gx = norms(u.descriptor_x)
    gy = norms(u.descriptor_y)
    energy = np.abs(u.coefficients) ** 2 * gx[:, None] * gy[None, :]
    total = float(energy.sum())
    if total == 0.0:
        return 0.0, 0.0
    out = []
    for axis, d in enumerate((u.descriptor_x, u.descriptor_y)):
        m = _tail_width(d.order, config)
        lo = max(d.order - m + 1, 0)
        tail = float(energy[lo:, :].sum() if axis == 0 else energy[:, lo:].sum())
        out.append(min(math.sqrt(tail / total), 1.0))
    return tuple(out)


# ------------------------------------------------------------ exterior


_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _composite_gauss(edges: np.ndarray):
    """Nodes/weights of a 20-point Gauss rule on each panel, concatenated."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    wts = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return pts, wts


def exterior_error_indicator(u: SpectralExpansion, x_split: float | None = None) -> float:
    """Fraction of the derivative's weighted norm living beyond x_split.

    || dU/dx restricted to (x_split, inf) ||_w / || dU/dx ||_w for the
    half-line and whole-line families.  The total norm is exact (the
    derivative expansion lives in an orthonormal family); the exterior
    piece uses composite Gauss panels out to where the basis envelope is
    below ~1e-18 of its peak, one panel per local oscillation wavelength.

    The panels live in the reference coordinate y = beta (x - x_left), where
    the ratio does not depend on beta or x_left beyond the split point, so
    the rule is cached per (family, order, exponent, reference split).
    x_split=None splits at the reference node of default_split_point.
    """
    d = u.descriptor
    if d.bounded:
        raise ValueError("exterior indicator requires an unbounded family")
    if d.family is Family.HERMITE_FN:
        # the derivative has order N+1, beyond any descriptor at MAX_ORDER
        b = _hermite_derivative(u.coefficients, d.beta)
    else:
        b = differentiate(u).coefficients
    den2 = float(np.real(np.vdot(b, b)))
    if den2 == 0.0:
        return 0.0
    if x_split is None:
        y_split = _reference_split(d)
    else:
        y_split = d.beta * (float(x_split) - d.x_left)
    n = b.size - 1
    p = _exterior_panels(d.family, n, float(d.laguerre_a), y_split)
    if p is None:
        return 0.0
    E = p.E if p.E is not None else _basis_rows(d.family, n, p.y, d.laguerre_a)
    v2 = np.abs(_apply_real(E.T, b)) ** 2
    if d.family is Family.HERMITE_FN:
        num2 = float(p.w @ v2)
    else:
        num2 = 2.0 * float(p.w @ (v2 * p.weight * p.s))
    return min(math.sqrt(max(num2, 0.0) / den2), 1.0)


@dataclass(frozen=True)
class _Panels:
    """Exterior quadrature beyond one reference split point.

    y: reference points; w: panel weights (in y for Hermite, in s = sqrt(y)
    for Laguerre); s, weight: Laguerre's s and y^a (None for Hermite); E:
    reference basis values at y, or None when the matrix is above the
    entry limit.
    """

    y: np.ndarray
    w: np.ndarray
    s: np.ndarray | None
    weight: np.ndarray | float | None
    E: np.ndarray | None


@lru_cache(maxsize=2)
def _exterior_panels(family: Family, n: int, a: float, y_split: float) -> _Panels | None:
    """Panel rule beyond y_split for the order-n derivative space; None if empty."""
    if family is Family.HERMITE_FN:
        turn = math.sqrt(2.0 * n + 1.0)
        y_cut = turn + 9.3  # envelope below ~1e-18 of peak past the turning point
        y_lo = max(y_split, -y_cut)
        if y_lo >= y_cut:
            return None
        panels = int(math.ceil((y_cut - y_lo) * max(turn, 1.0) / (2.0 * math.pi))) + 1
        y, w = _composite_gauss(np.linspace(y_lo, y_cut, panels + 1))
        s = weight = None
    else:
        y_cut = 4.0 * (n + a) + 2.0 + 90.0  # exp(-y/2) tail below 1e-18 relative
        y_lo = min(max(y_split, 0.0), y_cut)
        if y_lo >= y_cut:
            return None
        # integrate in s = sqrt(y): the oscillation wavelength is uniform there
        s_lo, s_hi = math.sqrt(y_lo), math.sqrt(y_cut)
        panels = int(math.ceil((s_hi - s_lo) * math.sqrt(n + 1.0) / math.pi)) + 1
        s, w = _composite_gauss(np.linspace(s_lo, s_hi, panels + 1))
        y = s * s
        weight = y**a if a != 0.0 else 1.0
    E = _basis_rows(family, n, y, a) if (n + 1) * y.size <= _CACHE_ENTRY_LIMIT else None
    for arr in (y, w, s, weight, E):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return _Panels(y=y, w=w, s=s, weight=weight, E=E)


def _split_index(d: BasisDescriptor) -> int:
    """Grid index of the default split: Hermite (2N+2)//3, Laguerre (N+2)//3."""
    if d.bounded:
        raise ValueError("split point is defined for unbounded families only")
    if d.family is Family.HERMITE_FN:
        idx = (2 * d.order + 2) // 3
    else:
        idx = (d.order + 2) // 3
    return min(idx, d.order)


def _reference_split(d: BasisDescriptor) -> float:
    """The default split point in reference coordinates: a reference node."""
    return float(_core_of(d).y[_split_index(d)])


def default_split_point(d: BasisDescriptor) -> float:
    """Default exterior split: the grid node at roughly the 2/3 quantile.

    Hermite: node index (2N+2)//3 of the N+1 Gauss nodes; Laguerre: index
    (N+2)//3 of the Radau nodes (0-based, ascending).
    """
    return float(nodes_weights(d).nodes[_split_index(d)])


# ------------------------------------------------------------ errors


def _fine_descriptor(d: BasisDescriptor) -> BasisDescriptor:
    return _with_order(d, min(2 * d.order + 2, MAX_ORDER))


def relative_error(u: SpectralExpansion, reference: Callable) -> float:
    """Weighted-L2 relative error against a callable, oversampled grid.

    The rule of order 2N+2 (>= 2(N+1) points) prevents the difference from
    aliasing to zero.  reference must accept a vector of points.
    """
    d = u.descriptor
    fine = _fine_descriptor(d)
    r = nodes_weights(fine)
    fv = np.asarray(reference(r.nodes))
    uv = _apply_real(_cross_matrix(d, fine).T, u.coefficients)
    den2 = float(r.weights @ np.abs(fv) ** 2)
    if den2 == 0.0:
        raise ValueError("reference has zero weighted norm")
    num2 = float(r.weights @ np.abs(uv - fv) ** 2)
    return math.sqrt(num2 / den2)


def relative_error_2d(u: Expansion2D, reference: Callable) -> float:
    """Tensor-grid version of relative_error.

    reference(X, Y) receives the open grids of the fine rule: X of shape
    (nx, 1) and Y of shape (1, ny), as meshgrid(..., indexing='ij',
    sparse=True) gives them.  Its result is broadcast to (nx, ny); a shape
    that does not broadcast raises ValueError.
    """
    fx = _fine_descriptor(u.descriptor_x)
    fy = _fine_descriptor(u.descriptor_y)
    rx, ry = nodes_weights(fx), nodes_weights(fy)
    X, Y = np.meshgrid(rx.nodes, ry.nodes, indexing="ij", sparse=True)
    fv = np.broadcast_to(reference(X, Y), (rx.nodes.size, ry.nodes.size))
    uv = _cross_matrix(u.descriptor_x, fx).T @ u.coefficients @ _cross_matrix(u.descriptor_y, fy)
    W = rx.weights[:, None] * ry.weights[None, :]
    den2 = float((W * np.abs(fv) ** 2).sum())
    if den2 == 0.0:
        raise ValueError("reference has zero weighted norm")
    num2 = float((W * np.abs(uv - fv) ** 2).sum())
    return math.sqrt(num2 / den2)
