"""Scalar diagnostics that drive adaptivity.

Three quantities: the frequency indicator (fraction of weighted energy in
the top modes, 1D and per-axis 2D), the exterior-error indicator (fraction
of the derivative's weighted norm beyond the grid's split node, for
unbounded families), and the relative weighted-L2 error against a
reference function on an oversampled grid.

The exterior indicator and the relative error evaluate the expansion
through cached matrices keyed in the reference frame: the exterior panels
of the current space only (family, order, exponent; the split is a
reference node), the fine-grid matrix per descriptor without its
translation (on the bounded families, the top rows of the fine rule's own
basis values).  Moving or rescaling the grid thus reuses them, and each
call is a matrix-vector product, run in real arithmetic for complex
coefficients.  The errors of a run of expansions in one space take one
pass over stacked reference rows, each row with a single call's
arithmetic; a NaN or infinite reference value is refused.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import (
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
    _laguerre_derivative,
    _on_grid,
    _with_order,
    nodes_weights,
    norms,
)

__all__ = [
    "default_tail_width",
    "frequency_indicator",
    "frequency_indicator_axis",
    "exterior_error_indicator",
    "relative_error",
    "relative_error_2d",
]


def default_tail_width(n: int) -> int:
    """Tail width M for order n: floor(n/3), at least 1 (the 2/3 rule)."""
    return max(1, n // 3)


def _tail_fraction(energy: np.ndarray) -> float:
    """sqrt(tail / total) over the top default_tail_width(n) of energy[0..n]; 0 if all zero."""
    total = float(energy.sum())
    if total == 0.0:
        return 0.0
    n = energy.size - 1
    tail = float(energy[max(n - default_tail_width(n) + 1, 0):].sum())
    return min(math.sqrt(tail / total), 1.0)


def frequency_indicator(u: SpectralExpansion) -> float:
    """sqrt(tail energy / total energy) of the expansion, in [0, 1].

    Energy of mode i is gamma_i |u_i|^2 with gamma the continuous squared
    norms.  All-zero coefficients give 0 (nothing to resolve).
    """
    return _tail_fraction(norms(u.descriptor) * np.abs(u.coefficients) ** 2)


def frequency_indicator_axis(u: Expansion2D, axis: int) -> float:
    """Per-axis frequency indicator of a tensor expansion (axis 0 = x)."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return _axis_indicators(u, (axis,))[0]


def _axis_indicators(u: Expansion2D, axes: tuple = (0, 1)) -> tuple:
    """u's frequency indicators on the given axes: the tail rule on each axis's energy marginal."""
    gx = norms(u.descriptor_x)
    gy = norms(u.descriptor_y)
    c2 = np.abs(u.coefficients) ** 2
    return tuple(_tail_fraction(gx * (c2 @ gy) if axis == 0 else gy * (gx @ c2)) for axis in axes)


# ------------------------------------------------------------ exterior


_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _composite_gauss(edges: np.ndarray):
    """Nodes/weights of a 20-point Gauss rule on each panel, concatenated."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    wts = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return pts, wts


def exterior_error_indicator(u: SpectralExpansion) -> float:
    """Fraction of the derivative's weighted norm living beyond the split node.

    || dU/dx restricted to (x_s, inf) ||_w / || dU/dx ||_w for the
    half-line and whole-line families, with x_s the grid node at roughly
    the 2/3 quantile: index (2N+2)//3 of the Hermite Gauss nodes, (N+2)//3
    of the Laguerre Radau nodes (0-based, ascending).  The total norm is
    exact (the derivative expansion lives in an orthonormal family); the
    exterior piece uses composite Gauss panels out to where the basis
    envelope is below ~1e-18 of its peak, one panel per local oscillation
    wavelength.

    The split is a node of the reference grid in y = beta (x - x_left), where
    the ratio does not depend on beta or x_left, so the panels depend on the
    family, order and exponent only.
    """
    d = u.descriptor
    if d.bounded:
        raise ValueError("exterior indicator requires an unbounded family")
    if d.family is Family.HERMITE_FN:
        # the derivative has order N+1, beyond any descriptor at MAX_ORDER
        b = _hermite_derivative(u.coefficients, d.beta)
        split = (2 * d.order + 2) // 3
    else:
        b = _laguerre_derivative(u.coefficients, d.beta, d.laguerre_a)
        split = (d.order + 2) // 3
    den2 = float(np.real(np.vdot(b, b)))
    if den2 == 0.0:
        return 0.0
    y_split = float(_core_of(d).y[split])
    E, w = _exterior_panels(d.family, b.size - 1, float(d.laguerre_a), y_split)
    num2 = float(w @ np.abs(_apply_real(E.T, b)) ** 2)
    return min(math.sqrt(max(num2, 0.0) / den2), 1.0)


@lru_cache(maxsize=1)
def _exterior_panels(family: Family, n: int, a: float, y_split: float) -> tuple:
    """(E, w): order-n basis values E at the panel points beyond y_split, weights w.

    w holds the Jacobian of the panel variable, so that w @ |E^T b|^2 is the
    squared exterior norm of the expansion b.  A split at or beyond the cut
    gives zero-width panels and zero weights.
    """
    if family is Family.HERMITE_FN:
        turn = math.sqrt(2.0 * n + 1.0)
        y_cut = turn + 9.3  # envelope below ~1e-18 of peak past the turning point
        y_lo = min(max(y_split, -y_cut), y_cut)
        panels = int(math.ceil((y_cut - y_lo) * max(turn, 1.0) / (2.0 * math.pi))) + 1
        y, w = _composite_gauss(np.linspace(y_lo, y_cut, panels + 1))
    else:
        y_cut = 4.0 * (n + a) + 2.0 + 90.0  # exp(-y/2) tail below 1e-18 relative
        y_lo = min(max(y_split, 0.0), y_cut)
        # integrate in s = sqrt(y): the oscillation wavelength is uniform there;
        # dy = 2 s ds, and the Laguerre weight y^a is not in the basis values
        s_lo, s_hi = math.sqrt(y_lo), math.sqrt(y_cut)
        panels = int(math.ceil((s_hi - s_lo) * math.sqrt(n + 1.0) / math.pi)) + 1
        s, w = _composite_gauss(np.linspace(s_lo, s_hi, panels + 1))
        y = s * s
        w = 2.0 * s * y**a * w
    E = _basis_rows(family, n, y, a)
    E.setflags(write=False)
    w.setflags(write=False)
    return E, w


# ------------------------------------------------------------ errors


def _fine_descriptor(d: BasisDescriptor) -> BasisDescriptor:
    return _with_order(d, min(2 * d.order + 2, MAX_ORDER))


def relative_error(u: SpectralExpansion, reference: Callable) -> float:
    """Weighted-L2 relative error against a callable, oversampled grid.

    The rule of order 2N+2 (>= 2(N+1) points) prevents the difference from
    aliasing to zero.  reference must accept a vector of points; its
    result is broadcast to the rule's shape, and a NaN or infinite value
    raises ValueError.
    """
    return _relative_errors([u], reference)[0]


def _relative_errors(us, rows: Callable) -> list:
    """relative_error of each expansion in us (one descriptor), against the
    rows of rows(x), one per expansion.  The rule and the cross matrix are
    looked up once; each row takes relative_error's product and sums.
    """
    d = us[0].descriptor
    fine = _fine_descriptor(d)
    r = nodes_weights(fine)
    F = np.broadcast_to(rows(r.nodes), (len(us), r.nodes.size))
    B = _cross_matrix(d, fine).T  # after rows: their temporaries are freed before a build
    errors = []
    for u, fv in zip(us, F):
        uv = _apply_real(B, u.coefficients)
        den2 = float(r.weights @ np.abs(fv) ** 2)
        errors.append(_ratio(r.weights @ np.abs(uv - fv) ** 2, den2, F))
    return errors


def _ratio(num2, den2: float, values: np.ndarray) -> float:
    """sqrt(num2/den2), refusing a zero norm or a non-finite reference value
    (which makes den2 non-finite: only then are the values searched)."""
    if not math.isfinite(den2) and not np.isfinite(values).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise ValueError(f"reference value {index} is not finite: {values[index].item()!r}")
    if den2 == 0.0:
        raise ValueError("reference has zero weighted norm")
    return math.sqrt(float(num2) / den2)


def relative_error_2d(u: Expansion2D, reference: Callable) -> float:
    """Tensor-grid version of relative_error.

    reference(X, Y) receives the open grids of the fine rule: X of shape
    (nx, 1) and Y of shape (1, ny), as meshgrid(..., indexing='ij',
    sparse=True) gives them.  Its result is broadcast to (nx, ny); a shape
    that does not broadcast, or a NaN or infinite value, raises ValueError.
    """
    fx = _fine_descriptor(u.descriptor_x)
    fy = _fine_descriptor(u.descriptor_y)
    rx, ry = nodes_weights(fx), nodes_weights(fy)
    fv = _on_grid(reference, rx.nodes, ry.nodes)
    uv = _cross_matrix(u.descriptor_x, fx).T @ u.coefficients @ _cross_matrix(u.descriptor_y, fy)
    W = rx.weights[:, None] * ry.weights[None, :]
    den2 = float((W * np.abs(fv) ** 2).sum())
    return _ratio((W * np.abs(uv - fv) ** 2).sum(), den2, fv)
