"""Shared low-level numerics: local polynomial interpolation on uniform grids
and composite Gauss-Legendre quadrature with per-cell refinement, including
the oscillatory integral shared by the evolution oracle and the TT* kernel.

Everything here is deterministic: fixed node orders, numpy pairwise summation,
no threading.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

# exp(-x) underflows to exactly 0.0 near x = 745; beyond _DEAD the damped
# multiplier cannot contribute at double precision.
_DEAD = 745.0
_PHASE_BUDGET = math.pi / 8.0

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        xg, wg = roots_legendre(n)
        _GL_CACHE[n] = (np.asarray(xg), np.asarray(wg))
    return _GL_CACHE[n]


def lagrange_uniform(values: np.ndarray, x0: float, dx: float,
                     xq: np.ndarray, order: int = 7) -> np.ndarray:
    """Local Lagrange interpolation of samples on the uniform grid x0 + k*dx.

    Uses a sliding window of ``order + 1`` nodes centred on each query; windows
    are clamped at the grid ends.  Queries that land exactly on a node return
    the sample itself (no 0/0).
    """
    values = np.asarray(values)
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    n = values.shape[0]
    npts = order + 1
    if n < npts:
        raise ValueError(f"need at least {npts} samples for order {order}")

    pos = (xq - x0) / dx
    i0 = np.floor(pos).astype(np.int64) - (npts // 2 - 1)
    np.clip(i0, 0, n - npts, out=i0)
    d = pos - i0                                   # in [0, npts-1] within grid

    offs = np.arange(npts, dtype=float)
    diffs = d[:, None] - offs[None, :]             # (nq, npts)

    # w_j = prod_{l != j} (d - l) / (j - l); the full product divided per node.
    on_node = np.abs(diffs) < 1e-12
    safe = np.where(on_node, 1.0, diffs)
    full = np.prod(safe, axis=1)
    denom = np.empty(npts)
    for j in range(npts):
        denom[j] = np.prod(j - np.delete(offs, j))
    w = full[:, None] / (safe * denom[None, :])
    hit = on_node.any(axis=1)
    if hit.any():
        w[hit] = np.where(on_node[hit], 1.0, 0.0)

    gathered = values[i0[:, None] + np.arange(npts)[None, :]]
    out = np.einsum("ij,ij->i", w.astype(gathered.dtype, copy=False), gathered)
    return out[0] if scalar else out


def refined_cells(edges: np.ndarray, counts: np.ndarray,
                  n_gl: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights subdividing each [edges[j], edges[j+1]] into
    counts[j] equal sub-cells carrying an n_gl-point Gauss rule."""
    counts = np.maximum(np.asarray(counts, dtype=np.int64), 1)
    widths = np.diff(edges) / counts
    # sub-cell left endpoints: index of each sub-cell within its grid cell
    starts = np.repeat(edges[:-1], counts)
    sub_w = np.repeat(widths, counts)
    first = np.cumsum(counts) - counts
    within = (np.arange(counts.sum()) - np.repeat(first, counts)).astype(float)
    lefts = starts + within * sub_w

    xg, wg = gauss_rule(n_gl)
    nodes = lefts[:, None] + (xg[None, :] + 1.0) * (sub_w[:, None] / 2.0)
    weights = wg[None, :] * (sub_w[:, None] / 2.0)
    return nodes.ravel(), weights.ravel()


def oscillatory_quadrature(edges: np.ndarray,
                           amp: Callable[[np.ndarray], np.ndarray],
                           lin: float, quad: float, damp: float,
                           m: float) -> complex:
    """integral over [edges[0], edges[-1]] of

        amp(xi) * exp(i (lin xi + quad |xi|^m)) * exp(-damp |xi|^m) dxi

    by 4-point Gauss on each grid cell, subdivided until the phase and
    damping-exponent change per sub-cell is at most pi/8.  ``edges`` must be
    nondecreasing; the caller clips them to the live band.
    """
    left, right = edges[:-1], edges[1:]
    apl, apr = np.abs(left) ** m, np.abs(right) ** m
    straddle = (left < 0) & (right > 0)
    dpow = np.where(straddle, apl + apr, np.abs(apr - apl))
    change = abs(lin) * (right - left) + abs(quad) * dpow
    if damp:
        change = change + damp * dpow
    counts = np.ceil(change / _PHASE_BUDGET).astype(np.int64)
    if m < 1.0:
        # cells touching 0: uniform subdivision must shrink the first
        # sub-cell's |xi|**m variation below the budget
        touch = (left <= 0) & (right >= 0)
        if touch.any():
            w = right - left
            need = np.ceil(w * (8.0 * abs(quad) / math.pi) ** (1.0 / m))
            counts = np.where(touch, np.maximum(counts, need.astype(np.int64)),
                              counts)

    nodes, weights = refined_cells(edges, counts, n_gl=4)
    abs_pow = np.abs(nodes) ** m
    # a named amplitude keeps numpy from writing the product into it in place,
    # which would change the operand order and the rounding
    a = amp(nodes)
    integrand = a * np.exp(1j * (lin * nodes + quad * abs_pow))
    if damp:
        integrand *= np.exp(-damp * abs_pow)
    return np.sum(integrand * weights)
