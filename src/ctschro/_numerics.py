"""Shared low-level numerics: local polynomial interpolation on uniform grids
and composite Gauss-Legendre quadrature with per-cell refinement, including
the oscillatory integral shared by the evolution oracle and the TT* kernel.

Everything here is deterministic: fixed node orders, numpy pairwise summation,
no threading.  Long interpolation queries run in fixed blocks of
``_BLOCK`` so their (queries x stencil) temporaries stay in cache; every
value is computed by the same operations whatever the block, so the result
does not depend on it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .errors import ResolutionError

# exp(-x) underflows to exactly 0.0 near x = 745; beyond _DEAD the damped
# multiplier cannot contribute at double precision.
_DEAD = 745.0
# the coarse rule: 4-point Gauss on sub-cells of at most pi/8 change
_PHASE_BUDGET = math.pi / 8.0
_COARSE_ORDER = 4
# the fine rule: 12-point Gauss on sub-cells of at most 2 pi change
_FINE_BUDGET = 2.0 * math.pi
_FINE_ORDER = 12
# largest node count of one oscillatory quadrature: 32 MB per float array of
# nodes, three times the largest count the test suite needs (1.33 M) and far
# below the tens of GB an undamped high-frequency query would ask for
_MAX_NODES = 2 ** 22
# interpolation queries per block: 2**14 x 8 complex is 2 MB of temporaries
_BLOCK = 2 ** 14

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_DENOM_CACHE: dict[int, np.ndarray] = {}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        xg, wg = roots_legendre(n)
        _GL_CACHE[n] = (np.asarray(xg), np.asarray(wg))
    return _GL_CACHE[n]


def _stencil_denominators(npts: int) -> np.ndarray:
    """prod_{l != j} (j - l) = (-1)**(npts-1-j) * j! * (npts-1-j)! for the
    stencil offsets 0..npts-1, cached; the entries are exact integers."""
    if npts not in _DENOM_CACHE:
        denom = np.array([(-1) ** (npts - 1 - j) * math.factorial(j)
                          * math.factorial(npts - 1 - j) for j in range(npts)],
                         dtype=float)
        denom.setflags(write=False)
        _DENOM_CACHE[npts] = denom
    return _DENOM_CACHE[npts]


def lagrange_uniform(values: np.ndarray, x0: float, dx: float,
                     xq: np.ndarray, order: int = 7) -> np.ndarray:
    """Local Lagrange interpolation of samples on the uniform grid x0 + k*dx.

    Uses a sliding window of ``order + 1`` nodes centred on each query; windows
    are clamped at the grid ends.  Queries that land exactly on a node return
    the sample itself (no 0/0).  Queries are evaluated ``_BLOCK`` at a time.
    """
    values = np.asarray(values)
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    npts = order + 1
    if values.shape[0] < npts:
        raise ValueError(f"need at least {npts} samples for order {order}")

    out = np.empty(xq.shape[0], dtype=values.dtype)
    for start in range(0, xq.shape[0], _BLOCK):
        stop = start + _BLOCK
        _lagrange_block(values, x0, dx, xq[start:stop], npts, out[start:stop])
    return out[0] if scalar else out


def _lagrange_block(values: np.ndarray, x0: float, dx: float, xq: np.ndarray,
                    npts: int, out: np.ndarray) -> None:
    """``lagrange_uniform`` of one block of queries, written into ``out``."""
    n = values.shape[0]
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
    w = full[:, None] / (safe * _stencil_denominators(npts)[None, :])
    hit = on_node.any(axis=1)
    if hit.any():
        w[hit] = np.where(on_node[hit], 1.0, 0.0)

    gathered = values[i0[:, None] + np.arange(npts)[None, :]]
    np.einsum("ij,ij->i", w.astype(gathered.dtype, copy=False), gathered,
              out=out)


def refined_cells(edges: np.ndarray, counts: np.ndarray,
                  orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights subdividing each [edges[j], edges[j+1]] into
    counts[j] equal sub-cells carrying an orders[j]-point Gauss rule.

    The nodes come grouped by order, smallest order first, and each group in
    cell order; with a single order that is plain cell order.
    """
    counts = np.maximum(np.asarray(counts, dtype=np.int64), 1)
    orders = np.asarray(orders)
    widths = np.diff(edges) / counts
    nodes, weights = [], []
    for n_gl in np.unique(orders).tolist():
        sel = orders == n_gl
        c = counts[sel]
        # sub-cell left endpoints: index of each sub-cell within its grid cell
        starts = np.repeat(edges[:-1][sel], c)
        sub_w = np.repeat(widths[sel], c)
        first = np.cumsum(c) - c
        within = (np.arange(c.sum()) - np.repeat(first, c)).astype(float)
        lefts = starts + within * sub_w

        xg, wg = gauss_rule(n_gl)
        half = sub_w[:, None] / 2.0
        nodes.append((lefts[:, None] + (xg[None, :] + 1.0) * half).ravel())
        weights.append((wg[None, :] * half).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def phase_counts(edges: np.ndarray, lin: float, quad: float, damp: float,
                 m: float) -> tuple[np.ndarray, np.ndarray]:
    """(sub-cell counts, Gauss orders) of the grid cells [edges[j], edges[j+1]]
    for the integrand of ``oscillatory_quadrature``.

    A cell whose phase and damping-exponent change is at most pi/8, or that
    touches xi = 0 (where |xi|**m is not smooth unless m is even), keeps the
    coarse rule: 4-point Gauss on sub-cells of at most pi/8 change, and at
    least one sub-cell.  Every other cell takes the fine rule: 12-point Gauss
    on ceil(change / 2 pi) equal sub-cells.  The Gauss-Legendre remainder
    (b-a)**(2n+1) (n!)**4 / ((2n+1) ((2n)!)**3) |f**(2n)| (Davis & Rabinowitz,
    Methods of Numerical Integration, 1984) bounds the error of exp(i theta s)
    on one sub-cell of change c by c**(2n) (n!)**4 / ((2n+1) ((2n)!)**3) of
    the sub-cell width: 3e-13 for the coarse rule, 1.3e-19 for the fine one,
    which needs 6 nodes per pi of change instead of 32.

    Raises ``ResolutionError`` when these sub-cells need more than
    ``_MAX_NODES`` nodes; nothing is allocated for them first.
    """
    left, right = edges[:-1], edges[1:]
    ap = np.abs(edges) ** m
    apl, apr = ap[:-1], ap[1:]
    dpow = np.abs(apr - apl)
    # the cells touching 0 (left <= 0 <= right) are one run of indices; in
    # the one straddling 0, |xi|**m varies by |left|**m + |right|**m
    touch = slice(np.searchsorted(right, 0.0),
                  np.searchsorted(left, 0.0, side="right"))
    straddle = (left[touch] < 0) & (right[touch] > 0)
    dpow[touch] = np.where(straddle, apl[touch] + apr[touch], dpow[touch])
    change = abs(lin) * (right - left) + abs(quad) * dpow
    if damp:
        change = change + damp * dpow
    counts = np.ceil(change / _PHASE_BUDGET)
    if m < 1.0:
        # cells touching 0: uniform subdivision must shrink the first
        # sub-cell's |xi|**m variation below the budget
        w = right[touch] - left[touch]
        need = np.ceil(w * (8.0 * abs(quad) / math.pi) ** (1.0 / m))
        counts[touch] = np.maximum(counts[touch], need)
    fine = counts > 1.0
    fine[touch] = False
    counts = np.maximum(counts, 1.0)
    orders = np.full(counts.shape, _COARSE_ORDER)
    if fine.any():
        counts[fine] = np.ceil(change[fine] / _FINE_BUDGET)
        orders[fine] = _FINE_ORDER
    n_nodes = float(counts @ orders)
    if not n_nodes <= _MAX_NODES:
        raise ResolutionError(
            f"oscillatory quadrature needs {n_nodes:.0f} nodes, more than the "
            f"limit of {_MAX_NODES}")
    return counts.astype(np.int64), orders


def node_set(edges: np.ndarray, counts: np.ndarray, orders: np.ndarray,
             amp: Callable[[np.ndarray], np.ndarray], m: float):
    """(nodes, weights, |nodes|**m, amp(nodes)) of the rule that
    ``phase_counts`` chose: ``orders[j]``-point Gauss on ``counts[j]`` equal
    sub-cells of each grid cell.  This is everything of the integrand that
    does not depend on ``lin``, ``quad`` or ``damp``."""
    nodes, weights = refined_cells(edges, counts, orders)
    return nodes, weights, np.abs(nodes) ** m, amp(nodes)


def oscillatory_sum(nodes: np.ndarray, weights: np.ndarray,
                    abs_pow: np.ndarray, a: np.ndarray,
                    lin: float, quad: float, damp: float) -> complex:
    """sum over a ``node_set`` of

        weight * amp * exp(i (lin xi + quad |xi|^m)) * exp(-damp |xi|^m)
    """
    # a named amplitude keeps numpy from writing the product into it in place,
    # which would change the operand order and the rounding
    integrand = a * np.exp(1j * (lin * nodes + quad * abs_pow))
    if damp:
        integrand *= np.exp(-damp * abs_pow)
    return np.sum(integrand * weights)


def oscillatory_quadrature(edges: np.ndarray,
                           amp: Callable[[np.ndarray], np.ndarray],
                           lin: float, quad: float, damp: float,
                           m: float) -> complex:
    """integral over [edges[0], edges[-1]] of

        amp(xi) * exp(i (lin xi + quad |xi|^m)) * exp(-damp |xi|^m) dxi

    by the mixed rule of ``phase_counts``: 4-point Gauss on sub-cells of at
    most pi/8 phase and damping-exponent change where a grid cell changes
    that little or touches xi = 0, 12-point Gauss on sub-cells of at most
    2 pi change elsewhere.  ``edges`` must be nondecreasing; the caller clips
    them to the live band.
    """
    counts, orders = phase_counts(edges, lin, quad, damp, m)
    return oscillatory_sum(*node_set(edges, counts, orders, amp, m),
                           lin, quad, damp)
