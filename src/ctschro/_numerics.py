"""Shared low-level numerics: local polynomial interpolation on uniform grids
and composite Gauss-Legendre quadrature with per-cell refinement, including
the oscillatory integral shared by the evolution oracle and the TT* kernel.

The interpolant has two forms with one weight formula (``_lagrange_weights``).
``lagrange_uniform`` reads arbitrary points, building the weights of each
query.  The cell form (``lagrange_cells``, and ``lagrange_on_rule`` for the
nodes of a quadrature rule) reads points at the same offsets inside many grid
cells: the weights depend only on the offset and the stencil's shift, so it
builds one (offsets x stencil) table and applies it to every cell by a real
matrix product, without casting the weights to complex.

The oscillatory integral's rule is chosen per grid cell from the cell's
phase plus damping-exponent change (``phase_counts``): 4-point Gauss on
sub-cells of at most pi/8 where the change is small or the cell touches
xi = 0, and elsewhere the fewest Gauss points (12, 16, 24 or 32) whose
remainder bound is that of 12 points on 2 pi, with 32-point sub-cells past
the 32-point budget.  With few nodes per radian, each of large weight, the
rounding of a large phase shows in the sum, so the sum compensates it
(``oscillatory_sum``).

The oscillatory integral has a row form: one call of ``phase_counts``,
``refined_cells``/``node_set``, ``oscillatory_sum`` or
``oscillatory_quadrature`` covers P integrals, with ``edges`` of shape
(P, n+1) and ``lin``, ``quad``, ``damp`` of shape (P,).  Each row's nodes
are laid out as a one-row call lays them out (grouped by order, each group
in cell order), every per-node value comes from the same elementwise
operations, and each row is summed by its own ``np.sum``; so every row's
value is bit-identical to a one-row call.  Rows are integrated in chunks of
consecutive rows with at most ``_CHUNK`` = 2**14 nodes in all (a larger row
stands alone), so a call's temporaries stay at a few MB however many rows
it has.  A mirrored call (``mirrored=True``, nonnegative edges, an even
amplitude) integrates each row over its edges and their mirror image as
one cosine row on the positive side, with the positive side's rule: half
the nodes of the two one-sided rows.

A sum over more than ``_CHUNK`` nodes (one oracle point, or a row that
stands alone) builds and sums its terms in leaves of at most ``_CHUNK``
nodes, so beside its node set it holds the temporaries of one leaf, not of
every node.  The leaves split the nodes as numpy's pairwise summation
splits a contiguous complex array: halves, the first rounded down to a
multiple of 4 values.  ``np.sum`` sums each leaf as it would inside the
whole array, the halves' sums are added as numpy adds them, and every term
is computed by the same elementwise operations whatever its leaf; so the
result is the whole array's ``np.sum``, bit for bit (``_pairwise_sum``).

Everything here is deterministic: fixed node orders, numpy pairwise summation,
no thread pool, and matrix products of at most about ``_BLOCK`` values each,
which OpenBLAS runs on one thread.  Long interpolation queries run in fixed
blocks of ``_BLOCK`` so their (queries x stencil) temporaries stay small;
every value of ``lagrange_uniform`` is computed by the same operations
whatever the block, so the result does not depend on it.  Importing this
module sets the allocator policy under which both evaluation routes reuse
their freed temporaries instead of faulting them in again
(``_pin_allocator``).
"""

from __future__ import annotations

import ctypes
import itertools
import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ResolutionError

# exp(-x) underflows to exactly 0.0 near x = 745; beyond _DEAD the damped
# multiplier cannot contribute at double precision.
_DEAD = 745.0
# the coarse rule: 4-point Gauss on sub-cells of at most pi/8 change
_PHASE_BUDGET = math.pi / 8.0
_COARSE_ORDER = 4
# the fine rule: the fewest Gauss points whose remainder bound on one cell of
# change c is at most the 12-point bound at 2 pi (see phase_counts).  Order n
# covers a change up to c_n, the root of
#     c**(2n) (n!)**4 / ((2n+1) ((2n)!)**3) = 1.2636e-19,
# the left side at n = 12, c = 2 pi: c_12 = 2 pi, c_16 = 12.955,
# c_24 = 30.001, c_32 = 49.659 (50-digit values rounded to the nearest
# double).  Past c_32 a cell takes ceil(c / c_32) sub-cells of 32 points.
_FINE_ORDERS = (12, 16, 24, 32)
_FINE_BUDGETS = (2.0 * math.pi, 12.955150203693378, 30.00127683207549,
                 49.65938354127237)
# below this phase modulus exp(i phase) rounds to (1, phase) (_unit_phase)
_SMALL_PHASE = 2.0 ** -27
# largest node count of one oscillatory quadrature: three times the largest
# count the test suite needs (1.33 M) and far below the tens of GB an
# undamped high-frequency query would ask for.  An oracle point's heap peak
# is its node set, 40 bytes per node, plus one leaf's terms (see the module
# docstring): 41-45 bytes per node, about 170 MB at the limit.
_MAX_NODES = 2 ** 22
# interpolation queries per block: a block's (queries x 8) temporaries are
# 128-256 kB, and the cell form yields at most about _BLOCK values per matrix
# product (see the module docstring).  Freed blocks of any size below
# _MMAP_THRESHOLD stay in the heap under the allocator policy below.
_BLOCK = 2 ** 11
# glibc's allocator policy, set once at import by _pin_allocator.  Every
# evaluation point allocates MB-sized temporaries: node sets (40 bytes per
# node), the terms of the oscillatory sum (up to _CHUNK at a time), chirp-z
# buffers of a few MB per slice.  glibc serves a request above
# M_MMAP_THRESHOLD by a mapping of its own, unmapped when freed, and hands
# free memory above M_TRIM_THRESHOLD at the top of its heap back to the
# system.  The default thresholds (128 kB, raised only after a large block
# is freed) make each such temporary fault its pages in anew at every
# point: about 180 k minor faults per in-process repetition of the
# 100-point agreement benchmark.
# At 32 MiB and 64 MiB they stay in the heap (at most 10 faults per
# repetition), and up to 64 MB of freed memory stays with the process.
# No value changes.
_MMAP_THRESHOLD = 32 * 2 ** 20
_TRIM_THRESHOLD = 64 * 2 ** 20
# mallopt's parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

# the one Lagrange order of both evaluation routes, on an 8-node stencil, and
# its denominators prod_{l != j} (j - l) = (-1)**(7-j) j! (7-j)!, exact integers
_INTERP_ORDER = 7
_STENCIL = _INTERP_ORDER + 1
_DENOMINATORS = np.array([(-1) ** (_INTERP_ORDER - j) * math.factorial(j)
                          * math.factorial(_INTERP_ORDER - j)
                          for j in range(_STENCIL)], dtype=float)
_DENOMINATORS.setflags(write=False)
# an upper value of the stencil's Lebesgue constant max_{d in [0, 7]}
# sum_j |w_j(d)| = 6.92974 (at d = 0.347 and 6.653): no read of the
# interpolant exceeds it times the largest sample of its stencil
_LEBESGUE = 6.93

# values per chunk of a row-form call (2**14): the nodes of a chunk of
# oscillatory quadratures, or the cells of a block of rows of sub-cell
# counts.  As many as one interpolation block's (queries x stencil)
# temporaries hold, so each of the chunk's node arrays is 128-256 kB.
_CHUNK = _STENCIL * _BLOCK


def _pin_allocator() -> None:
    """Set glibc's mmap and trim thresholds to ``_MMAP_THRESHOLD`` and
    ``_TRIM_THRESHOLD``; a no-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_allocator()


def _rule(nodes: list[float], weights: list[float]):
    """A read-only (nodes, weights) pair."""
    pair = (np.array(nodes), np.array(weights))
    for a in pair:
        a.setflags(write=False)
    return pair


# Gauss-Legendre nodes and weights on [-1, 1] of the rules in use.  The
# 4-point table is scipy.special.roots_legendre's to the last bit (within one
# ulp of the exact values); the 12-, 16-, 24- and 32-point tables are the
# exact values correctly rounded from 50 digits (Newton's iteration on the
# Legendre polynomial)
_GAUSS_RULES = {
    _COARSE_ORDER: _rule(
        [-0.8611363115940526, -0.3399810435848563,
         0.3399810435848563, 0.8611363115940526],
        [0.3478548451374538, 0.6521451548625462,
         0.6521451548625462, 0.3478548451374538]),
    12: _rule(
        [-0.9815606342467192, -0.9041172563704749, -0.7699026741943047,
         -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
         0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
         0.7699026741943047, 0.9041172563704749, 0.9815606342467192],
        [0.04717533638651183, 0.10693932599531843, 0.16007832854334622,
         0.20316742672306592, 0.2334925365383548, 0.24914704581340277,
         0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
         0.16007832854334622, 0.10693932599531843, 0.04717533638651183]),
    16: _rule(
        [-0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
         -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
         -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
         0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
         0.755404408355003, 0.8656312023878318, 0.9445750230732326,
         0.9894009349916499],
        [0.027152459411754096, 0.062253523938647894, 0.09515851168249279,
         0.12462897125553388, 0.14959598881657674, 0.16915651939500254,
         0.18260341504492358, 0.1894506104550685, 0.1894506104550685,
         0.18260341504492358, 0.16915651939500254, 0.14959598881657674,
         0.12462897125553388, 0.09515851168249279, 0.062253523938647894,
         0.027152459411754096]),
    24: _rule(
        [-0.9951872199970213, -0.9747285559713095, -0.9382745520027328,
         -0.8864155270044011, -0.820001985973903, -0.7401241915785544,
         -0.6480936519369755, -0.5454214713888396, -0.4337935076260451,
         -0.3150426796961634, -0.1911188674736163, -0.06405689286260563,
         0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
         0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
         0.7401241915785544, 0.820001985973903, 0.8864155270044011,
         0.9382745520027328, 0.9747285559713095, 0.9951872199970213],
        [0.0123412297999872, 0.028531388628933663, 0.04427743881741981,
         0.05929858491543678, 0.0733464814110803, 0.08619016153195327,
         0.09761865210411388, 0.10744427011596563, 0.1155056680537256,
         0.12167047292780339, 0.1258374563468283, 0.12793819534675216,
         0.12793819534675216, 0.1258374563468283, 0.12167047292780339,
         0.1155056680537256, 0.10744427011596563, 0.09761865210411388,
         0.08619016153195327, 0.0733464814110803, 0.05929858491543678,
         0.04427743881741981, 0.028531388628933663, 0.0123412297999872]),
    32: _rule(
        [-0.9972638618494816, -0.9856115115452684, -0.9647622555875064,
         -0.9349060759377397, -0.8963211557660521, -0.84936761373257,
         -0.7944837959679424, -0.7321821187402897, -0.6630442669302152,
         -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
         -0.33186860228212767, -0.23928736225213706, -0.1444719615827965,
         -0.04830766568773832, 0.04830766568773832, 0.1444719615827965,
         0.23928736225213706, 0.33186860228212767, 0.42135127613063533,
         0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
         0.7321821187402897, 0.7944837959679424, 0.84936761373257,
         0.8963211557660521, 0.9349060759377397, 0.9647622555875064,
         0.9856115115452684, 0.9972638618494816],
        [0.007018610009470096, 0.01627439473090567, 0.02539206530926206,
         0.03427386291302143, 0.04283589802222668, 0.050998059262376175,
         0.058684093478535544, 0.06582222277636185, 0.0723457941088485,
         0.07819389578707031, 0.08331192422694675, 0.08765209300440381,
         0.09117387869576389, 0.09384439908080457, 0.09563872007927486,
         0.0965400885147278, 0.0965400885147278, 0.09563872007927486,
         0.09384439908080457, 0.09117387869576389, 0.08765209300440381,
         0.08331192422694675, 0.07819389578707031, 0.0723457941088485,
         0.06582222277636185, 0.058684093478535544, 0.050998059262376175,
         0.04283589802222668, 0.03427386291302143, 0.02539206530926206,
         0.01627439473090567, 0.007018610009470096]),
}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] (read-only) for n = 4, the
    coarse rule's order, or n = 12, 16, 24 or 32, the fine rule's."""
    return _GAUSS_RULES[n]


def lagrange_uniform(values: np.ndarray, x0: float, dx: float,
                     xq: np.ndarray) -> np.ndarray:
    """Local Lagrange interpolation of samples on the uniform grid x0 + k*dx.

    Uses a sliding window of ``_STENCIL`` nodes centred on each query; windows
    are clamped at the grid ends.  Queries that land exactly on a node return
    the sample itself (no 0/0).  Queries are evaluated ``_BLOCK`` at a time.
    """
    values = np.asarray(values)
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    if values.shape[0] < _STENCIL:
        raise ValueError(f"need at least {_STENCIL} samples")

    out = np.empty(xq.shape[0], dtype=values.dtype)
    for start in range(0, xq.shape[0], _BLOCK):
        stop = start + _BLOCK
        _lagrange_block(values, x0, dx, xq[start:stop], out[start:stop])
    return out[0] if scalar else out


def _lagrange_block(values: np.ndarray, x0: float, dx: float, xq: np.ndarray,
                    out: np.ndarray) -> None:
    """``lagrange_uniform`` of one block of queries, written into ``out``."""
    n = values.shape[0]
    pos = (xq - x0) / dx
    i0 = np.floor(pos).astype(np.int64) - (_STENCIL // 2 - 1)
    np.clip(i0, 0, n - _STENCIL, out=i0)
    w = _lagrange_weights(pos - i0)                # positions in [0, 7]
    gathered = values[i0[:, None] + np.arange(_STENCIL)[None, :]]
    np.einsum("ij,ij->i", w.astype(gathered.dtype, copy=False), gathered,
              out=out)


def _lagrange_weights(d: np.ndarray) -> np.ndarray:
    """(len(d), ``_STENCIL``) weights of the stencil at the positions d,
    counted in grid steps from its first node.

    w_j = prod_{l != j} (d - l) / (j - l): the full product divided per
    node.  A position on a node takes that node's sample (no 0/0)."""
    diffs = d[:, None] - np.arange(_STENCIL, dtype=float)[None, :]
    on_node = np.abs(diffs) < 1e-12
    safe = np.where(on_node, 1.0, diffs)
    full = np.prod(safe, axis=1)
    w = full[:, None] / (safe * _DENOMINATORS[None, :])
    hit = on_node.any(axis=1)
    if hit.any():
        w[hit] = np.where(on_node[hit], 1.0, 0.0)
    return w


def lagrange_cells(values: np.ndarray, first: int, n_cells: int,
                   offsets: np.ndarray) -> np.ndarray:
    """``lagrange_uniform`` at the same in-cell offsets of consecutive grid
    cells: row c, column k holds the interpolant at (first + c + offsets[k])
    grid steps from the first sample, for c < n_cells and offsets in [0, 1).
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=float)
    out = np.empty((n_cells, offsets.size), dtype=values.dtype)
    _cells_into(values, first, offsets, out)
    return out


def _cells_into(values: np.ndarray, first: int, offsets: np.ndarray,
                out: np.ndarray) -> None:
    """``lagrange_cells`` written into ``out`` (one row per cell).

    The weights of a query depend only on its offset and on its stencil's
    shift: 3 nodes left of the cell inside the grid, fewer where the stencil
    is clamped at a grid end.  So one (offsets x stencil) table serves every
    cell of one shift.  The cells' stencils are read as a view of the
    samples and contracted with the real table by a real matrix product;
    complex samples enter as their (re, im) pairs, through the Kronecker
    product of the table with the 2 x 2 identity, so nothing is cast to
    complex.  Each product yields at most about ``_BLOCK`` values: that
    keeps the table and the result small, and the BLAS call on one thread.
    """
    n, (n_cells, n_off) = values.shape[0], out.shape
    if n < _STENCIL:
        raise ValueError(f"need at least {_STENCIL} samples")
    if first < 0 or first + n_cells > n - 1:
        raise ValueError(f"cells {first}..{first + n_cells - 1} are not all "
                         f"inside the grid of {n} samples")
    cpx = np.iscomplexobj(values)
    r = 2 if cpx else 1
    flat = np.ascontiguousarray(values, dtype=complex if cpx else float)
    # stencils[i]: the samples of the stencil from node i, as a view
    stencils = sliding_window_view(flat.view(float), r * _STENCIL)[::r]
    res = out.view(float).reshape(n_cells, r * n_off)

    cells = np.arange(first, first + n_cells)
    i0 = np.clip(cells - (_STENCIL // 2 - 1), 0, n - _STENCIL)
    shift = cells - i0
    # the shift does not decrease with the cell: one run of rows per shift,
    # whose stencils start at consecutive nodes
    cuts = np.flatnonzero(np.diff(shift)) + 1
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), n_cells]):
        lead = int(i0[a]) - a
        for k0 in range(0, n_off, _BLOCK):
            k1 = min(k0 + _BLOCK, n_off)
            table = np.kron(_lagrange_weights(shift[a] + offsets[k0:k1]).T,
                            np.eye(r))
            rows = max(1, _BLOCK // (k1 - k0))
            for c0 in range(a, b, rows):
                c1 = min(c0 + rows, b)
                np.matmul(stencils[lead + c0:lead + c1], table,
                          out=res[c0:c1, r * k0:r * k1])


def lagrange_on_rule(values: np.ndarray, x0: float, dx: float,
                     edges: np.ndarray, counts: np.ndarray,
                     orders: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``lagrange_uniform`` at ``nodes``, the nodes of ``refined_cells(edges,
    counts, orders)`` in its order, which both take from ``_GAUSS_RULES``.

    ``edges[1:-1]`` must be grid points x0 + k dx; the end edges may lie
    inside their grid cells (a band clipped to a support or a cap).  The
    nodes of one (count, order) pair sit at the same offsets in every whole
    cell, so each run of consecutive whole cells with one pair is read by
    ``lagrange_cells`` at those offsets, one weight table per run.  The two
    end cells, clipped or not, are read per query at their nodes.
    """
    counts = np.maximum(np.asarray(counts, dtype=np.int64), 1)
    orders = np.asarray(orders)
    last = counts.size - 1
    # grid index of edges[1], the first edge on the grid
    grid1 = round((edges[min(1, last)] - x0) / dx)
    out = np.empty(nodes.size, dtype=np.asarray(values).dtype)
    pos = 0
    for n_gl in [n for n in _GAUSS_RULES if (orders == n).any()]:
        xg, _ = gauss_rule(n_gl)
        idx = np.flatnonzero(orders == n_gl)
        c = counts[idx]
        # runs break where the cells stop being consecutive or change count,
        # and around the end cells, which stand alone
        lone = (idx == 0) | (idx == last)
        brk = (np.diff(idx) != 1) | (np.diff(c) != 0) | lone[1:] | lone[:-1]
        cuts = (np.flatnonzero(brk) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, idx.size]):
            j, count = int(idx[a]), int(c[a])
            size = (b - a) * count * n_gl
            if lone[a]:
                out[pos:pos + size] = lagrange_uniform(
                    values, x0, dx, nodes[pos:pos + size])
            else:
                offsets = (np.arange(count)[:, None]
                           + 0.5 * (xg[None, :] + 1.0)) / count
                _cells_into(values, grid1 + j - 1, offsets.ravel(),
                            out[pos:pos + size].reshape(b - a, -1))
            pos += size
    return out


def refined_cells(edges: np.ndarray, counts: np.ndarray,
                  orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights subdividing each [edges[j], edges[j+1]] into
    counts[j] equal sub-cells carrying an orders[j]-point Gauss rule.

    The nodes come grouped by order, in the key order of ``_GAUSS_RULES``
    (ascending), and each group in cell order.  In the row form (``edges``
    of shape (P, n+1), ``counts`` and ``orders`` of shape (P, n)) the rows'
    nodes follow one another, each row laid out as a one-row call lays it
    out and computed by the same operations.
    """
    edges = np.asarray(edges, dtype=float)
    counts = np.maximum(np.asarray(counts, dtype=np.int64), 1)
    orders = np.asarray(orders)
    widths = np.diff(edges) / counts
    groups = [n for n in _GAUSS_RULES if (orders == n).any()]
    nodes, weights = [], []
    for n_gl in groups:
        sel = orders == n_gl
        c = counts[sel]
        # sub-cell left endpoints: index of each sub-cell within its grid cell
        starts = np.repeat(edges[..., :-1][sel], c)
        sub_w = np.repeat(widths[sel], c)
        first = np.cumsum(c) - c
        within = (np.arange(c.sum()) - np.repeat(first, c)).astype(float)
        lefts = starts + within * sub_w

        xg, wg = gauss_rule(n_gl)
        half = sub_w[:, None] / 2.0
        nodes.append((lefts[:, None] + (xg[None, :] + 1.0) * half).ravel())
        weights.append((wg[None, :] * half).ravel())
    # each group holds the rows one after another; each row takes its run
    # of every group in turn
    size = np.array([(counts * (orders == n_gl)).sum(axis=-1) * n_gl
                     for n_gl in groups]).reshape(len(groups), -1).T.tolist()
    runs, ends = [], [0] * len(groups)
    for row in size:
        for k, n in enumerate(row):
            runs.append((k, ends[k], ends[k] + n))
            ends[k] += n
    return tuple(np.concatenate([part[k][a:b] for k, a, b in runs])
                 for part in (nodes, weights))


def _touch_scale(q: float, m: float) -> float:
    """(8 |q| / pi)**(1/m), the sub-cells per unit width that a cell
    touching xi = 0 needs for m < 1; +inf past the doubles, so that the node
    budget check refuses the cell (as ``evolve._damping_cap`` does)."""
    try:
        return (8.0 * abs(q) / math.pi) ** (1.0 / m)
    except OverflowError:
        return math.inf


def phase_counts(edges: np.ndarray, lin, quad, damp,
                 m: float) -> tuple[np.ndarray, np.ndarray]:
    """(sub-cell counts, Gauss orders) of the grid cells [edges[j], edges[j+1]]
    for the integrand of ``oscillatory_quadrature``.

    A cell whose phase and damping-exponent change c is at most pi/8, or
    that touches xi = 0 (where |xi|**m is not smooth unless m is even),
    keeps the coarse rule: 4-point Gauss on sub-cells of at most pi/8
    change, and at least one sub-cell.  Every other cell takes the fine
    rule: one sub-cell of the smallest order n in (12, 16, 24, 32) whose
    budget c_n (``_FINE_BUDGETS``) is at least c, or ceil(c / c_32) equal
    sub-cells of 32 points past c_32.  The Gauss-Legendre remainder
    (b-a)**(2n+1) (n!)**4 / ((2n+1) ((2n)!)**3) |f**(2n)| (Davis & Rabinowitz,
    Methods of Numerical Integration, 1984) bounds the error of exp(i theta s)
    on one sub-cell of change c by c**(2n) (n!)**4 / ((2n+1) ((2n)!)**3) of
    the sub-cell width: 3e-13 for the coarse rule, and for the fine rule at
    most 1.3e-19, its value at 12 points on c_12 = 2 pi, since each c_n is
    the change at which the n-point bound reaches that value.  So a fine
    cell gets at least 12 nodes, and from 6 nodes per pi of change (12 on
    2 pi) down to 2 (32 on c_32 = 49.66) where the coarse rule needs 32.

    Row form: ``lin``, ``quad`` and ``damp`` of shape (P,), with ``edges``
    of shape (P, n+1), or (n+1,) shared by every row.  Counts and orders
    then have shape (P, n), and row p equals a one-row call with row p's
    values: every cell is computed by the same operations.

    For m >= 1 and nondecreasing edges, each cell's count and order are
    nondecreasing in |lin|, |quad| and damp, since both are nondecreasing
    in the change: ``evolve.direct_quadrature`` relies on this guarantee
    (the argument is in its docstring).

    Raises ``ResolutionError`` when these sub-cells need more than
    ``_MAX_NODES`` nodes, naming the first such row in the row form; nothing
    is allocated for them first.
    """
    rows = np.ndim(lin) > 0
    edges = np.asarray(edges, dtype=float)
    lin, quad, damp = (np.asarray(v, dtype=float).reshape(-1, 1)
                       for v in (lin, quad, damp))
    left, right = edges[..., :-1], edges[..., 1:]
    ap = np.abs(edges) ** m
    apl, apr = ap[..., :-1], ap[..., 1:]
    # across a cell straddling 0, |xi|**m varies by |left|**m + |right|**m,
    # summed there alone: elsewhere the sum may overflow
    dpow = np.abs(apr - apl)
    np.add(apl, apr, out=dpow, where=(left < 0) & (right > 0))
    # (rows x cells) arrays are updated in place, which rounds the same
    change = np.abs(lin) * (right - left)
    change += np.abs(quad) * dpow
    if damp.any():
        np.add(change, damp * dpow, out=change, where=damp != 0.0)
    counts = change / _PHASE_BUDGET
    np.ceil(counts, out=counts)
    # the cells touching 0 (left <= 0 <= right) keep the coarse rule
    touch = (left <= 0.0) & (right >= 0.0)
    if m < 1.0 and touch.any():
        # cells touching 0: uniform subdivision must shrink the first
        # sub-cell's |xi|**m variation below the budget; the factor is a
        # Python float per row, as in a one-row call
        r, c = np.nonzero(np.broadcast_to(touch, counts.shape))
        scale = np.array([_touch_scale(q, m) for q in quad.ravel().tolist()])
        w = np.broadcast_to(right - left, counts.shape)[r, c]
        counts[r, c] = np.maximum(counts[r, c], np.ceil(w * scale[r]))
    fine = counts > 1.0
    fine &= ~touch
    np.maximum(counts, 1.0, out=counts)
    # the smallest fine order whose budget covers the change, on
    # ceil(change / c_32) sub-cells: one up to c_32
    level = np.searchsorted(_FINE_BUDGETS[:-1], change)
    orders = np.where(fine, np.take(_FINE_ORDERS, level), _COARSE_ORDER)
    np.divide(change, _FINE_BUDGETS[-1], out=change)
    np.copyto(counts, np.ceil(change, out=change), where=fine)
    n_nodes = (counts * orders).sum(axis=-1)
    over = np.flatnonzero(~(n_nodes <= _MAX_NODES))
    if over.size:
        i = int(over[0])
        row = f" row {i}" if rows else ""
        raise ResolutionError(
            f"oscillatory quadrature{row} needs {n_nodes[i]:.0f} nodes, more "
            f"than the limit of {_MAX_NODES}")
    counts = counts.astype(np.int64)
    return (counts, orders) if rows else (counts[0], orders[0])


def node_set(edges: np.ndarray, counts: np.ndarray, orders: np.ndarray,
             amp: Callable[[np.ndarray], np.ndarray], m: float):
    """(nodes, weights, |nodes|**m, amp(nodes)) of the rule that
    ``phase_counts`` chose: ``orders[j]``-point Gauss on ``counts[j]`` equal
    sub-cells of each grid cell, one row after another in the row form.
    This is everything of the integrand that does not depend on ``lin``,
    ``quad`` or ``damp``."""
    nodes, weights = refined_cells(edges, counts, orders)
    return nodes, weights, np.abs(nodes) ** m, amp(nodes)


def _unit_phase(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """exp(i phase) of the real array phase = a, bit for bit as
    ``np.exp(1j * phase)`` gives it: built as (1, phase + 0.0) when every
    |phase| is below ``_SMALL_PHASE`` (see ``oscillatory_sum``; the + 0.0
    turns -0 into +0, as 1j * -0.0 does), and by ``np.exp`` when any phase
    is larger or NaN.

    With ``b``, phase is the rounded sum a + b, and the ``np.exp`` branch
    returns exp(i phase) (1 + i err), with err the rounding error of that
    sum (TwoSum): exp(i (a + b)) to first order in err, which is at most
    half an ulp of the phase."""
    phase = a if b is None else a + b
    # the first phase settles most large-phase calls without a pass over
    # the array
    if not (phase.size and abs(phase.flat[0]) < _SMALL_PHASE
            and (np.abs(phase) < _SMALL_PHASE).all()):
        out = np.exp(1j * phase)
        if b is not None:
            tail = phase - a             # TwoSum: a + b = phase + err
            err = phase - tail
            np.subtract(a, err, out=err)
            np.subtract(b, tail, out=tail)
            err += tail
            shift = err * out.imag
            out.imag += err * out.real
            out.real -= shift
        return out
    out = np.empty(phase.shape, dtype=complex)
    out.real = 1.0
    np.add(phase, 0.0, out=out.imag)
    return out


def oscillatory_sum(nodes: np.ndarray, weights: np.ndarray,
                    abs_pow: np.ndarray, a: np.ndarray, lin, quad, damp,
                    sizes: np.ndarray | None = None, *,
                    mirrored: bool = False):
    """sum over a ``node_set`` of

        weight * amp * exp(i (lin xi + quad |xi|^m)) * exp(-damp |xi|^m)

    ``lin``, ``quad`` and ``damp`` are numbers, or arrays of one value per
    node.  With ``sizes``, the node set holds rows of ``sizes[p]`` nodes
    each, and the result is an array of one sum per row: each row is summed
    as a one-row call sums it, so the two are equal.

    Each term is amp * u, written into u, with u the unit phase factor, then
    times the damping factor, then times the weight.  Every step is
    elementwise and takes its operands in that order whatever the array's
    size: numpy writes a bare product of 256 KiB or more (16384 complex
    values) into a temporary operand, and into the right one it swaps the
    operands, which rounds the imaginary part differently.  A node set of
    at most ``_CHUNK`` nodes builds its terms at once and sums each row by
    ``np.sum``.  A larger one builds and sums each row's terms in leaves of
    at most ``_CHUNK`` nodes (``_pairwise_sum``), which split the row as
    numpy's pairwise summation splits it; so the sum is ``np.sum`` of the
    row's terms, bit for bit, and a point's temporaries beside its node set
    are those of one leaf.

    With ``mirrored``, each node xi >= 0 also stands for -xi, for an even
    amplitude: the two terms add up to

        weight * 2 amp cos(lin xi) * exp(i quad |xi|^m) * exp(-damp |xi|^m)

    which is what is summed.  A negative node raises ``ValueError``.

    A set of terms built at once (a leaf, or a node set of at most
    ``_CHUNK`` nodes) whose phases phi = lin xi + quad |xi|^m all lie below
    2**-27 in modulus (the oracle at the tiny witness times, where y = 0)
    takes exp(i phi) = (1, phi) with no transcendental.  That is the
    correctly rounded value: phi**2 / 2 < 2**-55, so cos(phi) rounds to 1,
    and |phi|**3 / 6 < |phi| 2**-54 / 6 is below half an ulp of phi, so
    sin(phi) rounds to phi (subnormal phi included).  glibc's complex
    exponential returns the same bits, so the sum equals the ``np.exp`` one
    bit for bit.  Every other set of terms evaluates ``np.exp``.  The
    damping factor is computed as before in both cases.

    Without ``mirrored``, the ``np.exp`` branch compensates the phase sum:
    it multiplies exp(i phi) by (1 + i err), with err the exact rounding
    error of phi = lin xi + quad |xi|^m (``_unit_phase``).  On a fast cell
    the fine rule spends few nodes per radian, each of large weight, so the
    half-ulp rounding of a large phi, different at xi and -xi, shows in the
    sum: without it a one-sided pair of rows is off the mirrored row, which
    rounds only the products, by up to 1.4e-14 of the amplitude's mass on
    the fast rows of the mirrored test, and within 2.4e-15 with it.  At the
    small phases the factor leaves each value as it was, bit for bit,
    whichever branch a row or a leaf takes.
    """
    if mirrored and (nodes < 0.0).any():
        raise ValueError("a mirrored rule needs nonnegative nodes")
    point = (nodes, weights, abs_pow, a, lin, quad, damp, mirrored)
    rows = [nodes.size] if sizes is None else np.asarray(sizes).tolist()
    ends = list(itertools.accumulate(rows))
    if nodes.size <= _CHUNK:
        terms = _terms(*point)
        sums = [np.sum(terms[e - n:e]) for n, e in zip(rows, ends)]
    else:
        sums = [_pairwise_sum(point, e - n, n) for n, e in zip(rows, ends)]
    return sums[0] if sizes is None else np.array(sums, dtype=complex)


def _pairwise_sum(point: tuple, start: int, n: int) -> np.complex128:
    """``np.sum`` of the ``n`` terms of ``oscillatory_sum`` from node
    ``start`` on (``point`` holds its arguments), built and summed in
    leaves of at most ``_CHUNK`` nodes.

    numpy sums a contiguous complex range of more than 64 values as two
    halves, the first rounded down to a multiple of 4 values, and adds the
    halves' real and imaginary parts; this splits the same way, so the
    result is the whole array's ``np.sum`` bit for bit (see the module
    docstring).  A module-level function, not a closure that calls itself:
    such a closure is a reference cycle, which keeps the point's node set
    alive until the cyclic collector runs."""
    if n <= _CHUNK:
        leaf = slice(start, start + n)
        return np.sum(_terms(*(v[leaf] if np.ndim(v) else v for v in point)))
    half = n // 8 * 4
    return (_pairwise_sum(point, start, half)
            + _pairwise_sum(point, start + half, n - half))


def _terms(nodes, weights, abs_pow, a, lin, quad, damp,
           mirrored) -> np.ndarray:
    """The terms that ``oscillatory_sum`` adds up, one per node."""
    if mirrored:
        amp, unit = 2.0 * a * np.cos(lin * nodes), _unit_phase(quad * abs_pow)
    else:
        amp, unit = a, _unit_phase(lin * nodes, quad * abs_pow)
    # in this operand order at every size (see oscillatory_sum)
    integrand = np.multiply(amp, unit, out=unit)
    if np.ndim(damp) or damp:
        # nodes of undamped rows keep their value, as in a one-row call
        np.multiply(integrand, np.exp(-damp * abs_pow), out=integrand,
                    where=damp != 0.0)
    return integrand * weights


def _chunks(sizes: list[int]):
    """[a, b) ranges of consecutive rows with at most ``_CHUNK`` nodes in
    all; a row with more forms a chunk of its own."""
    a, total = 0, 0
    for p, n in enumerate(sizes):
        if total and total + n > _CHUNK:
            yield a, p
            a, total = p, 0
        total += n
    if a < len(sizes):
        yield a, len(sizes)


def oscillatory_quadrature(edges: np.ndarray,
                           amp: Callable[[np.ndarray, np.ndarray], np.ndarray],
                           lin, quad, damp, m: float, *,
                           mirrored: bool = False) -> np.ndarray:
    """P integrals: row p is the integral over [edges[p, 0], edges[p, -1]] of

        amp(xi, p) exp(i (lin[p] xi + quad[p] |xi|^m)) exp(-damp[p] |xi|^m) dxi

    for ``edges`` of shape (P, n+1), nondecreasing along each row (the
    caller clips them to the live band), and ``lin``, ``quad``, ``damp`` of
    shape (P,).  ``amp(nodes, row)`` gives the amplitude at nodes of the
    rows ``row``: an array of one row index per node, or the index alone
    when every node is of that row.

    With ``mirrored``, row p integrates over its edges and their mirror
    image [-edges[p, -1], -edges[p, 0]], for an amplitude even in xi: as
    ``oscillatory_sum`` sums it, one cosine row on the positive side, with
    half the nodes of the two one-sided rows.  The rule stays the positive
    side's: the cell change |lin| w + |quad| (change of |xi|^m) that
    ``phase_counts`` budgets bounds the change of both exp(i (+-lin xi +
    quad |xi|^m)), so its remainder bound holds for each of the two terms.
    A negative edge raises ``ValueError``.

    Each row takes the mixed rule of ``phase_counts``: 4-point Gauss on
    sub-cells of at most pi/8 phase and damping-exponent change where a grid
    cell changes that little or touches xi = 0, and elsewhere one sub-cell
    of the fewest points (12, 16, 24 or 32) whose remainder bound covers the
    cell's change, or 32-point sub-cells past c_32.  The counts of every row
    come first, so a row past ``_MAX_NODES`` raises before any node is
    built.  Then consecutive rows are integrated ``_CHUNK`` nodes at a time,
    each row's nodes laid out and summed as in a one-row call.  A row of
    more than ``_CHUNK`` nodes is a chunk of its own, and ``oscillatory_sum``
    builds and sums its terms in leaves of at most ``_CHUNK`` nodes, to the
    same bits as ``np.sum`` over all of them.
    """
    if mirrored and (np.asarray(edges) < 0.0).any():
        raise ValueError("a mirrored rule needs nonnegative edges")
    lin, quad, damp = (np.asarray(v, dtype=float) for v in (lin, quad, damp))
    counts, orders = phase_counts(edges, lin, quad, damp, m)
    sizes = (counts * orders).sum(axis=1)
    out = np.empty(sizes.size, dtype=complex)
    for a, b in _chunks(sizes.tolist()):
        # a one-row chunk (a row past _CHUNK among them) takes the row's
        # scalars: a gather would cost 32 bytes per node beside the node set
        row = a if b - a == 1 else np.repeat(np.arange(a, b), sizes[a:b])
        rule = node_set(edges[a:b], counts[a:b], orders[a:b],
                        lambda xi: amp(xi, row), m)
        out[a:b] = oscillatory_sum(*rule, lin[row], quad[row], damp[row],
                                   sizes[a:b], mirrored=mirrored)
    return out
