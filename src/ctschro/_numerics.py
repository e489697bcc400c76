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
# the fine rule: 12-point Gauss on sub-cells of at most 2 pi change
_FINE_BUDGET = 2.0 * math.pi
_FINE_ORDER = 12
# below this phase modulus exp(i phase) rounds to (1, phase) (_unit_phase)
_SMALL_PHASE = 2.0 ** -27
# largest node count of one oscillatory quadrature: 32 MB per float array of
# nodes, three times the largest count the test suite needs (1.33 M) and far
# below the tens of GB an undamped high-frequency query would ask for
_MAX_NODES = 2 ** 22
# interpolation queries per block: a block's (queries x 8) temporaries are
# 128-256 kB, and the cell form yields at most about _BLOCK values per matrix
# product (see the module docstring).  Freed blocks of any size below
# _MMAP_THRESHOLD stay in the heap under the allocator policy below.
_BLOCK = 2 ** 11
# glibc's allocator policy, set once at import by _pin_allocator.  Every
# evaluation point allocates MB-sized temporaries: node sets and the
# oscillatory integrand (tens of bytes per node), chirp-z buffers of a few
# MB per slice.  glibc serves a request above M_MMAP_THRESHOLD by a mapping
# of its own, unmapped when freed, and hands free memory above
# M_TRIM_THRESHOLD at the top of its heap back to the system.  The default
# thresholds (128 kB, raised only after a large block is freed) make each
# such temporary fault its pages in anew at every point: about 180 k minor
# faults per in-process repetition of the 100-point agreement benchmark.
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


# Gauss-Legendre nodes and weights on [-1, 1] of the two rules in use, to the
# last bit as scipy.special.roots_legendre computes them
_GAUSS_RULES = {
    _COARSE_ORDER: _rule(
        [-0.8611363115940526, -0.3399810435848563,
         0.3399810435848563, 0.8611363115940526],
        [0.3478548451374538, 0.6521451548625462,
         0.6521451548625462, 0.3478548451374538]),
    _FINE_ORDER: _rule(
        [-0.9815606342467192, -0.9041172563704749, -0.7699026741943047,
         -0.5873179542866175, -0.36783149899818013, -0.12523340851146897,
         0.12523340851146897, 0.36783149899818013, 0.5873179542866175,
         0.7699026741943047, 0.9041172563704749, 0.9815606342467192],
        [0.04717533638651319, 0.10693932599531782, 0.16007832854334608,
         0.20316742672306573, 0.2334925365383547, 0.2491470458134026,
         0.2491470458134026, 0.2334925365383547, 0.20316742672306573,
         0.16007832854334608, 0.10693932599531782, 0.04717533638651319]),
}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] (read-only) for n = 4 or 12,
    the orders of the coarse and the fine rule."""
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
    counts, orders)``.

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
    for n_gl in np.unique(orders).tolist():
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

    The nodes come grouped by order, smallest order first, and each group in
    cell order; with a single order that is plain cell order.  In the row
    form (``edges`` of shape (P, n+1), ``counts`` and ``orders`` of shape
    (P, n)) the rows' nodes follow one another, each row laid out as a
    one-row call lays it out and computed by the same operations.
    """
    edges = np.asarray(edges, dtype=float)
    counts = np.maximum(np.asarray(counts, dtype=np.int64), 1)
    orders = np.asarray(orders)
    widths = np.diff(edges) / counts
    groups = np.unique(orders).tolist()
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


def phase_counts(edges: np.ndarray, lin, quad, damp,
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

    Row form: ``lin``, ``quad`` and ``damp`` of shape (P,), with ``edges``
    of shape (P, n+1), or (n+1,) shared by every row.  Counts and orders
    then have shape (P, n), and row p equals a one-row call with row p's
    values: every cell is computed by the same operations.

    For m >= 1 and nondecreasing edges, each cell's count and order are
    nondecreasing in |lin|, |quad| and damp: ``evolve.direct_quadrature``
    relies on this guarantee (the argument is in its docstring).

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
    # across a cell straddling 0, |xi|**m varies by |left|**m + |right|**m
    dpow = np.where((left < 0) & (right > 0), apl + apr, np.abs(apr - apl))
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
        scale = np.array([(8.0 * abs(q) / math.pi) ** (1.0 / m)
                          for q in quad.ravel().tolist()])
        w = np.broadcast_to(right - left, counts.shape)[r, c]
        counts[r, c] = np.maximum(counts[r, c], np.ceil(w * scale[r]))
    fine = counts > 1.0
    fine &= ~touch
    np.maximum(counts, 1.0, out=counts)
    np.divide(change, _FINE_BUDGET, out=change)
    np.copyto(counts, np.ceil(change, out=change), where=fine)
    orders = np.where(fine, _FINE_ORDER, _COARSE_ORDER)
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


def _unit_phase(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) of a real array, bit for bit as ``np.exp(1j * phase)``
    gives it: built as (1, phase + 0.0) when every |phase| is below
    ``_SMALL_PHASE`` (see ``oscillatory_sum``; the + 0.0 turns -0 into +0,
    as 1j * -0.0 does), and by ``np.exp`` when any phase is larger or
    NaN."""
    # the first phase settles most large-phase calls without a pass over
    # the array
    if not (phase.size and abs(phase.flat[0]) < _SMALL_PHASE
            and (np.abs(phase) < _SMALL_PHASE).all()):
        return np.exp(1j * phase)
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
    by its own ``np.sum``, so it equals the sum of a one-row call.

    With ``mirrored``, each node xi >= 0 also stands for -xi, for an even
    amplitude: the two terms add up to

        weight * 2 amp cos(lin xi) * exp(i quad |xi|^m) * exp(-damp |xi|^m)

    which is what is summed.  A negative node raises ``ValueError``.

    A call whose phases phi = lin xi + quad |xi|^m all lie below 2**-27 in
    modulus (the oracle at the tiny witness times, where y = 0) takes
    exp(i phi) = (1, phi) with no transcendental.  That is the correctly
    rounded value: phi**2 / 2 < 2**-55, so cos(phi) rounds to 1, and
    |phi|**3 / 6 < |phi| 2**-54 / 6 is below half an ulp of phi, so sin(phi)
    rounds to phi (subnormal phi included).  glibc's complex exponential
    returns the same bits, so the sum equals the ``np.exp`` one bit for bit.
    Every other call evaluates ``np.exp``.  The damping factor is computed
    as before in both cases.
    """
    if mirrored:
        if (nodes < 0.0).any():
            raise ValueError("a mirrored rule needs nonnegative nodes")
        integrand = (2.0 * a * np.cos(lin * nodes)) * _unit_phase(
            quad * abs_pow)
    else:
        # a named amplitude keeps numpy from writing the product into it in
        # place, which would change the operand order and the rounding
        integrand = a * _unit_phase(lin * nodes + quad * abs_pow)
    if np.ndim(damp) or damp:
        # nodes of undamped rows keep their value, as in a one-row call
        np.multiply(integrand, np.exp(-damp * abs_pow), out=integrand,
                    where=damp != 0.0)
    terms = integrand * weights
    if sizes is None:
        return np.sum(terms)
    ends = np.cumsum(sizes).tolist()
    return np.array([np.sum(terms[e - n:e])
                     for n, e in zip(np.asarray(sizes).tolist(), ends)],
                    dtype=complex)


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
    rows ``row``.

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
    cell changes that little or touches xi = 0, 12-point Gauss on sub-cells
    of at most 2 pi change elsewhere.  The counts of every row come first,
    so a row past ``_MAX_NODES`` raises before any node is built.  Then
    consecutive rows are integrated ``_CHUNK`` nodes at a time, each row's
    nodes laid out and summed as in a one-row call.
    """
    if mirrored and (np.asarray(edges) < 0.0).any():
        raise ValueError("a mirrored rule needs nonnegative edges")
    lin, quad, damp = (np.asarray(v, dtype=float) for v in (lin, quad, damp))
    counts, orders = phase_counts(edges, lin, quad, damp, m)
    sizes = (counts * orders).sum(axis=1)
    out = np.empty(sizes.size, dtype=complex)
    for a, b in _chunks(sizes.tolist()):
        row = np.repeat(np.arange(a, b), sizes[a:b])
        rule = node_set(edges[a:b], counts[a:b], orders[a:b],
                        lambda xi: amp(xi, row), m)
        out[a:b] = oscillatory_sum(*rule, lin[row], quad[row], damp[row],
                                   sizes[a:b], mirrored=mirrored)
    return out
