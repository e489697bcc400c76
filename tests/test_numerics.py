import math

import numpy as np
import pytest

import ctschro._numerics as numerics
from ctschro._numerics import lagrange_uniform, phase_counts, refined_cells


# ---------------------------------------------------------------------------
# the mixed Gauss rule
# ---------------------------------------------------------------------------

def _coarse_counts(edges, lin, quad, damp, m):
    """The pi/8 x 4-point rule's sub-cell counts, written out from its
    definition: phase plus damping-exponent change over pi/8, rounded up,
    the m < 1 rule for cells touching 0, and at least one sub-cell."""
    left, right = edges[:-1], edges[1:]
    var = np.where((left < 0) & (right > 0),
                   np.abs(left) ** m + np.abs(right) ** m,
                   np.abs(np.abs(right) ** m - np.abs(left) ** m))
    change = abs(lin) * (right - left) + (abs(quad) + damp) * var
    counts = np.ceil(change / (math.pi / 8))
    touch = (left <= 0) & (right >= 0)
    if m < 1.0:
        need = np.ceil((right - left) * (8 * abs(quad) / math.pi) ** (1 / m))
        counts = np.where(touch, np.maximum(counts, need), counts)
    return np.maximum(counts, 1), change, touch


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_slow_and_zero_touching_cells_keep_the_coarse_rule(m):
    edges = np.concatenate([np.linspace(-1.0, 0.0, 9),
                            np.linspace(0.05, 3.0, 30)])
    for lin, quad, damp in ((0.0, 0.0, 0.0), (1.2, 0.05, 0.0), (3.0, 0.5, 0.3),
                            (40.0, 6.0, 2.0)):
        counts, orders = phase_counts(edges, lin, quad, damp, m)
        coarse, change, touch = _coarse_counts(edges, lin, quad, damp, m)
        keep = touch | (change <= math.pi / 8)
        assert orders.tolist() == np.where(keep, 4, 12).tolist()
        assert counts[keep].tolist() == coarse[keep].tolist()
        assert counts[~keep].tolist() == \
            np.ceil(change[~keep] / (2 * math.pi)).tolist()
    # the slow cases stay entirely on the coarse rule, fast ones do not
    assert phase_counts(edges, 1.2, 0.05, 0.0, m)[1].tolist() == [4] * 38
    assert (phase_counts(edges, 40.0, 6.0, 2.0, m)[1] == 12).sum() >= 30


def test_fine_rule_pinned_cells():
    # linear phase 4 xi: change 1, 1, 1, 1, 2, 4 on these cells
    edges = np.array([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0])
    for m in (0.5, 2.0):
        counts, orders = phase_counts(edges, 4.0, 0.0, 0.0, m)
        assert counts.tolist() == [1, 3, 3, 1, 1, 1]
        assert orders.tolist() == [12, 4, 4, 12, 12, 12]
    counts, orders = phase_counts(edges, 13.0, 0.0, 0.0, 2.0)
    assert counts.tolist() == [1, 9, 9, 1, 2, 3]


def test_mixed_rule_nodes():
    edges = np.array([0.0, 0.3, 0.5, 1.2])
    nodes, weights = refined_cells(edges, [2, 1, 3], [12, 4, 12])
    assert nodes.size == weights.size == 24 + 4 + 36
    # grouped by order: the 4-point cell first, then the 12-point cells
    assert ((nodes[:4] > 0.3) & (nodes[:4] < 0.5)).all()
    assert (np.diff(nodes[4:28]) > 0).all() and (nodes[4:28] < 0.3).all()
    assert (nodes[28:] > 0.5).all()
    # every sub-cell is exact on degree 7
    assert np.sum(weights * nodes ** 7) == pytest.approx(1.2 ** 8 / 8,
                                                         rel=1e-14)
    # one order gives plain cell order
    one, _ = refined_cells(edges, [2, 1, 3], [4, 4, 4])
    assert (np.diff(one) > 0).all() and one.size == 24


# ---------------------------------------------------------------------------
# blocked interpolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [complex, float])
def test_blocked_interpolation_is_bit_identical(dtype, monkeypatch):
    block = numerics._BLOCK
    rng = np.random.default_rng(4)
    n, x0, dx = 300, -2.0, 0.05
    values = rng.standard_normal(n)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(n)
    for size in (1, block - 1, block, block + 1, 3 * block + 5):
        xq = x0 + dx * rng.uniform(0.0, n - 1.0, size)
        # on-node queries and clamped windows at both grid ends
        ends = x0 + dx * np.array([0.0, 0.3, 2.0, n - 1.0, n - 1.4, n - 3.0])
        picks = rng.integers(0, size, min(size, 12))
        xq[picks] = np.resize(np.concatenate([ends, x0 + dx * rng.integers(
            0, n, 6)]), picks.size)
        got = lagrange_uniform(values, x0, dx, xq)
        with monkeypatch.context() as mp:
            mp.setattr(numerics, "_BLOCK", 4 * block)
            want = lagrange_uniform(values, x0, dx, xq)
        assert got.dtype == want.dtype == values.dtype
        assert got.tobytes() == want.tobytes()
    # the on-node queries return the samples themselves
    assert lagrange_uniform(values, x0, dx, x0 + dx * 7) == values[7]
    assert lagrange_uniform(values, x0, dx, np.array([])).shape == (0,)
