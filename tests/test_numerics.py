import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctschro._numerics as numerics
from ctschro.errors import ResolutionError
from ctschro._numerics import (lagrange_cells, lagrange_on_rule,
                               lagrange_uniform, phase_counts, refined_cells)


def test_lebesgue_constant_is_an_upper_value():
    # on each grid cell the Lebesgue function sum_j |w_j(d)| is one degree-7
    # polynomial, so a 1e-5 sampling of [0, 7] reads its maximum 6.92974 to
    # far better than the margin of _LEBESGUE
    d = np.linspace(0.0, 7.0, 700_001)
    lebesgue = np.abs(numerics._lagrange_weights(d)).sum(1).max()
    assert 6.929 < lebesgue <= numerics._LEBESGUE - 1e-4


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


def _fine_rule(change):
    """The fine rule's sub-cell counts and orders, written out from its
    definition: the smallest order whose budget covers the change, on
    ceil(change / c_32) sub-cells."""
    budgets = numerics._FINE_BUDGETS
    orders = np.select([change <= c for c in budgets[:-1]], [12, 16, 24], 32)
    return np.ceil(change / budgets[-1]), orders


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_slow_and_zero_touching_cells_keep_the_coarse_rule(m):
    edges = np.concatenate([np.linspace(-1.0, 0.0, 9),
                            np.linspace(0.05, 3.0, 30)])
    fine_orders = set()
    for lin, quad, damp in ((0.0, 0.0, 0.0), (1.2, 0.05, 0.0), (3.0, 0.5, 0.3),
                            (40.0, 6.0, 2.0), (100.0, 2.0, 0.0),
                            (250.0, 10.0, 1.0), (600.0, 10.0, 1.0)):
        counts, orders = phase_counts(edges, lin, quad, damp, m)
        coarse, change, touch = _coarse_counts(edges, lin, quad, damp, m)
        keep = touch | (change <= math.pi / 8)
        fine_counts, fine = _fine_rule(change)
        assert orders.tolist() == np.where(keep, 4, fine).tolist()
        assert counts[keep].tolist() == coarse[keep].tolist()
        assert counts[~keep].tolist() == fine_counts[~keep].tolist()
        fine_orders.update(orders[~keep].tolist())
    # the slow cases stay entirely on the coarse rule, fast ones do not, and
    # the fast ones reach every fine order
    assert phase_counts(edges, 1.2, 0.05, 0.0, m)[1].tolist() == [4] * 38
    assert (phase_counts(edges, 40.0, 6.0, 2.0, m)[1] >= 12).sum() >= 30
    assert fine_orders == {12, 16, 24, 32}
    assert phase_counts(edges, 600.0, 10.0, 1.0, m)[0][9:].min() >= 2


def test_fine_rule_pinned_cells():
    # linear phase 4 xi: change 1, 1, 1, 1, 2, 4 on these cells
    edges = np.array([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0])
    for m in (0.5, 2.0):
        counts, orders = phase_counts(edges, 4.0, 0.0, 0.0, m)
        assert counts.tolist() == [1, 3, 3, 1, 1, 1]
        assert orders.tolist() == [12, 4, 4, 12, 12, 12]
    # change 3.25 (x 4), 6.5, 13: past 2 pi and c_16 = 12.955
    counts, orders = phase_counts(edges, 13.0, 0.0, 0.0, 2.0)
    assert counts.tolist() == [1, 9, 9, 1, 1, 1]
    assert orders.tolist() == [12, 4, 4, 12, 16, 24]
    # change 15 (x 4), 30, 60: 30 is just under c_24 = 30.0013, and 60 past
    # c_32 = 49.66 takes two 32-point sub-cells
    counts, orders = phase_counts(edges, 60.0, 0.0, 0.0, 2.0)
    assert counts.tolist() == [1, 39, 39, 1, 1, 2]
    assert orders.tolist() == [24, 4, 4, 24, 24, 32]


def test_fine_ladder_switches_at_its_budgets():
    # one cell of unit width away from 0, under a linear phase of change c:
    # order n up to c_n inclusive, the next order one ulp above
    edges = np.array([1.0, 2.0])
    orders = numerics._FINE_ORDERS
    for c, n, above in zip(numerics._FINE_BUDGETS, orders, orders[1:]):
        assert phase_counts(edges, c, 0.0, 0.0, 2.0)[1].tolist() == [n]
        up = phase_counts(edges, np.nextafter(c, np.inf), 0.0, 0.0, 2.0)
        assert up[1].tolist() == [above] and up[0].tolist() == [1]
    c32 = numerics._FINE_BUDGETS[-1]
    for change, count in ((c32, 1), (1.5 * c32, 2), (2.0 * c32, 2),
                          (2.5 * c32, 3)):
        counts, orders = phase_counts(edges, change, 0.0, 0.0, 2.0)
        assert counts.tolist() == [count] and orders.tolist() == [32]


def _remainder_factor(n, c):
    """c**(2n) (n!)**4 / ((2n+1) ((2n)!)**3): the Gauss-Legendre remainder
    bound of exp(i theta s) on a sub-cell of change c, per unit width."""
    return math.exp(2 * n * math.log(c) + 4 * math.lgamma(n + 1)
                    - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1))


def test_fine_budgets_keep_the_twelve_point_bound():
    # every fine order's budget keeps the 12-point bound at 2 pi, 1.26e-19,
    # and a budget 1e-9 larger would not
    bound = _remainder_factor(12, 2.0 * math.pi)
    assert bound == pytest.approx(1.2636e-19, rel=1e-4)
    assert numerics._FINE_ORDERS == (12, 16, 24, 32)
    assert numerics._FINE_BUDGETS[0] == 2.0 * math.pi
    for n, c in zip(numerics._FINE_ORDERS, numerics._FINE_BUDGETS):
        assert _remainder_factor(n, c) <= bound * (1.0 + 1e-12)
        assert _remainder_factor(n, c * (1.0 + 1e-9)) > bound
    # the coarse rule's bound, for comparison
    assert _remainder_factor(4, math.pi / 8) < 3.2e-13


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
# the row form: one call for P integrals, each row as a one-row call
# ---------------------------------------------------------------------------

_ROWS = [(0.0, 0.0, 0.0), (1.2, 0.05, 0.0), (3.0, 0.5, 0.3), (40.0, 6.0, 2.0),
         (-7.0, -0.9, 0.0), (0.0, 3.0, 1e-3)]


def _ascending(top, size):
    return st.lists(st.floats(0.0, top), min_size=size,
                    max_size=size).map(sorted)


@given(edges=st.lists(st.floats(-4.0, 4.0), min_size=2,
                      max_size=13).map(sorted),
       lin=_ascending(300.0, 3), quad=_ascending(30.0, 3),
       damp=_ascending(3.0, 3),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6),
       m=st.floats(1.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_phase_counts_are_monotone_for_m_at_least_one(edges, lin, quad, damp,
                                                      signs, m):
    # the oracle shares a run's rule on this: a point between the run's
    # smallest and largest |lin|, |quad| and damp gets a rule between theirs.
    # Cells up to 8 wide and |lin| up to 300 reach every fine order and
    # counts of 32-point sub-cells past c_32
    rules = [phase_counts(np.array(edges), sl * a, sq * b, c, m)
             for a, b, c, sl, sq in zip(lin, quad, damp, signs[:3], signs[3:])]
    for k in (0, 1):    # counts, then orders
        assert (rules[0][k] <= rules[1][k]).all()
        assert (rules[1][k] <= rules[2][k]).all()


def _row_edges(p):
    """Sorted edges of one row, with cells on both sides of xi = 0."""
    rng = np.random.default_rng(p)
    return np.sort(np.concatenate([rng.uniform(-2.0, 3.0, 30), [0.0]]))


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_row_form_phase_counts_equal_one_row_calls(m):
    lin, quad, damp = (np.array(v) for v in zip(*_ROWS))
    shared = np.concatenate([np.linspace(-1.0, 0.0, 9),
                             np.linspace(0.05, 3.0, 30)])
    own = np.array([_row_edges(p) for p in range(len(_ROWS))])
    for edges in (shared, own):
        counts, orders = phase_counts(edges, lin, quad, damp, m)
        assert counts.shape == orders.shape == (len(_ROWS), edges.shape[-1] - 1)
        for p, (a, b, c) in enumerate(_ROWS):
            one = phase_counts(edges if edges.ndim == 1 else edges[p],
                               a, b, c, m)
            assert counts[p].tolist() == one[0].tolist()
            assert orders[p].tolist() == one[1].tolist()


def test_row_form_nodes_follow_one_row_layouts():
    edges = np.array([_row_edges(p) for p in range(len(_ROWS))])
    lin, quad, damp = (np.array(v) for v in zip(*_ROWS))
    counts, orders = phase_counts(edges, lin, quad, damp, 2.0)
    # a row of every order
    assert set(orders[3].tolist()) == {4, 12, 16, 24, 32}
    nodes, weights = refined_cells(edges, counts, orders)
    parts = [refined_cells(edges[p], counts[p], orders[p])
             for p in range(len(_ROWS))]
    assert nodes.tolist() == np.concatenate([n for n, _ in parts]).tolist()
    assert weights.tolist() == np.concatenate([w for _, w in parts]).tolist()


def _one_row_quadrature(edges, amp, lin, quad, damp, m):
    """The integral of one row through the one-row primitives."""
    counts, orders = phase_counts(edges, lin, quad, damp, m)
    rule = numerics.node_set(edges, counts, orders, amp, m)
    return numerics.oscillatory_sum(*rule, lin, quad, damp)


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_row_form_quadrature_sums_each_row_as_one_row_calls(m):
    # 40 rows of 400-3000 nodes each: several chunks, which split rows of
    # different damping, frequency and amplitude scale
    rng = np.random.default_rng(4)
    n_rows = 40
    lo = rng.uniform(-3.0, 0.5, n_rows)
    edges = lo[:, None] + rng.uniform(0.5, 4.0, n_rows)[:, None] \
        * np.linspace(0.0, 1.0, 97)
    lin = rng.uniform(-300.0, 300.0, n_rows)
    quad = rng.uniform(-30.0, 30.0, n_rows)
    damp = np.where(np.arange(n_rows) % 3 == 0, 0.0,
                    rng.uniform(0.0, 2.0, n_rows))
    scale = rng.uniform(0.5, 2.0, n_rows)
    got = numerics.oscillatory_quadrature(
        edges, lambda xi, row: np.cos(xi / scale[row]), lin, quad, damp, m)
    counts, orders = phase_counts(edges, lin, quad, damp, m)
    assert (counts * orders).sum() > 3 * numerics._CHUNK
    want = [_one_row_quadrature(edges[p], lambda xi: np.cos(xi / scale[p]),
                                lin[p], quad[p], damp[p], m)
            for p in range(n_rows)]
    assert got.tolist() == want


def test_one_row_chunk_takes_the_rows_scalars():
    # one mirrored row of 0.29 M nodes, a chunk of its own: its amplitude
    # gets the row index alone, and no per-node row index or gather of
    # lin, quad and damp (32 bytes per node) is made beside the node set,
    # so the call peaks below an oracle point's 41-45 bytes per node
    edges = np.linspace(0.5, 2.0, 97)[None, :]
    lin, quad, damp = np.array([3e5]), np.array([0.7]), np.array([0.3])
    rows = []

    def amp(xi, row):
        rows.append(np.shape(row))
        return np.exp(-xi * xi)
    counts, orders = phase_counts(edges, lin, quad, damp, 2.0)
    n = int((counts * orders).sum())
    assert n > 16 * numerics._CHUNK
    tracemalloc.start()
    try:
        got = numerics.oscillatory_quadrature(edges, amp, lin, quad, damp,
                                              2.0, mirrored=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [()]
    assert peak <= 45 * n
    # the gathered form: one value of lin, quad and damp per node
    rule = numerics.node_set(edges, counts, orders, lambda xi: amp(xi, 0),
                             2.0)
    want = numerics.oscillatory_sum(*rule, *(np.repeat(v, n)
                                             for v in (lin, quad, damp)),
                                    [n], mirrored=True)
    assert got.tolist() == want.tolist()


def test_row_form_names_the_first_row_over_the_node_limit(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("nodes built before the node budget check")
    monkeypatch.setattr(numerics, "refined_cells", no_nodes)
    edges = np.tile(np.linspace(1.0, 2.0, 11), (4, 1))
    # a linear phase of (k - 1/2) c_32 per cell puts each of the ten cells
    # on k sub-cells of the 32-point rule: 320 k nodes
    k = numerics._MAX_NODES // 320
    lin = np.array([0.0, k + 0.5, k + 1.5, 1.0]) \
        * numerics._FINE_BUDGETS[-1] / 0.1
    zero = np.zeros(4)
    with pytest.raises(ResolutionError, match="row 1 needs"):
        phase_counts(edges, lin, zero, zero, 2.0)
    with pytest.raises(ResolutionError, match="row 1 needs"):
        numerics.oscillatory_quadrature(edges, lambda xi, row: xi, lin,
                                        zero, zero, 2.0)


def test_touch_rule_past_the_doubles_is_resolution_error():
    # (8 |q| / pi)**(1/m) overflows a double at m = 1e-5: such a row takes
    # +inf sub-cells on its cells touching 0 and fails the node budget; a
    # row of q = 0 needs none
    edges = np.linspace(-1.0, 1.0, 9)
    zero = np.zeros(2)
    with pytest.raises(ResolutionError, match="row 1 needs inf nodes"):
        phase_counts(edges, zero, np.array([0.0, 5.0]), zero, 1e-5)
    with pytest.raises(ResolutionError, match="needs inf nodes"):
        phase_counts(edges, 0.0, 5.0, 0.0, 1e-5)
    counts, _ = phase_counts(edges, 0.0, 0.0, 0.0, 1e-5)
    assert counts.tolist() == [1] * 8


# ---------------------------------------------------------------------------
# the mirrored rule
# ---------------------------------------------------------------------------

def _band_rows(m, damped):
    """Rows on bands lam/2 <= xi <= hi of levels 4 to 256, as the kernel
    builds them: hi is 2 lam or the damping cap, 96 cells per band; the
    last row of each level oscillates fast enough to pass the chunk budget
    on its own."""
    rng = np.random.default_rng(31)
    rows = []
    for lam in (4.0, 16.0, 64.0, 256.0):
        for k in range(6):
            lin = rng.uniform(-3.0, 3.0)
            quad = rng.uniform(-2.0, 2.0) * lam ** (1.0 - m)
            if k == 5:
                lin = 1.8e4 / lam * rng.choice([-1.0, 1.0])
            damp = rng.uniform(0.0, 3.0) * lam ** -m if damped else 0.0
            cap = math.inf if damp == 0.0 else (745.0 / damp) ** (1.0 / m)
            rows.append((lam, min(2.0 * lam, cap), lin, quad, damp))
    lam, hi, lin, quad, damp = (np.array(v) for v in zip(*rows))
    edges = np.linspace(lam / 2.0, hi, 97, axis=-1)
    return lam, edges, lin, quad, damp


@pytest.mark.parametrize("damped", [False, True])
@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_mirrored_row_is_its_two_sides_with_half_the_nodes(m, damped,
                                                           monkeypatch):
    lam, edges, lin, quad, damp = _band_rows(m, damped)
    nodes = []
    rule = numerics.phase_counts

    def spy(*args):
        counts, orders = rule(*args)
        nodes.append((counts * orders).sum(axis=-1))
        return counts, orders
    monkeypatch.setattr(numerics, "phase_counts", spy)

    def amp(xi, row):                  # even, positive, not a polynomial
        return np.exp(-(np.abs(xi) / lam[row] - 1.1) ** 2)

    def rows(edges, **kw):
        return numerics.oscillatory_quadrature(edges, amp, lin, quad, damp,
                                               m, **kw)
    got = rows(edges, mirrored=True)
    want = rows(edges) + rows(-edges[:, ::-1])
    mirrored, *sides = nodes
    # integral of |amp| over both sides, on the slow rule
    mass = 2.0 * numerics.oscillatory_quadrature(
        edges, amp, 0.0 * lin, 0.0 * lin, 0.0 * lin, m).real
    assert (np.abs(got - want) <= 1e-14 * mass).all()
    assert (2 * mirrored == sum(sides)).all()
    assert (mirrored[5::6] > numerics._CHUNK).all()
    assert (np.abs(want) > 1e-3 * mass).any()


def test_mirrored_rule_rejects_negative_edges_and_nodes(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("nodes built before the edge check")
    monkeypatch.setattr(numerics, "refined_cells", no_nodes)
    edges = np.array([[-1e-3, 0.5, 1.0], [0.0, 0.5, 1.0]])
    zero = np.zeros(2)
    with pytest.raises(ValueError, match="nonnegative edges"):
        numerics.oscillatory_quadrature(edges, lambda xi, row: 1.0 + 0 * xi,
                                        zero, zero, zero, 2.0, mirrored=True)
    nodes = np.array([-0.25, 0.5])
    with pytest.raises(ValueError, match="nonnegative nodes"):
        numerics.oscillatory_sum(nodes, np.ones(2), nodes ** 2, np.ones(2),
                                 1.0, 0.0, 0.0, mirrored=True)


# ---------------------------------------------------------------------------
# the small-phase factor
# ---------------------------------------------------------------------------

_TINY = 2.0 ** -27


def _exp_formula(nodes, weights, abs_pow, a, lin, quad, damp, sizes=None):
    """``oscillatory_sum`` with np.exp at every phase, as written before the
    small-phase factor."""
    integrand = a * np.exp(1j * (lin * nodes + quad * abs_pow))
    if np.ndim(damp) or damp:
        np.multiply(integrand, np.exp(-damp * abs_pow), out=integrand,
                    where=damp != 0.0)
    terms = integrand * weights
    if sizes is None:
        return np.sum(terms)
    ends = np.cumsum(sizes)
    return np.array([np.sum(terms[e - n:e]) for n, e in zip(sizes, ends)])


def _small_phases(rng, n):
    """n phases in (-2**-27, 2**-27), log-uniform in modulus down to the
    subnormals, both signs, with 0, -0 and the extremes first."""
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -1e-310, np.nextafter(_TINY, 0.0), -np.nextafter(_TINY, 0.0)]
    mags = 2.0 ** rng.uniform(-1075.0, -27.0, n - len(special))
    return np.concatenate([special, mags * rng.choice([-1.0, 1.0], mags.size)])


def test_small_phase_factor_is_np_exp_bit_for_bit():
    phase = _small_phases(np.random.default_rng(12), 200_000)
    assert (np.abs(phase) < _TINY).all()
    got = numerics._unit_phase(phase)
    assert got.tobytes() == np.exp(1j * phase).tobytes()


def _sum_case(rng, n):
    nodes = np.sort(rng.uniform(-40.0, 40.0, n))
    weights = rng.uniform(0.0, 0.1, n)
    abs_pow = np.abs(nodes) ** 2
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return nodes, weights, abs_pow, a


@pytest.mark.parametrize("damp", [0.0, 1e-3])
def test_oscillatory_sum_at_small_phases_is_the_exp_formula(damp):
    rng = np.random.default_rng(13)
    nodes, weights, abs_pow, a = _sum_case(rng, 3000)
    # y = 0 with tiny times, as at the dilated witness times, and a tiny
    # linear phase: every |lin xi + quad xi**2| < 2**-27 (40**2 < 2**11)
    for lin, quad in ((0.0, 1e-12), (-0.0, 2.0 ** -39), (1e-12, -1e-15),
                      (0.0, 0.0), (0.0, 5e-324)):
        assert np.abs(lin * nodes + quad * abs_pow).max() < _TINY
        got = numerics.oscillatory_sum(nodes, weights, abs_pow, a, lin,
                                       quad, damp)
        want = _exp_formula(nodes, weights, abs_pow, a, lin, quad, damp)
        assert got == want
        assert complex(got).real.hex() == complex(want).real.hex()
        assert complex(got).imag.hex() == complex(want).imag.hex()


def test_row_form_sum_mixing_small_and_large_rows_is_the_exp_formula():
    rng = np.random.default_rng(14)
    sizes = [700, 300, 900, 500]
    nodes, weights, abs_pow, a = _sum_case(rng, sum(sizes))
    # rows 0 and 2 are all below 2**-27, rows 1 and 3 are not
    lin = np.repeat([0.0, 3.0, 1e-13, 0.0], sizes)
    quad = np.repeat([1e-13, 0.5, 0.0, 1e-6], sizes)
    damp = np.repeat([0.0, 0.1, 2e-4, 0.0], sizes)
    got = numerics.oscillatory_sum(nodes, weights, abs_pow, a, lin, quad,
                                   damp, np.array(sizes))
    want = _exp_formula(nodes, weights, abs_pow, a, lin, quad, damp, sizes)
    assert got.tobytes() == want.tobytes()
    # and each row, alone in a call, takes its own path to the same bits
    ends = np.cumsum(sizes)
    for p, (n, e) in enumerate(zip(sizes, ends)):
        one = slice(e - n, e)
        alone = numerics.oscillatory_sum(nodes[one], weights[one],
                                         abs_pow[one], a[one], lin[e - 1],
                                         quad[e - 1], damp[e - 1])
        assert complex(alone).real.hex() == got[p].real.hex()
        assert complex(alone).imag.hex() == got[p].imag.hex()


class _CountingNumpy:
    """numpy, with its complex exponentials counted."""
    def __init__(self):
        self.complex_exps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.complex_exps += np.iscomplexobj(x)
        return np.exp(x, *args, **kwargs)


@pytest.mark.parametrize("phase,exps", [
    (np.nextafter(_TINY, 0.0), 0), (-np.nextafter(_TINY, 0.0), 0),
    (_TINY, 1), (-_TINY, 1), (np.nextafter(_TINY, 1.0), 1), (1e-3, 1),
    (np.nan, 1),
])
def test_phases_from_two_to_the_minus_27_go_through_np_exp(phase, exps,
                                                           monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(numerics, "np", counting)
    nodes = np.array([0.25, 0.5, 1.0])
    weights = np.array([0.5, 0.25, 0.25])
    a = np.array([1.0 + 2.0j, -0.5j, 3.0])
    # the phase of the last node is exactly ``phase``; the others are half
    # and a quarter of it
    got = numerics.oscillatory_sum(nodes, weights, nodes ** 2, a, 0.0,
                                   phase, 0.0)
    assert counting.complex_exps == exps
    want = _exp_formula(nodes, weights, nodes ** 2, a, 0.0, phase, 0.0)
    assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# the sum in leaves of at most _CHUNK nodes
# ---------------------------------------------------------------------------

def _whole_array_sum(nodes, weights, abs_pow, a, lin, quad, damp, mirrored):
    """``np.sum`` of the terms of ``oscillatory_sum`` built over the whole
    node set at once, in the documented operation order: the amplitude
    times the unit phase factor, written into that factor, then the
    damping factor, then the weight."""
    if mirrored:
        amp = 2.0 * a * np.cos(lin * nodes)
        unit = numerics._unit_phase(quad * abs_pow)
    else:
        amp, unit = a, numerics._unit_phase(lin * nodes, quad * abs_pow)
    integrand = np.multiply(amp, unit, out=unit)
    if damp:
        integrand *= np.exp(-damp * abs_pow)
    return np.sum(integrand * weights)


# (lin, quad) on nodes in [0, 40].  "small": every phase is below 2**-27 in
# modulus, so every leaf takes the (1, phase) branch of _unit_phase;
# "large": every leaf takes np.exp; "mixed": phases are below 2**-27 only
# for xi < 20, so the first leaves of the longer node sets take (1, phase)
# and the others np.exp, while the whole array takes np.exp
_LEAF_PHASES = {"small": (1e-13, 2.0 ** -39), "large": (3.0, -0.5),
                "mixed": (0.0, _TINY / 400.0)}


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("damp", [0.0, 1e-3])
@pytest.mark.parametrize("phases", sorted(_LEAF_PHASES))
@pytest.mark.parametrize("k", [16_383, 16_384, 16_385, 2 ** 15 + 3,
                               100_003])
def test_leaf_sum_is_the_whole_array_sum(k, phases, damp, mirrored):
    rng = np.random.default_rng(k)
    nodes = np.sort(rng.uniform(0.0, 40.0, k))
    weights = rng.uniform(0.0, 0.1, k)
    abs_pow = nodes ** 2
    a = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    lin, quad = _LEAF_PHASES[phases]
    phase = np.abs(lin * nodes + quad * abs_pow)
    if phases == "mixed":
        assert (phase[nodes < 20.0] < _TINY).all()
        assert (phase[nodes > 20.0] >= _TINY).all()
    else:
        assert ((phase < _TINY).all()) == (phases == "small")
    got = numerics.oscillatory_sum(nodes, weights, abs_pow, a, lin, quad,
                                   damp, mirrored=mirrored)
    want = _whole_array_sum(nodes, weights, abs_pow, a, lin, quad, damp,
                            mirrored)
    assert complex(got).real.hex() == complex(want).real.hex()
    assert complex(got).imag.hex() == complex(want).imag.hex()
    # a row form of two rows, each past _CHUNK nodes or not, sums each row
    # as a one-row call
    cut = k // 3
    rows = numerics.oscillatory_sum(nodes, weights, abs_pow, a, lin, quad,
                                    damp, np.array([cut, k - cut]),
                                    mirrored=mirrored)
    one = [numerics.oscillatory_sum(nodes[s], weights[s], abs_pow[s], a[s],
                                    lin, quad, damp, mirrored=mirrored)
           for s in (slice(0, cut), slice(cut, k))]
    assert rows.tobytes() == np.array(one).tobytes()


def test_oracle_heap_peak_is_its_node_set_and_one_leaf(monkeypatch):
    # one undamped point of 1.09 M nodes: the node set holds 40 bytes per
    # node (nodes, weights, |xi|**2, complex amplitude); the terms of one
    # leaf and the interpolation blocks take a few MB.  Building the
    # terms over the whole node set at once took about 113 bytes per node.
    from ctschro import evolve
    from ctschro.domain import EvolutionParams, random_band_limited
    f = random_band_limited(512.0, seed=0)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    sizes = []
    build = evolve.node_set

    def counting(edges, counts, orders, amp, m):
        sizes.append(int((counts * orders).sum()))
        return build(edges, counts, orders, amp, m)
    monkeypatch.setattr(evolve, "node_set", counting)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        value = evolve.direct_quadrature(f, params, 0.3, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert value != 0.0
    assert len(sizes) == 1 and sizes[0] > 2 ** 20
    assert peak <= 48 * sizes[0] + 8 * 2 ** 20, peak / sizes[0]


# ---------------------------------------------------------------------------
# interpolation: the shared order and the blocks
# ---------------------------------------------------------------------------

def test_interpolation_reproduces_degree_seven_only():
    """The one stencil of both routes is exact on degree 7 and not on 8."""
    rng = np.random.default_rng(11)
    n, x0, dx = 24, -1.3, 0.1
    grid = x0 + dx * np.arange(n)
    mid, half = x0 + 0.5 * dx * (n - 1), 0.5 * dx * (n - 1)
    xq = np.concatenate([
        x0 + dx * rng.uniform(0.0, n - 1.0, 50),          # interior
        grid,                                              # on the nodes
        x0 + dx * rng.uniform(0.0, 3.0, 10),              # clamped, left
        x0 + dx * (n - 1.0 - rng.uniform(0.0, 3.0, 10))])  # clamped, right
    assert numerics._INTERP_ORDER == 7

    def gap(coef):
        def poly(x):
            return np.polynomial.polynomial.polyval((x - mid) / half, coef)
        return np.abs(lagrange_uniform(poly(grid), x0, dx, xq) - poly(xq))

    for _ in range(5):
        coef = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert gap(coef).max() <= 1e-13 * np.abs(coef).sum()
    # the degree-8 remainder is prod_j (x - x_j) / half**8, about 1e-7 here
    assert gap(np.eye(9)[8]).max() >= 1e-9



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


# ---------------------------------------------------------------------------
# the cell form of the interpolant
# ---------------------------------------------------------------------------

def _a4_rule_pairs():
    """Every (sub-cell count, Gauss order) that ``phase_counts`` gives the
    oracle on the A4 spectra and points."""
    from ctschro.domain import (EvolutionParams, curve_eval, holder_curve,
                                random_band_limited)
    from ctschro.evolve import _oracle_band, _oracle_edges
    curve = holder_curve(0.5)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    rng = np.random.default_rng(7)
    pairs = set()
    for k, lam in enumerate((16.0, 32.0, 64.0, 128.0)):
        f = random_band_limited(lam, seed=50 + k)
        support = f.support()
        xs, ts = rng.uniform(-1.0, 1.0, 100), rng.uniform(0.0, 1.0, 100)
        for x, t in zip(xs.tolist(), ts.tolist()):
            y = float(curve_eval(curve, x, t))
            band = _oracle_band(params, support, t)
            counts, orders = phase_counts(_oracle_edges(f, band), y, t, 0.0,
                                          2.0)
            pairs.update(zip(counts.tolist(), orders.tolist()))
    return sorted(pairs)


def _dyadic(offsets):
    """Offsets rounded to multiples of 2**-40, so that cell + offset is
    exact and both forms interpolate at the very same positions: in double
    precision, lagrange_uniform's position (x - x0) / dx loses the low bits
    of the offset, and with them up to 2e-14 of max|values| on random
    samples."""
    return np.round(np.asarray(offsets) * 2.0 ** 40) / 2.0 ** 40


A4_PAIRS = _a4_rule_pairs()
# rules of several sub-cells per cell, which A4's cells do not take (each of
# its fast cells fits one sub-cell): 2 to 5 sub-cells of 12 points, 2 of 32
# (a cell past c_32) and 9 of 4 (a coarse cell touching 0)
MULTI_PAIRS = [(2, 12), (3, 12), (4, 12), (5, 12), (2, 32), (9, 4)]
# in-cell offsets: the slice refinement's k/q, and the nodes of each rule on
# the unit cell
OFFSETS = {**{f"q{q}": _dyadic(np.arange(q) / q) for q in (2, 3, 7, 16)},
           **{f"rule{c}x{o}": _dyadic(refined_cells(np.array([0.0, 1.0]),
                                                    [c], [o])[0])
              for c, o in A4_PAIRS + MULTI_PAIRS}}


def test_a4_rules_are_covered():
    # every fine order, each on one sub-cell
    assert set(A4_PAIRS) == {(1, 4), (1, 12), (1, 16), (1, 24), (1, 32)}


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("name", sorted(OFFSETS))
def test_cell_form_matches_lagrange_uniform(name, dtype):
    """Every cell of a 20-sample grid: clamped stencils at both ends (the
    first and last three cells) and centred ones between."""
    offsets = OFFSETS[name]
    rng = np.random.default_rng(len(offsets))
    n, x0, dx = 20, -1.25, 0.125
    values = rng.standard_normal(n)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(n)
    for first, n_cells in ((0, n - 1), (2, 3), (n - 4, 3), (5, 1)):
        cells = np.arange(first, first + n_cells)
        got = lagrange_cells(values, first, n_cells, offsets)
        x = x0 + dx * (cells[:, None] + offsets[None, :])
        want = lagrange_uniform(values, x0, dx, x.ravel()).reshape(x.shape)
        assert got.shape == (n_cells, offsets.size)
        assert got.dtype == values.dtype
        assert np.abs(got - want).max() <= 1e-14 * np.abs(values).max()
    # an offset of 0 is the sample itself
    assert lagrange_cells(values, 0, n - 1, [0.0])[:, 0].tolist() == \
        values[:-1].tolist()


def test_cell_form_reproduces_degree_seven():
    rng = np.random.default_rng(12)
    n, x0, dx = 24, -1.3, 0.1
    cells = np.arange(n - 1)
    offsets = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 9)])
    x = x0 + dx * (cells[:, None] + offsets[None, :])
    mid, half = x0 + 0.5 * dx * (n - 1), 0.5 * dx * (n - 1)
    for _ in range(5):
        coef = rng.standard_normal(8) + 1j * rng.standard_normal(8)

        def poly(xx):
            return np.polynomial.polynomial.polyval((xx - mid) / half, coef)
        got = lagrange_cells(poly(x0 + dx * np.arange(n)), 0, n - 1, offsets)
        assert np.abs(got - poly(x)).max() <= 1e-13 * np.abs(coef).sum()


@pytest.mark.parametrize("block", [1, 5, 64])
def test_cell_form_blocks(block, monkeypatch):
    """Offsets beyond one block, and blocks of a few rows each."""
    monkeypatch.setattr(numerics, "_BLOCK", block)
    rng = np.random.default_rng(block)
    n = 30
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    offsets = _dyadic(np.sort(rng.uniform(0.0, 1.0, 150)))
    got = lagrange_cells(values, 0, n - 1, offsets)
    x = np.arange(n - 1)[:, None] + offsets[None, :]
    want = lagrange_uniform(values, 0.0, 1.0, x.ravel()).reshape(x.shape)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(values).max()


def test_cell_form_rejects_cells_off_the_grid():
    values = np.ones(12)
    for first, n_cells in ((-1, 3), (9, 3), (0, 12)):
        with pytest.raises(ValueError, match="inside the grid"):
            lagrange_cells(values, first, n_cells, [0.5])
    with pytest.raises(ValueError, match="samples"):
        lagrange_cells(np.ones(7), 0, 2, [0.5])


@pytest.mark.parametrize("lo,hi", [(-2.0, 2.375), (-2.0, 1.5), (-1.93, 1.37),
                                   (-1.01, -0.4), (0.22, 0.27)])
def test_rule_form_matches_lagrange_uniform_at_the_nodes(lo, hi):
    """The oracle's read of a node set: runs of whole cells by the cell form,
    the end cells (clipped here unless they fall on the grid) per query.
    The whole grid puts clamped stencils in the runs at both ends.  The
    bound is twice the cell form's: the cell form reads a node at its exact
    in-cell offset, ``refined_cells`` rounds its position (up to 7e-15 of
    max|values| here)."""
    rng = np.random.default_rng(3)
    n, x0, dx = 36, -2.0, 0.125
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    j0 = max(0, math.floor((lo - x0) / dx))
    j1 = min(n - 1, math.ceil((hi - x0) / dx))
    edges = np.clip(x0 + dx * np.arange(j0, j1 + 1), lo, hi)
    for lin, quad in ((0.0, 0.0), (13.0, 0.2), (3.0, 4.0), (60.0, 9.0)):
        counts, orders = phase_counts(edges, lin, quad, 0.0, 2.0)
        nodes, _ = refined_cells(edges, counts, orders)
        got = lagrange_on_rule(values, x0, dx, edges, counts, orders, nodes)
        want = lagrange_uniform(values, x0, dx, nodes)
        assert got.shape == nodes.shape
        assert np.abs(got - want).max() <= 2e-14 * np.abs(values).max()


# ---------------------------------------------------------------------------
# the Gauss rules and the allocator policy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4])
def test_gauss_rule_is_scipys_bit_for_bit(n):
    special = pytest.importorskip("scipy.special")
    xg, wg = numerics.gauss_rule(n)
    x, w = special.roots_legendre(n)
    assert xg.dtype == wg.dtype == np.float64
    assert xg.tobytes() == np.asarray(x).tobytes()
    assert wg.tobytes() == np.asarray(w).tobytes()
    assert not xg.flags.writeable and not wg.flags.writeable


def _mp_gauss_rule(mpmath, n):
    """n-point Gauss-Legendre nodes and weights, ascending, in mpmath's
    working precision: Newton's iteration on P_n from the asymptotic
    roots, w = 2 / ((1 - x**2) P_n'(x)**2)."""
    nodes, weights = [], []
    for k in range(n, 0, -1):
        x = mpmath.cos(mpmath.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            dp = n * (x * mpmath.legendre(n, x)
                      - mpmath.legendre(n - 1, x)) / (x * x - 1)
            step = mpmath.legendre(n, x) / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** -(mpmath.mp.dps - 5):
                break
        dp = n * (x * mpmath.legendre(n, x)
                  - mpmath.legendre(n - 1, x)) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", [12, 16, 24, 32])
def test_gauss_rule_is_correctly_rounded(n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        nodes, weights = _mp_gauss_rule(mpmath, n)
        want_x = [float(v) for v in nodes]
        want_w = [float(v) for v in weights]
    xg, wg = numerics.gauss_rule(n)
    assert xg.tolist() == want_x and wg.tolist() == want_w
    assert not xg.flags.writeable and not wg.flags.writeable


@pytest.mark.parametrize("n", [4, 12, 16, 24, 32])
def test_gauss_rule_integrates_polynomials_of_degree_below_2n(n):
    # every table is within one ulp of the exact rule (1.1e-16 measured)
    xg, wg = numerics.gauss_rule(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wg @ xg ** k - exact) <= 2.5e-15


def test_allocator_policy_is_skipped_without_mallopt(monkeypatch):
    class NoMallopt:
        pass
    monkeypatch.setattr(numerics.ctypes, "CDLL", lambda name: NoMallopt())
    numerics._pin_allocator()
