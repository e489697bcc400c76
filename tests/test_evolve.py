import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

from ctschro._numerics import (_DENOMINATORS, _LEBESGUE, _STENCIL,
                               lagrange_uniform)
from ctschro.domain import (
    EvolutionParams,
    SpectralFunction,
    amplitude_bound,
    build_counterexample,
    dilated_family,
    from_profile,
    holder_curve,
    identity_curve,
    random_band_limited,
    shear_curve,
)
from ctschro.errors import DomainError, GridRangeError, ResolutionError
from ctschro.evolve import (
    PropagationPlan,
    direct_quadrature,
    evaluate_along_curve,
    field_value,
    make_plan,
    propagate_slice,
    slice_bound,
    slice_grid,
    slice_l2_norm,
    spectral_l2_norm,
)


def synthesis_oracle(f, y, t, params, refine=8):
    """Independent slow route: cubic-spline refinement of the samples plus a
    plain trapezoid sum.  Shares no code with the paths under test."""
    xi = np.linspace(f.xi_min, f.xi_max, (f.n_samples - 1) * refine + 1)
    fhat = make_interp_spline(f.grid(), f.samples, k=5)(xi)
    phase = y * xi + t * np.abs(xi) ** params.m
    integrand = fhat * np.exp(1j * phase)
    if params.damping:
        integrand = integrand * np.exp(-(t ** params.gamma) * np.abs(xi) ** params.m)
    return np.trapezoid(integrand, xi) / (2 * np.pi)


def gaussian_spectrum(n=4801, cut=12.0):
    return from_profile(lambda xi: np.exp(-xi ** 2 / 2), -cut, cut, n)


def gaussian_closed_form(y, t, gamma):
    # integral exp(i y xi - a xi^2) = sqrt(pi / a) exp(-y^2 / (4 a)), Re a > 0
    a = 0.5 + t ** gamma - 1j * t
    return np.sqrt(np.pi / a) * np.exp(-y ** 2 / (4 * a)) / (2 * np.pi)


# ---------------------------------------------------------------------------
# identity at t = 0 and the Gaussian closed form
# ---------------------------------------------------------------------------

def test_identity_at_time_zero_all_curves():
    f = random_band_limited(32.0, seed=21)
    params = EvolutionParams(m=2.0, gamma=1.5, damping=True)
    xs = np.linspace(-0.9, 0.9, 64)
    ref = np.array([synthesis_oracle(f, x, 0.0, params) for x in xs])
    scale = np.abs(ref).max()
    for curve in (identity_curve(), shear_curve(), holder_curve(0.3)):
        plan = make_plan(f, params, curve)
        got = evaluate_along_curve(plan, curve, xs, 0.0, path="transform")
        assert np.max(np.abs(got - ref)) <= 1e-8 * scale


def test_gaussian_closed_form_both_paths():
    gamma = 1.5
    f = gaussian_spectrum()
    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    plan = make_plan(f, params, identity_curve())
    ys = np.linspace(-2.5, 2.5, 11)
    for t in (0.0, 1e-3, 0.1, 0.5, 1.0):
        want = gaussian_closed_form(ys, t, gamma)
        sl = propagate_slice(plan, t)
        got_t = field_value(sl, ys)
        got_q = np.array([direct_quadrature(f, params, y, t) for y in ys])
        assert np.max(np.abs(got_t - want) / np.abs(want)) <= 1e-7
        assert np.max(np.abs(got_q - want) / np.abs(want)) <= 1e-7


def test_alias_contamination_below_budget(monkeypatch):
    # widening the synthesis period must not move the values: wrap-around
    # images are already below 1e-9 at the fixed safety factor of 2
    import ctschro.evolve as evolve
    f = gaussian_spectrum()
    params = EvolutionParams(m=2.0, gamma=1.5, damping=True)
    plan = make_plan(f, params)
    ys = np.linspace(-2.0, 2.0, 33)
    assert evolve._ALIAS_SAFETY == 2.0
    for t in (0.1, 1.0):
        a = field_value(propagate_slice(plan, t), ys)
        with monkeypatch.context() as mp:
            mp.setattr(evolve, "_ALIAS_SAFETY", 8.0)
            b = field_value(propagate_slice(plan, t), ys)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.abs(b).max()


# ---------------------------------------------------------------------------
# Plancherel and damping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.0, 0.05, 0.3, 1.0])
def test_plancherel_damping_identity(t):
    # below 1e-30 of the undamped norm the slice sits in the denormal range
    # where exp products lose relative precision, so the identity is checked
    # against that floor
    f = random_band_limited(16.0, seed=4)
    params = EvolutionParams(m=2.0, gamma=0.8, damping=True)
    plan = make_plan(f, params)
    got = slice_l2_norm(propagate_slice(plan, t))
    want = spectral_l2_norm(f, params, t)
    floor = 1e-30 * spectral_l2_norm(f, params, 0.0)
    assert abs(got - want) <= 1e-8 * max(want, floor)


def test_damping_never_increases_norm():
    f = random_band_limited(16.0, seed=9)
    on = EvolutionParams(m=2.0, gamma=1.2, damping=True)
    off = EvolutionParams(m=2.0, gamma=1.2, damping=False)
    for t in (0.01, 0.2, 1.0):
        n_on = slice_l2_norm(propagate_slice(make_plan(f, on), t))
        n_off = slice_l2_norm(propagate_slice(make_plan(f, off), t))
        assert n_on <= n_off * (1 + 1e-12)


def test_reflected_modulus_for_real_spectra():
    # for real-valued samples, conjugate-reflecting the spectrum reflects the
    # modulus of every undamped quadratic-phase slice: |h*_t(y)| = |h_t(-y)|
    rng = np.random.default_rng(2)
    xi = np.linspace(-10.0, 10.0, 2001)
    window = np.exp(-xi ** 2 / 8)
    vals = window * rng.standard_normal(xi.size)
    f = SpectralFunction(-10.0, 10.0, vals.astype(complex))
    fr = SpectralFunction(-10.0, 10.0, np.conj(vals[::-1]).astype(complex))
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    ys = np.linspace(-2.0, 2.0, 41)
    for t in (0.07, 0.8):
        a = np.abs([direct_quadrature(fr, params, y, t) for y in ys])
        b = np.abs([direct_quadrature(f, params, -y, t) for y in ys])
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(b)


# ---------------------------------------------------------------------------
# oracle agreement between the two routes
# ---------------------------------------------------------------------------

def test_transform_matches_quadrature_at_random_points():
    lam = 64.0
    f = random_band_limited(lam, seed=5)
    curve = holder_curve(0.5)
    floor = 1e-2 * amplitude_bound(f)
    rng = np.random.default_rng(17)
    for damping in (False, True):
        params = EvolutionParams(m=2.0, gamma=1.0, damping=damping)
        plan = make_plan(f, params, curve)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0)
            t = rng.uniform(0.0, 1.0)
            a = evaluate_along_curve(plan, curve, x, t, path="transform")
            b = evaluate_along_curve(plan, curve, x, t, path="quadrature")
            assert abs(a - b) <= 1e-6 * max(abs(b), floor)


def test_auto_path_consistency():
    f = random_band_limited(16.0, seed=8)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    curve = identity_curve()
    plan = make_plan(f, params, curve)
    xs = np.linspace(-0.5, 0.5, 50)
    auto = evaluate_along_curve(plan, curve, xs, 0.3, path="transform")
    quad = evaluate_along_curve(plan, curve, xs, 0.3, path="quadrature")
    floor = 1e-2 * amplitude_bound(f)
    assert np.max(np.abs(auto - quad) / np.maximum(np.abs(quad), floor)) <= 1e-6


# ---------------------------------------------------------------------------
# direct quadrature basics
# ---------------------------------------------------------------------------

def test_quadrature_of_zero_spectrum():
    f = SpectralFunction(0.0, 1.0, np.zeros(128, dtype=complex))
    params = EvolutionParams()
    assert direct_quadrature(f, params, 0.3, 0.5) == 0.0


def test_quadrature_at_origin_is_mean():
    f = random_band_limited(8.0, seed=12)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    want = np.trapezoid(f.samples, dx=f.delta_xi) / (2 * np.pi)
    got = direct_quadrature(f, params, 0.0, 0.0)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_half_wave_transport():
    # m=1, damping off, one-sided spectrum: the phase xi (y + t) vanishes on
    # the support line y = -t, so the value equals the one at the origin
    fam = dilated_family(0.5, 1.0, 16.0)
    f = build_counterexample(fam)
    params = EvolutionParams(m=1.0, gamma=1.0, damping=False)
    v0 = direct_quadrature(f, params, 0.0, 0.0)
    for t in (0.1, 0.5, 1.0):
        vt = direct_quadrature(f, params, -t, t)
        assert abs(vt - v0) <= 1e-9 * abs(v0)


# ---------------------------------------------------------------------------
# route cross-check where the field is alive
# ---------------------------------------------------------------------------

# |xi|**m is not smooth at 0 unless m is even, and the transform route's
# trapezoid sum does not resolve that kink: on the Gaussian it is off by 3e-4
# (m = 0.5), 2e-5 (m = 1) and 7e-7 (m = 1.5) relative, so the Gaussian, the
# one source with amplitude at xi = 0, is cross-checked at m = 2 and 3 only.
_LIVE_SOURCES = {
    "band16": (lambda: random_band_limited(16.0, seed=21),
               (0.5, 1.0, 1.5, 2.0, 3.0)),
    "band8-one-sided": (lambda: random_band_limited(8.0, seed=22,
                                                    two_sided=False),
                        (0.5, 1.0, 1.5, 2.0, 3.0)),
    "dilated": (lambda: build_counterexample(dilated_family(0.25, 0.75, 16.0),
                                             512),
                (0.5, 1.0, 1.5, 2.0, 3.0)),
    "gaussian": (lambda: from_profile(lambda xi: np.exp(-xi ** 2 / 2),
                                      -12.0, 12.0, 1201),
                 (2.0, 3.0)),
}


@pytest.mark.parametrize("name,m", [(name, m)
                                    for name, (_, ms) in _LIVE_SOURCES.items()
                                    for m in ms])
def test_routes_agree_at_live_points(name, m):
    """``field_value`` and ``direct_quadrature`` at the slice argmax |h|
    inside a query window wide enough to hold the packet at time t."""
    f = _LIVE_SOURCES[name][0]()
    bound = amplitude_bound(f)
    # largest group speed m |xi|**(m-1) over the significant band
    xi = np.abs(f.grid()[np.abs(f.samples) > 1e-3 * np.abs(f.samples).max()])
    speed = m * max(xi.max() ** (m - 1.0),
                    max(xi.min(), f.delta_xi) ** (m - 1.0))
    for damping in (True, False):
        params = EvolutionParams(m=m, gamma=2.0, damping=damping)
        for t in (0.05, 0.3, 1.0):
            reach = 2.0 + t * speed
            plan = PropagationPlan(f, params, -reach, reach)
            sl = propagate_slice(plan, t)
            y = sl.grid()
            inside = (y >= plan.y_lo) & (y <= plan.y_hi)
            y_peak = float(y[np.argmax(np.where(inside, np.abs(sl.values),
                                                -1.0))])
            a = field_value(sl, y_peak)
            b = direct_quadrature(f, params, y_peak, t)
            scale = max(abs(b), 1e-6 * bound)
            assert abs(a - b) <= 1e-9 * scale, (damping, t, y_peak)


# ---------------------------------------------------------------------------
# grids and guards
# ---------------------------------------------------------------------------

def test_slice_respects_demodulated_nyquist():
    f = random_band_limited(64.0, seed=3, two_sided=False)
    params = EvolutionParams(m=2.0, gamma=2.0, damping=True)
    plan = make_plan(f, params)
    sl = propagate_slice(plan, 1e-5)
    half_band = 0.5 * (f.xi_max - f.xi_min)
    assert sl.delta_y <= np.pi / (2.0 * half_band)
    # plan window is covered
    assert sl.y_min <= plan.y_lo and sl.y_max >= plan.y_hi


def test_out_of_window_queries_raise():
    f = random_band_limited(8.0, seed=2)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    plan = make_plan(f, params)
    sl = propagate_slice(plan, 0.1)
    with pytest.raises(GridRangeError):
        field_value(sl, sl.y_max + 1.0)
    with pytest.raises(GridRangeError):
        evaluate_along_curve(plan, identity_curve(), plan.y_hi + 1.0, 0.1,
                             path="quadrature")


def test_determinism_bitwise():
    f = random_band_limited(32.0, seed=6)
    params = EvolutionParams(m=2.0, gamma=1.1, damping=True)
    plan = make_plan(f, params)
    a = propagate_slice(plan, 0.37)
    b = propagate_slice(plan, 0.37)
    assert a.values.tobytes() == b.values.tobytes()


def test_field_value_does_not_round_by_batch_size():
    # from 16 384 values on, numpy wrote the bare product env * exp(...)
    # into the exponential's temporary with the operands swapped, which
    # rounded the imaginary part otherwise: 6592 of these values moved, by
    # up to 1.8e-15
    f = random_band_limited(64.0, seed=5, two_sided=False)
    plan = make_plan(f, EvolutionParams(m=2.0, gamma=1.0, damping=False))
    sl = propagate_slice(plan, 0.01)
    ys = np.linspace(sl.y_min, sl.y_max, 20_000)
    parts = [field_value(sl, ys[k:k + 1000]) for k in range(0, ys.size, 1000)]
    assert field_value(sl, ys).tobytes() == np.concatenate(parts).tobytes()


# ---------------------------------------------------------------------------
# batched oracle
# ---------------------------------------------------------------------------

def _batch_points(f, m, damping):
    """(y, t) pairs: repeats, an A, B, A order, t = 0, and times whose
    damping cap (745 / t)**(1/m) (gamma = 1) clips the support at 80 % and
    50 % of its largest |xi|, and with damping on also at 10 % (undamped,
    that time would ask for more nodes than the budget allows).  The second
    80 % time moves the cap inside the same grid cell.  Then seven points
    of one band whose per-parameter extremes are none of them: with damping
    on they form a run of their own, which for m >= 1 takes one rule from
    those extremes."""
    top = max(abs(v) for v in f.support())
    t80, t50, t10 = (745.0 / (c * top) ** m for c in (0.8, 0.5, 0.1))
    pts = [(0.2, 0.0), (-0.4, 0.3), (-0.4, 0.3), (0.9, 0.7), (0.1, 0.3),
           (0.5, t80), (0.5, t80 * (1.0 + 1e-6)), (-0.3, t50), (0.5, t80),
           (1e-3, 1e-7), (-2e-3, 3e-7), (5e-4, 2e-7), (0.0, 1e-7),
           (0.6, 0.0), (1e-3, 0.0), (-0.7, 0.0)]
    return pts + [(0.0, t10)] if damping else pts


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("damping", [True, False])
@pytest.mark.parametrize("kind", ["two-sided band", "dilated"])
def test_batched_quadrature_is_bit_identical_to_scalar_calls(m, damping, kind):
    if kind == "two-sided band":
        f = random_band_limited(8.0, seed=5)
    else:
        f = build_counterexample(dilated_family(0.5, 1.0, 16.0), 256)
    params = EvolutionParams(m=m, gamma=1.0, damping=damping)
    pts = _batch_points(f, m, damping)
    ys, ts = (np.array(v) for v in zip(*pts))
    batch = direct_quadrature(f, params, ys, ts)
    loop = [direct_quadrature(f, params, y, t) for y, t in pts]
    assert batch.shape == (len(pts),)
    assert all(type(v) is complex for v in loop)
    assert batch.tolist() == loop
    assert all(v != 0.0 for v in loop[:9])


@pytest.mark.parametrize("damping,t", [(False, 0.5), (True, 0.05)])
def test_run_on_a_node_set_of_many_leaves_is_bit_identical_to_scalar_calls(
        damping, t, monkeypatch):
    # one rule for every point (the same |y| and t), on a node set of 39 k
    # and 51 k nodes: each point is summed in several leaves of _CHUNK nodes
    import ctschro._numerics as numerics
    import ctschro.evolve as evolve
    f = random_band_limited(64.0, seed=5)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=damping)
    sizes = []
    build = evolve.node_set

    def counting(edges, counts, orders, amp, m):
        sizes.append(int((counts * orders).sum()))
        return build(edges, counts, orders, amp, m)
    monkeypatch.setattr(evolve, "node_set", counting)
    ys = [0.3, -0.3, 0.3, -0.3]
    batch = direct_quadrature(f, params, np.array(ys), np.full(4, t))
    assert len(sizes) == 1 and sizes[0] > 2 * numerics._CHUNK
    loop = [direct_quadrature(f, params, y, t) for y in ys]
    assert batch.tolist() == loop
    assert loop[0] != loop[1]


def test_run_over_the_node_budget_only_at_its_extremes(monkeypatch):
    import ctschro._numerics as numerics
    from ctschro._numerics import phase_counts
    from ctschro.evolve import _oracle_band, _oracle_edges
    f = random_band_limited(8.0, seed=5)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    edges = _oracle_edges(f, _oracle_band(params, f.support(), 0.0))

    def size(y, t):
        counts, orders = phase_counts(edges, y, t, 0.0, 2.0)
        return int((counts * orders).sum())
    # each point fits the budget; the run's per-parameter maximum does not
    pts = [(1500.0, 0.0), (0.0, 60.0)]
    budget = max(size(y, t) for y, t in pts)
    assert size(1500.0, 60.0) > budget
    monkeypatch.setattr(numerics, "_MAX_NODES", budget)
    ys, ts = zip(*pts)
    got = direct_quadrature(f, params, ys, ts).tolist()
    assert got == [direct_quadrature(f, params, y, t) for y, t in pts]


def test_batched_quadrature_nan_point_raises():
    f = random_band_limited(8.0, seed=5)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    with pytest.raises(ResolutionError):
        direct_quadrature(f, params, np.nan, 0.3)
    with pytest.raises(ResolutionError):
        direct_quadrature(f, params, [0.1, np.nan, 0.2], [0.3, 0.3, 0.3])


def test_batched_quadrature_zero_cases():
    params = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    empty = SpectralFunction(0.0, 1.0, np.zeros(128, dtype=complex))
    got = direct_quadrature(empty, params, [0.3, -0.2], [0.5, 0.0])
    assert got.tolist() == [0j, 0j]
    # one-sided band on [4, 16]: at t = 100 the damping cap 2.7 lies below
    # the band, so the middle point is fully damped
    band = random_band_limited(8.0, seed=6, two_sided=False)
    pts = [(0.1, 0.2), (0.1, 100.0), (0.1, 0.2)]
    ys, ts = zip(*pts)
    got = direct_quadrature(band, params, ys, ts).tolist()
    assert got == [direct_quadrature(band, params, y, t) for y, t in pts]
    assert got[1] == 0.0 and got[0] != 0.0


def test_batched_quadrature_shapes():
    f = random_band_limited(8.0, seed=5)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    ys = np.array([[0.1, -0.2, 0.3], [0.0, 0.5, -0.5]])
    grid = direct_quadrature(f, params, ys, 0.4)
    assert grid.shape == (2, 3) and grid.dtype == complex
    assert grid[1, 2] == direct_quadrature(f, params, -0.5, 0.4)
    assert type(direct_quadrature(f, params, np.float64(0.1), 0.4)) is complex
    assert direct_quadrature(f, params, [], []).shape == (0,)


def test_batched_quadrature_interpolates_once_per_node_set(monkeypatch):
    import ctschro.evolve as evolve
    f = random_band_limited(8.0, seed=5)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    calls = []
    orig = evolve.lagrange_on_rule

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(evolve, "lagrange_on_rule", counting)
    # y = 0 and t = 0: every cell has one sub-cell, so all points share
    direct_quadrature(f, params, np.zeros(5), np.zeros(5))
    assert len(calls) == 1
    calls.clear()
    # A, B, A: the single cached slot rebuilds for each change
    direct_quadrature(f, params, [0.0, 0.0, 0.0], [0.0, 5.0, 0.0])
    assert len(calls) == 3
    calls.clear()
    # the damping cap moves inside one grid cell: equal sub-cell counts but
    # different clipped edges, so the node set is rebuilt
    damped = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    t80 = 745.0 / 12.8 ** 2
    direct_quadrature(f, damped, [0.5, 0.5], [t80, t80 * (1.0 + 1e-6)])
    assert len(calls) == 2
    calls.clear()
    # caps beyond the support leave one band, and the run's extremes agree:
    # one node set
    direct_quadrature(f, damped, np.full(6, 0.5), 1e-9 * np.arange(1.0, 7.0))
    assert len(calls) == 1


def test_batched_quadrature_keys_on_rule_orders(monkeypatch):
    import ctschro.evolve as evolve
    f = random_band_limited(8.0, seed=6, two_sided=False, n_samples=256)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    # t = 0: y = 0 leaves every cell on one 4-point sub-cell, and a phase of
    # 1 rad per cell puts every cell on one 12-point sub-cell
    ys = [0.0, 1.0 / f.delta_xi, 0.0]
    calls = []
    orig = evolve.node_set

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(evolve, "node_set", counting)
    batch = direct_quadrature(f, params, ys, 0.0).tolist()
    assert len(calls) == 3
    assert batch == [direct_quadrature(f, params, y, 0.0) for y in ys]


def test_quadrature_node_budget():
    from ctschro._numerics import _FINE_BUDGETS, _MAX_NODES, phase_counts
    edges = np.linspace(0.0, 1.0, 11)
    counts, orders = phase_counts(edges, 0.0, 0.0, 0.0, 2.0)
    assert counts.tolist() == [1] * 10
    assert orders.tolist() == [4] * 10
    # a linear phase of (k - 1/2) c_32 per cell on ten cells away from 0
    # puts every cell on k sub-cells of the 32-point rule: 320 k nodes
    fast = np.linspace(1.0, 2.0, 11)
    k = _MAX_NODES // 320

    def lin(k):
        return (k - 0.5) * _FINE_BUDGETS[-1] / 0.1
    counts, orders = phase_counts(fast, lin(k), 0.0, 0.0, 2.0)  # just under
    assert counts.tolist() == [k] * 10
    assert orders.tolist() == [32] * 10
    with pytest.raises(ResolutionError, match="nodes"):          # just over
        phase_counts(fast, lin(k + 1), 0.0, 0.0, 2.0)


def test_stencil_denominators_match_products():
    offs = np.arange(_STENCIL, dtype=float)
    want = [np.prod(j - np.delete(offs, j)) for j in range(_STENCIL)]
    assert _DENOMINATORS.tolist() == want


# ---------------------------------------------------------------------------
# windowed slices (chirp-z synthesis)
# ---------------------------------------------------------------------------

# (y_min, delta_y, n_samples) of the full slice of random_band_limited(8, 5)
# under make_plan with gamma = 1.5, as the inverse-FFT synthesis gave them
_FULL_GRIDS = {
    (0.5, True, 1.0): (-13.656163673374383, 0.01226885024685879, 2228),
    (1.0, False, 0.3): (-10.5, 0.01226885024685879, 1713),
    (2.0, True, 0.3): (-17.585934065934065, 0.01226885024685879, 2868),
    (2.0, False, 1.0): (-39.95311355311355, 0.01226885024685879, 6514),
    (3.0, True, 1.0): (-254.54267467711213, 0.021574846242839372, 23598),
    (3.0, False, 1.0): (-773.7510993036268, 0.012277749067059677, 126043),
}


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("damping", [True, False])
def test_windowed_slice_matches_full_slice(m, damping):
    """The nodes of a slice synthesized on a span are the full slice's nodes
    there, and the grid covers the span plus the interpolation stencil.
    The spans at both ends of the window (widest at t = 1) carry the
    largest phase ramp |y_first| du k of the span's first node."""
    f = random_band_limited(8.0, seed=5)
    params = EvolutionParams(m=m, gamma=1.5, damping=damping)
    plan = make_plan(f, params)
    bound = amplitude_bound(f)
    pad = _STENCIL
    for t in (0.0, 1e-3, 0.3, 1.0):
        full = propagate_slice(plan, t)
        dy = full.delta_y
        if (m, damping, t) in _FULL_GRIDS:
            assert (full.y_min, dy, full.n_samples) == _FULL_GRIDS[m, damping, t]
        spans = [(0.3, 0.3),                          # one point
                 (plan.y_lo, plan.y_hi),              # the plan's window
                 (full.y_min - 1.0, plan.y_lo + 0.5),  # clipped at the left
                 (full.y_min + dy, full.y_min + 0.5),  # the left end
                 (full.y_max - 0.5, full.y_max - dy),  # the right end
                 (full.y_max - 0.5, full.y_max + 1.0)]  # clipped at the right
        for lo, hi in spans:
            win = propagate_slice(plan, t, (lo, hi))
            assert win.delta_y == dy and win.carrier == full.carrier
            n0 = round((win.y_min - full.y_min) / dy)
            assert abs(win.y_min - (full.y_min + n0 * dy)) <= 1e-9 * dy
            assert win.y_min <= max(lo - pad * dy, full.y_min) + 1e-9 * dy
            assert win.y_max >= min(hi + pad * dy, full.y_max) - 1e-9 * dy
            assert win.y_min >= full.y_min - 1e-9 * dy
            assert win.y_max <= full.y_max + 1e-9 * dy
            same = full.values[n0:n0 + win.n_samples]
            assert np.max(np.abs(win.values - same)) <= 1e-13 * bound, (t, lo)
            ys = np.linspace(max(lo, full.y_min), min(hi, full.y_max), 7)
            gap = field_value(win, ys) - field_value(full, ys)
            assert np.max(np.abs(gap)) <= 1e-13 * bound, (t, lo)


def test_windowed_slice_rejects_bad_spans():
    f = random_band_limited(8.0, seed=5)
    plan = make_plan(f, EvolutionParams(m=2.0, gamma=1.0, damping=False))
    full = propagate_slice(plan, 0.5)
    with pytest.raises(GridRangeError):
        propagate_slice(plan, 0.5, (0.2, 0.1))
    with pytest.raises(GridRangeError):
        propagate_slice(plan, 0.5, (full.y_max + 1.0, full.y_max + 2.0))


def test_chirp_z_matches_inverse_fft():
    """Outputs across a 1.5 M-point period.  The transform yields outputs
    0 .. n_out-1, and an offset n0 enters as the input phases
    exp(2 pi i k n0 / n), reduced mod n in integers.  The whole period
    (0, n) takes chirp indices up to n, where a phase pi j**2 / n computed
    in floating point would be off by about 5e-10, so it needs the chirp's
    integer reduction of j**2 mod 2n."""
    from ctschro.evolve import _chirp_z, _chirp_z_factors
    rng = np.random.default_rng(3)
    n = 3 * 2 ** 19
    a = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    spec = np.zeros(n, dtype=complex)
    spec[:a.size] = a
    want = n * np.fft.ifft(spec)
    k = np.arange(a.size, dtype=np.int64)
    for n0, n1 in ((0, 40), (n - 300, n), (n // 2 - 7, n // 2 + 9),
                   (n - 7000, n), (0, n)):
        shifted = a * np.exp((2j * math.pi / n) * ((k * n0) % n))
        chirp_in, lag_fft, chirp_out = _chirp_z_factors(a.size, n, n1 - n0)
        got = _chirp_z(shifted, chirp_in, lag_fft, n1 - n0) * chirp_out
        assert np.max(np.abs(got - want[n0:n1])) <= 1e-12 * np.abs(a).sum()


@pytest.mark.parametrize("k_len,n_out", [(1, 1), (1, 9), (9, 1), (300, 40),
                                         (40, 300), (64, 64), (5000, 7000)])
def test_chirp_z_factors_are_fresh_chirps_bit_for_bit(k_len, n_out):
    """The one ``_chirp`` pass read as prefixes and, reflected, as the lag
    chirp gives the chirps computed index by index: the FFT of the lag
    chirp equals that of conj(_chirp) over -(k_len-1) .. n_out-1."""
    from ctschro.evolve import _chirp, _chirp_z_factors, _next_fast_len
    n = 3 * 2 ** 19
    chirp_in, lag_fft, chirp_out = _chirp_z_factors(k_len, n, n_out)
    assert chirp_in.tobytes() == \
        _chirp(np.arange(k_len, dtype=np.int64), n).tobytes()
    assert chirp_out.tobytes() == \
        _chirp(np.arange(n_out, dtype=np.int64), n).tobytes()
    lag = np.conj(_chirp(np.arange(1 - k_len, n_out, dtype=np.int64), n))
    size = _next_fast_len(k_len + n_out - 1)
    assert lag_fft.tobytes() == np.fft.fft(lag, size).tobytes()


def test_next_fast_len_is_scipys():
    sfft = pytest.importorskip("scipy.fft")
    from ctschro.evolve import _MAX_FFT, _next_fast_len
    rng = np.random.default_rng(10)
    targets = [*range(1, 2 ** 16 + 1),
               *rng.integers(1, _MAX_FFT, 1000, endpoint=True).tolist(),
               _MAX_FFT - 1, _MAX_FFT, _MAX_FFT + 1]
    assert [_next_fast_len(t) for t in targets] == \
        [sfft.next_fast_len(t) for t in targets]


def test_chirp_z_is_the_scipy_fft_version_bit_for_bit(monkeypatch):
    sfft = pytest.importorskip("scipy.fft")
    import ctschro.evolve as evolve
    from ctschro.evolve import _chirp, _chirp_z, _chirp_z_factors

    def scipy_chirp_z(a, chirp_in, n, n_out):
        k_len = a.size
        size = sfft.next_fast_len(k_len + n_out - 1)
        spec = sfft.fft(a * chirp_in, size)
        lag = np.arange(1 - k_len, n_out, dtype=np.int64)
        spec *= sfft.fft(np.conj(_chirp(lag, n)), size)
        return sfft.ifft(spec, overwrite_x=True)[k_len - 1:k_len - 1 + n_out]

    # the transform with its cached factors, as the slices computed it; the
    # period of each lag FFT is read off the factor builds
    periods, calls = {}, []

    def spy_factors(k_len, n, n_out):
        factors = _chirp_z_factors(k_len, n, n_out)
        periods[id(factors[1])] = (n, factors[1])
        return factors

    def spy(a, chirp_in, lag_fft, n_out):
        out = _chirp_z(a, chirp_in, lag_fft, n_out)
        calls.append((a.copy(), chirp_in, periods[id(lag_fft)][0],
                      out.copy()))
        return out
    monkeypatch.setattr(evolve, "_chirp_z_factors", spy_factors)
    monkeypatch.setattr(evolve, "_chirp_z", spy)
    # A4's shape: lam = 64 band spectrum, undamped m = 2, Hoelder 1/2 curve
    f = random_band_limited(64.0, seed=52)
    plan = make_plan(f, EvolutionParams(m=2.0, gamma=1.0, damping=False),
                     holder_curve(0.5))
    for x, t in ((0.3, 0.05), (-0.7, 0.6)):
        evaluate_along_curve(plan, holder_curve(0.5), x, t, path="transform")
    propagate_slice(plan, 0.2)
    assert len(calls) == 3
    for a, chirp_in, n, got in calls:
        assert got.tobytes() == \
            scipy_chirp_z(a, chirp_in, n, got.size).tobytes()


def test_a_fresh_slice_makes_one_chirp_pass(monkeypatch):
    """The input, lag and output chirps of a slice come from one ``_chirp``
    pass, and a slice on a held grid makes none."""
    import ctschro.evolve as evolve
    from ctschro.evolve import _GridInHand
    passes = []
    real = evolve._chirp
    monkeypatch.setattr(evolve, "_chirp",
                        lambda j, n: passes.append(j.size) or real(j, n))
    f = random_band_limited(64.0, seed=52)
    plan = make_plan(f, EvolutionParams(m=2.0, gamma=1.0, damping=False),
                     holder_curve(0.5))
    for span in (None, (0.1, 0.2)):
        passes.clear()
        propagate_slice(plan, 0.3, span)
        assert len(passes) == 1
    held = _GridInHand()
    propagate_slice(plan, 0.3, (0.1, 0.2), _held=held)
    passes.clear()
    propagate_slice(plan, 0.3, (0.1, 0.2), _held=held)
    assert passes == []


def _held_case():
    """The damped modulated family (1/2, 3, R 16, b 2) on 128 samples along
    its Hoelder curve, and its default time grid: the damping cap clips j0
    partway, the dispersive range widens the window until q grows from 1 to
    3, and the last 17 slices are dead."""
    from ctschro.domain import modulated_family
    from ctschro.maximal import build_time_grid, default_time_exponent
    fam = modulated_family(0.5, 3.0, 16.0)
    f = build_counterexample(fam, 128)
    plan = make_plan(f, EvolutionParams(m=2.0, gamma=3.0, damping=True),
                     holder_curve(0.5))
    return plan, build_time_grid(default_time_exponent(fam.lam)).times.tolist()


def test_slices_on_a_held_grid_are_fresh_slices():
    from ctschro.evolve import _GridInHand, slice_grid
    plan, times = _held_case()
    window = (plan.y_lo, plan.y_hi)
    grids = [slice_grid(plan, t, window) for t in times]
    live = [g for g in grids if g is not None]
    assert len({g.j0 for g in live}) == 2 and len({g.q for g in live}) == 3
    assert len(live) < len(grids)
    for span in (window, None):
        held = _GridInHand()
        for t in times:
            got = propagate_slice(plan, t, span, _held=held)
            want = propagate_slice(plan, t, span)
            assert got.values.tobytes() == want.values.tobytes()
            assert (got.y_min, got.delta_y, got.carrier) == \
                (want.y_min, want.delta_y, want.carrier)


def test_held_grid_is_rebuilt_for_another_plan():
    from ctschro.evolve import _GridInHand, slice_grid
    plan, _ = _held_case()
    f = plan.source
    twice = make_plan(SpectralFunction(f.xi_min, f.xi_max, 2.0 * f.samples),
                      plan.params, holder_curve(0.5))
    assert slice_grid(plan, 1e-4) == slice_grid(twice, 1e-4)
    held = _GridInHand()
    a = propagate_slice(plan, 1e-4, _held=held)
    b = propagate_slice(twice, 1e-4, _held=held)
    assert b.values.tobytes() == propagate_slice(twice, 1e-4).values.tobytes()
    assert np.array_equal(b.values, 2.0 * a.values)


def test_slice_over_max_fft_fails_before_allocating(monkeypatch):
    import ctschro.evolve as evolve

    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the max_fft check")
    # 256 samples: the slice refines the spectral step, so it interpolates
    f = random_band_limited(16.0, seed=3, n_samples=256)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    curve = holder_curve(0.5)
    # the check is on the full grid's period, whatever the span asks for
    small = make_plan(f, params, curve)
    assert evaluate_along_curve(small, curve, 0.1, 0.5,
                                path="transform") != 0.0
    monkeypatch.setattr(evolve, "_MAX_FFT", 4096)
    monkeypatch.setattr(evolve, "lagrange_uniform", forbidden)
    monkeypatch.setattr(evolve, "lagrange_cells", forbidden)
    monkeypatch.setattr(evolve, "_chirp_z", forbidden)
    monkeypatch.setattr(evolve, "_synthesis", forbidden)
    monkeypatch.setattr(evolve, "_chirp_z_factors", forbidden)
    with pytest.raises(ResolutionError, match="max_fft"):
        propagate_slice(small, 0.5)
    with pytest.raises(ResolutionError, match="max_fft"):
        propagate_slice(small, 0.5, (0.1, 0.1))
    with pytest.raises(ResolutionError, match="max_fft"):
        evaluate_along_curve(small, curve, 0.1, 0.5, path="transform")


@pytest.mark.parametrize("m,gamma,t", [(2.0, 2.0, 4e-230),
                                        (0.5, 1.5, 1e-200),
                                        (3.0, 1.0, 1e-320)])
def test_damping_at_vanishing_times(m, gamma, t):
    """t**gamma underflows to 0 (or the damping cap overflows): both routes
    read the slice as undamped instead of dividing by zero."""
    f = random_band_limited(8.0, seed=5)
    params = EvolutionParams(m=m, gamma=gamma, damping=True)
    plan = make_plan(f, params)
    assert direct_quadrature(f, params, 0.3, t) == \
        direct_quadrature(f, params, 0.3, 0.0)
    a = evaluate_along_curve(plan, identity_curve(), 0.3, t, path="transform")
    b = evaluate_along_curve(plan, identity_curve(), 0.3, 0.0,
                             path="transform")
    assert abs(a - b) <= 1e-13 * amplitude_bound(f)


_GAUSSIAN = gaussian_spectrum()


@given(gamma=st.floats(0.5, 3.0), t=st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_gaussian_closed_form_random_gamma_and_time(gamma, t):
    """Both routes against the damped m = 2 Gaussian closed form at A4's
    1e-7 relative tolerance."""
    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    curve = identity_curve()
    plan = make_plan(_GAUSSIAN, params, curve)
    xs = np.linspace(-1.0, 1.0, 9)
    want = gaussian_closed_form(xs, t, gamma)
    got_t = evaluate_along_curve(plan, curve, xs, t, path="transform")
    got_q = direct_quadrature(_GAUSSIAN, params, xs, t)
    assert np.max(np.abs(got_t - want) / np.abs(want)) <= 1e-7
    assert np.max(np.abs(got_q - want) / np.abs(want)) <= 1e-7


# ---------------------------------------------------------------------------
# negative times under damping, and the a-priori slice bound
# ---------------------------------------------------------------------------

def test_damped_negative_time_is_a_domain_error_for_the_oracle():
    f = random_band_limited(8.0, seed=5)
    params = EvolutionParams(m=2.0, gamma=1.5, damping=True)
    with pytest.raises(DomainError, match="t >= 0"):
        direct_quadrature(f, params, 0.3, -0.3)
    with pytest.raises(DomainError, match="t >= 0"):
        direct_quadrature(f, params, [0.3, 0.1], [0.2, -0.3])
    with pytest.raises(DomainError, match="t >= 0"):
        evaluate_along_curve(make_plan(f, params), identity_curve(), 0.3,
                             -0.3, path="quadrature")
    # without damping the evolution runs backwards in time as well
    undamped = EvolutionParams(m=2.0, gamma=1.5, damping=False)
    assert np.isfinite(direct_quadrature(f, undamped, 0.3, -0.3))


def test_damped_negative_time_is_a_domain_error_for_the_slice():
    f = random_band_limited(8.0, seed=5)
    plan = make_plan(f, EvolutionParams(m=2.0, gamma=1.5, damping=True))
    for call in (lambda: slice_grid(plan, -0.3),
                 lambda: propagate_slice(plan, -0.3),
                 lambda: propagate_slice(plan, -0.3, (0.1, 0.2)),
                 lambda: slice_bound(plan)(-0.3)):
        with pytest.raises(DomainError, match="t >= 0"):
            call()
    undamped = make_plan(f, EvolutionParams(m=2.0, gamma=1.5, damping=False))
    assert np.all(np.isfinite(propagate_slice(undamped, -0.3).values))
    assert slice_bound(undamped)(0.0) == np.inf


# stencil positions of the reads: the whole stencil at 1/8 steps and the
# maxima of its Lebesgue function
_STENCIL_READS = np.concatenate([np.linspace(0.0, 7.0, 57),
                                 [0.347018, 6.652982]])


@given(seed=st.integers(0, 2 ** 16), lam=st.sampled_from([4.0, 8.0, 16.0]),
       m=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       gamma=st.floats(0.25, 3.0), two_sided=st.booleans(),
       coherent=st.booleans(), t=st.floats(0.0, 1.0), dt=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_slice_bound_majorizes_every_later_slice_and_read(
        seed, lam, m, gamma, two_sided, coherent, t, dt):
    """U(t) bounds every node of full and windowed slices at t and at a
    later time, and every read of them, in the clamped stencils at both
    ends and in the middle; U does not increase with t.  U is not slack by
    much more than the interpolant's share L**2 (L = ``_LEBESGUE``): a
    coherent source (|fhat|) peaks above U(0) / (2 L**2) at t = 0."""
    f = random_band_limited(lam, seed=seed, two_sided=two_sided)
    if coherent:
        f = SpectralFunction(f.xi_min, f.xi_max,
                             np.abs(f.samples).astype(complex))
    plan = make_plan(f, EvolutionParams(m=m, gamma=gamma, damping=True))
    bound = slice_bound(plan)
    later = t + dt * (1.0 - t)
    u = bound(t)
    assert bound(later) <= u
    if coherent:
        peak = np.abs(propagate_slice(plan, 0.0).values).max()
        assert peak >= bound(0.0) / (2.0 * _LEBESGUE ** 2)
    for when in (t, later):
        for span in (None, (plan.y_lo, plan.y_hi), (-0.2, 0.3)):
            sl = propagate_slice(plan, when, span)
            assert np.abs(sl.values).max() <= u
            last = sl.n_samples - 1
            pos = np.concatenate([_STENCIL_READS, last - _STENCIL_READS,
                                  last // 2 - 3.5 + _STENCIL_READS])
            reads = lagrange_uniform(sl.values, sl.y_min, sl.delta_y,
                                     sl.y_min + sl.delta_y * pos)
            assert np.abs(reads).max() <= u
