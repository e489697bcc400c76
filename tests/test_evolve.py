import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

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
from ctschro.errors import GridRangeError, ResolutionError
from ctschro.evolve import (
    direct_quadrature,
    evaluate_along_curve,
    field_value,
    make_plan,
    propagate_slice,
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


def test_alias_contamination_below_budget():
    # widening the synthesis period must not move the values: wrap-around
    # images are already below 1e-9 at the default safety factor
    f = gaussian_spectrum()
    params = EvolutionParams(m=2.0, gamma=1.5, damping=True)
    ys = np.linspace(-2.0, 2.0, 33)
    for t in (0.1, 1.0):
        tight = make_plan(f, params, alias_safety=2.0)
        wide = make_plan(f, params, alias_safety=8.0)
        a = field_value(propagate_slice(tight, t), ys)
        b = field_value(propagate_slice(wide, t), ys)
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
    xs = np.linspace(-0.5, 0.5, 50)   # > 32 queries: auto takes the transform
    auto = evaluate_along_curve(plan, curve, xs, 0.3)
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
            plan = make_plan(f, params, y_lo=-reach, y_hi=reach)
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
        evaluate_along_curve(plan, identity_curve(), plan.y_hi + 1.0, 0.1)


def test_oversampling_floor_enforced():
    f = random_band_limited(8.0, seed=2)
    params = EvolutionParams()
    with pytest.raises(ResolutionError):
        make_plan(f, params, oversampling=1.5)


def test_determinism_bitwise():
    f = random_band_limited(32.0, seed=6)
    params = EvolutionParams(m=2.0, gamma=1.1, damping=True)
    plan = make_plan(f, params)
    a = propagate_slice(plan, 0.37)
    b = propagate_slice(plan, 0.37)
    assert a.values.tobytes() == b.values.tobytes()


# ---------------------------------------------------------------------------
# batched oracle
# ---------------------------------------------------------------------------

def _batch_points(f, m, damping):
    """(y, t) pairs: repeats, an A, B, A order, t = 0, and times whose
    damping cap (745 / t)**(1/m) (gamma = 1) clips the support at 80 % and
    50 % of its largest |xi|, and with damping on also at 10 % (undamped,
    that time would ask for more nodes than the budget allows).  The second
    80 % time moves the cap inside the same grid cell."""
    top = max(abs(v) for v in f.support())
    t80, t50, t10 = (745.0 / (c * top) ** m for c in (0.8, 0.5, 0.1))
    pts = [(0.2, 0.0), (-0.4, 0.3), (-0.4, 0.3), (0.9, 0.7), (0.1, 0.3),
           (0.5, t80), (0.5, t80 * (1.0 + 1e-6)), (-0.3, t50), (0.5, t80)]
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
    orig = evolve.lagrange_uniform

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(evolve, "lagrange_uniform", counting)
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
    from ctschro._numerics import _MAX_NODES, phase_counts
    edges = np.linspace(0.0, 1.0, 11)
    counts, orders = phase_counts(edges, 0.0, 0.0, 0.0, 2.0)
    assert counts.tolist() == [1] * 10
    assert orders.tolist() == [4] * 10
    # a linear phase of (k - 1/2) 2 pi per cell on ten cells away from 0
    # puts every cell on k sub-cells of the 12-point rule: 120 k nodes
    fast = np.linspace(1.0, 2.0, 11)
    k = _MAX_NODES // 120

    def lin(k):
        return (k - 0.5) * 2.0 * np.pi / 0.1
    counts, orders = phase_counts(fast, lin(k), 0.0, 0.0, 2.0)  # just under
    assert counts.tolist() == [k] * 10
    assert orders.tolist() == [12] * 10
    with pytest.raises(ResolutionError, match="nodes"):          # just over
        phase_counts(fast, lin(k + 1), 0.0, 0.0, 2.0)


def test_stencil_denominators_match_products():
    from ctschro._numerics import _stencil_denominators
    for npts in range(2, 12):
        offs = np.arange(npts, dtype=float)
        want = [np.prod(j - np.delete(offs, j)) for j in range(npts)]
        assert _stencil_denominators(npts).tolist() == want
