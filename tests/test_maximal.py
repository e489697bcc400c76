import hashlib
import math
import weakref

import numpy as np
import pytest

from ctschro.domain import (
    EvolutionParams,
    SpectralFunction,
    amplitude_bound,
    build_counterexample,
    curve_eval,
    dilated_family,
    holder_curve,
    identity_curve,
    modulated_family,
    random_band_limited,
    scaling_interval,
    witness_interval,
    witness_time,
)
from ctschro.kernel import clipped_power_assignment
from ctschro._numerics import lagrange_uniform
from ctschro.errors import CalibrationError, DegenerateSeriesError, DomainError
from ctschro.evolve import direct_quadrature
from ctschro.maximal import (
    LOWER_BOUND_LEVEL,
    ExponentFit,
    MaximalField,
    TimeGrid,
    build_time_grid,
    calibrate_smallness,
    check_ratio_resolution,
    default_time_exponent,
    fit_slope,
    fit_slope_guarded,
    l2_norm_field,
    maximal_field,
    maximal_ratio,
    witness_minimum,
    witness_x_grid,
)


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

def test_time_grid_geometric_example():
    grid = build_time_grid(-4, ratio=2.0)
    assert np.array_equal(grid.times, [0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])


def test_time_grid_refinement_nests():
    coarse = build_time_grid(-6, ratio=2.0 ** 0.125)
    fine = build_time_grid(-6, ratio=2.0 ** 0.0625)
    assert set(coarse.times).issubset(set(fine.times))


def test_time_grid_witness_times_attached():
    fam = dilated_family(0.5, 1.0, 16.0)
    xs = np.array([1e-4, 0.9])          # second node is outside the interval
    grid = build_time_grid(-8, fam=fam, x_nodes=xs)
    assert grid.extra_times[0] == pytest.approx(1e-8, rel=1e-12)
    assert np.isnan(grid.extra_times[1])


def test_time_grid_validation():
    with pytest.raises(DomainError):
        build_time_grid(-1)
    with pytest.raises(DomainError):
        build_time_grid(-4, ratio=0.9)
    with pytest.raises(DomainError, match=r"2\*\*\(1/k\)"):
        build_time_grid(-4, ratio=1.5)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("k", [1, 2, 8])
def test_time_grid_is_np_unique_of_its_powers(k):
    # the powers increase strictly, so the grid is their plain
    # concatenation behind 0, with no np.unique (which imports numpy.ma)
    for e in range(-2, -41, -1):
        powers = 2.0 ** (e + np.arange(-e * k + 1) / k)
        want = np.unique(np.concatenate([[0.0], powers]))
        assert _hex(build_time_grid(e, ratio=2.0 ** (1 / k)).times) \
            == _hex(want), e


# ---------------------------------------------------------------------------
# maximal fields
# ---------------------------------------------------------------------------

def test_zero_spectrum_gives_zero_field():
    f = SpectralFunction(0.0, 8.0, np.zeros(128, dtype=complex))
    params = EvolutionParams()
    grid = build_time_grid(-4)
    field = maximal_field(f, params, identity_curve(),
                          np.linspace(-1, 1, 65), grid)
    assert np.all(field.values == 0.0)


def test_field_dominates_time_zero_amplitude():
    f = random_band_limited(16.0, seed=31)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    xs = np.linspace(-1.0, 1.0, 129)
    grid = build_time_grid(default_time_exponent(16.0))
    field = maximal_field(f, params, holder_curve(0.5), xs, grid)
    f_at = np.abs([direct_quadrature(f, params, x, 0.0) for x in xs])
    assert np.all(field.values >= f_at - 1e-8 * amplitude_bound(f))


def test_witness_values_reach_lower_bound_level():
    fam = dilated_family(0.25, 0.75, 64.0)
    f = build_counterexample(fam)
    params = EvolutionParams(m=2.0, gamma=fam.gamma, damping=True)
    xs = witness_x_grid(fam, 64)
    grid = build_time_grid(default_time_exponent(fam.lam), fam=fam, x_nodes=xs)
    field = maximal_field(f, params, holder_curve(fam.alpha), xs, grid)
    lo, hi = witness_interval(fam)
    inside = (field.x > lo) & (field.x < hi)
    assert field.values[inside].min() >= LOWER_BOUND_LEVEL


def test_refining_time_grid_never_decreases_field():
    f = random_band_limited(8.0, seed=13)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    xs = np.linspace(-1, 1, 65)
    coarse = build_time_grid(-8, ratio=2.0 ** 0.25)
    fine = build_time_grid(-8, ratio=2.0 ** 0.125)
    mc = maximal_field(f, params, identity_curve(), xs, coarse)
    mf = maximal_field(f, params, identity_curve(), xs, fine)
    assert np.all(mf.values >= mc.values - 1e-15)
    assert l2_norm_field(mf, (-1, 1)) >= l2_norm_field(mc, (-1, 1)) - 1e-15


def test_maximal_field_deterministic():
    f = random_band_limited(16.0, seed=40)
    params = EvolutionParams(m=2.0, gamma=0.9, damping=True)
    xs = np.linspace(-1, 1, 101)
    grid = build_time_grid(-12, fam=None)
    a = maximal_field(f, params, holder_curve(0.4), xs, grid)
    b = maximal_field(f, params, holder_curve(0.4), xs, grid)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.argmax_t.tobytes() == b.argmax_t.tobytes()


def _family_field_case(kind):
    """(source, params, curve, x nodes, time grid) of a family's maximal
    field: the dilated (1/4, 3/4, R 16), whose window widens with t, or the
    damped modulated (1/2, 3, R 16, b 2) on 128 samples, whose damping cap
    clips j0 partway, whose q grows from 1 to 3 and whose last slices die."""
    if kind == "dilated":
        fam, n_samples = dilated_family(0.25, 0.75, 16.0), 2048
    else:
        fam, n_samples = modulated_family(0.5, 3.0, 16.0), 128
    f = build_counterexample(fam, n_samples)
    params = EvolutionParams(m=2.0, gamma=fam.gamma, damping=True)
    xs = np.linspace(-1.0, 1.0, 129)
    return (f, params, holder_curve(fam.alpha), xs,
            build_time_grid(default_time_exponent(fam.lam)))


def _grid_runs(f, params, curve, tgrid):
    """The grids of maximal_field's slices, and how many runs of equal
    consecutive grids they form (dead slices have none)."""
    from ctschro.evolve import make_plan, slice_grid
    plan = make_plan(f, params, curve)
    grids = [g for t in tgrid.times.tolist()
             if (g := slice_grid(plan, t, (plan.y_lo, plan.y_hi)))]
    return grids, sum(1 for a, b in zip([None, *grids], grids) if a != b)


@pytest.mark.parametrize("kind", ["dilated", "modulated"])
def test_maximal_field_equals_fresh_slices(kind, monkeypatch):
    import ctschro.evolve as evolve
    import ctschro.maximal as maximal
    f, params, curve, xs, tgrid = _family_field_case(kind)
    grids, runs = _grid_runs(f, params, curve, tgrid)
    if kind == "dilated":
        assert len({g.z_lo for g in grids}) > 1
    else:
        assert len({g.j0 for g in grids}) > 1 and len({g.q for g in grids}) > 1
    assert 1 < runs < len(grids)
    held = maximal_field(f, params, curve, xs, tgrid)
    monkeypatch.setattr(maximal, "propagate_slice",
                        lambda plan, t, span, _held: evolve.propagate_slice(
                            plan, t, span))
    fresh = maximal_field(f, params, curve, xs, tgrid)
    assert held.values.tobytes() == fresh.values.tobytes()
    assert held.argmax_t.tobytes() == fresh.argmax_t.tobytes()
    assert held.values.max() > 0.0


@pytest.mark.parametrize("kind", ["dilated", "modulated"])
def test_maximal_field_builds_one_grid_per_run_of_equal_grids(kind,
                                                               monkeypatch):
    # runs are counted over the slices the call synthesizes: the time loop
    # may stop before the last grid time
    import ctschro.evolve as evolve
    import ctschro.maximal as maximal
    f, params, curve, xs, tgrid = _family_field_case(kind)
    built, times = [], []
    real, slice_ = evolve._synthesis, maximal.propagate_slice

    def spy(*args):
        synthesis = real(*args)
        built.append(weakref.ref(synthesis))
        return synthesis
    monkeypatch.setattr(evolve, "_synthesis", spy)
    monkeypatch.setattr(maximal, "propagate_slice",
                        lambda plan, t, span, _held: times.append(t)
                        or slice_(plan, t, span, _held=_held))
    field = maximal_field(f, params, curve, xs, tgrid)
    assert times == tgrid.times[:field.slices].tolist()
    _, runs = _grid_runs(f, params, curve, TimeGrid(np.array(times)))
    assert len(built) == runs
    # nothing is held past the call
    assert all(ref() is None for ref in built)


def _every_time_field(f, params, curve, xs, tgrid):
    """(values, argmax_t) written out from the definition: the max over all
    grid times of the interpolated fresh slice at every node, taken at the
    first time that reaches it."""
    from ctschro.evolve import make_plan, propagate_slice
    plan = make_plan(f, params, curve)
    reads = []
    for t in tgrid.times.tolist():
        sl = propagate_slice(plan, t, (plan.y_lo, plan.y_hi))
        reads.append(np.abs(lagrange_uniform(sl.values, sl.y_min, sl.delta_y,
                                             curve_eval(curve, xs, t))))
    reads = np.array(reads)
    return reads.max(axis=0), tgrid.times[reads.argmax(axis=0)]


@pytest.mark.parametrize("kind", ["dilated", "modulated"])
def test_early_exit_keeps_the_field_bit_identical(kind, monkeypatch):
    import ctschro.maximal as maximal
    f, params, curve, xs, tgrid = _family_field_case(kind)
    early = maximal_field(f, params, curve, xs, tgrid)
    values, argmax_t = _every_time_field(f, params, curve, xs, tgrid)
    monkeypatch.setattr(maximal, "slice_bound", lambda plan: lambda t: math.inf)
    every = maximal_field(f, params, curve, xs, tgrid)
    assert every.slices == tgrid.times.size
    assert 0 < early.slices <= every.slices
    assert every.values.tobytes() == values.tobytes()
    assert every.argmax_t.tobytes() == argmax_t.tobytes()
    assert early.values.tobytes() == every.values.tobytes()
    assert early.argmax_t.tobytes() == every.argmax_t.tobytes()
    if kind == "dilated":
        assert early.slices < every.slices


@pytest.mark.parametrize("x", [-1.25, 1.25])
def test_field_refuses_x_nodes_outside_the_unit_interval(x, monkeypatch):
    # a read past the query window would extrapolate the slice
    import ctschro.maximal as maximal

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the x-node check")
    monkeypatch.setattr(maximal, "make_plan", no_work)
    f, params, curve, _, tgrid = _family_field_case("dilated")
    with pytest.raises(DomainError, match=r"\[-1, 1\]"):
        maximal_field(f, params, curve, np.array([0.0, x]), tgrid)


def test_early_exit_merges_the_oracle_as_before(monkeypatch):
    # with witness times the loop stops on max(slice, oracle), and every
    # oracle value still replaces a slice maximum only when it is larger
    import ctschro.maximal as maximal
    fam = dilated_family(0.25, 0.75, 32.0)
    f, params, curve = maximal._family_setup(fam, 2048)
    xs = witness_x_grid(fam, 64)
    tgrid = build_time_grid(default_time_exponent(fam.lam), fam=fam,
                            x_nodes=xs)
    early = maximal_field(f, params, curve, xs, tgrid)
    monkeypatch.setattr(maximal, "slice_bound", lambda plan: lambda t: math.inf)
    every = maximal_field(f, params, curve, xs, tgrid)
    assert early.slices < every.slices == tgrid.times.size
    assert early.values.tobytes() == every.values.tobytes()
    assert early.argmax_t.tobytes() == every.argmax_t.tobytes()
    assert np.isin(early.argmax_t, tgrid.extra_times).any()


def test_undamped_field_synthesizes_every_slice():
    f = random_band_limited(8.0, seed=13)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
    grid = build_time_grid(-6)
    field = maximal_field(f, params, identity_curve(),
                          np.linspace(-1, 1, 33), grid)
    assert field.slices == grid.times.size


# ---------------------------------------------------------------------------
# field norms
# ---------------------------------------------------------------------------

def test_norm_of_constant_field():
    xs = np.linspace(-1, 1, 513)
    field = MaximalField(xs, np.ones_like(xs), np.zeros_like(xs))
    assert l2_norm_field(field, (-1, 1)) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    # constant at the lower-bound level over a short interval
    width = 0.25
    level = LOWER_BOUND_LEVEL
    sub = np.linspace(0.0, width, 257)
    field2 = MaximalField(sub, np.full(sub.size, level), np.zeros(sub.size))
    assert l2_norm_field(field2, (0.0, width)) == pytest.approx(
        level * np.sqrt(width), rel=1e-12)


def test_norm_interval_validation():
    xs = np.linspace(-1, 1, 9)
    field = MaximalField(xs, np.ones_like(xs), np.zeros_like(xs))
    with pytest.raises(DomainError):
        l2_norm_field(field, (-2.0, 1.0))
    with pytest.raises(DomainError):
        l2_norm_field(field, (0.5, 0.5))


def test_norm_refinement_converges():
    # doubling the x-resolution moves the norm by less than 1e-3 relative
    lam = 64.0
    f = random_band_limited(lam, seed=77)
    params = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    grid = build_time_grid(default_time_exponent(lam))
    norms = []
    for n in (1025, 2049):
        xs = np.linspace(-1, 1, n)
        field = maximal_field(f, params, identity_curve(), xs, grid)
        norms.append(l2_norm_field(field, (-1, 1)))
    assert abs(norms[1] - norms[0]) <= 1e-3 * norms[1]


# ---------------------------------------------------------------------------
# ratios and slope fits
# ---------------------------------------------------------------------------

def test_ratio_zero_norm_guard(monkeypatch):
    from ctschro import maximal
    from ctschro.errors import ZeroNormError

    zero = SpectralFunction(0.0, 8.0, np.zeros(128, dtype=complex))
    monkeypatch.setattr(maximal, "build_counterexample", lambda fam, n: zero)
    with pytest.raises(ZeroNormError):
        maximal.maximal_ratio(dilated_family(0.25, 0.75, 16.0))
    with pytest.raises(ZeroNormError):
        maximal.witness_minimum(dilated_family(0.25, 0.75, 16.0), n_nodes=8)


def test_fit_slope_exact_power_law():
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    fit = fit_slope(xs, 3.0 * xs ** 0.25)
    assert fit.slope == pytest.approx(0.25, abs=1e-12)
    assert fit.max_residual <= 1e-12
    fit0 = fit_slope(xs, np.full(5, 7.0))
    assert fit0.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_validation():
    with pytest.raises(DegenerateSeriesError):
        fit_slope([1, 2, 3], [1, 1, 1])
    with pytest.raises(DegenerateSeriesError):
        fit_slope([1, 2, 3, 4], [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(DegenerateSeriesError):
        fit_slope([1, 2, 2, 4], [1.0, 1.0, 1.0, 1.0])


def test_fit_slope_guard_drops_transient():
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    vals = 2.0 * xs ** 0.5
    vals[0] *= 10.0     # corrupted smallest scale
    fit = fit_slope_guarded(xs, vals)
    assert fit.dropped_scales == (2.0,)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)


# the A5 families; the first is also the sweep benchmark's
_A5_FAMILIES = [
    lambda R: dilated_family(0.25, 0.75, R),
    lambda R: dilated_family(0.25, 2.0, R),
    lambda R: modulated_family(1 / 3, 1.6, R),
    lambda R: modulated_family(0.5, 3.0, R),
]
_A5_SCALES = [16.0, 32.0, 64.0, 128.0, 256.0]


def test_sorted_set_is_np_unique_bit_for_bit():
    import ctschro.maximal as maximal
    rng = np.random.default_rng(4)
    for a in (np.array([0.0, -0.0, 2.0, 0.0, -1.0, -0.0]),
              np.array([-0.0, 0.0]), np.array([1.5]), np.array([]),
              rng.integers(-5, 5, 200) / 4.0, rng.uniform(size=300)):
        assert _hex(maximal._sorted_set(a)) == _hex(np.unique(a))


@pytest.mark.parametrize("make", _A5_FAMILIES)
def test_x_nodes_are_np_unique_bit_for_bit(make, monkeypatch):
    import ctschro.maximal as maximal

    class Built(Exception):
        pass

    def capture(f, params, curve, xs, tgrid):
        raise Built(xs)
    monkeypatch.setattr(maximal, "maximal_field", capture)
    for R in _A5_SCALES:
        fam = make(R)
        grid = np.unique(np.concatenate(
            [np.linspace(lo, hi, 258)[1:-1]
             for lo, hi in (witness_interval(fam), scaling_interval(fam))]))
        assert _hex(witness_x_grid(fam)) == _hex(grid)
        lo, hi = scaling_interval(fam)
        xs = np.unique(np.concatenate([np.linspace(lo, hi, 256), grid]))
        with pytest.raises(Built) as built:
            maximal_ratio(fam)
        assert _hex(built.value.args[0]) == _hex(xs[(xs >= lo) & (xs <= hi)])


# SHA-256 of the space-joined float.hex of the witness times, per A5 family:
# on maximal_ratio's witness nodes over _A5_SCALES, and on witness_minimum's
# 256 nodes at R = 64; recorded at b0f5bb1, when each time was computed by
# its own one-position call
_WITNESS_DIGESTS = [
    ("002f8504c777b1758556b3a1d6feb4c53b89cd14d8d1f7af46ce68f6177f0738",
     "52e80d94d195d0acc3a7cb351bd52ce7229bea8f61462b9f7f28fa992fb83d23"),
    ("f5416a9e8812380ebb1bbb0cb46045002705d4b7cfc1704a87dcd62625f04c00",
     "546b2c169a8124d668f9de968909c7e8c3ad443e5a10f004aca617a684db2a7e"),
    ("bf6ee4e8992dec813799360a8e1f0747131498cd24411388aa6f4485f4b61f9e",
     "0d20d74cf01de3270a46b00e9883530f82d09df235f293671e5fb572aca93682"),
    ("95c9b186eb7c0c597dd155cab7c917cf98c1c4b4626b6b366520653034808b30",
     "e11c1da3a9fc0f0d84f7d5613f17822c798c2564ae81c2d8ba30ef9f8a7b29a8"),
]


def _digest(values):
    return hashlib.sha256(" ".join(_hex(values)).encode()).hexdigest()


@pytest.mark.parametrize("make,digests", zip(_A5_FAMILIES, _WITNESS_DIGESTS))
def test_witness_times_are_pinned_bit_for_bit(make, digests, monkeypatch):
    # one witness map for the grid, the scan and the Schur row: its times
    # are those of the one-position calls, to the bit, and every reader
    # gets the same ones (np.power in place of ** would move some by an ulp)
    import ctschro.maximal as maximal

    class Built(Exception):
        pass

    def capture(f, params, curve, xs, tgrid):
        raise Built(xs, tgrid)
    with monkeypatch.context() as patch:
        patch.setattr(maximal, "maximal_field", capture)
        ratio_times = []
        for R in _A5_SCALES:
            fam = make(R)
            with pytest.raises(Built) as built:
                maximal_ratio(fam)
            xs, tgrid = built.value.args
            has = np.isfinite(tgrid.extra_times)
            one = [witness_time(fam, x) for x in xs[has].tolist()]
            assert _hex(tgrid.extra_times[has]) == _hex(one)
            ratio_times.extend(one)

    fam = make(64.0)
    _, xs, _, ts = witness_minimum(fam)
    grid = build_time_grid(default_time_exponent(fam.lam), fam=fam, x_nodes=xs)
    assert _hex(grid.extra_times) == _hex(ts)
    assert _hex(witness_time(fam, xs)) == _hex(ts)
    assert _hex([witness_time(fam, x) for x in xs.tolist()]) == _hex(ts)
    if fam.kind == "dilated":
        assign = clipped_power_assignment(fam.alpha)
        assert _hex([assign(x) for x in xs.tolist()]) == _hex(ts)
    assert (_digest(ratio_times), _digest(ts)) == digests


def _guarded_by_np_median(scales, values):
    """``fit_slope_guarded`` as it was written with ``np.median``."""
    scales, values = np.asarray(scales), np.asarray(values)
    fit = fit_slope(scales, values)
    if scales.size < 5:
        return fit
    sub = fit_slope(scales[1:], values[1:])
    lx, ly = np.log(scales), np.log(values)
    resid = np.abs(ly - (sub.slope * lx + sub.intercept))
    if resid[0] > max(3.0 * np.median(resid[1:]), 1e-9):
        return ExponentFit(sub.points, sub.slope, sub.intercept,
                           sub.max_residual, (float(scales[0]),))
    return fit


# Q of the A5 families at _A5_SCALES (maximal_ratio), pinned bit for bit;
# demo 05's series are the first four values of the first and third
_A5_Q = [
    ["0x1.8dc92c26b9defp-6", "0x1.be7fdf0c681c7p-6", "0x1.f52dc1e2d3df2p-6",
     "0x1.1946ed3444d47p-5", "0x1.3bb90ac76a188p-5"],
    ["0x1.f52dc268a6a0dp-6", "0x1.2a00aeb08a7d8p-5", "0x1.62630b1d1e315p-5",
     "0x1.a5707cd3c0ee1p-5", "0x1.f52dc122aa945p-5"],
    ["0x1.9715686eb52a6p-5", "0x1.f52dbf7d5c305p-5", "0x1.3482fae0c98fdp-4",
     "0x1.7bd280ea40b85p-4", "0x1.d39da525b077ap-4"],
    ["0x1.62630b48a7602p-4", "0x1.f52dc25980652p-4", "0x1.62630b39af18ep-3",
     "0x1.f52dc24a94e52p-3", "0x1.62630b3331cbbp-2"],
]


def _guard_series():
    for qs in _A5_Q:
        q = [float.fromhex(v) for v in qs]
        yield _A5_SCALES, q
        yield _A5_SCALES[:4], q[:4]
    # odd and even counts of the other residuals, with the smallest scale
    # corrupted by up to 10 % or not
    rng = np.random.default_rng(11)
    for n in range(5, 10):
        scales = 2.0 ** np.arange(4, 4 + n)
        for bump in (1.0, 1.002, 1.01, 1.1):
            values = scales ** 0.3 * (1.0 + 1e-3 * rng.standard_normal(n))
            values[0] *= bump
            yield scales.tolist(), values.tolist()


def test_slope_guard_is_np_medians_bit_for_bit():
    dropped = []
    for scales, values in _guard_series():
        got = fit_slope_guarded(scales, values)
        want = _guarded_by_np_median(scales, values)
        assert got.dropped_scales == want.dropped_scales, (scales, values)
        assert got.slope.hex() == want.slope.hex()
        assert got.intercept.hex() == want.intercept.hex()
        dropped.append(bool(got.dropped_scales))
    # both branches of the guard are taken
    assert any(dropped) and not all(dropped)


def test_maximal_ratio_small_scale_smoke():
    fam = dilated_family(0.25, 2.0, 16.0)
    res = maximal_ratio(fam)
    lo, hi = witness_interval(fam)
    # the witness scan keeps the field at the 1/(2 pi) level on the interval
    assert res.norm_maxfield == pytest.approx(
        np.sqrt(hi) / (2 * np.pi), rel=0.05)
    assert res.q > 0 and res.lam == fam.lam and res.R == fam.R


@pytest.mark.parametrize("alpha,gamma,q_hex", [
    (0.5, 3.0, "0x1.62630b48a7602p-4"),
    (1 / 3, 1.6, "0x1.9715686eb52a6p-5"),
])
def test_ratio_reads_only_scaling_interval_nodes(alpha, gamma, q_hex,
                                                 monkeypatch):
    # the modulated witness interval is wider than the scaling interval;
    # the field is built on the scaling interval's nodes alone, and Q is
    # the value it had when the nodes of the whole witness interval were
    # built too (pinned bit for bit)
    import ctschro.maximal as maximal
    fam = modulated_family(alpha, gamma, 16.0)
    seen, real = [], maximal.maximal_field
    monkeypatch.setattr(maximal, "maximal_field",
                        lambda f, p, c, xs, tg: seen.append(xs)
                        or real(f, p, c, xs, tg))
    res = maximal_ratio(fam)
    assert res.q.hex() == q_hex
    lo, hi = scaling_interval(fam)
    assert len(seen) == 1 and seen[0].size > 256
    assert np.all((seen[0] >= lo) & (seen[0] <= hi))
    assert hi < witness_interval(fam)[1]


def test_sweep_witness_points_take_two_rule_passes(monkeypatch):
    # the sweep's family: its witness points form one run of one band,
    # whose rule comes from its two extremes
    import ctschro.evolve as evolve
    import ctschro.maximal as maximal
    passes, points = [], []
    rule, oracle = evolve.phase_counts, maximal.direct_quadrature
    monkeypatch.setattr(evolve, "phase_counts",
                        lambda *args: passes.append(1) or rule(*args))
    monkeypatch.setattr(maximal, "direct_quadrature",
                        lambda f, p, ys, ts: points.append(len(ys))
                        or oracle(f, p, ys, ts))
    maximal_ratio(dilated_family(0.25, 0.75, 16.0))
    assert len(points) == 1 and points[0] > 2
    assert len(passes) == 2


@pytest.mark.parametrize("kind", ["dilated", "modulated"])
def test_resolution_check_covers_exactly_the_run_slices(kind, monkeypatch):
    # check_ratio_resolution must ask slice_grid for every (window, t, span)
    # that maximal_ratio's slices synthesize on: the run's sequence is a
    # nonempty prefix of the check's, as the run may stop its time loop early
    import ctschro.evolve as evolve
    import ctschro.maximal as maximal
    fam = (dilated_family(0.25, 0.75, 16.0) if kind == "dilated"
           else modulated_family(0.5, 3.0, 16.0))
    seen, orig = [], evolve.slice_grid

    def spy(plan, t, span=None):
        seen[-1].append(((plan.y_lo, plan.y_hi), t, span))
        return orig(plan, t, span)
    for module, run in ((maximal, lambda: check_ratio_resolution(fam, 128)),
                        (evolve, lambda: maximal_ratio(fam, n_samples=128))):
        seen.append([])
        with monkeypatch.context() as patch:
            patch.setattr(module, "slice_grid", spy)
            run()
    assert len(seen[0]) > 10
    assert 0 < len(seen[1]) <= len(seen[0])
    assert seen[1] == seen[0][:len(seen[1])]


# ---------------------------------------------------------------------------
# witness scans and calibration
# ---------------------------------------------------------------------------

def test_witness_minimum_at_default_smallness():
    fam = dilated_family(0.25, 0.75, 64.0)
    m, xs, vals, ts = witness_minimum(fam, n_nodes=64)
    assert m >= LOWER_BOUND_LEVEL
    assert xs.size == 64 and vals.size == 64 and ts.size == 64


def test_witness_minimum_time_zero_regime():
    fam = dilated_family(0.25, 0.75, 64.0)
    m, xs, vals, ts = witness_minimum(fam, n_nodes=64, t_zero=True)
    assert np.all(ts == 0.0)
    assert np.all(xs < fam.c / fam.R)
    assert m >= LOWER_BOUND_LEVEL


def test_calibration_keeps_default_when_it_passes():
    fam = dilated_family(0.25, 2.0, 64.0)
    calibrated, history = calibrate_smallness(fam, n_nodes=64)
    assert calibrated.c == fam.c
    assert history[-1][1] >= LOWER_BOUND_LEVEL


def test_calibration_shrinks_until_level_reached():
    # the witness deviation shrinks with c, so a demanding level forces halving
    fam = modulated_family(1.0, 1.0, 16.0, c=0.9)
    level = 0.14
    calibrated, history = calibrate_smallness(fam, n_nodes=32, level=level)
    assert calibrated.c < 0.9
    assert history[-1][1] >= level
    assert all(a[0] > b[0] for a, b in zip(history, history[1:]))


def test_calibration_underflow_raises():
    # no smallness constant can push the witness floor above 1/(2 pi)
    fam = dilated_family(0.25, 2.0, 16.0)
    with pytest.raises(CalibrationError):
        calibrate_smallness(fam, n_nodes=16, level=0.2, c_floor=2.0 ** -8)
