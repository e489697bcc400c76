"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from ctschro.atlas import breakpoints, continuity_check, exponent, predicted_ratio_slope
from ctschro.domain import (
    EvolutionParams,
    amplitude_bound,
    build_counterexample,
    dilated_family,
    from_profile,
    holder_curve,
    identity_curve,
    modulated_family,
    random_band_limited,
    shear_curve,
    verify_curve_regularity,
    witness_interval,
)
from ctschro.evolve import (
    direct_quadrature,
    evaluate_along_curve,
    field_value,
    make_plan,
    propagate_slice,
    slice_l2_norm,
    spectral_l2_norm,
)
from ctschro.kernel import (
    beta_table,
    clipped_power_assignment,
    kernel_eval,
    schur_integral,
    verify_kernel_bound,
)
from ctschro.maximal import (
    LOWER_BOUND_LEVEL,
    build_time_grid,
    calibrate_smallness,
    default_time_exponent,
    fit_slope,
    fit_slope_guarded,
    l2_norm_field,
    maximal_field,
    maximal_ratio,
    witness_minimum,
    witness_x_grid,
)

SWEEP_POINTS = [
    ("dilated",   dict(alpha=0.25, gamma=0.75),          F(1, 6)),
    ("dilated",   dict(alpha=0.25, gamma=2.0),           F(1, 4)),
    ("modulated", dict(alpha=1 / 3, gamma=1.6),          F(3, 10)),
    ("modulated", dict(alpha=0.5, gamma=3.0),            F(1, 2)),
]


def _make(kind, kw, R):
    if kind == "dilated":
        return dilated_family(R=R, **kw)
    return modulated_family(R=R, **kw)


def report(name, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[{status}] {name}: {detail}  ({elapsed:.1f}s < {limit:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < limit, f"{name} exceeded the runtime budget ({elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# A1 - atlas exactness
# ---------------------------------------------------------------------------

def test_a1_atlas_exactness():
    t0 = time.perf_counter()
    exact_cases = [
        (F(1, 2), F(3), F(2), F(1, 4), "T1"),
        (F(1, 4), F(1, 2), F(2), F(0), "T2"),
        (F(1, 3), F(6, 5), F(2), F(1, 6), "T3"),
        (F(1), F(5), F(1), F(2, 5), "T4.3"),
        (F(3, 5), F(11, 10), F(3, 2), F(5, 88), "T4.6"),
    ]
    ok = True
    worst = 0.0
    for a, g, m, s, label in exact_cases:
        res = exponent(alpha=a, gamma=g, m=m)
        ok &= (res.s == s and res.theorem == label)
        resf = exponent(alpha=float(a), gamma=float(g), m=float(m))
        worst = max(worst, abs(float(resf.s) - float(s)))
        ok &= resf.theorem == label
    ok &= [b.gamma for b in breakpoints(F(1, 3), F(2))] == [F(2, 3), F(1), F(3, 2), F(2)]
    ok &= [b.gamma for b in breakpoints(F(3, 5), F(3, 2))] == [F(9, 10), F(1), F(6, 5), F(3)]
    ok &= [b.gamma for b in breakpoints(F(1, 2), F(2))] == [F(1), F(2)]
    ok &= worst <= 1e-12
    report("A1 atlas exactness", ok,
           f"rational path exact, float path off by {worst:.2e} (tol 1e-12)",
           time.perf_counter() - t0, 1.0)


# ---------------------------------------------------------------------------
# A2 - atlas continuity on a 50 x 50 grid
# ---------------------------------------------------------------------------

def test_a2_atlas_continuity():
    t0 = time.perf_counter()
    worst = 0.0
    for a in np.geomspace(0.01, 1.0, 50):
        for m in np.geomspace(0.02, 4.0, 50):
            for gap in continuity_check(float(a), float(m)):
                worst = max(worst, gap.gap)
    report("A2 atlas continuity", worst <= 1e-7,
           f"largest interior-breakpoint gap {worst:.2e} (tol 1e-7)",
           time.perf_counter() - t0, 10.0)


# ---------------------------------------------------------------------------
# A3 - identity at t = 0
# ---------------------------------------------------------------------------

def _synthesis_oracle(f, ys, refine=8):
    xi = np.linspace(f.xi_min, f.xi_max, (f.n_samples - 1) * refine + 1)
    fhat = make_interp_spline(f.grid(), f.samples, k=5)(xi)
    out = np.empty(ys.size, dtype=complex)
    for i, y in enumerate(ys):
        out[i] = np.trapezoid(fhat * np.exp(1j * y * xi), xi) / (2 * np.pi)
    return out


def test_a3_identity_at_time_zero():
    t0 = time.perf_counter()
    curves = (identity_curve(), shear_curve(), holder_curve(0.5),
              holder_curve(0.2))
    worst = 0.0
    rng = np.random.default_rng(424242)
    for trial in range(20):
        lam = float(2 ** (4 + trial % 4))
        f = random_band_limited(lam, seed=1000 + trial)
        params = EvolutionParams(m=2.0, gamma=1.0, damping=True)
        xs = rng.uniform(-1.0, 1.0, 48)
        ref = _synthesis_oracle(f, xs)
        scale = np.abs(ref).max()
        for curve in curves:
            plan = make_plan(f, params, curve)
            got = evaluate_along_curve(plan, curve, xs, 0.0, path="transform")
            worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    report("A3 identity at t=0", worst <= 1e-8,
           f"20 band-limited sources x 4 curves, worst relative error "
           f"{worst:.2e} (tol 1e-8)", time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# A4 - transform / quadrature / closed-form agreement
# ---------------------------------------------------------------------------

def test_a4_oracle_agreement():
    t0 = time.perf_counter()
    curve = holder_curve(0.5)
    worst = 0.0
    rng = np.random.default_rng(7)
    for k, lam in enumerate((16.0, 32.0, 64.0, 128.0)):
        f = random_band_limited(lam, seed=50 + k)
        params = EvolutionParams(m=2.0, gamma=1.0, damping=False)
        plan = make_plan(f, params, curve)
        floor = 1e-2 * amplitude_bound(f)
        xs = rng.uniform(-1.0, 1.0, 100)
        ts = rng.uniform(0.0, 1.0, 100)
        for x, t in zip(xs, ts):
            a = evaluate_along_curve(plan, curve, float(x), float(t),
                                     path="transform")
            b = evaluate_along_curve(plan, curve, float(x), float(t),
                                     path="quadrature")
            worst = max(worst, abs(a - b) / max(abs(b), floor))
    ok = worst <= 1e-6

    # Gaussian closed form, m = 2, damping on
    gamma = 1.5
    fg = from_profile(lambda xi: np.exp(-xi ** 2 / 2), -12.0, 12.0, 4801)
    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    plan = make_plan(fg, params, identity_curve())
    ys = np.linspace(-2.5, 2.5, 21)
    worst_g = 0.0
    for t in (0.0, 1e-3, 0.1, 0.5, 1.0):
        a_coef = 0.5 + t ** gamma - 1j * t
        want = np.sqrt(np.pi / a_coef) * np.exp(-ys ** 2 / (4 * a_coef)) / (2 * np.pi)
        got_t = field_value(propagate_slice(plan, t), ys)
        got_q = np.array([direct_quadrature(fg, params, y, t) for y in ys])
        worst_g = max(worst_g,
                      float(np.max(np.abs(got_t - want) / np.abs(want))),
                      float(np.max(np.abs(got_q - want) / np.abs(want))))
    report("A4 oracle agreement", ok and worst_g <= 1e-7,
           f"transform vs quadrature {worst:.2e} (tol 1e-6, 100 pts per "
           f"level), closed form {worst_g:.2e} (tol 1e-7)",
           time.perf_counter() - t0, 120.0)


# ---------------------------------------------------------------------------
# A5 - sharp-slope reproduction
# ---------------------------------------------------------------------------

def test_a5_sharp_slopes():
    t0 = time.perf_counter()
    scales = [16.0, 32.0, 64.0, 128.0, 256.0]
    lines, ok = [], True
    for kind, kw, want in SWEEP_POINTS:
        qs = [maximal_ratio(_make(kind, kw, R)).q for R in scales]
        fit = fit_slope_guarded(scales, qs)
        predicted = predicted_ratio_slope(_make(kind, kw, scales[0]))
        assert predicted == pytest.approx(float(want), abs=1e-12)
        good = abs(fit.slope - predicted) <= 0.1
        ok &= good
        lines.append(f"{kind}{tuple(kw.values())}: {fit.slope:+.4f} vs "
                     f"{predicted:+.4f}")
    report("A5 sharp slopes", ok, "; ".join(lines) + " (tol 0.1)",
           time.perf_counter() - t0, 600.0)


# ---------------------------------------------------------------------------
# A6 - lower-bound constant
# ---------------------------------------------------------------------------

def test_a6_lower_bound_constant():
    t0 = time.perf_counter()
    lines, ok = [], True
    for kind, kw, _ in SWEEP_POINTS:
        fam, history = calibrate_smallness(_make(kind, kw, 64.0), n_nodes=256)
        min_val = history[-1][1]
        ok &= min_val >= LOWER_BOUND_LEVEL
        lines.append(f"{kind}{tuple(kw.values())}: min {min_val:.4f}")
    report("A6 lower bound", ok,
           "; ".join(lines) + f" >= 1/(4 pi) = {LOWER_BOUND_LEVEL:.4f} "
           "on 256 witness nodes at R=2^6",
           time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# A7 - kernel bound non-growth and Schur slopes
# ---------------------------------------------------------------------------

def test_a7_kernel_bounds():
    t0 = time.perf_counter()
    pairs = [(0.5, 2.0), (0.2, 0.5), (1 / 3, 1.2)]
    lines, ok = [], True
    for alpha, gamma in pairs:
        rep = verify_kernel_bound(alpha, gamma, [16.0, 64.0, 256.0],
                                  500, seed=20240901)
        ok &= rep.non_growing
        params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
        curve = holder_curve(alpha)
        assign = clipped_power_assignment(alpha)
        lams = [16.0, 32.0, 64.0, 128.0]
        vals = [schur_integral(0.0, lam, params, curve, assign,
                               np.linspace(-1, 1, int(8 * lam) + 1))
                for lam in lams]
        fit = fit_slope(lams, vals)
        limit = beta_table(alpha, gamma).i_exponent + 0.15
        ok &= fit.slope <= limit
        lines.append(f"(a={alpha:.3g},g={gamma:g}): ratios "
                     f"{rep.max_ratios[0]:.2f}->{rep.max_ratios[-1]:.2f}, "
                     f"schur {fit.slope:+.3f}<={limit:+.3f}")
    report("A7 kernel bounds", ok, "; ".join(lines),
           time.perf_counter() - t0, 300.0)


# ---------------------------------------------------------------------------
# A8 - property suite roll-up
# ---------------------------------------------------------------------------

def test_a8_property_suite():
    t0 = time.perf_counter()
    checks = {}

    # curve regularity witnesses
    reps = [verify_curve_regularity(c) for c in
            (identity_curve(), shear_curve(), holder_curve(0.3),
             holder_curve(0.75))]
    checks["curve regularity"] = all(r.bilipschitz_ok and r.holder_ok
                                     for r in reps)

    # Plancherel identity and damping monotonicity
    f = random_band_limited(32.0, seed=90)
    on = EvolutionParams(m=2.0, gamma=0.9, damping=True)
    off = EvolutionParams(m=2.0, gamma=0.9, damping=False)
    plan_on, plan_off = make_plan(f, on), make_plan(f, off)
    plancherel, monotone = True, True
    norm_floor = 1e-30 * spectral_l2_norm(f, on, 0.0)   # denormal guard
    for t in (0.0, 0.05, 0.4, 1.0):
        n_on = slice_l2_norm(propagate_slice(plan_on, t))
        plancherel &= abs(n_on - spectral_l2_norm(f, on, t)) \
            <= 1e-8 * max(n_on, norm_floor)
        monotone &= n_on <= slice_l2_norm(propagate_slice(plan_off, t)) * (1 + 1e-12)
    checks["plancherel"] = plancherel
    checks["damping monotone"] = monotone

    # maximal-field monotonicity under time-grid refinement
    xs = np.linspace(-1, 1, 101)
    mc = maximal_field(f, on, holder_curve(0.5), xs,
                       build_time_grid(-10, ratio=2.0 ** 0.25))
    mf = maximal_field(f, on, holder_curve(0.5), xs,
                       build_time_grid(-10, ratio=2.0 ** 0.125))
    checks["time-grid monotone"] = bool(
        np.all(mf.values >= mc.values - 1e-15)
        and l2_norm_field(mf, (-1, 1)) >= l2_norm_field(mc, (-1, 1)) - 1e-15)

    # lower-bound witness: the field majorizes the witness values pointwise
    fam = dilated_family(0.25, 0.75, 64.0)
    fc = build_counterexample(fam)
    pc = EvolutionParams(m=2.0, gamma=fam.gamma, damping=True)
    wx = witness_x_grid(fam, 64)
    grid = build_time_grid(default_time_exponent(fam.lam), fam=fam, x_nodes=wx)
    field = maximal_field(fc, pc, holder_curve(fam.alpha), wx, grid)
    _, wxs, wvals, _ = witness_minimum(fam, n_nodes=64)
    lo, hi = witness_interval(fam)
    inside = (field.x > lo) & (field.x < hi)
    at_scan = np.isin(field.x, wxs)     # the scan's 64 nodes, in order
    checks["witness majorized"] = bool(
        np.all(field.values[inside] >= LOWER_BOUND_LEVEL)
        and at_scan.sum() == wxs.size
        and np.all(field.values[at_scan] >= wvals))

    # kernel conjugate symmetry
    p2 = EvolutionParams(m=2.0, gamma=2.0, damping=True)
    crv = holder_curve(0.5)
    sym = True
    rng = np.random.default_rng(8)
    for _ in range(10):
        x, y = rng.uniform(-1, 1, 2)
        t1, t2 = rng.uniform(0, 0.1, 2)
        a = kernel_eval(x, y, t1, t2, 32.0, p2, crv)
        b = kernel_eval(y, x, t2, t1, 32.0, p2, crv)
        sym &= abs(a - np.conj(b)) <= 1e-10 * max(abs(a), 1.0)
    checks["kernel conjugate symmetry"] = sym

    # determinism: bit-identical repeated runs
    s1 = propagate_slice(plan_on, 0.37).values.tobytes()
    s2 = propagate_slice(plan_on, 0.37).values.tobytes()
    m1 = maximal_field(f, on, holder_curve(0.5), xs,
                       build_time_grid(-8)).values.tobytes()
    m2 = maximal_field(f, on, holder_curve(0.5), xs,
                       build_time_grid(-8)).values.tobytes()
    r1 = verify_kernel_bound(0.5, 2.0, [16.0], 100, seed=5).max_ratios
    r2 = verify_kernel_bound(0.5, 2.0, [16.0], 100, seed=5).max_ratios
    checks["determinism"] = (s1 == s2) and (m1 == m2) and (r1 == r2)

    # reflected modulus for real spectra (undamped quadratic phase)
    rngr = np.random.default_rng(3)
    xi = np.linspace(-8.0, 8.0, 1601)
    vals = np.exp(-xi ** 2 / 6) * rngr.standard_normal(xi.size)
    from ctschro.domain import SpectralFunction
    fre = SpectralFunction(-8.0, 8.0, vals.astype(complex))
    frr = SpectralFunction(-8.0, 8.0, np.conj(vals[::-1]).astype(complex))
    ys = np.linspace(-1.5, 1.5, 21)
    refl = True
    for t in (0.05, 0.6):
        va = np.abs([direct_quadrature(frr, off, y, t) for y in ys])
        vb = np.abs([direct_quadrature(fre, off, -y, t) for y in ys])
        refl &= float(np.max(np.abs(va - vb))) <= 1e-10 * float(np.max(vb))
    checks["reflected modulus"] = refl

    failed = [k for k, v in checks.items() if not v]
    report("A8 property suite", not failed,
           f"{len(checks)} invariant groups" +
           (f"; failed: {failed}" if failed else " all hold"),
           time.perf_counter() - t0, 300.0)
