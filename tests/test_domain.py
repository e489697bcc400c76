import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctschro.domain import (
    BumpSpec,
    SpectralFunction,
    amplitude_bound,
    build_counterexample,
    curve_eval,
    dilated_family,
    holder_curve,
    identity_curve,
    make_bump,
    modulated_family,
    random_band_limited,
    scaling_interval,
    shear_curve,
    sobolev_norm,
    tabulated_curve,
    verify_curve_regularity,
    witness_interval,
    witness_time,
)
from ctschro.errors import (
    DomainError,
    GridRangeError,
    RegimeError,
    ResolutionError,
    SupportError,
)


# ---------------------------------------------------------------------------
# bump profiles
# ---------------------------------------------------------------------------

def test_bump_vanishes_outside_support():
    g = make_bump()
    pts = np.array([-1.0, -1e-9, 0.0, 0.5, 0.5 + 1e-9, 2.0])
    assert np.all(g(pts) == 0.0)


def test_bump_unit_mass():
    g = make_bump()
    grid = np.linspace(0.0, 0.5, 400001)
    assert abs(np.trapezoid(g(grid), grid) - 1.0) <= 1e-10


def test_bump_peaks_at_center():
    # dense-grid scan: the canonical profile is unimodal about its center
    spec = BumpSpec(center=0.25, half_width=0.2)
    g = make_bump(spec)
    grid = np.linspace(0.05, 0.45, 100001)
    assert g(np.array([spec.center]))[0] == pytest.approx(g(grid).max(), rel=1e-12)


def test_bump_support_violation_raises():
    with pytest.raises(SupportError):
        make_bump(BumpSpec(center=0.4, half_width=0.2))
    with pytest.raises(SupportError):
        make_bump(BumpSpec(center=0.1, half_width=0.2))


def test_bump_custom_normalization():
    g = make_bump(BumpSpec(normalization=3.0))
    assert g.integral() == pytest.approx(3.0, abs=3e-10)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_holder_tangent_direct_substitution():
    crv = holder_curve(0.5)
    assert curve_eval(crv, 1.0, 0.25) == 0.5


def test_shear_direct_substitution():
    assert curve_eval(shear_curve(), 0.0, 0.7) == -0.7


@given(x=st.floats(-1, 1), alpha=st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_all_families_anchor_at_time_zero(x, alpha):
    for crv in (identity_curve(), shear_curve(), holder_curve(alpha)):
        assert curve_eval(crv, x, 0.0) == x


def test_tabulated_curve_anchors_and_range_error():
    xs = np.linspace(-1, 1, 21)
    ts = np.linspace(0, 1, 11)
    table = xs[None, :] - np.power(ts, 0.5)[:, None]
    crv = tabulated_curve(xs, ts, table, alpha=0.5)
    assert abs(curve_eval(crv, 0.3, 0.0) - 0.3) < 2e-16
    # between nodes the bilinear value matches the generating rule closely
    assert curve_eval(crv, 0.05, 0.25) == pytest.approx(0.05 - 0.5, abs=5e-3)
    with pytest.raises(GridRangeError):
        curve_eval(crv, 1.5, 0.5)


def test_tabulated_curve_requires_identity_row():
    xs = np.linspace(-1, 1, 5)
    ts = np.linspace(0, 1, 3)
    with pytest.raises(DomainError):
        tabulated_curve(xs, ts, np.ones((3, 5)), alpha=1.0)


def test_identity_curve_regularity():
    rep = verify_curve_regularity(identity_curve())
    assert rep.bilipschitz_ok and rep.holder_ok
    assert rep.c1_emp == rep.c2_emp == 1.0
    assert rep.c3_emp == 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
def test_holder_tangent_regularity(alpha):
    # x-differences cancel the time term (to rounding), so the Lipschitz
    # ratios are 1; |t**a - t'**a| <= |t - t'|**a gives the Hölder constant 1
    rep = verify_curve_regularity(holder_curve(alpha), n_x=31, n_t=61)
    assert rep.bilipschitz_ok and rep.holder_ok
    assert rep.c1_emp == pytest.approx(1.0, abs=1e-13)
    assert rep.c2_emp == pytest.approx(1.0, abs=1e-13)
    assert rep.c3_emp <= 1.0 + 1e-12


def test_holder_constant_dense_lattice_oracle():
    # independent maximization of |t**a - u**a| / |t - u|**a on a dense lattice
    alpha = 0.5
    ts = np.linspace(0, 1, 801)
    i, j = np.triu_indices(ts.size, k=1)
    ratio = np.abs(ts[i] ** alpha - ts[j] ** alpha) / np.abs(ts[i] - ts[j]) ** alpha
    assert ratio.max() <= 1.0 + 1e-12


def test_regularity_reports_failure_without_raising():
    crv = holder_curve(0.5)
    tight = verify_curve_regularity(
        tabulated_curve(np.linspace(-1, 1, 41), np.linspace(0, 1, 21),
                        np.linspace(-1, 1, 41)[None, :]
                        - np.power(np.linspace(0, 1, 21), 0.5)[:, None],
                        alpha=0.5, c3=0.1))
    assert not tight.holder_ok  # declared constant too small; reported only
    assert verify_curve_regularity(crv).holder_ok


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectral_function_validation():
    with pytest.raises(ResolutionError):
        SpectralFunction(0.0, 1.0, np.array([1.0 + 0j]))
    with pytest.raises(DomainError):
        SpectralFunction(1.0, 0.0, np.ones(4, dtype=complex))
    with pytest.raises(DomainError):
        SpectralFunction(0.0, 1.0, np.array([1.0, np.inf, 1.0, 1.0], dtype=complex))
    with pytest.raises(DomainError):
        # declared band but mass at |xi| < lam/2
        SpectralFunction(0.0, 64.0, np.ones(65, dtype=complex), band=16.0)


def test_spectral_function_immutable():
    f = SpectralFunction(0.0, 1.0, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        f.samples[0] = 0.0


@pytest.mark.parametrize("lam", [0.0, -4.0, np.nan, np.inf, -np.inf])
def test_random_band_limited_rejects_bad_levels(lam):
    # raised before any array is built: numpy warnings would be errors here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="lam"):
            random_band_limited(lam, seed=1)


def test_random_band_limited_declares_its_band():
    f = random_band_limited(64.0, seed=7)
    assert f.band == 64.0
    assert f.max_abs_xi() <= 128.0
    assert f.min_abs_xi() >= 32.0
    assert amplitude_bound(f) > 0


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

def test_l2_norm_of_unit_profile():
    # fhat = 1 on [1, 2]: norm = sqrt(1 / (2 pi))
    f = SpectralFunction(1.0, 2.0, np.ones(4097, dtype=complex))
    assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(1 / (2 * np.pi)), rel=1e-12)


def test_l2_norm_matches_direct_sum():
    f = random_band_limited(16.0, seed=3)
    direct = np.sqrt(np.trapezoid(np.abs(f.samples) ** 2, dx=f.delta_xi) / (2 * np.pi))
    assert abs(sobolev_norm(f, 0.0) - direct) <= 1e-12


def test_sobolev_slope_of_dilated_family():
    # ||f_R||_{H^s} scales like R**(s - 1/2)
    s = 0.3
    Rs = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
    norms = [sobolev_norm(build_counterexample(dilated_family(0.5, 1.0, R)), s)
             for R in Rs]
    slope = np.polyfit(np.log(Rs), np.log(norms), 1)[0]
    assert slope == pytest.approx(s - 0.5, abs=0.02)


@given(seed=st.integers(0, 50), s1=st.floats(0.0, 1.0), ds=st.floats(0.01, 1.0))
@settings(max_examples=30, deadline=None)
def test_sobolev_monotone_in_order_above_unit_band(seed, s1, ds):
    f = random_band_limited(8.0, seed=seed)  # support has |xi| >= 4 >= 1
    assert sobolev_norm(f, s1 + ds) >= sobolev_norm(f, s1)


# ---------------------------------------------------------------------------
# counterexample families
# ---------------------------------------------------------------------------

def test_dilated_support():
    f = build_counterexample(dilated_family(0.5, 1.0, 16.0))
    assert (f.xi_min, f.xi_max) == (0.0, 8.0)


def test_modulated_support():
    f = build_counterexample(modulated_family(0.5, 2.0, 16.0, b=2.0))
    assert (f.xi_min, f.xi_max) == (-256.0, -248.0)
    assert f.band == 256.0


def test_family_l2_scaling():
    # ||f_R|| / ||f_{R/4}|| = 1/2 and the absolute norm is R**-1/2 ||g||_2 / sqrt(2 pi)
    g = make_bump()
    norm_g = np.sqrt(g.integral(power=2.0))
    for R in (64.0, 128.0):
        fR = build_counterexample(dilated_family(0.25, 0.75, R))
        fq = build_counterexample(dilated_family(0.25, 0.75, R / 4))
        ratio = sobolev_norm(fR, 0.0) / sobolev_norm(fq, 0.0)
        assert ratio == pytest.approx(0.5, abs=1e-6)
        assert sobolev_norm(fR, 0.0) == pytest.approx(
            norm_g / np.sqrt(2 * np.pi * R), rel=1e-6)


def test_counterexample_needs_resolution():
    with pytest.raises(ResolutionError):
        build_counterexample(dilated_family(0.5, 1.0, 16.0), n_samples=32)


def test_witness_interval_examples():
    fam = dilated_family(0.25, 0.5, 16.0, c=0.01)
    assert witness_interval(fam) == (0.0, pytest.approx(6.25e-4, rel=1e-12))
    fam2 = modulated_family(0.5, 2.0, 123.0, b=2.0, c=0.01)
    assert witness_interval(fam2)[1] >= 0.02
    # power-law scaling of the gamma >= 1 endpoint
    hi1 = witness_interval(dilated_family(0.3, 2.0, 16.0))[1]
    hi2 = witness_interval(dilated_family(0.3, 2.0, 32.0))[1]
    assert hi2 / hi1 == pytest.approx(2.0 ** (-2 * 0.3), rel=1e-12)


def test_witness_interval_regime_errors():
    with pytest.raises(RegimeError):
        witness_interval(modulated_family(0.5, 1.5, 16.0, b=3.0))
    with pytest.raises(RegimeError):
        # b = gamma requires gamma < 2
        witness_interval(modulated_family(0.5, 2.5, 16.0, b=2.5))
    with pytest.raises(RegimeError):
        # b = gamma also requires gamma >= 1/(2 alpha)
        witness_interval(modulated_family(0.3, 1.2, 16.0, b=1.2))


def test_scaling_interval_is_inside_witness_interval():
    fam = modulated_family(1 / 3, 1.6, 32.0, b=1.6)
    (_, hi_w), (_, hi_s) = witness_interval(fam), scaling_interval(fam)
    assert hi_s == pytest.approx(2 * fam.c * fam.R ** (fam.gamma - 2), rel=1e-12)
    assert hi_s < hi_w


def test_witness_time_dilated():
    fam = dilated_family(0.5, 1.0, 16.0)
    assert witness_time(fam, 1e-4) == pytest.approx(1e-8, rel=1e-12)


def test_witness_time_modulated_exact_root():
    # alpha = 1: x = t + 2 R^2 t has the exact root t = x / (1 + 2 R^2)
    t_bar = 1e-4
    fam = modulated_family(1.0, 2.0, 10.0, b=2.0, c=0.02)
    x = t_bar + 2 * 10.0 ** 2 * t_bar
    assert witness_time(fam, x) == pytest.approx(t_bar, abs=1e-12)


def test_witness_time_modulated_residual():
    fam = modulated_family(1 / 3, 1.6, 32.0, b=1.6)
    lo, hi = witness_interval(fam)
    x = 0.5 * (lo + hi)
    t = witness_time(fam, x)
    resid = abs(x - t ** fam.alpha - 2 * fam.R ** fam.b * t)
    assert resid <= 1e-12 * x


def test_witness_time_residual_over_interval():
    fam = modulated_family(0.5, 3.0, 64.0, b=2.0)
    lo, hi = witness_interval(fam)
    for x in np.linspace(lo, hi, 40)[1:-1]:
        t = witness_time(fam, float(x))
        resid = abs(x - t ** fam.alpha - 2 * fam.R ** fam.b * t)
        assert resid <= 1e-12 * max(x, fam.R ** -2.0)


def test_witness_time_domain_error():
    fam = dilated_family(0.25, 0.75, 16.0)
    _, hi = witness_interval(fam)
    with pytest.raises(DomainError):
        witness_time(fam, 2 * hi)
    with pytest.raises(DomainError):
        witness_time(fam, -0.1)
