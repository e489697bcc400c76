import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctschro.domain import (
    CurveSpec,
    EvolutionParams,
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
    scaling_law,
    shear_curve,
    sobolev_norm,
    verify_curve_regularity,
    witness_interval,
    witness_time,
)
from ctschro.errors import (
    DomainError,
    RegimeError,
    ResolutionError,
    RootBracketError,
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
    # dense-grid scan: the profile is unimodal about the center 1/4
    g = make_bump()
    grid = np.linspace(0.05, 0.45, 100001)
    assert g(np.array([0.25]))[0] == pytest.approx(g(grid).max(), rel=1e-12)


def test_bump_is_built_once():
    assert make_bump() is make_bump()


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


def test_curve_eval_is_the_closed_form_on_arrays():
    xs = np.linspace(-1.0, 1.0, 101)
    ts = np.linspace(0.0, 1.0, 101)
    for alpha in (0.25, 0.5, 1.0):
        assert np.array_equal(curve_eval(holder_curve(alpha), xs, ts),
                              xs - ts ** alpha)
    assert np.array_equal(curve_eval(shear_curve(), xs, ts), xs - ts)


@pytest.mark.parametrize("alpha,c3", [(0.0, 1.0), (1.5, 1.0),
                                      (np.nan, 1.0), (0.5, -1.0),
                                      (0.5, np.nan), (0.5, np.inf)])
def test_curve_spec_refuses_bad_constants(alpha, c3):
    with pytest.raises(DomainError):
        CurveSpec(alpha=alpha, c3=c3)


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


@pytest.mark.parametrize("field", [{"m": np.nan}, {"gamma": np.nan},
                                   {"m": np.inf}])
def test_evolution_params_refuse_nan_and_infinite_m(field):
    with pytest.raises(DomainError):
        EvolutionParams(**field)
    assert EvolutionParams(gamma=np.inf).gamma == np.inf


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
    live = np.abs(f.grid()[f.samples != 0])
    assert 32.0 <= live.min() and live.max() <= 128.0
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
    f = build_counterexample(modulated_family(0.5, 2.0, 16.0))
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
    fam2 = modulated_family(0.5, 2.0, 123.0, c=0.01)
    assert witness_interval(fam2)[1] >= 0.02
    # power-law scaling of the gamma >= 1 endpoint
    hi1 = witness_interval(dilated_family(0.3, 2.0, 16.0))[1]
    hi2 = witness_interval(dilated_family(0.3, 2.0, 32.0))[1]
    assert hi2 / hi1 == pytest.approx(2.0 ** (-2 * 0.3), rel=1e-12)


@pytest.mark.parametrize("family", [dilated_family, modulated_family])
def test_family_refuses_nan_gamma(family):
    # a NaN gamma once gave the witness interval (0, nan)
    with pytest.raises(DomainError, match="gamma"):
        family(0.25, np.nan, 16.0)


def test_family_refuses_nan_scale():
    with pytest.raises(DomainError, match="R must be >= 2"):
        dilated_family(0.25, 0.75, np.nan)


def test_witness_interval_regime_errors():
    with pytest.raises(RegimeError):
        # b = gamma requires gamma >= 1/(2 alpha)
        witness_interval(modulated_family(0.3, 1.2, 16.0))


def test_scaling_law_of_each_regime():
    assert scaling_law(dilated_family(0.25, 0.75, 16.0)) \
        == (0.01, -2 * 0.25 / 0.75)
    assert scaling_law(dilated_family(0.25, 2.0, 16.0)) == (0.01, -0.5)
    assert scaling_law(modulated_family(0.5, 3.0, 16.0)) == (0.02, 0.0)
    assert scaling_law(modulated_family(1 / 3, 1.6, 16.0)) \
        == (0.02, 1.6 - 2)
    fam = modulated_family(1 / 3, 1.6, 64.0)
    coef, e = scaling_law(fam)
    assert scaling_interval(fam) == (0.0, coef * 64.0 ** e)
    # valid with b = 2: past gamma = 2 the derived b stops following gamma
    fam = modulated_family(0.5, 2.5, 16.0)
    assert fam.b == 2.0 and scaling_law(fam) == (0.02, 0.0)
    assert dilated_family(0.25, 0.75, 16.0).b is None


@pytest.mark.parametrize("alpha,gamma,b", [
    (0.3, 1.2, 1.2),    # b = gamma requires gamma >= 1/(2 alpha)
    (0.25, 3.0, 2.0),   # b = 2 requires alpha > 1/4
])
def test_unsupported_modulated_family_raises_at_construction(alpha, gamma, b):
    # the reason names the b the family would derive
    with pytest.raises(RegimeError, match=f"b={b}"):
        modulated_family(alpha, gamma, 16.0)


def test_scaling_interval_is_inside_witness_interval():
    fam = modulated_family(1 / 3, 1.6, 32.0)
    (_, hi_w), (_, hi_s) = witness_interval(fam), scaling_interval(fam)
    assert hi_s == pytest.approx(2 * fam.c * fam.R ** (fam.gamma - 2), rel=1e-12)
    assert hi_s < hi_w


def test_witness_time_dilated():
    fam = dilated_family(0.5, 1.0, 16.0)
    assert witness_time(fam, 1e-4) == pytest.approx(1e-8, rel=1e-12)


def test_witness_time_modulated_exact_root():
    # alpha = 1: x = t + 2 R^2 t has the exact root t = x / (1 + 2 R^2)
    t_bar = 1e-4
    fam = modulated_family(1.0, 2.0, 10.0, c=0.02)
    x = t_bar + 2 * 10.0 ** 2 * t_bar
    assert witness_time(fam, x) == pytest.approx(t_bar, abs=1e-12)


def test_witness_time_modulated_residual():
    fam = modulated_family(1 / 3, 1.6, 32.0)
    lo, hi = witness_interval(fam)
    x = 0.5 * (lo + hi)
    t = witness_time(fam, x)
    resid = abs(x - t ** fam.alpha - 2 * fam.R ** fam.b * t)
    assert resid <= 1e-12 * x


def test_witness_time_residual_over_interval():
    fam = modulated_family(0.5, 3.0, 64.0)
    lo, hi = witness_interval(fam)
    for x in np.linspace(lo, hi, 40)[1:-1]:
        t = witness_time(fam, float(x))
        resid = abs(x - t ** fam.alpha - 2 * fam.R ** fam.b * t)
        assert resid <= 1e-12 * max(x, fam.R ** -2.0)


def test_witness_time_array_form():
    # one call for many positions gives the one-position times bit for bit,
    # and refuses the whole array for one position outside the interval
    for fam in (dilated_family(0.25, 0.75, 64.0),
                modulated_family(1 / 3, 1.6, 64.0)):
        lo, hi = witness_interval(fam)
        xs = np.linspace(lo, hi, 33)[1:-1]
        ts = witness_time(fam, xs)
        assert isinstance(ts, np.ndarray) and ts.shape == xs.shape
        assert [t.hex() for t in ts.tolist()] == \
            [witness_time(fam, x).hex() for x in xs.tolist()]
        assert witness_time(fam, xs[:0]).shape == (0,)
        for bad in (np.append(xs, hi), np.append(xs, np.nan),
                    xs.reshape(1, -1)):
            with pytest.raises(DomainError):
                witness_time(fam, bad)


def test_witness_time_unbracketed_root():
    # at c = 1/2, R = 100 the bracket's top t = c R**-2 rounds to a position
    # just below the interval's upper end: the position after it has no root
    fam = modulated_family(1 / 3, 1.6, 100.0, c=0.5)
    _, hi = witness_interval(fam)
    x = math.nextafter(hi, 0.0)
    below = math.nextafter(x, 0.0)
    assert witness_time(fam, below).hex() == "0x1.a36e2eb1c4326p-15"
    for arg in (x, np.array([below, x])):
        with pytest.raises(RootBracketError, match="not bracketed"):
            witness_time(fam, arg)


def test_witness_time_domain_error():
    fam = dilated_family(0.25, 0.75, 16.0)
    _, hi = witness_interval(fam)
    with pytest.raises(DomainError):
        witness_time(fam, 2 * hi)
    with pytest.raises(DomainError):
        witness_time(fam, -0.1)
