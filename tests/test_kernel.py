import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from ctschro._numerics import oscillatory_quadrature
from ctschro._pcg64 import Stream
from ctschro.atlas import exponent
from ctschro.domain import (EvolutionParams, curve_eval, holder_curve,
                            identity_curve)
from ctschro.errors import DomainError, RegimeError
from ctschro.kernel import (
    BetaChoice,
    _horizon,
    beta_table,
    clipped_power_assignment,
    cutoff,
    cutoff_mass,
    geometric_time_set,
    kernel_eval,
    kernel_majorant,
    kernel_values,
    schur_integral,
    verify_kernel_bound,
)

P2 = EvolutionParams(m=2.0, gamma=2.0, damping=True)
CRV = holder_curve(0.5)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_support_and_positivity():
    xs = np.array([-2.5, -2.0, -0.5, 0.0, 0.3, 0.5, 2.0, 3.0])
    assert np.all(cutoff(xs) == 0.0)
    inside = np.linspace(0.51, 1.99, 101)
    assert np.all(cutoff(inside) > 0.0)
    assert np.all(cutoff(-inside) == cutoff(inside))   # even profile
    assert cutoff(np.array([1.25]))[0] == pytest.approx(1.0, rel=1e-12)  # peak 1


def test_cutoff_integral_against_scipy():
    one_side, _ = quad(lambda x: cutoff(x), 0.5, 2.0, limit=200)
    assert cutoff_mass() == pytest.approx(2 * one_side, rel=1e-9)


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def test_kernel_at_coincident_arguments_is_total_mass():
    lam = 16.0
    val = kernel_eval(0.3, 0.3, 0.0, 0.0, lam, P2, CRV)
    assert val == pytest.approx(lam * cutoff_mass(), rel=1e-10)


def test_kernel_equal_times_matches_scipy_oracle():
    lam, t = 16.0, 0.01
    got = kernel_eval(0.1, 0.1, t, t, lam, P2, CRV)
    want, _ = quad(lambda xi: np.exp(-2 * t ** 2 * xi ** 2) * cutoff(xi / lam),
                   lam / 2, 2 * lam, limit=400)
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < got.real <= lam * cutoff_mass()
    assert got.real == pytest.approx(2 * want, rel=1e-9)


# scipy flags roundoff on one cancelling component; its value still agrees
# with the kernel far inside the tolerance below
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("x,y,t1,t2", [
    (0.3, -0.2, 0.05, 0.02),     # dt > 0, light damping
    (-0.4, 0.6, 0.02, 0.06),     # dt < 0
    (0.8, 0.1, 0.25, 0.125),     # strong damping, ~19 phase turns per side
    (0.5, -0.5, 1.0, 0.5),       # damping cap clips the outer band
])
def test_kernel_oscillating_matches_scipy_oracle(x, y, t1, t2):
    # dy != 0 and dt != 0: the phase and the damping both vary across the
    # band, so the refinement rule is exercised where it subdivides cells
    lam = 16.0
    dy = float(curve_eval(CRV, x, t1)) - float(curve_eval(CRV, y, t2))
    dt, damp = t1 - t2, t1 ** 2 + t2 ** 2

    def part(fn):
        def integrand(xi):
            return fn(np.exp(1j * (dy * xi + dt * xi * xi) - damp * xi * xi)) \
                * cutoff(xi / lam)
        return sum(quad(integrand, a, b, limit=2000, epsabs=0.0, epsrel=1e-11)[0]
                   for a, b in ((lam / 2, 2 * lam), (-2 * lam, -lam / 2)))

    want = complex(part(np.real), part(np.imag))
    got = kernel_eval(x, y, t1, t2, lam, P2, CRV)
    assert got.real == pytest.approx(want.real, abs=1e-10 * abs(want))
    assert got.imag == pytest.approx(want.imag, abs=1e-10 * abs(want))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_kernel_at_a_high_level_matches_scipy_oracle():
    # lam = 256, with dy = 1.26 and dt = 2**-9: about 76 turns each of
    # dt xi**2 and dy xi across the band, and a stationary point at
    # xi = -dy / (2 dt) = -322 on the negative side, which the mirrored row
    # reaches only through cos(dy xi)
    lam, x, y, t1, t2 = 256.0, 0.7, -0.6, 2.0 ** -9, 0.0
    dy = float(curve_eval(CRV, x, t1)) - float(curve_eval(CRV, y, t2))
    dt, damp = t1 - t2, t1 ** 2 + t2 ** 2
    cuts = np.linspace(lam / 2, 2 * lam, 65)
    pieces = [(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    pieces += [(-b, -a) for a, b in pieces]

    def part(fn):
        def integrand(xi):
            return fn(np.exp(1j * (dy * xi + dt * xi * xi) - damp * xi * xi)) \
                * cutoff(xi / lam)
        return sum(quad(integrand, a, b, limit=200, epsabs=0.0,
                        epsrel=1e-12)[0] for a, b in pieces)

    want = complex(part(np.real), part(np.imag))
    got = kernel_eval(x, y, t1, t2, lam, P2, CRV)
    assert abs(want) > 0.05 * lam * cutoff_mass()
    assert abs(got - want) <= 1e-11 * abs(want)


def test_kernel_conjugate_symmetry():
    lam = 16.0
    rng = np.random.default_rng(5)
    tset = geometric_time_set(lam)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 2)
        t1, t2 = rng.choice(tset, 2)
        a = kernel_eval(x, y, t1, t2, lam, P2, CRV)
        b = kernel_eval(y, x, t2, t1, lam, P2, CRV)
        assert abs(a - np.conj(b)) <= 1e-10 * max(abs(a), 1.0)


def test_kernel_modulus_bound():
    lam = 32.0
    rng = np.random.default_rng(11)
    tset = geometric_time_set(lam)
    cap = lam * cutoff_mass()
    for _ in range(40):
        x, y = rng.uniform(-1, 1, 2)
        t1, t2 = rng.choice(tset, 2)
        assert abs(kernel_eval(x, y, t1, t2, lam, P2, CRV)) <= cap * (1 + 1e-12)


def test_beta_table_refuses_nan_gamma():
    with pytest.raises(RegimeError, match="outside the table"):
        beta_table(0.5, math.nan)


def test_kernel_requires_quadratic_dispersion():
    with pytest.raises(RegimeError):
        kernel_eval(0.0, 0.5, 0.0, 0.0, 16.0,
                    EvolutionParams(m=1.0, gamma=2.0), CRV)
    with pytest.raises(DomainError):
        kernel_eval(0.0, 0.5, 0.0, 0.0, 2.0, P2, CRV)


def test_kernel_requires_the_damping():
    # the kernel, its majorant and beta_table are those of the damped
    # evolution; undamped params are refused, not evaluated as damped
    undamped = EvolutionParams(m=2.0, gamma=2.0, damping=False)
    with pytest.raises(RegimeError, match="damped"):
        kernel_eval(0.1, -0.2, 0.5, 0.25, 16.0, undamped, CRV)
    with pytest.raises(RegimeError, match="damped"):
        kernel_values([0.1, 0.2], -0.2, 0.5, 0.25, 16.0, undamped, CRV)


def test_nonstationary_decay_at_zero_times():
    # at t1 = t2 = 0 the kernel is a smooth-cutoff transform: beyond the
    # calibration window the decay beats the inverse-square envelope measured
    # inside it (the window maximum guards against measuring at a trough)
    lam = 64.0
    crv = identity_curve()

    def k_abs(dist):
        return abs(kernel_eval(dist, 0.0, 0.0, 0.0, lam, P2, crv))

    u_cal = np.linspace(32.0, 48.0, 33)
    c_int = max(u * u * k_abs(u / lam) / lam for u in u_cal)
    for u in np.linspace(48.0, 1024.0, 41):
        assert k_abs(u / lam) <= lam * c_int / u ** 2


def test_kernel_values_equal_one_row_calls():
    # mixed rows: dead samples (at t1 = t2 = 1 the damping cap 19.3 lies
    # below the inner band edge from lam = 64 on, so the value is exactly 0),
    # samples with dt = 0 and no damping, and three levels; 251 live samples,
    # one mirrored row each of 384-23352 nodes (744 k in all), span two
    # blocks and 53 chunks of the shared rule, 7 of them a single row past
    # the chunk budget
    rng = np.random.default_rng(21)
    rows = []
    for lam in (16.0, 64.0, 256.0):
        tset = geometric_time_set(lam)
        for k in range(100):
            x, y = rng.uniform(-1.0, 1.0, 2).tolist()
            t1, t2 = (float(t) for t in rng.choice(tset, 2))
            if k % 10 == 0:
                t1 = t2 = 0.0
            elif k % 10 == 1:
                t1 = t2 = 1.0
            rows.append((x, y, t1, t2, lam))
    cols = np.array(rows).T
    got = kernel_values(*cols, P2, CRV)
    assert got.shape == (300,) and got.dtype == complex
    want = [kernel_eval(*row, P2, CRV) for row in rows]
    assert got.tolist() == want
    # dead: the damping cap sqrt(745 / (t1**2 + t2**2)) at or below lam / 2
    dead = {k for k, (_, _, t1, t2, lam) in enumerate(rows)
            if t1 ** 2 + t2 ** 2 >= 745.0 / (lam / 2) ** 2}
    assert {k for k in range(100, 300) if k % 10 == 1} <= dead
    assert all((want[k] == 0.0) == (k in dead) for k in range(300))
    # broadcasting, and a 2-D shape kept
    grid = kernel_values(0.3, cols[1].reshape(30, 10), 0.25, 0.125, 64.0,
                         P2, CRV)
    assert grid.shape == (30, 10)
    assert grid[3, 4] == kernel_eval(0.3, cols[1][34], 0.25, 0.125, 64.0,
                                     P2, CRV)


def test_kernel_values_check_every_sample():
    with pytest.raises(DomainError):
        kernel_values([0.0, 0.1], 0.5, 0.0, [0.5, 1.5], 16.0, P2, CRV)
    with pytest.raises(DomainError):
        kernel_values(0.0, 0.5, 0.0, 0.0, [16.0, 2.0], P2, CRV)
    assert kernel_values([], [], [], [], 16.0, P2, CRV).shape == (0,)


# heavily damped rows (|K| 1e-107 to 1e-209) whose largest term lies past the
# cut that the damping at the inner band edge lam/2 would give: such a cut is
# 2-6 % off on them, while the horizon from the row's grid edges is not
_DEEP_ROWS = [(0.1, -0.2, 1.0, 2 ** -0.5, 32.0), (0.3, 0.25, 1.0, 2 ** -0.5, 32.0),
              (0.0, 0.0, 1.0, 0.5, 24.0), (0.2, -0.1, 0.9, 0.8, 32.0)]


def _underflow_row(x, y, t1, t2, lam, params=P2):
    """The kernel integrated to the underflow cap sqrt(745 / d), on 96
    cells: what ``kernel_values`` computed before rows stopped at their
    horizon."""
    d = t1 ** params.gamma + t2 ** params.gamma
    edges = np.linspace(lam / 2, min(2 * lam, math.sqrt(745.0 / d)), 97)
    dy = float(curve_eval(CRV, x, t1)) - float(curve_eval(CRV, y, t2))
    return oscillatory_quadrature(
        edges[None], lambda xi, row: cutoff(xi / lam), [dy], [t1 - t2], [d],
        2.0, mirrored=True)[0]


@pytest.mark.parametrize("row", _DEEP_ROWS)
def test_damped_row_matches_its_underflow_cap_row(row):
    want = _underflow_row(*row)
    got = kernel_eval(*row, P2, CRV)
    assert 1e-210 < abs(want) < 1e-100
    assert abs(got - want) <= 1e-12 * abs(want)


def test_horizon_at_the_band_ends_warns_nothing():
    # a sliver row: its underflow cap lies one ulp past lam/2 = 32, so every
    # interior edge rounds onto an end of the band: half onto lam/2, where
    # Psi's u (1 - u) is 0, and half onto the cap, where it is one ulp
    t1 = math.sqrt(745.0) / 32.0
    while math.sqrt(745.0 / t1 ** 2.0) <= 32.0:
        t1 = float(np.nextafter(t1, 0.0))
    sliver = (0.1, -0.2, t1, 0.0, 64.0)
    assert math.sqrt(745.0 / t1 ** 2.0) == np.nextafter(32.0, 64.0)
    # rows whose damping horizon sqrt(60 / d) is the outer band edge 2 lam,
    # the last cell edge: d (2 lam)**2 = 60 exactly, which is not bounded,
    # and one ulp more of d, which is
    p1 = EvolutionParams(m=2.0, gamma=1.0, damping=True)
    d = 60.0 / 64.0 ** 2
    outer = [(0.1, -0.2, d, 0.0, 32.0),
             (0.1, -0.2, float(np.nextafter(d, 1.0)), 0.0, 32.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_eval(*sliver, P2, CRV) == 0.0
        for row in outer:
            assert kernel_eval(*row, p1, CRV) == _underflow_row(*row, p1)
        for row, g in [(sliver, 2.0), *((r, 1.0) for r in outer),
                       *((r, 2.0) for r in _DEEP_ROWS)]:
            _, _, s1, s2, lam = row
            d = s1 ** g + s2 ** g
            hi = min(2 * lam, math.sqrt(745.0 / d))
            cut = _horizon(np.array([lam / 2]), np.array([hi]),
                           np.array([d]), np.array([lam]))[0]
            # a live row stays live, and the cut never raises its end
            assert lam / 2 < cut <= hi
            assert (cut < hi) == (row in _DEEP_ROWS)


@pytest.mark.parametrize("sample", [
    (np.nan, 0.0, 16.0), (0.0, np.nan, 16.0), (np.inf, 0.0, 16.0),
    (0.0, -np.inf, 16.0), (0.0, 0.5, np.nan), (0.0, 0.5, np.inf),
])
def test_kernel_rejects_non_finite_positions_and_levels(sample, monkeypatch):
    import ctschro.kernel as kernel

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature reached")
    monkeypatch.setattr(kernel, "oscillatory_quadrature", no_quadrature)
    x, y, lam = sample
    with pytest.raises(DomainError, match="finite"):
        kernel_eval(x, y, 0.0, 0.0, lam, P2, CRV)
    with pytest.raises(DomainError, match="finite"):
        kernel_values([0.1, x], [0.2, y], 0.0, 0.0, [16.0, lam], P2, CRV)


# ---------------------------------------------------------------------------
# majorant and table
# ---------------------------------------------------------------------------

def test_majorant_zero_weights_closed_form():
    lam, alpha = 16.0, 0.5
    beta = BetaChoice(0.0, 0.0, 0.5, False)
    for d in (0.01, 0.2, 1.0):
        want = max(min(d ** (-1 / (2 * alpha)), lam), np.sqrt(lam) / np.sqrt(d))
        assert kernel_majorant(d, 0.0, lam, beta, alpha, 2.0) == pytest.approx(want)


def test_majorant_direct_substitution():
    beta = BetaChoice(0.0, 0.25, 0.0, False)
    assert kernel_majorant(1.0, 0.0, 16.0, beta, 0.5, 2.0) == pytest.approx(4.0)


def test_majorant_lambda_scaling_of_second_branch():
    beta = BetaChoice(0.0, 0.25, 0.0, False)
    gamma = 2.0
    d = 0.37
    v1 = kernel_majorant(d, 0.0, 64.0, beta, 0.5, gamma)
    v2 = kernel_majorant(d, 0.0, 128.0, beta, 0.5, gamma)
    assert v2 / v1 == pytest.approx(2 ** (0.5 - 2 * 0.25 + gamma * 0.25), rel=1e-12)


@pytest.mark.parametrize("x,y", [(np.nan, 0.0), (0.0, np.nan),
                                 (np.inf, 0.0), (0.0, -np.inf)])
def test_majorant_rejects_non_finite_positions(x, y):
    with pytest.raises(DomainError, match="finite"):
        kernel_majorant(x, y, 16.0, beta_table(0.5, 2.0), 0.5, 2.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0, 0.0])
def test_majorant_rejects_a_non_finite_or_non_positive_lam(lam):
    with pytest.raises(DomainError, match="lam > 0"):
        kernel_majorant(0.3, 0.0, lam, beta_table(0.5, 2.0), 0.5, 2.0)


def test_majorant_coincidence_error():
    with pytest.raises(DomainError):
        kernel_majorant(0.3, 0.3, 16.0, BetaChoice(0, 0, 0.5, False), 0.5, 2.0)


def test_beta_table_rows():
    row = beta_table(0.5, 3.0)
    assert (row.beta1, row.beta2, row.i_exponent) == (0.0, 0.0, 0.5)
    row = beta_table(0.2, 0.5)
    assert row.beta1 == pytest.approx(0.4)
    assert row.beta2 == pytest.approx(1.0)
    assert row.i_exponent == pytest.approx(0.2)
    assert row.eps_flag
    row = beta_table(1 / 3, 1.2)
    assert row.beta1 == 0.0
    assert row.beta2 == pytest.approx(1 / 2.4)
    assert row.i_exponent == pytest.approx(1 / 3)
    assert not row.eps_flag


def test_beta_table_exponents_pinned_bitwise():
    # the predicted_I_exponent that kernelcheck reports at the A7 points
    assert beta_table(0.5, 2.0).i_exponent == 0.5
    assert beta_table(0.2, 0.5).i_exponent == 0.19999999999999996
    assert beta_table(1 / 3, 1.2).i_exponent == 0.33333333333333337


def test_beta_table_exponent_is_twice_the_atlas_exponent():
    for a in np.linspace(0.01, 1.0, 50):
        for g in np.linspace(0.01, 4.0, 200):
            a, g = float(a), float(g)
            want = 2 * exponent(alpha=a, gamma=g, m=2.0).s
            assert beta_table(a, g).i_exponent == want, (a, g)


def test_beta_table_covers_all_eleven_regimes():
    seen = set()
    for a in (0.6, 0.2, 0.35):
        for g in (0.1, 0.5, 0.9, 1.2, 1.44, 2.5):
            row = beta_table(a, g)
            seen.add((round(row.beta1, 6), round(row.beta2, 6),
                      round(row.i_exponent, 6), row.eps_flag))
    assert len(seen) >= 9


def _majorant_row_integral(alpha, gamma, lam):
    """integral over y in [-1, 1] of min(lam, majorant(|x - y|)): the modulus
    bound caps the coincidence singularity (the eps-flagged rows are exactly
    log-divergent without it)."""
    beta = beta_table(alpha, gamma)
    r = np.geomspace(1e-30, 1.0, 20001)
    vals = np.minimum(lam, [kernel_majorant(rr, 0.0, lam, beta, alpha, gamma)
                            for rr in r])
    return 2.0 * np.trapezoid(vals * r, np.log(r))


@pytest.mark.parametrize("alpha,gamma", [
    (0.6, 0.5), (0.6, 1.5), (0.6, 2.5),            # high band
    (0.2, 0.3), (0.2, 0.7), (0.2, 1.5),            # low band
    (0.35, 0.5), (0.35, 0.9), (0.35, 1.2), (0.35, 1.7), (0.35, 2.5),
])
def test_majorant_row_integral_reproduces_exponent(alpha, gamma):
    # eps-flagged rows carry a log factor whose fitted-slope bias decays like
    # 1/log(lam); the window sits high enough that it fits inside +-0.05.
    # Rows bounded by a constant are upper bounds only (their integrals in
    # fact decay), so those are tested one-sidedly.
    lams = 2.0 ** np.arange(28, 45, 4)
    vals = [_majorant_row_integral(alpha, gamma, lam) for lam in lams]
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    expo = beta_table(alpha, gamma).i_exponent
    if expo > 0:
        assert slope == pytest.approx(expo, abs=0.05)
    else:
        assert slope <= expo + 0.05


def _ladder_weights(a, g):
    """(beta1, beta2, eps_flag) by the if-ladder over the T1-T3 breakpoints
    that beta_table used before it read the atlas regime: the reference the
    table must reproduce bit for bit."""
    if a >= 0.5:
        if g < 1.0:
            return 0.0, 1.0 / (2 * g), False
        if g < 2.0:
            return 0.0, 1.0 / (2 * g), True
        return 0.0, 0.0, False
    if g < 2 * a:
        return a / g, 1.0 / (2 * g), False
    if g < 1.0:
        return a / g, 1.0 / (2 * g), True
    if a <= 0.25 or g >= 2.0:
        return 0.0, 0.0, False
    return 0.0, 1.0 / (2 * g), g >= 1.0 / (2 * a)


def _with_neighbours(values):
    return [w for v in values
            for w in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]


def test_beta_table_matches_the_breakpoint_ladder_bitwise():
    # a dense grid plus every theorem and regime boundary and its two float
    # neighbours: alpha = 1/4, 1/2, 1 and gamma = 2 alpha, 1, 1/(2 alpha), 2
    alphas = [a for a in _with_neighbours([0.25, 0.5, 1.0])
              + np.linspace(0.005, 1.0, 120).tolist() if a <= 1.0]
    for a in alphas:
        gammas = (_with_neighbours([2 * a, 1.0, 1.0 / (2 * a), 2.0])
                  + np.linspace(0.01, 4.0, 60).tolist() + [1e-3, 50.0])
        for g in gammas:
            row = beta_table(a, g)
            want = _ladder_weights(a, g)
            got = (row.beta1, row.beta2, row.eps_flag)
            assert [type(v) for v in got] == [type(v) for v in want], (a, g)
            assert (float.hex(got[0]), float.hex(got[1]), got[2]) == \
                (float.hex(want[0]), float.hex(want[1]), want[2]), (a, g)
            assert row.i_exponent == 2 * float(exponent(alpha=a, gamma=g,
                                                        m=2.0).s)


def test_majorant_underflowed_denominator_takes_the_other_term():
    # d**(1/(2 alpha)) = 0.001**125 underflows: the first term is +inf and
    # min takes lam, so the majorant is max(lam, sqrt(lam/d))
    beta = beta_table(0.004, 2.0)
    assert (beta.beta1, beta.beta2) == (0.0, 0.0)
    for d, want in ((0.001, math.sqrt(16.0) / math.sqrt(0.001)),
                    (1e-6, math.sqrt(16.0) / math.sqrt(1e-6))):
        assert kernel_majorant(d, 0.0, 16.0, beta, 0.004, 2.0) == want
    # 1.5**5000 overflows: that term is 0, and branch 2 decides
    beta = beta_table(1e-4, 2.0)
    assert kernel_majorant(1.5, 0.0, 16.0, beta, 1e-4, 2.0) == \
        math.sqrt(16.0) / math.sqrt(1.5)


def test_majorant_that_underflows_is_a_domain_error():
    # beta1 = alpha/gamma = 200 and beta2 = 500: lam**-400 and lam**-999
    # leave the doubles, so every branch is 0
    beta = beta_table(0.2, 0.001)
    with pytest.raises(DomainError, match=r"alpha=0\.2, gamma=0\.001, lam=16"):
        kernel_majorant(0.3, 0.0, 16.0, beta, 0.2, 0.001)


def test_beta_table_out_of_range():
    with pytest.raises(RegimeError):
        beta_table(1.5, 1.0)
    with pytest.raises(RegimeError):
        beta_table(0.5, 0.0)


# ---------------------------------------------------------------------------
# Schur integrals
# ---------------------------------------------------------------------------

def test_schur_time_zero_bounded_by_mass():
    lam = 16.0
    ys = np.linspace(-1, 1, int(8 * lam) + 1)
    val = schur_integral(0.2, lam, P2, identity_curve(),
                         lambda x: 0.0, ys)
    assert 0.0 < val <= 2.0 * lam * cutoff_mass()


def test_schur_dominated_by_majorant_integral():
    # row integral against the quadrature of the analytic majorant: the ratio
    # stays of order one and does not grow across levels
    alpha, gamma = 0.5, 2.0
    beta = beta_table(alpha, gamma)
    assign = clipped_power_assignment(alpha)
    ratios = []
    for lam in (16.0, 32.0, 64.0):
        ys = np.linspace(-1, 1, int(8 * lam) + 1)
        got = schur_integral(0.0, lam, P2, CRV, assign, ys)
        keep = np.abs(ys) > lam ** -4
        maj = np.trapezoid(
            [kernel_majorant(0.0, float(y), lam, beta, alpha, gamma)
             if abs(y) > lam ** -4 else 0.0 for y in ys], ys)
        ratios.append(got / maj)
    assert ratios[-1] <= 2.0 * ratios[0]
    assert max(ratios) < 2.0 * max(1.0, cutoff_mass())


# schur_integral(0, lam) along the clipped power assignment at alpha 1/2,
# gamma 2, with every damped row integrated to its underflow cap: the rows
# that now stop at their horizon leave each sum unchanged to the bit
_PINNED_SCHUR = {16.0: "0x1.76511ae120183p+2", 32.0: "0x1.78a699780f621p+2",
                 64.0: "0x1.78f927be75528p+2", 128.0: "0x1.7907f978dcf45p+2"}


@pytest.mark.parametrize("lam", sorted(_PINNED_SCHUR))
def test_schur_rows_are_pinned(lam):
    ys = np.linspace(-1, 1, int(8 * lam) + 1)
    got = schur_integral(0.0, lam, P2, CRV, clipped_power_assignment(0.5), ys)
    assert float.hex(got) == _PINNED_SCHUR[lam]


def test_random_assignment_schur_finite_and_deterministic():
    lam = 16.0
    rng_times = geometric_time_set(lam)

    def assign(x, _t=rng_times):
        k = int(abs(hash(round(float(x), 12))) % _t.size)
        return float(_t[k])

    ys = np.linspace(-1, 1, 129)
    a = schur_integral(0.1, lam, P2, CRV, assign, ys)
    b = schur_integral(0.1, lam, P2, CRV, assign, ys)
    assert a == b and np.isfinite(a)


# ---------------------------------------------------------------------------
# randomized bound verification
# ---------------------------------------------------------------------------

def test_verify_kernel_bound_smoke_and_determinism():
    rep1 = verify_kernel_bound(0.5, 2.0, [16.0, 32.0], 100, seed=99)
    rep2 = verify_kernel_bound(0.5, 2.0, [16.0, 32.0], 100, seed=99)
    assert rep1.max_ratios == rep2.max_ratios
    assert [s.x for s in rep1.worst] == [s.x for s in rep2.worst]
    assert all(np.isfinite(r) for r in rep1.max_ratios)
    with pytest.raises(DomainError):
        verify_kernel_bound(0.5, 2.0, [16.0], 50, seed=1)


# the reports of the one-sample-per-call evaluation, to the bit: the draws,
# their kernel values and the majorants of the worst sample per level
_PINNED_REPORTS = {
    3: ((1.48204438973551, 1.8937522500534032),
        ((0.5306206175353949, -0.009600182801924317, 0.0, 0.015625, 16.0,
          6.689202783947386 + 4.506454429458036j, 5.442198024379068),
         (0.5786623593238112, -0.8496344593856902, 0.015625, 0.0, 32.0,
          0.8518586833061291 - 8.923163554692138j, 4.733318783950712))),
    99: ((1.3875236541306866, 1.6488404057020445),
         ((0.6222061857975283, -0.3245639528168929, 0.03125, 0.0078125, 16.0,
           1.4938560229135607 - 5.504888695799994j, 4.110907601221897),
          (0.580356881117629, -0.35547058678760646, 0.001953125, 0.015625,
           32.0, 8.696588641004784 - 4.163246915228619j, 5.8475924277880384))),
}
# the same reports when each band side was a row of its own: the mirrored
# row moves the values in the last bits only
_TWO_SIDED_REPORTS = {
    3: ((1.48204438973551, 1.8937522500534028),
        (6.689202783947387 + 4.506454429458035j,
         0.8518586833061303 - 8.923163554692136j)),
    99: ((1.3875236541306868, 1.6488404057020445),
         (1.4938560229135611 - 5.504888695799995j,
          8.696588641004782 - 4.163246915228622j)),
}


@pytest.mark.parametrize("seed", sorted(_PINNED_REPORTS))
def test_verify_kernel_bound_reports_are_pinned(seed):
    rep = verify_kernel_bound(0.5, 2.0, [16.0, 32.0], 100, seed=seed)
    ratios, worst = _PINNED_REPORTS[seed]
    assert rep.max_ratios == ratios
    assert tuple((s.x, s.y, s.t1, s.t2, s.lam, s.value, s.bound)
                 for s in rep.worst) == worst
    anchor_ratios, anchor_values = _TWO_SIDED_REPORTS[seed]
    for got, anchor in zip(rep.max_ratios, anchor_ratios):
        assert abs(got - anchor) <= 1e-13 * abs(anchor)
    for s, anchor in zip(rep.worst, anchor_values):
        assert abs(s.value - anchor) <= 1e-13 * abs(anchor)


def test_verify_kernel_bound_respects_coincidence_cutoff():
    rep = verify_kernel_bound(0.5, 2.0, [16.0], 100, seed=3)
    for s in rep.worst:
        assert abs(s.x - s.y) >= s.lam ** -4


# seeds of one to five 32-bit words: SeedSequence hashes up to four into its
# pool, and mixes a fifth in afterwards
_STREAM_SEEDS = [*range(400), 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 10 ** 30,
                 2 ** 128 + 7]
# 1 takes no draw, 2**31 + 11 rejects nearly half of Lemire's draws
_STREAM_BOUNDS = (2, 3, 17, 1, 2 ** 31 + 11, 1000, 2 ** 32 - 1)


def test_kernel_draws_are_numpys_stream():
    # uniform(-1, 1) and integers(0, n) interleaved, as the kernel draws
    # them, so that the buffered upper half of a 64-bit output is carried
    # across the doubles drawn between two bounded integers
    for seed in _STREAM_SEEDS:
        mine, numpys = Stream(seed), np.random.default_rng(seed)
        for k in range(300):
            if k % 3 == 2:
                n = _STREAM_BOUNDS[k // 3 % len(_STREAM_BOUNDS)]
                assert mine.integers(0, n) == numpys.integers(0, n), (seed, k)
            else:
                got, want = mine.uniform(-1.0, 1.0), numpys.uniform(-1.0, 1.0)
                assert got.hex() == want.hex(), (seed, k)


def test_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError, match="seed"):
        Stream(-1)
    with pytest.raises(DomainError, match="seed"):
        verify_kernel_bound(0.5, 2.0, [16.0], 100, seed=-1)
