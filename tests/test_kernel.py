import numpy as np
import pytest
from scipy.integrate import quad

from ctschro.atlas import exponent
from ctschro.domain import (EvolutionParams, curve_eval, holder_curve,
                            identity_curve)
from ctschro.errors import DomainError, RegimeError
from ctschro.kernel import (
    BetaChoice,
    CutoffSpec,
    beta_table,
    clipped_power_assignment,
    geometric_time_set,
    kernel_eval,
    kernel_majorant,
    kernel_values,
    make_cutoff,
    schur_integral,
    verify_kernel_bound,
)

CUT = make_cutoff()
P2 = EvolutionParams(m=2.0, gamma=2.0, damping=True)
CRV = holder_curve(0.5)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_support_and_positivity():
    xs = np.array([-2.5, -2.0, -0.5, 0.0, 0.3, 0.5, 2.0, 3.0])
    assert np.all(CUT(xs) == 0.0)
    inside = np.linspace(0.51, 1.99, 101)
    assert np.all(CUT(inside) > 0.0)
    assert np.all(CUT(-inside) == CUT(inside))   # even profile
    assert CUT(np.array([1.25]))[0] == pytest.approx(1.0, rel=1e-12)  # peak 1


def test_cutoff_integral_against_scipy():
    one_side, _ = quad(lambda x: CUT(x), 0.5, 2.0, limit=200)
    assert CUT.integral == pytest.approx(2 * one_side, rel=1e-9)


def test_cutoff_spec_validation():
    with pytest.raises(DomainError):
        CutoffSpec(inner=2.0, outer=1.0)


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def test_kernel_at_coincident_arguments_is_total_mass():
    lam = 16.0
    val = kernel_eval(0.3, 0.3, 0.0, 0.0, lam, P2, CRV, CUT)
    assert val == pytest.approx(lam * CUT.integral, rel=1e-10)


def test_kernel_equal_times_matches_scipy_oracle():
    lam, t = 16.0, 0.01
    got = kernel_eval(0.1, 0.1, t, t, lam, P2, CRV, CUT)
    want, _ = quad(lambda xi: np.exp(-2 * t ** 2 * xi ** 2) * CUT(xi / lam),
                   lam / 2, 2 * lam, limit=400)
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < got.real <= lam * CUT.integral
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
                * CUT(xi / lam)
        return sum(quad(integrand, a, b, limit=2000, epsabs=0.0, epsrel=1e-11)[0]
                   for a, b in ((lam / 2, 2 * lam), (-2 * lam, -lam / 2)))

    want = complex(part(np.real), part(np.imag))
    got = kernel_eval(x, y, t1, t2, lam, P2, CRV, CUT)
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
                * CUT(xi / lam)
        return sum(quad(integrand, a, b, limit=200, epsabs=0.0,
                        epsrel=1e-12)[0] for a, b in pieces)

    want = complex(part(np.real), part(np.imag))
    got = kernel_eval(x, y, t1, t2, lam, P2, CRV, CUT)
    assert abs(want) > 0.05 * lam * CUT.integral
    assert abs(got - want) <= 1e-11 * abs(want)


def test_kernel_conjugate_symmetry():
    lam = 16.0
    rng = np.random.default_rng(5)
    tset = geometric_time_set(lam)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 2)
        t1, t2 = rng.choice(tset, 2)
        a = kernel_eval(x, y, t1, t2, lam, P2, CRV, CUT)
        b = kernel_eval(y, x, t2, t1, lam, P2, CRV, CUT)
        assert abs(a - np.conj(b)) <= 1e-10 * max(abs(a), 1.0)


def test_kernel_modulus_bound():
    lam = 32.0
    rng = np.random.default_rng(11)
    tset = geometric_time_set(lam)
    cap = lam * CUT.integral
    for _ in range(40):
        x, y = rng.uniform(-1, 1, 2)
        t1, t2 = rng.choice(tset, 2)
        assert abs(kernel_eval(x, y, t1, t2, lam, P2, CRV, CUT)) <= cap * (1 + 1e-12)


def test_kernel_requires_quadratic_dispersion():
    with pytest.raises(RegimeError):
        kernel_eval(0.0, 0.5, 0.0, 0.0, 16.0,
                    EvolutionParams(m=1.0, gamma=2.0), CRV, CUT)
    with pytest.raises(DomainError):
        kernel_eval(0.0, 0.5, 0.0, 0.0, 2.0, P2, CRV, CUT)


def test_nonstationary_decay_at_zero_times():
    # at t1 = t2 = 0 the kernel is a smooth-cutoff transform: beyond the
    # calibration window the decay beats the inverse-square envelope measured
    # inside it (the window maximum guards against measuring at a trough)
    lam = 64.0
    crv = identity_curve()

    def k_abs(dist):
        return abs(kernel_eval(dist, 0.0, 0.0, 0.0, lam, P2, crv, CUT))

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
    got = kernel_values(*cols, P2, CRV, CUT)
    assert got.shape == (300,) and got.dtype == complex
    want = [kernel_eval(*row, P2, CRV, CUT) for row in rows]
    assert got.tolist() == want
    # dead: the damping cap sqrt(745 / (t1**2 + t2**2)) at or below lam / 2
    dead = {k for k, (_, _, t1, t2, lam) in enumerate(rows)
            if t1 ** 2 + t2 ** 2 >= 745.0 / (lam / 2) ** 2}
    assert {k for k in range(100, 300) if k % 10 == 1} <= dead
    assert all((want[k] == 0.0) == (k in dead) for k in range(300))
    # broadcasting, and a 2-D shape kept
    grid = kernel_values(0.3, cols[1].reshape(30, 10), 0.25, 0.125, 64.0,
                         P2, CRV, CUT)
    assert grid.shape == (30, 10)
    assert grid[3, 4] == kernel_eval(0.3, cols[1][34], 0.25, 0.125, 64.0,
                                     P2, CRV, CUT)


def test_kernel_values_check_every_sample():
    with pytest.raises(DomainError):
        kernel_values([0.0, 0.1], 0.5, 0.0, [0.5, 1.5], 16.0, P2, CRV, CUT)
    with pytest.raises(DomainError):
        kernel_values(0.0, 0.5, 0.0, 0.0, [16.0, 2.0], P2, CRV, CUT)
    assert kernel_values([], [], [], [], 16.0, P2, CRV, CUT).shape == (0,)


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
        kernel_eval(x, y, 0.0, 0.0, lam, P2, CRV, CUT)
    with pytest.raises(DomainError, match="finite"):
        kernel_values([0.1, x], [0.2, y], 0.0, 0.0, [16.0, lam], P2, CRV, CUT)


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
    val = schur_integral(0.2, lam, P2, identity_curve(), CUT,
                         lambda x: 0.0, ys)
    assert 0.0 < val <= 2.0 * lam * CUT.integral


def test_schur_dominated_by_majorant_integral():
    # row integral against the quadrature of the analytic majorant: the ratio
    # stays of order one and does not grow across levels
    alpha, gamma = 0.5, 2.0
    beta = beta_table(alpha, gamma)
    assign = clipped_power_assignment(alpha)
    ratios = []
    for lam in (16.0, 32.0, 64.0):
        ys = np.linspace(-1, 1, int(8 * lam) + 1)
        got = schur_integral(0.0, lam, P2, CRV, CUT, assign, ys)
        keep = np.abs(ys) > lam ** -4
        maj = np.trapezoid(
            [kernel_majorant(0.0, float(y), lam, beta, alpha, gamma)
             if abs(y) > lam ** -4 else 0.0 for y in ys], ys)
        ratios.append(got / maj)
    assert ratios[-1] <= 2.0 * ratios[0]
    assert max(ratios) < 2.0 * max(1.0, CUT.integral)


def test_random_assignment_schur_finite_and_deterministic():
    lam = 16.0
    rng_times = geometric_time_set(lam)

    def assign(x, _t=rng_times):
        k = int(abs(hash(round(float(x), 12))) % _t.size)
        return float(_t[k])

    ys = np.linspace(-1, 1, 129)
    a = schur_integral(0.1, lam, P2, CRV, CUT, assign, ys)
    b = schur_integral(0.1, lam, P2, CRV, CUT, assign, ys)
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
          0.8518586833061287 - 8.923163554692138j, 4.733318783950712))),
    99: ((1.3875236541306866, 1.6488404057020445),
         ((0.6222061857975283, -0.3245639528168929, 0.03125, 0.0078125, 16.0,
           1.493856022913561 - 5.504888695799994j, 4.110907601221897),
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
