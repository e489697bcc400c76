from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctschro.atlas import (
    Breakpoint,
    breakpoints,
    continuity_check,
    exponent,
    predicted_ratio_slope,
)
from ctschro.domain import dilated_family, modulated_family
from ctschro.errors import DomainError, RegimeError


# ---------------------------------------------------------------------------
# pinned exponent values (exact on the rational path, 1e-12 on floats)
# ---------------------------------------------------------------------------

EXACT_CASES = [
    (F(1, 2), F(3), F(2), F(1, 4), "T1"),
    (F(1, 4), F(1, 2), F(2), F(0), "T2"),
    (F(1, 3), F(6, 5), F(2), F(1, 6), "T3"),
    (F(1), F(5), F(1), F(2, 5), "T4.3"),
    (F(3, 5), F(11, 10), F(3, 2), F(5, 88), "T4.6"),
]


@pytest.mark.parametrize("a,g,m,s,label", EXACT_CASES)
def test_exponent_rational_path_is_exact(a, g, m, s, label):
    res = exponent(alpha=a, gamma=g, m=m)
    assert isinstance(res.s, F) and res.s == s
    assert res.theorem == label


@pytest.mark.parametrize("a,g,m,s,label", EXACT_CASES)
def test_exponent_float_path_matches(a, g, m, s, label):
    res = exponent(alpha=float(a), gamma=float(g), m=float(m))
    assert float(res.s) == pytest.approx(float(s), abs=1e-12)
    assert res.theorem == label


def test_more_pinned_values():
    # quartic-style dispersion above the quadratic threshold
    res = exponent(alpha=F(1, 2), gamma=F(4), m=F(3))
    assert res.theorem == "T4.7"
    assert res.s == F(1, 4)
    # low dispersion exponent, gentle curve
    res = exponent(alpha=F(1, 4), gamma=F(3), m=F(1, 2))
    assert res.theorem == "T4.1"
    assert res.s == F(1, 2) * (1 - F(1, 8))


def test_query_validation():
    with pytest.raises(DomainError):
        exponent(alpha=0.0, gamma=1.0, m=2.0)
    with pytest.raises(DomainError):
        exponent(alpha=0.5, gamma=-1.0, m=2.0)
    with pytest.raises(DomainError):
        exponent(alpha=0.5, gamma=1.0, m=0.0)


@pytest.mark.parametrize("gamma,m", [(np.nan, 2.0), (1.0, np.nan),
                                     (1.0, np.inf)])
def test_query_refuses_nan_and_infinite_m(gamma, m):
    # once answered by the RegimeError that total regime coverage excludes
    with pytest.raises(DomainError):
        exponent(alpha=0.5, gamma=gamma, m=m)
    assert exponent(alpha=0.5, gamma=np.inf, m=2.0).s == F(1, 4)


@pytest.mark.parametrize("a,m,gammas,label", [
    (F(1, 3), F(2), [F(1, 2), F(2, 3), F(1), F(3, 2), F(2)], "T3"),
    (F(1, 2), F(2), [F(1, 2), F(1), F(2)], "T1"),
    (F(3, 5), F(3, 2), [F(1, 2), F(9, 10), F(1), F(6, 5), F(3)], "T4.6"),
])
def test_piece_indexes_the_regimes_in_gamma_order(a, m, gammas, label):
    # one gamma in each regime, each at its left end but the first
    pieces = [exponent(alpha=a, gamma=g, m=m) for g in gammas]
    assert [r.theorem for r in pieces] == [label] * len(gammas)
    assert [r.piece for r in pieces] == list(range(len(gammas)))
    assert len({r.regime for r in pieces}) == len(gammas)
    lefts = [b.gamma for b in breakpoints(a, m)]
    assert lefts == gammas[1:]


# ---------------------------------------------------------------------------
# breakpoints
# ---------------------------------------------------------------------------

def test_breakpoints_quadratic_middle_band():
    bps = breakpoints(F(1, 3), F(2))
    assert [b.gamma for b in bps] == [F(2, 3), F(1), F(3, 2), F(2)]


def test_breakpoints_fractional_band():
    bps = breakpoints(F(3, 5), F(3, 2))
    assert [b.gamma for b in bps] == [F(9, 10), F(1), F(6, 5), F(3)]


def test_breakpoints_nontangential_quadratic():
    bps = breakpoints(F(1, 2), F(2))
    assert [b.gamma for b in bps] == [F(1), F(2)]


def test_breakpoint_side_values_agree():
    # the adjacent-piece values coincide at every interior boundary
    for a, m in [(F(1, 3), F(2)), (F(3, 5), F(3, 2)), (F(2, 5), F(3)),
                 (F(1, 4), F(2)), (F(9, 10), F(4))]:
        for bp in breakpoints(a, m):
            assert bp.left == bp.right, (a, m, bp)


def test_known_boundary_identities():
    # T3 at gamma = 1/(2 alpha): both displays give 1/6 at alpha = 1/3
    bps = breakpoints(F(1, 3), F(2))
    mid = [b for b in bps if b.gamma == F(3, 2)][0]
    assert mid.left == mid.right == F(1, 6)
    # T4.5 cap boundary lands at 1/4
    bps = breakpoints(F(2, 5), F(3))
    cap = [b for b in bps if b.gamma == F(3, 2)][0]
    assert cap.left == cap.right == F(1, 4)
    # fractional band at gamma = 1, m = 3/2, alpha = 3/5: both sides 1/20
    bps = breakpoints(F(3, 5), F(3, 2))
    one = [b for b in bps if b.gamma == 1][0]
    assert one.left == one.right == F(1, 2) - F(3, 2) * F(3, 5) / 2


def test_breakpoints_skip_an_underflowed_boundary():
    # m alpha underflows to 0: the first regime [0, 0) is empty, and its
    # right end is no interior boundary of gamma > 0
    bps = breakpoints(1e-200, 1e-200)
    assert [b.gamma for b in bps] == [1.0]
    assert exponent(alpha=1e-200, gamma=0.5, m=1e-200).piece == 1
    assert [b.gamma for b in continuity_check(1e-200, 1e-200)] == [1.0]


# ---------------------------------------------------------------------------
# continuity, totality, monotonicity, limits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,m", [(0.3, 2.0), (1 / 3, 2.0), (0.6, 1.5),
                                 (0.45, 3.0), (0.2, 0.5)])
def test_continuity_check_reports_both_sides_as_floats(a, m):
    # each boundary as a Breakpoint of floats: gamma, the float-path values
    # a relative 1e-9 to its left and right, and their distance as gap
    gaps = continuity_check(a, m)
    assert [g.gamma for g in gaps] == [float(b.gamma)
                                       for b in breakpoints(a, m)]
    for gap in gaps:
        assert type(gap) is Breakpoint
        g = gap.gamma
        left = float(exponent(alpha=a, gamma=g * (1 - 1e-9), m=m).s)
        right = float(exponent(alpha=a, gamma=g * (1 + 1e-9), m=m).s)
        assert (gap.left, gap.right) == (left, right)
        assert all(type(v) is float for v in (gap.gamma, gap.left, gap.right))
        assert gap.gap == abs(right - left)


def test_continuity_on_grid():
    worst = 0.0
    for a in np.geomspace(0.02, 1.0, 15):
        for m in np.geomspace(0.05, 4.0, 15):
            for gap in continuity_check(float(a), float(m)):
                worst = max(worst, gap.gap)
    assert worst <= 1e-7


@given(a=st.floats(0.001, 1.0), m=st.floats(0.01, 6.0),
       g=st.floats(0.001, 50.0))
@settings(max_examples=300, deadline=None)
def test_totality_and_range(a, m, g):
    res = exponent(alpha=a, gamma=g, m=m)
    assert 0.0 <= float(res.s) <= 0.5 + 1e-12


@given(a=st.floats(0.001, 1.0), m=st.floats(0.01, 6.0))
@settings(max_examples=150, deadline=None)
def test_monotone_in_gamma(a, m):
    gs = np.geomspace(1e-3, 40.0, 25)
    ss = [float(exponent(alpha=a, gamma=float(g), m=m).s) for g in gs]
    assert all(b >= a_ - 1e-12 for a_, b in zip(ss, ss[1:]))


def test_gamma_limits():
    # large-gamma caps per theorem family
    assert float(exponent(alpha=0.5, gamma=1e9, m=2.0).s) == pytest.approx(0.25)
    assert float(exponent(alpha=0.2, gamma=1e9, m=2.0).s) == pytest.approx(0.3)
    assert float(exponent(alpha=0.3, gamma=1e9, m=2.0).s) == pytest.approx(0.25)
    assert float(exponent(alpha=1.0, gamma=1e9, m=1.0).s) == pytest.approx(0.5)
    assert float(exponent(alpha=0.9, gamma=1e9, m=0.5).s) == pytest.approx(0.375)
    assert float(exponent(alpha=0.8, gamma=1e9, m=3.0).s) == pytest.approx(0.25)
    # gamma -> 0 kills every threshold
    for a, m in [(0.5, 2.0), (0.2, 2.0), (0.3, 2.0), (0.7, 0.5), (0.4, 3.0)]:
        assert float(exponent(alpha=a, gamma=1e-9, m=m).s) == 0.0


def test_quadratic_limit_of_low_band_matches_quadratic_theorem():
    # m -> 2 on alpha <= 1/4 reproduces the quadratic-dispersion values
    for a in np.linspace(0.02, 0.25, 12):
        for g in np.geomspace(0.05, 8.0, 12):
            s4 = float(exponent(alpha=float(a), gamma=float(g), m=2.0 - 1e-12).s)
            s2 = float(exponent(alpha=float(a), gamma=float(g), m=2.0).s)
            assert abs(s4 - s2) <= 1e-9


def test_regime_tags_are_interval_strings():
    res = exponent(alpha=0.5, gamma=1.5, m=2.0)
    assert res.regime.startswith("gamma in [") and res.regime.endswith(")")


# ---------------------------------------------------------------------------
# predicted ratio slopes
# ---------------------------------------------------------------------------

def test_predicted_slopes_for_acceptance_points():
    assert predicted_ratio_slope(dilated_family(0.25, 0.75, 16.0)) \
        == pytest.approx(1 / 6)
    assert predicted_ratio_slope(dilated_family(0.25, 2.0, 16.0)) \
        == pytest.approx(0.25)
    assert predicted_ratio_slope(modulated_family(1 / 3, 1.6, 16.0)) \
        == pytest.approx(0.3)
    assert predicted_ratio_slope(modulated_family(0.5, 3.0, 16.0)) \
        == pytest.approx(0.5)


def test_predicted_slopes_pinned_bitwise():
    # the A5 predictions, to the bit
    assert predicted_ratio_slope(dilated_family(0.25, 0.75, 16.0)) \
        == 0.16666666666666669
    assert predicted_ratio_slope(dilated_family(0.25, 2.0, 16.0)) == 0.25
    assert predicted_ratio_slope(modulated_family(1 / 3, 1.6, 16.0)) \
        == 0.30000000000000004
    assert predicted_ratio_slope(modulated_family(0.5, 3.0, 16.0)) \
        == 0.5


def _supported_modulated_grid():
    for a in np.linspace(0.26, 1.0, 38):
        for g in np.linspace(1.0, 4.0, 61):
            a, g = float(a), float(g)
            if g >= 2.0:
                yield a, g, 2.0
            elif max(1.0 / (2 * a), 1.0) <= g:
                yield a, g, g


def test_modulated_prediction_is_b_times_atlas_exponent():
    points = list(_supported_modulated_grid())
    assert len(points) > 1000
    for a, g, b in points:
        fam = modulated_family(a, g, 16.0)
        assert (fam.b, fam.m) == (b, 2.0), (a, g)
        s = exponent(alpha=a, gamma=g, m=2.0).s
        predicted = predicted_ratio_slope(fam)
        assert abs(predicted - b * s) <= 1e-12, (a, g, b)


def test_predicted_slope_clamps_void_thresholds():
    assert predicted_ratio_slope(dilated_family(0.4, 0.5, 16.0)) == 0.0


def test_predicted_slope_regime_error():
    # dilated (1/2, 3/2): the family's law gives slope 0, the atlas s = 1/6
    with pytest.raises(RegimeError, match="not sharp"):
        predicted_ratio_slope(dilated_family(0.5, 1.5, 16.0))
