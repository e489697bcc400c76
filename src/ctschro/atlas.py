"""Executable atlas of the sharp Sobolev exponents s(alpha, gamma, m) for
almost-everywhere convergence of the damped dispersive evolution along
alpha-Hölder curves.

The atlas routes a query (alpha, gamma, m) to the unique covering theorem
(labels T1-T3 for m = 2, T4.1-T4.7 otherwise), resolves the min / positive
part structure into explicit gamma-regimes (left-closed, right-open), and
evaluates the regime formula.  Rational inputs (int / Fraction) are evaluated
in exact rational arithmetic; floats take the float path.

Whether convergence holds at s exactly equal to s(gamma) is open; the atlas
reports the threshold, not the endpoint behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .domain import CounterexampleFamily, scaling_law
from .errors import DomainError, RegimeError

__all__ = [
    "ExponentResult", "exponent",
    "Breakpoint", "breakpoints", "continuity_check",
    "predicted_ratio_slope",
]


@dataclass(frozen=True)
class ExponentResult:
    s: object
    theorem: str
    regime: str
    piece: int   # index of the covering regime, in the theorem's gamma order


@dataclass(frozen=True)
class Breakpoint:
    gamma: object
    left: object
    right: object

    @property
    def gap(self):
        return abs(self.right - self.left)


def _exact(*vals) -> bool:
    return all(isinstance(v, Rational) for v in vals)


def _lift(v, exact: bool):
    if exact:
        return Fraction(v) if not isinstance(v, Fraction) else v
    return float(v)


class _Piece:
    """One gamma-regime [lo, hi) with its exponent formula."""

    def __init__(self, lo, hi, fn):
        self.lo = lo      # inclusive; 0 means the open left end (0, ...)
        self.hi = hi      # exclusive; None means +infinity
        self.fn = fn


def _pieces(alpha, m, exact: bool):
    """Theorem label and resolved gamma-regimes for (alpha, m).

    Coverage over alpha in (0, 1], m > 0 is total; the min / positive-part
    displays are resolved into explicit regimes, which is value-preserving
    because every threshold curve is continuous in gamma.
    """
    one = _lift(1, exact)
    half = one / 2
    a = _lift(alpha, exact)
    mm = _lift(m, exact)
    zero_fn = lambda g: one * 0

    if mm == 2:
        if a >= half:
            return "T1", [
                _Piece(0, one, zero_fn),
                _Piece(one, 2 * one, lambda g: half * (1 - 1 / g)),
                _Piece(2 * one, None, lambda g: one / 4),
            ]
        if a <= one / 4:
            return "T2", [
                _Piece(0, 2 * a, zero_fn),
                _Piece(2 * a, one, lambda g: half - a / g),
                _Piece(one, None, lambda g: half - a),
            ]
        return "T3", [
            _Piece(0, 2 * a, zero_fn),
            _Piece(2 * a, one, lambda g: half - a / g),
            _Piece(one, 1 / (2 * a), lambda g: half - a),
            _Piece(1 / (2 * a), 2 * one, lambda g: half * (1 - 1 / g)),
            _Piece(2 * one, None, lambda g: one / 4),
        ]

    if mm < 1:
        if a <= half:
            return "T4.1", [
                _Piece(0, mm * a, zero_fn),
                _Piece(mm * a, one, lambda g: half * (1 - mm * a / g)),
                _Piece(one, None, lambda g: half * (1 - mm * a)),
            ]
        return "T4.2", [
            _Piece(0, mm * a, zero_fn),
            _Piece(mm * a, one, lambda g: half * (1 - mm * a / g)),
            _Piece(one, None,
                   lambda g: (2 - mm) / 4 + mm * (1 - 2 * a) / (4 * g)),
        ]

    if mm == 1:
        return "T4.3", [
            _Piece(0, a, zero_fn),
            _Piece(a, None, lambda g: half * (1 - a / g)),
        ]

    # m > 1, m != 2
    if a <= 1 / (2 * mm):
        return "T4.4", [
            _Piece(0, mm * a, zero_fn),
            _Piece(mm * a, one, lambda g: half * (1 - mm * a / g)),
            _Piece(one, None, lambda g: half * (1 - mm * a)),
        ]
    if a >= 1 / mm:
        return "T4.7", [
            _Piece(0, one, zero_fn),
            _Piece(one, mm / (mm - 1), lambda g: (mm / 4) * (1 - 1 / g)),
            _Piece(mm / (mm - 1), None, lambda g: one / 4),
        ]
    if mm < 2 and a >= half:
        return "T4.6", [
            _Piece(0, mm * a, zero_fn),
            _Piece(mm * a, one, lambda g: half - mm * a / (2 * g)),
            _Piece(one, mm * (1 - a) / (mm - 1),
                   lambda g: (2 - mm) / 4 + mm * (1 - 2 * a) / (4 * g)),
            _Piece(mm * (1 - a) / (mm - 1), mm / (mm - 1),
                   lambda g: (mm / 4) * (1 - 1 / g)),
            _Piece(mm / (mm - 1), None, lambda g: one / 4),
        ]
    return "T4.5", [
        _Piece(0, mm * a, zero_fn),
        _Piece(mm * a, one, lambda g: half - mm * a / (2 * g)),
        _Piece(one, mm / (mm - 2 + 2 * mm * a), lambda g: (1 - mm * a) / 2),
        _Piece(mm / (mm - 2 + 2 * mm * a), mm / (mm - 1),
               lambda g: (mm / 4) * (1 - 1 / g)),
        _Piece(mm / (mm - 1), None, lambda g: one / 4),
    ]


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return f"{v:.6g}"


def _regime_tag(piece: _Piece) -> str:
    lo = "(0" if piece.lo == 0 else f"[{_fmt(piece.lo)}"
    hi = "inf)" if piece.hi is None else f"{_fmt(piece.hi)})"
    return f"gamma in {lo}, {hi}"


def exponent(*, alpha, gamma, m) -> ExponentResult:
    """Sharp exponent s(alpha, gamma, m) with its theorem label, regime and
    regime index.  Raises ``DomainError`` outside the domain."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    if not gamma > 0:   # NaN fails; gamma = inf is the undamped limit
        raise DomainError("gamma must be positive")
    if not 0 < m < float("inf"):
        raise DomainError("m must be positive and finite")
    exact = _exact(alpha, gamma, m)
    g = _lift(gamma, exact)
    label, pieces = _pieces(alpha, m, exact)
    for index, piece in enumerate(pieces):
        above = g > piece.lo if piece.lo == 0 else g >= piece.lo
        below = piece.hi is None or g < piece.hi
        if above and below:
            s = piece.fn(g)
            if s < 0:   # a display can dip below 0 where the threshold is void
                s = s * 0
            return ExponentResult(s, label, _regime_tag(piece), index)
    raise RegimeError(   # unreachable: regime coverage is total
        f"no regime covers gamma={gamma} for (alpha={alpha}, m={m})")


def breakpoints(alpha, m) -> list[Breakpoint]:
    """Interior gamma regime boundaries with the adjacent piece values
    (both evaluated exactly at the boundary; equal when continuous).  A
    boundary m alpha that underflows to 0 is skipped: it bounds an empty
    first regime and is not interior to gamma > 0."""
    exact = _exact(alpha, m)
    _, pieces = _pieces(alpha, m, exact)
    out = []
    for left, right in zip(pieces[:-1], pieces[1:]):
        g = right.lo
        if g == 0:
            continue
        out.append(Breakpoint(g, left.fn(g), right.fn(g)))
    return out


def continuity_check(alpha, m) -> list[Breakpoint]:
    """Evaluate the exponent on both sides of every interior breakpoint
    (float path, relative offset 1e-9): the side values as floats, whose
    ``gap`` is the jump."""
    offset = 1e-9
    gaps = []
    for bp in breakpoints(float(alpha), float(m)):
        g = float(bp.gamma)
        lo = exponent(alpha=float(alpha), gamma=g * (1 - offset), m=float(m)).s
        hi = exponent(alpha=float(alpha), gamma=g * (1 + offset), m=float(m)).s
        gaps.append(Breakpoint(g, float(lo), float(hi)))
    return gaps


def predicted_ratio_slope(fam: CounterexampleFamily) -> float:
    """Predicted growth exponent in R of the maximal-to-L2 norm ratio of the
    counterexample family: s(alpha, gamma, m), times b for the modulated
    family (frequency scale R**b).  Raises ``RegimeError`` where the family's
    own law max(0, (1 + e)/2), for a scaling interval ~ R**e, differs: the
    family is not sharp there, so a sweep would test the construction and
    not the theorem."""
    s = float(exponent(alpha=fam.alpha, gamma=fam.gamma, m=fam.m).s)
    predicted = s if fam.kind == "dilated" else fam.b * s
    _, e = scaling_law(fam)
    law = max(0.0, 0.5 * (1.0 + e))
    if abs(predicted - law) > 1e-12:
        raise RegimeError(
            f"the {fam.kind} family at alpha={fam.alpha}, gamma={fam.gamma} "
            f"is not sharp: its scaling law gives slope {law}, the atlas "
            f"{predicted}")
    return predicted
