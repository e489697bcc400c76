"""Maximal fields sup over t in [0,1] of the evolved amplitude along a curve,
their L2 norms, the counterexample families' ratio of the maximal-field L2
norm on the scaling interval to the source L2 norm, and log-log slope
fitting.

The time grid is geometric (all critical times in the constructions scale like
negative powers of the frequency level), augmented per x-node with the
analytic witness times so the certified suprema are always sampled.  With the
damping on, a maximal field stops walking the grid once an a-priori bound on
all later slices (``evolve.slice_bound``) falls below every node's maximum,
which leaves every value and ``argmax_t`` as they would be without the stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._numerics import lagrange_uniform
from .domain import (
    CounterexampleFamily,
    CurveSpec,
    EvolutionParams,
    SpectralFunction,
    build_counterexample,
    curve_eval,
    holder_curve,
    scaling_interval,
    sobolev_norm,
    witness_interval,
    witness_time,
)
from .errors import (
    CalibrationError,
    DegenerateSeriesError,
    DomainError,
    ZeroNormError,
)
from .evolve import (
    _GridInHand,
    direct_quadrature,
    make_plan,
    propagate_slice,
    slice_bound,
    slice_grid,
)

__all__ = [
    "TimeGrid", "build_time_grid", "default_time_exponent",
    "MaximalField", "maximal_field", "l2_norm_field",
    "witness_x_grid",
    "RatioResult", "maximal_ratio", "check_ratio_resolution",
    "ExponentFit", "fit_slope", "fit_slope_guarded",
    "witness_minimum", "calibrate_smallness",
    "LOWER_BOUND_LEVEL",
]

LOWER_BOUND_LEVEL = 1.0 / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """{0} plus geometric nodes up to 1, with optional per-x analytic witness
    times (NaN marks nodes without one)."""
    times: np.ndarray
    extra_times: np.ndarray | None = None

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if times[0] != 0.0 or not np.all(np.diff(times) > 0):
            raise DomainError("time grid must start at 0 and increase strictly")
        if times[-1] > 1.0:
            raise DomainError("time grid must stay in [0, 1]")


def default_time_exponent(lam: float) -> int:
    """Default starting exponent: critical times scale like lam**-2."""
    return math.ceil(math.log2(lam ** -2.0)) - 4


def build_time_grid(t_min_exponent: int, ratio: float = 2.0 ** 0.125,
                    fam: CounterexampleFamily | None = None,
                    x_nodes: np.ndarray | None = None) -> TimeGrid:
    """Geometric grid {0} + {2**(t_min_exponent + j/k)} up to 1 for a ratio
    2**(1/k), k = 1, 2, ...: exact exponents, so refined grids nest bitwise.

    When a family and its x-nodes are given, each node inside the witness
    interval contributes its analytic witness time as an extra per-x node,
    all of them from one ``witness_time`` call.
    """
    if t_min_exponent > -2:
        raise DomainError("t_min_exponent must be <= -2")
    inv = 1.0 / math.log2(ratio) if ratio > 1.0 else 0.0
    k = round(inv)
    if k < 1 or abs(inv - k) >= 1e-9:
        raise DomainError(f"ratio must be 2**(1/k), k = 1, 2, ...: {ratio}")
    exps = t_min_exponent + np.arange(-t_min_exponent * k + 1) / k
    times = np.concatenate([[0.0], 2.0 ** exps])

    extra = None
    if fam is not None and x_nodes is not None:
        lo, hi = witness_interval(fam)
        x_nodes = np.asarray(x_nodes, dtype=float)
        inside = (x_nodes > lo) & (x_nodes < hi)
        extra = np.full(x_nodes.size, np.nan)
        extra[inside] = witness_time(fam, x_nodes[inside])
    return TimeGrid(times, extra)


# ---------------------------------------------------------------------------
# maximal fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalField:
    """max over sampled times of the evolved amplitude modulus, per x-node;
    ``slices`` counts the transform slices synthesized for it."""
    x: np.ndarray
    values: np.ndarray
    argmax_t: np.ndarray
    slices: int = 0

    def __post_init__(self):
        for name in ("x", "values", "argmax_t"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def witness_x_grid(fam: CounterexampleFamily, n_inside: int = 256) -> np.ndarray:
    """Interior nodes of the witness interval plus the scaling subinterval."""
    return _sorted_set(np.concatenate([
        np.linspace(lo, hi, n_inside + 2)[1:-1]
        for lo, hi in (witness_interval(fam), scaling_interval(fam))]))


def _sorted_set(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` of a NaN-free ``a``, without its numpy.ma import."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def maximal_field(f: SpectralFunction, params: EvolutionParams,
                  curve: CurveSpec, x_nodes: np.ndarray,
                  tgrid: TimeGrid) -> MaximalField:
    """Pointwise max over the grid times (plus per-x extra times) of the
    amplitude modulus along the curve, for x-nodes in [-1, 1] (others raise
    ``DomainError`` before any work).

    The per-x extra times go first, through one batched direct-quadrature
    call: at the witness times of the counterexample families that is one
    run of points, two rule passes and one node set.  Their values are kept
    apart from the slice maxima.  Then the grid times are walked in
    increasing order.  Per time every x-node is read off one transform
    slice, synthesized on the query window [y_lo, y_hi] of ``make_plan``
    alone, which holds the curve over [-1, 1]: no read extrapolates.
    Consecutive times whose slices have the same grid (``slice_grid``; the
    small times, before the dispersive range leaves the window, all do)
    share that grid's synthesis: the call holds the last grid's factors and
    hands them to ``propagate_slice``, one call per time, so a run of equal
    grids builds them once.  Nothing is held past the call, and each slice
    equals a fresh one bit for bit.

    Before the slice at t the loop stops when ``slice_bound(plan)(t)``, an
    a-priori bound on every slice from t on that does not increase with t
    (+inf with the damping off), lies below every node's max(slice
    maximum, extra-time value): no later slice could then change the
    field.  Last, an extra-time value replaces a node's slice maximum only
    where it is larger, so values and ``argmax_t`` are those of a loop over
    every grid time, bit for bit; ``slices`` counts the slices synthesized.
    The bound reads the source alone, never the oracle.  Slices after the
    stop are never synthesized, so a ``ResolutionError`` that one of them
    would raise is not raised (``check_ratio_resolution`` checks every grid
    time).
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    if not np.all(np.abs(x_nodes) <= 1.0):
        raise DomainError("x_nodes must lie in [-1, 1]")
    if tgrid.extra_times is not None and tgrid.extra_times.size != x_nodes.size:
        raise DomainError("extra_times must align with x_nodes")
    plan = make_plan(f, params, curve)

    # the oracle values at the per-x extra times come first, kept apart from
    # the slice maxima: with them in hand the time loop can stop early
    oracle = np.zeros(x_nodes.size)
    if tgrid.extra_times is not None:
        has = np.isfinite(tgrid.extra_times)
        oracle[has] = _oracle_moduli(f, params, curve, x_nodes[has],
                                     tgrid.extra_times[has])

    best = np.zeros(x_nodes.size)
    arg = np.zeros(x_nodes.size)
    bound = slice_bound(plan)

    held = _GridInHand()   # the grid of the slice before, for this call only
    slices = 0
    for t in tgrid.times.tolist():
        # no slice from t on can raise a maximum that every node already has
        if x_nodes.size and bound(t) < np.maximum(best, oracle).min():
            break
        sl = propagate_slice(plan, t, (plan.y_lo, plan.y_hi), _held=held)
        slices += 1
        # modulus of the envelope: the carrier is a unimodular factor
        vals = np.abs(lagrange_uniform(sl.values, sl.y_min, sl.delta_y,
                                       curve_eval(curve, x_nodes, t)))
        upd = vals > best
        best[upd] = vals[upd]
        arg[upd] = t

    # an oracle value replaces the slice maximum only where it is larger
    take = oracle > best
    if take.any():
        best[take] = oracle[take]
        arg[take] = tgrid.extra_times[take]

    return MaximalField(x_nodes, best, arg, slices)


def _oracle_moduli(f: SpectralFunction, params: EvolutionParams,
                   curve: CurveSpec, xs: np.ndarray,
                   ts: np.ndarray) -> np.ndarray:
    """|u(Gamma(x, t), t)| per pair of ``xs`` and ``ts``, through one batched
    direct-quadrature call at the points y on the curve."""
    xs, ts = xs.tolist(), ts.tolist()
    ys = [float(curve_eval(curve, x, t)) for x, t in zip(xs, ts)]
    # Python abs of each complex value: np.abs rounds differently in the
    # last place for about a third of the values
    return np.array([abs(v) for v in
                     direct_quadrature(f, params, ys, ts).tolist()],
                    dtype=float)


def l2_norm_field(field: MaximalField, interval: tuple[float, float]) -> float:
    """Composite trapezoid of field**2 over the nodes inside ``interval``."""
    a, b = interval
    if a < -1.0 or b > 1.0 or a >= b:
        raise DomainError("interval must be a nonempty subset of [-1, 1]")
    sel = (field.x >= a) & (field.x <= b)
    if sel.sum() < 2:
        raise DomainError("interval contains fewer than 2 field nodes")
    return float(np.sqrt(np.trapezoid(field.values[sel] ** 2, field.x[sel])))


# ---------------------------------------------------------------------------
# scale-to-norm ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioResult:
    q: float
    norm_maxfield: float
    norm_f_l2: float
    R: float
    lam: float
    slices: int = 0     # transform slices of the maximal field


def _family_setup(fam: CounterexampleFamily, n_samples: int):
    """(source on ``n_samples`` samples, params, curve) of a family: its m,
    damping with its gamma, along the Hölder curve of its alpha."""
    f = build_counterexample(fam, n_samples)
    if not np.any(f.samples):
        raise ZeroNormError("source spectrum is identically zero")
    return (f, EvolutionParams(m=fam.m, gamma=fam.gamma, damping=True),
            holder_curve(fam.alpha))


def maximal_ratio(fam: CounterexampleFamily,
                  n_samples: int = 2048) -> RatioResult:
    """Ratio Q of the maximal-field L2 norm on the scaling interval
    (``scaling_interval``, the pure-power subinterval of the witness
    interval) to the source L2 norm, for the family's source evolved with
    the family's m and gamma along the Hölder curve of its alpha, on the
    default time grid with witness times.  Its growth in R is the quantity
    ``atlas.predicted_ratio_slope`` predicts.

    The x-nodes are 256 uniform nodes of the scaling interval and the
    ``witness_x_grid`` nodes inside it: the trapezoid reads no other node,
    and a node's value does not depend on the others, so no node outside
    is computed.
    """
    f, params, curve = _family_setup(fam, n_samples)
    lo, hi = scaling_interval(fam)
    xs = _sorted_set(np.concatenate([np.linspace(lo, hi, 256),
                                     witness_x_grid(fam)]))
    xs = xs[(xs >= lo) & (xs <= hi)]

    tgrid = build_time_grid(default_time_exponent(fam.lam),
                            fam=fam, x_nodes=xs)
    field = maximal_field(f, params, curve, xs, tgrid)
    norm_max = l2_norm_field(field, (lo, hi))
    norm_l2 = sobolev_norm(f, 0.0)
    if norm_l2 == 0.0:
        raise ZeroNormError("source L2 norm vanished")
    return RatioResult(norm_max / norm_l2, norm_max, norm_l2,
                       fam.R, fam.lam, field.slices)


def check_ratio_resolution(fam: CounterexampleFamily,
                           n_samples: int = 2048) -> None:
    """Raise ``ResolutionError``, naming the time t, when a slice of
    ``maximal_ratio(fam, n_samples=n_samples)`` could need more than
    ``evolve._MAX_FFT`` nodes in one period.

    Arithmetic only: it builds the source and the time grid and runs
    ``evolve.slice_grid`` at every grid time on the window ``maximal_field``
    asks for, in the same order, but synthesizes no slice; so a sweep checks
    every scale in well under a second before the first slice of the first.
    It is conservative: ``maximal_field`` may stop its time loop early (see
    there), and then asks for a prefix of these grids only.  The oracle's
    node budget (``_numerics._MAX_NODES``) at the per-x witness times is not
    covered: it is decided per witness point by the oracle's own phase
    counts over every source cell, not by the slice grid, and a point past
    it still raises from ``maximal_ratio`` at its scale.
    """
    f, params, curve = _family_setup(fam, n_samples)
    plan = make_plan(f, params, curve)
    for t in build_time_grid(default_time_exponent(fam.lam)).times.tolist():
        slice_grid(plan, t, (plan.y_lo, plan.y_hi))


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Least-squares line through (log scale, log value)."""
    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    max_residual: float
    dropped_scales: tuple[float, ...] = ()


def fit_slope(scales, values) -> ExponentFit:
    """Fit log(value) = slope * log(scale) + intercept.

    Requires at least 4 points, strictly increasing scales and positive
    values; the largest absolute residual is always reported.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.size < 4:
        raise DegenerateSeriesError("need at least 4 points for a slope fit")
    if not np.all(np.diff(scales) > 0):
        raise DegenerateSeriesError("scales must increase strictly")
    if np.any(values <= 0) or np.any(scales <= 0):
        raise DegenerateSeriesError("scales and values must be positive")
    lx, ly = np.log(scales), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.abs(ly - (slope * lx + intercept))
    pts = tuple((float(a), float(b)) for a, b in zip(lx, ly))
    return ExponentFit(pts, float(slope), float(intercept), float(resid.max()))


def fit_slope_guarded(scales, values) -> ExponentFit:
    """fit_slope with a transient guard: the smallest scale is dropped when
    its residual exceeds 3x the median of the rest (and >= 4 points remain).

    Residuals are measured against the line fitted without the smallest
    scale: a full-fit pattern cannot exceed the 3x threshold for a single
    corrupted point (the leverage of the end point caps the ratio at 2).
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    fit = fit_slope(scales, values)
    if scales.size < 5:
        return fit
    sub = fit_slope(scales[1:], values[1:])
    lx, ly = np.log(scales), np.log(values)
    resid = np.abs(ly - (sub.slope * lx + sub.intercept))
    rest = sorted(resid[1:].tolist())
    median = (rest[(len(rest) - 1) // 2] + rest[len(rest) // 2]) / 2
    if resid[0] > max(3.0 * median, 1e-9):
        return ExponentFit(sub.points, sub.slope, sub.intercept,
                           sub.max_residual, (float(scales[0]),))
    return fit


# ---------------------------------------------------------------------------
# lower-bound scans and smallness calibration
# ---------------------------------------------------------------------------

def witness_minimum(fam: CounterexampleFamily, n_nodes: int = 256,
                    t_zero: bool = False):
    """Minimum over interior witness-interval nodes of the amplitude modulus
    at the witness times, for the family's source on 2048 samples evolved
    with the family's m and gamma along the Hölder curve of its alpha.

    With ``t_zero`` the scan instead evaluates at t = 0 on (0, c/R), the
    regime where no time motion is needed at all.  All nodes go through one
    batched direct-quadrature call.

    Returns (min value, x nodes, values, times used).
    """
    f, params, curve = _family_setup(fam, 2048)
    if t_zero:
        hi = fam.c / fam.R
        xs = np.linspace(0.0, hi, n_nodes + 2)[1:-1]
        ts = np.zeros_like(xs)
    else:
        lo, hi = witness_interval(fam)
        xs = np.linspace(lo, hi, n_nodes + 2)[1:-1]
        ts = witness_time(fam, xs)

    vals = _oracle_moduli(f, params, curve, xs, ts)
    return float(vals.min()), xs, vals, ts


def calibrate_smallness(fam: CounterexampleFamily, n_nodes: int = 256,
                        level: float = LOWER_BOUND_LEVEL,
                        c_floor: float = 2.0 ** -20):
    """Halve the smallness constant until the witness scan clears ``level``.

    Returns (calibrated family, history of (c, min value)).  Raises
    ``CalibrationError`` when c underflows below ``c_floor``.
    """
    history = []
    current = fam
    while True:
        m, *_ = witness_minimum(current, n_nodes)
        history.append((current.c, m))
        if m >= level:
            return current, history
        if current.c / 2.0 < c_floor:
            raise CalibrationError(
                f"smallness constant underflowed below {c_floor} without "
                f"certifying the level {level}")
        current = replace(current, c=current.c / 2.0)
