"""Maximal fields sup over t in [0,1] of the evolved amplitude along a curve,
their L2 norms, scale-to-norm ratios for the counterexample families, and
log-log slope fitting.

The time grid is geometric (all critical times in the constructions scale like
negative powers of the frequency level), augmented per x-node with the
analytic witness times so the certified suprema are always sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import _STENCIL, lagrange_uniform
from .domain import (
    CounterexampleFamily,
    CurveSpec,
    EvolutionParams,
    SpectralFunction,
    amplitude_bound,
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
    PropagationPlan,
    direct_quadrature,
    make_plan,
    propagate_slice,
)

__all__ = [
    "TimeGrid", "build_time_grid", "default_time_exponent",
    "MaximalField", "maximal_field", "l2_norm_field",
    "default_x_grid", "witness_x_grid",
    "RatioResult", "maximal_ratio",
    "ExponentFit", "fit_slope", "fit_slope_guarded",
    "witness_minimum", "calibrate_smallness",
    "LOWER_BOUND_LEVEL",
]

LOWER_BOUND_LEVEL = 1.0 / (4.0 * math.pi)

# slice contributions below this fraction of the a-priori amplitude bound are
# treated as zero when updating the running maximum; every acceptance
# tolerance sits at least six orders of magnitude above it
_TAIL_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """{0} plus geometric nodes from 2**t_min_exponent up to 1, with optional
    per-x analytic witness times (NaN marks nodes without one)."""
    times: np.ndarray
    t_min_exponent: int
    ratio: float
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
    """Geometric grid {0} + {2**(t_min_exponent + j*log2(ratio))} capped at 1.

    When a family and its x-nodes are given, each node inside the witness
    interval contributes its analytic witness time as an extra per-x node.
    """
    if t_min_exponent > -2:
        raise DomainError("t_min_exponent must be <= -2")
    if ratio <= 1.0:
        raise DomainError("ratio must exceed 1")
    log2r = math.log2(ratio)
    inv = 1.0 / log2r
    if abs(inv - round(inv)) < 1e-9 and round(inv) >= 1:
        # ratio = 2**(1/k): exact exponents, so refined grids nest bitwise
        k = int(round(inv))
        exps = t_min_exponent + np.arange(-t_min_exponent * k + 1) / k
    else:
        n_steps = int(math.floor(-t_min_exponent / log2r + 1e-9))
        exps = t_min_exponent + log2r * np.arange(n_steps + 1)
        exps = np.append(exps[exps < 0.0], 0.0)
    times = np.unique(np.concatenate([[0.0], 2.0 ** exps]))

    extra = None
    if fam is not None and x_nodes is not None:
        lo, hi = witness_interval(fam)
        x_nodes = np.asarray(x_nodes, dtype=float)
        extra = np.full(x_nodes.size, np.nan)
        for i, x in enumerate(x_nodes):
            if lo < x < hi:
                extra[i] = witness_time(fam, float(x))
    return TimeGrid(times, t_min_exponent, ratio, extra)


# ---------------------------------------------------------------------------
# maximal fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalField:
    """max over sampled times of the evolved amplitude modulus, per x-node."""
    x: np.ndarray
    values: np.ndarray
    argmax_t: np.ndarray

    def __post_init__(self):
        for name in ("x", "values", "argmax_t"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def default_x_grid(f: SpectralFunction) -> np.ndarray:
    """Uniform grid on [-1, 1] of at least 513 nodes, and at least 8 per
    1/lam wavelength."""
    n = max(513, int(math.ceil(8.0 * f.max_abs_xi())) + 1)
    return np.linspace(-1.0, 1.0, n)


def witness_x_grid(fam: CounterexampleFamily, n_inside: int = 256) -> np.ndarray:
    """Interior nodes of the witness interval plus the scaling subinterval."""
    pieces = []
    for lo, hi in (witness_interval(fam), scaling_interval(fam)):
        pieces.append(np.linspace(lo, hi, n_inside + 2)[1:-1])
    return np.unique(np.concatenate(pieces))


def _live_window(sl, plan: PropagationPlan, floor: float):
    """y-range inside the query window where the slice envelope exceeds the
    tail floor, padded for the interpolation stencil."""
    amps = np.abs(sl.values)
    i0 = max(0, int(math.ceil((plan.y_lo - sl.y_min) / sl.delta_y)) - 1)
    i1 = min(sl.n_samples, int(math.floor((plan.y_hi - sl.y_min) / sl.delta_y)) + 2)
    window = amps[i0:i1]
    if window.size == 0 or window.max() <= floor:
        return None
    live = np.nonzero(amps > floor)[0]
    a = sl.y_min + sl.delta_y * max(0, live[0] - _STENCIL)
    b = sl.y_min + sl.delta_y * min(sl.n_samples - 1, live[-1] + _STENCIL)
    return a, b


def maximal_field(f: SpectralFunction, params: EvolutionParams,
                  curve: CurveSpec, x_nodes: np.ndarray,
                  tgrid: TimeGrid) -> MaximalField:
    """Pointwise max over the grid times (plus per-x extra times) of the
    amplitude modulus along the curve.

    Per shared time the whole x-batch is read off one transform slice,
    synthesized on the query window [y_lo, y_hi] of ``make_plan`` alone; the
    per-x extra times go through one batched direct-quadrature call, which
    interpolates the spectrum once for every run of points sharing a node
    set (at the witness times of the counterexample families that is one
    set for the whole call).  Values below 1e-14 of the a-priori amplitude
    bound are treated as zero.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    plan = make_plan(f, params, curve)
    if tgrid.extra_times is not None and tgrid.extra_times.size != x_nodes.size:
        raise DomainError("extra_times must align with x_nodes")

    best = np.zeros(x_nodes.size)
    arg = np.zeros(x_nodes.size)
    floor = _TAIL_FLOOR * amplitude_bound(f)

    for t in tgrid.times:
        sl = propagate_slice(plan, float(t), (plan.y_lo, plan.y_hi))
        win = _live_window(sl, plan, floor)
        if win is None:
            continue
        y = curve_eval(curve, x_nodes, float(t))
        mask = (y >= win[0]) & (y <= win[1])
        if not mask.any():
            continue
        # modulus of the envelope: the carrier is a unimodular factor
        env = lagrange_uniform(sl.values, sl.y_min, sl.delta_y, y[mask])
        vals = np.abs(env)
        idx = np.nonzero(mask)[0]
        upd = vals > best[idx]
        best[idx[upd]] = vals[upd]
        arg[idx[upd]] = t

    if tgrid.extra_times is not None:
        idx = np.nonzero(np.isfinite(tgrid.extra_times))[0]
        ts = tgrid.extra_times[idx].tolist()
        ys = [float(curve_eval(curve, float(x_nodes[i]), t_x))
              for i, t_x in zip(idx, ts)]
        vals = direct_quadrature(f, params, ys, ts).tolist()
        for i, t_x, v in zip(idx, ts, vals):
            val = abs(v)
            if val > best[i]:
                best[i] = val
                arg[i] = t_x

    return MaximalField(x_nodes, best, arg)


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
    norm_f_hs: float
    R: float
    lam: float
    s_order: float
    interval: tuple[float, float]


def _family_setup(fam: CounterexampleFamily, n_samples: int):
    """(source on ``n_samples`` samples, params, curve) of a family: m = 2,
    damping with the family's gamma, along the Hölder curve of its alpha."""
    f = build_counterexample(fam, n_samples)
    if not np.any(f.samples):
        raise ZeroNormError("source spectrum is identically zero")
    return (f, EvolutionParams(m=2.0, gamma=fam.gamma, damping=True),
            holder_curve(fam.alpha))


def maximal_ratio(fam: CounterexampleFamily, s: float = 0.0,
                  interval: str | tuple[float, float] = "scaling",
                  n_samples: int = 2048) -> RatioResult:
    """Ratio of the maximal-field L2 norm to the source Sobolev norm, for
    the family's source evolved with m = 2 and the family's gamma along the
    Hölder curve of its alpha, on the default time grid with witness times.

    ``interval`` selects where the maximal field is integrated:

    * "scaling"  - pure-power subinterval of the witness interval (default;
                   this is the quantity whose growth exponent the sharp
                   theorems predict),
    * "witness"  - the full witness interval,
    * "full"     - all of [-1, 1] (baseline-dominated at desk scales),
    * or an explicit (a, b).
    """
    f, params, curve = _family_setup(fam, n_samples)
    if interval == "scaling":
        bounds = scaling_interval(fam)
    elif interval == "witness":
        bounds = witness_interval(fam)
    elif interval == "full":
        bounds = (-1.0, 1.0)
    else:
        bounds = (float(interval[0]), float(interval[1]))

    if interval == "full":
        xs = np.unique(np.concatenate([default_x_grid(f),
                                       witness_x_grid(fam)]))
    else:
        xs = np.unique(np.concatenate(
            [np.linspace(bounds[0], bounds[1], 256), witness_x_grid(fam)]))
        xs = xs[(xs >= -1.0) & (xs <= 1.0)]

    tgrid = build_time_grid(default_time_exponent(fam.lam),
                            fam=fam, x_nodes=xs)
    field = maximal_field(f, params, curve, xs, tgrid)
    norm_max = l2_norm_field(field, bounds)
    norm_l2 = sobolev_norm(f, 0.0)
    norm_hs = sobolev_norm(f, s)
    if norm_hs == 0.0:
        raise ZeroNormError("Sobolev normalization norm vanished")
    return RatioResult(norm_max / norm_hs, norm_max, norm_l2, norm_hs,
                       fam.R, fam.lam, s, bounds)


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
    its residual exceeds 3x the median residual (and >= 4 points remain).

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
    if resid[0] > max(3.0 * np.median(resid[1:]), 1e-9):
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
    with m = 2 and the family's gamma along the Hölder curve of its alpha.

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
        ts = np.array([witness_time(fam, float(x)) for x in xs])

    ys = [float(curve_eval(curve, float(x), float(t))) for x, t in zip(xs, ts)]
    amps = direct_quadrature(f, params, ys, ts).tolist()
    # Python abs of each complex value: np.abs rounds differently in the
    # last place for about a third of the values
    vals = np.array([abs(v) for v in amps])
    return float(vals.min()), xs, vals, ts


def calibrate_smallness(fam: CounterexampleFamily, n_nodes: int = 256,
                        level: float = LOWER_BOUND_LEVEL,
                        c_floor: float = 2.0 ** -20):
    """Halve the smallness constant until the witness scan clears ``level``.

    Returns (calibrated family, history of (c, min value)).  Raises
    ``CalibrationError`` when c underflows below ``c_floor``.
    """
    from dataclasses import replace

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
