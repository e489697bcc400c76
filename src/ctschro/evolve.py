"""Evaluation of the damped dispersive evolution

    h_t(y) = (1/2pi) * integral exp(i (y xi + t |xi|^m)) D(t, xi) fhat(xi) dxi,

with D(t, xi) = exp(-t**gamma |xi|**m) when damping is on and 1 otherwise,
optionally sampled along a curve y = Gamma(x, t).

Two independent routes are provided:

* ``propagate_slice`` - fast synthesis of a whole y-slice.  The spectrum is
  demodulated around its carrier frequency, so the stored samples are the
  slowly varying envelope E with h_t(y) = exp(i y carrier) E(y).  The envelope
  grid satisfies the Nyquist condition for the demodulated bandwidth with a
  configurable oversampling factor, and the synthesis period exceeds the
  combined query + dispersive window by the alias safety factor, which keeps
  wrap-around images out of the evaluated range.

* ``direct_quadrature`` - slow trusted oracle: composite Gauss quadrature on
  the source grid with a per-cell rule: 12-point Gauss on sub-cells of at
  most 2 pi phase change where the phase moves fast, 4-point Gauss on
  sub-cells of at most pi/8 where it moves slowly or the cell touches
  xi = 0 (see ``_numerics.phase_counts`` for the remainder bound).  No
  transform, no periodization, no demodulation.  It takes arrays of (y, t)
  and reuses one node set across consecutive points that need the same one.

Both routes read the spectrum between its samples with the same local
polynomial order, so they converge to the same continuous integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from ._numerics import (_DEAD, lagrange_uniform, node_set, oscillatory_sum,
                        phase_counts)
from .domain import CurveSpec, EvolutionParams, SpectralFunction, curve_eval
from .errors import GridRangeError, ResolutionError

__all__ = [
    "SampledField", "PropagationPlan", "make_plan", "propagate_slice",
    "field_value", "evaluate_along_curve", "direct_quadrature",
    "slice_l2_norm", "spectral_l2_norm",
]

@dataclass(frozen=True)
class SampledField:
    """One time slice of the evolution on a uniform y-grid.

    ``values`` holds the demodulated envelope; the full amplitude at a grid
    node y is exp(i y carrier) * values.  With carrier = 0 the samples are the
    amplitudes themselves.  The grid spacing satisfies
    delta_y <= pi / (2 * max demodulated |frequency|).
    """
    y_min: float
    delta_y: float
    values: np.ndarray
    t: float
    carrier: float

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self) -> int:
        return self.values.size

    @property
    def y_max(self) -> float:
        return self.y_min + self.delta_y * (self.n_samples - 1)

    def grid(self) -> np.ndarray:
        return self.y_min + self.delta_y * np.arange(self.n_samples)


@dataclass(frozen=True)
class PropagationPlan:
    """Grid policy for transform-path evaluation of one source spectrum.

    ``y_lo``/``y_hi`` bound every curve-composed query; the dispersive range
    of each slice is added per time, so wrap-around images stay at least one
    full window width away from any query.
    """
    source: SpectralFunction
    params: EvolutionParams
    y_lo: float
    y_hi: float
    oversampling: float = 16.0
    interp_order: int = 7
    alias_safety: float = 2.0
    tail_margin: float = 8.0
    max_fft: int = 2 ** 24

    def __post_init__(self):
        if self.oversampling < 2.0:
            raise ResolutionError(
                "oversampling below 2 violates the slice Nyquist condition")
        if self.alias_safety < 2.0:
            raise ResolutionError("alias safety factor must be >= 2")
        if not self.y_lo < self.y_hi:
            raise GridRangeError("empty query window")


def make_plan(source: SpectralFunction, params: EvolutionParams,
              curve: CurveSpec | None = None, pad: float = 0.5,
              **overrides) -> PropagationPlan:
    """Plan with a query window covering [-1, 1] composed with the curve:
    [-1 - c3 - pad, 1 + c3 + pad]."""
    reach = (curve.c3 if curve is not None else 1.0) + pad
    y_lo = overrides.pop("y_lo", -1.0 - reach)
    y_hi = overrides.pop("y_hi", 1.0 + reach)
    return PropagationPlan(source, params, y_lo, y_hi, **overrides)


def _damping_cap(params: EvolutionParams, t: float) -> float:
    """|xi| above which the damping multiplier underflows to exactly 0."""
    if not params.damping or t <= 0.0:
        return math.inf
    return (_DEAD / t ** params.gamma) ** (1.0 / params.m)


def _group_shift_extent(params: EvolutionParams, t: float,
                        lo: float, hi: float, eps: float) -> tuple[float, float]:
    """Range of stationary positions -t * m * sign(xi) * |xi|**(m-1) for
    xi in [lo, hi]; for m < 1 the value at xi = 0 is approximated at the
    smallest resolved |xi| (= eps)."""
    m, t = params.m, t
    cands = [lo, hi]
    if lo < 0.0 < hi:
        cands += [-eps, eps]
    cands = [c if c != 0.0 else math.copysign(eps, c or 1.0) for c in cands]
    shifts = [-t * m * math.copysign(abs(c) ** (m - 1.0), c) for c in cands]
    if m >= 1.0 and lo < 0.0 < hi:
        shifts.append(0.0)
    return min(shifts), max(shifts)


def _zero_slice(plan: PropagationPlan, t: float) -> SampledField:
    n = 16
    dy = (plan.y_hi - plan.y_lo) / (n - 1)
    return SampledField(plan.y_lo, dy, np.zeros(n, dtype=complex), t, 0.0)


def propagate_slice(plan: PropagationPlan, t: float) -> SampledField:
    """Synthesize the slice h_t on a grid covering the plan's query window."""
    f, p = plan.source, plan.params
    xi0, dxi = f.xi_min, f.delta_xi

    lo, hi = f.support()
    cap = _damping_cap(p, t)
    lo = max(lo, -cap)
    hi = min(hi, cap)
    if hi <= lo:  # empty spectrum, or the damping killed the whole band
        return _zero_slice(plan, t)

    # stationary-shift extent of the live band fixes the window the envelope
    # can occupy at this time
    s_lo, s_hi = _group_shift_extent(p, t, lo, hi, dxi)
    z_lo = min(plan.y_lo, s_lo) - plan.tail_margin
    z_hi = max(plan.y_hi, s_hi) + plan.tail_margin
    width = z_hi - z_lo

    # refine the spectral step until the synthesis period covers the window
    # with the alias safety factor
    du_max = 2.0 * math.pi / (plan.alias_safety * width)
    q = max(1, math.ceil(dxi / du_max))
    du = dxi / q

    j0 = max(0, int(math.floor((lo - xi0) / dxi)))
    j1 = min(f.n_samples - 1, int(math.ceil((hi - xi0) / dxi)))
    if j1 - j0 < 1:
        j0, j1 = max(0, j1 - 1), min(f.n_samples - 1, j0 + 1)
    n_fine = (j1 - j0) * q + 1
    fine_xi = (xi0 + j0 * dxi) + du * np.arange(n_fine)
    if q == 1:
        fine = np.array(f.samples[j0:j1 + 1])
    else:
        fine = lagrange_uniform(f.samples, xi0, dxi, fine_xi, plan.interp_order)

    abs_pow = np.abs(fine_xi) ** p.m
    weights = np.full(n_fine, du / (2.0 * math.pi))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    coef = fine * np.exp(1j * t * abs_pow) * weights
    if p.damping:
        coef *= np.exp(-(t ** p.gamma) * abs_pow)

    carrier = 0.5 * (fine_xi[0] + fine_xi[-1])
    half_band = 0.5 * (fine_xi[-1] - fine_xi[0])
    half_band = max(half_band, du)

    period = 2.0 * math.pi / du
    dz_target = math.pi / (half_band * plan.oversampling)
    n_fft = next_fast_len(max(int(math.ceil(period / dz_target)), n_fine))
    if n_fft > plan.max_fft:
        raise ResolutionError(
            f"slice at t={t} needs an FFT of {n_fft} > max_fft={plan.max_fft}; "
            "the y-range policy cannot cover the dispersive range")
    dz = 2.0 * math.pi / (n_fft * du)
    n_z = min(n_fft, int(math.floor(width / dz)) + 2)

    u0 = fine_xi[0] - carrier
    k = np.arange(n_fine)
    spectrum = np.zeros(n_fft, dtype=complex)
    spectrum[:n_fine] = coef * np.exp(1j * z_lo * du * k)
    env = (n_fft * np.fft.ifft(spectrum))[:n_z]
    z = z_lo + dz * np.arange(n_z)
    env *= np.exp(1j * z * u0)
    return SampledField(z_lo, dz, env, t, carrier)


def field_value(field: SampledField, y, order: int = 7):
    """Interpolate the slice at positions y (scalar or array), carrier included."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if (y_arr < field.y_min - 1e-12).any() or (y_arr > field.y_max + 1e-12).any():
        raise GridRangeError(
            f"query outside the slice grid [{field.y_min}, {field.y_max}]")
    env = lagrange_uniform(field.values, field.y_min, field.delta_y, y_arr, order)
    out = env * np.exp(1j * field.carrier * y_arr)
    return out if np.ndim(y) else complex(out[0])


def evaluate_along_curve(plan: PropagationPlan, curve: CurveSpec, x, t: float,
                         path: str = "auto"):
    """Amplitude h_t(Gamma(x, t)) for one time and one or many positions.

    With ``path="auto"`` batches larger than 32 queries go through the
    transform slice (the per-slice synthesis cost is then amortized) and
    smaller ones through direct quadrature.
    """
    y = curve_eval(curve, np.asarray(x, dtype=float), t)
    y_arr = np.atleast_1d(y)
    if path == "auto":
        path = "transform" if y_arr.size > 32 else "quadrature"
    if (y_arr < plan.y_lo).any() or (y_arr > plan.y_hi).any():
        raise GridRangeError("curve query leaves the planned y-range")
    if path == "quadrature":
        return direct_quadrature(plan.source, plan.params, y, t)
    if path != "transform":
        raise ValueError(f"unknown path {path!r}")
    sl = propagate_slice(plan, t)
    vals = np.atleast_1d(field_value(sl, y_arr, plan.interp_order))
    return vals if np.ndim(y) else complex(vals[0])


def _oracle_edges(f: SpectralFunction, params: EvolutionParams,
                  support: tuple[float, float], t: float) -> np.ndarray | None:
    """Source-grid cell edges of the live band at time t, clipped to the
    support and the damping cap; None when nothing is left to integrate."""
    cap = _damping_cap(params, t)
    lo = max(support[0], -cap)
    hi = min(support[1], cap)
    if hi <= lo:  # empty spectrum, or the damping killed the whole band
        return None
    dxi, xi0 = f.delta_xi, f.xi_min
    j0 = max(0, int(math.floor((lo - xi0) / dxi)))
    j1 = min(f.n_samples - 1, int(math.ceil((hi - xi0) / dxi)))
    edges = xi0 + dxi * np.arange(j0, j1 + 1)
    edges = np.clip(edges, lo, hi)
    return edges if edges.size >= 2 else None


def direct_quadrature(f: SpectralFunction, params: EvolutionParams, y, t):
    """Trusted slow evaluation of h_t(y) by refined composite quadrature on
    the source grid: per grid cell, 12-point Gauss on sub-cells of at most
    2 pi phase and damping-exponent change, or 4-point Gauss on sub-cells of
    at most pi/8 where the cell changes by at most pi/8 or touches xi = 0.

    ``y`` and ``t`` are scalars or arrays that broadcast together; a scalar
    pair gives a Python complex, arrays give a complex array of their
    broadcast shape.  The points are evaluated in order, and a point whose
    clipped edges, sub-cell counts and Gauss orders equal those of the point
    before reuses its nodes, weights and interpolated spectrum, so a run of
    such points interpolates the spectrum once.  Each value is bit-identical
    to a one-point call.  Raises ``ResolutionError`` when one point needs
    more than ``_numerics._MAX_NODES`` nodes.
    """
    y_arr, t_arr = np.broadcast_arrays(np.asarray(y, dtype=float),
                                       np.asarray(t, dtype=float))
    out = np.zeros(y_arr.shape, dtype=complex)
    flat = out.reshape(-1)
    support = f.support()
    dxi, xi0 = f.delta_xi, f.xi_min

    def amp(xi):
        return lagrange_uniform(f.samples, xi0, dxi, xi, order=7)

    key, nodes = None, None
    for i, (yy, tt) in enumerate(zip(y_arr.ravel().tolist(),
                                     t_arr.ravel().tolist())):
        edges = _oracle_edges(f, params, support, tt)
        if edges is None:
            continue
        damp = tt ** params.gamma if params.damping else 0.0
        counts, orders = phase_counts(edges, yy, tt, damp, params.m)
        rule = (edges, counts, orders)
        if key is None or not all(map(np.array_equal, rule, key)):
            nodes = None   # release the old set before building the next
            nodes = node_set(*rule, amp, params.m)
            key = rule
        total = oscillatory_sum(*nodes, yy, tt, damp)
        flat[i] = total / (2.0 * math.pi)
    return complex(out) if out.ndim == 0 else out


def slice_l2_norm(field: SampledField) -> float:
    """L2 norm of the slice over its grid (carrier drops out of the modulus)."""
    return float(np.sqrt(np.trapezoid(np.abs(field.values) ** 2,
                                      dx=field.delta_y)))


def spectral_l2_norm(f: SpectralFunction, params: EvolutionParams,
                     t: float) -> float:
    """((1/2pi) * integral |D(t, xi)|^2 |fhat|^2 dxi)^(1/2): the exact L2 norm
    of the slice by the Plancherel identity."""
    xi = f.grid()
    dens = np.abs(f.samples) ** 2
    if params.damping and t > 0:
        expo = 2.0 * t ** params.gamma * np.abs(xi) ** params.m
        dens = dens * np.exp(-np.minimum(expo, 2 * _DEAD))
    return float(np.sqrt(np.trapezoid(dens, dx=f.delta_xi) / (2 * math.pi)))
