"""Evaluation of the damped dispersive evolution

    h_t(y) = (1/2pi) * integral exp(i (y xi + t |xi|^m)) D(t, xi) fhat(xi) dxi,

with D(t, xi) = exp(-t**gamma |xi|**m) when damping is on and 1 otherwise,
optionally sampled along a curve y = Gamma(x, t).

Two independent routes are provided:

* ``propagate_slice`` - fast synthesis of a y-slice: a trapezoid sum over
  the spectrum refined to a step du, read as a discrete Fourier transform.
  The spectrum is demodulated around its carrier frequency, so the stored
  samples are the slowly varying envelope E with h_t(y) = exp(i y carrier)
  E(y).  The grid policy is fixed: the envelope grid is 16 times finer than
  the Nyquist step of the demodulated band, and the synthesis period is
  twice the query + dispersive window (plus a margin of 8 on each side),
  which keeps wrap-around images out of the evaluated range.  A chirp-z
  transform computes any run of that grid's nodes alone, so a caller that
  reads one y-span asks for that span and pays three FFTs of about
  (spectral samples + span nodes) points instead of one FFT of a whole
  period.

* ``direct_quadrature`` - slow trusted oracle: composite Gauss quadrature on
  the source grid with a per-cell rule: 12-point Gauss on sub-cells of at
  most 2 pi phase change where the phase moves fast, 4-point Gauss on
  sub-cells of at most pi/8 where it moves slowly or the cell touches
  xi = 0 (see ``_numerics.phase_counts`` for the remainder bound).  No
  transform, no periodization, no demodulation.  It takes arrays of (y, t)
  and reuses one node set across consecutive points that need the same one.

Both routes read the spectrum between its samples with the one local
polynomial order of ``lagrange_uniform``, so they converge to the same
continuous integral.  They share nothing else: the transform route sums the
refined spectrum on a uniform grid and transforms it, whatever nodes it
keeps, and the oracle integrates cell by cell in y-space with no transform,
periodization or demodulation; so their agreement checks each against the
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from ._numerics import (_DEAD, _STENCIL, lagrange_uniform, node_set,
                        oscillatory_sum, phase_counts)
from .domain import CurveSpec, EvolutionParams, SpectralFunction, curve_eval
from .errors import GridRangeError, ResolutionError

__all__ = [
    "SampledField", "PropagationPlan", "make_plan", "propagate_slice",
    "field_value", "evaluate_along_curve", "direct_quadrature",
    "slice_l2_norm", "spectral_l2_norm",
]

# the transform route's grid policy: envelope step = Nyquist step of the
# demodulated band / _OVERSAMPLING; synthesis period = _ALIAS_SAFETY x the
# query + dispersive window widened by _TAIL_MARGIN on each side; at most
# _MAX_FFT nodes per period (256 MB of complex values)
_OVERSAMPLING = 16.0
_ALIAS_SAFETY = 2.0
_TAIL_MARGIN = 8.0
_MAX_FFT = 2 ** 24

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
    """Transform-path evaluation of one source spectrum under given params.

    ``y_lo``/``y_hi`` bound every curve-composed query; the dispersive range
    of each slice is added per time, so wrap-around images stay at least one
    full window width away from any query.  Everything else about the grid
    is the module's fixed policy (``_OVERSAMPLING``, ``_ALIAS_SAFETY``,
    ``_TAIL_MARGIN``, ``_MAX_FFT``).
    """
    source: SpectralFunction
    params: EvolutionParams
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not self.y_lo < self.y_hi:
            raise GridRangeError("empty query window")


def make_plan(source: SpectralFunction, params: EvolutionParams,
              curve: CurveSpec | None = None) -> PropagationPlan:
    """Plan with a query window covering [-1, 1] composed with the curve,
    plus 1/2: [-1.5 - c3, 1.5 + c3], with c3 = 1 when no curve is given."""
    reach = (curve.c3 if curve is not None else 1.0) + 0.5
    return PropagationPlan(source, params, -1.0 - reach, 1.0 + reach)


def _damping_cap(params: EvolutionParams, t: float) -> float:
    """|xi| above which the damping multiplier underflows to exactly 0."""
    if not params.damping or t <= 0.0:
        return math.inf
    rate = t ** params.gamma
    if rate == 0.0:         # t**gamma underflows: nothing is damped away
        return math.inf
    try:
        return (_DEAD / rate) ** (1.0 / params.m)
    except OverflowError:   # the cap lies beyond every double
        return math.inf


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


def _chirp(j: np.ndarray, n: int) -> np.ndarray:
    """exp(i pi j**2 / n) for integer j, with j**2 reduced mod 2n in int64
    first.  A float phase pi j**2 / n would carry an error of about 1e-16
    of itself: 5e-10 rad at j = n = 1.5e6."""
    return np.exp(1j * (math.pi / n) * ((j * j) % (2 * n)))


def _chirp_z(a: np.ndarray, n: int, n0: int, n1: int) -> np.ndarray:
    """sum_k a[k] exp(2 pi i k j / n) for the outputs j = n0 .. n1-1.

    Bluestein's identity 2 k j = k**2 + j**2 - (j - k)**2 turns the sum into
    a linear convolution of a[k] w(k) with conj(w) over j - k, w(j) =
    exp(i pi j**2 / n); three FFTs of length >= len(a) + n1 - n0 - 1 do it
    (Rabiner, Schafer & Rader, "The chirp z-transform algorithm", 1969).
    """
    k_len, m_len = a.size, n1 - n0
    size = next_fast_len(k_len + m_len - 1)
    spec = fft(a * _chirp(np.arange(k_len, dtype=np.int64), n), size)
    lag = np.arange(n0 - k_len + 1, n1, dtype=np.int64)
    spec *= fft(np.conj(_chirp(lag, n)), size)
    conv = ifft(spec, overwrite_x=True)[k_len - 1:k_len - 1 + m_len]
    return conv * _chirp(np.arange(n0, n1, dtype=np.int64), n)


def propagate_slice(plan: PropagationPlan, t: float,
                    span: tuple[float, float] | None = None) -> SampledField:
    """Synthesize the slice h_t on the grid nodes z_lo + n dz of its
    synthesis window.

    With ``span=None`` the slice covers the whole window, which holds the
    plan's query window and the dispersive range at time t.  With
    ``span=(lo, hi)`` it holds only the nodes covering [lo, hi], padded by
    ``_numerics._STENCIL`` nodes on each side for the interpolation stencil
    and clipped to the window.  Grid, step, demodulation and alias safety
    do not depend on the span: the nodes are those of the full slice,
    computed alone by a chirp-z transform (see ``_chirp_z``), and agree
    with them to rounding.  The span changes only which nodes are computed,
    never how, so the route stays independent of the oracle.

    Raises ``GridRangeError`` when the span is empty or misses the window,
    and ``ResolutionError`` when one period of the full grid would have more
    than ``_MAX_FFT`` nodes, whatever the span, before any array is
    built.
    """
    f, p = plan.source, plan.params
    xi0, dxi = f.xi_min, f.delta_xi
    if span is not None and not span[0] <= span[1]:
        raise GridRangeError(f"empty slice span {span}")

    lo, hi = f.support()
    cap = _damping_cap(p, t)
    lo = max(lo, -cap)
    hi = min(hi, cap)
    if hi <= lo:  # empty spectrum, or the damping killed the whole band
        return _zero_slice(plan, t)

    # stationary-shift extent of the live band fixes the window the envelope
    # can occupy at this time
    s_lo, s_hi = _group_shift_extent(p, t, lo, hi, dxi)
    z_lo = min(plan.y_lo, s_lo) - _TAIL_MARGIN
    z_hi = max(plan.y_hi, s_hi) + _TAIL_MARGIN
    width = z_hi - z_lo

    # refine the spectral step until the synthesis period covers the window
    # with the alias safety factor
    du_max = 2.0 * math.pi / (_ALIAS_SAFETY * width)
    q = max(1, math.ceil(dxi / du_max))
    du = dxi / q

    j0 = max(0, int(math.floor((lo - xi0) / dxi)))
    j1 = min(f.n_samples - 1, int(math.ceil((hi - xi0) / dxi)))
    if j1 - j0 < 1:
        j0, j1 = max(0, j1 - 1), min(f.n_samples - 1, j0 + 1)
    n_fine = (j1 - j0) * q + 1
    xi_first = xi0 + j0 * dxi
    xi_last = xi_first + du * (n_fine - 1)
    carrier = 0.5 * (xi_first + xi_last)
    half_band = max(0.5 * (xi_last - xi_first), du)

    # the grid of one synthesis period: n_fft nodes dz apart, of which the
    # first n_z cover the window
    period = 2.0 * math.pi / du
    dz_target = math.pi / (half_band * _OVERSAMPLING)
    n_fft = next_fast_len(max(int(math.ceil(period / dz_target)), n_fine))
    if n_fft > _MAX_FFT:
        raise ResolutionError(
            f"slice at t={t} needs an FFT of {n_fft} > max_fft={_MAX_FFT}; "
            "the y-range policy cannot cover the dispersive range")
    dz = 2.0 * math.pi / (n_fft * du)
    n_z = min(n_fft, int(math.floor(width / dz)) + 2)
    n0, n1 = 0, n_z
    if span is not None:
        n0 = max(n0, math.floor((span[0] - z_lo) / dz) - _STENCIL)
        n1 = min(n1, math.ceil((span[1] - z_lo) / dz) + _STENCIL + 1)
        if n1 - n0 < _STENCIL:
            raise GridRangeError(
                f"slice span {span} misses the synthesis window "
                f"[{z_lo}, {z_lo + dz * (n_z - 1)}]")

    fine_xi = xi_first + du * np.arange(n_fine)
    if q == 1:
        fine = np.array(f.samples[j0:j1 + 1])
    else:
        fine = lagrange_uniform(f.samples, xi0, dxi, fine_xi)

    abs_pow = np.abs(fine_xi) ** p.m
    weights = np.full(n_fine, du / (2.0 * math.pi))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    coef = fine * np.exp(1j * t * abs_pow) * weights
    if p.damping:
        coef *= np.exp(-(t ** p.gamma) * abs_pow)
    coef *= np.exp(1j * z_lo * du * np.arange(n_fine))

    env = _chirp_z(coef, n_fft, n0, n1)
    z = z_lo + dz * np.arange(n0, n1)
    env *= np.exp(1j * z * (xi_first - carrier))
    return SampledField(z_lo + dz * n0, dz, env, t, carrier)


def field_value(field: SampledField, y):
    """Interpolate the slice at positions y (scalar or array), carrier included."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if (y_arr < field.y_min - 1e-12).any() or (y_arr > field.y_max + 1e-12).any():
        raise GridRangeError(
            f"query outside the slice grid [{field.y_min}, {field.y_max}]")
    env = lagrange_uniform(field.values, field.y_min, field.delta_y, y_arr)
    out = env * np.exp(1j * field.carrier * y_arr)
    return out if np.ndim(y) else complex(out[0])


def evaluate_along_curve(plan: PropagationPlan, curve: CurveSpec, x, t: float,
                         path: str):
    """Amplitude h_t(Gamma(x, t)) for one time and one or many positions.

    ``path`` names the route: ``"transform"`` reads the values off one slice,
    synthesized on the span of the queries' y alone, and ``"quadrature"``
    makes one batched ``direct_quadrature`` call.
    """
    y = curve_eval(curve, np.asarray(x, dtype=float), t)
    y_arr = np.atleast_1d(y)
    if (y_arr < plan.y_lo).any() or (y_arr > plan.y_hi).any():
        raise GridRangeError("curve query leaves the planned y-range")
    if path == "quadrature":
        return direct_quadrature(plan.source, plan.params, y, t)
    if path != "transform":
        raise ValueError(f"unknown path {path!r}")
    span = (float(y_arr.min()), float(y_arr.max())) if y_arr.size else None
    sl = propagate_slice(plan, t, span)
    vals = np.atleast_1d(field_value(sl, y_arr))
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
        return lagrange_uniform(f.samples, xi0, dxi, xi)

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
