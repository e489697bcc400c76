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
  reads one y-span asks for that span and pays two FFTs (``numpy.fft``) of
  about (spectral samples + span nodes) points instead of one FFT of a
  whole period.  The grid is decided by arithmetic alone (``slice_grid``),
  and everything that depends on the grid only (the refined spectrum times
  its weights and the input chirp, its |xi|**m, the phase ramp from the
  span's first node, the FFT of the lag chirp, and the output chirp times
  the demodulation) is built apart from the time: a run of times with one
  grid, such as ``maximal_field`` asks for, builds it once and pays per
  time only one exponential (time phase, ramp and damping), two FFTs and
  two products.
  ``slice_bound`` majorizes every slice from a time t on, and every read
  of one, from the source samples alone, in O(n_samples) per t, so
  ``maximal_field`` can stop once no later slice can raise its maximum.

* ``direct_quadrature`` - slow trusted oracle: composite Gauss quadrature on
  the source grid with a per-cell rule: where the phase moves fast, 12-,
  16-, 24- or 32-point Gauss, the fewest points whose remainder bound on
  the cell's change matches 12 points on 2 pi, and sub-cells of 32 points
  past 49.66 rad; 4-point Gauss on sub-cells of at most pi/8 where it
  moves slowly or the cell touches xi = 0 (see ``_numerics.phase_counts``
  for the remainder bound).  No transform, no periodization, no
  demodulation.  It takes arrays of (y, t) and gives a run of points the
  rule and node set of its extreme points.

Both routes read the spectrum between its samples with the one local
interpolant of ``_numerics`` (order ``_INTERP_ORDER``, one weight formula),
so they converge to the same continuous integral.  Each reads it where its
queries repeat from one source cell to the next: the slice refines the
spectrum at the offsets k/q of every cell (``lagrange_cells``), the oracle
at the Gauss nodes of each cell's (count, order) rule (``lagrange_on_rule``),
so each builds one weight table per rule instead of weights per query.
Arbitrary points, such as the y-queries of a slice, use
``lagrange_uniform``.  They share nothing else: the transform route sums the
refined spectrum on a uniform grid and transforms it, whatever nodes it
keeps, and the oracle integrates cell by cell in y-space with no transform,
periodization or demodulation; so their agreement checks each against the
other.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._numerics import (_DEAD, _LEBESGUE, _STENCIL, lagrange_cells,
                        lagrange_on_rule, lagrange_uniform, node_set,
                        oscillatory_sum, phase_counts)
from .domain import CurveSpec, EvolutionParams, SpectralFunction, curve_eval
from .errors import DomainError, GridRangeError, ResolutionError

__all__ = [
    "SampledField", "PropagationPlan", "make_plan", "SliceGrid", "slice_grid",
    "propagate_slice", "slice_bound",
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


def _smooth_numbers(limit: int) -> list[int]:
    """The products 2**a 3**b 5**c 7**d 11**e <= limit, in increasing order."""
    found = [1]
    for p in (2, 3, 5, 7, 11):
        found = [n * p ** k for n in found
                 for k in range(int(math.log(limit / n, p)) + 2)
                 if n * p ** k <= limit]
    return sorted(found)


# the transform lengths pocketfft runs fastest on: 11-smooth numbers, up to
# the largest length a chirp-z transform of one slice can need
_FAST_LENGTHS = _smooth_numbers(2 * _MAX_FFT)


def _next_fast_len(target: int) -> int:
    """The smallest 11-smooth number >= target, for 1 <= target <= 2
    ``_MAX_FFT``: the length ``scipy.fft.next_fast_len`` picks for complex
    transforms."""
    return _FAST_LENGTHS[bisect.bisect_left(_FAST_LENGTHS, target)]


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


def _check_damped_times(params: EvolutionParams, ts) -> None:
    """Raise ``DomainError`` when the damping is on and a time of ``ts`` is
    negative: t**gamma is then no damping rate (complex for most gamma)."""
    if params.damping:
        negative = [t for t in ts if t < 0.0]
        if negative:
            raise DomainError(f"damped evolution needs t >= 0, got t="
                              f"{negative[0]}")


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


def _chirp_z_factors(k_len: int, n: int,
                     n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors of a chirp-z transform (see ``_chirp_z``) of k_len inputs
    to the outputs 0 .. n_out-1 of a period of n nodes: the input chirp
    w(0 .. k_len-1), the FFT of the conjugate lag chirp conj(w(-(k_len-1) ..
    n_out-1)) at the smallest 11-smooth length >= k_len + n_out - 1, and the
    output chirp w(0 .. n_out-1).  One ``_chirp`` pass over 0 ..
    max(k_len, n_out)-1 gives all three: the chirps are its prefixes, and
    the lags below 0 read it reflected, since j**2 is even in j."""
    size = _next_fast_len(k_len + n_out - 1)
    w = _chirp(np.arange(max(k_len, n_out), dtype=np.int64), n)
    lag = np.empty(size, dtype=complex)
    np.conjugate(w[k_len - 1:0:-1], out=lag[:k_len - 1])
    np.conjugate(w[:n_out], out=lag[k_len - 1:k_len - 1 + n_out])
    lag[k_len - 1 + n_out:] = 0.0
    return w[:k_len], np.fft.fft(lag, out=lag), w[:n_out]


def _chirp_z(a: np.ndarray, chirp_in: np.ndarray, lag_fft: np.ndarray,
             n_out: int) -> np.ndarray:
    """conj(w(j)) sum_k a[k] exp(2 pi i k j / n) for the outputs j = 0 ..
    n_out-1, from the factors of ``_chirp_z_factors(a.size, n, n_out)``; the
    caller applies the output chirp w(j).

    Bluestein's identity 2 k j = k**2 + j**2 - (j - k)**2 turns the sum into
    a linear convolution of a[k] w(k) with conj(w) over j - k, w(j) =
    exp(i pi j**2 / n); two ``numpy.fft`` transforms of length lag_fft.size
    do it with the cached FFT of the lag chirp (Rabiner, Schafer & Rader,
    "The chirp z-transform algorithm", 1969).  ``chirp_in`` may carry other
    factors of the input.  The chirped input is written into the
    zero-padded buffer, and both transforms run in place in it; the result
    is a view of that buffer.
    """
    k_len = a.size
    # np.empty and an explicit zero tail, not np.zeros: the calloc'ed
    # buffers kept 0.9 MB more of the heap resident on the agreement benchmark
    spec = np.empty(lag_fft.size, dtype=complex)
    spec[k_len:] = 0.0
    np.multiply(a, chirp_in, out=spec[:k_len])
    np.fft.fft(spec, out=spec)
    spec *= lag_fft
    return np.fft.ifft(spec, out=spec)[k_len - 1:k_len - 1 + n_out]


@dataclass(frozen=True)
class SliceGrid:
    """The synthesis grid of one slice, from arithmetic alone.

    The slice sums the source cells j0 .. j1 refined q times, at the step du
    = delta_xi / q, and yields the nodes z_lo + n dz, n0 <= n < n1, of a
    period of n_fft nodes.  Two times with equal grids differ only in the
    time phase and the damping of the refined spectrum.
    """
    j0: int
    j1: int
    q: int
    z_lo: float
    du: float
    n_fft: int
    dz: float
    n0: int
    n1: int

    @property
    def y_first(self) -> float:
        """The first node the slice yields, z_lo + n0 dz."""
        return self.z_lo + self.dz * self.n0


def slice_grid(plan: PropagationPlan, t: float,
               span: tuple[float, float] | None = None) -> SliceGrid | None:
    """The grid ``propagate_slice(plan, t, span)`` synthesizes on, or None
    when the damping or an empty spectrum leaves no band (a zero slice).

    Arithmetic only: no array is built, so a caller can check the
    resolution of many times before the first slice.  Raises
    ``GridRangeError``, ``ResolutionError`` and ``DomainError`` as
    ``propagate_slice`` does.
    """
    f, p = plan.source, plan.params
    xi0, dxi = f.xi_min, f.delta_xi
    _check_damped_times(p, (t,))
    if span is not None and not span[0] <= span[1]:
        raise GridRangeError(f"empty slice span {span}")

    lo, hi = f.support()
    cap = _damping_cap(p, t)
    lo = max(lo, -cap)
    hi = min(hi, cap)
    if hi <= lo:  # empty spectrum, or the damping killed the whole band
        return None

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
    half_band = max(0.5 * (xi_last - xi_first), du)

    # the grid of one synthesis period: n_fft nodes dz apart, of which the
    # first n_z cover the window
    period = 2.0 * math.pi / du
    dz_target = math.pi / (half_band * _OVERSAMPLING)
    # _MAX_FFT is 11-smooth, so the fast length of n_need exceeds it exactly
    # when n_need does
    n_need = max(int(math.ceil(period / dz_target)), n_fine)
    if n_need > _MAX_FFT:
        raise ResolutionError(
            f"slice at t={t} needs an FFT of {n_need} > max_fft={_MAX_FFT}; "
            "the y-range policy cannot cover the dispersive range")
    n_fft = _next_fast_len(n_need)
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
    return SliceGrid(j0, j1, q, z_lo, du, n_fft, dz, n0, n1)


@dataclass(frozen=True, eq=False)
class _Synthesis:
    """Everything of a slice's synthesis that depends on its grid alone:
    ``coef``, the refined spectrum times the trapezoid weights and the
    input chirp; |xi|**m of the refined nodes; the phase ramp y_first du k
    from the first node the slice yields (``SliceGrid.y_first``); the FFT
    of the lag chirp; and ``out``, the output chirp times the
    demodulation."""
    coef: np.ndarray
    abs_pow: np.ndarray
    ramp: np.ndarray
    lag_fft: np.ndarray
    out: np.ndarray
    carrier: float


def _synthesis(f: SpectralFunction, m: float, g: SliceGrid) -> _Synthesis:
    """The ``_Synthesis`` of the grid g for the source f and the power m."""
    dxi = f.delta_xi
    n_fine = (g.j1 - g.j0) * g.q + 1
    xi_first = f.xi_min + g.j0 * dxi
    xi_last = xi_first + g.du * (n_fine - 1)
    carrier = 0.5 * (xi_first + xi_last)

    abs_pow = np.abs(xi_first + g.du * np.arange(n_fine)) ** m
    if g.q == 1:
        coef = f.samples[g.j0:g.j1 + 1].astype(complex)
    else:
        # the refined nodes sit at the offsets k/q of each source cell
        coef = np.empty(n_fine, dtype=complex)
        coef[:-1] = lagrange_cells(f.samples, g.j0, g.j1 - g.j0,
                                   np.arange(g.q) / g.q).ravel()
        coef[-1] = f.samples[g.j1]
    coef *= g.du / (2.0 * math.pi)
    coef[0] *= 0.5
    coef[-1] *= 0.5
    ramp = (g.y_first * g.du) * np.arange(n_fine)
    z = g.y_first + g.dz * np.arange(g.n1 - g.n0)
    # the chirp-z factors come last: built first, the lag chirp's
    # temporaries left heap holes that kept 1.6 MB more resident on the
    # agreement benchmark
    chirp_in, lag_fft, chirp_out = _chirp_z_factors(n_fine, g.n_fft,
                                                    g.n1 - g.n0)
    coef *= chirp_in
    unit = np.exp(1j * z * (xi_first - carrier))
    return _Synthesis(coef, abs_pow, ramp, lag_fft,
                      np.multiply(chirp_out, unit, out=unit), carrier)


class _GridInHand:
    """The last grid a run of slices synthesized on, with its
    ``_Synthesis``: ``propagate_slice`` reuses the synthesis while the plan
    and the grid repeat.  A caller holds one for one run of slices only."""
    __slots__ = ("plan", "grid", "synthesis")

    def __init__(self):
        self.plan = self.grid = self.synthesis = None


def propagate_slice(plan: PropagationPlan, t: float,
                    span: tuple[float, float] | None = None,
                    _held: _GridInHand | None = None) -> SampledField:
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

    The synthesis runs in two steps.  ``slice_grid`` decides the grid by
    arithmetic; ``_synthesis`` builds what depends on the grid alone (the
    refined spectrum times the weights and the input chirp, |xi|**m, the
    phase ramp from the first node computed, the FFT of the lag chirp, and
    the output chirp times the demodulation).  Per time only one
    exponential of the time phase, the ramp and the damping, two FFTs and
    two products remain.  ``_held`` (private to ``maximal_field``) keeps
    the last grid's synthesis across the calls of one run of times, so a
    run of equal grids builds it once; every value is the same as that of
    a fresh call, bit for bit.

    Raises ``GridRangeError`` when the span is empty or misses the window,
    ``ResolutionError`` when one period of the full grid would have more
    than ``_MAX_FFT`` nodes, whatever the span, and ``DomainError`` for a
    negative t with the damping on, before any array is built.
    """
    grid = slice_grid(plan, t, span)
    if grid is None:
        return _zero_slice(plan, t)
    held = _GridInHand() if _held is None else _held
    if held.plan is not plan or held.grid != grid:
        held.synthesis = None  # release the old factors before the next
        held.synthesis = _synthesis(plan.source, plan.params.m, grid)
        held.plan, held.grid = plan, grid
    syn, p = held.synthesis, plan.params

    # one exponential per node: the damping exponent and the time phase plus
    # the ramp
    arg = np.empty(syn.abs_pow.size, dtype=complex)
    np.multiply(syn.abs_pow, -(t ** p.gamma) if p.damping else 0.0,
                out=arg.real)
    np.multiply(syn.abs_pow, t, out=arg.imag)
    arg.imag += syn.ramp
    env = _chirp_z(np.exp(arg, out=arg), syn.coef, syn.lag_fft, syn.out.size)
    return SampledField(grid.y_first, grid.dz, env * syn.out, t, syn.carrier)


def slice_bound(plan: PropagationPlan):
    """A function U of t >= 0 that majorizes the modulus of every value
    ``propagate_slice(plan, t', span)`` yields for any t' >= t and span, and
    of every ``lagrange_uniform`` read of such a slice inside its grid:

        U(t) = L**2 (1 + 1e-9) dxi / 2pi (sum_j M_j exp(-t**gamma mu_j)
                                          + max |fhat|),

    with M_j the largest |fhat| over the samples j-7 .. j+8 (every stencil
    that refines cell j, clamped ones included), mu_j the smallest |xi|**m
    on cell j (0 on a cell that touches 0) and L the stencil's Lebesgue
    constant (``_numerics._LEBESGUE``).  A slice is a trapezoid sum of the
    refined spectrum times unimodular factors and the damping: the q nodes
    of cell j weigh dxi / 2pi together and are at most L M_j, the last node
    is a sample, and a read of the slice is at most L times its largest
    node.  The factor 1e-9 covers the rounding of the chirp-z transform.
    U costs O(n_samples) per t and is nonincreasing in t.  It reads the
    source samples alone, never the oracle.  With the damping off it is
    +inf.  Raises ``DomainError`` for a negative t with the damping on.
    """
    f, p = plan.source, plan.params
    if not p.damping:
        return lambda t: math.inf
    mags = np.abs(f.samples)
    padded = np.concatenate([np.zeros(_STENCIL - 1), mags,
                             np.zeros(_STENCIL)])
    reach = sliding_window_view(padded, 2 * _STENCIL).max(axis=1)[:-1]
    edges = f.xi_min + f.delta_xi * np.arange(f.n_samples)
    lo, hi = edges[:-1], edges[1:]
    near = np.where((lo <= 0.0) & (hi >= 0.0), 0.0,
                    np.minimum(np.abs(lo), np.abs(hi)))
    mu = near ** p.m
    scale = _LEBESGUE ** 2 * (1.0 + 1e-9) * f.delta_xi / (2.0 * math.pi)
    last = float(mags.max())

    def bound(t: float) -> float:
        _check_damped_times(p, (t,))
        return scale * (float(np.dot(reach, np.exp(-(t ** p.gamma) * mu)))
                        + last)
    return bound


def field_value(field: SampledField, y):
    """Interpolate the slice at positions y (scalar or array), carrier included."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if (y_arr < field.y_min - 1e-12).any() or (y_arr > field.y_max + 1e-12).any():
        raise GridRangeError(
            f"query outside the slice grid [{field.y_min}, {field.y_max}]")
    env = lagrange_uniform(field.values, field.y_min, field.delta_y, y_arr)
    unit = np.exp(1j * field.carrier * y_arr)
    out = np.multiply(env, unit, out=unit)  # this operand order at any size
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


def _oracle_band(params: EvolutionParams, support: tuple[float, float],
                 t: float) -> tuple[float, float] | None:
    """(lo, hi): the support clipped to the damping cap at time t; None when
    nothing is left to integrate."""
    cap = _damping_cap(params, t)
    lo = max(support[0], -cap)
    hi = min(support[1], cap)
    if hi <= lo:  # empty spectrum, or the damping killed the whole band
        return None
    return lo, hi


def _oracle_edges(f: SpectralFunction,
                  band: tuple[float, float]) -> np.ndarray | None:
    """Source-grid cell edges clipped to a live ``band``; None if under 2."""
    lo, hi = band
    dxi, xi0 = f.delta_xi, f.xi_min
    j0 = max(0, int(math.floor((lo - xi0) / dxi)))
    j1 = min(f.n_samples - 1, int(math.ceil((hi - xi0) / dxi)))
    edges = xi0 + dxi * np.arange(j0, j1 + 1)
    edges = np.clip(edges, lo, hi)
    return edges if edges.size >= 2 else None


def _run_rule(edges: np.ndarray, ys: list[float], ts: list[float],
              damps: list[float], m: float):
    """The rule every point of a run gets (see ``direct_quadrature``), or
    None for one point, for m < 1, when the extremes disagree, or when the
    largest, maybe no point of the run, is over the node budget."""
    if len(ys) < 2 or m < 1.0:
        return None
    try:
        lo, hi = (phase_counts(edges, ext(np.abs(ys)), ext(np.abs(ts)),
                               ext(np.array(damps, dtype=float)), m)
                  for ext in (np.min, np.max))
    except ResolutionError:
        return None
    return lo if all(map(np.array_equal, lo, hi)) else None


def direct_quadrature(f: SpectralFunction, params: EvolutionParams, y, t):
    """Trusted slow evaluation of h_t(y) by refined composite quadrature on
    the source grid: per grid cell of phase and damping-exponent change c,
    the fine rule (one sub-cell of 12, 16, 24 or 32 points, the fewest whose
    budget covers c, or ceil(c / 49.66) sub-cells of 32 points), or 4-point
    Gauss on sub-cells of at most pi/8 where c is at most pi/8 or the cell
    touches xi = 0 (``_numerics.phase_counts``).

    ``y`` and ``t`` are scalars or arrays that broadcast together; a scalar
    pair gives a Python complex, arrays give a complex array of their
    broadcast shape.  Consecutive points with one clipped band form a run.
    For m >= 1 a run takes its rule from two ``phase_counts`` passes, at its
    smallest and its largest |y|, |t| and damping rate, when they agree
    (``_run_rule``); else each point takes its own pass.  That is each
    point's own rule: every step of ``phase_counts`` (products with the
    nonnegative cell widths and |xi|**m differences, sums, division by a
    positive budget, ``ceil``, ``np.maximum``, the fine flag counts > 1) is
    correctly rounded, hence nondecreasing in those three, and so is the
    fine order, the first of the increasing budgets that is at least the
    change; so a point between the extremes gets counts and orders between
    theirs.  For m < 1 the cells touching 0 take (8 |t| / pi)**(1/m) from
    C ``pow``, which need not be correctly rounded.  Consecutive points
    with one band and rule share one node set; each value equals a
    one-point call's to the bit.  Raises ``ResolutionError`` when a point
    needs over ``_MAX_NODES`` nodes; the extremes propagate NaN, so a NaN
    point raises alone.  Raises ``DomainError`` for a negative t with the
    damping on.
    """
    y_arr, t_arr = np.broadcast_arrays(np.asarray(y, dtype=float),
                                       np.asarray(t, dtype=float))
    out = np.zeros(y_arr.shape, dtype=complex)
    flat = out.reshape(-1)
    support = f.support()
    dxi, xi0 = f.delta_xi, f.xi_min
    ys, ts = y_arr.ravel().tolist(), t_arr.ravel().tolist()
    _check_damped_times(params, ts)
    damps = [tt ** params.gamma if params.damping else 0.0 for tt in ts]
    bands = [_oracle_band(params, support, tt) for tt in ts]

    key, nodes = (None, None), None   # (band, (counts, orders)) of the nodes
    for band, run in itertools.groupby(range(len(ts)), bands.__getitem__):
        run = list(run)
        edges = None if band is None else _oracle_edges(f, band)
        if edges is None:
            continue
        a, b = run[0], run[-1] + 1
        shared = _run_rule(edges, ys[a:b], ts[a:b], damps[a:b], params.m)
        for i in run:
            rule = shared or phase_counts(edges, ys[i], ts[i], damps[i],
                                          params.m)
            # a run's shared rule is one object: no comparison per point
            if key[0] != band or rule is not key[1] and not all(
                    map(np.array_equal, rule, key[1])):
                nodes = None   # release the old set before building the next
                key = (band, rule)
                # fhat at the nodes, read cell by cell along the rule
                nodes = node_set(edges, *rule, lambda xi: lagrange_on_rule(
                    f.samples, xi0, dxi, edges, *rule, xi), params.m)
            total = oscillatory_sum(*nodes, ys[i], ts[i], damps[i])
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
