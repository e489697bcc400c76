"""Oscillatory kernel of the linearized maximal operator composed with its
adjoint, the analytic majorant with its weight table, and Schur-type row
integrals, all for the quadratic dispersion m = 2:

    K(x, y, t1, t2) = integral exp(i ((Gamma(x,t1) - Gamma(y,t2)) xi
                                      + (t1 - t2) xi^2))
                      * exp(-(t1**gamma + t2**gamma) xi^2) * Psi(xi / lam) dxi

with Psi a smooth positive even cutoff supported on 1/2 <= |xi| <= 2.
|K| is always at most lam times the integral of Psi.

``kernel_values`` evaluates arrays of samples, and ``kernel_eval`` is its
one-sample case.  Each sample's dy, dt, damping and damping cap are Python
floats.  Psi and |xi|^2 are even, so the two band sides of a live sample
add up to 2 times the integral over lam/2 <= xi <= 2*lam of Psi cos(dy xi)
exp(i dt xi^2) times the damping: each live sample is one mirrored row of
the shared row-form quadrature (``_numerics.oscillatory_quadrature`` with
``mirrored=True``), ``_SAMPLES`` samples per call, and the shared rule lays
out and sums each row as a one-row call, in chunks of at most 2**14 nodes.
So every value is the same to the bit however the samples are batched.
A damped row stops at its double-precision horizon (``_horizon``): past it,
every term is below e**-60 ~ 2**-86.6 of the row's largest term, so the
row's sum cannot feel it; the oracle and the slices of ``evolve`` keep the
cap where exp(-x) underflows.  ``schur_integral`` evaluates a row integral
in one call, and ``verify_kernel_bound`` all its draws in one call, after
drawing them in one fixed sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._numerics import _CHUNK, _DEAD, oscillatory_quadrature
from ._pcg64 import Stream
from .atlas import exponent
from .domain import (CurveSpec, EvolutionParams, _bump_exponent, _bump_shape,
                     clipped_power_assignment, curve_eval, holder_curve)
from .errors import DomainError, RegimeError

__all__ = [
    "cutoff", "cutoff_mass",
    "kernel_values", "kernel_eval", "BetaChoice", "beta_table",
    "kernel_majorant", "schur_integral", "clipped_power_assignment",
    "geometric_time_set", "KernelSample", "KernelBoundReport",
    "verify_kernel_bound",
]


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

# support radii of Psi
_INNER = 0.5
_OUTER = 2.0
# ln Psi = _PEAK_LOG - 1/(u (1 - u)) on 0 < u < 1: at most 0, and 0 at u = 1/2
_PEAK_LOG = 4.0


def _band_coordinate(xi):
    """u = (|xi| - 1/2) / (2 - 1/2): Psi's support side is 0 < u < 1."""
    return (np.abs(np.asarray(xi, dtype=float)) - _INNER) / (_OUTER - _INNER)


def cutoff(xi):
    """Psi: even C-infinity profile, positive on 1/2 < |xi| < 2, peak 1."""
    return np.exp(_PEAK_LOG) * _bump_shape(_band_coordinate(xi), 0.0, 1.0)


@cache
def cutoff_mass() -> float:
    """integral of Psi over both support components."""
    grid = np.linspace(_INNER, _OUTER, 8193)
    return 2.0 * float(np.trapezoid(cutoff(grid), grid))


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

# grid cells per band side
_CELLS = 96
# a damped row stops where every value of its integrand is below e**-_HORIZON
# of the row's largest one (``_horizon``), well before exp(-x) underflows at
# x = _DEAD
_HORIZON = 60.0
# samples per block of kernel_values: the block's band edges, one mirrored
# row of _CELLS + 1 per sample, are about one chunk of the shared rule
_SAMPLES = _CHUNK // (_CELLS + 1)


def kernel_values(x, y, t1, t2, lam, params: EvolutionParams,
                  curve: CurveSpec) -> np.ndarray:
    """The kernel at every sample (x, y, t1, t2, lam) of arrays that
    broadcast together, as a complex array of their broadcast shape, by
    refined quadrature over the annulus lam/2 <= |xi| <= 2*lam.

    Each sample's dy, dt, damping and damping cap sqrt(745 / d), where
    exp(-d xi**2) underflows, are Python floats; a sample whose cap lies at
    or below the inner band edge is exactly 0.  A live damped row stops at
    the smaller of its cap and its horizon (``_horizon``), past which every
    term is below e**-60 ~ 2**-86.6 of the row's largest term.  Each
    live sample is one mirrored row (its positive band side, standing for
    both) of one row-form ``oscillatory_quadrature`` per block of
    ``_SAMPLES`` samples, so every value equals a one-sample call to the
    bit.  Non-finite positions or levels raise ``DomainError``; undamped
    or m != 2 ``params`` raise ``RegimeError``.
    """
    if params.m != 2.0 or not params.damping:
        raise RegimeError("the kernel is defined for damped evolution, m = 2")
    x, y, t1, t2, lam = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, y, t1, t2, lam)))
    if not all(np.isfinite(v).all() for v in (x, y, lam)):
        raise DomainError("positions and frequency levels must be finite")
    if np.any(lam < 4.0):
        raise DomainError("frequency level lam must be at least 4")
    for t in (t1, t2):
        if not np.all((0.0 <= t) & (t <= 1.0)):
            raise DomainError("times must lie in [0, 1]")

    g = params.gamma
    out = np.zeros(x.shape, dtype=complex)
    flat = out.reshape(-1)
    cols = [v.ravel() for v in (x, y, t1, t2, lam)]
    for start in range(0, flat.size, _SAMPLES):
        block = zip(*(c[start:start + _SAMPLES].tolist() for c in cols))
        live, ends, rows = [], [], []
        for k, (xx, yy, s1, s2, level) in enumerate(block, start):
            dy = (float(curve_eval(curve, xx, s1))
                  - float(curve_eval(curve, yy, s2)))
            dt = s1 - s2
            damp = s1 ** g + s2 ** g
            inner = _INNER * level
            outer = _OUTER * level
            cap = math.inf if damp == 0.0 else math.sqrt(_DEAD / damp)
            hi = min(outer, cap)
            if hi <= inner:
                continue
            live.append(k)
            ends.append((inner, hi))
            rows.append((dy, dt, damp, level))
        if not live:
            continue
        a, b = np.array(ends).T
        dys, dts, damps, levels = np.array(rows).T
        b = _horizon(a, b, damps, levels)
        # _CELLS cells per band side resolve the cutoff profile; the shared
        # rule subdivides them where the phase or the damping varies fast
        edges = np.ascontiguousarray(np.linspace(a, b, _CELLS + 1, axis=-1))
        flat[live] = oscillatory_quadrature(
            edges, lambda xi, row: cutoff(xi / levels[row]),
            dys, dts, damps, 2.0, mirrored=True)
    return out


def _horizon(a: np.ndarray, b: np.ndarray, damp: np.ndarray,
             level: np.ndarray) -> np.ndarray:
    """The outer ends of the live rows [a, b] of ``kernel_values``, each cut
    at its double-precision horizon.

    A row's integrand has modulus at most 2 Psi(xi/lam) exp(-d xi**2), and
    at its grid's interior edges xi_e (those of ``np.linspace(a, b, _CELLS
    + 1)``) that envelope takes the values exp(ln Psi(xi_e/lam) - d xi_e**2).
    So low = max_e (ln Psi(xi_e/lam) - d xi_e**2) is at most the log of the
    envelope's largest value M on the row.  Past
    xi_cut = sqrt((_HORIZON - low) / d), Psi <= 1 gives

        Psi(xi/lam) exp(-d xi**2) <= exp(-d xi_cut**2) = exp(low - 60)
                                  <= e**-60 M,  e**-60 ~ 2**-86.6,

    so every term the cut drops is below 2**-86.6 of the row's largest
    term, and even the 2**22 nodes a row may have
    (``_numerics._MAX_NODES``) would sum to below 2**-64 of it: under the
    rounding of a sum in which that term appears.  The cut only lowers b,
    and it stays above a, since low <= -d xi_e**2 for an edge xi_e > a.  A
    row with d b**2 <= _HORIZON keeps its b (ln Psi <= 0, so low <= 0), and
    only the others are bounded.  An interior edge that rounds onto a band
    end (a sliver row) has ln Psi = -inf and bounds nothing; a row with no
    other edge keeps its b.

    The edges come from the same ``np.linspace`` as the row's grid, and each
    row's bound from elementwise operations and its own max, so a row's cut
    is the same in any block: ``kernel_values`` stays bit-identical to
    one-sample calls.  The bound uses the interior edges, not the inner edge
    a: Psi vanishes there, and on a heavily damped row the largest term lies
    well past a cut taken from the damping at a.
    """
    deep = np.flatnonzero(damp * b * b > _HORIZON)
    d = damp[deep]
    xi = np.linspace(a[deep], b[deep], _CELLS + 1, axis=-1)[:, 1:-1]
    with np.errstate(divide="ignore"):
        log_psi = _PEAK_LOG + _bump_exponent(
            _band_coordinate(xi / level[deep, None]), 0.0, 1.0)
    low = np.max(log_psi - d[:, None] * xi * xi, axis=-1)
    b = b.copy()
    b[deep] = np.minimum(b[deep], np.sqrt((_HORIZON - low) / d))
    return b


def kernel_eval(x: float, y: float, t1: float, t2: float, lam: float,
                params: EvolutionParams, curve: CurveSpec) -> complex:
    """The kernel at one sample: ``kernel_values`` of one row."""
    return complex(kernel_values(x, y, t1, t2, lam, params, curve)[()])


# ---------------------------------------------------------------------------
# majorant and weight table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaChoice:
    """Decay weights entering the kernel majorant, with the predicted growth
    exponent of the row integral; eps_flag marks rows whose prediction holds
    up to an arbitrarily small extra power."""
    beta1: float
    beta2: float
    i_exponent: float
    eps_flag: bool

    def __post_init__(self):
        if self.beta1 < 0 or self.beta2 < 0:
            raise DomainError("weights must be nonnegative")


# (beta1 is alpha/gamma, beta2 is 1/(2 gamma), eps_flag) per regime of the
# atlas exponent s(alpha, gamma, 2), keyed by (theorem, piece); a weight
# marked False is 0
_WEIGHTS = {
    ("T1", 0): (False, True, False),
    ("T1", 1): (False, True, True),
    ("T1", 2): (False, False, False),
    ("T2", 0): (True, True, False),
    ("T2", 1): (True, True, True),
    ("T2", 2): (False, False, False),
    ("T3", 0): (True, True, False),
    ("T3", 1): (True, True, True),
    ("T3", 2): (False, True, False),
    ("T3", 3): (False, True, True),
    ("T3", 4): (False, False, False),
}


def beta_table(alpha: float, gamma: float) -> BetaChoice:
    """Optimal (beta1, beta2) for the atlas regime covering (alpha, gamma,
    m = 2), with the resulting row-integral exponent 2 s(alpha, gamma, 2).
    Raises ``RegimeError`` outside the table."""
    a, g = alpha, gamma
    if not (0.0 < a <= 1.0 and g > 0.0):
        raise RegimeError(f"(alpha, gamma) = ({a}, {g}) outside the table")
    res = exponent(alpha=a, gamma=g, m=2.0)
    b1, b2, eps = _WEIGHTS[res.theorem, res.piece]
    return BetaChoice(a / g if b1 else 0.0, 1.0 / (2 * g) if b2 else 0.0,
                      2 * float(res.s), eps)


def _term(num: float, d: float, power: float) -> float:
    """num / d**power, one term of the majorant's first branch.  A
    denominator that underflows to 0 stands for +inf, so ``min`` takes the
    other term; one that overflows gives the limit 0."""
    try:
        den = d ** power
    except OverflowError:
        return 0.0
    return num / den if den else math.inf


def kernel_majorant(x: float, y: float, lam: float, beta: BetaChoice,
                    alpha: float, gamma: float) -> float:
    """Analytic decay majorant

        max{ min( lam^(-2 b1) / |x-y|^(g b1/a + 1/(2a)),
                  lam^(1-2 b1) / |x-y|^(g b1/a) ),
             lam^(1/2 - 2 b2 + g b2) / |x-y|^(1/2 + g b2) }.

    The kernel is bounded by a (beta-dependent) constant times this for all
    times; x = y is a coincidence error (negative powers of |x - y|), and so
    is a non-finite position.  lam must be finite and positive: a NaN is
    lost in ``max``, and a negative lam makes the powers complex.  A bound
    that is 0 or not finite (the weights' powers of lam leave the doubles)
    raises ``DomainError`` naming alpha, gamma and lam.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("majorant needs finite positions")
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"majorant needs a finite lam > 0, got {lam}")
    d = abs(x - y)
    if d == 0.0:
        raise DomainError("majorant undefined at x = y")
    b1, b2 = beta.beta1, beta.beta2
    branch1 = min(_term(lam ** (-2 * b1), d, gamma * b1 / alpha + 1 / (2 * alpha)),
                  _term(lam ** (1 - 2 * b1), d, gamma * b1 / alpha))
    branch2 = lam ** (0.5 - 2 * b2 + gamma * b2) / d ** (0.5 + gamma * b2)
    bound = max(branch1, branch2)
    if not 0.0 < bound < math.inf:
        raise DomainError(f"majorant at alpha={alpha}, gamma={gamma}, "
                          f"lam={lam} is {bound}: no double holds it")
    return bound


# ---------------------------------------------------------------------------
# Schur row integrals
# ---------------------------------------------------------------------------

def schur_integral(x: float, lam: float, params: EvolutionParams,
                   curve: CurveSpec, t_assignment,
                   y_nodes: np.ndarray) -> float:
    """Trapezoid over y in [-1, 1] of |K(x, y, t(x), t(y))| for a measurable
    time assignment t(.) given as a callable on positions.

    What a row shows: |K(x, y, t(x), t(y))| is symmetric in x and y (K is
    conjugate symmetric), so by Schur's test the largest row integral over
    x bounds the L^2([-1, 1]) norm of TT* linearized along t(.), the
    operator with that kernel.  A row is one term of this upper bound.  It
    is not a lower bound on the operator norm: the modulus discards the
    cancellation that the norm keeps."""
    y_nodes = np.asarray(y_nodes, dtype=float)
    tx = float(t_assignment(x))
    ty = [float(t_assignment(float(yy))) for yy in y_nodes]
    values = kernel_values(x, y_nodes, tx, ty, lam, params, curve)
    # Python abs of each value: np.abs rounds differently in the last place
    vals = np.array([abs(v) for v in values.tolist()], dtype=float)
    return float(np.trapezoid(vals, y_nodes))


def geometric_time_set(lam: float) -> np.ndarray:
    """{0} plus 2**-j for j = 0 .. ceil(2 log2 lam): both decay regimes of the
    kernel get stressed."""
    jmax = int(math.ceil(2.0 * math.log2(lam)))
    return np.concatenate([[0.0], 2.0 ** -np.arange(jmax + 1.0)])


# ---------------------------------------------------------------------------
# randomized bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSample:
    x: float
    y: float
    t1: float
    t2: float
    lam: float
    value: complex
    bound: float

    @property
    def ratio(self) -> float:
        return abs(self.value) / self.bound


@dataclass(frozen=True)
class KernelBoundReport:
    alpha: float
    gamma: float
    lams: tuple[float, ...]
    max_ratios: tuple[float, ...]
    worst: tuple[KernelSample, ...]
    seed: int
    count: int

    @property
    def non_growing(self) -> bool:
        """Pass condition: max ratio at the largest level is at most twice the
        max ratio at the smallest (the bound's constant does not grow)."""
        return self.max_ratios[-1] <= 2.0 * self.max_ratios[0]


# the fewest samples per level that verify_kernel_bound takes
_MIN_COUNT = 100


def verify_kernel_bound(alpha: float, gamma: float, lams, count: int,
                        seed: int) -> KernelBoundReport:
    """Seeded random samples (x, y, t1, t2) per level: the ratio of |kernel|
    along the Hölder curve of exponent alpha to the
    majorant with the table weights is reported as a per-level maximum.

    Positions keep |x - y| >= lam**-4 (coincidence cutoff); times are drawn
    from the geometric set.  All draws are made in one fixed sequence before
    any kernel evaluation, so a seed fixes every sample and every ratio.
    The draws are those of ``numpy.random.default_rng(seed)``, made by
    ``_pcg64.Stream`` without importing ``numpy.random``; a seed below 0
    raises ``DomainError``.
    """
    if count < _MIN_COUNT:
        raise DomainError(f"need at least {_MIN_COUNT} samples per level")
    lams = tuple(float(l) for l in lams)
    curve = holder_curve(alpha)
    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    beta = beta_table(alpha, gamma)

    rng = Stream(seed)
    draws = []
    for lam in lams:
        tset = geometric_time_set(lam)
        for _ in range(count):
            while True:
                x = rng.uniform(-1.0, 1.0)
                y = rng.uniform(-1.0, 1.0)
                if abs(x - y) >= lam ** -4:
                    break
            t1 = float(tset[rng.integers(0, tset.size)])
            t2 = float(tset[rng.integers(0, tset.size)])
            draws.append((x, y, t1, t2, lam))

    values = kernel_values(*np.array(draws, dtype=float).reshape(-1, 5).T,
                           params, curve).tolist()
    samples = [KernelSample(x, y, t1, t2, lam, value,
                            kernel_majorant(x, y, lam, beta, alpha, gamma))
               for (x, y, t1, t2, lam), value in zip(draws, values)]

    max_ratios, worst = [], []
    for i, lam in enumerate(lams):
        chunk = samples[i * count:(i + 1) * count]
        best = max(chunk, key=lambda s: s.ratio)
        max_ratios.append(best.ratio)
        worst.append(best)
    return KernelBoundReport(alpha, gamma, lams, tuple(max_ratios),
                             tuple(worst), seed, count)
