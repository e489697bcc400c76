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
``schur_integral`` evaluates a row integral in one call, and
``verify_kernel_bound`` all its draws in one call, after drawing them in
one fixed sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._numerics import _CHUNK, _DEAD, oscillatory_quadrature
from ._pcg64 import Stream
from .atlas import exponent
from .domain import (CurveSpec, EvolutionParams, _bump_shape, curve_eval,
                     holder_curve)
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


def cutoff(xi):
    """Psi: even C-infinity profile, positive on 1/2 < |xi| < 2, peak 1."""
    u = (np.abs(np.asarray(xi, dtype=float)) - _INNER) / (_OUTER - _INNER)
    return np.exp(4.0) * _bump_shape(u, 0.0, 1.0)


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
# samples per block of kernel_values: the block's band edges, one mirrored
# row of _CELLS + 1 per sample, are about one chunk of the shared rule
_SAMPLES = _CHUNK // (_CELLS + 1)


def kernel_values(x, y, t1, t2, lam, params: EvolutionParams,
                  curve: CurveSpec) -> np.ndarray:
    """The kernel at every sample (x, y, t1, t2, lam) of arrays that
    broadcast together, as a complex array of their broadcast shape, by
    refined quadrature over the annulus lam/2 <= |xi| <= 2*lam
    (damping-dead parts of the band are clipped).

    Each sample's dy, dt, damping and damping cap are Python floats; a
    sample whose cap lies at or below the inner band edge is exactly 0.  Each
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
        # _CELLS cells per band side resolve the cutoff profile; the shared
        # rule subdivides them where the phase or the damping varies fast
        edges = np.ascontiguousarray(np.linspace(a, b, _CELLS + 1, axis=-1))
        flat[live] = oscillatory_quadrature(
            edges, lambda xi, row: cutoff(xi / levels[row]),
            dys, dts, damps, 2.0, mirrored=True)
    return out


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
    if not (0.0 < a <= 1.0) or g <= 0.0:
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
    time assignment t(.) given as a callable on positions."""
    y_nodes = np.asarray(y_nodes, dtype=float)
    tx = float(t_assignment(x))
    ty = [float(t_assignment(float(yy))) for yy in y_nodes]
    values = kernel_values(x, y_nodes, tx, ty, lam, params, curve)
    # Python abs of each value: np.abs rounds differently in the last place
    vals = np.array([abs(v) for v in values.tolist()], dtype=float)
    return float(np.trapezoid(vals, y_nodes))


def clipped_power_assignment(alpha: float):
    """Structured time assignment t(x) = clip(x**(1/alpha), 0, 1), with
    negative positions mapped to 0."""
    def t_of(x):
        return min(1.0, max(0.0, x) ** (1.0 / alpha))
    return t_of


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
    if count < 100:
        raise DomainError("need at least 100 samples per level")
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
