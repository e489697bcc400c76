"""Oscillatory kernel of the linearized maximal operator composed with its
adjoint, the analytic majorant with its weight table, and Schur-type row
integrals, all for the quadratic dispersion m = 2:

    K(x, y, t1, t2) = integral exp(i ((Gamma(x,t1) - Gamma(y,t2)) xi
                                      + (t1 - t2) xi^2))
                      * exp(-(t1**gamma + t2**gamma) xi^2) * Psi(xi / lam) dxi

with Psi a smooth positive even cutoff supported on 1/2 <= |xi| <= 2.
|K| is always at most lam times the integral of Psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import _DEAD, oscillatory_quadrature
from .domain import (CurveSpec, EvolutionParams, _bump_shape, curve_eval,
                     holder_curve)
from .errors import DomainError, RegimeError

__all__ = [
    "CutoffSpec", "CutoffProfile", "make_cutoff",
    "kernel_eval", "BetaChoice", "beta_table", "kernel_majorant",
    "schur_integral", "KernelSample", "KernelBoundReport",
    "verify_kernel_bound",
]


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffSpec:
    """Support radii of the smooth even annular cutoff (defaults 1/2 and 2)."""
    inner: float = 0.5
    outer: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.inner < self.outer:
            raise DomainError("cutoff radii must satisfy 0 < inner < outer")


class CutoffProfile:
    """Even C-infinity profile, positive on inner < |xi| < outer, peak 1."""

    def __init__(self, spec: CutoffSpec = CutoffSpec()):
        self.spec = spec
        grid = np.linspace(spec.inner, spec.outer, 8193)
        self._one_side = float(np.trapezoid(self(grid), grid))

    def __call__(self, xi):
        inner, outer = self.spec.inner, self.spec.outer
        u = (np.abs(np.asarray(xi, dtype=float)) - inner) / (outer - inner)
        return np.exp(4.0) * _bump_shape(u, 0.0, 1.0)

    @property
    def integral(self) -> float:
        """integral of the cutoff over both support components."""
        return 2.0 * self._one_side


def make_cutoff(spec: CutoffSpec = CutoffSpec()) -> CutoffProfile:
    return CutoffProfile(spec)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def kernel_eval(x: float, y: float, t1: float, t2: float, lam: float,
                params: EvolutionParams, curve: CurveSpec,
                cutoff: CutoffProfile) -> complex:
    """Evaluate the kernel by refined quadrature over the annulus
    lam/2 <= |xi| <= 2*lam (damping-dead parts of the band are clipped)."""
    if params.m != 2.0:
        raise RegimeError("the kernel is defined for quadratic dispersion m = 2")
    if lam < 4.0:
        raise DomainError("frequency level lam must be at least 4")
    for t in (t1, t2):
        if not 0.0 <= t <= 1.0:
            raise DomainError("times must lie in [0, 1]")

    g = params.gamma
    dy = float(curve_eval(curve, x, t1)) - float(curve_eval(curve, y, t2))
    dt = t1 - t2
    damp = t1 ** g + t2 ** g

    inner = cutoff.spec.inner * lam
    outer = cutoff.spec.outer * lam
    cap = math.inf if damp == 0.0 else math.sqrt(_DEAD / damp)
    hi = min(outer, cap)
    if hi <= inner:
        return 0.0 + 0.0j
    # 96 cells per band side resolve the cutoff profile; the shared rule
    # subdivides them where the phase or the damping varies fast
    pos, neg = (oscillatory_quadrature(np.linspace(a, b, 97),
                                       lambda xi: cutoff(xi / lam),
                                       dy, dt, damp, 2.0)
                for a, b in ((inner, hi), (-hi, -inner)))
    return complex(pos + neg)


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


def beta_table(alpha: float, gamma: float) -> BetaChoice:
    """Optimal (beta1, beta2) per (alpha, gamma) regime, with the resulting
    row-integral exponent.  Raises ``RegimeError`` outside the table."""
    a, g = alpha, gamma
    if not (0.0 < a <= 1.0) or g <= 0.0:
        raise RegimeError(f"(alpha, gamma) = ({a}, {g}) outside the table")
    if a >= 0.5:
        if g < 1.0:
            return BetaChoice(0.0, 1.0 / (2 * g), 0.0, False)
        if g < 2.0:
            return BetaChoice(0.0, 1.0 / (2 * g), 1.0 - 1.0 / g, True)
        return BetaChoice(0.0, 0.0, 0.5, False)
    if a <= 0.25:
        if g < 2 * a:
            return BetaChoice(a / g, 1.0 / (2 * g), 0.0, False)
        if g < 1.0:
            return BetaChoice(a / g, 1.0 / (2 * g), 1.0 - 2 * a / g, True)
        return BetaChoice(0.0, 0.0, 1.0 - 2 * a, False)
    # 1/4 < alpha < 1/2
    if g < 2 * a:
        return BetaChoice(a / g, 1.0 / (2 * g), 0.0, False)
    if g < 1.0:
        return BetaChoice(a / g, 1.0 / (2 * g), 1.0 - 2 * a / g, True)
    if g < 1.0 / (2 * a):
        return BetaChoice(0.0, 1.0 / (2 * g), 1.0 - 2 * a, False)
    if g < 2.0:
        return BetaChoice(0.0, 1.0 / (2 * g), 1.0 - 1.0 / g, True)
    return BetaChoice(0.0, 0.0, 0.5, False)


def kernel_majorant(x: float, y: float, lam: float, beta: BetaChoice,
                    alpha: float, gamma: float) -> float:
    """Analytic decay majorant

        max{ min( lam^(-2 b1) / |x-y|^(g b1/a + 1/(2a)),
                  lam^(1-2 b1) / |x-y|^(g b1/a) ),
             lam^(1/2 - 2 b2 + g b2) / |x-y|^(1/2 + g b2) }.

    The kernel is bounded by a (beta-dependent) constant times this for all
    times; x = y is a coincidence error (negative powers of |x - y|).
    """
    d = abs(x - y)
    if d == 0.0:
        raise DomainError("majorant undefined at x = y")
    b1, b2 = beta.beta1, beta.beta2
    branch1 = min(lam ** (-2 * b1) / d ** (gamma * b1 / alpha + 1 / (2 * alpha)),
                  lam ** (1 - 2 * b1) / d ** (gamma * b1 / alpha))
    branch2 = lam ** (0.5 - 2 * b2 + gamma * b2) / d ** (0.5 + gamma * b2)
    return max(branch1, branch2)


# ---------------------------------------------------------------------------
# Schur row integrals
# ---------------------------------------------------------------------------

def schur_integral(x: float, lam: float, params: EvolutionParams,
                   curve: CurveSpec, cutoff: CutoffProfile,
                   t_assignment, y_nodes: np.ndarray) -> float:
    """Trapezoid over y in [-1, 1] of |K(x, y, t(x), t(y))| for a measurable
    time assignment t(.) given as a callable on positions."""
    y_nodes = np.asarray(y_nodes, dtype=float)
    tx = float(t_assignment(x))
    vals = np.empty(y_nodes.size)
    for i, yy in enumerate(y_nodes):
        vals[i] = abs(kernel_eval(x, float(yy), tx, float(t_assignment(float(yy))),
                                  lam, params, curve, cutoff))
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
    along the Hölder curve of exponent alpha, with the default cutoff, to the
    majorant with the table weights is reported as a per-level maximum.

    Positions keep |x - y| >= lam**-4 (coincidence cutoff); times are drawn
    from the geometric set.  All draws are made in one fixed sequence before
    any kernel evaluation, so a seed fixes every sample and every ratio.
    """
    if count < 100:
        raise DomainError("need at least 100 samples per level")
    lams = tuple(float(l) for l in lams)
    curve = holder_curve(alpha)
    cutoff = make_cutoff()
    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    beta = beta_table(alpha, gamma)

    rng = np.random.default_rng(seed)
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

    samples = [KernelSample(x, y, t1, t2, lam,
                            kernel_eval(x, y, t1, t2, lam, params, curve, cutoff),
                            kernel_majorant(x, y, lam, beta, alpha, gamma))
               for x, y, t1, t2, lam in draws]

    max_ratios, worst = [], []
    for i, lam in enumerate(lams):
        chunk = samples[i * count:(i + 1) * count]
        best = max(chunk, key=lambda s: s.ratio)
        max_ratios.append(best.ratio)
        worst.append(best)
    return KernelBoundReport(alpha, gamma, lams, tuple(max_ratios),
                             tuple(worst), seed, count)
