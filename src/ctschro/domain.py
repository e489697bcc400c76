"""Mathematical inputs: sampled spectra, the smooth bump, the curves
x - c3 t**alpha with empirical regularity checks, Sobolev norms, and the two
frequency-localized counterexample families used in the scaling experiments.

Conventions fixed here and used everywhere else:

* synthesis  f(x) = (1/2pi) * integral of exp(i x xi) fhat(xi) dxi,
* Plancherel ||f||_L2^2 = (1/2pi) * integral of |fhat|^2,
* a "band" lam means supp fhat inside {lam/2 <= |xi| <= 2*lam}.

All types are immutable after construction and every operation is a pure
function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    DomainError,
    RegimeError,
    ResolutionError,
    RootBracketError,
)

__all__ = [
    "BumpProfile", "make_bump",
    "CurveSpec", "identity_curve", "shear_curve", "holder_curve",
    "curve_eval", "RegularityReport",
    "verify_curve_regularity",
    "EvolutionParams",
    "SpectralFunction", "from_profile", "random_band_limited",
    "amplitude_bound", "sobolev_norm",
    "CounterexampleFamily", "dilated_family", "modulated_family",
    "build_counterexample", "scaling_law", "witness_interval",
    "scaling_interval", "witness_time",
]


# ---------------------------------------------------------------------------
# the smooth bump
# ---------------------------------------------------------------------------

def _bump_shape(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """exp(-1/((u-lo)(hi-u))) on (lo, hi), zero elsewhere; smooth everywhere."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > lo) & (u < hi)
    if inside.any():
        v = u[inside]
        out[inside] = np.exp(-1.0 / ((v - lo) * (hi - v)))
    return out


class BumpProfile:
    """The smooth nonnegative profile g of the counterexamples:
    exp(-1/(u (1/2 - u))) on (0, 1/2), scaled to unit mass."""

    lo = 0.0
    hi = 0.5

    def __init__(self):
        # trapezoid on a dense grid; the shape is C-infinity with all
        # derivatives vanishing at the support ends, so this converges faster
        # than any power of the step.
        grid = np.linspace(self.lo, self.hi, 20001)
        raw = np.trapezoid(_bump_shape(grid, self.lo, self.hi), grid)
        self.scale = 1.0 / raw

    def __call__(self, u):
        return self.scale * _bump_shape(u, self.lo, self.hi)

    def integral(self, power: float = 1.0) -> float:
        """integral of profile**power over the support (dense trapezoid)."""
        grid = np.linspace(self.lo, self.hi, 20001)
        return float(np.trapezoid(self(grid) ** power, grid))


@cache
def make_bump() -> BumpProfile:
    """The profile g, built on the first call and shared after it."""
    return BumpProfile()


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveSpec:
    """The curve Gamma(x, t) = x - c3 * t**alpha.

    The paper's curves are bi-Lipschitz in x with constants c1, c2 and
    alpha-Hölder in t with constant c3.  This form needs no field for c1 and
    c2: Gamma is an isometry in x, so c1 = c2 = 1.  Since
    |t**alpha - u**alpha| <= |t - u|**alpha, c3 is its Hölder constant.
    The identity is c3 = 0 and the shear is alpha = 1.
    """
    alpha: float = 1.0
    c3: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError("alpha must lie in (0, 1]")
        # make_plan sizes its query window by c3
        if not (0.0 <= self.c3 < np.inf):
            raise DomainError("c3 must be finite and nonnegative")


def identity_curve() -> CurveSpec:
    return CurveSpec(alpha=1.0, c3=0.0)


def shear_curve() -> CurveSpec:
    return CurveSpec(alpha=1.0, c3=1.0)


def holder_curve(alpha: float) -> CurveSpec:
    return CurveSpec(alpha=alpha, c3=1.0)


def curve_eval(curve: CurveSpec, x, t):
    """Evaluate Gamma(x, t); vectorized over x and/or t.

    Gamma(x, 0) = x holds exactly, since 0**alpha = 0.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return x - curve.c3 * np.power(t, curve.alpha)


@dataclass(frozen=True)
class RegularityReport:
    bilipschitz_ok: bool
    holder_ok: bool
    c1_emp: float
    c2_emp: float
    c3_emp: float


def verify_curve_regularity(curve: CurveSpec, n_x: int = 41,
                            n_t: int = 41) -> RegularityReport:
    """Empirically check two-sided Lipschitz bounds in x (both 1) and the
    Hölder bound c3 in t on a lattice over [-1, 1] x [0, 1], up to a slack
    of 1e-12.

    Failures are reported, never raised.  The witnessed constants are the
    tightest ratios over all lattice pairs.
    """
    slack = 1e-12
    xs = np.linspace(-1.0, 1.0, n_x)
    ts = np.linspace(0.0, 1.0, n_t)

    gam = np.empty((n_t, n_x))
    for i, t in enumerate(ts):
        gam[i] = curve_eval(curve, xs, t)

    iu, ju = np.triu_indices(n_x, k=1)
    dx = np.abs(xs[iu] - xs[ju])
    ratios = np.abs(gam[:, iu] - gam[:, ju]) / dx[None, :]
    c1_emp = float(ratios.min())
    c2_emp = float(ratios.max())

    pu, qu = np.triu_indices(n_t, k=1)
    dt_pow = np.abs(ts[pu] - ts[qu]) ** curve.alpha
    t_ratios = np.abs(gam[pu, :] - gam[qu, :]) / dt_pow[:, None]
    c3_emp = float(t_ratios.max())

    return RegularityReport(
        bilipschitz_ok=c1_emp >= 1 - slack and c2_emp <= 1 + slack,
        holder_ok=(c3_emp <= curve.c3 * (1 + slack) + slack),
        c1_emp=c1_emp, c2_emp=c2_emp, c3_emp=c3_emp,
    )


# ---------------------------------------------------------------------------
# evolution parameters and sampled spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionParams:
    """Dispersion exponent m, damping exponent gamma, and the damping switch.

    damping=False is the undamped oscillatory evolution; damping=True applies
    the multiplier exp(-t**gamma * |xi|**m) on top of the phase.
    """
    m: float = 2.0
    gamma: float = 1.0
    damping: bool = True

    def __post_init__(self):
        if self.m <= 0:
            raise DomainError("dispersion exponent m must be positive")
        if self.gamma <= 0:
            raise DomainError("damping exponent gamma must be positive")


@dataclass(frozen=True)
class SpectralFunction:
    """Complex samples of fhat on a uniform frequency grid.

    ``band`` optionally declares the dyadic level lam with supp fhat inside
    {lam/2 <= |xi| <= 2*lam}; it is validated on construction.
    """
    xi_min: float
    xi_max: float
    samples: np.ndarray
    band: float | None = None

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=complex)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise ResolutionError("need at least 2 samples")
        if not self.xi_min < self.xi_max:
            raise DomainError("xi_min must be below xi_max")
        if not np.isfinite(samples).all():
            raise DomainError("samples must be finite")
        if self.band is not None:
            lam = self.band
            xi = self.grid()
            outside = (np.abs(xi) < lam / 2) | (np.abs(xi) > 2 * lam)
            if np.any(samples[outside] != 0):
                raise DomainError(
                    f"declared band {lam} but samples do not vanish outside "
                    f"{{{lam/2} <= |xi| <= {2*lam}}}")

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def delta_xi(self) -> float:
        return (self.xi_max - self.xi_min) / (self.n_samples - 1)

    def grid(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.n_samples)

    def support(self) -> tuple[float, float]:
        """Frequency extent of the nonzero samples (grid extent if all zero)."""
        return self._support

    @cached_property
    def _support(self) -> tuple[float, float]:
        # the samples are read-only, so their extent is found once: every
        # slice and oracle call clips its band to it
        nz = np.nonzero(self.samples)[0]
        if nz.size == 0:
            return (self.xi_min, self.xi_min)
        xi = self.grid()
        return (float(xi[nz[0]]), float(xi[nz[-1]]))


def from_profile(fn, xi_min: float, xi_max: float, n_samples: int,
                 band: float | None = None) -> SpectralFunction:
    """Sample a callable spectral profile on a uniform grid."""
    xi = np.linspace(xi_min, xi_max, n_samples)
    return SpectralFunction(xi_min, xi_max, np.asarray(fn(xi), dtype=complex), band)


def random_band_limited(lam: float, seed: int, n_samples: int | None = None,
                        two_sided: bool = True) -> SpectralFunction:
    """Random smooth spectrum supported on the band {lam/2 <= |xi| <= 2*lam}.

    The profile is a smooth window on each band side times a random
    trigonometric polynomial of 12 modes with positions in [-2, 2], so the
    spectrum decays smoothly to zero at the band edges.  The default grid
    keeps the sample step at 1/16, which resolves the mode oscillation well
    past the interpolation order used downstream.  Raises ``DomainError``
    unless lam is finite and positive.
    """
    if not 0.0 < lam < np.inf:
        raise DomainError(f"band level lam must be finite and positive: {lam}")
    rng = np.random.default_rng(seed)
    span = 4.0 * lam if two_sided else 1.5 * lam
    if n_samples is None:
        n_samples = max(4096, int(16.0 * span) + 1)

    def one_side(xi, sgn):
        a, b = sgn * 2 * lam, sgn * lam / 2
        lo, hi = min(a, b), max(a, b)
        window = _bump_shape((xi - lo) / (hi - lo), 0.0, 1.0) * np.exp(4.0)
        coef = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        pos = rng.uniform(-2.0, 2.0, 12)
        waves = np.exp(1j * np.outer(xi, pos)) @ coef
        return window * waves

    if two_sided:
        xi_min, xi_max = -2.0 * lam, 2.0 * lam
        xi = np.linspace(xi_min, xi_max, n_samples)
        vals = np.zeros(n_samples, dtype=complex)
        right = xi >= lam / 2
        left = xi <= -lam / 2
        vals[right] = one_side(xi[right], +1)
        vals[left] = one_side(xi[left], -1)
    else:
        xi_min, xi_max = lam / 2, 2.0 * lam
        xi = np.linspace(xi_min, xi_max, n_samples)
        vals = one_side(xi, +1)
    return SpectralFunction(xi_min, xi_max, vals, band=lam)


def amplitude_bound(f: SpectralFunction) -> float:
    """A-priori sup bound (1/2pi) * integral |fhat| for any evolved amplitude."""
    return float(np.trapezoid(np.abs(f.samples), dx=f.delta_xi) / (2 * np.pi))


def sobolev_norm(f: SpectralFunction, s: float) -> float:
    """Sobolev norm ((1/2pi) * integral (1+xi^2)^s |fhat|^2 dxi)^(1/2).

    Composite trapezoid on the function's own grid; s = 0 is the L2 norm.
    """
    xi = f.grid()
    integrand = (1.0 + xi * xi) ** s * np.abs(f.samples) ** 2
    return float(np.sqrt(np.trapezoid(integrand, dx=f.delta_xi) / (2 * np.pi)))


# ---------------------------------------------------------------------------
# counterexample families
# ---------------------------------------------------------------------------

_KINDS = ("dilated", "modulated")


@dataclass(frozen=True)
class CounterexampleFamily:
    """Frequency-localized family fhat_R used in the lower-bound experiments.

    * dilated:    fhat_R(eta) = (1/R) g(eta / R), support [0, R/2]
    * modulated:  fhat_R(eta) = (1/R) g((eta + R**b) / R), support
                  [-R**b, -R**b + R/2], where balancing dispersion against
                  damping (``scaling_law``) gives b = min(gamma, 2)

    ``c`` is the smallness constant entering the witness interval and witness
    times; it can be re-calibrated (see maximal.calibrate_smallness).
    """
    kind: str
    alpha: float
    gamma: float
    R: float
    c: float = 0.01

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError("alpha must lie in (0, 1]")
        if self.gamma <= 0:
            raise DomainError("gamma must be positive")
        if self.R < 2:
            raise DomainError("scale parameter R must be >= 2")
        if not (0.0 < self.c < 1.0):
            raise DomainError("smallness constant c must lie in (0, 1)")
        scaling_law(self)   # RegimeError outside the supported regimes
        # critical times scale like lam**-2, which must be a positive double
        try:
            lam = self.lam
        except OverflowError:
            lam = np.inf
        if not lam ** -2.0 > 0.0:
            raise DomainError(f"scale R={self.R} is too large: lam = {lam} "
                              "gives no positive lam**-2")

    @property
    def m(self) -> float:
        """Dispersion exponent of the evolution the family is built for."""
        return 2.0

    @property
    def b(self) -> float | None:
        """Modulation exponent, derived; None for the dilated family."""
        return None if self.kind == "dilated" else min(self.gamma, _B_MAX)

    @property
    def lam(self) -> float:
        """Effective frequency scale of the family."""
        if self.kind == "dilated":
            return self.R / 2.0
        return self.R ** self.b


def dilated_family(alpha, gamma, R, c=0.01) -> CounterexampleFamily:
    return CounterexampleFamily("dilated", alpha, gamma, R, c)


def modulated_family(alpha, gamma, R, c=0.01) -> CounterexampleFamily:
    return CounterexampleFamily("modulated", alpha, gamma, R, c)


def build_counterexample(fam: CounterexampleFamily,
                         n_samples: int = 2048) -> SpectralFunction:
    """Sample fhat_R, with g the bump of ``make_bump``, on a grid exactly
    covering its support.

    The L2 norm scales as R**(-1/2); with ``n_samples`` fixed across scales the
    computed norms share one quadrature grid in the rescaled variable, so norm
    ratios across R are exact to rounding.
    """
    if n_samples < 64:
        raise ResolutionError("counterexample grid needs at least 64 nodes")
    g = make_bump()
    R = fam.R
    if fam.kind == "dilated":
        lo, hi = 0.0, R / 2.0
        vals = g(np.linspace(lo, hi, n_samples) / R) / R
        band = None
    else:
        shift = R ** fam.b
        lo, hi = -shift, -shift + R / 2.0
        eta = np.linspace(lo, hi, n_samples)
        vals = g((eta + shift) / R) / R
        band = shift
    return SpectralFunction(lo, hi, vals, band=band)


_B_MAX = 2.0   # the largest b, which b = gamma reaches at gamma = m/(m - 1)


def scaling_law(fam: CounterexampleFamily) -> tuple[float, float]:
    """Coefficient and R-exponent (coef, e) of the scaling interval's length
    coef * R**e; the only place that holds the families' regimes.

    * dilated:   (c, -2 alpha / min(gamma, 1));
    * modulated: (2c, gamma - 2) for gamma in [max(1/(2 alpha), 1), 2), and
                 (2c, 0) for gamma >= 2 with alpha > 1/4; else ``RegimeError``.

    b = min(gamma, 2) is the largest b for which the amplitude at N = R**b
    stays large up to t ~ R**-2, where the witness positions 2 N t span
    ~ R**(b - 2): at m = 2 the dispersion t N**(m-2) R**2 is O(1) there, the
    damping t**gamma N**m is iff b <= gamma, and the span is O(1) iff b <= 2.
    This balance is heuristic; the sweeps measure the laws it predicts.
    """
    a, g, c = fam.alpha, fam.gamma, fam.c
    if fam.kind == "dilated":
        return c, -2 * a / min(g, 1.0)
    if g >= _B_MAX and a > 0.25:
        return 2 * c, 0.0
    if max(1.0 / (2 * a), 1.0) <= g < _B_MAX:
        return 2 * c, g - 2
    raise RegimeError(
        f"modulated family with gamma={g}, alpha={a} (b={fam.b}) is outside "
        "the supported regimes (gamma in [max(1/(2 alpha), 1), 2), or "
        "gamma >= 2 with alpha > 1/4)")


def scaling_interval(fam: CounterexampleFamily) -> tuple[float, float]:
    """(0, coef * R**e) from ``scaling_law``: the subinterval of the witness
    interval whose length is a pure power of R.  For the modulated family it
    drops the witness interval's c**alpha * R**(-2 alpha) term, which decays
    faster but has a much larger constant at small c, so slopes fitted on
    desk scales over the whole witness interval are polluted by a transient.
    """
    coef, e = scaling_law(fam)
    return (0.0, coef * fam.R ** e)


def witness_interval(fam: CounterexampleFamily) -> tuple[float, float]:
    """Open interval of positions x where the witness-time construction
    certifies a uniformly large evolved amplitude: the scaling interval,
    widened for the modulated family by c**alpha * R**(-2 alpha)."""
    _, hi = scaling_interval(fam)
    if fam.kind == "modulated":
        hi = fam.c ** fam.alpha * fam.R ** (-2 * fam.alpha) + hi
    return (0.0, hi)


def witness_time(fam: CounterexampleFamily, x: float) -> float:
    """Time t_x at which the evolved amplitude of the family stays large at x.

    dilated:   t_x = x**(1/alpha).
    modulated: the unique root t in (0, c R**-2) of x - t**alpha - 2 R**b t = 0,
               found by bisection to absolute tolerance 1e-15 * R**-2 (the map
               t -> t**alpha + 2 R**b t is strictly increasing).
    """
    lo, hi = witness_interval(fam)
    if not (lo < x < hi):
        raise DomainError(f"x={x} outside the witness interval ({lo}, {hi})")
    if fam.kind == "dilated":
        return x ** (1.0 / fam.alpha)

    a, b_exp, c, R = fam.alpha, fam.b, fam.c, fam.R
    two_rb = 2.0 * R ** b_exp
    t_hi = c * R ** (-2)

    def resid(t):
        return t ** a + two_rb * t - x

    if resid(t_hi) < 0:
        raise RootBracketError(
            f"witness-time root not bracketed in (0, {t_hi}); "
            "inconsistent (c, R) pair")
    t_lo = 0.0
    tol = 1e-15 * R ** (-2)
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if mid <= t_lo or mid >= t_hi:
            break
        if resid(mid) < 0:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)
