"""Mathematical inputs: sampled spectra, smooth bump profiles, curve families
with empirical regularity checks, Sobolev norms, and the two frequency-localized
counterexample families used in the scaling experiments.

Conventions fixed here and used everywhere else:

* synthesis  f(x) = (1/2pi) * integral of exp(i x xi) fhat(xi) dxi,
* Plancherel ||f||_L2^2 = (1/2pi) * integral of |fhat|^2,
* a "band" lam means supp fhat inside {lam/2 <= |xi| <= 2*lam}.

All types are immutable after construction and every operation is a pure
function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    GridRangeError,
    RegimeError,
    ResolutionError,
    RootBracketError,
    SupportError,
)

__all__ = [
    "BumpSpec", "BumpProfile", "make_bump",
    "CurveSpec", "identity_curve", "shear_curve", "holder_curve",
    "tabulated_curve", "curve_eval", "RegularityReport",
    "verify_curve_regularity",
    "EvolutionParams",
    "SpectralFunction", "from_profile", "random_band_limited",
    "amplitude_bound", "sobolev_norm",
    "CounterexampleFamily", "dilated_family", "modulated_family",
    "build_counterexample", "witness_interval", "scaling_interval",
    "witness_time",
]


# ---------------------------------------------------------------------------
# smooth bump profiles
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


@dataclass(frozen=True)
class BumpSpec:
    """Parameters of a smooth nonnegative profile supported in [0, 1/2].

    ``normalization`` is the target value of the integral of the profile.
    """
    center: float = 0.25
    half_width: float = 0.25
    normalization: float = 1.0


class BumpProfile:
    """Evaluable smooth compactly supported profile with unit-by-default mass."""

    def __init__(self, spec: BumpSpec):
        lo = spec.center - spec.half_width
        hi = spec.center + spec.half_width
        if spec.half_width <= 0:
            raise SupportError("half_width must be positive")
        if lo < 0.0 or hi > 0.5:
            raise SupportError(
                f"support [{lo}, {hi}] leaves the admissible interval [0, 0.5]")
        self.lo = lo
        self.hi = hi
        self.spec = spec
        # trapezoid on a dense grid; the shape is C-infinity with all
        # derivatives vanishing at the support ends, so this converges faster
        # than any power of the step.
        grid = np.linspace(lo, hi, 20001)
        raw = np.trapezoid(_bump_shape(grid, lo, hi), grid)
        self.scale = spec.normalization / raw

    def __call__(self, u):
        return self.scale * _bump_shape(u, self.lo, self.hi)

    def integral(self, power: float = 1.0) -> float:
        """integral of profile**power over the support (dense trapezoid)."""
        grid = np.linspace(self.lo, self.hi, 20001)
        return float(np.trapezoid(self(grid) ** power, grid))


def make_bump(spec: BumpSpec = BumpSpec()) -> BumpProfile:
    """Build the smooth profile described by ``spec``.

    Raises ``SupportError`` when the requested support leaves [0, 1/2].
    """
    return BumpProfile(spec)


# ---------------------------------------------------------------------------
# curve families
# ---------------------------------------------------------------------------

_FAMILIES = ("identity", "shear", "holder_tangent", "tabulated")


@dataclass(frozen=True)
class CurveSpec:
    """A curve family Gamma(x, t) with declared regularity constants.

    c1, c2 bound |Gamma(x,t)-Gamma(x',t)| / |x-x'| from below/above, c3 bounds
    |Gamma(x,t)-Gamma(x,t')| / |t-t'|**alpha.  Built-in families:

    * identity:       Gamma(x, t) = x
    * shear:          Gamma(x, t) = x - t
    * holder_tangent: Gamma(x, t) = x - t**alpha
    * tabulated:      bilinear interpolation of a value table
    """
    family: str
    alpha: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    x_nodes: np.ndarray | None = field(default=None, repr=False)
    t_nodes: np.ndarray | None = field(default=None, repr=False)
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown curve family {self.family!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError("alpha must lie in (0, 1]")
        if self.family == "tabulated":
            if self.x_nodes is None or self.t_nodes is None or self.table is None:
                raise DomainError("tabulated curve needs x_nodes, t_nodes, table")


def identity_curve() -> CurveSpec:
    return CurveSpec("identity", alpha=1.0, c3=0.0)


def shear_curve() -> CurveSpec:
    return CurveSpec("shear", alpha=1.0, c3=1.0)


def holder_curve(alpha: float) -> CurveSpec:
    return CurveSpec("holder_tangent", alpha=alpha, c3=1.0)


def tabulated_curve(x_nodes, t_nodes, table, alpha, c1=1.0, c2=1.0, c3=1.0) -> CurveSpec:
    """Piecewise-bilinear curve from a table of Gamma values.

    ``table[i, j] = Gamma(x_nodes[j], t_nodes[i])``; the first time node must
    be 0 with ``table[0] == x_nodes`` so that Gamma(x, 0) = x.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    table = np.asarray(table, dtype=float)
    if table.shape != (t_nodes.size, x_nodes.size):
        raise DomainError("table shape must be (len(t_nodes), len(x_nodes))")
    if t_nodes[0] != 0.0 or not np.array_equal(table[0], x_nodes):
        raise DomainError("tabulated curve must satisfy Gamma(x, 0) = x")
    for arr in (x_nodes, t_nodes, table):
        arr.setflags(write=False)
    return CurveSpec("tabulated", alpha=alpha, c1=c1, c2=c2, c3=c3,
                     x_nodes=x_nodes, t_nodes=t_nodes, table=table)


def curve_eval(curve: CurveSpec, x, t):
    """Evaluate Gamma(x, t); vectorized over x and/or t.

    Gamma(x, 0) = x holds exactly for the built-in families.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if curve.family == "identity":
        return (x + 0.0 * t)
    if curve.family == "shear":
        return x - t
    if curve.family == "holder_tangent":
        return x - np.power(t, curve.alpha)
    # tabulated: bilinear, error outside the table
    xn, tn, tab = curve.x_nodes, curve.t_nodes, curve.table
    x_b, t_b = np.broadcast_arrays(x, t)
    if (x_b < xn[0]).any() or (x_b > xn[-1]).any() \
            or (t_b < tn[0]).any() or (t_b > tn[-1]).any():
        raise GridRangeError("tabulated curve queried outside its table")
    ix = np.clip(np.searchsorted(xn, x_b, side="right") - 1, 0, xn.size - 2)
    it = np.clip(np.searchsorted(tn, t_b, side="right") - 1, 0, tn.size - 2)
    wx = (x_b - xn[ix]) / (xn[ix + 1] - xn[ix])
    wt = (t_b - tn[it]) / (tn[it + 1] - tn[it])
    v00 = tab[it, ix]
    v01 = tab[it, ix + 1]
    v10 = tab[it + 1, ix]
    v11 = tab[it + 1, ix + 1]
    out = (1 - wt) * ((1 - wx) * v00 + wx * v01) + wt * ((1 - wx) * v10 + wx * v11)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RegularityReport:
    bilipschitz_ok: bool
    holder_ok: bool
    c1_emp: float
    c2_emp: float
    c3_emp: float
    c1_declared: float
    c2_declared: float
    c3_declared: float


def verify_curve_regularity(curve: CurveSpec, n_x: int = 41,
                            n_t: int = 41) -> RegularityReport:
    """Empirically check two-sided Lipschitz bounds in x and the Hölder bound
    in t on a lattice over [-1, 1] x [0, 1], up to a slack of 1e-12.

    Failures are reported, never raised.  The witnessed constants are the
    tightest ratios over all lattice pairs.
    """
    slack = 1e-12
    xs = np.linspace(-1.0, 1.0, n_x)
    ts = np.linspace(0.0, 1.0, n_t)
    if curve.family == "tabulated":
        xs = np.clip(xs, curve.x_nodes[0], curve.x_nodes[-1])
        ts = np.clip(ts, curve.t_nodes[0], curve.t_nodes[-1])

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
        bilipschitz_ok=(c1_emp >= curve.c1 * (1 - slack)
                        and c2_emp <= curve.c2 * (1 + slack)),
        holder_ok=(c3_emp <= curve.c3 * (1 + slack) + slack),
        c1_emp=c1_emp, c2_emp=c2_emp, c3_emp=c3_emp,
        c1_declared=curve.c1, c2_declared=curve.c2, c3_declared=curve.c3,
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
        nz = np.nonzero(self.samples)[0]
        if nz.size == 0:
            return (self.xi_min, self.xi_min)
        xi = self.grid()
        return (float(xi[nz[0]]), float(xi[nz[-1]]))

    def max_abs_xi(self) -> float:
        lo, hi = self.support()
        return max(abs(lo), abs(hi))

    def min_abs_xi(self) -> float:
        """Smallest |xi| carrying a nonzero sample (0 for an empty spectrum);
        two-sided bands with a spectral gap report the gap edge."""
        nz = np.nonzero(self.samples)[0]
        if nz.size == 0:
            return 0.0
        return float(np.min(np.abs(self.grid()[nz])))


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
                  [-R**b, -R**b + R/2], with modulation exponent b >= 1

    ``c`` is the smallness constant entering the witness interval and witness
    times; it can be re-calibrated (see maximal.calibrate_smallness).
    """
    kind: str
    alpha: float
    gamma: float
    R: float
    b: float | None = None
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
        if self.kind == "modulated":
            if self.b is None or self.b < 1:
                raise DomainError("modulated family needs b >= 1")
            if self.alpha <= 0.25:
                raise RegimeError("modulated family requires alpha > 1/4")
            if self.gamma < 1:
                raise RegimeError("modulated family requires gamma >= 1")

    @property
    def lam(self) -> float:
        """Effective frequency scale of the family."""
        if self.kind == "dilated":
            return self.R / 2.0
        return self.R ** self.b


def dilated_family(alpha, gamma, R, c=0.01) -> CounterexampleFamily:
    return CounterexampleFamily("dilated", alpha, gamma, R, None, c)


def modulated_family(alpha, gamma, R, b, c=0.01) -> CounterexampleFamily:
    return CounterexampleFamily("modulated", alpha, gamma, R, b, c)


def build_counterexample(fam: CounterexampleFamily,
                         n_samples: int = 2048) -> SpectralFunction:
    """Sample fhat_R, with g the default bump, on a grid exactly covering
    its support.

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


def witness_interval(fam: CounterexampleFamily) -> tuple[float, float]:
    """Open interval of positions x where the witness-time construction
    certifies a uniformly large evolved amplitude.

    Raises ``RegimeError`` when (gamma, b) fall outside the supported regimes.
    """
    a, g, c, R = fam.alpha, fam.gamma, fam.c, fam.R
    if fam.kind == "dilated":
        if g < 1:
            return (0.0, c * R ** (-2 * a / g))
        return (0.0, c * R ** (-2 * a))
    # modulated: b = gamma in [max(1/(2 alpha), 1), 2), or b = 2 with gamma >= 2
    if fam.b == 2.0 and g >= 2.0:
        return (0.0, c ** a * R ** (-2 * a) + 2 * c)
    if fam.b == g and max(1.0 / (2 * a), 1.0) <= g < 2.0:
        return (0.0, c ** a * R ** (-2 * a) + 2 * c * R ** (g - 2))
    raise RegimeError(
        f"modulated family with b={fam.b}, gamma={g} is outside the "
        "supported regimes (b = gamma in [max(1/(2 alpha), 1), 2) or "
        "b = 2 with gamma >= 2)")


def scaling_interval(fam: CounterexampleFamily) -> tuple[float, float]:
    """Subinterval of the witness interval whose length is a pure power of R.

    For the dilated family this is the witness interval itself.  For the
    modulated family the witness interval length is c**alpha * R**(-2 alpha)
    plus 2c * R**(gamma-2) (resp. 2c); the first term decays faster but has a
    much larger constant at small c, so slopes fitted on desk scales over the
    full interval are polluted by a transient.  The subinterval keeps only the
    term that carries the asymptotic scaling.
    """
    if fam.kind == "dilated":
        return witness_interval(fam)
    witness_interval(fam)  # regime validation
    if fam.b == 2.0 and fam.gamma >= 2.0:
        return (0.0, 2 * fam.c)
    return (0.0, 2 * fam.c * fam.R ** (fam.gamma - 2))


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
