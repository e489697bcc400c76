"""Numerical laboratory for dispersive evolution with complex-time damping
sampled along Hölder curves: propagation, maximal fields, scaling-exponent
measurements, kernel bounds, and the sharp-exponent atlas."""

__version__ = "0.1.0"

from .atlas import (
    Breakpoint,
    ContinuityGap,
    ExponentQuery,
    ExponentResult,
    breakpoints,
    continuity_check,
    exponent,
    predicted_ratio_slope,
)
from .domain import (
    BumpProfile,
    BumpSpec,
    CounterexampleFamily,
    CurveSpec,
    EvolutionParams,
    SpectralFunction,
    amplitude_bound,
    build_counterexample,
    curve_eval,
    dilated_family,
    from_profile,
    holder_curve,
    identity_curve,
    make_bump,
    modulated_family,
    random_band_limited,
    scaling_interval,
    shear_curve,
    sobolev_norm,
    tabulated_curve,
    verify_curve_regularity,
    witness_interval,
    witness_time,
)
from .evolve import (
    PropagationPlan,
    SampledField,
    SliceGrid,
    direct_quadrature,
    evaluate_along_curve,
    field_value,
    make_plan,
    propagate_slice,
    slice_bound,
    slice_grid,
    slice_l2_norm,
    spectral_l2_norm,
)
from .kernel import (
    BetaChoice,
    CutoffSpec,
    KernelBoundReport,
    KernelSample,
    beta_table,
    kernel_eval,
    kernel_majorant,
    kernel_values,
    make_cutoff,
    schur_integral,
    verify_kernel_bound,
)
from .maximal import (
    LOWER_BOUND_LEVEL,
    ExponentFit,
    MaximalField,
    RatioResult,
    TimeGrid,
    build_time_grid,
    calibrate_smallness,
    check_ratio_resolution,
    fit_slope,
    fit_slope_guarded,
    l2_norm_field,
    maximal_field,
    maximal_ratio,
    witness_minimum,
)
