"""Kernel decay bounds.

Samples the oscillatory kernel at seeded random arguments and compares it to
the analytic majorant with the tabulated decay weights; also fits the growth
of the Schur row integral under the structured time assignment.
"""

import numpy as np

from ctschro import (
    EvolutionParams,
    beta_table,
    clipped_power_assignment,
    cutoff_mass,
    holder_curve,
    schur_integral,
    verify_kernel_bound,
)
from ctschro.maximal import fit_slope

print(f"cutoff mass over both band components: {cutoff_mass():.6f}\n")

for alpha, gamma in [(0.5, 2.0), (0.2, 0.5)]:
    row = beta_table(alpha, gamma)
    print(f"(alpha={alpha}, gamma={gamma}): weights beta1={row.beta1:.3f} "
          f"beta2={row.beta2:.3f}, row-integral exponent {row.i_exponent:.3f}"
          f"{' (+eps)' if row.eps_flag else ''}")

    rep = verify_kernel_bound(alpha, gamma, [16.0, 64.0, 256.0], 200, seed=11)
    ratios = "  ".join(f"2^{int(np.log2(l))}:{r:.3f}"
                       for l, r in zip(rep.lams, rep.max_ratios))
    print(f"  max |kernel| / majorant per level: {ratios}"
          f"  (non-growing: {rep.non_growing})")

    params = EvolutionParams(m=2.0, gamma=gamma, damping=True)
    curve = holder_curve(alpha)
    assign = clipped_power_assignment(alpha)
    lams = [16.0, 32.0, 64.0, 128.0]
    vals = [schur_integral(0.0, lam, params, curve, assign,
                           np.linspace(-1, 1, int(8 * lam) + 1))
            for lam in lams]
    fit = fit_slope(lams, vals)
    print(f"  Schur row integral slope {fit.slope:+.3f} "
          f"<= {row.i_exponent + 0.15:+.3f} allowed\n")
