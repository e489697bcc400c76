"""Scale sweep: measured growth exponents against the sharp predictions.

For each family the maximal field is computed over the witness region across
a dyadic range of scales; the log-log slope of the norm ratio must match the
predicted sharp exponent.  (The acceptance suite runs the full four-point
version; this demo uses a reduced scale list to stay quick.)
"""

import time

from ctschro import dilated_family, modulated_family, predicted_ratio_slope
from ctschro.maximal import fit_slope_guarded, maximal_ratio

SCALES = [16.0, 32.0, 64.0, 128.0]

for make in (lambda R: dilated_family(0.25, 0.75, R),
             lambda R: modulated_family(1 / 3, 1.6, R)):
    t0 = time.perf_counter()
    qs = []
    for R in SCALES:
        res = maximal_ratio(make(R))
        qs.append(res.q)
        print(f"  R={R:5.0f}  lam={res.lam:9.1f}  Q={res.q:.6f}  "
              f"||sup field|| = {res.norm_maxfield:.3e}  "
              f"||f||_L2 = {res.norm_f_l2:.3e}")
    fit = fit_slope_guarded(SCALES, qs)
    fam = make(SCALES[0])
    print(f"{fam.kind}: fitted slope {fit.slope:+.4f}  "
          f"predicted {predicted_ratio_slope(fam):+.4f}  "
          f"(max residual {fit.max_residual:.1e}, "
          f"{time.perf_counter() - t0:.1f}s)\n")
