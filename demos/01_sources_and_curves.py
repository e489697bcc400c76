"""Spectral sources and curve families.

Shows the fixed smooth bump g, samples the two counterexample spectra,
and runs the empirical regularity checks for the built-in curves.
"""

import numpy as np

from ctschro import (
    build_counterexample,
    dilated_family,
    holder_curve,
    identity_curve,
    make_bump,
    modulated_family,
    shear_curve,
    sobolev_norm,
    verify_curve_regularity,
    witness_interval,
)

print("== the smooth bump g on [0, 1/2] ==")
g = make_bump()
grid = np.linspace(0.0, 0.5, 2001)
print(f"support mass  : {np.trapezoid(g(grid), grid):.12f} (target 1)")
print(f"peak position : {grid[np.argmax(g(grid))]:.3f} (center 0.25)")
print(f"square mass   : {g.integral(power=2):.6f}")

print("\n== counterexample spectra ==")
for fam in (dilated_family(0.25, 0.75, 64.0),
            modulated_family(0.5, 3.0, 64.0)):
    f = build_counterexample(fam)
    lo, hi = witness_interval(fam)
    print(f"{fam.kind:9s} R={fam.R:5.0f}  support [{f.xi_min:9.1f}, {f.xi_max:9.1f}]"
          f"  ||f||_L2 = {sobolev_norm(f, 0.0):.5f}"
          f"  witness interval (0, {hi:.3e})")

print("\nL2 scaling across R (expected ratio 1/2 per factor 4):")
n64 = sobolev_norm(build_counterexample(dilated_family(0.25, 0.75, 64.0)), 0.0)
n16 = sobolev_norm(build_counterexample(dilated_family(0.25, 0.75, 16.0)), 0.0)
print(f"  ||f_64|| / ||f_16|| = {n64 / n16:.9f}")

print("\n== curve regularity on a [-1,1] x [0,1] lattice ==")
for name, crv in [("identity", identity_curve()), ("shear", shear_curve()),
                  ("holder a=0.5", holder_curve(0.5)),
                  ("holder a=0.2", holder_curve(0.2))]:
    rep = verify_curve_regularity(crv)
    print(f"{name:13s}: lipschitz [{rep.c1_emp:.3f}, {rep.c2_emp:.3f}] "
          f"(ok={rep.bilipschitz_ok})  holder const {rep.c3_emp:.3f} "
          f"(ok={rep.holder_ok})")
