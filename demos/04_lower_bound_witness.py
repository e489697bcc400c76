"""Witness-time lower bounds.

Scans the witness interval of a counterexample family: at the analytic
witness times the evolved amplitude stays above 1/(4 pi), which is what
forces the necessity direction of the sharp exponents.
"""

from ctschro import LOWER_BOUND_LEVEL, dilated_family, modulated_family
from ctschro.maximal import calibrate_smallness, witness_minimum

families = [
    dilated_family(0.25, 0.75, 64.0),
    dilated_family(0.25, 2.0, 64.0),
    modulated_family(1 / 3, 1.6, 64.0),
    modulated_family(0.5, 3.0, 64.0),
]

print(f"target level 1/(4 pi) = {LOWER_BOUND_LEVEL:.6f}\n")
for fam in families:
    cal, history = calibrate_smallness(fam, n_nodes=256)
    mn, xs, vals, ts = witness_minimum(cal, n_nodes=256)
    print(f"{fam.kind:9s} alpha={fam.alpha:.3f} gamma={fam.gamma:.2f} "
          f"b={fam.b}  c={cal.c}  min |amplitude| = {mn:.6f} "
          f"({'above' if mn >= LOWER_BOUND_LEVEL else 'BELOW'} the level)")
    print(f"           witness times span [{ts.min():.3e}, {ts.max():.3e}], "
          f"amplitude spread [{vals.min():.6f}, {vals.max():.6f}]")

print("\nno-motion regime (t = 0 on x < c/R):")
fam = dilated_family(0.25, 0.75, 64.0)
mn, *_ = witness_minimum(fam, n_nodes=256, t_zero=True)
print(f"min |amplitude| at t=0: {mn:.6f}")
