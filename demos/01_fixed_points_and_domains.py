"""Where period-tripling and period-quintupling renormalization lives.

The orbit of 0 under the quadratic family u_c determines a scaling
factor: three lengths (s1, s2, s3) for period three, five lengths for
period five.  A critical point is feasible when all components and all
inter-interval gaps are positive; the induced return map R sends c to
the critical point of the once-renormalized map, and its unique fixed
point is the self-similar configuration everything else builds on.
"""

import numpy as np

from renorm import (
    Period,
    feasible_domain,
    return_map,
    scaling_closed_form_tripling,
    scaling_from_critical,
    solve_fixed_point,
)

for period in (Period.THREE, Period.FIVE):
    print(f"=== period {period.p} ===")
    fd = feasible_domain(period)
    print("feasible domain:")
    for lo, hi in fd.intervals:
        print(f"  ({lo:.6f}, {hi:.6f})")
    for c, name in fd.boundaries:
        print(f"  boundary {c:.6f}: {name} vanishes")
    for c, name in fd.punctures:
        print(f"  interior puncture {c:.6f}: {name} all touch zero"
              f" (the critical orbit degenerates to a short cycle there)")

    rep = solve_fixed_point(period, fd)
    print(f"fixed point c* = {rep.c_star:.12f}")
    print(f"  |R(c*) - c*|  = {rep.residual:.2e}")
    print(f"  R'(c*)        = {rep.derivative_estimate:.3f}  (expanding: {rep.expanding})")
    f = scaling_from_critical(period, rep.c_star)
    print(f"  scaling factor s* = {tuple(round(x, 9) for x in f.s)}")
    print(f"  sum(s*) = {sum(f.s):.6f} < 1")
    s2 = f.s[period.comb.central_family - 1]  # the central interval's factor
    print(f"  s2^2 - s_last = {s2**2 - f.s[-1]:.2e}  (the contraction identity)")
    print()

# the printed closed forms and the orbit computation are two independent
# routes to the same tripling factor
fd = feasible_domain(Period.THREE)
worst = 0.0
for lo, hi in fd.intervals:
    for c in np.arange(lo + 5e-4, hi, 1e-3):
        a = scaling_closed_form_tripling(float(c)).s
        b = scaling_from_critical(Period.THREE, float(c)).s
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
print(f"closed form vs orbit, componentwise over the tripling domain: {worst:.2e}")

# off the fixed point the return map moves points apart
print(f"R(0.41) = {return_map(Period.THREE, 0.41):.4f}  (0.41 is not fixed)")
