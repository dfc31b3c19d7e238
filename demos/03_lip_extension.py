"""Extending the affine fixed point to a C^{1+Lip} unimodal map.

Two seed curves cover everything outside the first central interval:
affine branches where the fixed point is defined, monotone C^1
interpolants across the gaps.  The box map (horizontal: the central
rescale; vertical contraction s3 = s2^2) pushes the seeds inward level
by level; slopes shrink by s2 per level while the Lipschitz constant of
the derivative transforms by s3/s2^2 = 1 and therefore never grows.
That flat profile at arbitrarily small scales is also the witness that
the limit is not C^2: the curvature never dies out, it just moves to
smaller windows around the critical point.
"""

from renorm import (
    Period,
    ScalingSequence,
    build_pwa,
    extend,
    lipschitz_profile,
    max_slope_profile,
    quadratic_tip,
    solve_fixed_point,
    unimodal_check,
)
from renorm.solver import solve_fixed_point_eps

for period, depth in ((Period.THREE, 8), (Period.FIVE, 6)):
    rep = solve_fixed_point(period)
    seq = ScalingSequence.stationary(period, rep.c_star)
    f = build_pwa(seq, 2)  # extend reads the first generation only
    curve = extend(f, depth)

    print(f"=== period {period.p} extension, {depth} transform levels ===")
    lam = lipschitz_profile(curve)
    print("Lipschitz profile per level:", [f"{x:.5f}" for x in lam])
    ms = max_slope_profile(curve)
    print("max |slope| per level:      ", [f"{x:.2e}" for x in ms])
    print(f"largest one-sided slope mismatch at the marked points: "
          f"{curve.junction_mismatch():.2e}")
    lo, hi = curve.window
    print(f"unresolved window around c*: width {hi - lo:.2e} "
          f"(bound s2^{depth} = {f.tower.factors[0].s[f.tower.central - 1]**depth:.2e})")
    tip = quadratic_tip(curve)
    print(f"quadratic tip: measured {tip:.9f} vs algebraic "
          f"{1.0 / (1.0 - rep.c_star)**2:.9f}")
    print(f"unimodal: {unimodal_check(curve)}")
    print()

# the continuum: every eps near 1 has its own fixed point, and the
# contraction identity s2^2 = s3 survives the perturbation, so the same
# extension machinery applies along the whole family
for eps in (0.98, 1.02):
    rep = solve_fixed_point_eps(eps)
    seq = ScalingSequence.stationary(Period.THREE, rep.c_star, eps)
    f = build_pwa(seq, 2)
    s = f.tower.factors[0].s
    curve = extend(f, 6)
    lam = lipschitz_profile(curve)
    s2 = s[f.tower.central - 1]
    print(f"eps = {eps}: c*_eps = {rep.c_star:.9f}, s2^2 - s3 = {s2**2 - s[-1]:.1e}, "
          f"lambda flat: {max(lam) - min(lam):.1e}")
