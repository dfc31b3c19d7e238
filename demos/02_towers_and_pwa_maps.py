"""Interval towers, Cantor geometry, and the piecewise-affine fixed point.

Stationary scaling data at the solved c* generates a nested tower of
labeled intervals whose generation ratios reproduce the scaling factor
exactly.  The piecewise-affine map interpolating the quadratic family at
the tower endpoints is infinitely renormalizable: renormalizing it
symbolically reproduces the map itself to rounding, while data off the
fixed point leaves a residual ten orders of magnitude larger.
"""

from renorm import (
    Period,
    ScalingSequence,
    build_pwa,
    build_tower,
    cantor_dimension,
    fixed_residual,
    hor_bound,
    ratio_report,
    renormalize,
    scaling_from_critical,
    solve_fixed_point,
    verify_combinatorics,
    verify_proper,
)

rep = solve_fixed_point(Period.THREE)
seq = ScalingSequence.stationary(Period.THREE, rep.c_star)
t = build_tower(seq, 8)

print("first two generations of the tripling tower:")
for n in (1, 2):
    for i in t.families:
        lo, hi = t.generations[n - 1][i]
        print(f"  I_{i}^{n} = [{lo:.8f}, {hi:.8f}]  (|.| = {t.size(n, i):.3e})")

t10 = build_tower(seq, 10)
margin, decay = verify_proper(t10)
print(f"properness margin = {margin:.6f} (distance to the simplex boundary)")
print(f"geometric decay |I_j^n| <= (1-margin)^n: {decay}")

rr = ratio_report(t)
print(f"generation ratios constant to {rr.max_deviation:.1e};"
      f" they equal the factor {tuple(round(x, 6) for x in rr.factor)}")

hb = hor_bound(t10)
print(f"bounded geometry: |I-hat_2^n|/|I_2^n|^2 in [1/rho, rho] with rho = {hb.rho}")
print(f"  (at the fixed point the ratio is exactly 1: {hb.ratios[0]:.9f}, ...)")

d3 = cantor_dimension(scaling_from_critical(Period.THREE, rep.c_star))
rep5 = solve_fixed_point(Period.FIVE)
d5 = cantor_dimension(scaling_from_critical(Period.FIVE, rep5.c_star))
print(f"Moran dimension of the attractor: {d3:.6f} (three) vs {d5:.6f} (five)")
print("  five ratios per scale pack more than three: the quintupling Cantor set is thicker")

print()
f = build_pwa(seq, 8)
print(f"piecewise-affine map: {len(f.branches)} affine branches over 8 generations")
print("interval cycle I_2 -> I_3 -> I_1 -> I_2 verified per generation:",
      [verify_combinatorics(f, n) for n in (1, 2, 3, 4)])

res = fixed_residual(seq, 8)
print(f"|R f - f| at the fixed point     = {res.sup_norm:.2e} over {res.evaluation_points} endpoints")
bad = fixed_residual(ScalingSequence.stationary(Period.THREE, 0.41), 8)
print(f"|R f - f| for stationary c=0.41  = {bad.sup_norm:.2e}  (not a fixed point)")

rf = renormalize(f)
print(f"renormalize() drops one generation: depth {f.depth} -> {rf.depth}")

seq5 = ScalingSequence.stationary(Period.FIVE, rep5.c_star)
res5 = fixed_residual(seq5, 6)
print(f"quintupling |R g - g|            = {res5.sup_norm:.2e}")
print("quintupling cycle I_2 -> I_5 -> I_1 -> I_3 -> I_4 -> I_2:",
      [verify_combinatorics(build_pwa(seq5, 6), n) for n in (1, 2, 3)])
