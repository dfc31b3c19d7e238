"""The renormalization horseshoe: a continuum of fixed points and ln 3.

Perturbing one interpolation node by a factor eps near 1 deforms the
return map; each eps has its own expanding fixed point, ordered
decreasingly in eps.  Three eps values give three expanding branches
over a common base, i.e. a horseshoe: every symbol sequence codes a
point, every cylinder is nonempty, and the coded critical points drive
scaling data whose piecewise-affine maps renormalize by the shift.
With m branches the count is m^n: the entropy of the operator on this
space is unbounded.
"""

import numpy as np

from renorm import (
    Word,
    build_branch_system,
    code_to_point,
    continuum_sweep,
    cylinder_counts,
    dense_orbit_word,
    entropy_estimate,
    shift_residual,
    symbol_scaling_sequence,
)

print("the eps-continuum of fixed points (c*_eps strictly decreasing):")
for eps, c, deriv in continuum_sweep(0.98, 1.02):
    print(f"  eps = {eps:.3f}: c*_eps = {c:.9f}, R'(c*_eps) = {deriv:.2f}")
print()

b = build_branch_system(1.02, 1.00, 0.98)
print("branch system at eps = (1.02, 1.00, 0.98):")
for i, (e, rep, dom) in enumerate(zip(b.epsilons, b.reports, b.domains)):
    print(f"  branch {i}: eps={e:.2f}, c_{i}* = {rep.c_star:.9f}, "
          f"dR/dc = {rep.derivative_estimate:.1f} (> 2), "
          f"A_{i} = [{dom[0]:.8f}, {dom[1]:.8f}]")
print()

word = Word((0, 2, 1, 0, 1, 2, 2, 0, 1, 0, 2, 1))
cod = code_to_point(b, word, 12)
print(f"coding of {word.symbols[:8]}...: c(alpha) = {cod.c_alpha:.12f}, "
      f"conjugacy residual {cod.residual:.1e}")

print("cylinder counts (full 3-shift):",
      cylinder_counts(b, 7))
print(f"entropy estimate at n=10: {entropy_estimate(b, 10):.9f} vs ln 3 = {np.log(3):.9f}")

b5 = build_branch_system(1.02, 1.01, 1.00, 0.99, 0.98)
print("five branches instead:", cylinder_counts(b5, 4),
      f"-> entropy ln 5 = {np.log(5):.4f}: unbounded in the alphabet size")
print()

seq = symbol_scaling_sequence(b, Word((0, 1, 2, 0, 1, 2)))
res = shift_residual(seq, 6)
print(f"symbol-driven map f_alpha: |R f_alpha - f_sigma(alpha)| = {res.sup_norm:.1e}")

w = dense_orbit_word(2)
print(f"dense-orbit word (all blocks of length <= 2): {w.symbols}")
print("its shift orbit visits every cylinder, giving critical points dense"
      " in the horseshoe's Cantor set")
