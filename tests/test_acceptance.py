"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np

from renorm.scaling import Period, feasible_domain, scaling_from_critical
from renorm.solver import continuum_sweep, solve_fixed_point
from renorm.tower import ScalingSequence, build_tower, hor_bound
from renorm.pwa import fixed_residual, shift_residual, verify_combinatorics
from renorm.extension import lipschitz_profile, max_slope_profile, quadratic_tip
from renorm.horseshoe import Word, cylinder_count, build_branch_system, symbol_scaling_sequence
from reference_values import C3_6DP, C5_6DP, FD3_6DP, FD5_6DP
from cylinders import resolved_levels, widths_within_bounds


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_01_tripling_fixed_point():
    t0 = time.perf_counter()
    rep = solve_fixed_point(Period.THREE)
    dt = time.perf_counter() - t0
    err = abs(rep.c_star - C3_6DP)
    ok = err <= 1e-5 and dt < 1.0
    _report(1, ok, f"c3*={rep.c_star:.7f} err={err:.2e} (<=1e-5), runtime={dt:.2f}s (<1s)")


def test_criterion_02_tripling_feasible_domain():
    t0 = time.perf_counter()
    fd = feasible_domain(Period.THREE, scan_step=1e-4)
    dt = time.perf_counter() - t0
    got = (fd.intervals[0][0], fd.intervals[0][1], fd.intervals[1][1])
    errs = [abs(g - w) for g, w in zip(got, FD3_6DP)]
    ok = max(errs) <= 1e-5 and dt < 5.0
    _report(2, ok, f"boundaries={[f'{g:.6f}' for g in got]} max err={max(errs):.2e} "
                   f"(<=1e-5), runtime={dt:.2f}s (<5s)")


def test_criterion_03_quintupling_fixed_point_and_domain():
    rep = solve_fixed_point(Period.FIVE)
    fd = feasible_domain(Period.FIVE, scan_step=1e-4)
    got = (fd.intervals[0][0], fd.intervals[0][1], fd.intervals[1][1])
    errs = [abs(rep.c_star - C5_6DP)] + [abs(g - w) for g, w in zip(got, FD5_6DP)]
    ok = max(errs) <= 1e-5
    _report(3, ok, f"c5*={rep.c_star:.7f}, boundaries={[f'{g:.6f}' for g in got]}, "
                   f"max err={max(errs):.2e} (<=1e-5)")


def test_criterion_04_scaling_identity(rep3, rep5):
    s3 = scaling_from_critical(Period.THREE, rep3.c_star).s
    s5 = scaling_from_critical(Period.FIVE, rep5.c_star).s
    d3 = abs(s3[1] ** 2 - s3[2])
    d5 = abs(s5[1] ** 2 - s5[4])
    ok = d3 <= 1e-10 and d5 <= 1e-10
    _report(4, ok, f"|s2^2-s3|={d3:.2e}, |s2^2-s5|={d5:.2e} (<=1e-10)")


def test_criterion_05_closed_form_cross_check(fd3):
    from renorm.scaling import scaling_closed_form_tripling

    worst = 0.0
    for lo, hi in fd3.intervals:
        for c in np.arange(lo + 5e-4, hi, 1e-3):
            a = scaling_closed_form_tripling(float(c)).s
            b = scaling_from_critical(Period.THREE, float(c)).s
            worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    ok = worst <= 1e-10
    _report(5, ok, f"max componentwise closed-form vs orbit gap={worst:.2e} (<=1e-10)")


def test_criterion_06_renormalization_fixed_point(seq3, seq5):
    r3 = fixed_residual(seq3, 8).sup_norm
    r5 = fixed_residual(seq5, 6).sup_norm
    bad = fixed_residual(ScalingSequence.stationary(Period.THREE, 0.41), 8).sup_norm
    ok = r3 <= 1e-9 and r5 <= 1e-9 and bad > 1e-6
    _report(6, ok, f"|Rf-f|={r3:.2e} (d8), |Rg-g|={r5:.2e} (d6) (<=1e-9); "
                   f"negative control at c=0.41: {bad:.2e} (>1e-6)")


def test_criterion_07_shift_identity_random_words(bsys):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(20):
        word = Word(tuple(int(x) for x in rng.integers(0, 3, size=6)))
        seq = symbol_scaling_sequence(bsys, word)
        worst = max(worst, shift_residual(seq, 6).sup_norm)
    ok = worst <= 1e-9
    _report(7, ok, f"20 random length-6 words: max |Rf_a - f_sigma(a)|={worst:.2e} (<=1e-9)")


def test_criterion_08_combinatorics(f3, f5):
    ok3 = all(verify_combinatorics(f3, n) for n in (1, 2, 3, 4))
    ok5 = all(verify_combinatorics(f5, n) for n in (1, 2, 3))
    ok = ok3 and ok5
    _report(8, ok, f"tripling cycle n<=4: {ok3}; quintupling cycle n<=3: {ok5}")


def test_criterion_09_expansiveness_and_horseshoe(rep3, rep5, bsys):
    derivs = [r.derivative_estimate for r in bsys.reports]
    cs = [row[1] for row in continuum_sweep(0.98, 1.02)]
    decreasing = all(b < a for a, b in zip(cs[:-1], cs[1:]))
    ok = (
        abs(rep3.derivative_estimate) > 1.0
        and abs(rep5.derivative_estimate) > 1.0
        and all(d > 2.0 for d in derivs)
        and decreasing
    )
    _report(9, ok, f"R'(c3*)={rep3.derivative_estimate:.1f}, R'(c5*)="
                   f"{rep5.derivative_estimate:.1f} (>1); branch derivatives="
                   f"{[f'{d:.1f}' for d in derivs]} (>2); sweep decreasing={decreasing}")


def _measured_levels_ok(b):
    """At every resolved level k: m^k nonempty cylinders, each as wide as
    the certificate's slope bounds say.  Returns (ok, deepest level)."""
    levels, bounds = resolved_levels(b)
    ok = all(
        np.count_nonzero(w > 0.0) == b.alphabet**k and widths_within_bounds(b, k, w, bounds)
        for k, w in levels
    )
    return ok and len(levels) >= 5, len(levels)


def test_criterion_10_entropy(bsys):
    t0 = time.perf_counter()
    counts_ok = all(cylinder_count(bsys, n) == 3**n for n in range(1, 11))
    ent = np.log(cylinder_count(bsys, 10)) / 10.0
    ent_ok = abs(ent - np.log(3.0)) <= 0.01
    b5 = build_branch_system(1.02, 1.01, 1.00, 0.99, 0.98)
    ok5 = all(cylinder_count(b5, n) == 5**n for n in range(1, 7))
    meas3, k3 = _measured_levels_ok(bsys)
    meas5, k5 = _measured_levels_ok(b5)
    dt = time.perf_counter() - t0
    ok = counts_ok and ent_ok and ok5 and meas3 and meas5 and dt < 30.0
    _report(10, ok, f"3^n counts n<=10: {counts_ok}; entropy(10)={ent:.6f} "
                    f"(ln3 +/- 0.01); 5^n counts n<=6: {ok5}; measured counts and "
                    f"widths within the certified slope bounds: 3 letters k<={k3}: {meas3}, "
                    f"5 letters k<={k5}: {meas5}; runtime={dt:.1f}s (<30s)")


def test_criterion_11_extension_regularity(curve3):
    lam = lipschitz_profile(curve3)
    noninc = all(b <= a * (1 + 1e-6) for a, b in zip(lam[:-1], lam[1:]))
    slopes = max_slope_profile(curve3)
    mismatch = curve3.junction_mismatch()
    ok = noninc and len(lam) >= 9 and slopes[8] < 1e-3 and mismatch <= 1e-6
    _report(11, ok, f"lambda non-increasing over 8 levels: {noninc}; max slope at "
                    f"level 8={slopes[8]:.2e} (<1e-3); junction mismatch={mismatch:.2e} (<=1e-6)")


def test_criterion_12_quadratic_tip(curve3, curve5, rep3, rep5):
    t3 = quadratic_tip(curve3)
    t5 = quadratic_tip(curve5)
    e3 = abs(t3 * (1 - rep3.c_star) ** 2 - 1.0)
    e5 = abs(t5 * (1 - rep5.c_star) ** 2 - 1.0)
    ok = e3 <= 1e-6 and e5 <= 1e-6
    _report(12, ok, f"tip rel errors vs 1/(1-c*)^2: three={e3:.2e}, five={e5:.2e} (<=1e-6)")


def test_criterion_13_hor_bound(seq3, seq5, bsys):
    hb3 = hor_bound(build_tower(seq3, 10))
    hb5 = hor_bound(build_tower(seq5, 10))
    seq_sym = symbol_scaling_sequence(bsys, Word((0, 1, 2, 2, 1, 0, 0, 1, 2, 1)))
    hbs = hor_bound(build_tower(seq_sym, 10))
    ok = hb3.satisfied and hb5.satisfied and hbs.satisfied
    _report(13, ok, f"rho exists for n<=10: stationary three (rho={hb3.rho}), "
                    f"five (rho={hb5.rho}), symbol-driven (rho={hbs.rho})")
