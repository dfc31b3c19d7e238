import pytest

from renorm.scaling import Period, eval_raw, return_map
from renorm.tower import LevelData, ScalingSequence
from renorm.pwa import (
    DepthExhausted,
    OutsideDomain,
    build_pwa,
    fixed_residual,
    renormalize,
    shift_residual,
    slope_profile,
    tip_ratios,
    verify_combinatorics,
)
from reference_values import ORBIT3, TIP3


def interpolation_defect(f):
    worst = 0.0
    for b in f.branches:
        for x in (b.lo, b.hi):
            worst = max(worst, abs(b.map(x) - eval_raw(f.c0, x)))
    return worst


def test_endpoints_interpolate_quadratic_three(f3):
    assert interpolation_defect(f3) <= 1e-14


def test_endpoints_interpolate_quadratic_five(f5):
    assert interpolation_defect(f5) <= 1e-14


def test_generation_one_branch_values(seq3):
    f = build_pwa(seq3, 2)
    b1 = next(b for b in f.branches if b.level == 1 and b.family == 1)
    assert b1.map(0.0) == pytest.approx(ORBIT3[1], abs=1e-14)
    assert b1.map(b1.hi) == pytest.approx(eval_raw(f.c0, b1.hi), abs=1e-14)
    # u(0) is the left end of the first central interval
    assert f.tower.generations[0][2][0] == pytest.approx(ORBIT3[1], abs=1e-14)


def test_affine_vs_quadratic_midpoint(f3):
    b1 = next(b for b in f3.branches if b.level == 1 and b.family == 1)
    mid = 0.5 * (b1.lo + b1.hi)
    v = f3(mid)
    assert min(b1.map(b1.lo), b1.map(b1.hi)) < v < max(b1.map(b1.lo), b1.map(b1.hi))
    assert abs(v - eval_raw(f3.c0, mid)) > 1e-5


def test_quintupling_branch_families(f5):
    fams = {b.family for b in f5.branches}
    assert fams == {1, 3, 4, 5}
    for m in range(1, f5.depth + 1):
        assert sum(1 for b in f5.branches if b.level == m) == 4


def test_eval_at_branch_endpoint(f3):
    w1 = f3.tower.generations[0][3][0]  # inner endpoint of I_3^1
    assert f3(w1) == pytest.approx(eval_raw(f3.c0, w1), abs=1e-13)


def test_eval_at_zero(f3):
    assert f3(0.0) == pytest.approx(ORBIT3[1], abs=1e-12)


def test_eval_in_gap_raises(f3):
    x1 = f3.tower.generations[0][1][1]  # inner endpoint of I_1^1
    y1 = f3.tower.y(1)
    with pytest.raises(OutsideDomain):
        f3(0.5 * (x1 + y1))  # inside the left gap


def test_eval_deeper_than_resolved_raises(f3):
    lo, hi = f3.tower.critical_enclosure
    with pytest.raises(OutsideDomain):
        f3(0.5 * (lo + hi))


def test_combinatorics_three(f3):
    assert all(verify_combinatorics(f3, n) for n in (1, 2, 3, 4))


def test_combinatorics_five(f5):
    assert all(verify_combinatorics(f5, n) for n in (1, 2, 3))


def test_combinatorics_fails_off_fixed_point():
    f = build_pwa(ScalingSequence.stationary(Period.THREE, 0.41), 4)
    assert not verify_combinatorics(f, 1)


def test_fixed_residual_three(seq3):
    assert fixed_residual(seq3, 8).sup_norm <= 1e-10


def test_fixed_residual_five(seq5):
    assert fixed_residual(seq5, 6).sup_norm <= 1e-10


@pytest.mark.parametrize("eps", [0.98, 1.02])
def test_fixed_residual_along_eps_continuum(eps):
    # each eps near 1 has its own piecewise-affine renormalization fixed point
    from renorm.solver import solve_fixed_point_eps

    rep = solve_fixed_point_eps(eps)
    seq = ScalingSequence.stationary(Period.THREE, rep.c_star, eps)
    assert fixed_residual(seq, 8).sup_norm <= 1e-9


def test_fixed_residual_negative_control():
    res = fixed_residual(ScalingSequence.stationary(Period.THREE, 0.41), 8)
    assert res.sup_norm > 1e-6


def test_renormalize_matches_shifted_tower(seq3):
    f = build_pwa(seq3, 8)
    rf = renormalize(f)
    assert rf.depth == 7
    g = build_pwa(seq3.shift(), 7)
    for bg in g.branches:
        for x in (bg.lo, bg.hi):
            assert abs(rf(x) - g(x)) <= 1e-10


def test_shift_identity_consistent_orbit_data():
    # backward return-map orbit: c_{m+1} = R(c_m), all inside the second
    # feasible component, a genuinely non-stationary consistent sequence
    target = 0.452
    cs = [target]
    for _ in range(5):
        lo, hi = 0.4302, 0.45631
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if return_map(Period.THREE, mid) < cs[-1]:
                lo = mid
            else:
                hi = mid
        cs.append(0.5 * (lo + hi))
    cs.reverse()
    levels = [LevelData(c) for c in cs]
    seq = ScalingSequence.from_levels(Period.THREE, levels)
    res = shift_residual(seq, 6)
    assert res.sup_norm <= 1e-9


def test_shift_identity_inconsistent_data_fails():
    levels = [LevelData(c) for c in (0.44, 0.45, 0.44, 0.45, 0.44, 0.45)]
    seq = ScalingSequence.from_levels(Period.THREE, levels)
    assert shift_residual(seq, 6).sup_norm > 1e-4


def test_depth_exhausted():
    seq = ScalingSequence.stationary(Period.THREE, 0.44)
    rf = renormalize(build_pwa(seq, 2))
    assert rf.depth == 1
    with pytest.raises(DepthExhausted):
        renormalize(rf)
    with pytest.raises(ValueError):
        build_pwa(seq, 1)


def test_pwa_tip_ratios(f3, rep3):
    # deepest retained level carries ~1e-8 of 1 - f(y_n), so the relative
    # noise floor of the ratio sits a little below 1e-8
    rs = tip_ratios(f3)
    assert len(rs) >= 3
    for r in rs:
        assert r == pytest.approx(TIP3, rel=1e-7)
    diffs = [abs(b - a) for a, b in zip(rs[:-1], rs[1:])]
    assert all(d < 1e-6 for d in diffs)


def test_branch_slopes_decay_three(f3):
    slopes = [s for s in slope_profile(f3, 1) if s > 1e-6]
    # below-C2 scaling: slopes contract by s2 per level until the values
    # near the critical value fall below float resolution
    assert len(slopes) >= 6
    assert all(b < a for a, b in zip(slopes, slopes[1:]))
    ratio = slopes[3] / slopes[2]
    assert ratio == pytest.approx(f3.tower.factors[0].s[1], rel=1e-7)


def test_branch_slopes_profile_five(f5):
    for fam in (1, 3, 4, 5):
        slopes = slope_profile(f5, fam)
        assert len(slopes) == f5.depth


def test_cycle_closure(f3):
    # f^p returns the central interval's endpoints into the central interval
    p = 3
    for n in (1, 2, 3):
        lo, hi = f3.tower.generations[n - 1][2]
        for x in (lo, hi):
            y = f3.iterate(x, p**n, tol=1e-9)
            assert lo - 1e-9 <= y <= hi + 1e-9
