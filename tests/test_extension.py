import numpy as np
import pytest

from renorm.extension import (
    MAX_RESOLUTION,
    CurvePiece,
    FillerOvershoot,
    NonConvergent,
    SampledCurve,
    boxes,
    extend,
    fill_gap,
    lipschitz_profile,
    max_slope_profile,
    quadratic_tip,
    seed_pieces,
    unimodal_check,
)
from renorm.pwa import build_pwa
from renorm.scaling import Period, eval_raw
from renorm.tower import ScalingSequence
from reference_values import ORBIT3, TIP3, TIP5


def test_seed_k2_value_at_zero(f3):
    _, k2 = seed_pieces(f3)
    assert k2[0].ys[0] == pytest.approx(ORBIT3[1], abs=1e-13)


def test_seed_domains(f3):
    k1, k2 = seed_pieces(f3)
    t = f3.tower
    assert k2[0].lo == 0.0
    assert k2[-1].hi == pytest.approx(t.y(1), abs=1e-14)
    assert k1[0].lo == pytest.approx(t.z(1), abs=1e-14)
    assert k1[-1].hi == 1.0


def test_seed_fillers_monotone(f3):
    k1, k2 = seed_pieces(f3)
    for pieces, sgn in ((k2, 1.0), (k1, -1.0)):
        for p in pieces:
            if p.kind == "filler":
                assert np.all(sgn * p.ds >= -1e-15)
                assert np.all(np.diff(p.ys) * sgn > 0.0)


def test_junction_slopes_match_at_seed_ends(f3, curve3):
    # every marked point is a C1 junction of the assembled curve
    assert curve3.junction_mismatch() <= 1e-10


def test_depth_one_pieces_inside_first_box(f3):
    curve = extend(f3, 1)
    bx = boxes(f3.tower, 1)
    (xlo, xhi), (ylo, yhi) = bx[1]
    for p in curve.pieces:
        if p.level == 1:
            assert xlo - 1e-12 <= p.lo and p.hi <= xhi + 1e-12
            assert np.min(p.ys) >= ylo - 1e-12 and np.max(p.ys) <= yhi + 1e-12


def test_window_shrinks_geometrically(f3, curve3):
    s2 = f3.tower.factors[0].s[1]
    lo, hi = curve3.window
    assert hi - lo <= s2**8


def test_curve_hits_quadratic_at_tower_endpoints(f3, curve3):
    t = f3.tower
    xs = curve3.grid
    ys = curve3.values
    for n in range(1, 6):
        for point in (t.y(n), t.z(n)):
            i = int(np.argmin(np.abs(xs - point)))
            assert abs(xs[i] - point) < 1e-12
            assert ys[i] == pytest.approx(eval_raw(f3.c0, point), abs=1e-11)


def test_junctions_are_marked_points(f3, curve3):
    # the marked points p_1 .. p_12 sit at y_1, z_1, ..., y_6, z_6
    t = f3.tower
    marked = {round(x, 12) for k in range(1, 7) for x in (t.y(k), t.z(k))}
    for j in curve3.junctions():
        if j["left_level"] == j["right_level"] == 0:
            continue  # interior seed junctions within K1/K2
        if min(j["left_level"], j["right_level"]) >= 1 and j["left_level"] == j["right_level"]:
            continue  # images of interior seed junctions
    # at least the first few marked points appear among junction abscissae
    junction_xs = {round(j["x"], 12) for j in curve3.junctions()}
    hits = sum(1 for x in marked if x in junction_xs)
    assert hits >= 6


def test_lipschitz_profile_non_increasing(curve3):
    lam = lipschitz_profile(curve3)
    assert len(lam) == 9  # seed level plus eight transform levels
    assert all(b <= a * (1.0 + 1e-6) for a, b in zip(lam[:-1], lam[1:]))


@pytest.mark.parametrize("period, refused", [(Period.THREE, 9), (Period.FIVE, 7)])
def test_resolution_guard_leaves_only_non_increasing_profiles(rep3, rep5, period, refused):
    # every accepted depth prints a profile non-increasing within 1e-6; the
    # first refused one is where the samples drop below MIN_SAMPLE_ULPS
    # (p3 level 9 would rise 1.6e-5, p5 level 7 is 6e-5 off level 0)
    rep = rep3 if period is Period.THREE else rep5
    f = build_pwa(ScalingSequence.stationary(period, rep.c_star), 2)
    for depth in range(1, refused):
        lam = lipschitz_profile(extend(f, depth))
        assert all(b <= a * (1.0 + 1e-6) for a, b in zip(lam[:-1], lam[1:]))
    for depth in (refused, refused + 1):
        with pytest.raises(NonConvergent, match=f"level {refused} of {depth}: samples closer than"):
            extend(f, depth)


def test_lipschitz_level_one_equals_seed(curve3):
    lam = lipschitz_profile(curve3)
    assert lam[1] == pytest.approx(lam[0], rel=1e-9)


def test_lipschitz_negative_control():
    # off the fixed point s_last != s2^2: at c = 0.42 the derivative's
    # Lipschitz constant grows by s3/s2^2 = 1.608 per level
    f = build_pwa(ScalingSequence.stationary(Period.THREE, 0.42), 2)
    s = f.tower.factors[0].s
    ratio = s[2] / s[1] ** 2
    assert ratio > 1.5
    lam = lipschitz_profile(extend(f, 6))
    assert lam[-1] > 10.0 * lam[0]
    assert lam[1] == pytest.approx(ratio * lam[0], rel=1e-9)


def test_extension_reads_first_generation_only(seq3, f3):
    # a depth-2 map extends to the same curve, bitwise, as the depth-10 one
    shallow = extend(build_pwa(seq3, 2), 8)
    deep = extend(f3, 8)
    assert shallow.window == deep.window
    assert len(shallow.pieces) == len(deep.pieces)
    for a, b in zip(shallow.pieces, deep.pieces):
        assert (a.level, a.kind) == (b.level, b.kind)
        for xa, xb in ((a.xs, b.xs), (a.ys, b.ys), (a.ds, b.ds)):
            assert np.array_equal(xa, xb)


def test_slope_decay(curve3):
    ms = max_slope_profile(curve3)
    assert all(b < a for a, b in zip(ms[:-1], ms[1:]))
    assert ms[-1] < 1e-3


def test_quadratic_tip_three(curve3, rep3):
    tip = quadratic_tip(curve3)
    assert tip == pytest.approx(TIP3, rel=1e-6)


def test_quadratic_tip_five(curve5, rep5):
    tip = quadratic_tip(curve5)
    assert tip == pytest.approx(TIP5, rel=1e-6)


def test_quadratic_tip_symmetric_control():
    # synthetic curve sampling the symmetric family around c = 1/2
    pieces = []
    for m in range(4):
        a = 0.5 - 2.0 ** (-m - 2)
        b = 0.5 - 2.0 ** (-m - 3)
        xs = np.linspace(a, b, 64)
        ys = eval_raw(0.5, xs)
        ds = -2.0 * (xs - 0.5) / 0.25
        pieces.append(CurvePiece(xs, ys, ds, m, "affine"))
    curve = SampledCurve(pieces, 0.5, (0.5 - 2.0**-6, 0.5))
    assert quadratic_tip(curve) == pytest.approx(4.0, rel=1e-9)


def test_quadratic_tip_nonconvergent_guard():
    pieces = []
    for m in range(4):
        xs = np.linspace(0.3 - 0.1 / (m + 1), 0.3 - 0.05 / (m + 1), 64)
        ys = 1.0 - (2.0 + m) * (xs - 0.3) ** 2  # drifting curvature
        ds = -2.0 * (2.0 + m) * (xs - 0.3)
        pieces.append(CurvePiece(xs, ys, ds, m, "affine"))
    curve = SampledCurve(pieces, 0.3, (0.3 - 0.0125, 0.3))
    with pytest.raises(NonConvergent):
        quadratic_tip(curve)


def test_unimodal(curve3, curve5):
    assert unimodal_check(curve3)
    assert unimodal_check(curve5)


def test_contraction_identity(f3, f5):
    s3 = f3.tower.factors[0].s
    s5 = f5.tower.factors[0].s
    assert abs(s3[1] ** 2 - s3[2]) <= 1e-10
    assert abs(s5[1] ** 2 - s5[4]) <= 1e-10


def test_quintupling_profiles(curve5):
    lam = lipschitz_profile(curve5)
    assert all(b <= a * (1.0 + 1e-6) for a, b in zip(lam[:-1], lam[1:]))
    assert max_slope_profile(curve5)[-1] < 1e-3
    assert curve5.junction_mismatch() <= 1e-6


def test_extension_along_eps_continuum():
    # the contraction identity s2^2 = s3 persists along the eps-family,
    # so each perturbed fixed point extends with a flat Lipschitz profile
    from renorm.solver import solve_fixed_point_eps

    rep = solve_fixed_point_eps(0.98)
    seq = ScalingSequence.stationary(Period.THREE, rep.c_star, 0.98)
    f = build_pwa(seq, 8)
    s = f.tower.factors[0].s
    assert abs(s[1] ** 2 - s[2]) <= 1e-10
    curve = extend(f, 6)
    lam = lipschitz_profile(curve)
    assert all(b <= a * (1.0 + 1e-6) for a, b in zip(lam[:-1], lam[1:]))
    tip = quadratic_tip(curve)
    assert tip == pytest.approx(1.0 / (1.0 - rep.c_star) ** 2, rel=1e-6)


def test_filler_overshoot_raises():
    with pytest.raises(FillerOvershoot):
        fill_gap(0.0, 1.0, 0.2, 0.8, 1.0, -1.0, 65)


def test_filler_falls_back_to_rational_quadratic():
    # slopes 3 and 3 across a secant of 1 make the cubic overshoot; the
    # rational quadratic form matches the same data monotonically
    p = fill_gap(0.0, 1.0, 0.0, 1.0, 3.0, 3.0, 65)
    assert np.all(np.diff(p.ys) > 0.0)
    assert (p.ys[0], p.ys[-1]) == pytest.approx((0.0, 1.0), abs=1e-15)
    assert (p.ds[0], p.ds[-1]) == pytest.approx((3.0, 3.0), rel=1e-12)


def test_resolution_validation(f3):
    with pytest.raises(ValueError):
        seed_pieces(f3, resolution=16)
    with pytest.raises(ValueError):
        extend(f3, 8, resolution=16)
    with pytest.raises(ValueError, match="must lie in"):
        seed_pieces(f3, resolution=MAX_RESOLUTION + 1)
    with pytest.raises(ValueError):
        extend(f3, 0)
