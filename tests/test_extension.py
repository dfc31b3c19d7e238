import numpy as np
import pytest

from renorm.quadratic import eval_raw
from renorm.extension import (
    CurvePiece,
    FillerOvershoot,
    GapFiller,
    NonConvergent,
    SampledCurve,
    boxes,
    extend,
    graph_transform,
    lipschitz_profile,
    marked_points,
    max_slope_profile,
    quadratic_tip,
    seed_pieces,
    unimodal_check,
)
from renorm.scaling import Period
from reference_values import ORBIT3, TIP3, TIP5


def test_seed_k2_value_at_zero(f3):
    _, k2 = seed_pieces(f3)
    assert k2.pieces[0].ys[0] == pytest.approx(ORBIT3[1], abs=1e-13)


def test_seed_domains(f3):
    k1, k2 = seed_pieces(f3)
    t = f3.tower
    assert k2.pieces[0].lo == 0.0
    assert k2.pieces[-1].hi == pytest.approx(t.y(1), abs=1e-14)
    assert k1.pieces[0].lo == pytest.approx(t.z(1), abs=1e-14)
    assert k1.pieces[-1].hi == 1.0


def test_seed_fillers_monotone(f3):
    k1, k2 = seed_pieces(f3)
    for curve, sgn in ((k2, 1.0), (k1, -1.0)):
        for p in curve.pieces:
            if p.kind == "filler":
                assert np.all(sgn * p.ds >= -1e-15)
                assert np.all(np.diff(p.ys) * sgn > 0.0)


def test_junction_slopes_match_at_seed_ends(f3, curve3):
    # every marked point is a C1 junction of the assembled curve
    assert curve3.junction_mismatch() <= 1e-10


def test_depth_one_pieces_inside_first_box(f3):
    k1, k2 = seed_pieces(f3)
    curve = extend(k1, k2, depth=1)
    bx = boxes(f3.tower, 1)
    (xlo, xhi), (ylo, yhi) = bx[1]
    for p in curve.pieces:
        if p.level == 1:
            assert xlo - 1e-12 <= p.lo and p.hi <= xhi + 1e-12
            assert np.min(p.ys) >= ylo - 1e-12 and np.max(p.ys) <= yhi + 1e-12


def test_window_shrinks_geometrically(f3, curve3):
    s2 = f3.tower.factors[0].s[1]
    lo, hi = curve3.meta["window"]
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
    marked = {round(x, 12) for x, _ in marked_points(f3.tower, 12)}
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


def test_lipschitz_level_one_equals_seed(curve3):
    lam = lipschitz_profile(curve3)
    assert lam[1] == pytest.approx(lam[0], rel=1e-9)


def test_lipschitz_negative_control(f3):
    # inflate the vertical factor: s_last > s2^2 makes the bound grow
    t = f3.tower
    s2 = t.factors[0].s[1]
    F_bad = graph_transform(t, vertical_factor=1.2 * s2**2)
    k1, k2 = seed_pieces(f3)
    curve = extend(k1, k2, F=F_bad, depth=6)
    lam = lipschitz_profile(curve)
    assert lam[-1] > 2.0 * lam[0]
    assert lam[1] == pytest.approx(1.2 * lam[0], rel=1e-9)


def test_slope_decay(curve3):
    ms = max_slope_profile(curve3)
    assert all(b < a for a, b in zip(ms[:-1], ms[1:]))
    assert ms[-1] < 1e-3


def test_quadratic_tip_three(curve3, rep3):
    tip = quadratic_tip(curve3, rep3.c_star)
    assert tip == pytest.approx(TIP3, rel=1e-6)


def test_quadratic_tip_five(curve5, rep5):
    tip = quadratic_tip(curve5, rep5.c_star)
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
    curve = SampledCurve(pieces, Period.THREE, 0.5, (0.25, 0.25, 0.25))
    assert quadratic_tip(curve, 0.5) == pytest.approx(4.0, rel=1e-9)


def test_quadratic_tip_nonconvergent_guard():
    pieces = []
    for m in range(4):
        xs = np.linspace(0.3 - 0.1 / (m + 1), 0.3 - 0.05 / (m + 1), 64)
        ys = 1.0 - (2.0 + m) * (xs - 0.3) ** 2  # drifting curvature
        ds = -2.0 * (2.0 + m) * (xs - 0.3)
        pieces.append(CurvePiece(xs, ys, ds, m, "affine"))
    curve = SampledCurve(pieces, Period.THREE, 0.3, (0.25, 0.25, 0.25))
    with pytest.raises(NonConvergent):
        quadratic_tip(curve, 0.3)


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
    from renorm.scaling import Period
    from renorm.tower import ScalingSequence
    from renorm.pwa import build_pwa

    rep = solve_fixed_point_eps(0.98)
    seq = ScalingSequence.stationary(Period.THREE, rep.c_star, 0.98)
    f = build_pwa(seq, 8)
    s = f.tower.factors[0].s
    assert abs(s[1] ** 2 - s[2]) <= 1e-10
    curve = extend(*seed_pieces(f), depth=6)
    lam = lipschitz_profile(curve)
    assert all(b <= a * (1.0 + 1e-6) for a, b in zip(lam[:-1], lam[1:]))
    tip = quadratic_tip(curve, rep.c_star)
    assert tip == pytest.approx(1.0 / (1.0 - rep.c_star) ** 2, rel=1e-6)


def test_filler_overshoot_raises():
    filler = GapFiller()
    with pytest.raises(FillerOvershoot):
        filler.build(0.0, 1.0, 0.2, 0.8, 1.0, -1.0, 65)


def test_resolution_validation(f3):
    with pytest.raises(ValueError):
        seed_pieces(f3, resolution=16)
    k1, k2 = seed_pieces(f3)
    with pytest.raises(ValueError):
        extend(k1, k2, depth=0)
