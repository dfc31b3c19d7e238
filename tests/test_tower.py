import sys

import numpy as np
import pytest

from renorm.scaling import Period, ScalingFactor, bisect, gaps, scaling_from_critical
from renorm.tower import (
    DIM_TOL,
    DepthUnderflow,
    InvalidFactor,
    LevelData,
    ScalingSequence,
    build_tower,
    cantor_dimension,
    hor_bound,
    ratio_report,
    verify_proper,
)
from reference_bisections import CANTOR_DIMENSION_HEXES
from reference_values import MORAN3, MORAN5, ORBIT3, S3_STAR


def test_generation_one_intervals(seq3):
    t = build_tower(seq3, 1)
    s1, s2, s3 = t.factors[0].s
    u0 = ORBIT3[1]
    np.testing.assert_allclose(t.generations[0][1], (0.0, s1), atol=1e-14)
    np.testing.assert_allclose(t.generations[0][2], (u0, u0 + s2), atol=1e-12)
    np.testing.assert_allclose(t.generations[0][3], (1.0 - s3, 1.0), atol=1e-14)
    assert t.size(1, 2) == pytest.approx(s2, abs=0)


def test_central_sizes_are_products(seq3):
    t = build_tower(seq3, 6)
    s2 = t.factors[0].s[1]
    assert t.size(6, 2) == pytest.approx(s2**6, rel=1e-14)
    assert t.size(6, 2) == pytest.approx(1.3605e-6, rel=1e-3)  # 0.105265^6


def test_endpoint_labels_follow_orbit(seq3):
    t = build_tower(seq3, 4)
    assert t.y(0) == 1.0 and t.z(0) == 0.0
    assert t.y(1) == pytest.approx(ORBIT3[1], abs=1e-13)   # u(0)
    assert t.z(1) == pytest.approx(ORBIT3[4], abs=1e-13)   # u^4(0)
    assert t.generations[0][1][1] == pytest.approx(ORBIT3[3], abs=1e-13)  # x_1 = u^3(0)
    assert t.generations[0][3][0] == pytest.approx(ORBIT3[2], abs=1e-13)  # w_1 = u^2(0)
    # parity alternation: y odd = min, y even = max of the central interval
    for n in range(1, 5):
        lo, hi = t.generations[n - 1][2]
        if n % 2 == 1:
            assert t.y(n) == pytest.approx(lo, abs=0) and t.z(n) == pytest.approx(hi, abs=0)
        else:
            assert t.y(n) == pytest.approx(hi, abs=0) and t.z(n) == pytest.approx(lo, abs=0)


def test_nesting_and_disjointness(seq3, seq5):
    for seq, depth in ((seq3, 8), (seq5, 6)):
        t = build_tower(seq, depth)
        for n in range(2, depth + 1):
            plo, phi = t.generations[n - 2][2]
            for i in t.families:
                lo, hi = t.generations[n - 1][i]
                assert plo - 1e-12 <= lo and hi <= phi + 1e-12
        for n in range(1, depth + 1):
            ivs = sorted(t.generations[n - 1].values())
            for (_, b), (c, _) in zip(ivs[:-1], ivs[1:]):
                assert c - b > 0.0


def test_generation_gaps_scale_with_parent(seq3, rep3):
    t = build_tower(seq3, 6)
    g = gaps(Period.THREE, rep3.c_star)
    for n in range(2, 7):
        scale = t.size(n - 1, 2)
        ivs = sorted(t.generations[n - 1].values())
        measured = sorted((c - b) for (_, b), (c, _) in zip(ivs[:-1], ivs[1:]))
        assert np.allclose(measured, sorted(x * scale for x in g), rtol=1e-8)


def test_critical_enclosure(seq3, rep3):
    t = build_tower(seq3, 12)
    c = rep3.c_star
    for n in range(1, 13):
        lo, hi = t.generations[n - 1][2]
        assert lo < c < hi
    lo, hi = t.generations[-1][t.central]
    assert hi - lo == pytest.approx(t.factors[0].s[1] ** 12, rel=1e-12)


def test_verify_proper_stationary(seq3):
    margin, decay = verify_proper(build_tower(seq3, 10))
    assert margin == pytest.approx(S3_STAR[2], abs=1e-9)  # min component s3
    assert decay


def test_verify_proper_single_generation(seq3):
    margin, decay = verify_proper(build_tower(seq3, 1))
    assert margin > 0.0 and decay


def _generation_ratios(t, i):
    """|I_i^{n+1}| / |I_j^n| and |I_i^{n+1}| / |I_i^n| over n = 1..depth-1,
    with j the central family, as arrays."""
    ns = range(1, t.depth)
    over_center = np.array([t.size(n + 1, i) / t.size(n, t.central) for n in ns])
    over_parent = np.array([t.size(n + 1, i) / t.size(n, i) for n in ns])
    return over_center, over_parent


def _array_deviation(t):
    """ratio_report's max_deviation as the arrays of _generation_ratios give it."""
    s, j = t.factors[0].s, t.central
    dev = 0.0
    for i in t.families:
        oc, op = _generation_ratios(t, i)
        dev = max(dev, float(np.max(np.abs(oc - s[i - 1]))), float(np.max(np.abs(op - s[j - 1]))))
    return dev


def test_ratio_report_three(seq3):
    t = build_tower(seq3, 8)
    rr = ratio_report(t)
    assert rr.constant and rr.max_deviation <= 1e-12
    assert rr.max_deviation == _array_deviation(t)
    s = t.factors[0].s
    for i in (1, 2, 3):
        over_center, over_parent = _generation_ratios(t, i)
        assert np.allclose(over_center, s[i - 1], rtol=1e-12)
        assert np.allclose(over_parent, s[1], rtol=1e-12)


def test_ratio_report_five(seq5):
    t = build_tower(seq5, 6)
    rr = ratio_report(t)
    assert rr.constant
    assert rr.max_deviation == _array_deviation(t)
    s = t.factors[0].s
    for i in (1, 2, 3, 4, 5):
        over_center, _ = _generation_ratios(t, i)
        assert np.allclose(over_center, s[i - 1], rtol=1e-12)


def test_ratio_report_negative_control():
    # alternating critical points: the generation ratios leave the first
    # level's factor, and the report says so
    levels = [LevelData(c) for c in (0.44, 0.45, 0.44, 0.45, 0.44, 0.45)]
    t = build_tower(ScalingSequence.from_levels(Period.THREE, levels), 6)
    rr = ratio_report(t)
    assert not rr.constant and rr.max_deviation > 1e-6
    assert rr.max_deviation == _array_deviation(t)


def test_hor_bound_stationary(seq3):
    t = build_tower(seq3, 10)
    hb = hor_bound(t)
    assert hb.satisfied
    assert hb.rho <= 2.0
    assert np.allclose(hb.ratios, 1.0, atol=1e-5)


def test_hor_bound_single_generation_formula(seq3, rep3):
    t = build_tower(seq3, 1)
    hb = hor_bound(t)
    c = rep3.c_star
    y1 = t.y(1)
    s2 = t.factors[0].s[1]
    expect = (y1 - c) ** 2 / ((1.0 - c) ** 2 * s2**2)
    assert hb.ratios[0] == pytest.approx(expect, rel=1e-12)


def test_hor_bound_symbol_driven(bsys):
    from renorm.horseshoe import Word, symbol_scaling_sequence

    seq = symbol_scaling_sequence(bsys, Word((0, 1, 2, 2, 1, 0, 1, 2)))
    t = build_tower(seq, 8)
    hb = hor_bound(t)
    assert hb.satisfied and hb.rho <= 4.0


def test_cantor_dimension_equal_thirds():
    f = ScalingFactor(Period.THREE, (1 / 3, 1 / 3, 1 / 3))
    assert cantor_dimension(f) == pytest.approx(1.0, abs=1e-9)


def test_cantor_dimension_equal_ninths():
    f = ScalingFactor(Period.THREE, (1 / 9, 1 / 9, 1 / 9))
    assert cantor_dimension(f) == pytest.approx(0.5, abs=1e-11)


def test_cantor_dimension_fixed_points(rep3, rep5):
    d3 = cantor_dimension(scaling_from_critical(Period.THREE, rep3.c_star))
    d5 = cantor_dimension(scaling_from_critical(Period.FIVE, rep5.c_star))
    assert 0.0 < d3 < 1.0 and 0.0 < d5 < 1.0
    assert d3 == pytest.approx(MORAN3, abs=1e-9)
    assert d5 == pytest.approx(MORAN5, abs=1e-9)


@pytest.mark.parametrize("p", [3, 5])
def test_cantor_dimension_bitwise_reference(request, p):
    rep = request.getfixturevalue(f"rep{p}")
    f = scaling_from_critical(rep.period, rep.c_star)
    assert cantor_dimension(f).hex() == CANTOR_DIMENSION_HEXES[p]
    # the factor verify's tower suite reads off its stationary tower
    assert build_tower(ScalingSequence.stationary(rep.period, rep.c_star), 1).factors[0] == f


def _numpy_cantor_dimension(f):
    """cantor_dimension as it was computed on numpy arrays: the oracle."""
    s = np.asarray(f.s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise ValueError(f"need every component in (0, 1), got {f.s}")
    if float(np.sum(s)) > 1.0 + 1e-12:
        raise ValueError("component sum exceeds 1; no dimension in (0, 1]")
    if float(np.sum(s)) >= 1.0:
        return 1.0
    return bisect(lambda d: float(np.sum(s**d)) > 1.0, 1e-9, 1.0, DIM_TOL)


def _seeded_factors(n):
    """n factors of 3 or 5 components, uniform in the open simplex."""
    rng = np.random.default_rng(20261019)
    for k in rng.choice([3, 5], n):
        w = rng.exponential(size=k + 1)  # the last weight is the gap left to 1
        yield ScalingFactor(Period(int(k)), tuple((w[:k] / w.sum()).tolist()))


def test_cantor_dimension_is_the_numpy_form_bitwise(rep3, rep5):
    # in Python floats, with the C library's pow, against numpy's float64
    # power, which differs from it in the last bit at some exponents
    factors = [scaling_from_critical(rep.period, rep.c_star) for rep in (rep3, rep5)]
    factors += list(_seeded_factors(200))
    for f in factors:
        assert cantor_dimension(f).hex() == _numpy_cantor_dimension(f).hex(), f


def test_cantor_dimension_rejects_bad_factor():
    with pytest.raises(ValueError):
        cantor_dimension(ScalingFactor(Period.THREE, (0.5, -0.1, 0.2)))


def test_invalid_factor_raises_with_depth():
    seq = ScalingSequence.stationary(Period.THREE, 0.2)
    with pytest.raises(InvalidFactor) as err:
        build_tower(seq, 3)
    assert err.value.depth == 1


def test_sequence_shift(seq3, bsys):
    from renorm.horseshoe import Word, symbol_scaling_sequence

    seq = symbol_scaling_sequence(bsys, Word((0, 1, 2, 0)))
    shifted = seq.shift()
    assert len(shifted.data) == 3 and not shifted.repeats
    assert shifted.level(1) == seq.level(2)
    assert seq3.shift().level(5) == seq3.level(6)
    # the shift drops the first level and nothing else; past its length it has none
    assert shifted == ScalingSequence.from_levels(seq.period, seq.levels(4)[1:])
    for s in (seq, shifted):
        with pytest.raises(ValueError, match="has no level"):
            s.level(len(s.data) + 1)


def test_stationary_sequences_are_plain_data():
    # equal data compare equal, and a stationary shift is the sequence itself
    seq = ScalingSequence.stationary(Period.THREE, 0.44)
    assert seq == ScalingSequence.stationary(Period.THREE, 0.44)
    assert seq != ScalingSequence.stationary(Period.THREE, 0.44, 0.98)
    assert seq.shift() == seq
    assert seq.repeats and len(seq.data) == 1
    assert seq.level(1) == seq.level(1000) == LevelData(0.44)


def test_depth_underflow_raises(seq3):
    # |s2|^n at c* leaves the normal binary64 range at depth 315 (and reaches
    # 0.0 at 332); sizes stop being relatively precise there
    t = build_tower(seq3, 314)
    assert abs(t.chains[-1].a) >= sys.float_info.min
    assert t.size(314, 1) > 0.0
    for depth in (315, 332, 500):
        with pytest.raises(DepthUnderflow):
            build_tower(seq3, depth)


def test_quintupling_labels(seq5):
    t = build_tower(seq5, 4)
    # d/f, the images of the lower local ends of I_3 and I_4, are the min
    # endpoints at odd generations and max at even ones; e/g the other way
    for n in range(1, 5):
        H, loc = t.chains[n - 1], t.local[n - 1]
        d, e = H(loc[3][0]), H(loc[3][1])
        f, g = H(loc[4][0]), H(loc[4][1])
        lo3, hi3 = t.generations[n - 1][3]
        lo4, hi4 = t.generations[n - 1][4]
        if n % 2 == 1:
            assert d == lo3 and e == hi3
            assert f == lo4 and g == hi4
        else:
            assert d == hi3 and e == lo3
            assert f == hi4 and g == lo4
