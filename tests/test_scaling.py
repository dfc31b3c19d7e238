import random

import numpy as np
import pytest

from renorm.scaling import (
    DivisionGuard,
    EmptyDomain,
    Period,
    bisect,
    conditions,
    eval_raw,
    feasibility,
    feasible_domain,
    gaps,
    return_map,
    scaling_closed_form_tripling,
    scaling_from_critical,
)
from reference_domains import DOMAIN_HEXES
from reference_values import (
    C3_STAR,
    C5_STAR,
    FD3,
    FD3_6DP,
    FD5,
    FD5_6DP,
    GAPS3_STAR,
    GAPS5_STAR,
    R3_AT_041,
    S3_STAR,
    S5_STAR,
)


def _orbit(c, k):
    """[0, u(0), ..., u^k(0)] by plain iteration: the reference the orbit
    loop in renorm.scaling is checked against."""
    out = [0.0]
    for _ in range(k):
        out.append(eval_raw(c, out[-1]))
    return out


def test_factor_at_tripling_fixed_point():
    f = scaling_from_critical(Period.THREE, C3_STAR)
    assert f.is_valid
    assert np.allclose(f.s, S3_STAR, atol=1e-12, rtol=0)
    assert sum(f.s) < 1.0


def test_factor_invalid_outside_domain():
    f = scaling_from_critical(Period.THREE, 0.2)
    assert not f.is_valid
    assert min(f.s) <= 0.0


def test_factor_at_quintupling_fixed_point():
    f = scaling_from_critical(Period.FIVE, C5_STAR)
    assert f.is_valid
    assert np.allclose(f.s, S5_STAR, atol=1e-12, rtol=0)


def test_closed_form_matches_orbit_spotchecks():
    for c in (0.440262, 0.42):
        a = scaling_closed_form_tripling(c)
        b = scaling_from_critical(Period.THREE, c)
        assert np.allclose(a.s, b.s, atol=1e-10, rtol=0)


def test_closed_form_grid_cross_check(fd3):
    cs = []
    for lo, hi in fd3.intervals:
        cs.extend(np.arange(lo + 5e-4, hi, 1e-3))
    worst = 0.0
    for c in cs:
        a = scaling_closed_form_tripling(float(c))
        b = scaling_from_critical(Period.THREE, float(c))
        worst = max(worst, max(abs(x - y) for x, y in zip(a.s, b.s)))
    assert worst <= 1e-10


def test_closed_form_s3_limit_at_zero():
    # S_3(c) -> 1 as c -> 0+
    assert scaling_closed_form_tripling(1e-9).s[2] == pytest.approx(1.0, abs=1e-6)


def test_gaps_tripling_fixed_point():
    g = gaps(Period.THREE, C3_STAR)
    assert g.all_positive
    assert np.allclose(g.gaps, GAPS3_STAR, atol=1e-12, rtol=0)


def test_gaps_outside_domain():
    assert not gaps(Period.THREE, 0.1).all_positive


def test_gaps_quintupling_fixed_point():
    g = gaps(Period.FIVE, C5_STAR)
    assert g.all_positive
    assert np.allclose(g.gaps, GAPS5_STAR, atol=1e-12, rtol=0)


def test_feasibility_predicate():
    assert feasibility(Period.THREE, 0.44)
    assert not feasibility(Period.THREE, 0.3)
    assert feasibility(Period.FIVE, 0.387)
    assert not feasibility(Period.FIVE, 0.45)
    assert not feasibility(Period.THREE, 0.5)


def test_feasible_domain_three(fd3):
    assert len(fd3.intervals) == 2
    (a, b), (b2, c) = fd3.intervals
    assert b == b2
    for got, want, ref in zip((a, b, c), FD3, FD3_6DP):
        assert abs(got - want) < 1e-6
        assert abs(got - ref) < 1e-5
    # the interior puncture is where the first scaling component touches zero
    assert fd3.punctures and "S1" in fd3.punctures[0][1]


def test_feasible_domain_five(fd5):
    assert len(fd5.intervals) == 2
    (a, b), (_, c) = fd5.intervals
    for got, want, ref in zip((a, b, c), FD5, FD5_6DP):
        assert abs(got - want) < 1e-6
        assert abs(got - ref) < 1e-5
    assert fd5.punctures and "S1" in fd5.punctures[0][1]


@pytest.mark.parametrize("period, eps", [(Period.THREE, 1.0), (Period.FIVE, 1.0), (Period.THREE, 1.03)])
def test_each_puncture_is_refined_once(monkeypatch, period, eps):
    # all lengths touch zero at one point: one refinement names them all
    import renorm.scaling as sc

    calls = []
    refine = sc._refine_touch
    monkeypatch.setattr(sc, "_refine_touch", lambda *a: calls.append(a) or refine(*a))
    fd = feasible_domain(period, eps=eps)
    assert len(calls) == len(fd.punctures) == 1
    assert fd.punctures[0][1] == "+".join(f"S{j}" for j in range(1, period.p + 1))


def test_feasible_domain_coarse_scan_still_finds_it():
    fd = feasible_domain(Period.THREE, scan_step=1e-2)
    assert any(lo < 0.44 < hi for lo, hi in fd.intervals)
    assert abs(fd.intervals[0][0] - FD3[0]) < 1e-5
    assert abs(fd.intervals[-1][1] - FD3[2]) < 1e-5


@pytest.mark.parametrize("key", sorted(DOMAIN_HEXES))
def test_feasible_domain_bitwise_reference(key):
    period, eps, step = key
    fd = feasible_domain(Period(period), scan_step=step, eps=eps)
    assert {
        "intervals": [(a.hex(), b.hex()) for a, b in fd.intervals],
        "boundaries": [(c.hex(), name) for c, name in fd.boundaries],
        "punctures": [(c.hex(), name) for c, name in fd.punctures],
    } == DOMAIN_HEXES[key]


def test_feasible_domain_validates_arguments():
    with pytest.raises(ValueError):
        feasible_domain(Period.THREE, scan_step=0.5)
    with pytest.raises(ValueError):
        feasible_domain(Period.THREE, scan_step=float("nan"))
    with pytest.raises(ValueError, match=r"must lie in \[1e-6, 1e-2\]"):
        feasible_domain(Period.FIVE, scan_step=1e-9)  # 5e8 grid points if allowed


@pytest.mark.parametrize("eps", [float("inf"), float("-inf"), float("nan")])
def test_feasible_domain_refuses_a_non_finite_eps(eps):
    with pytest.raises(ValueError, match="eps must be finite"):
        feasible_domain(Period.THREE, eps=eps)


@pytest.mark.parametrize("eps", [1e152, 1e154, 1e155, 1e200, 1.7976931348623157e308])
def test_huge_eps_overflows_to_an_empty_domain_quietly(eps):
    # the orbit past the pull overflows; that reads as infeasible, and the
    # overflow raises no RuntimeWarning (an error under the test policy)
    with pytest.raises(EmptyDomain):
        feasible_domain(Period.THREE, eps=eps)


def test_bisect_takes_its_ends_in_either_order():
    third = 1.0 / 3.0
    up = bisect(lambda x: x < third, 0.0, 1.0, 1e-12)
    down = bisect(lambda x: x > third, 1.0, 0.0, 1e-12)
    assert abs(up - third) <= 1e-12 and abs(down - third) <= 1e-12
    # a keeps every midpoint keep holds at, however the bracket is ordered
    seen = []
    bisect(lambda x: seen.append(x) or True, 2.0, 1.0, 0.25)
    assert seen == [1.5, 1.25]


def test_return_map_fixed_points():
    assert abs(return_map(Period.THREE, 0.440262) - 0.440262) < 5e-5
    assert abs(return_map(Period.FIVE, 0.387226) - 0.387226) < 5e-4
    assert abs(return_map(Period.THREE, C3_STAR) - C3_STAR) < 1e-13
    assert abs(return_map(Period.FIVE, C5_STAR) - C5_STAR) < 1e-12


def test_return_map_no_fixed_point_at_041():
    r = return_map(Period.THREE, 0.41)
    assert abs(r - R3_AT_041) < 1e-12
    assert abs(r - 0.41) > 1.0


def test_scaling_eps_reduces_to_unperturbed():
    a = scaling_from_critical(Period.THREE, 0.440262, eps=1.0)
    b = scaling_from_critical(Period.THREE, 0.440262)
    assert a.s == b.s  # identical code path at eps = 1
    # and bitwise the printed unperturbed tri-factor of the plain orbit
    o = _orbit(0.440262, 4)
    assert a.s == (o[3], o[4] - o[1], 1.0 - o[2])


@pytest.mark.parametrize("eps", [0.98, 1.02])
def test_scaling_eps_positive_near_one(eps):
    f = scaling_from_critical(Period.THREE, 0.44, eps=eps)
    assert f.is_valid
    assert return_map(Period.THREE, 0.44, eps=eps) > 0.0


def test_eps_conditions_match_printed_tripling_formulas(fd3):
    # s1 = eps*u^3(0), s2 = u(eps*u^3(0)) - u(0), s3 = 1 - u^2(0) and the
    # gaps Gl = u(0) - s1, Gr = u^2(0) - u(s1), built from the plain orbit
    rng = random.Random(20100)
    for _ in range(40):
        lo, hi = fd3.intervals[rng.randrange(len(fd3.intervals))]
        c = rng.uniform(lo, hi)
        eps = rng.uniform(0.96, 1.04)
        o = _orbit(c, 3)
        s1 = eps * o[3]
        top = eval_raw(c, s1)
        want = (s1, top - o[1], 1.0 - o[2], o[1] - s1, o[2] - top)
        assert tuple(conditions(Period.THREE, c, eps)) == want
        assert scaling_from_critical(Period.THREE, c, eps).s == want[:3]
        assert return_map(Period.THREE, c, eps) == (top - c) / want[1]


@pytest.mark.parametrize(
    "period, eps",
    [(Period.THREE, 1.0), (Period.FIVE, 1.0), (Period.THREE, 0.96), (Period.THREE, 1.04)],
)
def test_array_return_map_nan_exactly_where_scalar_guard_trips(period, eps):
    # the array path must mask the s2 pole, not divide across it: NaN at
    # exactly the points where a scalar call raises, bitwise equal elsewhere
    cs = np.linspace(1e-4, 0.5 - 1e-4, 20001)
    vals = return_map(period, cs, eps)
    tripped = np.zeros(cs.shape, dtype=bool)
    want = np.full(cs.shape, np.nan)
    for k, c in enumerate(cs):
        try:
            want[k] = return_map(period, float(c), eps)
        except DivisionGuard:
            tripped[k] = True
    assert 0 < tripped.sum() < len(cs)  # the grid reaches both sides of the guard
    assert np.array_equal(np.isnan(vals), tripped)
    assert vals[~tripped].tobytes() == want[~tripped].tobytes()


def test_eps_feasibility_flag():
    assert feasibility(Period.THREE, 0.44, eps=0.98)
    assert feasibility(Period.THREE, 0.44, eps=1.02)
    with pytest.raises(ValueError):
        feasibility(Period.FIVE, 0.387, eps=0.98)
    with pytest.raises(ValueError):
        conditions(Period.FIVE, 0.387, eps=0.98)
    with pytest.raises(ValueError):
        return_map(Period.FIVE, 0.387, eps=0.98)
    with pytest.raises(ValueError):
        feasible_domain(Period.FIVE, eps=0.98)
    with pytest.raises(ValueError):
        scaling_from_critical(Period.FIVE, 0.387, eps=0.98)


def test_eps_must_be_positive():
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError):
            scaling_from_critical(Period.THREE, 0.44, eps=eps)
        with pytest.raises(ValueError):
            return_map(Period.THREE, 0.44, eps=eps)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_per_lane_eps_refuses_a_bad_lane(bad):
    # eps is one float: an eps array is refused, whatever its lanes hold
    lanes = np.full(5, 1.01)
    lanes[3] = bad
    with pytest.raises(ValueError):
        return_map(Period.THREE, np.full(5, 0.44), eps=lanes)


def test_per_lane_eps_refused_for_period_five():
    # even lanes of exactly 1.0: an eps array is refused, not read as eps = 1
    with pytest.raises(ValueError):
        return_map(Period.FIVE, np.full(4, 0.387), eps=np.ones(4))


def test_simplex_identity_on_feasible_grid(fd3):
    for lo, hi in fd3.intervals:
        for c in np.arange(lo + 5e-4, hi, 1e-3):
            f = scaling_from_critical(Period.THREE, float(c))
            assert f.is_valid
            assert 0.0 < sum(f.s) < 1.0


def test_orbit_interleaving_three(fd3):
    # the interleaving chain is equivalent to feasibility, so it holds on
    # the whole domain; the critical point sits inside the central interval
    # near the fixed point, not throughout
    for lo, hi in fd3.intervals:
        for c in np.linspace(lo + 1e-4, hi - 1e-4, 25):
            o = _orbit(float(c), 4)
            assert 0.0 < o[3] < o[1] < o[4] < o[2] < 1.0
    for c in np.linspace(C3_STAR - 1e-3, C3_STAR + 1e-3, 10):
        o = _orbit(float(c), 4)
        assert o[1] < c < o[4]


def test_orbit_interleaving_five(fd5):
    for lo, hi in fd5.intervals:
        for c in np.linspace(lo + 1e-4, hi - 1e-4, 25):
            o = _orbit(float(c), 8)
            assert 0.0 < o[5] < o[3] < o[8] < o[1] < o[6] < o[7] < o[2] < o[4] < 1.0
    for c in np.linspace(C5_STAR - 1e-4, C5_STAR + 1e-4, 10):
        o = _orbit(float(c), 8)
        assert o[3] < c < o[8]


def test_conditions_vectorized_matches_scalar():
    cs = np.array([0.41, 0.44, 0.45])
    vec = conditions(Period.THREE, cs)
    for j, c in enumerate(cs):
        scal = conditions(Period.THREE, float(c))
        assert np.allclose(vec[:, j], scal, atol=0, rtol=0)


def test_boundary_bisection_treats_nan_condition_as_infeasible(monkeypatch):
    # a NaN condition past c = 0.3 must end the feasible side there, as
    # np.min(...) > 0 made it; min() over a tuple would skip the NaN
    import renorm.scaling as sc

    def values(period, c, eps=1.0):
        return (0.1, float("nan") if c > 0.3 else 0.1, 0.1, 0.1, 0.1)

    monkeypatch.setattr(sc, "_condition_values", values)
    c, name = sc._bisect_boundary(Period.THREE, 0.1, 0.4)
    assert c == pytest.approx(0.3, abs=1e-11)
    assert name == "S2"
