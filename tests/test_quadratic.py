import math

import numpy as np
import pytest

from renorm.scaling import Period, eval_raw
from renorm.tower import LevelData, ScalingSequence, build_tower
from reference_values import ORBIT_0440262_K3, ORBIT_0440262_K4, U_044_AT_0


def test_eval_critical_value():
    assert eval_raw(0.44, 0.44) == 1.0


def test_eval_right_endpoint():
    assert eval_raw(0.44, 1.0) == 0.0


def test_eval_at_zero():
    assert abs(eval_raw(0.44, 0.0) - U_044_AT_0) < 1e-12


def test_iterate_zero_times():
    # the orbit starts at 0 and ends with the point 1.0 at index ONE
    for period in Period:
        o = period.orbit(0.44)
        assert o[0] == 0.0
        assert o[-1] == 1.0


def test_iterate_printed_parameter():
    o = Period.THREE.orbit(0.440262)
    assert abs(o[3] - ORBIT_0440262_K3) < 1e-12
    assert abs(o[4] - ORBIT_0440262_K4) < 1e-12


def test_orbit_matches_iterate():
    # o[k] is the k-fold composition u^k(0), bitwise, for k up to 2p - 2
    for period in Period:
        o = period.orbit(0.44)
        x = 0.0
        for k in range(2 * period.p - 1):
            assert o[k] == x
            x = eval_raw(0.44, x)


def test_not_symmetric_about_midpoint_unless_half():
    # guards against implementing a family symmetric about 1/2 such as the
    # logistic normal form; u_c is symmetric about its own critical point,
    # so the asymmetry shows up relative to the interval midpoint
    delta = 0.07
    assert eval_raw(0.44, 0.5 - delta) != pytest.approx(eval_raw(0.44, 0.5 + delta), abs=1e-6)
    assert eval_raw(0.5, 0.5 - delta) == pytest.approx(eval_raw(0.5, 0.5 + delta), abs=1e-15)
    # and about the critical point the quadratic family is exactly symmetric
    assert eval_raw(0.44, 0.44 - delta) == pytest.approx(eval_raw(0.44, 0.44 + delta), abs=1e-15)


@pytest.mark.parametrize("c", [0.3, 0.44, 0.49])
def test_monotone_branches(c):
    left = [eval_raw(c, float(x)) for x in np.linspace(0.0, c, 101)]
    right = [eval_raw(c, float(x)) for x in np.linspace(c, 1.0, 101)]
    assert all(b > a for a, b in zip(left[:-1], left[1:]))
    assert all(b < a for a, b in zip(right[:-1], right[1:]))


def test_critical_point_validation():
    # a critical point outside (0, 1), or NaN, is refused where it enters a tower
    for c in (0.0, 1.0, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError, match="critical point must lie in"):
            LevelData(c)
    # at c = 1 the orbit would divide by zero; the tower never reaches it
    with pytest.raises(ValueError, match="critical point must lie in"):
        build_tower(ScalingSequence.stationary(Period.THREE, 1.0), 2)
