import numpy as np
import pytest

from renorm.quadratic import DomainError, QuadraticUnimodal, eval_map, orbit
from reference_values import ORBIT_0440262_K3, ORBIT_0440262_K4, U_044_AT_0

U44 = QuadraticUnimodal(0.44)


def test_eval_critical_value():
    assert eval_map(U44, 0.44) == 1.0


def test_eval_right_endpoint():
    assert eval_map(U44, 1.0) == 0.0


def test_eval_at_zero():
    assert abs(eval_map(U44, 0.0) - U_044_AT_0) < 1e-12


def test_eval_domain_error():
    with pytest.raises(DomainError):
        eval_map(U44, 1.0 + 1e-9)
    with pytest.raises(DomainError):
        eval_map(U44, -1e-9)


def test_iterate_zero_times():
    assert orbit(U44, 0) == [0.0]


def test_iterate_printed_parameter():
    o = orbit(QuadraticUnimodal(0.440262), 4)
    assert abs(o[3] - ORBIT_0440262_K3) < 1e-12
    assert abs(o[4] - ORBIT_0440262_K4) < 1e-12


def test_orbit_matches_iterate():
    # o[k] is the k-fold composition u^k(0), bitwise
    o = orbit(U44, 5)
    x = 0.0
    for k in range(6):
        assert o[k] == x
        x = eval_map(U44, x)


def test_not_symmetric_about_midpoint_unless_half():
    # guards against implementing a family symmetric about 1/2 such as the
    # logistic normal form; u_c is symmetric about its own critical point,
    # so the asymmetry shows up relative to the interval midpoint
    delta = 0.07
    assert eval_map(U44, 0.5 - delta) != pytest.approx(eval_map(U44, 0.5 + delta), abs=1e-6)
    u5 = QuadraticUnimodal(0.5)
    assert eval_map(u5, 0.5 - delta) == pytest.approx(eval_map(u5, 0.5 + delta), abs=1e-15)
    # and about the critical point the quadratic family is exactly symmetric
    assert eval_map(U44, 0.44 - delta) == pytest.approx(eval_map(U44, 0.44 + delta), abs=1e-15)


@pytest.mark.parametrize("c", [0.3, 0.44, 0.49])
def test_monotone_branches(c):
    u = QuadraticUnimodal(c)
    left = [eval_map(u, float(x)) for x in np.linspace(0.0, c, 101)]
    right = [eval_map(u, float(x)) for x in np.linspace(c, 1.0, 101)]
    assert all(b > a for a, b in zip(left[:-1], left[1:]))
    assert all(b < a for a, b in zip(right[:-1], right[1:]))


def test_critical_point_validation():
    with pytest.raises(ValueError):
        QuadraticUnimodal(0.0)
    with pytest.raises(ValueError):
        QuadraticUnimodal(1.0)
