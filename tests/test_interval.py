"""The outward-rounded Interval against exact rationals, and the
enclosures return_map gives of the horseshoe's branches against 50-digit
mpmath values."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv, mp

from renorm.interval import Interval, Jet
from renorm.scaling import Period, return_map

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _random_interval(rng):
    scale = 10.0 ** rng.integers(-8, 9)
    a, b = sorted(rng.uniform(-1.0, 1.0, 2) * scale)
    return Interval(a, b)


def _samples(x, rng):
    return [x.lo, x.hi, *rng.uniform(x.lo, x.hi, 3)]


def _contains(x, exact: Fraction) -> bool:
    return Fraction(x.lo) <= exact <= Fraction(x.hi)


@pytest.mark.parametrize("op", sorted(OPS))
def test_operations_contain_the_exact_results(op):
    rng = np.random.default_rng(9000 + ord(op))
    f = OPS[op]
    checked = 0
    for _ in range(300):
        x, y = _random_interval(rng), _random_interval(rng)
        if op == "/" and y.lo <= 0.0 <= y.hi:
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        z = f(x, y)
        for a in _samples(x, rng):
            for b in _samples(y, rng):
                assert _contains(z, f(Fraction(a), Fraction(b))), (op, x, y, a, b)
                checked += 1
        # a float operand is the point interval on either side
        b = float(y.hi)
        assert _contains(f(x, b), f(Fraction(x.lo), Fraction(b)))
        if op != "/" or not x.lo <= 0.0 <= x.hi:
            assert _contains(f(b, x), f(Fraction(b), Fraction(x.hi)))
    assert checked > 1000


def test_square_contains_the_exact_squares():
    rng = np.random.default_rng(9100)
    for _ in range(300):
        x = _random_interval(rng)
        sq = x.square()
        assert sq.lo >= 0.0
        for a in _samples(x, rng):
            assert _contains(sq, Fraction(a) ** 2)
    # x * x is the square of one variable, not the product of two
    x = Interval(-1.0, 2.0)
    assert (x * x).lo == 0.0 and (x * Interval(-1.0, 2.0)).lo < -1.9


def test_bounds_move_one_ulp_outward():
    z = Interval(0.1, 0.1) + Interval(0.2, 0.2)
    assert z.lo == math.nextafter(0.1 + 0.2, -math.inf)
    assert z.hi == math.nextafter(0.1 + 0.2, math.inf)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    with pytest.raises(ZeroDivisionError):
        1.0 / Interval(0.0, 1.0)


def _orbit_r(c, eps, num):
    """R(c, eps) for the period-three pull, written out independently of
    the package: o1 = u(0), o2 = u(o1), o3 = eps*u(o2), o4 = u(o3)."""
    u = lambda x: 1 - ((x - c) / (1 - c)) ** 2
    o1 = u(num(0))
    o2 = u(o1)
    o3 = num(eps) * u(o2)
    o4 = u(o3)
    return (o4 - c) / (o4 - o1)


@pytest.mark.parametrize("name", ["bsys", "bsys5"])
def test_branch_enclosures_contain_50_digit_values(request, name):
    b = request.getfixturevalue(name)
    mp.dps = iv.dps = 50
    rng = np.random.default_rng(9200 + b.alphabet)
    try:
        for (a, z), e in zip(b.domains, b.epsilons):
            whole = return_map(Period.THREE, Jet(Interval(a, z), Interval(1.0, 1.0)), e)
            whole_r, whole_dr = whole.val, whole.der
            for c in [a, z, *rng.uniform(a, z, 6)]:
                c = float(c)
                r = _orbit_r(mp.mpf(c), e, mp.mpf)
                dr = mp.diff(lambda t: _orbit_r(t, e, mp.mpf), mp.mpf(c))
                assert whole_r.lo <= r <= whole_r.hi
                assert whole_dr.lo <= dr <= whole_dr.hi
                # the value-only point image holds mpmath's own 50-digit interval
                point = return_map(Period.THREE, Interval(c, c), e)
                ref = _orbit_r(iv.mpf(c), e, iv.mpf)
                assert point.lo <= ref.a and ref.b <= point.hi
                assert point.hi - point.lo < 1e-12
    finally:
        mp.dps = iv.dps = 15
