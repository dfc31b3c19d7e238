"""The outward-rounded Interval against exact rationals and against a
frozen copy of the module before its fast paths, the enclosures
return_map gives of the horseshoe's branches against 50-digit mpmath
values, and the full-shift slope enclosures against their pins."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

import frozen_interval
from reference_slopes import SLOPE_HEXES
from renorm import interval as renorm_interval
from renorm.horseshoe import build_branch_system
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


@pytest.mark.parametrize("op", sorted(OPS))
def test_an_interval_operand_mixes_into_a_jet_as_a_constant(op):
    # Interval op Jet defers to the Jet's reflected operation: a Jet whose
    # value and derivative hold those of a op f, with f(c) = 2, f'(c) = 3
    f = OPS[op]
    x = Interval(0.5, 0.75)
    z = f(x, Jet(Interval(2.0, 2.0), Interval(3.0, 3.0)))
    assert isinstance(z, Jet)
    der = {"+": lambda a: 3, "-": lambda a: -3, "*": lambda a: 3 * a, "/": lambda a: -3 * a / 4}[op]
    for a in (Fraction(x.lo), Fraction(x.hi), Fraction(5, 8)):
        assert _contains(z.val, f(a, Fraction(2)))
        assert _contains(z.der, der(a))


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


# The frozen copy of the module before its fast paths is the oracle:
# every operation on any mix of Interval, Jet, float, int and numpy-float
# operands, on either side, gives bitwise its result or its exception.
_MODULES = {"new": renorm_interval, "frozen": frozen_interval}
_BOUNDS = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324])
_SCALARS = (
    st.floats().map(lambda x: ("float", x))
    | st.integers(-(2**1100), 2**1100).map(lambda x: ("int", x))
    | st.integers(-4, 4).map(lambda x: ("int", x))
    | st.floats().map(lambda x: ("float64", x))
    | st.floats(width=32).map(lambda x: ("float32", x))
)
_PAIRS = st.tuples(_BOUNDS, _BOUNDS).map(lambda t: tuple(sorted(t)))
_OPERANDS = (
    _PAIRS.map(lambda t: ("interval", t))
    | st.tuples(_PAIRS, _PAIRS).map(lambda t: ("jet", t))
    | _SCALARS
)


def _build(mod, spec):
    kind, x = spec
    if kind == "interval":
        return mod.Interval(*x)
    if kind == "jet":
        return mod.Jet(mod.Interval(*x[0]), mod.Interval(*x[1]))
    return {"float": float, "int": int, "float64": np.float64, "float32": np.float32}[kind](x)


def _canon(r):
    """A result as data: bounds as float.hex, so -0.0 and every NaN count."""
    name = type(r).__name__
    if name == "Interval":
        return ("Interval", r.lo.hex(), r.hi.hex())
    if name == "Jet":
        return ("Jet", _canon(r.val), _canon(r.der))
    return (name, repr(r))


def _outcome(mod, f, specs):
    try:
        with np.errstate(all="raise"):
            return _canon(f(*(_build(mod, s) for s in specs)))
    except Exception as exc:  # the exception is the outcome to compare
        return ("raised", type(exc).__name__, str(exc))


def _same_outcome(f, *specs):
    new, old = (_outcome(mod, f, specs) for mod in _MODULES.values())
    assert new == old, (specs, new, old)


@pytest.mark.parametrize("op", sorted(OPS))
@settings(settings.get_profile("bitwise"), max_examples=300)
@given(a=_OPERANDS, b=_OPERANDS)
def test_operations_are_bitwise_the_frozen_module(op, a, b):
    _same_outcome(OPS[op], a, b)


@settings(settings.get_profile("bitwise"), max_examples=300)
@given(a=_OPERANDS)
def test_one_operand_operations_are_bitwise_the_frozen_module(a):
    _same_outcome(lambda x: x * x, a)  # one variable: Interval.square, Jet's square
    _same_outcome(operator.neg, a)
    _same_outcome(lambda x: x.square(), a)


@pytest.mark.parametrize("op", sorted(OPS))
def test_edge_operands_are_bitwise_the_frozen_module(op):
    # NaN, signed zeros, infinities and products inf * 0 on either side,
    # exhaustively over a small set
    bounds = [(0.0, 1.0), (-1.0, 0.0), (-0.0, 0.0), (0.0, math.inf), (-math.inf, math.inf),
              (-math.inf, -1.0), (2.0, 3.0), (math.inf, math.inf)]
    scalars = [("float", x) for x in (0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan)]
    scalars += [("int", 0), ("int", 3), ("int", 2**1100), ("float64", math.nan),
                ("float64", -0.0), ("float64", math.inf), ("float32", 0.5)]
    operands = [("interval", t) for t in bounds] + [("jet", ((1.0, 2.0), t)) for t in bounds[:4]]
    operands += scalars
    for a in operands:
        for b in operands:
            _same_outcome(OPS[op], a, b)


def test_a_point_times_an_infinity_still_raises():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(0, 1) * math.inf
    with pytest.raises(ValueError, match="empty interval"):
        math.inf * Interval(0, 1)


@pytest.mark.parametrize("epsilons", sorted(SLOPE_HEXES))
def test_slopes_are_bitwise_the_reference(epsilons):
    ref = SLOPE_HEXES[epsilons]
    slopes = build_branch_system(*epsilons).slopes
    assert [(s.lo.hex(), s.hi.hex()) for s in slopes] == ref


def _outcome(f, *args):
    try:
        return [x.hex() if isinstance(x, float) else x for x in f(*args)]
    except Exception as exc:  # the failure is compared too
        return [type(exc).__name__, str(exc)]


@settings(settings.get_profile("bitwise"), max_examples=200)
@given(st.floats(0.3, 0.49), st.floats(0.0, 1e-3), st.floats(0.9, 1.1))
def test_the_float_bound_pass_is_bitwise_the_jet(c, width, eps):
    # r_bounds' value and derivative bounds over [c, c + width] are the
    # Jet's, and its s2 refusal is return_map's, message and all
    for period, e in ((Period.THREE, eps), (Period.FIVE, 1.0)):
        a, z = c, c + width

        def jet(a, z, e):
            r = return_map(period, Jet(Interval(a, z), Interval(1.0, 1.0)), e)
            return r.val.lo, r.val.hi, r.der.lo, r.der.hi

        assert _outcome(lambda *args: period.r_bounds(*args)[:4], a, z, e) == _outcome(jet, a, z, e)
