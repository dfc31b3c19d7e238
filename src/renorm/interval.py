"""Closed float intervals with outward rounding (Moore, Interval Analysis, 1966).

Every bound of a result is the round-to-nearest value moved one ulp
outward with math.nextafter.  A correctly rounded +, -, * or / is within
half an ulp of the exact value, so each result contains the exact image
of its operands.  Floats mix in as point intervals.  A Jet carries an
enclosure of a function of c and one of its c-derivative through the
same operations; an Interval operand mixes into a Jet as a constant,
whichever side it stands on.

Each rounding rule is written once, as a float-bound helper on plain
floats that returns the (lo, hi) pair: widen, the one ulp outward, then
hull and hull4 and the operations add, sub, mul, scale, div and square
on top of it.  Interval's operators build their results from them and
Jet's reach them through Interval's.  The horseshoe's full-shift proof
runs neither: it runs the float-bound pass, a generated return map on
bounds alone (scaling's r_bounds), with no Interval or Jet per
operation.  Interval and Jet serve the library and the tests, where the
Jet is the reference the pass is held to, bitwise.
The pass carries a jet bound, the 5-tuple (lo, hi, dlo, dhi, err): an
enclosure of a value over a box of c, one of its c-derivative, each
bitwise the Jet's, and err, a bound on how far the float kernel's result
at any float c of the box lies from the exact value.  The jet_* helpers
are the Jet's operations on jet bounds; err is running error analysis
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
ch. 3): an operation on computed operands w = x op y with |x^ - x| <= ex
and |y^ - y| <= ey is off its exact value by a propagated error, and its
rounding adds at most u*|w| (u = 2^-53, the standard model), with |w| at
most the value enclosure's magnitude plus the propagated error.  Every
term of err is rounded up, and the last nextafter also covers an
underflow's absolute error.
"""

from __future__ import annotations

from math import inf, nextafter

U = 2.0**-53  # the unit roundoff of binary64, round to nearest


def widen(lo: float, hi: float) -> tuple:
    """(lo, hi) moved one ulp outward, refused as Interval() refuses it."""
    lo = nextafter(lo, -inf)
    hi = nextafter(hi, inf)
    if not lo <= hi:  # a NaN bound is refused too
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return lo, hi


def hull(p: float, q: float) -> tuple:
    """widen(min(p, q), max(p, q))."""
    return widen(q if q < p else p, q if q > p else p)


def hull4(p: float, q: float, r: float, s: float) -> tuple:
    """widen(min(p, q, r, s), max(p, q, r, s))."""
    lo = hi = p
    if q < lo:
        lo = q
    if q > hi:
        hi = q
    if r < lo:
        lo = r
    if r > hi:
        hi = r
    if s < lo:
        lo = s
    if s > hi:
        hi = s
    return widen(lo, hi)


def add(a: float, b: float, c: float, d: float) -> tuple:
    """[a, b] + [c, d]."""
    return widen(a + c, b + d)


def sub(a: float, b: float, c: float, d: float) -> tuple:
    """[a, b] - [c, d]."""
    return widen(a - d, b - c)


def mul(a: float, b: float, c: float, d: float) -> tuple:
    """[a, b] * [c, d], two distinct intervals."""
    return hull4(a * c, a * d, b * c, b * d)


def scale(a: float, b: float, x: float) -> tuple:
    """[a, b] * x, for a float x."""
    return hull(a * x, b * x)


def div(a: float, b: float, c: float, d: float) -> tuple:
    """[a, b] / [c, d]; ZeroDivisionError where [c, d] holds 0."""
    if c <= 0.0 <= d:
        raise ZeroDivisionError(f"denominator {Interval(c, d)} contains 0")
    return hull4(a / c, a / d, b / c, b / d)


def square(lo: float, hi: float) -> tuple:
    """[lo, hi] squared, one variable: its lower end is never negative."""
    a, b = abs(lo), abs(hi)
    m = 0.0 if lo <= 0.0 <= hi else (b if b < a else a)
    lo, hi = widen(m * m, (b if b > a else a) ** 2)
    return (lo if lo > 0.0 else 0.0), hi


def _err(lo: float, hi: float, prop: float) -> float:
    """The error bound of a computed result whose exact value lies in
    [lo, hi], its operands' errors propagated to prop: prop plus the
    rounding, u*(magnitude + prop), every term rounded up.  A product by u,
    a power of 2, is exact but where it underflows, by at most 2^-1075,
    which the last nextafter's step of at least 2^-1074 covers."""
    mag = hi if hi > -lo else -lo
    return nextafter(prop + U * nextafter(mag + prop, inf), inf)


def jet_sub(x: tuple, y: tuple) -> tuple:
    """Jet x - Jet y, on jet bounds."""
    xlo, xhi, xdlo, xdhi, xe = x
    ylo, yhi, ydlo, ydhi, ye = y
    lo, hi = sub(xlo, xhi, ylo, yhi)
    dlo, dhi = sub(xdlo, xdhi, ydlo, ydhi)
    return lo, hi, dlo, dhi, _err(lo, hi, nextafter(xe + ye, inf))


def jet_rsub(k: float, y: tuple) -> tuple:
    """The float constant k minus Jet y, on jet bounds."""
    ylo, yhi, ydlo, ydhi, ye = y
    lo, hi = sub(k, k, ylo, yhi)
    return lo, hi, -ydhi, -ydlo, _err(lo, hi, ye)


def jet_scale(x: tuple, k: float) -> tuple:
    """Jet x times the float constant k, on jet bounds."""
    xlo, xhi, xdlo, xdhi, xe = x
    lo, hi = scale(xlo, xhi, k)
    dlo, dhi = scale(xdlo, xdhi, k)
    return lo, hi, dlo, dhi, _err(lo, hi, nextafter(abs(k) * xe, inf))


def jet_square(x: tuple) -> tuple:
    """Jet x times itself, on jet bounds: |x^2 - x^^2| <= ex*(2|x| + ex)."""
    xlo, xhi, xdlo, xdhi, xe = x
    lo, hi = square(xlo, xhi)
    tlo, thi = scale(xlo, xhi, 2.0)
    dlo, dhi = mul(tlo, thi, xdlo, xdhi)
    mag = xhi if xhi > -xlo else -xlo
    return lo, hi, dlo, dhi, _err(lo, hi, nextafter(xe * nextafter(2.0 * mag + xe, inf), inf))


def jet_div(x: tuple, y: tuple) -> tuple:
    """Jet x / Jet y, on jet bounds: |x^/y^ - x/y| <= (ex + |x/y|*ey)/|y^|,
    with |y^| at least y's least magnitude less ey; err is inf where that
    is not above 0."""
    xlo, xhi, xdlo, xdhi, xe = x
    ylo, yhi, ydlo, ydhi, ye = y
    lo, hi = div(xlo, xhi, ylo, yhi)
    plo, phi = mul(lo, hi, ydlo, ydhi)
    nlo, nhi = sub(xdlo, xdhi, plo, phi)
    dlo, dhi = div(nlo, nhi, ylo, yhi)
    least = nextafter((ylo if ylo > 0.0 else -yhi) - ye, -inf)
    if not least > 0.0:
        return lo, hi, dlo, dhi, inf
    mag = hi if hi > -lo else -lo
    prop = nextafter(nextafter(xe + nextafter(mag * ye, inf), inf) / least, inf)
    return lo, hi, dlo, dhi, _err(lo, hi, prop)


def _box(x) -> "Interval":
    """x itself if an Interval, else the point interval [x, x]."""
    return x if isinstance(x, Interval) else Interval(x, x)


class Interval:
    """[lo, hi] with lo <= hi; the four operations and square round outward."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not lo <= hi:  # a NaN bound is refused too
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __add__(self, other):
        if isinstance(other, Jet):  # a constant plus a Jet: Jet.__radd__
            return NotImplemented
        o = _box(other)
        return Interval(*add(self.lo, self.hi, o.lo, o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        o = _box(other)
        return Interval(*sub(self.lo, self.hi, o.lo, o.hi))

    def __rsub__(self, other):
        return _box(other) - self

    def __mul__(self, other):
        if other is self:  # one variable: x*x is its square, not [lo*hi, ...]
            return self.square()
        if isinstance(other, Jet):
            return NotImplemented
        o = _box(other)
        return Interval(*mul(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        o = _box(other)
        return Interval(*div(self.lo, self.hi, o.lo, o.hi))

    def __rtruediv__(self, other):
        return _box(other) / self

    def square(self):
        return Interval(*square(self.lo, self.hi))


class Jet:
    """A function of c and its c-derivative, each enclosed over an Interval
    of c: forward-mode differentiation in interval arithmetic."""

    __slots__ = ("val", "der")

    def __init__(self, val: Interval, der: Interval):
        self.val = val
        self.der = der

    def __add__(self, o):
        if o.__class__ is Jet:
            return Jet(self.val + o.val, self.der + o.der)
        return Jet(self.val + o, self.der)

    __radd__ = __add__

    def __sub__(self, o):
        if o.__class__ is Jet:
            return Jet(self.val - o.val, self.der - o.der)
        return Jet(self.val - o, self.der)

    def __rsub__(self, o):  # o is a float or an Interval
        return Jet(o - self.val, -self.der)

    def __mul__(self, o):
        if o is self:
            return Jet(self.val.square(), 2.0 * self.val * self.der)
        if o.__class__ is Jet:
            return Jet(self.val * o.val, self.val * o.der + self.der * o.val)
        return Jet(self.val * o, self.der * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if o.__class__ is Jet:
            q = self.val / o.val
            return Jet(q, (self.der - q * o.der) / o.val)
        return Jet(self.val / o, self.der / o)

    def __rtruediv__(self, o):  # o is a float or an Interval
        q = o / self.val
        return Jet(q, -(q * self.der) / self.val)
