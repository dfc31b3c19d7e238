"""Closed float intervals with outward rounding (Moore, Interval Analysis, 1966).

Every bound of a result is the round-to-nearest value moved one ulp
outward with math.nextafter.  A correctly rounded +, -, * or / is within
half an ulp of the exact value, so each result contains the exact image
of its operands.  Floats mix in as point intervals.  A Jet carries an
enclosure of a function of c and one of its c-derivative through the same
operations.
"""

from __future__ import annotations

import math


def _out(lo: float, hi: float) -> "Interval":
    return Interval(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _iv(x) -> "Interval":
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
        o = _iv(other)
        return _out(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = _iv(other)
        return _out(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return _iv(other) - self

    def __mul__(self, other):
        if other is self:  # one variable: x*x is its square, not [lo*hi, ...]
            return self.square()
        o = _iv(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _out(min(p), max(p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _iv(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"denominator {o} contains 0")
        q = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return _out(min(q), max(q))

    def __rtruediv__(self, other):
        return _iv(other) / self

    def square(self):
        a, b = abs(self.lo), abs(self.hi)
        lo = 0.0 if self.lo <= 0.0 <= self.hi else min(a, b)
        sq = _out(lo * lo, max(a, b) ** 2)
        return Interval(max(0.0, sq.lo), sq.hi)  # a square is never negative


class Jet:
    """A function of c and its c-derivative, each enclosed over an Interval
    of c: forward-mode differentiation in interval arithmetic."""

    __slots__ = ("val", "der")

    def __init__(self, val: Interval, der: Interval):
        self.val = val
        self.der = der

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(self.val + o.val, self.der + o.der)
        return Jet(self.val + o, self.der)

    def __sub__(self, o):
        if isinstance(o, Jet):
            return Jet(self.val - o.val, self.der - o.der)
        return Jet(self.val - o, self.der)

    def __rsub__(self, o):  # o is a float
        return Jet(o - self.val, -self.der)

    def __mul__(self, o):
        if o is self:
            return Jet(self.val.square(), 2.0 * self.val * self.der)
        if isinstance(o, Jet):
            return Jet(self.val * o.val, self.val * o.der + self.der * o.val)
        return Jet(self.val * o, self.der * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            q = self.val / o.val
            return Jet(q, (self.der - q * o.der) / o.val)
        return Jet(self.val / o, self.der / o)
