"""Closed float intervals with outward rounding (Moore, Interval Analysis, 1966).

Every bound of a result is the round-to-nearest value moved one ulp
outward with math.nextafter.  A correctly rounded +, -, * or / is within
half an ulp of the exact value, so each result contains the exact image
of its operands.  A Jet carries an enclosure of a function of c and one
of its c-derivative through the same operations; an Interval operand
mixes into a Jet as a constant, whichever side it stands on.

The operations are the horseshoe's full-shift proof's inner loop, so they
take three fast paths, each bitwise the plain formulas:
- results are built without __init__ (_out); a NaN bound is still
  refused with __init__'s ValueError and message;
- an Interval operand is told by its exact class, o.__class__ is Interval;
- any other operand but a Jet (a float, int or numpy scalar x) is the
  point interval [float(x), float(x)] without boxing it: a product or
  quotient takes two values, not four, because min and max of (a, a, b, b)
  equal those of (a, b), NaN included; a NaN x is refused with the
  ValueError its point interval raised.
A hull's min and max scan their arguments as the builtins do (a later
value replaces the current one only if it compares below, or above), so
a NaN product lands in the same bound as with min() and max().  The
rounding stays one ulp outward on every path.
"""

from __future__ import annotations

from math import inf, nextafter

_new = object.__new__


def _out(lo: float, hi: float) -> "Interval":
    """[lo, hi] moved one ulp outward, refused as __init__ refuses it."""
    lo = nextafter(lo, -inf)
    hi = nextafter(hi, inf)
    if not lo <= hi:  # a NaN bound is refused too
        raise ValueError(f"empty interval [{lo}, {hi}]")
    r = _new(Interval)
    r.lo = lo
    r.hi = hi
    return r


def _hull(p: float, q: float) -> "Interval":
    """_out(min(p, q), max(p, q))."""
    return _out(q if q < p else p, q if q > p else p)


def _hull4(p: float, q: float, r: float, s: float) -> "Interval":
    """_out(min(p, q, r, s), max(p, q, r, s))."""
    lo = hi = p
    for v in (q, r, s):
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return _out(lo, hi)


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
        if other.__class__ is Interval:
            return _out(self.lo + other.lo, self.hi + other.hi)
        if isinstance(other, Jet):  # a constant plus a Jet: Jet.__radd__
            return NotImplemented
        x = float(other)
        return _out(self.lo + x, self.hi + x)

    __radd__ = __add__

    def __neg__(self):
        r = _new(Interval)
        r.lo = -self.hi
        r.hi = -self.lo
        return r

    def __sub__(self, other):
        if other.__class__ is Interval:
            return _out(self.lo - other.hi, self.hi - other.lo)
        if isinstance(other, Jet):
            return NotImplemented
        x = float(other)
        return _out(self.lo - x, self.hi - x)

    def __rsub__(self, other):
        x = float(other)
        return _out(x - self.hi, x - self.lo)

    def __mul__(self, other):
        if other is self:  # one variable: x*x is its square, not [lo*hi, ...]
            return self.square()
        if other.__class__ is Interval:
            a, b, c, d = self.lo, self.hi, other.lo, other.hi
            return _hull4(a * c, a * d, b * c, b * d)
        if isinstance(other, Jet):
            return NotImplemented
        x = float(other)
        return _hull(self.lo * x, self.hi * x)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Interval:
            c, d = other.lo, other.hi
            if c <= 0.0 <= d:
                raise ZeroDivisionError(f"denominator {other} contains 0")
            a, b = self.lo, self.hi
            return _hull4(a / c, a / d, b / c, b / d)
        if isinstance(other, Jet):
            return NotImplemented
        x = float(other)
        if x == 0.0:
            raise ZeroDivisionError(f"denominator {Interval(x, x)} contains 0")
        return _hull(self.lo / x, self.hi / x)

    def __rtruediv__(self, other):
        x = float(other)
        if x != x:  # [x, x] is refused before self's 0 is looked at
            raise ValueError(f"empty interval [{x}, {x}]")
        if self.lo <= 0.0 <= self.hi:
            raise ZeroDivisionError(f"denominator {self} contains 0")
        return _hull(x / self.lo, x / self.hi)

    def square(self):
        a, b = abs(self.lo), abs(self.hi)
        lo = 0.0 if self.lo <= 0.0 <= self.hi else (b if b < a else a)
        sq = _out(lo * lo, (b if b > a else a) ** 2)
        if not sq.lo > 0.0:  # max(0.0, sq.lo): a square is never negative
            sq.lo = 0.0
        return sq


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
