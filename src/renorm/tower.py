"""Nested interval towers generated by scaling data.

Each level m of a scaling sequence carries a critical point (and an eps
for the perturbed tripling variant); the induced affine maps place the
next generation of intervals inside the current central interval.  The
combinatorics names the central family and says its rescale reverses
orientation, so with H_n the n-fold composition, y_n = H_n(1) and
z_n = H_n(0) alternate between the min and max of the central I^n.
"""

from __future__ import annotations

import math
import sys

from .scaling import NumericalFailure, Period, ScalingFactor, _ordered_sum, bisect, scaling_from_critical
from .value import Value


# |I_2^12| ~ 1e-12 at the tripling fixed point, the floor of useful binary64
DEFAULT_DEPTH = 12
RATIO_TOL = 1e-12  # ratio_report's constancy bound
DIM_TOL = 1e-12    # bisection width of cantor_dimension


class InvalidFactor(NumericalFailure, ValueError):
    def __init__(self, depth, factor):
        self.depth = depth
        self.factor = factor
        super().__init__(f"scaling factor leaves the simplex at depth {depth}: {factor.s}")


class DepthUnderflow(NumericalFailure, ArithmeticError):
    """The chain slope left the normal float range; deeper sizes lose their
    relative precision (subnormal) and then vanish (0.0)."""


class Affine(Value, frozen=True):
    """x -> a*x + b with exact composition and inversion."""

    a: float
    b: float

    # by hand, as for PWABranch: the values built most often (a horseshoe
    # operation builds 80 Affines and 32 branches of its about 150 values),
    # each 0.4-1 us faster than through Value's generic __init__
    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __call__(self, x):
        return self.a * x + self.b

    def inverse(self) -> "Affine":
        return Affine(1.0 / self.a, -self.b / self.a)

    def __matmul__(self, other: "Affine") -> "Affine":
        # (self @ other)(x) == self(other(x))
        return Affine(self.a * other.a, self.a * other.b + self.b)

    @staticmethod
    def identity() -> "Affine":
        return Affine(1.0, 0.0)

    @staticmethod
    def through(x0, v0, x1, v1) -> "Affine":
        a = (v1 - v0) / (x1 - x0)
        return Affine(a, v0 - a * x0)


class LevelData(Value, frozen=True):
    c: float
    eps: float = 1.0

    def __post_init__(self):
        # one negated chain comparison, so that a NaN critical point fails too
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"critical point must lie in (0, 1), got {self.c}")


class ScalingSequence(Value, frozen=True):
    """Level data (critical point, eps) for depths 1, 2, ..., held as data.

    A stationary sequence holds one level and repeats it at every depth
    (repeats); symbol-driven data built from a finite word holds its
    levels in order and has no level past them.
    """

    period: Period
    data: tuple
    repeats: bool = False

    def level(self, m: int) -> LevelData:
        if m < 1:
            raise ValueError("levels are 1-indexed")
        if self.repeats:
            return self.data[0]
        if m > len(self.data):
            raise ValueError(f"sequence of length {len(self.data)} has no level {m}")
        return self.data[m - 1]

    def levels(self, n: int) -> list:
        return [self.level(m) for m in range(1, n + 1)]

    def shift(self) -> "ScalingSequence":
        return self if self.repeats else ScalingSequence(self.period, self.data[1:])

    @staticmethod
    def stationary(period: Period, c: float, eps: float = 1.0) -> "ScalingSequence":
        return ScalingSequence(period, (LevelData(c, eps),), repeats=True)

    @staticmethod
    def from_levels(period: Period, levels) -> "ScalingSequence":
        return ScalingSequence(period, tuple(levels))


def local_intervals(period: Period, lv: LevelData, factor: ScalingFactor):
    """Unit-square positions of the next-generation intervals: each s_j laid
    off from the end of I_j with the lower orbit index (u^k(0), k < p, or 1.0
    at ONE); eps pulls u^p(0) only, so no lower end depends on it."""
    o = period.orbit(lv.c)
    out = {}
    for j, ((left, right), s) in enumerate(zip(period.comb.intervals, factor.s), 1):
        out[j] = (o[left], o[left] + s) if left < right else (o[right] - s, o[right])
    return out


class Tower(Value):
    period: Period
    depth: int
    seq: ScalingSequence
    levels: list
    factors: list
    rescale: list       # h_m for m = 1..depth  (index m-1)
    chains: list        # H_0 .. H_depth        (index m)
    generations: list   # n = 1..depth (index n-1): {family: (lo, hi)}
    local: list         # n = 1..depth (index n-1): local_intervals of level n
    labels: dict
    central: int        # the central family, period.comb.central_family

    def size(self, n: int, i: int) -> float:
        # slope-product form: exact relative precision at any depth, unlike
        # differencing the absolute endpoints
        lo, hi = self.local[n - 1][i]
        return abs(self.chains[n - 1].a) * (hi - lo)

    @property
    def families(self):
        return tuple(range(1, self.period.p + 1))

    def y(self, n: int) -> float:
        return self.labels["y"][n]

    def z(self, n: int) -> float:
        return self.labels["z"][n]


def build_tower(seq: ScalingSequence, depth: int) -> Tower:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    period = seq.period
    levels = seq.levels(depth)
    factors = []
    for m, lv in enumerate(levels, start=1):
        f = scaling_from_critical(period, lv.c, lv.eps)
        if not f.is_valid:
            raise InvalidFactor(m, f)
        factors.append(f)

    local = [local_intervals(period, lv, f) for lv, f in zip(levels, factors)]
    j, reverses = period.comb.central_family, period.comb.reverses
    rescale = []
    chains = [Affine.identity()]
    for m, (loc, f) in enumerate(zip(local, factors), start=1):
        h = Affine(-f.s[j - 1], loc[j][1]) if reverses else Affine(f.s[j - 1], loc[j][0])  # onto I_j
        rescale.append(h)
        chains.append(chains[-1] @ h)
        if abs(chains[-1].a) < sys.float_info.min:
            raise DepthUnderflow(f"tower slope underflows to a subnormal at depth {m} of {depth}")

    generations = []
    for H, loc in zip(chains, local):
        ends = {i: (H(lo), H(hi)) for i, (lo, hi) in loc.items()}
        generations.append({i: (p, q) if p <= q else (q, p) for i, (p, q) in ends.items()})

    # whether y_n and z_n land at the min or max side follows the chain's
    # orientation, so their parity alternation emerges untracked
    labels = {
        "y": [H(1.0) for H in chains],
        "z": [H(0.0) for H in chains],
    }

    return Tower(
        period, depth, seq, levels, factors, rescale, chains,
        generations, local, labels, j,
    )


def verify_proper(t: Tower):
    """(margin, decay_ok): distance to the simplex boundary over the tower's
    factors, and the geometric-decay certificate |I_j^n| <= (1-margin)^n."""
    margin = min(f.simplex_margin for f in t.factors)
    decay_ok = margin > 0.0
    for n in range(1, t.depth + 1):
        bound = (1.0 - margin) ** n
        for i in t.families:
            if t.size(n, i) > bound:
                decay_ok = False
    return margin, decay_ok


class RatioReport(Value, frozen=True):
    period: Period
    factor: tuple
    max_deviation: float
    constant: bool


def ratio_report(t: Tower) -> RatioReport:
    """The generation ratios' largest deviation from the first level's
    factor s; meaningful for stationary data, where every |I_i^{n+1}| /
    |I_j^n| equals s_i and every |I_i^{n+1}| / |I_i^n| equals s_j, with j
    the central family."""
    if t.depth < 2:
        raise ValueError("need depth >= 2 for ratios")
    s, j = t.factors[0].s, t.central
    dev = 0.0
    for i in t.families:
        for n in range(1, t.depth):
            child = t.size(n + 1, i)
            dev = max(dev, abs(child / t.size(n, j) - s[i - 1]),
                      abs(child / t.size(n, i) - s[j - 1]))
    return RatioReport(t.period, s, dev, dev <= RATIO_TOL)


class HorBoundReport(Value, frozen=True):
    rho: float
    satisfied: bool
    ratios: tuple


def hor_bound(t: Tower) -> HorBoundReport:
    """Bounded-geometry certificate |I-hat_2^n| / |I_2^n|^2 within [1/rho, rho].

    I-hat_2^n = [u(y_n), 1] is the image of the central interval under the
    quadratic map of the first level's critical point; rho is the
    smallest power of two enclosing every ratio at this depth.  Levels where
    y_n - c falls below float resolution are excluded (the differencing
    noise would swamp the ratio there).
    """
    c = t.levels[0].c
    ratios = []
    for n in range(1, t.depth + 1):
        yn = t.y(n)
        if abs(yn - c) < 1e-14:
            break
        # 1 - u(y_n) written without the cancellation of 1 - (1 - t^2)
        rel = (yn - c) / (1.0 - c)
        num = rel * rel
        den = t.size(n, t.central) ** 2
        ratios.append(num / den)
    ratios = tuple(ratios)
    if not ratios or min(ratios) <= 0.0:
        return HorBoundReport(math.inf, False, ratios)
    need = max(max(ratios), 1.0 / min(ratios))
    k = max(0, math.ceil(math.log2(need)))
    return HorBoundReport(float(2**k), True, ratios)


def cantor_dimension(f: ScalingFactor) -> float:
    """Moran similarity dimension: the unique d with sum_i s_i^d = 1.

    In Python floats: each s_i**d is the C library's pow, which differs
    from numpy's float64 power in the last bit at some exponents, but no
    decision of the bisection falls within an ulp of 1, so it returns the
    bits of the numpy form at both fixed points (tests/test_tower.py keeps
    that form as its oracle)."""
    s = [float(x) for x in f.s]
    if any(x <= 0.0 or x >= 1.0 for x in s):
        raise ValueError(f"need every component in (0, 1), got {f.s}")
    total = _ordered_sum(s)
    if total > 1.0 + 1e-12:
        raise ValueError("component sum exceeds 1; no dimension in (0, 1]")

    def below(d):  # sum_i s_i^d falls as d rises and passes 1 at the dimension
        return _ordered_sum([x**d for x in s]) > 1.0

    if total >= 1.0:
        return 1.0  # boundary case: the components tile the interval
    return bisect(below, 1e-9, 1.0, DIM_TOL)
