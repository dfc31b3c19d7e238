"""Expanding multi-branch system built from eps-perturbed return maps.

Fixed points of R(., eps_i) for eps_0 > eps_1 > ... near 1 are ordered
increasingly in c; each branch maps a small interval A_i around its fixed
point diffeomorphically onto the common base [c_first*, c_last*] with
derivative above 2.  An outward-rounded interval proof (BranchSystem.slopes)
certifies the full shift: the A_i are disjoint, each branch image covers
the base and inf R_i' > 1 on A_i, so there are m^k k-cylinders for every k
with no enumeration.  Backward composition of the contracting inverse
branches codes symbol sequences to points of the invariant Cantor set,
and the coded critical points generate proper scaling data for
symbol-driven towers and maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .interval import Interval
from .scaling import S2_FLOOR, DivisionGuard, Period, _orbit_points, return_map
from .solver import solve_fixed_point_eps
from .tower import LevelData, ScalingSequence

INVERSE_TOL = 1e-13
# delta: the A_i ends are bisected to INVERSE_TOL, so R_i(A_i ends) miss the
# base ends by up to INVERSE_TOL * R' (about 6e-12).  Each A_i widened by
# MARGIN/2 has image ends about R' * MARGIN/2 further out, past the base
# widened by MARGIN, which is where the certificate proves the full shift.
MARGIN = 1e-11
MAX_COUNT = 2**63 - 1  # the largest cylinder count: an int64, which np.log takes
CODING_PAD = 16  # extra backward letters; contraction > 2 makes 2^-16 plenty


class NotAHorseshoe(RuntimeError):
    """A condition of the full-shift certificate failed."""


class ExpansionTooWeak(RuntimeError):
    def __init__(self, eps, deriv):
        super().__init__(
            f"branch derivative {deriv:.4f} at eps={eps} is not above 2"
        )
        self.eps = eps
        self.deriv = deriv


@dataclass(frozen=True)
class Word:
    symbols: tuple
    alphabet: int = 3

    def __post_init__(self):
        if self.alphabet < 2:
            raise ValueError("alphabet size must be >= 2")
        if any(not 0 <= s < self.alphabet for s in self.symbols):
            raise ValueError("symbol outside the alphabet")

    def __len__(self):
        return len(self.symbols)

    def cyclic(self, n: int) -> tuple:
        """First n letters of the periodic extension."""
        if not self.symbols:
            raise ValueError("cannot extend the empty word")
        reps = -(-n // len(self.symbols))
        return (self.symbols * reps)[:n]


@dataclass(frozen=True)
class Coding:
    prefix: tuple
    c_alpha: float
    residual: float


@dataclass(frozen=True)
class BranchSystem:
    epsilons: tuple          # strictly decreasing, near 1
    reports: tuple           # FixedPointReport per epsilon
    domains: tuple           # A_i = [R_i^{-1}(c_first), R_i^{-1}(c_last)]

    @property
    def alphabet(self) -> int:
        return len(self.epsilons)

    @property
    def fixed_points(self) -> tuple:
        return tuple(r.c_star for r in self.reports)

    @property
    def base(self) -> tuple:
        cs = self.fixed_points
        return (cs[0], cs[-1])

    def map(self, i: int, c):
        return return_map(Period.THREE, c, eps=self.epsilons[i])

    @cached_property
    def slopes(self) -> tuple:
        """Enclosures of R_i' over each A_i widened by MARGIN/2, once the
        interval proof certifies the full shift on the base widened by
        MARGIN; raises NotAHorseshoe naming the condition that failed.

        (a) the widened A_i are disjoint, increasing and inside the widened
            base;
        (c) inf R_i' > 1 over each (R_i is smooth there: s2 stays above
            S2_FLOOR);
        (b) R_i sends the widened A_i's ends below and above the base, so
            its monotone image covers the base.
        Then each inverse branch maps the base into A_i, every word's
        cylinder is a nonempty interval, and distinct words of one length
        give disjoint ones: alphabet^k k-cylinders for every k.
        """
        lo, hi = self.base[0] - MARGIN, self.base[1] + MARGIN
        doms = [(a - 0.5 * MARGIN, z + 0.5 * MARGIN) for a, z in self.domains]
        ends = [x for d in doms for x in d]
        if any(not x < y for x, y in zip(ends, ends[1:])):
            raise NotAHorseshoe(f"branch domains {self.domains} are not disjoint and increasing")
        if not (lo <= ends[0] and ends[-1] <= hi):
            raise NotAHorseshoe(f"branch domains {self.domains} leave the base {self.base}")
        out = []
        for i, ((a, z), e) in enumerate(zip(doms, self.epsilons)):
            try:
                slope = _branch_enclosure(Interval(a, z), e)[1]
            except DivisionGuard as exc:
                raise NotAHorseshoe(f"branch {i} is not smooth on A_{i}: {exc}") from None
            if not slope.lo > 1.0:
                raise NotAHorseshoe(f"branch {i} slope {slope} is not above 1 on A_{i}")
            img_lo = _branch_image(Interval(a, a), e)
            img_hi = _branch_image(Interval(z, z), e)
            if not (img_lo.hi <= lo and img_hi.lo >= hi):
                raise NotAHorseshoe(
                    f"branch {i} image [{img_lo.hi}, {img_hi.lo}] does not cover the base"
                )
            out.append(slope)
        return tuple(out)


class _Jet:
    """A function of c and its c-derivative, each enclosed over an Interval
    of c: forward-mode differentiation in interval arithmetic."""

    __slots__ = ("val", "der")

    def __init__(self, val: Interval, der: Interval):
        self.val = val
        self.der = der

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.val + o.val, self.der + o.der)
        return _Jet(self.val + o, self.der)

    def __sub__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.val - o.val, self.der - o.der)
        return _Jet(self.val - o, self.der)

    def __rsub__(self, o):  # o is a float
        return _Jet(o - self.val, -self.der)

    def __mul__(self, o):
        if o is self:
            return _Jet(self.val.square(), 2.0 * self.val * self.der)
        if isinstance(o, _Jet):
            return _Jet(self.val * o.val, self.val * o.der + self.der * o.val)
        return _Jet(self.val * o, self.der * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Jet):
            q = self.val / o.val
            return _Jet(q, (self.der - q * o.der) / o.val)
        return _Jet(self.val / o, self.der / o)


def _branch_image(c, eps: float):
    """An enclosure of R(c, eps) for c an Interval, or a _Jet that carries
    dR/dc along, through the orbit _orbit_points computes (the pull at
    index 3).  Raises DivisionGuard unless the s2 enclosure stays above
    S2_FLOOR."""
    o = _orbit_points(Period.THREE, c, eps)
    left, right = Period.THREE.comb.central
    top = o[right]
    s2 = top - o[left]
    s2_val = getattr(s2, "val", s2)  # a _Jet's value part
    if not s2_val.lo > S2_FLOOR:
        over = getattr(c, "val", c)
        raise DivisionGuard(f"s2 enclosure {s2_val} over {over} is not above the floor {S2_FLOOR}")
    return (top - c) / s2


def _branch_enclosure(c: Interval, eps: float) -> tuple:
    """Enclosures of R(., eps) and dR/dc over the interval c."""
    r = _branch_image(_Jet(c, Interval(1.0, 1.0)), eps)
    return r.val, r.der


def _invert_point(b: BranchSystem, i: int, y: float) -> float:
    """The x in A_i with R(x, eps_i) = y by monotone bisection in plain floats.

    At most 64 steps; it stops after the first step that moves neither
    end.  That step is a fixed point of the update (the same lo and hi give
    the same mid and comparison), so the rest of a fixed 64 steps would
    change nothing and the result is bitwise theirs.  A width test would
    stop short of that point and change the result.  Where s2 is below the
    floor, the guard reads as "not below", as a NaN compares.
    """
    lo, hi = b.domains[i]
    e = b.epsilons[i]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        try:
            below = return_map(Period.THREE, mid, eps=e) < y
        except DivisionGuard:
            below = False  # as return_map's NaN on an array compares
        if below:
            if mid == lo:
                break
            lo = mid
        elif mid == hi:
            break
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _domain_end(e: float, c: float, target: float, step: float, span: float) -> float:
    """The x beside the fixed point c, on the side step (-1 or 1), with
    R(x, e) = target: double a bracket from c until R crosses target, then
    bisect it.  R increases, so R(x) < target puts x below the answer."""
    w = span / 4.0
    # step * (R - target) < 0: R has not yet reached target on that side
    while step * (return_map(Period.THREE, c + step * w, eps=e) - target) < 0.0:
        w *= 2.0
    lo, hi = sorted((c, c + step * w))
    while hi - lo > INVERSE_TOL:
        mid = 0.5 * (lo + hi)
        if return_map(Period.THREE, mid, eps=e) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_branch_system(*epsilons: float) -> BranchSystem:
    """Solve the fixed points and branch domains for eps_0 > eps_1 > ...

    Raises ExpansionTooWeak when any fixed-point derivative is <= 2; the
    construction needs room to spare over the coding's contraction bound.
    """
    if len(epsilons) < 2:
        raise ValueError("need at least two epsilon values")
    if any(not a > b for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError(f"epsilons must be strictly decreasing: {epsilons}")
    reports = []
    for e in epsilons:
        rep = solve_fixed_point_eps(e)
        if not rep.derivative_estimate > 2.0:
            raise ExpansionTooWeak(e, rep.derivative_estimate)
        reports.append(rep)
    cs = [r.c_star for r in reports]
    if any(not a < b for a, b in zip(cs, cs[1:])):
        raise RuntimeError(f"fixed points are not increasing: {cs}")
    base_lo, base_hi = cs[0], cs[-1]

    span = (base_hi - base_lo) or 1e-6
    domains = tuple(
        (_domain_end(e, c, base_lo, -1.0, span), _domain_end(e, c, base_hi, 1.0, span))
        for e, c in zip(epsilons, cs)
    )
    return BranchSystem(tuple(epsilons), tuple(reports), domains)


def _backward_codings(b: BranchSystem, letters, count: int):
    """One backward pass: x_n = R_{a_n}^{-1}(x_{n+1}), n = len-1 .. 0.

    Returns x_0 .. x_{count-1}, the coded points of the successive shifts.
    Each step depends on the last, so the pass runs in plain floats
    (_invert_point).  Backward consistency makes R(x_n, eps_{a_n}) = x_{n+1}
    hold to the inversion tolerance, which is what towers built from the
    codings need.
    """
    x = 0.5 * (b.base[0] + b.base[1])
    xs = [0.0] * len(letters)
    for n in range(len(letters) - 1, -1, -1):
        x = _invert_point(b, letters[n], x)
        xs[n] = x
    return xs[:count]


def code_to_point(b: BranchSystem, alpha: Word, depth: int) -> Coding:
    """c(alpha) from the first `depth` letters by backward composition."""
    if depth < 1 or depth > len(alpha):
        raise ValueError("need 1 <= depth <= len(alpha)")
    letters = alpha.symbols[:depth]
    xs = _backward_codings(b, letters, min(2, depth))
    if len(xs) > 1:
        residual = abs(b.map(letters[0], xs[0]) - xs[1])
    else:
        residual = abs(b.map(letters[0], xs[0]) - 0.5 * (b.base[0] + b.base[1]))
    return Coding(tuple(letters), xs[0], residual)


def coded_orbit(b: BranchSystem, alpha: Word, count: int):
    """c(sigma^n alpha) for n = 0..count-1, from the cyclic extension."""
    letters = alpha.cyclic(count + CODING_PAD)
    return _backward_codings(b, letters, count)


def cylinder_counts(b: BranchSystem, n: int) -> list:
    """Numbers of k-cylinders for k = 1..n: alphabet^k, once b.slopes
    certifies the full shift (NotAHorseshoe otherwise).

    Refuses n below 1 and counts above MAX_COUNT, before any proof.
    """
    m = b.alphabet
    if n < 1:
        raise ValueError("need n >= 1")
    if m > 1:
        limit = 1
        while m ** (limit + 1) <= MAX_COUNT:
            limit += 1
        if n > limit:
            raise ValueError(
                f"{m}^{n} cylinders exceed the count limit 2^63 - 1: "
                f"need n <= {limit} for {m} letters"
            )
    b.slopes  # the proof, once per system; raises NotAHorseshoe if it fails
    return [m**k for k in range(1, n + 1)]


def cylinder_count(b: BranchSystem, n: int) -> int:
    """Number of n-cylinders; the last of cylinder_counts."""
    return cylinder_counts(b, n)[-1]


def entropy_estimate(b: BranchSystem, n: int) -> float:
    return float(np.log(cylinder_count(b, n)) / n)


def symbol_scaling_sequence(b: BranchSystem, alpha: Word) -> ScalingSequence:
    """Scaling data of f_alpha: level n uses c(sigma^n alpha) and eps_{alpha_n}."""
    if b.alphabet != alpha.alphabet:
        raise ValueError("word alphabet does not match the branch system")
    n = len(alpha)
    cs = coded_orbit(b, alpha, n)
    letters = alpha.cyclic(n)
    levels = [LevelData(c=cs[m], eps=b.epsilons[letters[m]]) for m in range(n)]
    return ScalingSequence.from_levels(Period.THREE, levels)


def dense_orbit_word(max_len: int, alphabet: int = 3) -> Word:
    """Concatenation of every word of length 1..max_len in lexicographic
    order; the shift orbit of its coding visits every cylinder of depth
    <= max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    symbols = []
    for length in range(1, max_len + 1):
        for w in itertools.product(range(alphabet), repeat=length):
            symbols.extend(w)
    return Word(tuple(symbols), alphabet)
