"""Expanding multi-branch system built from eps-perturbed return maps.

Fixed points of R(., eps_i) for eps_0 > eps_1 > ... near 1 are ordered
increasingly in c; each branch maps a small interval A_i around its fixed
point diffeomorphically onto the common base [c_first*, c_last*] with
derivative above 2.  An outward-rounded interval proof (BranchSystem.slopes)
certifies the full shift: the A_i are disjoint, each branch image covers
the base and inf R_i' > 1 on A_i, so there are m^k k-cylinders for every k
with no enumeration.  The proof runs each period's float-bound pass
(scaling's r_bounds) once per branch and system, and no other pass: it
encloses R_i' on A_i and bounds eta, the float kernel's rounding error
there, and the image ends are the float kernel's values at the ends of
A_i, eta either side; a non-finite eta fails the proof.  Backward
composition of the contracting inverse branches codes symbol sequences
to points of the invariant Cantor set; each inversion bisects A_i in
plain floats and evaluates R only at the nodes within 2*eta/inf R' of
its estimated answer, every other node's comparison being known, bitwise
what the plain bisection computes.  The coded critical points generate
proper scaling data for symbol-driven towers and maps.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .interval import Interval, div, widen
from .scaling import DivisionGuard, NumericalFailure, bisect, return_map
from .solver import solve_fixed_point_eps
from .tower import LevelData, ScalingSequence
from .value import Value

INVERSE_TOL = 1e-13
# delta: the A_i ends are bisected to INVERSE_TOL, so R_i(A_i ends) miss the
# base ends by up to INVERSE_TOL * R' (about 6e-12).  Each A_i widened by
# MARGIN/2 has image ends about R' * MARGIN/2 further out, past the base
# widened by MARGIN, which is where the certificate proves the full shift.
MARGIN = 1e-11
# the largest cylinder count, 2^63 - 1: an entropy is math.log(count) / n,
# which equals numpy's float64 log(count) / n for every m^n up to it with
# m of 2..1000 letters (tests/test_horseshoe.py)
MAX_COUNT = 2**63 - 1
CODING_PAD = 16  # extra backward letters; contraction > 2 makes 2^-16 plenty


class NotAHorseshoe(NumericalFailure, RuntimeError):
    """A condition of the full-shift certificate failed."""


class ExpansionTooWeak(NumericalFailure, RuntimeError):
    def __init__(self, eps, deriv):
        super().__init__(
            f"branch derivative {deriv:.4f} at eps={eps} is not above 2"
        )
        self.eps = eps
        self.deriv = deriv


class Word(Value, frozen=True):
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


class Coding(Value, frozen=True):
    c_alpha: float
    residual: float


class BranchSystem(Value, frozen=True):
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
        return return_map(self.reports[i].period, c, eps=self.epsilons[i])

    @cached_property
    def _proof(self):
        """The full-shift proof, run once per system whether it holds or
        fails: per branch its slope enclosure and its inversion window, or
        the message of the first condition that failed.

        Over each A_i widened by MARGIN/2, [a, z], one float-bound pass
        (Period.r_bounds) encloses R_i and R_i' and bounds eta, the float
        kernel's rounding error at any float of [a, z]:
        (a) the widened A_i are disjoint, increasing and inside the base
            widened by MARGIN;
        (c) inf R_i' > 1 over each (R_i is smooth there: s2 stays above
            S2_FLOOR);
        (b) R_i sends the widened A_i's ends below and above the base, so
            its monotone image covers the base.  a and z are floats of
            [a, z], so R_i(a) <= r(a) + eta and R_i(z) >= r(z) - eta,
            with r the float kernel (Period.r_kernel) and both rounded
            outward; a non-finite eta fails the proof.
        Then each inverse branch maps the base into A_i, every word's
        cylinder is a nonempty interval, and distinct words of one length
        give disjoint ones: alphabet^k k-cylinders for every k.

        A branch's window is (a, z, band), band = 2*eta/inf R_i' rounded
        up: two floats of [a, z] a band or more apart have kernel values in
        their order, which _invert_point reads.
        """
        lo, hi = self.base[0] - MARGIN, self.base[1] + MARGIN
        doms = [(a - 0.5 * MARGIN, z + 0.5 * MARGIN) for a, z in self.domains]
        ends = [x for d in doms for x in d]
        if any(not x < y for x, y in zip(ends, ends[1:])):
            return f"branch domains {self.domains} are not disjoint and increasing"
        if not (lo <= ends[0] and ends[-1] <= hi):
            return f"branch domains {self.domains} leave the base {self.base}"
        out = []
        for i, ((a, z), e, rep) in enumerate(zip(doms, self.epsilons, self.reports)):
            try:
                _, _, dlo, dhi, eta = rep.period.r_bounds(a, z, e)
            except DivisionGuard as exc:
                return f"branch {i} is not smooth on A_{i}: {exc}"
            slope = Interval(dlo, dhi)
            if not dlo > 1.0:
                return f"branch {i} slope {slope} is not above 1 on A_{i}"
            if not eta < math.inf:
                return f"branch {i} kernel error bound {eta} is not finite on A_{i}"
            # a and z are floats of [a, z]: R there is within eta of r
            ra, rz = rep.period.r_kernel(a, e), rep.period.r_kernel(z, e)
            img_lo, img_hi = widen(ra - eta, ra + eta)[1], widen(rz - eta, rz + eta)[0]
            if not (img_lo <= lo and img_hi >= hi):
                return f"branch {i} image [{img_lo}, {img_hi}] does not cover the base"
            _, band = div(2.0 * eta, 2.0 * eta, dlo, dlo)  # rounded up
            out.append((slope, (a, z, band)))
        return tuple(out)

    @cached_property
    def slopes(self) -> tuple:
        """Enclosures of R_i' over each A_i widened by MARGIN/2, once the
        interval proof (_proof) certifies the full shift on the base widened
        by MARGIN; raises NotAHorseshoe naming the condition that failed."""
        proof = self._proof
        if isinstance(proof, str):
            raise NotAHorseshoe(proof)
        return tuple(slope for slope, _ in proof)


def _invert_point(b: BranchSystem, i: int, y: float) -> float:
    """The x in A_i with R(x, eps_i) = y by monotone bisection in plain floats.

    At most 64 steps.  It returns mid as soon as mid equals lo or hi,
    without evaluating R there: whichever way the comparison would go, the
    update either leaves lo and hi as they are or collapses them onto mid,
    so every later step of a fixed 64 finds the same mid and their result
    0.5 * (lo + hi) is mid, bitwise.  A width test would stop short of that
    point and change the result.  R is the period's float kernel r,
    Period.r_kernel, bitwise return_map; where s2 is below the floor its
    guard counts as NaN, which compares as "not below", as return_map's
    NaN on an array does.

    Most nodes' comparisons are known without r.  Where the proof holds,
    R rises on the widened A_i with slope at least inf R' and |r - R| <=
    eta there, so two floats a band = 2*eta/inf R' or more apart have r in
    their order.  From c* and the derivative estimate, a Newton step and
    two secant steps give an estimate x^; if x_L = x^ - band and x_R = x^ +
    band lie in the widened A_i and r(x_L) < y <= r(x_R), then every node
    m at or below x_L - band has r(m) <= r(x_L) < y and takes lo = m, and
    every node at or above x_R + band has r(m) >= r(x_R) >= y and takes
    hi = m, with no kernel call: the comparison the plain bisection makes
    there, so the result is bitwise its result.  Both thresholds are
    rounded outward.  Where the proof fails, or the estimate is not
    bracketed, every node is evaluated.
    """
    lo, hi = b.domains[i]
    e = b.epsilons[i]
    rep = b.reports[i]
    r_kernel = rep.period.r_kernel
    below, above = -math.inf, math.inf  # nodes decided without r: none yet
    proof = b._proof
    if not isinstance(proof, str):
        a, z, band = proof[i][1]
        c = rep.c_star  # R(c*) = c*: the first secant's other point
        x1 = min(max(c + (y - c) / rep.derivative_estimate, a), z)
        r1 = r_kernel(x1, e)
        x2 = min(max(x1 + (y - r1) * (x1 - c) / (r1 - c), a), z) if r1 != c else x1
        r2 = r_kernel(x2, e)
        x = x2 + (y - r2) * (x2 - x1) / (r2 - r1) if r2 != r1 else x2
        xl, xr = x - band, x + band
        if a <= xl and xr <= z and r_kernel(xl, e) < y <= r_kernel(xr, e):
            below, above = widen(xl - band, xr + band)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            try:
                r = r_kernel(mid, e)
            except DivisionGuard:
                r = math.nan
            if r < y:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def _domain_end(rep, target: float, step: float, span: float) -> float:
    """The x beside the fixed point c of the report rep, on the side step
    (-1 or 1), with R(x, eps) = target: double a bracket from c until R
    crosses target, then bisect it.  R increases, so R(x) < target puts x
    below the answer.  R is the period's float kernel, Period.r_kernel."""
    r_kernel, e, c = rep.period.r_kernel, rep.eps, rep.c_star
    w = span / 4.0
    # step * (R - target) < 0: R has not yet reached target on that side
    while step * (r_kernel(c + step * w, e) - target) < 0.0:
        w *= 2.0
    lo, hi = sorted((c, c + step * w))
    return bisect(lambda x: r_kernel(x, e) < target, lo, hi, INVERSE_TOL)


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
        (_domain_end(r, base_lo, -1.0, span), _domain_end(r, base_hi, 1.0, span))
        for r in reports
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


def _check_alphabet(b: BranchSystem, alpha: Word) -> None:
    if b.alphabet != alpha.alphabet:
        raise ValueError("word alphabet does not match the branch system")


def code_to_point(b: BranchSystem, alpha: Word, depth: int) -> Coding:
    """c(alpha) from the first `depth` letters by backward composition."""
    _check_alphabet(b, alpha)
    if depth < 1 or depth > len(alpha):
        raise ValueError("need 1 <= depth <= len(alpha)")
    letters = alpha.symbols[:depth]
    xs = _backward_codings(b, letters, min(2, depth))
    if len(xs) > 1:
        residual = abs(b.map(letters[0], xs[0]) - xs[1])
    else:
        residual = abs(b.map(letters[0], xs[0]) - 0.5 * (b.base[0] + b.base[1]))
    return Coding(xs[0], residual)


def coded_orbit(b: BranchSystem, alpha: Word, count: int):
    """c(sigma^n alpha) for n = 0..count-1, from the cyclic extension."""
    _check_alphabet(b, alpha)
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
    # m >= 2 gives m^64 > MAX_COUNT: a larger n is refused without its power
    if m > 1 and (n >= 64 or m**n > MAX_COUNT):
        limit = 1
        while m ** (limit + 1) <= MAX_COUNT:
            limit += 1
        raise ValueError(
            f"{m}^{n} cylinders exceed the count limit 2^63 - 1: "
            f"need n <= {limit} for {m} letters"
        )
    b.slopes  # the proof runs once per system; raises NotAHorseshoe if it failed
    return [m**k for k in range(1, n + 1)]


def cylinder_count(b: BranchSystem, n: int) -> int:
    """Number of n-cylinders; the last of cylinder_counts."""
    return cylinder_counts(b, n)[-1]


def entropy_estimate(b: BranchSystem, n: int) -> float:
    return math.log(cylinder_count(b, n)) / n


def symbol_scaling_sequence(b: BranchSystem, alpha: Word) -> ScalingSequence:
    """Scaling data of f_alpha: level n uses c(sigma^n alpha) and eps_{alpha_n}.

    coded_orbit refuses a word over another alphabet."""
    n = len(alpha)
    cs = coded_orbit(b, alpha, n)
    letters = alpha.cyclic(n)
    levels = [LevelData(cs[m], b.epsilons[letters[m]]) for m in range(n)]
    return ScalingSequence.from_levels(b.reports[0].period, levels)


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
