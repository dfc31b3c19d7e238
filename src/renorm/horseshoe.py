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
import math
from functools import cached_property

from .interval import Interval, Jet
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
NODE_CAP = 4096  # memo entries per branch (about 0.4 MB); later nodes are not stored


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
    def _nodes(self) -> tuple:
        """Per-branch memo {node: R(node)} of _invert_point's bisection."""
        return tuple({} for _ in self.epsilons)

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
        for i, ((a, z), e, rep) in enumerate(zip(doms, self.epsilons, self.reports)):
            try:
                slope = return_map(rep.period, Jet(Interval(a, z), Interval(1.0, 1.0)), e).der
            except DivisionGuard as exc:
                raise NotAHorseshoe(f"branch {i} is not smooth on A_{i}: {exc}") from None
            if not slope.lo > 1.0:
                raise NotAHorseshoe(f"branch {i} slope {slope} is not above 1 on A_{i}")
            img_lo = return_map(rep.period, Interval(a, a), e)
            img_hi = return_map(rep.period, Interval(z, z), e)
            if not (img_lo.hi <= lo and img_hi.lo >= hi):
                raise NotAHorseshoe(
                    f"branch {i} image [{img_lo.hi}, {img_hi.lo}] does not cover the base"
                )
            out.append(slope)
        return tuple(out)


def _invert_point(b: BranchSystem, i: int, y: float) -> float:
    """The x in A_i with R(x, eps_i) = y by monotone bisection in plain floats.

    At most 64 steps.  It returns mid as soon as mid equals lo or hi,
    without evaluating R there: whichever way the comparison would go, the
    update either leaves lo and hi as they are or collapses them onto mid,
    so every later step of a fixed 64 finds the same mid and their result
    0.5 * (lo + hi) is mid, bitwise.  A width test would stop short of that
    point and change the result.

    The nodes are the same for every y until the path splits, so R at each
    node is kept in the branch's memo (b._nodes[i]).  It is read down to
    the first node the memo does not hold; from that node down, R is
    evaluated by the period's float kernel (Period.r_kernel, bitwise
    return_map) and stored while the memo has room (NODE_CAP entries),
    with no more lookups.  None are needed because of the memo's
    invariant: no stored node lies below a missing one.  Nodes are stored
    top-down along a path (each node's ancestors were read or stored
    before it, and the room only shrinks) and the memo only grows, so a
    node missing from it has no stored descendant.  The first inversions
    store the top levels, which every later word passes through.  R is a
    pure function of the node, so a memo read is bitwise the evaluation.
    Where s2 is below the floor the guard is stored as NaN, which compares
    as "not below", as return_map's NaN on an array does.
    """
    lo, hi = b.domains[i]
    e = b.epsilons[i]
    r_kernel = b.reports[i].period.r_kernel
    memo = b._nodes[i]
    get = memo.get  # None from the first miss on
    room = NODE_CAP - len(memo)  # entries the memo may still take
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        r = get(mid) if get else None
        if r is None:
            get = None
            try:
                r = r_kernel(mid, e)
            except DivisionGuard:
                r = math.nan
            if room > 0:
                memo[mid] = r
                room -= 1
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
    b.slopes  # the proof, once per system; raises NotAHorseshoe if it fails
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
