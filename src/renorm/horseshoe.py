"""Expanding multi-branch system built from eps-perturbed return maps.

Fixed points of R(., eps_i) for eps_0 > eps_1 > ... near 1 are ordered
increasingly in c; each branch maps a small interval A_i around its fixed
point diffeomorphically onto the common base [c_first*, c_last*] with
derivative above 2.  Backward composition of the contracting inverse
branches codes symbol sequences to points of the invariant Cantor set,
every cylinder is nonempty (the full shift), and the coded critical
points generate proper scaling data for symbol-driven towers and maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .scaling import DivisionGuard, Period, return_map
from .solver import solve_fixed_point_eps
from .tower import LevelData, ScalingSequence

INVERSE_TOL = 1e-13
CYLINDER_CAP = 14          # depth cap for the three-letter system
CYLINDER_TOTAL_CAP = 3**14  # and the matching bound on alphabet**n overall
CYLINDER_SLACK = 1e-10      # negative cylinder width forgiven, relative to the base
CODING_PAD = 16  # extra backward letters; contraction > 2 makes 2^-16 plenty
LANE_BLOCK = 1 << 13  # inversion lanes per call: big enough to share the
                      # per-call overhead, small enough to stay in cache


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


def _invert_branch(b: BranchSystem, i, ys):
    """Vectorized monotone bisection of R(., eps_i) = y inside A_i.

    i is one letter or an array of letters, one per lane of ys; each lane
    reads its own A_i and eps_i, so a call over several letters is bitwise
    the per-letter calls.  At most 64 steps; it stops after the first step
    that moves no lane.  That step is a fixed point of the update (the same
    lo and hi give the same mid and comparison), so the rest of a fixed 64
    steps would change nothing and the result is bitwise theirs.  A width
    test would stop short of that point and change the result.
    """
    ys = np.asarray(ys, dtype=float)
    doms = np.asarray(b.domains)
    lo = np.broadcast_to(doms[i, 0], ys.shape)
    hi = np.broadcast_to(doms[i, 1], ys.shape)
    eps = np.asarray(b.epsilons)[i]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = return_map(Period.THREE, mid, eps=eps) < ys
        new_lo = np.where(below, mid, lo)
        new_hi = np.where(below, hi, mid)
        if (new_lo == lo).all() and (new_hi == hi).all():
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _invert_point(b: BranchSystem, i: int, y: float) -> float:
    """_invert_branch for one float: the same midpoints and comparisons in
    plain floats, stopping at the same fixed point, so bitwise its lane."""
    lo, hi = b.domains[i]
    e = b.epsilons[i]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        try:
            below = return_map(Period.THREE, mid, eps=e) < y
        except DivisionGuard:
            below = False  # the array path's NaN compares false
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
    (_invert_point), bitwise what _invert_branch gives one lane.  Backward
    consistency makes R(x_n, eps_{a_n}) = x_{n+1} hold to the inversion
    tolerance, which is what towers built from the codings need.
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
    """Numbers of nonempty k-cylinders for k = 1..n from one pass of nested
    inverse-branch intervals.

    The A_i must be disjoint and increasing and each branch image must
    cover the base (both checked before any nesting), so for a genuine
    horseshoe the count is alphabet^k; words whose nested interval
    collapses inconsistently would be dropped.
    """
    if not 1 <= n <= CYLINDER_CAP:
        raise ValueError(f"need 1 <= n <= {CYLINDER_CAP}")
    if b.alphabet**n > CYLINDER_TOTAL_CAP:
        raise ValueError(
            f"{b.alphabet}^{n} cylinders exceed the desk-scale cap {CYLINDER_TOTAL_CAP}"
        )
    base_lo, base_hi = b.base
    slack = CYLINDER_SLACK * (base_hi - base_lo)
    for i, (lo, hi) in enumerate(b.domains):
        img_lo, img_hi = b.map(i, lo), b.map(i, hi)
        if img_lo > base_lo + 1e-9 or img_hi < base_hi - 1e-9:
            raise RuntimeError(
                f"branch {i} image [{img_lo}, {img_hi}] does not cover the base"
            )
    ends = [x for d in b.domains for x in d]
    if any(not x < y for x, y in zip(ends, ends[1:])):
        raise RuntimeError(f"branch domains {b.domains} are not disjoint and increasing")
    los = np.array([d[0] for d in b.domains])
    his = np.array([d[1] for d in b.domains])
    counts = [int(np.count_nonzero(his - los >= -slack))]
    for _ in range(n - 1):
        los, his = _next_level(b, los, his)
        counts.append(int(np.count_nonzero(his - los >= -slack)))
    return counts


def cylinder_count(b: BranchSystem, n: int) -> int:
    """Number of nonempty n-cylinders; the last of cylinder_counts."""
    return cylinder_counts(b, n)[-1]


def _next_level(b: BranchSystem, los, his):
    """Endpoints of the (n+1)-cylinders from those of the n-cylinders,
    letter-major: R_i^{-1} of every n-cylinder for i = 0, 1, ...

    Every letter's inversion of both endpoint arrays is one run of lanes,
    letter-major with los before his, cut into blocks of LANE_BLOCK lanes
    and inverted one _invert_branch call per block.  The lanes are
    independent, so the blocks change no number.
    """
    k = len(los)
    ends = np.concatenate([los, his])
    out = np.empty(b.alphabet * 2 * k)
    for start in range(0, len(out), LANE_BLOCK):
        lane = np.arange(start, min(start + LANE_BLOCK, len(out)))
        out[start : start + LANE_BLOCK] = _invert_branch(b, lane // (2 * k), ends[lane % (2 * k)])
    out = out.reshape(b.alphabet, 2, k)
    return out[:, 0].ravel(), out[:, 1].ravel()


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
