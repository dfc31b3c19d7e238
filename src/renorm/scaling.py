"""The quadratic family's critical orbit and what it determines: scaling
factors, gaps, feasibility and the critical-point return map.

u_c(x) = 1 - ((x - c)/(1 - c))**2 on [0, 1] (eval_raw) has its critical
point at c and critical exponent 2.  Everything the package builds (scaling
factors, towers, piecewise-affine maps, extensions) is read off the orbit
of 0 under u_c, and _orbit_points is the one loop that computes it.

One table, COMBINATORICS, holds all that differs between the periods;
each Period member carries its row as .comb, so hot calls read it as a
plain attribute.  The rows list the first-generation intervals I_1 .. I_p
left to right as (left, right) indices into the critical orbit
o_k = u^k(0), ONE standing for the point 1.0:

    p = 3:  I1 = (0, 3)  I2 = (1, 4)  I3 = (2, ONE)
    p = 5:  I1 = (0, 5)  I2 = (3, 8)  I3 = (1, 6)  I4 = (7, 2)  I5 = (4, ONE)

The scaling factor is the lengths s_j = o[right] - o[left] (for tripling
s1 = u^3(0), s2 = u^4(0) - u(0), s3 = 1 - u^2(0)), the gaps are
o[next left] - o[this right], and a critical point is feasible when all
of them are positive.  The return map R(c) = (o[right of I_2] - c)/s2
sends the critical point of a renormalizable map to that of its
renormalization; its fixed point is the self-similar configuration.  The
rows also carry the condition names and the renormalization cycle.

The eps-perturbed tripling system pulls u^3(0) to eps*u^3(0) and continues
the orbit from the pulled point; eps = 1 is the unperturbed map, so both
are read off one orbit (_orbit_points): one loop of u-steps, with 1 - c
computed once and the pull applied inside the loop at step p, the only
place eps enters the orbit.  The same loop runs on floats, numpy arrays,
Intervals and interval.Jets.  pwa.build_pwa applies the same pull to the
branch value at u^2(0), the inner end of I_3, the one other site that
knows the rule.

All condition evaluators and return_map accept numpy arrays of critical
points, so the domain scanner sweeps (0, 1/2) and the fixed-point solver
scans each feasible interval in one call.  return_map also takes an
Interval or a Jet of c and then encloses R (and dR/dc for a Jet); its one
s2 guard has a rule for each of the three kinds of number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

S2_FLOOR = 1e-14  # refuse to divide by a smaller central-interval length
REFINE_TOL = 1e-12  # bracket width of every domain boundary and puncture


class NumericalFailure(Exception):
    """Base of every failure the numerics, not the input, are to blame for:
    the CLI exits 3 on it.  Each such class keeps its own second base."""


class DivisionGuard(NumericalFailure, ArithmeticError):
    """s2 fell below the floor; the return map is not evaluable here."""


ONE = -1  # the orbit index of the point 1.0, counted below every other index


@dataclass(frozen=True)
class Combinatorics:
    """One period's row of the table (see the module docstring)."""

    intervals: tuple  # I_1 .. I_p, left to right, as (left, right) orbit indices
    names: tuple      # the conditions: each I_j's length, then each gap
    cycle: tuple      # the intervals in the order u visits them, from I_2

    @cached_property
    def pairs(self) -> tuple:
        """(plus, minus) orbit indices of each condition o[plus] - o[minus]."""
        ivs = self.intervals
        lengths = tuple((right, left) for left, right in ivs)
        return lengths + tuple((b[0], a[1]) for a, b in zip(ivs, ivs[1:]))

    @cached_property
    def central(self) -> tuple:
        """(left, right) orbit indices of the central interval I_2."""
        return self.intervals[1]


# keyed by the period p; each Period member carries its row as .comb
COMBINATORICS = {
    3: Combinatorics(
        intervals=((0, 3), (1, 4), (2, ONE)),
        names=("S1", "S2", "S3", "Gl", "Gr"),
        cycle=(2, 3, 1),
    ),
    5: Combinatorics(
        intervals=((0, 5), (3, 8), (1, 6), (7, 2), (4, ONE)),
        names=("S1", "S2", "S3", "S4", "S5", "Gl", "Gr1", "Gr2", "Gr3"),
        cycle=(2, 5, 1, 3, 4),
    ),
}


class Period(enum.Enum):
    THREE = 3
    FIVE = 5

    def __init__(self, p: int):
        # plain attributes: every orbit evaluation reads them, and a dict
        # keyed by the member would run Enum.__hash__ in Python each time
        self.p = p
        self.comb = COMBINATORICS[p]


@dataclass(frozen=True)
class ScalingFactor:
    """A point of T_k.

    Out-of-simplex vectors are data, not errors: the feasibility scanner
    has to evaluate infeasible critical points, so validity is a flag.
    """

    period: Period
    s: tuple

    @property
    def is_valid(self) -> bool:
        return all(x > 0.0 for x in self.s) and sum(self.s) < 1.0

    @property
    def simplex_margin(self) -> float:
        """Euclidean distance to the boundary of the open simplex T_k."""
        plane = (1.0 - sum(self.s)) / np.sqrt(len(self.s))
        return min(min(self.s), plane)


@dataclass(frozen=True)
class GapVector:
    period: Period
    gaps: tuple

    @property
    def all_positive(self) -> bool:
        return all(g > 0.0 for g in self.gaps)


@dataclass(frozen=True)
class FeasibleDomain:
    period: Period
    intervals: list
    # (c, condition-name) for each outer boundary and each interior puncture
    boundaries: list = field(default_factory=list)
    punctures: list = field(default_factory=list)

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[-1][1]

    def covering_interval(self, c: float):
        for lo, hi in self.intervals:
            if lo <= c <= hi:
                return (lo, hi)
        return None


def eval_raw(c, x):
    """u_c(x) = 1 - ((x - c)/(1 - c))**2, without domain checks.  Works on
    floats and numpy arrays."""
    t = (x - c) / (1.0 - c)
    return 1.0 - t * t


def _orbit_points(period: Period, c, eps: float = 1.0):
    """[0, u(0), ..., u^{2p-2}(0), 1.0] for c a float, a numpy array, an
    Interval or an interval.Jet: the critical orbit with u^p(0) replaced
    by eps*u^p(0) and continued from the pulled point, then the point 1.0
    at index ONE.

    Each step is eval_raw's t = (x - c)/(1 - c), x = 1 - t*t
    with 1 - c computed once: the same operations in the same order, so
    every point is bitwise eval_raw's.  Multiplying by eps = 1.0 is exact,
    so the unperturbed orbit comes out bitwise; the perturbation is defined
    for period three only.
    """
    if eps != 1.0:
        if period is not Period.THREE:
            raise ValueError("eps-perturbation is defined for period three only")
        if not eps > 0.0:
            raise ValueError("eps must be positive")
    p = period.p
    d = 1.0 - c
    x = 0.0
    out = [x]
    for k in range(1, 2 * p - 1):
        t = (x - c) / d
        x = 1.0 - t * t
        if k == p:
            x = eps * x
        out.append(x)
    out.append(1.0)
    return out


def _condition_values(period: Period, c, eps: float = 1.0) -> tuple:
    """All positivity conditions (lengths then gaps) as a tuple; the
    scalar refinements read it without building an array."""
    o = _orbit_points(period, c, eps)
    return tuple([o[i] - o[j] for i, j in period.comb.pairs])


def conditions(period: Period, c, eps: float = 1.0):
    """All positivity conditions (lengths then gaps), vectorized."""
    return np.array(_condition_values(period, c, eps))


def scaling_from_critical(period: Period, c: float, eps: float = 1.0) -> ScalingFactor:
    s = _condition_values(period, c, eps)[: period.p]
    return ScalingFactor(period, tuple(float(x) for x in s))


def gaps(period: Period, c: float) -> GapVector:
    g = _condition_values(period, c)[period.p :]
    return GapVector(period, tuple(float(x) for x in g))


def feasibility(period: Period, c: float, eps: float = 1.0) -> bool:
    """True iff all scaling components and all gaps are positive (and
    0 < c < 1/2).  The simplex sum condition is implied; it is checked
    anyway and a violation flags a broken implementation."""
    if not 0.0 < c < 0.5:
        return False
    vals = _condition_values(period, c, eps)
    for v in vals:
        if not v > 0.0:  # not min(): a NaN condition must count as infeasible
            return False
    if sum(vals[: period.p]) >= 1.0:
        raise RuntimeError(
            "positivity held but the simplex sum exceeded 1; "
            "the gap conditions should forbid this"
        )
    return True


def return_map(period: Period, c, eps: float = 1.0):
    """R(c) = (u^{2p-2}(0) - c)/s2, the rescaled next critical point.

    One s2 guard, with a rule for each kind of c.  Where s2 <= S2_FLOOR a
    float c raises DivisionGuard and an array c gets NaN, so an array call
    equals the float calls elementwise, bitwise, with NaN standing for the
    raise.  An Interval c, or an interval.Jet that carries dR/dc along,
    gives an enclosure and raises DivisionGuard unless the lower bound of
    the s2 enclosure lies above the floor.
    """
    o = _orbit_points(period, c, eps)
    left, right = period.comb.central
    top = o[right]
    s2 = top - o[left]
    if isinstance(s2, float):
        if s2 <= S2_FLOOR:
            raise DivisionGuard(f"s2={s2} at c={c} is below the floor {S2_FLOOR}")
    elif isinstance(s2, np.ndarray):
        # dividing by NaN is quiet: no value from across the pole, no warning
        s2[s2 <= S2_FLOOR] = np.nan
    else:
        s2_val = getattr(s2, "val", s2)  # a Jet's value part
        if not s2_val.lo > S2_FLOOR:
            over = getattr(c, "val", c)
            raise DivisionGuard(f"s2 enclosure {s2_val} over {over} is not above the floor {S2_FLOOR}")
    return (top - c) / s2


def _poly_p(c):
    # c - 8c^2 + 21c^3 - 25c^4 + 17c^5 - 6c^6 + c^7, printed coefficients
    return c * (1 + c * (-8 + c * (21 + c * (-25 + c * (17 + c * (-6 + c))))))


def scaling_closed_form_tripling(c: float) -> ScalingFactor:
    """The printed rational expressions for the tripling factor.

    Kept verbatim (including the (-1+c)^15 form) as the independent route
    against the orbit computation.
    """
    p = _poly_p(c)
    one_m = 1.0 - c
    s1 = 1.0 - p**2 / one_m**14
    s2 = (c**2 * one_m**28 - ((-1.0 + c) ** 15 + p**2) ** 2) / one_m**30
    s3 = (-1.0 + 3.0 * c - 2.0 * c**2 + c**3) ** 2 / one_m**6
    return ScalingFactor(Period.THREE, (float(s1), float(s2), float(s3)))


class EmptyDomain(NumericalFailure, RuntimeError):
    """The scan found no feasible point; the predicate must be wrong."""


def bisect(keep, a, b, tol):
    """Halve the bracket between a and b (either may be the larger) until
    it is at most tol wide, moving a to each midpoint where keep holds and
    b to every other; return the midpoint of what is left."""
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if keep(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _bisect_boundary(period, ok_pt, bad_pt, eps=1.0):
    """Bisect min(all conditions) between a feasible and an infeasible point."""
    c = bisect(lambda x: feasibility(period, x, eps), ok_pt, bad_pt, REFINE_TOL)
    name = period.comb.names[int(np.argmin(conditions(period, c, eps)))]
    return c, name


def _refine_touch(fn, lo, hi):
    """Golden-section minimum of a single condition; used for punctures."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > REFINE_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fn(x2)
    return 0.5 * (a + b)


def feasible_domain(period: Period, scan_step: float = 1e-4, eps: float = 1.0) -> FeasibleDomain:
    """Sign-scan feasibility over (0, 1/2) and refine every boundary.

    Outer boundaries are bisected on the minimum over all conditions and
    labeled with the condition that vanishes there.  Interior punctures,
    where conditions touch zero without changing sign, are found by
    refining each grid minimum once and are named after every condition
    that vanishes there; each puncture splits its feasible interval in
    two, matching the punctured unions printed in the source domains.
    """
    # the scan holds every condition at every grid point: refuse a step
    # below 1e-6 (about 130 MB for period five) before allocating
    if not 1e-6 <= scan_step <= 1e-2:
        raise ValueError(f"scan_step {scan_step} must lie in [1e-6, 1e-2]")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    cs = np.arange(scan_step, 0.5, scan_step)
    # one row per condition, never stacked into one matrix: that stack
    # (195 KiB for period three, 351 KiB for five) can be large enough for
    # the allocator to map it afresh, page fault by page fault, every call.
    # A huge eps overflows the orbit after the pull, quietly: an orbit point
    # past it that overflows is -inf, and so is the length S2 it ends, so
    # the point fails worst > 0 whatever its other conditions read.
    with np.errstate(over="ignore", invalid="ignore"):
        cond = _condition_values(period, cs, eps)
    worst = cond[0]
    for row in cond[1:]:
        worst = np.minimum(worst, row)
    ok = worst > 0.0
    if not ok.any():
        raise EmptyDomain(f"no feasible point for {period} at step {scan_step}")

    # maximal runs of feasible grid points
    idx = np.flatnonzero(ok)
    splits = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, splits + 1)

    comb = period.comb
    intervals = []
    boundaries = []
    punctures = []
    for run in runs:
        i0, i1 = run[0], run[-1]
        lo_out = float(cs[i0]) - scan_step if i0 > 0 else 0.0
        hi_out = float(cs[i1]) + scan_step if i1 + 1 < len(cs) else 0.5
        lo, lo_name = _bisect_boundary(period, float(cs[i0]), lo_out, eps)
        hi, hi_name = _bisect_boundary(period, float(cs[i1]), hi_out, eps)
        boundaries.append((lo, lo_name))
        boundaries.append((hi, hi_name))

        # interior touch points: grid minima that dip to near zero (above
        # 1e-4 is an ordinary smooth minimum), keyed by the grid index
        # before the minimum, each with the first condition dipping there
        # (np.nonzero reads row-major, conditions in order)
        vals = np.array([row[i0 : i1 + 1] for row in cond])
        mid = vals[:, 1:-1]
        dips = (mid < vals[:, :-2]) & (mid < vals[:, 2:]) & (mid <= 1e-4)
        touch = {}
        for j, t in zip(*np.nonzero(dips)):
            touch.setdefault(i0 + t, j)
        # several conditions can vanish at one point: refine each location
        # once and name it after every condition that vanishes there
        cut = []
        for k in sorted(touch):
            # the one condition that dips here, read off the orbit alone
            i, j = comb.pairs[touch[k]]

            def fn(x):
                o = _orbit_points(period, x, eps)
                return o[i] - o[j]

            x = _refine_touch(fn, float(cs[k]), float(cs[k + 2]))
            vals = _condition_values(period, x, eps)
            names = sorted(nm for nm, v in zip(comb.names, vals) if v < 1e-10)
            if names:
                cut.append((x, "+".join(names)))
        punctures.extend(cut)

        pts = [lo] + [x for x, _ in cut] + [hi]
        for a, b in zip(pts[:-1], pts[1:]):
            intervals.append((a, b))

    return FeasibleDomain(period, intervals, boundaries, punctures)
