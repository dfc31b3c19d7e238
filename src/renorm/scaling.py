"""Scaling factors, gaps, feasibility and the critical-point return map.

For period three the orbit of 0 under u_c determines a scaling tri-factor

    s1 = u^3(0),  s2 = u^4(0) - u(0),  s3 = 1 - u^2(0)

and for period five a quint-factor

    s1 = u^5(0),          s2 = u^8(0) - u^3(0),  s3 = u^6(0) - u(0),
    s4 = u^2(0) - u^7(0), s5 = 1 - u^4(0).

A critical point is feasible when every component and every gap between
consecutive first-generation intervals is positive.  The return map
R(c) = (u^{p+1}... orbit endpoint - c)/s2 sends the critical point of a
renormalizable map to the critical point of its renormalization; its
fixed point is the self-similar configuration.

The eps-perturbed tripling system pulls u^3(0) to eps*u^3(0) and continues
the orbit from the pulled point; eps = 1 is the unperturbed map, so both
are read off one orbit (_orbit_points), the only place eps enters the
orbit.  pwa.build_pwa applies the same pull to the inner endpoint value of
each I_3 branch, the one other site that knows the rule.

All condition evaluators and return_map accept numpy arrays of critical
points, so the domain scanner sweeps (0, 1/2) and the fixed-point solver
scans each feasible interval in one call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .quadratic import eval_raw

S2_FLOOR = 1e-14  # refuse to divide by a smaller central-interval length


class DivisionGuard(ArithmeticError):
    """s2 fell below the floor; the return map is not evaluable here."""


class Period(enum.Enum):
    THREE = 3
    FIVE = 5

    @property
    def p(self) -> int:
        return self.value


CONDITION_NAMES = {
    Period.THREE: ("S1", "S2", "S3", "Gl", "Gr"),
    Period.FIVE: ("S1", "S2", "S3", "S4", "S5", "Gl", "Gr1", "Gr2", "Gr3"),
}


@dataclass(frozen=True)
class ScalingFactor:
    """A point of T_k with the critical point (and eps) that produced it.

    Out-of-simplex vectors are data, not errors: the feasibility scanner
    has to evaluate infeasible critical points, so validity is a flag.
    """

    period: Period
    s: tuple
    c: float | None = None
    eps: float = 1.0

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
    boundary_tol: float
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


# (p, 2p - 2): the pulled orbit index and the last index the conditions read
_ORBIT_SPAN = {Period.THREE: (3, 4), Period.FIVE: (5, 8)}


def _orbit_points(period: Period, c, eps: float = 1.0):
    """[0, u(0), ..., u^{2p-2}(0)] for scalar or array c, with u^p(0)
    replaced by eps*u^p(0) and the orbit continued from the pulled point.

    Multiplying by eps = 1.0 is exact, so the unperturbed orbit comes out
    bitwise; the perturbation is defined for period three only.
    """
    if eps != 1.0:
        if period is not Period.THREE:
            raise ValueError("eps-perturbation is defined for period three only")
        if not eps > 0.0:
            raise ValueError("eps must be positive")
    p, last = _ORBIT_SPAN[period]
    x = 0.0
    out = [x]
    for _ in range(p):
        x = eval_raw(c, x)
        out.append(x)
    x = out[p] = eps * x
    for _ in range(p, last):
        x = eval_raw(c, x)
        out.append(x)
    return out


def _components(period: Period, o):
    if period is Period.THREE:
        return (o[3], o[4] - o[1], 1.0 - o[2])
    return (o[5], o[8] - o[3], o[6] - o[1], o[2] - o[7], 1.0 - o[4])


def _gap_components(period: Period, o):
    if period is Period.THREE:
        return (o[1] - o[3], o[2] - o[4])
    return (o[3] - o[5], o[1] - o[8], o[7] - o[6], o[4] - o[2])


def _condition_values(period: Period, c, eps: float = 1.0) -> tuple:
    """All positivity conditions (scaling components then gaps) as a tuple;
    the scalar refinements read it without building an array."""
    o = _orbit_points(period, c, eps)
    return _components(period, o) + _gap_components(period, o)


def conditions(period: Period, c, eps: float = 1.0):
    """All positivity conditions (scaling components then gaps), vectorized."""
    return np.array(_condition_values(period, c, eps))


def scaling_from_critical(period: Period, c: float, eps: float = 1.0) -> ScalingFactor:
    s = _components(period, _orbit_points(period, c, eps))
    return ScalingFactor(period, tuple(float(x) for x in s), c=c, eps=eps)


def gaps(period: Period, c: float) -> GapVector:
    g = _gap_components(period, _orbit_points(period, c))
    return GapVector(period, tuple(float(x) for x in g))


def feasibility(period: Period, c: float, eps: float = 1.0) -> bool:
    """True iff all scaling components and all gaps are positive (and
    0 < c < 1/2).  The simplex sum condition is implied; it is checked
    anyway and a violation flags a broken implementation."""
    if not 0.0 < c < 0.5:
        return False
    cond = conditions(period, c, eps)
    if not bool(np.all(cond > 0.0)):
        return False
    if float(np.sum(cond[: period.p])) >= 1.0:
        raise RuntimeError(
            "positivity held but the simplex sum exceeded 1; "
            "the gap conditions should forbid this"
        )
    return True


def return_map(period: Period, c: float, eps: float = 1.0):
    """R(c) = (last orbit point - c)/s2, the rescaled next critical point.

    One guard rule for both paths: where s2 <= S2_FLOOR a scalar c raises
    DivisionGuard and an array c gets NaN, so an array call equals the
    scalar calls elementwise, bitwise, with NaN standing for the raise.
    """
    o = _orbit_points(period, c, eps)
    top = o[-1]
    s2 = top - (o[1] if period is Period.THREE else o[3])
    if isinstance(s2, float):
        if s2 <= S2_FLOOR:
            raise DivisionGuard(f"s2={s2} at c={c} is below the floor {S2_FLOOR}")
    else:
        # dividing by NaN is quiet: no value from across the pole, no warning
        s2[s2 <= S2_FLOOR] = np.nan
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
    return ScalingFactor(Period.THREE, (float(s1), float(s2), float(s3)), c=c)


class EmptyDomain(RuntimeError):
    """The scan found no feasible point; the predicate must be wrong."""


def _bisect_boundary(period, ok_pt, bad_pt, tol, eps=1.0):
    """Bisect min(all conditions) between a feasible and an infeasible point."""

    def feasible(c):
        # all(), not min(): a NaN condition must count as infeasible
        if not 0.0 < c < 0.5:
            return False
        return all(v > 0.0 for v in _condition_values(period, c, eps))

    a, b = ok_pt, bad_pt
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if feasible(mid):
            a = mid
        else:
            b = mid
    c = 0.5 * (a + b)
    name = CONDITION_NAMES[period][int(np.argmin(conditions(period, c, eps)))]
    return c, name


def _refine_touch(fn, lo, hi, tol):
    """Golden-section minimum of a single condition; used for punctures."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fn(x2)
    x = 0.5 * (a + b)
    return x, fn(x)


def feasible_domain(
    period: Period,
    scan_step: float = 1e-4,
    refine_tol: float = 1e-12,
    eps: float = 1.0,
) -> FeasibleDomain:
    """Sign-scan feasibility over (0, 1/2) and refine every boundary.

    Outer boundaries are bisected on the minimum over all conditions and
    labeled with the condition that vanishes there.  Interior punctures,
    where one condition touches zero without changing sign, are found by
    refining per-condition grid minima; each puncture splits its feasible
    interval in two, matching the punctured unions printed in the source
    domains.
    """
    if not 0.0 < scan_step <= 1e-2:
        raise ValueError("scan_step must lie in (0, 1e-2]")
    if refine_tol > 1e-9:
        raise ValueError("refine_tol must be <= 1e-9")
    cs = np.arange(scan_step, 0.5, scan_step)
    cond = conditions(period, cs, eps)
    worst = cond.min(axis=0)
    ok = worst > 0.0
    if not ok.any():
        raise EmptyDomain(f"no feasible point for {period} at step {scan_step}")

    # maximal runs of feasible grid points
    idx = np.flatnonzero(ok)
    splits = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, splits + 1)

    names = CONDITION_NAMES[period]
    intervals = []
    boundaries = []
    punctures = []
    for run in runs:
        i0, i1 = run[0], run[-1]
        lo_out = float(cs[i0]) - scan_step if i0 > 0 else 0.0
        hi_out = float(cs[i1]) + scan_step if i1 + 1 < len(cs) else 0.5
        lo, lo_name = _bisect_boundary(period, float(cs[i0]), lo_out, refine_tol, eps)
        hi, hi_name = _bisect_boundary(period, float(cs[i1]), hi_out, refine_tol, eps)
        boundaries.append((lo, lo_name))
        boundaries.append((hi, hi_name))

        # interior touch points of single conditions
        touch = []
        for j in range(cond.shape[0]):
            vals = cond[j, i0 : i1 + 1]
            if len(vals) < 3:
                continue
            interior = np.flatnonzero(
                (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
            )
            for t in interior:
                if vals[t + 1] > 1e-4:
                    continue  # an ordinary smooth minimum, not a touch
                a = float(cs[i0 + t])
                b = float(cs[i0 + t + 2])
                fn = lambda x, j=j: _condition_values(period, x, eps)[j]
                x, v = _refine_touch(fn, a, b, refine_tol)
                if v < 1e-10:
                    touch.append((x, names[j]))
        # collapse coincident touches (several conditions can vanish together)
        touch.sort()
        cut = []
        for x, nm in touch:
            if cut and abs(x - cut[-1][0]) < 10 * max(refine_tol, 1e-12):
                cut[-1] = (cut[-1][0], cut[-1][1] + "+" + nm)
            else:
                cut.append((x, nm))
        punctures.extend(cut)

        pts = [lo] + [x for x, _ in cut] + [hi]
        for a, b in zip(pts[:-1], pts[1:]):
            intervals.append((a, b))

    return FeasibleDomain(
        period,
        intervals,
        boundary_tol=refine_tol,
        boundaries=boundaries,
        punctures=punctures,
    )
