"""Fixed points of the return maps R(c) and R(c, eps).

Roots of R(c) - c are isolated by a sign scan over the feasible domain:
the grids of all feasible intervals are written into one array, and the
period's root_kernel, R(c) - c on an array with out= ufuncs, runs once
over it (NaN where R's s2 guard trips, so the scan never pairs values
across a pole, nor across the gap between two intervals).  Where
scaling._scan_per_point's rule has the scan run per point (numpy not
loaded, and the work within the budget left), the period's root_scan
loop runs over each interval's grid, a list, with the orbit inline and
the same rule for a sign change, bitwise the array scan's brackets.  Each
bracket is then refined on Python floats by scalar bisection and
polished with a secant step loop, both calling the period's r_kernel
directly.  Each period has exactly one expanding fixed point; finding
none or several is surfaced as an error rather than silently resolved,
and so is a polish that does not converge.
"""

from __future__ import annotations

import math
from itertools import accumulate

from . import scaling
from .scaling import (
    REFINE_TOL,
    DivisionGuard,
    EmptyDomain,
    FeasibleDomain,
    NumericalFailure,
    Period,
    _flips,
    _linspace,
    feasible_domain,
)
from .value import Value

SCAN_GRID = 1e-5
DERIV_STEP = 1e-6
BISECT_TOL = 1e-8
POLISH_TOL = 1e-13
SECANT_STEPS = 60
SWEEP_STEPS = 5  # the eps values continuum_sweep solves at, ends included
# The reports of the solves over a whole feasible domain, keyed by (period,
# eps, tol), or None, which keeps none.  cli.main sets a fresh dict for the
# one command it runs and restores the value it found: a horseshoe process
# asks for 8 solves and `verify all --period 3` for 14, of 5 distinct eps
# each, since the sweep's eps are bitwise the branch systems' literals.
# Library callers keep none, so each of their solves runs.
_memo = None


class NoRoot(NumericalFailure, RuntimeError):
    pass


class MultipleRoots(NumericalFailure, RuntimeError):
    pass


class NoConvergence(NumericalFailure, RuntimeError):
    """The secant polish ran out of steps before its step met tol."""


class FixedPointReport(Value, frozen=True):
    period: Period
    c_star: float
    residual: float
    derivative_estimate: float
    expanding: bool
    bracketing_interval: tuple
    eps: float = 1.0


def _refine_root(f, lo, hi, tol):
    """Bracketed bisection to BISECT_TOL, then secant polish to tol.

    Raises NoConvergence if SECANT_STEPS secant steps pass without one at
    most tol long; the polish also ends, converged, where f takes the same
    value at the last two points."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("root is not bracketed")
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    x0, x1 = lo, hi
    f0, f1 = flo, fhi
    for _ in range(SECANT_STEPS):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo - 1e-6 <= x2 <= hi + 1e-6:
            x2 = 0.5 * (x0 + x1)
        x0, f0 = x1, f1
        x1, f1 = x2, f(x2)
        if abs(x1 - x0) <= tol:
            break
    else:
        raise NoConvergence(
            f"secant polish took {SECANT_STEPS} steps without one within tol={tol!r}: "
            f"the last went from {x0!r} to {x1!r}")
    return x1


def _sizes(intervals, grid) -> list:
    """The number of points of each interval's grid, n + 1 with
    n = max(ceil((hi - lo) / grid), 2)."""
    return [max(math.ceil((hi - lo) / grid), 2) + 1 for lo, hi in intervals]


_ramp = ()  # 0.0, 1.0, 2.0, ... read-only, grown by _grids on demand


def _grids(intervals, grid):
    """Every interval's np.linspace(lo, hi, n + 1) (_sizes), bitwise, written
    into one array, and the index where each grid ends.  Each is linspace's
    own formula, arange(n + 1) * ((hi - lo) / n) + lo with the last point
    hi, except where that step is 0, which linspace computes another way;
    the arange is the head of _ramp, read-only and kept across calls, which
    a longer grid replaces with one twice its length."""
    global _ramp
    import numpy as np

    nums = _sizes(intervals, grid)
    ends = list(accumulate(nums))
    if len(_ramp) < max(nums):
        _ramp = np.arange(float(2 * max(nums)))
        _ramp.flags.writeable = False
    xs = np.empty(ends[-1])
    for (lo, hi), num, end in zip(intervals, nums, ends):
        out = xs[end - num : end]
        step = (hi - lo) / (num - 1)
        if step == 0.0:
            out[:] = np.linspace(lo, hi, num)
        else:
            np.multiply(_ramp[:num], step, out=out)
            out += lo
            out[-1] = hi
    return xs, ends


def _scan_roots(g, intervals, grid):
    """Sign changes of g on each (lo, hi) of intervals, sampled at spacing
    grid, as brackets of Python floats.

    g takes every interval's grid as _grids gives it, one array, and
    returns its values as an array; NaN values never pair into a hit, and
    neither do the two points where one interval's grid ends and the next
    begins.
    """
    if not intervals:
        return []
    xs, ends = _grids(intervals, grid)
    v = g(xs)
    # a hit is a step where v > 0 flips and the end not above 0 is below
    # 0: zeros and NaN never pair.  One mask, and the few flips read one
    # by one: np.sign and products of signs measured slower than the
    # comparisons.  No step joins the last point of one grid and the
    # first of the next.
    junctions = {end - 1 for end in ends[:-1]}
    hits = [i for i in _flips(v > 0.0) if (v[i] < 0.0 or v[i + 1] < 0.0) and i not in junctions]
    return [(float(xs[i]), float(xs[i + 1])) for i in hits]


def _root_brackets(period, eps, intervals):
    """The brackets of R(c, eps) - c over intervals at SCAN_GRID, by
    scaling._scan_per_point's rule: per point, the period's root_scan over
    each interval's _linspace grid, bitwise _grids' piece of it, which
    applies _scan_roots' hit rule as it goes; as arrays, _scan_roots of
    root_kernel."""
    nums = _sizes(intervals, SCAN_GRID)
    if not scaling._scan_per_point(sum(nums) * period.p):
        return _scan_roots(lambda xs: period.root_kernel(xs, eps), intervals, SCAN_GRID)
    scan, brackets = period.root_scan, []
    for (lo, hi), num in zip(intervals, nums):
        xs = _linspace(lo, hi, num)
        brackets += [(xs[i], xs[i + 1]) for i in scan(xs, eps)]
    return brackets


def _report(period, g, R, bracket, tol, eps):
    c = float(_refine_root(g, bracket[0], bracket[1], tol))
    residual = float(abs(R(c) - c))
    deriv = float((R(c + DERIV_STEP) - R(c - DERIV_STEP)) / (2.0 * DERIV_STEP))
    return FixedPointReport(
        period, c, residual, deriv, bool(abs(deriv) > 1.0),
        (float(bracket[0]), float(bracket[1])), eps,
    )


def _solve(period, eps, domain, tol):
    """The unique fixed point of R(., eps) over the feasible domain, read
    from _memo where a solve over the whole domain is kept there; a solve
    that raises is not kept."""
    if domain is not None or _memo is None:
        return _solve_once(period, eps, domain, tol)
    key = (period, eps, tol)
    rep = _memo.get(key)
    if rep is None:
        rep = _memo[key] = _solve_once(period, eps, None, tol)
    return rep


def _solve_once(period, eps, domain, tol):
    """The unique fixed point of R(., eps) over the feasible domain.

    Raises NoRoot if no sub-interval brackets a root and MultipleRoots if
    more than one shows up (which would contradict the uniqueness claim).
    """
    if not 1e-14 <= tol < math.inf:  # NaN fails the comparison and is refused
        raise ValueError(f"tol must be finite and >= 1e-14, got {tol!r}")
    if domain is None:
        try:
            domain = feasible_domain(period, eps=eps)
        except EmptyDomain as exc:
            raise NoRoot(f"no feasible domain at eps={eps}: {exc}") from exc
    elif domain.period is not period:
        raise ValueError(f"a feasible domain of {domain.period} cannot be scanned for {period}")

    # Python floats only from here on: the scan's hits, bisection midpoints
    # and secant steps, so R and g run the period's kernel directly
    r_kernel = period.r_kernel

    def R(c):
        return r_kernel(c, eps)

    def g(c):
        try:
            return r_kernel(c, eps) - c
        except DivisionGuard:
            return math.nan

    pad = 2.0 * REFINE_TOL
    brackets = _root_brackets(period, eps, [(lo + pad, hi - pad) for lo, hi in domain.intervals])
    if not brackets:
        raise NoRoot(f"no sign change of R(c)-c at eps={eps} over {domain.intervals}")
    if len(brackets) > 1:
        raise MultipleRoots(f"{len(brackets)} roots at eps={eps}: {brackets}")
    return _report(period, g, R, brackets[0], tol, eps)


def solve_fixed_point(
    period: Period,
    domain: FeasibleDomain | None = None,
    tol: float = POLISH_TOL,
) -> FixedPointReport:
    """The unique fixed point of R over the feasible domain."""
    return _solve(period, 1.0, domain, tol)


def solve_fixed_point_eps(eps: float) -> FixedPointReport:
    """Fixed point of the eps-perturbed tripling return map."""
    return _solve(Period.THREE, eps, None, POLISH_TOL)


def continuum_sweep(eps_lo: float, eps_hi: float) -> list:
    """The rows (eps, c*_eps, derivative estimate) of the eps-family solved
    at SWEEP_STEPS evenly spaced eps from eps_lo to eps_hi, ends included;
    c*_eps must strictly decrease across them."""
    if not eps_lo < eps_hi:
        raise ValueError("eps_lo must be < eps_hi")
    rows = []
    for e in _linspace(eps_lo, eps_hi, SWEEP_STEPS):
        try:
            rep = solve_fixed_point_eps(float(e))
        except NoRoot as exc:
            raise NoRoot(f"sweep failed at eps={e}: {exc}") from exc
        rows.append((float(e), rep.c_star, rep.derivative_estimate))
    cs = [r[1] for r in rows]
    for a, b in zip(cs[:-1], cs[1:]):
        if not b < a:
            raise RuntimeError(
                f"c*_eps failed to decrease strictly across the sweep: {cs}"
            )
    return rows
