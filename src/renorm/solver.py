"""Fixed points of the return maps R(c) and R(c, eps).

Roots of R(c) - c are isolated by a sign scan over the feasible domain,
each interval padded by 2*REFINE_TOL and sampled at spacing SCAN_GRID:
scaling._root_brackets, which runs it per point or on arrays by the
domain scan's rule and gives the same brackets either way.  Each bracket
is then refined on Python floats by scalar bisection and polished with a
secant step loop, both calling the period's r_kernel directly.  Each
period has exactly one expanding fixed point; finding none or several is
surfaced as an error rather than silently resolved, and so is a polish
that does not converge.
"""

from __future__ import annotations

import math

from .scaling import (
    REFINE_TOL,
    DivisionGuard,
    EmptyDomain,
    FeasibleDomain,
    NumericalFailure,
    Period,
    _linspace,
    _root_brackets,
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
    brackets = _root_brackets(period, eps, [(lo + pad, hi - pad) for lo, hi in domain.intervals], SCAN_GRID)
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
