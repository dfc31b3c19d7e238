"""Fixed points of the return maps R(c) and R(c, eps).

Roots of R(c) - c are isolated by a sign scan over the feasible domain,
one array call of R per feasible interval (R is NaN where its s2 guard
trips, so the scan never pairs values across a pole), then refined by
scalar bisection and polished with a secant step loop.  Each period
has exactly one expanding fixed point; finding none or several is
surfaced as an error rather than silently resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scaling import (
    REFINE_TOL,
    DivisionGuard,
    EmptyDomain,
    FeasibleDomain,
    NumericalFailure,
    Period,
    feasible_domain,
    return_map,
)

SCAN_GRID = 1e-5
DERIV_STEP = 1e-6
BISECT_TOL = 1e-8
POLISH_TOL = 1e-13


class NoRoot(NumericalFailure, RuntimeError):
    pass


class MultipleRoots(NumericalFailure, RuntimeError):
    pass


@dataclass(frozen=True)
class FixedPointReport:
    period: Period
    c_star: float
    residual: float
    derivative_estimate: float
    expanding: bool
    bracketing_interval: tuple
    eps: float = 1.0


@dataclass(frozen=True)
class ContinuumTable:
    rows: list  # (eps, c_eps_star, derivative_estimate)


def _refine_root(f, lo, hi, tol):
    """Bracketed bisection to BISECT_TOL, then secant polish to tol."""
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
    for _ in range(60):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo - 1e-6 <= x2 <= hi + 1e-6:
            x2 = 0.5 * (x0 + x1)
        x0, f0 = x1, f1
        x1, f1 = x2, f(x2)
        if abs(x1 - x0) <= tol:
            break
    return x1


def _scan_roots(g, lo, hi, grid):
    """Sign changes of g on [lo, hi] sampled at spacing grid.

    g takes the whole grid as one array; NaN values never pair into a hit.
    """
    n = max(int(np.ceil((hi - lo) / grid)), 2)
    xs = np.linspace(lo, hi, n + 1)
    vals = g(xs)
    hits = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    return [(xs[i], xs[i + 1]) for i in hits]


def _report(period, g, R, bracket, tol, eps):
    c = float(_refine_root(g, bracket[0], bracket[1], tol))
    residual = float(abs(R(c) - c))
    deriv = float((R(c + DERIV_STEP) - R(c - DERIV_STEP)) / (2.0 * DERIV_STEP))
    return FixedPointReport(
        period=period,
        c_star=c,
        residual=residual,
        derivative_estimate=deriv,
        expanding=bool(abs(deriv) > 1.0),
        bracketing_interval=(float(bracket[0]), float(bracket[1])),
        eps=eps,
    )


def _solve(period, eps, domain, tol):
    """The unique fixed point of R(., eps) over the feasible domain.

    Raises NoRoot if no sub-interval brackets a root and MultipleRoots if
    more than one shows up (which would contradict the uniqueness claim).
    """
    if not 1e-14 <= tol < np.inf:  # NaN fails the comparison and is refused
        raise ValueError(f"tol must be finite and >= 1e-14, got {tol!r}")
    if domain is None:
        try:
            domain = feasible_domain(period, eps=eps)
        except EmptyDomain as exc:
            raise NoRoot(f"no feasible domain at eps={eps}: {exc}") from exc

    def R(c):
        return return_map(period, c, eps)

    def g(c):
        # arrays come back NaN-masked from R; only a scalar c can raise
        try:
            return R(c) - c
        except DivisionGuard:
            return np.nan

    brackets = []
    for lo, hi in domain.intervals:
        pad = 2.0 * REFINE_TOL
        brackets.extend(_scan_roots(g, lo + pad, hi - pad, SCAN_GRID))
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


def continuum_sweep(eps_lo: float, eps_hi: float, steps: int) -> ContinuumTable:
    """Solve the eps-family over a sweep; c*_eps must strictly decrease."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps == 1:
        if eps_lo != eps_hi:
            raise ValueError("a single-step sweep needs eps_lo == eps_hi")
        eps_values = [eps_lo]
    else:
        if not eps_lo < eps_hi:
            raise ValueError("eps_lo must be < eps_hi")
        eps_values = list(np.linspace(eps_lo, eps_hi, steps))
    rows = []
    for e in eps_values:
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
    return ContinuumTable(rows)
