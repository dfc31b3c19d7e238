"""A frozen copy of the domain scan and the root scan before their lean
forms: the oracle that tests/test_scan.py holds renorm.scaling's
feasible_domain and renorm.solver's _scan_roots to, bitwise, exceptions
included.  Do not edit it to follow the package.

It keeps that version's every row, copy and pass: each condition row a
subtraction, worst folded into a new array per condition, the padded mask
of _runs, ok.any(), the boundary bisection and the puncture's golden
section through lambdas, and the root scan's six boolean arrays.  What it
reads of the package are the data types, the exceptions, the tolerances
and each period's generated orbit and float kernels; the scan's orbit is
computed afresh at every call, the eps-free head from period.orbit and
the tail, the pull and the u-steps after it, on the template's arithmetic.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from renorm.scaling import REFINE_TOL, EmptyDomain, FeasibleDomain


def bisect(keep, a, b, tol):
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if keep(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _argmin(values) -> int:
    k = 0
    for i, v in enumerate(values):
        if v != v:
            return i
        if v < values[k]:
            k = i
    return k


def _bisect_boundary(period, ok_pt, bad_pt, eps=1.0):
    kernel = period.feasible_kernel
    c = bisect(lambda x: kernel(x, eps), ok_pt, bad_pt, REFINE_TOL)
    return c, period.comb.names[_argmin(period.values_kernel(c, eps))]


def _refine_touch(fn, lo, hi):
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


def _scan_orbit(period, scan_step, eps):
    """The grid and period.orbit(grid, eps), bitwise, as the memoized scan
    built it: the head u(0) .. u^p(0), then the pull and the u-steps."""
    cs = np.arange(scan_step, 0.5, scan_step)
    d = 1.0 - cs
    head = period.orbit(cs)[1 : period.p + 1]
    x = eps * head[-1]
    tail = [x]
    for _ in range(period.p - 2):
        t = (x - cs) / d
        x = 1.0 - t * t
        tail.append(x)
    return cs, [0.0, *head[:-1], *tail, 1.0]


def _scan_conditions(period, scan_step, eps):
    with np.errstate(over="ignore", invalid="ignore"):
        cs, o = _scan_orbit(period, scan_step, eps)
        return cs, [o[i] - o[j] for i, j in period.comb.pairs]


def _fold(cond):
    worst = cond[0]
    for row in cond[1:]:
        worst = np.minimum(worst, row)
    return worst


def _runs(ok) -> list:
    padded = np.zeros(len(ok) + 2, dtype=bool)
    padded[1:-1] = ok
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return [(i0, i1 - 1) for i0, i1 in zip(edges[::2], edges[1::2])]


def _touches(cond, worst, i0, i1) -> list:
    ms = (i0 + 1 + np.flatnonzero(worst[i0 + 1 : i1] <= 1e-4)).tolist()
    if not ms:
        return []
    lo = ms[0] - 1
    rows = [row[lo : ms[-1] + 2].tolist() for row in cond]
    out = []
    for m in ms:
        k = m - lo
        for j, row in enumerate(rows):
            v = row[k]
            if v <= 1e-4 and v < row[k - 1] and v < row[k + 1]:
                out.append((m - 1, j))
                break
    return out


def feasible_domain(period, scan_step=1e-4, eps=1.0):
    if not 1e-6 <= scan_step <= 1e-2:
        raise ValueError(f"scan_step {scan_step} must lie in [1e-6, 1e-2]")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    cs, cond = _scan_conditions(period, scan_step, eps)
    worst = _fold(cond)
    ok = worst > 0.0
    if not ok.any():
        raise EmptyDomain(f"no feasible point for {period} at step {scan_step}")

    comb, values = period.comb, period.values_kernel
    intervals = []
    boundaries = []
    punctures = []
    for i0, i1 in _runs(ok):
        lo_out = float(cs[i0]) - scan_step if i0 > 0 else 0.0
        hi_out = float(cs[i1]) + scan_step if i1 + 1 < len(cs) else 0.5
        lo, lo_name = _bisect_boundary(period, float(cs[i0]), lo_out, eps)
        hi, hi_name = _bisect_boundary(period, float(cs[i1]), hi_out, eps)
        boundaries.append((lo, lo_name))
        boundaries.append((hi, hi_name))
        cut = []
        for k, j in _touches(cond, worst, i0, i1):
            x = _refine_touch(lambda x: values(x, eps)[j], float(cs[k]), float(cs[k + 2]))
            names = sorted(nm for nm, v in zip(comb.names, values(x, eps)) if v < 1e-10)
            if names:
                cut.append((x, "+".join(names)))
        punctures.extend(cut)
        pts = [lo] + [x for x, _ in cut] + [hi]
        for a, b in zip(pts[:-1], pts[1:]):
            intervals.append((a, b))
    return FeasibleDomain(period, intervals, boundaries, punctures)


def _grids(intervals, grid):
    nums = [max(math.ceil((hi - lo) / grid), 2) + 1 for lo, hi in intervals]
    ends = list(accumulate(nums))
    xs = np.empty(ends[-1])
    ramp = np.arange(float(max(nums)))
    for (lo, hi), num, end in zip(intervals, nums, ends):
        out = xs[end - num : end]
        step = (hi - lo) / (num - 1)
        if step == 0.0:
            out[:] = np.linspace(lo, hi, num)
        else:
            np.multiply(ramp[:num], step, out=out)
            out += lo
            out[-1] = hi
    return xs, ends


def _scan_roots(g, intervals, grid):
    if not intervals:
        return []
    xs, ends = _grids(intervals, grid)
    v = g(xs)
    pos, neg = v > 0.0, v < 0.0
    cross = (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])
    for end in ends[:-1]:
        cross[end - 1] = False
    hits = np.flatnonzero(cross)
    return list(zip(xs[hits].tolist(), xs[hits + 1].tolist()))
