"""Piecewise-affine infinitely renormalizable maps and the operator R.

A map is a finite list of affine branches over the non-central tower
intervals.  Branch values interpolate the quadratic family at the interval
endpoints; under an eps-perturbation the inner endpoint of each branch of
the pulled family (I_3 for tripling) is pulled off the graph by eps, scaled
down the tower by the product of the vertical contraction factors (the
same factors that drive the graph transform of the extension machinery).

R acts symbolically: h^{-1} o f^p o h is assembled by composing the
first-generation branch maps along the renormalization cycle with each
deep branch, so the only numerical content is float rounding.  The
composition equals the true f^p exactly when the combinatorics holds;
verify_combinatorics reports whether it does.
"""

from __future__ import annotations

import bisect as _bisect

from .scaling import Period, eval_raw
from .tower import Affine, ScalingSequence, Tower, build_tower
from .value import Value

DISPATCH_TOL = 1e-14
COMBI_TOL = 1e-10   # containment slack of the endpoint chase
TIP_FLOOR = 1e-8    # tip_ratios stops where 1 - f(y_n) reaches float noise


class OutsideDomain(ValueError):
    """The point falls in a gap or deeper than the resolved tower."""


class DepthExhausted(RuntimeError):
    pass


class PWABranch(Value, frozen=True):
    level: int
    family: int
    lo: float
    hi: float
    map: Affine

    def __init__(self, level, family, lo, hi, map):  # by hand, as Affine's
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "map", map)

    def __call__(self, x):
        return self.map(x)


class RenormResidual(Value, frozen=True):
    sup_norm: float
    evaluation_points: int


class PiecewiseAffineMap(Value):
    period: Period
    tower: Tower
    seq: ScalingSequence
    branches: list
    c0: float

    def __post_init__(self):
        self.branches = sorted(self.branches, key=lambda b: b.lo)
        self._los = [b.lo for b in self.branches]

    @property
    def depth(self) -> int:
        return self.tower.depth

    def branch_at(self, x: float, tol: float = DISPATCH_TOL) -> PWABranch:
        i = _bisect.bisect_right(self._los, x) - 1
        for j in (i, i + 1):
            if 0 <= j < len(self.branches):
                b = self.branches[j]
                if b.lo - tol <= x <= b.hi + tol:
                    return b
        raise OutsideDomain(f"x={x} is not in any resolved branch interval")

    def __call__(self, x, tol: float = DISPATCH_TOL):
        return self.branch_at(x, tol)(x)

    def iterate(self, x: float, k: int, tol: float = DISPATCH_TOL) -> float:
        for _ in range(k):
            x = self(x, tol)
        return x

    def endpoints(self):
        out = []
        for b in self.branches:
            out.append(b.lo)
            out.append(b.hi)
        return out


def build_pwa(seq: ScalingSequence, depth: int) -> PiecewiseAffineMap:
    """Materialize f_s (or g_s) down to the given depth.

    Every branch endpoint value is u_{c0} of the endpoint, with c0 the
    critical point generating level 1, plus, on the pulled family's inner
    endpoint, the vertically rescaled perturbation of that level; it is
    exactly 0.0 at eps = 1.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    t = build_tower(seq, depth)
    period = seq.period
    central, pulled = period.comb.central_family, period.comb.pulled_family
    c0 = t.levels[0].c
    branches = []
    vprod = 1.0  # product of vertical factors s_last over levels < m
    for m in range(1, depth + 1):
        lv = t.levels[m - 1]
        f = t.factors[m - 1]
        H = t.chains[m - 1]
        for i in t.families:
            if i == central:
                continue
            a_loc, b_loc = t.local[m - 1][i]
            xa, xb = H(a_loc), H(b_loc)
            va, vb = eval_raw(c0, xa), eval_raw(c0, xb)
            if i == pulled:
                # the pulled endpoint is the inner (w_n) one, u^{p-1}(0);
                # the one place besides Period.orbit that applies the pull
                up = period.orbit(lv.c)[period.p]
                va += vprod * up * (lv.eps - 1.0)
            amap = Affine.through(xa, va, xb, vb)
            lo, hi = (xa, xb) if xa <= xb else (xb, xa)
            branches.append(PWABranch(m, i, lo, hi, amap))
        vprod *= f.s[-1]
    return PiecewiseAffineMap(period, t, seq, branches, c0)


def _cycle_composition(f: PiecewiseAffineMap) -> Affine:
    """The p-1 first-generation branch maps along the cycle, innermost first."""
    big = {b.family: b.map for b in f.branches if b.level == 1}
    comp = Affine.identity()
    for fam in f.period.comb.cycle[1:]:
        comp = big[fam] @ comp
    return comp


def renormalize(f: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """R f = h^{-1} o f^p o h, composed symbolically on affine pieces.

    Each branch at level m >= 2 is conjugated through the level-1 rescale
    after appending the first-generation cycle branches; the result is the
    depth-(m-1) branch of the shifted map whenever the scaling data is
    renormalization-consistent, and a measurably different map otherwise.
    """
    if f.depth < 2:
        raise DepthExhausted(f"cannot renormalize a depth-{f.depth} map")
    return _renormalize_onto(f, build_tower(f.seq.shift(), f.depth - 1))


def _renormalize_onto(f: PiecewiseAffineMap, t: Tower) -> PiecewiseAffineMap:
    """renormalize(f) given its tower t = build_tower(f.seq.shift(), f.depth - 1)."""
    h1 = f.tower.rescale[0]
    h1inv = h1.inverse()
    comp = _cycle_composition(f)
    new_branches = []
    for b in f.branches:
        if b.level == 1:
            continue
        amap = h1inv @ comp @ b.map @ h1
        p, q = h1inv(b.lo), h1inv(b.hi)
        lo, hi = (p, q) if p <= q else (q, p)
        new_branches.append(PWABranch(b.level - 1, b.family, lo, hi, amap))
    return PiecewiseAffineMap(f.period, t, t.seq, new_branches, t.levels[0].c)


def verify_combinatorics(f: PiecewiseAffineMap, n: int) -> bool:
    """Endpoint-chase the generation-n cycle under f^(p^(n-1)).

    True iff each interval's endpoints land in the next interval of the
    cycle, closing back to the central interval after p arrows.
    """
    if not 1 <= n <= f.depth - 1:
        raise ValueError(f"need 1 <= n <= depth-1, got n={n}")
    cycle = f.period.comb.cycle
    steps = f.period.p ** (n - 1)
    gen = f.tower.generations[n - 1]
    pts = list(gen[cycle[0]])
    # iterates of endpoints drift off branch closures by rounding, so
    # dispatch forgives up to a tenth of the containment tolerance
    snap = 0.1 * COMBI_TOL
    for fam in cycle[1:] + cycle[:1]:
        try:
            pts = [f.iterate(x, steps, tol=snap) for x in pts]
        except OutsideDomain:
            return False
        lo, hi = gen[fam]
        if not all(lo - COMBI_TOL <= v <= hi + COMBI_TOL for v in pts):
            return False
    return True


def _residual_at_endpoints(rf, ref):
    pts = ref.endpoints()
    sup = 0.0
    for x in pts:
        sup = max(sup, abs(rf(x) - ref(x)))
    return sup, len(pts)


def fixed_residual(seq: ScalingSequence, depth: int) -> RenormResidual:
    """sup |R f - f| over the renormalized map's branch endpoints."""
    f = build_pwa(seq, depth)
    return RenormResidual(*_residual_at_endpoints(f, renormalize(f)))


def shift_residual(seq: ScalingSequence, depth: int) -> RenormResidual:
    """sup |R f_s - f_{sigma(s)}| over the shifted map's branch endpoints.

    R f_s lives on the tower of sigma(s) to depth - 1, the one g is built
    on, so both share one build_tower."""
    f = build_pwa(seq, depth)
    g = build_pwa(seq.shift(), depth - 1)
    rf = _renormalize_onto(f, g.tower)
    return RenormResidual(*_residual_at_endpoints(rf, g))


def tip_ratios(f: PiecewiseAffineMap):
    """(1 - f(y_n)) / (y_n - c0)^2 per generation, while above the noise floor.

    For the stationary fixed point this equals the tip constant 1/(1-c0)^2
    at every n because the endpoint values sit on the quadratic's graph.
    """
    out = []
    for n in range(1, f.depth):
        yn = f.tower.y(n)
        num = 1.0 - f(yn)
        if num < TIP_FLOOR:
            break
        out.append(num / (yn - f.c0) ** 2)
    return out


def slope_profile(f: PiecewiseAffineMap, family: int):
    """|slope| of the family's branch at each level."""
    out = {}
    for b in f.branches:
        if b.family == family:
            out[b.level] = abs(b.map.a)
    return [out[m] for m in sorted(out)]
