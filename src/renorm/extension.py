"""Graph-transform extension of the piecewise-affine fixed point.

extend(f, depth) is the one way to build the extension of a PWA map f.
Two seed curve pieces cover [0, y_1] and [z_1, 1]: affine branches of
f's first generation where those exist, monotone C^1 interpolants across
the gaps.  The box map F of f's level-1 data (horizontal: the central
rescale; vertical: y -> 1 - s_last (1 - y)) pushes the seeds into the
central interval level by level; the union is a sampled C^{1+Lip}
unimodal curve whose only unresolved part is a geometrically small
window around the critical point, closed by the quadratic-tip parabola.

Slopes transform by -s_last/s2 per level and derivative Lipschitz bounds
by s_last/s2^2, which equals 1 exactly at the fixed points: that identity
is why the Lipschitz profile does not grow.
"""

from __future__ import annotations

import numpy as np

from .scaling import NumericalFailure, Period
from .tower import Affine, Tower
from .value import Value

# the extension's depth when none is given, and verify.pwa_suite's: the
# depth at which the central interval s2^depth falls to about 1e-8
# (1.51e-8 at the period-3 fixed point, 1.50e-8 at period 5)
DEFAULT_DEPTH = {Period.THREE: 8, Period.FIVE: 6}
MIN_RESOLUTION = 64  # samples per piece
# Each sample is held at every level, and `plotdata extension` writes each
# as a CSV row.  Peak RSS at this ceiling, the deepest depth that runs:
# `plotdata extension` 330 MB (p5, depth 4) and `extend` 80 MB, against
# 30 MB at the floor; a sample per piece costs about 18 kB and 3 kB.
MAX_RESOLUTION = 16_384
JUNCTION_GAP = 1e-9  # pieces closer than this meet at a junction
TIP_LEVELS = 4  # deepest resolved levels the tip constant is read from
TIP_FLOOR = 1e-8
# Samples of a resolved level lie at least this many ulps apart.  A
# Lipschitz quotient divides by a sample spacing that carries about an ulp
# of rounding, so closer samples print noise.  Measured at the default 256
# samples per piece: the p3 level-9 constant rises 1.6e-5 over level 8 with
# samples 1242 ulps apart, while the default depths (p3 8, p5 6) keep at
# least 2609.
MIN_SAMPLE_ULPS = 2048


class FillerOvershoot(NumericalFailure, RuntimeError):
    """The gap interpolant lost monotonicity or left the unit square."""


class NonConvergent(NumericalFailure, RuntimeError):
    pass


class GraphTransform(Value, frozen=True):
    horizontal: Affine   # x -> anchor + s2*(1 - x)
    vertical: Affine     # y -> 1 - s_last*(1 - y)

    @property
    def slope_factor(self) -> float:
        # dy'/dx' for a graph piece pushed through the box map; the
        # reversing horizontal makes this negative
        return self.vertical.a / self.horizontal.a


def graph_transform(t: Tower) -> GraphTransform:
    """The box map of a tower's level-1 data."""
    v = t.factors[0].s[-1]
    return GraphTransform(t.rescale[0], Affine(v, 1.0 - v))


class CurvePiece(Value, frozen=True):
    xs: np.ndarray
    ys: np.ndarray
    ds: np.ndarray
    level: int
    kind: str  # "affine" | "filler" | "tip"

    @property
    def lo(self) -> float:
        return float(self.xs[0])

    @property
    def hi(self) -> float:
        return float(self.xs[-1])

    def lipschitz(self) -> float:
        dd = np.abs(np.diff(self.ds))
        dx = np.diff(self.xs)
        return float(np.max(dd / dx)) if len(dd) else 0.0

    def max_slope(self) -> float:
        return float(np.max(np.abs(self.ds)))


def transform_piece(F: GraphTransform, p: CurvePiece) -> CurvePiece:
    xs = F.horizontal(p.xs)[::-1]
    ys = F.vertical(p.ys)[::-1]
    ds = (F.slope_factor * p.ds)[::-1]
    return CurvePiece(xs, ys, ds, p.level + 1, p.kind)


def _cubic_hermite(t, h, v0, v1, m0, m1):
    h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
    h10 = t * (1.0 - t) ** 2
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    ys = v0 * h00 + h * m0 * h10 + v1 * h01 + h * m1 * h11
    dh00 = 6.0 * t * t - 6.0 * t
    dh10 = 3.0 * t * t - 4.0 * t + 1.0
    dh01 = -dh00
    dh11 = 3.0 * t * t - 2.0 * t
    ds = (v0 * dh00 + h * m0 * dh10 + v1 * dh01 + h * m1 * dh11) / h
    return ys, ds


def fill_gap(x0, x1, v0, v1, m0, m1, resolution) -> CurvePiece:
    """The monotone C^1 interpolant of a gap of D_s: the cubic Hermite form
    through the end values with the end slopes.  Raises FillerOvershoot
    where the cubic loses monotonicity or leaves the unit square."""
    xs = np.linspace(x0, x1, resolution)
    h = x1 - x0
    t = (xs - x0) / h
    secant = np.sign(v1 - v0)
    ys, ds = _cubic_hermite(t, h, v0, v1, m0, m1)
    if np.all(secant * ds >= -1e-15) and np.all(ys >= -1e-12) and np.all(ys <= 1.0 + 1e-12):
        return CurvePiece(xs, ys, ds, 0, "filler")
    raise FillerOvershoot(
        f"no monotone interpolant for gap [{x0}, {x1}] with slopes ({m0}, {m1})"
    )


class SampledCurve(Value):
    pieces: list
    c_star: float
    window: tuple  # the central window the quadratic tip closes

    def __post_init__(self):
        self.pieces = sorted(self.pieces, key=lambda p: p.lo)

    @property
    def grid(self) -> np.ndarray:
        return np.concatenate([p.xs for p in self.pieces])

    @property
    def values(self) -> np.ndarray:
        return np.concatenate([p.ys for p in self.pieces])

    @property
    def depth(self) -> int:
        return max(p.level for p in self.pieces)

    def junctions(self):
        """Marked points where two pieces meet, with one-sided slopes."""
        out = []
        for a, b in zip(self.pieces[:-1], self.pieces[1:]):
            if b.kind == "tip" or a.kind == "tip":
                continue
            if abs(b.lo - a.hi) <= JUNCTION_GAP:
                out.append(
                    {
                        "x": a.hi,
                        "left_slope": float(a.ds[-1]),
                        "right_slope": float(b.ds[0]),
                        "left_level": a.level,
                        "right_level": b.level,
                    }
                )
        return out

    def junction_mismatch(self) -> float:
        js = self.junctions()
        if not js:
            return 0.0
        return max(abs(j["left_slope"] - j["right_slope"]) for j in js)


def _branch_piece(branch, resolution) -> CurvePiece:
    xs = np.linspace(branch.lo, branch.hi, resolution)
    ys = branch.map.a * xs + branch.map.b
    ds = np.full(resolution, branch.map.a)
    return CurvePiece(xs, ys, ds, 0, "affine")


def seed_pieces(f, resolution: int = 256):
    """The two seed curves as piece lists: K1 over [z_1, 1], K2 over [0, y_1].

    Branch pieces carry f's first-generation affine data; gap fillers
    match value and slope on both sides.  The slopes at y_1 and z_1 come
    from the box-map images of the opposite seed's outer ends, which is
    what makes every marked point a C^1 junction after extension.
    """
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:  # before any sample is allocated
        raise ValueError(
            f"resolution {resolution} must lie in [{MIN_RESOLUTION}, {MAX_RESOLUTION}] samples per piece"
        )
    t = f.tower
    F = graph_transform(t)
    gen1 = {b.family: b for b in f.branches if b.level == 1}
    y1, z1 = t.y(1), t.z(1)
    fams = sorted(gen1)
    first, last = gen1[fams[0]], gen1[fams[-1]]

    # K2: branch over I_1^1, then the left gap up to y_1
    m_y1 = F.slope_factor * last.map.a
    k2 = [
        _branch_piece(first, resolution),
        fill_gap(first.hi, y1, first.map(first.hi), f(y1), first.map.a, m_y1, resolution),
    ]

    # K1: the right gap from z_1, then the remaining branches and gaps to 1
    m_z1 = F.slope_factor * first.map.a
    inner = [gen1[i] for i in fams[1:]]
    k1 = [
        fill_gap(
            z1, inner[0].lo, f(z1), inner[0].map(inner[0].lo), m_z1,
            inner[0].map.a, resolution,
        )
    ]
    for a, b in zip(inner[:-1], inner[1:]):
        k1.append(_branch_piece(a, resolution))
        k1.append(fill_gap(a.hi, b.lo, a.map(a.hi), b.map(b.lo), a.map.a, b.map.a, resolution))
    k1.append(_branch_piece(inner[-1], resolution))
    return k1, k2


def extend(f, depth: int, resolution: int = 256) -> SampledCurve:
    """The C^{1+Lip} extension of the PWA map f: its seeds and their
    box-map images, levels 0..depth, plus the quadratic-tip closure over
    the remaining central window.  Only f's first generation is read.
    Raises NonConvergent at the first level whose samples lie closer than
    MIN_SAMPLE_ULPS ulps, where the Lipschitz quotients are float noise."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    F = graph_transform(f.tower)
    k1, k2 = seed_pieces(f, resolution)
    pieces = k1 + k2
    current = pieces
    for m in range(1, depth + 1):
        current = [transform_piece(F, p) for p in current]
        if any(np.any(np.diff(p.xs) < MIN_SAMPLE_ULPS * np.spacing(np.abs(p.xs[1:])))
               for p in current):
            raise NonConvergent(
                f"level {m} of {depth}: samples closer than {MIN_SAMPLE_ULPS} ulps, "
                "the Lipschitz quotients collapse below float resolution; "
                f"the deepest depth this resolution resolves is {m - 1}"
            )
        pieces.extend(current)

    c = f.c0
    left = max(p.hi for p in pieces if p.hi <= c)
    right = min(p.lo for p in pieces if p.lo >= c)

    # close the unresolved window with the parabola 1 - l*(x-c)^2 through
    # the innermost resolved point (resolved: 1-y still above float noise)
    cands = []
    for p in pieces:
        sel = (1.0 - p.ys) >= TIP_FLOOR
        if sel.any():
            xs, ys = p.xs[sel], p.ys[sel]
            i = int(np.argmin(np.abs(xs - c)))
            cands.append((abs(xs[i] - c), (1.0 - ys[i]) / (xs[i] - c) ** 2))
    l_hat = min(cands)[1]
    xs = np.linspace(left, right, resolution)
    tip = CurvePiece(
        xs, 1.0 - l_hat * (xs - c) ** 2, -2.0 * l_hat * (xs - c),
        depth + 1, "tip",
    )
    pieces.append(tip)
    return SampledCurve(pieces, c, (left, right))


def _per_level_max(curve: SampledCurve, measure) -> list:
    """max of measure(piece) over each level's non-tip pieces."""
    out = []
    for m in range(curve.depth + 1):
        vals = [measure(p) for p in curve.pieces if p.level == m and p.kind != "tip"]
        if vals:
            out.append(max(vals))
    return out


def lipschitz_profile(curve: SampledCurve) -> list:
    """Per-level Lipschitz constants of the sampled derivative."""
    return _per_level_max(curve, CurvePiece.lipschitz)


def max_slope_profile(curve: SampledCurve) -> list:
    """Per-level largest |slope|."""
    return _per_level_max(curve, CurvePiece.max_slope)


def quadratic_tip(curve: SampledCurve) -> float:
    """Tip constant from the marked points approaching the critical point.

    The tip limit is taken along the sequence of piece junctions (the
    y_n/z_n endpoints, where the curve meets the quadratic family), using
    the innermost junction of each level whose 1 - value is still above
    the float noise floor; the deepest resolved levels are extrapolated.
    """
    c = curve.c_star
    ratios = []
    for m in range(curve.depth + 1):
        best = None
        for p in curve.pieces:
            if p.level != m or p.kind == "tip":
                continue
            for x, y in ((p.lo, float(p.ys[0])), (p.hi, float(p.ys[-1]))):
                if 1.0 - y < TIP_FLOOR:
                    continue
                cand = (abs(x - c), (1.0 - y) / (x - c) ** 2)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            ratios.append(best[1])
    if not ratios:
        raise NonConvergent("no resolved samples near the critical point")
    tail = ratios[-TIP_LEVELS:]
    spread = (max(tail) - min(tail)) / abs(tail[-1])
    if spread > 1e-3:
        raise NonConvergent(f"tip ratios spread {spread:.2e} over the last levels: {tail}")
    # Aitken acceleration when the differences allow it, else the mean
    if len(tail) >= 3:
        r0, r1, r2 = tail[-3], tail[-2], tail[-1]
        denom = (r2 - r1) - (r1 - r0)
        if abs(denom) > 1e-3 * abs(r2 - r1):
            return r2 - (r2 - r1) ** 2 / denom
    return float(np.mean(tail))


def boxes(t: Tower, depth: int):
    """B_n = I_2^n x [ytilde_n, 1] for n = 0..depth."""
    out = [((0.0, 1.0), (0.0, 1.0))]
    vprod = 1.0
    for n in range(1, depth + 1):
        vprod *= t.factors[n - 1].s[-1]
        out.append((t.generations[n - 1][t.central], (1.0 - vprod, 1.0)))
    return out


def unimodal_check(curve: SampledCurve) -> bool:
    """Sampled values increase left of c* and decrease right of it.

    Near the apex, adjacent samples differ by less than an ulp of 1.0, so
    "strictly" is enforced up to float resolution: a wrong-sign move above
    1e-15 fails, an unresolvable flat step does not.
    """
    xs, ys = curve.grid, curve.values
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    move = np.abs(np.diff(xs)) > 1e-13
    dy = np.diff(ys)[move]
    mid = 0.5 * (xs[1:] + xs[:-1])[move]
    left = mid < curve.c_star
    return bool(np.all(dy[left] > -1e-15) and np.all(dy[~left] < 1e-15))
