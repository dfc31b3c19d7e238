"""Invariant suites aggregating every module's checks for the CLI.

Each check row carries the measured value and its bound so reports stay
auditable; the acceptance test module runs the same physics at the
criteria's full depths.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import extension as ext
from .pwa import (
    PiecewiseAffineMap, build_pwa, fixed_residual, shift_residual, tip_ratios, slope_profile, verify_combinatorics,
)
from .scaling import Period, eval_raw
from .solver import FixedPointReport, continuum_sweep, solve_fixed_point
from .tower import ScalingSequence, build_tower, cantor_dimension, hor_bound, ratio_report, verify_proper

NEGATIVE_CONTROL = {Period.THREE: 0.41, Period.FIVE: 0.3885}
COMBI_MAX = {Period.THREE: 4, Period.FIVE: 3}


def check(name, value, bound, ok=None, kind="<="):
    if ok is None:
        ok = value <= bound if kind == "<=" else value >= bound
    return {"name": name, "value": float(value), "bound": float(bound), "ok": bool(ok)}


def tower_suite(rep: FixedPointReport, f: PiecewiseAffineMap):
    c = rep.c_star
    depth = 10
    t = build_tower(f.seq, depth)
    s, j = t.factors[0].s, t.central
    rows = [
        check("fixed-point-residual", rep.residual, 1e-12),
        check("scaling-identity |s2^2 - s_last|", abs(s[j - 1] ** 2 - s[-1]), 1e-10),
        check("simplex-margin", t.factors[0].simplex_margin, 0.0, kind=">="),
    ]
    margin, decay = verify_proper(t)
    rows.append(check("proper-decay", 1.0 if decay else 0.0, 1.0, kind=">="))
    rr = ratio_report(t)
    rows.append(check("ratio-constancy", rr.max_deviation, 1e-12))

    nest = 0.0
    for n in range(2, depth + 1):
        plo, phi = t.generations[n - 2][j]
        for i in t.families:
            lo, hi = t.generations[n - 1][i]
            nest = max(nest, plo - lo, hi - phi)
    rows.append(check("nesting-violation", nest, 1e-12))

    min_gap = math.inf
    for n in range(1, depth + 1):
        ivs = sorted(t.generations[n - 1].values())
        for (a, b_), (c2, d) in zip(ivs[:-1], ivs[1:]):
            min_gap = min(min_gap, c2 - b_)
    rows.append(check("generation-gaps-positive", min_gap, 0.0, kind=">="))

    enclose = min(min(c - lo, hi - c) for lo, hi in (t.generations[n - 1][j] for n in range(1, depth + 1)))
    rows.append(check("critical-enclosure", enclose, 0.0, kind=">="))

    hb = hor_bound(t)
    rows.append(check("hor-bound-rho", hb.rho, 4.0, ok=hb.satisfied and hb.rho <= 4.0))
    d = cantor_dimension(t.factors[0])
    rows.append(check("cantor-dimension-interior", d, 1.0, ok=0.0 < d < 1.0))
    return rows


def pwa_suite(rep: FixedPointReport, f: PiecewiseAffineMap):
    period, c = rep.period, rep.c_star
    depth, seq = f.depth, f.seq

    worst = 0.0
    for b in f.branches:
        for x in (b.lo, b.hi):
            worst = max(worst, abs(b.map(x) - eval_raw(c, x)))
    rows = [check("endpoint-interpolation", worst, 1e-14)]

    combi = all(verify_combinatorics(f, n) for n in range(1, COMBI_MAX[period] + 1))
    rows.append(check("combinatorics", 1.0 if combi else 0.0, 1.0, kind=">="))
    rows.append(check("fixed-residual", fixed_residual(seq, depth).sup_norm, 1e-9))
    rows.append(
        check(
            "negative-control-residual",
            fixed_residual(ScalingSequence.stationary(period, NEGATIVE_CONTROL[period]), depth).sup_norm,
            1e-6,
            kind=">=",
        )
    )
    rows.append(check("shift-identity-stationary", shift_residual(seq, depth).sup_norm, 1e-9))

    # the deepest retained generation carries ~1e-8 of 1 - f(y_n), which
    # floors the relative noise of the ratio just below 1e-8
    l_oracle = 1.0 / (1.0 - c) ** 2
    ratios = tip_ratios(f)
    dev = max(abs(r - l_oracle) / l_oracle for r in ratios)
    rows.append(check("pwa-quadratic-tip", dev, 1e-7))

    slopes = slope_profile(f, 1)
    mono = all(b <= a for a, b in zip(slopes[1:-1], slopes[2:]))
    if period is Period.THREE:
        rows.append(check("branch-slope-monotone", 1.0 if mono else 0.0, 1.0, kind=">="))
    else:
        # reported, not asserted, for quintupling
        rows.append(check("branch-slope-monotone(report)", 1.0 if mono else 0.0, 0.0, kind=">="))
    return rows


def extension_suite(rep: FixedPointReport, f: PiecewiseAffineMap):
    c, depth = rep.c_star, f.depth  # the boxes read depth levels
    curve = ext.extend(f, depth)  # reads f, never changes it

    lam = ext.lipschitz_profile(curve)
    noninc = all(b <= a * (1.0 + 1e-6) for a, b in zip(lam[:-1], lam[1:]))
    rows = [check("lipschitz-non-increasing", 1.0 if noninc else 0.0, 1.0, kind=">=")]
    slopes = ext.max_slope_profile(curve)
    rows.append(check("max-slope-final-level", slopes[-1], 1e-3))
    rows.append(check("junction-mismatch", curve.junction_mismatch(), 1e-6))
    tip = ext.quadratic_tip(curve)
    rows.append(check("quadratic-tip", abs(tip * (1.0 - c) ** 2 - 1.0), 1e-6))
    rows.append(check("unimodal", 1.0 if ext.unimodal_check(curve) else 0.0, 1.0, kind=">="))

    s, j = f.tower.factors[0].s, f.tower.central
    w = curve.window
    rows.append(check("tip-window-width", w[1] - w[0], s[j - 1] ** depth))

    bx = ext.boxes(f.tower, depth)
    viol = 0.0
    for p in curve.pieces:
        if p.kind == "tip" or p.level == 0:
            continue
        (xlo, xhi), (ylo, yhi) = bx[p.level]
        viol = max(viol, xlo - p.lo, p.hi - xhi, ylo - min(p.ys), max(p.ys) - yhi)
    rows.append(check("boxes-containment", viol, 1e-10))

    identity = abs(s[-1] / s[j - 1] ** 2 - 1.0)
    rows.append(check("lip-factor-is-one", identity, 1e-7))
    return rows


M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _draws(seed: int, bound: int):
    """numpy's `np.random.default_rng(seed).integers(0, bound)` stream, one
    int at a time, for 2 <= bound <= 2**32: the words verify checks, drawn
    with the standard library alone.

    numpy seeds PCG64 through SeedSequence: the seed's 32-bit words,
    least significant first, hashed into a pool of four and mixed, then
    hashed out as four 64-bit words (low half first), which seed the
    128-bit LCG through PCG's `srandom_r`.  Each step's XSL-RR output
    (O'Neill, HMC-CS-2014-0905) is spent as two 32-bit draws, low half
    first, the high half buffered for the next draw, and each draw is
    bounded by Lemire's multiply-shift (ACM TOMACS 2019), redrawing while
    the low word is below (2**32 - bound) % bound.  The seed must be a
    non-negative int, and is checked here, before the first draw: numpy's
    other seeds (None, arrays, a SeedSequence) raise TypeError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's text
    entropy = [seed & M32]  # SeedSequence(seed): its 32-bit words, into a pool of 4
    while seed := seed >> 32:
        entropy.append(seed & M32)

    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & M32
        value = value * const & M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, out = 0x8B51F9DD, []  # generate_state(4, np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & M32
        value = value * const & M32
        out.append(value ^ value >> 16)
    s = [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]

    inc = ((s[2] << 64 | s[3]) << 1 | 1) & M128  # PCG64: srandom_r(s0:s1, s2:s3)
    threshold = (2**32 - bound) % bound

    def stream(state):
        while True:
            state = (state * PCG_MULT + inc) & M128
            x, rot = (state >> 64 ^ state) & M64, state >> 122
            x = (x >> rot | x << (64 - rot)) & M64
            for half in (x & M32, x >> 32):
                m = half * bound
                if m & M32 >= threshold:
                    yield m >> 32

    return stream(((inc + (s[0] << 64 | s[1])) * PCG_MULT + inc) & M128)


def horseshoe_suite(rep: FixedPointReport, seed: int = 0, quick: bool = True):
    """The eps-horseshoe around the period-three fixed point rep.  Its
    module is imported here, since `verify all --period 5` skips it.  The
    seed, a non-negative int, picks the random words (`_draws`)."""
    rng = _draws(seed, 3)  # a bad seed is refused before any work
    from . import horseshoe as hs

    b = hs.build_branch_system(1.02, 1.00, 0.98)
    rows = [
        check("branch-derivative-min", min(r.derivative_estimate for r in b.reports), 2.0, kind=">="),
    ]
    rows.append(check("middle-branch-is-unperturbed", abs(b.fixed_points[1] - rep.c_star), 1e-10))

    n_cyl = 6 if quick else 10
    counts = hs.cylinder_counts(b, n_cyl)
    counts_ok = all(c == 3**n for n, c in enumerate(counts, start=1))
    rows.append(check("cylinder-counts-3^n", 1.0 if counts_ok else 0.0, 1.0, kind=">="))
    entropy = math.log(counts[-1]) / n_cyl  # entropy_estimate's value, no recount
    rows.append(check("entropy-vs-ln3", abs(entropy - math.log(3.0)), 0.01))

    cs = [r[1] for r in continuum_sweep(0.98, 1.02)]
    mono = all(y < x for x, y in zip(cs[:-1], cs[1:]))
    rows.append(check("eps-sweep-decreasing", 1.0 if mono else 0.0, 1.0, kind=">="))

    worst_resid = 0.0
    for _ in range(5):
        word = hs.Word(tuple(itertools.islice(rng, 8)))
        worst_resid = max(worst_resid, hs.code_to_point(b, word, 8).residual)
    rows.append(check("coding-residual", worst_resid, 1e-9))

    order_ok = True
    for _ in range(3):
        suffix = tuple(itertools.islice(rng, 6))
        pts = [hs.code_to_point(b, hs.Word((i,) + suffix), 7).c_alpha for i in range(3)]
        order_ok = order_ok and pts[0] < pts[1] < pts[2]
    rows.append(check("coding-monotone-order", 1.0 if order_ok else 0.0, 1.0, kind=">="))

    worst_shift = 0.0
    n_words = 5 if quick else 20
    for _ in range(n_words):
        word = hs.Word(tuple(itertools.islice(rng, 6)))
        seq = hs.symbol_scaling_sequence(b, word)
        worst_shift = max(worst_shift, shift_residual(seq, 6).sup_norm)
    rows.append(check("shift-identity-random-words", worst_shift, 1e-9))

    b5 = hs.build_branch_system(1.02, 1.01, 1.00, 0.99, 0.98)
    m = 4 if quick else 6
    ok5 = hs.cylinder_counts(b5, m) == [5**n for n in range(1, m + 1)]
    rows.append(check("alphabet-5-counts", 1.0 if ok5 else 0.0, 1.0, kind=">="))
    return rows


SUITES = {
    "tower": tower_suite,
    "pwa": pwa_suite,
    "extension": extension_suite,
    "horseshoe": horseshoe_suite,
}


def run_suite(suite: str, period: Period, seed: int = 0, quick: bool = True):
    """One suite's rows, or for "all" the rows of every suite the period
    runs, named suite/check.  The fixed point is solved once per call, and
    its PWA map at the extension's default depth built once for the tower
    suite, which reads its sequence, and the pwa and extension suites.
    seed and quick are read by the horseshoe suite alone, which refuses a
    seed that is not a non-negative int."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "horseshoe" and period is not Period.THREE:
        raise ValueError("horseshoe suite runs on the period-three system")
    rep = solve_fixed_point(period)
    f = build_pwa(ScalingSequence.stationary(period, rep.c_star), ext.DEFAULT_DEPTH[period])

    def rows(name):
        return horseshoe_suite(rep, seed, quick) if name == "horseshoe" else SUITES[name](rep, f)

    if suite != "all":
        return rows(suite)
    names = ("tower", "pwa", "extension") + (("horseshoe",) if period is Period.THREE else ())
    return [{**row, "name": f"{name}/{row['name']}"} for name in names for row in rows(name)]
