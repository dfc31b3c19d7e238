"""Measured cylinder levels: the reference enumeration the horseshoe
certificate is checked against where binary64 resolves the cylinders."""

import dataclasses

import numpy as np

from renorm.horseshoe import MARGIN

RESOLVED_ULPS = 1024  # a level is measured while |base|/Lambda^k spans this many ulps


# A fixed 64 bisection steps per endpoint: the reference every inversion
# in the package must equal bitwise.
def _invert_fixed_64(b, i, ys):
    ys = np.asarray(ys, dtype=float)
    lo = np.full_like(ys, b.domains[i][0])
    hi = np.full_like(ys, b.domains[i][1])
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = b.map(i, mid) < ys
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def resolved_levels(b):
    """[(k, widths of the k-cylinders)] for every level k whose lower width
    bound |base|/Lam^k is at least RESOLVED_ULPS ulps of the base, and the
    certificate's slope bounds (lam, Lam).

    The k-cylinders are the images of the base under every composition of
    k inverse branches, letter-major.  Each inversion bisects in A_i
    widened by MARGIN/2, which the certificate proves to hold the whole
    preimage of the base; the bisected A_i ends alone miss it by up to
    about 1e-13, and clamping there would cut deep cylinders short.
    """
    lam = min(s.lo for s in b.slopes)
    lam_hi = max(s.hi for s in b.slopes)
    wide = dataclasses.replace(
        b, domains=tuple((a - 0.5 * MARGIN, z + 0.5 * MARGIN) for a, z in b.domains)
    )
    base = b.base[1] - b.base[0]
    ulp = float(np.spacing(max(abs(x) for x in b.base)))
    los, his = np.array([b.base[0]]), np.array([b.base[1]])
    levels = []
    k = 1
    while base / lam_hi**k >= RESOLVED_ULPS * ulp:
        los, his = (
            np.concatenate([_invert_fixed_64(wide, i, ends) for i in range(b.alphabet)])
            for ends in (los, his)
        )
        levels.append((k, his - los))
        k += 1
    return levels, (lam, lam_hi)


def widths_within_bounds(b, k, widths, bounds) -> bool:
    """Every k-cylinder width in [|base|/Lam^k, |base|/lam^k], no slack."""
    lam, lam_hi = bounds
    base = b.base[1] - b.base[0]
    return bool(np.all(widths >= base / lam_hi**k) and np.all(widths <= base / lam**k))
