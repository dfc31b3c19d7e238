"""Record the extensions pinned in reference_extension.py.

Run from the repository root, on the build whose extensions are to be pinned:

    PYTHONPATH=src python tests/record_extension.py > tests/reference_extension.py

Each case is (p, depth, resolution): the extension of period p's fixed
point, extend(build_pwa(ScalingSequence.stationary(period, c*), 2), depth,
resolution), as `renorm extend` builds it, for depths 1 through the
default depth + 1 and the resolutions of RESOLUTIONS: the floor, the
default, the ceilings of the default depths (1470 resolves period three's
depth 8, 1471 does not; 325 and 326 for period five's depth 6) and a few
between.  A case is recorded as every piece's level, kind and the sha256
of its samples' float64 bytes (xs, then ys, then ds), with float.hex of
every number the CLI reports of the curve, and a refusal as its
exception's class name and message.
"""

import hashlib

import numpy as np

from renorm.extension import (
    DEFAULT_DEPTH,
    extend,
    lipschitz_profile,
    max_slope_profile,
    quadratic_tip,
    unimodal_check,
)
from renorm.pwa import build_pwa
from renorm.scaling import Period
from renorm.solver import solve_fixed_point
from renorm.tower import ScalingSequence

RESOLUTIONS = (64, 100, 256, 325, 326, 1024, 1470, 1471, 4096)


def cases() -> list:
    return [(period.p, depth, resolution)
            for period in Period
            for depth in range(1, DEFAULT_DEPTH[period] + 2)
            for resolution in RESOLUTIONS]


def maps() -> dict:
    """Each period's depth-2 map at its fixed point."""
    return {period.p: build_pwa(ScalingSequence.stationary(period, solve_fixed_point(period).c_star), 2)
            for period in Period}


def digest(piece) -> str:
    h = hashlib.sha256()
    for samples in (piece.xs, piece.ys, piece.ds):
        h.update(np.asarray(samples, dtype=np.float64).tobytes())
    return h.hexdigest()


def _hexes(values) -> tuple:
    return tuple(float(v).hex() for v in values)


def _refusal(exc) -> tuple:
    return (type(exc).__name__, str(exc))


def record(f, depth: int, resolution: int):
    try:
        curve = extend(f, depth, resolution)
    except Exception as exc:  # recorded as data: the pin checks the refusal too
        return _refusal(exc)
    try:
        tip = float(quadratic_tip(curve)).hex()
    except Exception as exc:
        tip = _refusal(exc)
    return {
        "pieces": tuple((p.level, p.kind, digest(p)) for p in curve.pieces),
        "lipschitz_profile": _hexes(lipschitz_profile(curve)),
        "max_slope_profile": _hexes(max_slope_profile(curve)),
        "junction_mismatch": float(curve.junction_mismatch()).hex(),
        "quadratic_tip": tip,
        "window": _hexes(curve.window),
        "unimodal_check": bool(unimodal_check(curve)),
    }


def main() -> None:
    print('"""Extensions as the package computed them on numpy arrays, before its')
    print("samples became lists of Python floats: per case (p, depth, resolution),")
    print("each piece's level, kind and the sha256 of its float64 xs, ys and ds")
    print("bytes, float.hex of the profiles, the junction mismatch, the tip and the")
    print("window, and the unimodality check, or the refusal's class name and message.")
    print('Written by tests/record_extension.py; tests/test_extension.py checks them."""')
    print()
    print("EXTENSIONS = {")
    fs = maps()
    for p, depth, resolution in cases():
        rec = record(fs[p], depth, resolution)
        print(f"    ({p}, {depth}, {resolution}): ", end="")
        if isinstance(rec, tuple):
            print(f"{rec!r},")
            continue
        print("{")
        print("        'pieces': (")
        for piece in rec.pop("pieces"):
            print(f"            {piece!r},")
        print("        ),")
        for key, value in rec.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")


if __name__ == "__main__":
    main()
