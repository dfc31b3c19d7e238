"""Record the fixed-point solves pinned in reference_solves.py.

Run from the repository root, on the build whose solves are to be pinned:

    PYTHONPATH=src python tests/record_solves.py > tests/reference_solves.py

Each case is (p, eps), solved as solver._solve(Period(p), eps, None,
POLISH_TOL), which both solve_fixed_point and solve_fixed_point_eps run:
both periods at eps 1, 40 seeded eps in [0.9, 1.1], a few eps across
[0.25, 4] and eps 1e300, whose orbit overflows.  A solve is recorded as
float.hex of c*, of both bracket ends, of the derivative estimate and of
the residual; a failed solve as its exception's class name and message.
"""

import random

from renorm.scaling import Period
from renorm.solver import POLISH_TOL, _solve

SEED = 20261018


def cases() -> list:
    rng = random.Random(SEED)
    return ([(3, 1.0), (5, 1.0)] + [(3, rng.uniform(0.9, 1.1)) for _ in range(40)]
            + [(3, eps) for eps in (0.25, 0.3, 0.5, 0.8, 1.5, 2.0, 4.0, 1e300)])


def record(p: int, eps: float):
    try:
        rep = _solve(Period(p), eps, None, POLISH_TOL)
    except Exception as exc:  # recorded as data: the pin checks the failure too
        return (type(exc).__name__, str(exc))
    return {
        "c_star": rep.c_star.hex(),
        "bracketing_interval": tuple(x.hex() for x in rep.bracketing_interval),
        "derivative_estimate": rep.derivative_estimate.hex(),
        "residual": rep.residual.hex(),
    }


def main() -> None:
    print('"""Fixed-point solves as the package computed them before the root scan')
    print("wrote its grids into one buffer and ran R(c) - c as an in-place array")
    print("kernel: float.hex of c*, the bracket, the derivative estimate and the")
    print("residual, or the exception's class name and message, keyed by (p, eps).")
    print('Written by tests/record_solves.py; tests/test_solver.py checks them."""')
    print()
    print("SOLVE_HEXES = {")
    for p, eps in cases():
        rec = record(p, eps)
        if isinstance(rec, tuple):
            print(f"    ({p}, {eps!r}): (")
            print(f"        {rec[0]!r},")
            print(f"        {rec[1]!r},")
            print("    ),")
            continue
        print(f"    ({p}, {eps!r}): {{")
        for key, value in rec.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")


if __name__ == "__main__":
    main()
