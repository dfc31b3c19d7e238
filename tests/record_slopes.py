"""Record the full-shift slope enclosures pinned in reference_slopes.py.

Run from the repository root, on the build whose enclosures are to be
pinned:

    PYTHONPATH=src python tests/record_slopes.py > tests/reference_slopes.py

Each case is the eps tuple of a branch-system fixture in conftest.py (the
2-, 3-, 4- and 5-letter systems and the wide 3-letter one).  A system is
recorded as float.hex of both bounds of every BranchSystem.slopes
enclosure, branch by branch; a failed proof as its exception's class name
and message.
"""

from renorm.horseshoe import build_branch_system

CASES = (
    (1.01, 1.0),
    (1.02, 1.0, 0.98),
    (1.04, 1.0, 0.96),
    (1.015, 1.005, 0.995, 0.985),
    (1.02, 1.01, 1.0, 0.99, 0.98),
)


def record(epsilons: tuple):
    try:
        slopes = build_branch_system(*epsilons).slopes
    except Exception as exc:  # recorded as data: the pin checks the failure too
        return (type(exc).__name__, str(exc))
    return [(s.lo.hex(), s.hi.hex()) for s in slopes]


def main() -> None:
    print('"""Enclosures of R_i\' over each widened branch domain A_i, as')
    print("BranchSystem.slopes computed them before Interval built its results")
    print("without __init__ and took a float operand as two products: float.hex of")
    print("(lo, hi) per branch, or the exception's class name and message, keyed by")
    print('the eps tuple.  Written by tests/record_slopes.py; tests/test_interval.py')
    print('checks them."""')
    print()
    print("SLOPE_HEXES = {")
    for eps in CASES:
        rec = record(eps)
        print(f"    {eps!r}: [" if isinstance(rec, list) else f"    {eps!r}: (")
        for item in rec:
            print(f"        {item!r},")
        print("    ]," if isinstance(rec, list) else "    ),")
    print("}")


if __name__ == "__main__":
    main()
