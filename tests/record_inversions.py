"""Record the horseshoe inversions pinned in reference_inversions.py.

Run from the repository root, on the build whose inversions are to be
pinned:

    PYTHONPATH=src python tests/record_inversions.py > tests/reference_inversions.py

Each case is the eps tuple of a branch-system fixture in conftest.py (the
2-, 3- and 5-letter systems).  Each branch i is inverted at the base's two
ends and its midpoint, at 50 seeded targets inside the base and at two
targets outside it, one a base width below and one above; a target and
its inversion _invert_point(b, i, y) are recorded as float.hex.
"""

import random

from renorm.horseshoe import _invert_point, build_branch_system

CASES = (
    (1.01, 1.0),
    (1.02, 1.0, 0.98),
    (1.02, 1.01, 1.0, 0.99, 0.98),
)
INTERIOR = 50


def targets(b, i: int) -> list:
    """The targets of branch i of b: the base's ends and midpoint, the
    seeded interior ones and the two outside the base."""
    lo, hi = b.base
    span = hi - lo
    rng = random.Random(1000 * b.alphabet + i)
    return [lo, hi, 0.5 * (lo + hi), *(rng.uniform(lo, hi) for _ in range(INTERIOR)), lo - span, hi + span]


def record(epsilons: tuple) -> list:
    b = build_branch_system(*epsilons)
    return [[(y.hex(), _invert_point(b, i, y).hex()) for y in targets(b, i)] for i in range(b.alphabet)]


def main() -> None:
    print('"""Inversions of the horseshoe\'s branches, as _invert_point computed them')
    print("by plain bisection of each branch domain A_i: per eps tuple, per branch,")
    print("float.hex of each target y and of the x in A_i with R(x, eps_i) = y.")
    print('Written by tests/record_inversions.py; tests/test_horseshoe.py checks them."""')
    print()
    print("INVERSION_HEXES = {")
    for eps in CASES:
        print(f"    {eps!r}: [")
        for branch in record(eps):
            print("        [")
            for pair in branch:
                print(f"            {pair!r},")
            print("        ],")
        print("    ],")
    print("}")


if __name__ == "__main__":
    main()
