"""A stand-in critical orbit for tests that feed the conditions a hand-made
orbit: the float kernels are compiled by scaling's own generator over it."""

import contextlib
from unittest import mock

from renorm import scaling


@contextlib.contextmanager
def stand_in_orbit(period, orbit):
    """Within the block scaling._orbit_points is orbit, and period's
    r_kernel and feasible_kernel are scaling._kernel_source's kernels over
    an orbit block that reads it, so every path reads the stand-in."""
    points = ", ".join(f"x{k}" for k in range(2 * period.p - 1))
    block = f"        {points}, one = _orbit_points(period, c, eps)\n"
    namespace = {}
    exec(compile(scaling._kernel_source(period, block), "<stand-in>", "exec"), vars(scaling), namespace)
    r_kernel, feasible_kernel = namespace[f"_kernels{period.p}"](period)
    with mock.patch.object(scaling, "_orbit_points", orbit), \
            mock.patch.object(period, "r_kernel", r_kernel), \
            mock.patch.object(period, "feasible_kernel", feasible_kernel):
        yield
