"""A stand-in critical orbit for tests that feed the conditions a hand-made
orbit: the float kernels are compiled by scaling's own generator over it."""

import contextlib
from unittest import mock

import numpy as np

from renorm import scaling


@contextlib.contextmanager
def stand_in_orbit(period, orbit):
    """Within the block scaling._orbit_points is orbit, and so is every
    path that reads the orbit without it: period's r_kernel,
    feasible_kernel, values_kernel and the root scan's root_kernel are
    scaling._kernel_source's kernels over an orbit block that reads it,
    for floats and arrays alike, and the domain scan's scaling._scan_orbit
    is the grid and orbit over it, past the memo of the scan's eps-free
    head."""
    points = ", ".join(f"x{k}" for k in range(2 * period.p - 1))
    block = f"        {points}, one = _orbit_points(period, c, eps)\n"
    namespace = {}
    exec(compile(scaling._kernel_source(period, block, block), "<stand-in>", "exec"), vars(scaling), namespace)
    r_kernel, feasible_kernel, values_kernel, _, root_kernel = namespace[f"_kernels{period.p}"](period)

    def scan_orbit(period, scan_step, eps):
        cs = np.arange(scan_step, 0.5, scan_step)
        return cs, orbit(period, cs, eps)

    with mock.patch.object(scaling, "_orbit_points", orbit), \
            mock.patch.object(scaling, "_scan_orbit", scan_orbit), \
            mock.patch.object(period, "r_kernel", r_kernel), \
            mock.patch.object(period, "feasible_kernel", feasible_kernel), \
            mock.patch.object(period, "values_kernel", values_kernel), \
            mock.patch.object(period, "root_kernel", root_kernel):
        yield
