"""A stand-in critical orbit for tests that feed the conditions a hand-made
orbit: the float kernels are compiled by scaling's own generator over it."""

import contextlib
from unittest import mock

import numpy as np

from renorm import scaling


@contextlib.contextmanager
def stand_in_orbit(period, orbit):
    """Within the block period.orbit is orbit, called as orbit(c, eps), and
    so is every path that reads the orbit without it: period's r_kernel,
    feasible_kernel, values_kernel and the root scan's root_kernel are
    scaling._kernel_source's kernels over an orbit block that reads it,
    for floats and arrays alike, and the domain scan's
    scaling._scan_conditions is the grid and the condition rows over it,
    past the memo of the scan's eps-free head and rows.  The generated orbit of that source is not installed: its block
    reads period.orbit, so it would call itself."""
    points = ", ".join(f"x{k}" for k in range(2 * period.p - 1))
    block = f"        {points}, one = period.orbit(c, eps)\n"
    namespace = {}
    exec(compile(scaling._kernel_source(period, block, block), "<stand-in>", "exec"), vars(scaling), namespace)
    generated = dict(zip(scaling._GENERATED, namespace[f"_kernels{period.p}"](period)))

    def scan_conditions(period, scan_step, eps):
        cs = np.arange(scan_step, 0.5, scan_step)
        o = orbit(cs, eps)
        return cs, [o[i] - o[j] for i, j in period.comb.pairs]

    with mock.patch.object(period, "orbit", orbit), \
            mock.patch.object(scaling, "_scan_conditions", scan_conditions), \
            mock.patch.object(period, "r_kernel", generated["r_kernel"]), \
            mock.patch.object(period, "feasible_kernel", generated["feasible_kernel"]), \
            mock.patch.object(period, "values_kernel", generated["values_kernel"]), \
            mock.patch.object(period, "root_kernel", generated["root_kernel"]):
        yield
