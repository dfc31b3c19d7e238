"""The quadratic family's critical orbit and what it determines: scaling
factors, gaps, feasibility and the critical-point return map.

u_c(x) = 1 - ((x - c)/(1 - c))**2 on [0, 1] (eval_raw) has its critical
point at c and critical exponent 2.  Everything the package builds (scaling
factors, towers, piecewise-affine maps, extensions) is read off the orbit
of 0 under u_c, and each Period's orbit is the one function that
computes it.

COMBINATORICS holds what differs between the periods, the cycle: the order
in which u visits the first-generation intervals I_1 .. I_p, numbered left
to right, from the central I_j, which holds c; Period.comb derives the
rest once.  Each interval is a pair (left, right) of indices into the orbit
o_k = u^k(0), ONE standing for 1.0.  Step 1 of the cycle is the rightmost,
(o_{p-1}, 1), step 2 the leftmost, and step k >= 2 holds o_{k-2}, o_{k-2+p}
in step k - 1's order, flipped where that lies right of I_j (step p):

    p = 3, (2, 3, 1):        I1 = (0, 3)  I2 = (1, 4)  I3 = (2, ONE)
    p = 5, (2, 5, 1, 3, 4):  I1 = (0, 5)  I2 = (3, 8)  I3 = (1, 6)  I4 = (7, 2)  I5 = (4, ONE)

The scaling factor is the lengths o[right] - o[left] (for tripling
s1 = u^3(0), s2 = u^4(0) - u(0), s3 = 1 - u^2(0)), the gaps (Gl, Gr left
and right of I_j) are o[next left] - o[this right], and a critical point
is feasible when all of them are positive.  R(c) = (o[right of I_j] - c)/s_j
sends the critical point of a renormalizable map to that of its
renormalization; its fixed point is the self-similar configuration.  The
central rescale sends 0 to o_{2p-2}, in both rows the right end of I_j:
it reverses orientation.

The eps-perturbed tripling system pulls u^3(0) to eps*u^3(0) and continues
the orbit from the pulled point; eps = 1 is the unperturbed map, so both
are read off one orbit.  The orbit is straight-line code built from one
template, a u-step with 1 - c computed once and the pull: a block per
Period of 2p - 2 u-steps with the pull after step p, the only place eps
enters the orbit, and no loop left to run per call.  Each Period's code
is one piece, compiled the first time any of its generated names is read
(a _FirstUse descriptor on the class), so importing the package compiles
none and a process compiles only the periods it uses.  The piece holds
nine functions, stored on the member beside comb, of four kinds:

- orbit(c, eps=1.0), the generic orbit, which runs on floats, numpy
  arrays, Intervals and interval.Jets, with eps an Interval or a Jet too.
  conditions, the boundary naming of feasible_domain and its scan's
  memoized head, pwa, tower, the cobweb plot data and the interval proofs
  read it, and so do return_map, scaling_from_critical and gaps for any
  argument but a real scalar c and eps;
- five kernels, each with the period's pull check written in.  Three
  run on floats: r_kernel, R with its s2 guard, feasible_kernel, the
  conditions in table order, and values_kernel, the condition tuple.
  return_map and feasibility run the first two, and scaling_from_critical
  and gaps the third, for a real scalar c and eps, and the scalar hot
  loops call them directly: the solver's root refinement,
  feasible_domain's boundary bisection, and horseshoe's inversions and
  branch domain ends; feasible_domain's puncture refinement and boundary
  naming read values_kernel.  Each is bitwise the generic path on
  floats.  Two run on arrays: scan_tail, the block's tail (the pull and
  the u-steps after it, each step in place in a new array), and
  root_kernel, the whole block with out= ufuncs and R(c) - c
  from it, NaN where the s2 guard trips, bitwise return_map(period, c,
  eps) - c: the root scan on arrays;
- two scan loops, the per-point form of each scan: the block run inline
  at each grid point of a Python for loop, with no call, tuple or list
  per point.  domain_scan(step, n, eps) walks the domain scan's grid,
  step + i*step, and returns its runs of feasible points and its dips,
  the feasible points where a condition is at or below 1e-4;
  root_scan(xs, eps) computes R(c) - c over a list of grid points, NaN
  where the s2 guard trips, and returns the indices i where it changes
  sign from xs[i] to xs[i + 1] by the array scan's rule.  domain_scan
  tests each condition right after the later of its two points is set
  (after the pull, for the pulled point), so a point leaves the loop
  body at its first failing condition; the dip test comes last;
- the float-bound pass, r_bounds(a, z, eps): the block run on jet bounds
  (interval.jet_*), with the same operations in the same order as
  r_kernel.  Over the box [a, z] it returns R's value bounds and R''s,
  bitwise return_map(period, Jet(Interval(a, z), Interval(1.0, 1.0)),
  eps), and eta, a bound on |r_kernel(x, eps) - R(x, eps)| at every float
  x of the box, by running error analysis; the s2 guard raises as
  return_map's does on a Jet.  The horseshoe's full-shift proof reads it,
  and its inversions skip the bisection nodes eta decides.

The domain scan's grid is fixed by its step, and so is every orbit point
before the pull, and every condition no pulled point enters: period
three's S3 = 1 - u^2(0), period five's S5 = 1 - u^4(0) and Gr3 = u^4(0) -
u^2(0) (Combinatorics.eps_free).  _scan_head keeps the grid, 1 - c, the
points u(0) .. u^p(0) and those rows, read-only, in a memo of the last
four (period, step) keys, so that each scan runs only scan_tail and the
subtractions of the other conditions, but S1 = u^p(0) - 0, which is the
pulled row as is.  A memo above SCAN_MEMO_CAP bytes, from a step far
below the default, is computed afresh for its scan and not kept.

Nearby eps share almost all of their domain scan.  A period-three array
scan at eps reads the eps window [jW, (j + 1)W], W = EPS_WINDOW = 2^-7,
that holds it: two scans, one at each end, decide every grid point at
which t = (x3 - c)/d, of the one u-step after the pull, has one sign at
both ends, since each condition's float value there is monotone in eps
(_window gives the argument, from Combinatorics.window_row).  _window
keeps what the ends decide, the runs, dips and touch tests, and not their
rows, in a memo of the last sixteen windows beside the head's, under the
same SCAN_MEMO_CAP rule; a scan then evaluates only the points and touch
tests the ends leave open, with values_kernel (_window_scan): 5-16 of the
default step's 4,999 points in each window over [0.95, 1.05].  Period
five, an eps below W and a step above the cap scan the degenerate window
[eps, eps], one scan that decides every point.

Both scans live here, the domain scan (feasible_domain) and the root
scan for R(c) = c (_root_brackets, whose brackets the solver refines),
and this is the one module that imports numpy or asks whether it is
loaded.  Each scan runs per point or as arrays by one rule,
_scan_per_point: arrays once numpy is loaded, else per point while the
process's per-point work, grid points times the period, stays within
SCAN_BUDGET.  Per point, feasible_domain runs domain_scan and recomputes
the condition tuples around each dip with values_kernel (_loop_touches),
and the root scan runs root_scan over every interval's grid as one list:
the same runs, touches and brackets as the array scans, bitwise, and a
process that scans only per point never imports numpy: np is bound on
the first array call (_LazyModule), as interval is on the first
float-bound pass.  The array forms fold the condition rows
(_worst) and find sign changes with numpy, the domain scan at a window's
two ends only, once per window; the root scan, whose grid moves with the
domain's ends, runs whole at every solve, and its two forms end in one
junction filter.

pwa.build_pwa applies the same pull to the branch value at u^{p-1}(0),
the inner end of step 1's interval (the pulled family), the one other
site that knows the rule.

All condition evaluators and return_map accept numpy arrays of critical
points; the tests hold root_kernel, the scan loops and the plot data to
them.  return_map also takes an Interval or a Jet of c and then
encloses R (and dR/dc for a Jet); its one s2 guard has a rule for each
of the four kinds of number: a float c raises, an array gets NaN, an
Interval or a Jet raises unless its s2 enclosure lies above the floor.
"""

from __future__ import annotations

import enum
import math
import mmap
import sys
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from operator import add

from .value import Value


class _LazyModule:
    """A module imported on first use: the global name of this module stands
    for it until a call first reads one of its attributes, which imports the
    module and binds name to it in this object's place, so that the
    generated code, which reads name at call time, and every later read
    find the module itself."""

    def __init__(self, name: str, module: str):
        self.name = name
        self.module = module

    def __getattr__(self, attr):
        from importlib import import_module

        module = globals()[self.name] = import_module(self.module)
        return getattr(module, attr)


# numpy, which a float, Interval or Jet call and a per-point scan never
# read, and renorm.interval, which only the float-bound pass reads
np = _LazyModule("np", "numpy")
interval = _LazyModule("interval", "renorm.interval")

S2_FLOOR = 1e-14  # refuse to divide by a smaller central-interval length
# bracket width of every domain boundary, and the golden section's final
# bracket at a puncture; a puncture is a quadratic touch, placed only to
# about sqrt(ulp): across scan steps punctures move up to 5e-10
REFINE_TOL = 1e-12
# the largest scan head _scan_head's memo keeps, in bytes, with its
# eps-free condition rows: the default step's take about 240 KB (period
# three) and 360 KB (five); one at the 1e-6 step floor takes up to 36 MB
# and is computed fresh every scan, and so are the decisions of its eps
# window (_window), from one scan at eps
SCAN_MEMO_CAP = 1 << 20
# The scan work a process does per point before it scans arrays: the
# rent-or-buy rule.  Per point, a grid point of either scan's loop
# (domain_scan, root_scan) runs the whole orbit, and costs about the same
# per unit of the period p in either loop and at either period: 0.32 us
# a point for period three, 0.55 us for five.  So a scan's work is its
# grid points times p.  A whole per-point solve costs 0.11-0.13 us per
# unit more CPU than on arrays (a period-three eps solve, 32,640 units,
# 4.0-4.4 ms against 0.23 ms; period five, 30,345 units, 3.5-3.6 ms
# against 0.25 ms), and numpy's import 68-70 ms (Python 3.11.7, numpy
# 2.4.6, one CPU of a shared 2-vCPU VM; BENCH_34.json): 69 ms / 0.12 us
# is about 575k.  So the five distinct solves of the default horseshoe or
# of verify all --period 3 (162,444) and a horseshoe's nine (about 290k)
# never import numpy, and a process that scans more spends at most about
# one import more than arrays from the start.
SCAN_BUDGET = 575_000
_scanned = 0  # the work, grid points times p, this process has scanned per point


def _scan_per_point(work: int) -> bool:
    """Whether a scan of this much work, its grid points times the period
    p, runs per point, in its period's loop, rather than as numpy arrays:
    never once numpy is loaded, by whichever module, since its import is
    paid; else while the work scanned per point, this scan's included,
    stays within SCAN_BUDGET, and then the scan's work is charged.  Both
    forms give the same bits."""
    global _scanned
    if sys.modules.get("numpy") is not None or _scanned + work > SCAN_BUDGET:
        return False
    _scanned += work
    return True


class NumericalFailure(Exception):
    """Base of every failure the numerics, not the input, are to blame for:
    the CLI exits 3 on it.  Each such class keeps its own second base."""


class DivisionGuard(NumericalFailure, ArithmeticError):
    """s2 fell below the floor; the return map is not evaluable here."""


ONE = -1  # the orbit index of the point 1.0, counted below every other index


class Combinatorics(Value, frozen=True):
    """One period's combinatorics, derived from its cycle (module docstring)."""

    cycle: tuple  # the intervals I_j, numbered left to right, in the order u visits them

    def __post_init__(self):  # step 1 rightmost, step 2 leftmost, u unimodal
        cyc, p = self.cycle, len(self.cycle)
        nxt = dict(zip(cyc, cyc[1:] + cyc[:1]))
        if not (sorted(cyc) == list(range(1, p + 1)) and cyc[1:3] == (p, 1)
                and all(nxt[j] < nxt[j + 1] for j in range(1, cyc[0] - 1))
                and all(nxt[j] > nxt[j + 1] for j in range(cyc[0] + 1, p))):
            raise ValueError(f"{cyc} is not the visiting cycle of a unimodal map")

    @cached_property
    def intervals(self) -> tuple:  # I_1 .. I_p, left to right, as (left, right) orbit indices
        cyc, p = self.cycle, len(self.cycle)
        rows, low_left = {cyc[1]: (p - 1, ONE)}, False  # o_{k-2} is step k's left end
        for k in range(2, p + 1):
            low_left ^= cyc[k - 1] > cyc[0]  # flipped right of the central interval
            rows[cyc[k % p]] = (k - 2, k - 2 + p) if low_left else (k - 2 + p, k - 2)
        return tuple(rows[j] for j in range(1, p + 1))

    @cached_property
    def names(self) -> tuple:  # the conditions: each I_j's length, then each gap
        p, c = len(self.cycle), self.cycle[0]
        sides = (("Gl", c - 1), ("Gr", p - c))  # numbered where a side has several
        return tuple(f"S{j}" for j in range(1, p + 1)) + tuple(
            f"{tag}{k}" if n > 1 else tag for tag, n in sides for k in range(1, n + 1))

    central_family = cached_property(lambda self: self.cycle[0])  # the j of the I_j holding c
    central = cached_property(lambda self: self.intervals[self.cycle[0] - 1])  # its (left, right)
    pulled_family = cached_property(lambda self: self.cycle[1])  # the j of (o_{p-1}, 1): o_p is pulled
    # whether the central rescale, sending 0 to o_{2p-2}, reverses orientation
    reverses = cached_property(lambda self: self.central[1] == 2 * len(self.cycle) - 2)

    @cached_property
    def lengths(self) -> tuple:
        """(plus, minus) orbit indices of each length o[right] - o[left]."""
        return tuple((right, left) for left, right in self.intervals)

    @cached_property
    def gaps(self) -> tuple:
        """(plus, minus) orbit indices of each gap, left to right."""
        ivs = self.intervals
        return tuple((b[0], a[1]) for a, b in zip(ivs, ivs[1:]))

    @cached_property
    def pairs(self) -> tuple:
        """(plus, minus) orbit indices of each condition o[plus] - o[minus]:
        the lengths, then the gaps."""
        return self.lengths + self.gaps

    @cached_property
    def eps_free(self) -> tuple:
        """The pairs of the conditions no pulled point enters: both points
        come before o_p, the pulled one (or are 1.0), and the minus point
        is not o_0 = 0.0, whose condition is its plus point as is."""
        p = len(self.cycle)
        return tuple((i, j) for i, j in self.pairs if i < p and 0 != j < p)

    @cached_property
    def window_row(self):
        """The index of the condition that is the pulled point o_p as is,
        the pair (p, 0), where an eps window decides the domain scan
        (_window), else None: o_p is followed by one u-step, to o_{p+1} =
        o_{2p-2}, and no condition reads both.  That holds for p = 3 alone."""
        p = len(self.cycle)
        if 2 * p - 2 != p + 1 or any({i, j} == {p, p + 1} for i, j in self.pairs):
            return None
        return self.pairs.index((p, 0))


# the one hand-written datum per period p: the visiting cycle
COMBINATORICS = {3: (2, 3, 1), 5: (2, 5, 1, 3, 4)}


# the names of each Period's generated functions (_KERNELS), in the order its piece returns them
_GENERATED = ("orbit", "r_kernel", "feasible_kernel", "values_kernel", "scan_tail", "root_kernel",
              "domain_scan", "root_scan", "r_bounds")


class Period(enum.Enum):
    THREE = 3
    FIVE = 5

    def __init__(self, p: int):
        # plain attributes: every orbit evaluation reads them, and a dict
        # keyed by the member would run Enum.__hash__ in Python each time;
        # the class's _FirstUse descriptors add the generated functions
        self.p = p
        self.comb = Combinatorics(COMBINATORICS[p])


class _FirstUse:
    """A generated name on Period, read only while the member lacks it: the
    first read of any compiles the member's piece, which stores all of its
    functions on the member (_generated); a later read, after the name was
    deleted from the member, as a patch's undo does, stores that one name
    again.  Each is stored with setattr, never through the member's
    __dict__, which would make every later attribute read of the member
    miss CPython's attribute specialization."""

    def __init__(self, name: str):
        self.name = name
        self.index = _GENERATED.index(name)

    def __get__(self, member, owner=None):
        if member is None:
            return self
        fn = _generated(member)[self.index]
        setattr(member, self.name, fn)
        return fn


for _name in _GENERATED:
    setattr(Period, _name, _FirstUse(_name))
del _name


class ScalingFactor(Value, frozen=True):
    """A point of T_k.

    Out-of-simplex vectors are data, not errors: the feasibility scanner
    has to evaluate infeasible critical points, so validity is a flag.
    """

    period: Period
    s: tuple

    @property
    def is_valid(self) -> bool:
        return all(x > 0.0 for x in self.s) and sum(self.s) < 1.0

    @property
    def simplex_margin(self) -> float:
        """Euclidean distance to the boundary of the open simplex T_k."""
        plane = (1.0 - sum(self.s)) / math.sqrt(len(self.s))
        return min(min(self.s), plane)


class FeasibleDomain(Value, frozen=True):
    period: Period
    intervals: list
    # (c, condition-name) for each outer boundary and each interior puncture
    boundaries: list
    punctures: list

    def covering_interval(self, c: float):
        for lo, hi in self.intervals:
            if lo <= c <= hi:
                return (lo, hi)
        return None


def eval_raw(c, x):
    """u_c(x) = 1 - ((x - c)/(1 - c))**2, without domain checks.  Works on
    floats and numpy arrays."""
    t = (x - c) / (1.0 - c)
    return 1.0 - t * t


# the pull's two refusals; _check_pull raises them for the generic orbit,
# and each generated float kernel has its period's rule written in
_ONLY_THREE = "eps-perturbation is defined for period three only"
_NOT_POSITIVE = "eps must be positive"


def _check_pull(period: Period, eps) -> None:
    """Refuse an eps the pull is not defined for: any period but three, or
    an eps not above 0; for an Interval eps, or a Jet's, its lower bound."""
    if period.p != 3:  # not Period.THREE: an Enum class lookup, every call
        raise ValueError(_ONLY_THREE)
    try:
        above = eps > 0.0
    except TypeError:  # an Interval or a Jet: no order, only bounds
        above = getattr(eps, "val", eps).lo > 0.0
    if not above:
        raise ValueError(_NOT_POSITIVE)


# The one template of the critical orbit: a u-step, eval_raw's
# t = (x - c)/(1 - c), x = 1 - t*t with d = 1 - c computed once, and the
# pull.  One compile() per Period turns it into straight-line code, so that
# no call runs a loop: the period's block, read by all its generated
# functions (_KERNELS).  _IN_PLACE is the same u-step and pull on arrays with
# out= ufuncs, the same operations in the same order, each step written
# into one array: the point before it, taken over ({out}), or a new one.
# The scan's tail runs _IN_PLACE's u-step, each into a new array, since it
# returns every point, after the template's pull, which leaves the
# memoized read-only point it pulls as it was.
_U_STEP = "        t = (x{j} - c) / d\n        x{k} = 1.0 - t * t\n"
_PULL = "        x{k} = eps * x{k}\n"
_IN_PLACE = (
    "        x{k} = np.subtract(x{j}, c{out})\n        np.divide(x{k}, d, out=x{k})\n"
    "        np.multiply(x{k}, x{k}, out=x{k})\n        np.subtract(1.0, x{k}, out=x{k})\n",
    "        np.multiply(eps, x{k}, out=x{k})\n",
)
# _BOUNDS is the same u-step and pull on jet bounds (interval.jet_*), each
# point the 5-tuple of its value's and c-derivative's enclosures over a box
# of c and its error bound: the template's operations, one helper call
# each, in the template's order.  Its third entry is the first u-step,
# from the constant x0 = 0.0, which a Jet subtracts as a float.
_BOUNDS = (
    "        t = interval.jet_div(interval.jet_sub(x{j}, c), d)\n"
    "        x{k} = interval.jet_rsub(1.0, interval.jet_square(t))\n",
    "        x{k} = interval.jet_scale(x{k}, eps)\n",
    "        t = interval.jet_div(interval.jet_rsub(x{j}, c), d)\n"
    "        x{k} = interval.jet_rsub(1.0, interval.jet_square(t))\n",
)
# A Period's generated functions (_GENERATED): the generic orbit, for any
# kind of c and eps; for a float c and a float eps, return_map's R,
# feasibility past its 0 < c < 1/2 test and the condition values, each
# bitwise what the generic path computes from the orbit; the scan's tail,
# the pull and the in-place u-steps after it on the arrays of a grid; the
# root scan's R(c) - c on an array c, bitwise return_map(period, c, eps) -
# c; the two scan loops, the block indented into a for loop over the grid
# ({loop_orbit}), the domain loop's copy ({scan_orbit}) leaving a point at
# its first condition not above 0 (NaN is not) and testing {dip}, one at
# or below 1e-4, last; and the float-bound pass over {bounds_orbit}, the
# block on jet bounds.
# {check} is the period's pull check, {orbit} the block of orbit lines and
# {array_orbit} its lines on arrays, either of which may set the point 1.0,
# one, too; {points} are the orbit's points, {top} and {bottom} the ends
# of the central interval, {conditions} the condition tests in table order,
# {lengths} the lengths' sum, {values} the conditions, {tail} the block's
# lines from the pull on, which set {pulled} .. its last point, and
# {generated} the functions' names.
_KERNELS = '''
def _kernels{p}(period):
    def orbit(c, eps=1.0):
        """The critical orbit, with u^p(0) replaced by eps*u^p(0) and
        continued from the pulled point, then the point 1.0 at index ONE,
        for c a float, a numpy array, an Interval or an interval.Jet, and
        eps a real, an Interval or a Jet.  Every point is bitwise
        eval_raw's, and eps = 1.0 multiplies exactly."""
        if eps != 1.0:
            _check_pull(period, eps)
        d = 1.0 - c
        x0 = 0.0
{orbit}        return [{points}, 1.0]

    def r_kernel(c, eps):
{check}        d = 1.0 - c
        x0, one = 0.0, 1.0
{orbit}        s2 = {top} - {bottom}
        if s2 <= S2_FLOOR:
            raise DivisionGuard(f"s2={{s2}} at c={{c}} is below the floor {{S2_FLOOR}}")
        return ({top} - c) / s2

    def feasible_kernel(c, eps):
{check}        d = 1.0 - c
        x0, one = 0.0, 1.0
{orbit}{conditions}        if {lengths} >= 1.0:
            raise RuntimeError(
                "positivity held but the simplex sum exceeded 1; "
                "the gap conditions should forbid this"
            )
        return True

    def values_kernel(c, eps):
{check}        d = 1.0 - c
        x0, one = 0.0, 1.0
{orbit}        return {values}

    def scan_tail(c, d, x{p}, eps):
{check}{tail}        return {pulled}

    def root_kernel(c, eps):
{check}        d = 1.0 - c
        x0, one = 0.0, 1.0
{array_orbit}        s2 = np.subtract({top}, {bottom}, out=d)
        s2[s2 <= S2_FLOOR] = np.nan
        r = np.subtract({top}, c)
        np.divide(r, s2, out=r)
        return np.subtract(r, c, out=r)

    def domain_scan(step, n, eps):
{check}        runs, dips, start, last = [], [], -1, -2
        x0, one = 0.0, 1.0
        for i in range(n):
            c = step + i * step
            d = 1.0 - c
{scan_orbit}            if i != last + 1:
                if start >= 0:
                    runs.append((start, last))
                start = i
            last = i
            if {dip}:
                dips.append(i)
        if start >= 0:
            runs.append((start, last))
        return runs, dips

    def root_scan(xs, eps):
{check}        hits, v = [], math.nan
        x0, one = 0.0, 1.0
        for i, c in enumerate(xs):
            w = v
            d = 1.0 - c
{loop_orbit}            s2 = {top} - {bottom}
            v = ({top} - c) / s2 - c if s2 > S2_FLOOR else math.nan
            if v > 0.0:
                if w < 0.0:
                    hits.append(i - 1)
            elif v < 0.0 and w > 0.0:
                hits.append(i - 1)
        return hits

    def r_bounds(a, z, eps):
{check}        c = (a, z, 1.0, 1.0, 0.0)
        d = interval.jet_rsub(1.0, c)
        x0 = 0.0
{bounds_orbit}        s2 = interval.jet_sub({top}, {bottom})
        if not s2[0] > S2_FLOOR:
            raise DivisionGuard(f"s2 enclosure {{interval.Interval(s2[0], s2[1])}} over "
                                f"{{interval.Interval(a, z)}} is not above the floor {{S2_FLOOR}}")
        lo, hi, dlo, dhi, eta = interval.jet_div(interval.jet_sub({top}, c), s2)
        if not interval.sub(s2[0], s2[0], s2[4], s2[4])[0] > S2_FLOOR:
            eta = math.inf  # the kernel's own s2 may reach the floor in the box
        return lo, hi, dlo, dhi, eta

    return {generated}
'''
_CONDITION = "        s{n} = {plus} - {minus}\n        if not s{n} > 0.0:\n            return False\n"
# the domain loop's test of the conditions whose last point was just set
_SCAN_TEST = "        if not ({feasible}):\n            continue\n"
# _check_pull's rule on a real eps, one comparison: the pull is defined for
# period three and an eps above 0 (NaN is not), any other period has eps 1
_PULL_CHECK = {
    True: f"        if not eps > 0.0:\n            raise ValueError({_NOT_POSITIVE!r})\n",
    False: f"        if eps != 1.0:\n            raise ValueError({_ONLY_THREE!r})\n",
}


def _point(i) -> str:
    """The name of orbit point i in the kernels."""
    return "one" if i == ONE else f"x{i}"


def _orbit_block(p: int, first: int = 1, steps: tuple = (_U_STEP, _PULL), keep: tuple = ()) -> str:
    """The u-steps from step first to step 2p - 2, with the pull after step
    p: from first = 1 the whole block from x0 = 0, from first = p + 1 its
    tail, the pull and the u-steps after it.  steps is the template's
    (u-step, pull), or _IN_PLACE's, whose step k takes over the array of
    point k - 1 unless that is x0 or a point in keep, or _BOUNDS', whose
    third entry is step 1."""
    u_step, pull, *start = steps
    src = ""
    for k in range(first, 2 * p - 1):
        if k == p + 1:
            src += pull.format(k=p)
        out = "" if k == 1 or k - 1 in keep else f", out=x{k - 1}"
        src += (start[0] if start and k == 1 else u_step).format(j=k - 1, k=k, out=out)
    return src


def _tested(orbit: str, pairs, scanned) -> str:
    """orbit's lines with the domain loop's condition tests in between:
    scanned[n], the condition of pairs[n], is tested right after the line
    that last sets the later of its two points, after the pull for the
    pulled point, and every condition a line finishes in one test, in table
    order."""
    lines = orbit.splitlines(True)
    last = {}  # each point's last line, read off the names left of each "="
    for n, line in enumerate(lines):
        for name in line.split("=")[0].replace(",", " ").split():
            last[name] = n
    tests = {}
    for (i, j), s in zip(pairs, scanned):
        tests.setdefault(last[_point(max(i, j))], []).append(f"{s} > 0.0")
    return "".join(line + (_SCAN_TEST.format(feasible=" and ".join(tests[n])) if n in tests else "")
                   for n, line in enumerate(lines))


def _kernel_source(period: Period, orbit: str, array_orbit: str) -> str:
    """The source of _kernels{p}(period), which returns period's
    _GENERATED functions: the generic orbit and the R, feasibility and
    condition-value kernels and the scan loops over orbit, and the root
    scan kernel over array_orbit: lines that set x1 .. x{2p-2} from c, d =
    1 - c, eps and
    x0 = 0.0, and may set the point one = 1.0; the array lines must leave
    the central interval's ends as they set them.  Every condition that is
    not above 0, NaN too, ends the feasibility test with False; the lengths
    are summed from 0, in table order.  The scan's tail runs the
    template's own pull and in-place u-steps whatever orbit is."""
    comb, p = period.comb, period.p
    left, right = comb.central
    pairs = [(_point(i), _point(j)) for i, j in comb.pairs]
    conditions = "".join(
        _CONDITION.format(n=n, plus=plus, minus=minus) for n, (plus, minus) in enumerate(pairs, 1))
    lengths = " + ".join(["0.0"] + [f"s{n}" for n in range(1, p + 1)])
    values = ", ".join(f"{plus} - {minus}" for plus, minus in pairs)
    pulled = ", ".join(f"x{k}" for k in range(p, 2 * p - 1))
    points = ", ".join(f"x{k}" for k in range(2 * p - 1))
    # the scan loop's conditions: a minus point o_0 = 0.0 leaves the plus
    # point as is, as the array scan's row does; each is tested as soon as
    # the later of its points is final, and the point leaves the loop body
    # at its first failing test
    scanned = [plus if minus == "x0" else f"{plus} - {minus}" for plus, minus in pairs]
    return _KERNELS.format(p=p, check=_PULL_CHECK[p == 3], orbit=orbit, array_orbit=array_orbit,
                           loop_orbit=_indented(orbit), scan_orbit=_indented(_tested(orbit, comb.pairs, scanned)),
                           bounds_orbit=_orbit_block(p, steps=_BOUNDS),
                           points=points, top=_point(right), bottom=_point(left), conditions=conditions,
                           lengths=lengths, values=values,
                           dip=" or ".join(f"{s} <= 1e-4" for s in scanned),
                           tail=_orbit_block(p, p + 1, (_IN_PLACE[0], _PULL), range(p, 2 * p - 2)),
                           pulled=pulled, generated=", ".join(_GENERATED))


def _indented(block: str) -> str:
    """block's lines one level deeper: inside a scan loop's for."""
    return "".join("    " + line for line in block.splitlines(True))


@lru_cache(maxsize=None)
def _generated(period: Period) -> tuple:
    """period's one piece of generated code, compiled once, on the first
    read of a _GENERATED name on the member (_FirstUse): its block of u-steps
    with the pull after step p, read by the generic orbit, the float
    kernels and the scan loops, and the block's in-place form, read by
    root_kernel.  Compiled
    under this file's name, so profiles count it in scaling; a traceback
    through it gives the generated source's line numbers."""
    p = period.p
    src = _kernel_source(period, _orbit_block(p), _orbit_block(p, steps=_IN_PLACE, keep=period.comb.central))
    namespace = {}
    exec(compile(src, __file__, "exec"), globals(), namespace)
    generated = namespace[f"_kernels{p}"](period)
    for name, fn in zip(_GENERATED, generated):
        setattr(period, name, fn)
    return generated


def _condition_values(period: Period, c, eps: float = 1.0) -> tuple:
    """All positivity conditions (lengths then gaps) as a tuple; the
    scalar refinements read it without building an array."""
    o = period.orbit(c, eps)
    return tuple([o[i] - o[j] for i, j in period.comb.pairs])


def conditions(period: Period, c, eps: float = 1.0):
    """All positivity conditions (lengths then gaps), vectorized."""
    return np.array(_condition_values(period, c, eps))


_SCALARS = (float, int)  # a real scalar: return_map and _point_values send it to a kernel


def _point_values(period: Period, c, eps: float = 1.0) -> tuple:
    """_condition_values, through period.values_kernel for a real scalar c
    and eps, bitwise the generic path there."""
    if isinstance(c, _SCALARS) and isinstance(eps, _SCALARS):
        return period.values_kernel(c, eps)
    return _condition_values(period, c, eps)


def scaling_from_critical(period: Period, c: float, eps: float = 1.0) -> ScalingFactor:
    s = _point_values(period, c, eps)[: period.p]
    return ScalingFactor(period, tuple(float(x) for x in s))


def gaps(period: Period, c: float) -> tuple:
    """The inter-interval gaps at c, the conditions after the lengths."""
    return tuple(float(x) for x in _point_values(period, c)[period.p :])


def feasibility(period: Period, c: float, eps: float = 1.0) -> bool:
    """True iff all scaling components and all gaps are positive (and
    0 < c < 1/2), for a float c.  The conditions are read in table order
    until one is not above 0: not min(), a NaN condition must count as
    infeasible.  The simplex sum condition is implied; it is checked
    anyway and a violation flags a broken implementation."""
    if not 0.0 < c < 0.5:
        return False
    return period.feasible_kernel(c, eps)


def return_map(period: Period, c, eps: float = 1.0):
    """R(c) = (u^{2p-2}(0) - c)/s2, the rescaled next critical point.

    One s2 guard, with a rule for each kind of c.  Where s2 <= S2_FLOOR a
    float c raises DivisionGuard and an array c gets NaN, so an array call
    equals the float calls elementwise, bitwise, with NaN standing for the
    raise.  An Interval c, or an interval.Jet that carries dR/dc along,
    gives an enclosure and raises DivisionGuard unless the lower bound of
    the s2 enclosure lies above the floor.  A float (or int) c with a float
    (or int) eps runs the period's straight-line kernel, period.r_kernel;
    any other argument (an array, an Interval, a Jet, a numpy integer)
    reads period.orbit.  The root scan does not come here:
    period.root_kernel computes an array call minus c, bitwise, in place.
    """
    if isinstance(c, _SCALARS) and isinstance(eps, _SCALARS):
        return period.r_kernel(c, eps)
    o = period.orbit(c, eps)
    left, right = period.comb.central
    top = o[right]
    s2 = top - o[left]
    s2_val = getattr(s2, "val", s2)  # a Jet's value part
    if isinstance(s2, float):  # a numpy float, from a 0-d array or a numpy integer eps
        if s2 <= S2_FLOOR:
            raise DivisionGuard(f"s2={s2} at c={c} is below the floor {S2_FLOOR}")
    elif hasattr(s2_val, "lo"):  # an Interval, or a Jet's: tested first, so it never imports numpy
        if not s2_val.lo > S2_FLOOR:
            over = getattr(c, "val", c)
            raise DivisionGuard(f"s2 enclosure {s2_val} over {over} is not above the floor {S2_FLOOR}")
    else:  # an array: dividing by NaN is quiet, no value from across the pole, no warning
        s2[s2 <= S2_FLOOR] = np.nan
    return (top - c) / s2


def _poly_p(c):
    # c - 8c^2 + 21c^3 - 25c^4 + 17c^5 - 6c^6 + c^7, printed coefficients
    return c * (1 + c * (-8 + c * (21 + c * (-25 + c * (17 + c * (-6 + c))))))


def scaling_closed_form_tripling(c: float) -> ScalingFactor:
    """The printed rational expressions for the tripling factor.

    Kept verbatim (including the (-1+c)^15 form) as the independent route
    against the orbit computation.
    """
    p = _poly_p(c)
    one_m = 1.0 - c
    s1 = 1.0 - p**2 / one_m**14
    s2 = (c**2 * one_m**28 - ((-1.0 + c) ** 15 + p**2) ** 2) / one_m**30
    s3 = (-1.0 + 3.0 * c - 2.0 * c**2 + c**3) ** 2 / one_m**6
    return ScalingFactor(Period.THREE, (float(s1), float(s2), float(s3)))


class EmptyDomain(NumericalFailure, RuntimeError):
    """The scan found no feasible point; the predicate must be wrong."""


def bisect(keep, a, b, tol):
    """Halve the bracket between a and b (either may be the larger) until
    it is at most tol wide, moving a to each midpoint where keep holds and
    b to every other; return the midpoint of what is left."""
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if keep(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _linspace(lo: float, hi: float, num: int) -> list:
    """np.linspace(lo, hi, num) as Python floats, bitwise: i*step + lo with
    step = (hi - lo)/(num - 1) and the last point hi, or, where that step
    is 0, (i/(num - 1))*(hi - lo) + lo, as linspace computes them; one
    point is 0*(hi - lo) + lo."""
    delta, div = hi - lo, num - 1
    if div < 1:
        return [0.0 * delta + lo][:num]
    step = delta / div
    xs = [i * step + lo for i in range(div)] if step else [i / div * delta + lo for i in range(div)]
    return xs + [hi]


def _ordered_sum(xs) -> float:
    """xs added left to right, as np.sum adds fewer than eight floats; sum()
    compensates its rounding from Python 3.12 on."""
    return reduce(add, xs)


def _argmin(values) -> int:
    """np.argmin of a tuple of floats without building an array: the index
    of the first NaN, or else of the first minimum."""
    k = 0
    for i, v in enumerate(values):
        if v != v:
            return i
        if v < values[k]:
            k = i
    return k


def _bisect_boundary(period, ok_pt, bad_pt, eps=1.0):
    """Bisect min(all conditions) between a feasible and an infeasible point.

    Both lie in [0, 1/2], the feasible one inside, so every midpoint the
    bisection tests lies strictly inside (0, 1/2), where feasibility is
    the period's kernel alone.  The boundary is named after the condition
    np.argmin picks, a NaN first.  The kernel is called through a lambda:
    handing eps to bisect as a trailing argument, called as keep(mid,
    *args), measured slower per step."""
    kernel = period.feasible_kernel
    c = bisect(lambda x: kernel(x, eps), ok_pt, bad_pt, REFINE_TOL)
    return c, period.comb.names[_argmin(period.values_kernel(c, eps))]


def _refine_touch(kernel, eps, j, lo, hi):
    """Golden-section minimum of condition j, kernel(x, eps)[j], over
    [lo, hi], with kernel a period's values_kernel, called directly: the
    puncture refinement."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = kernel(x1, eps)[j], kernel(x2, eps)[j]
    while b - a > REFINE_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = kernel(x1, eps)[j]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = kernel(x2, eps)[j]
    return 0.5 * (a + b)


@lru_cache(maxsize=4)
def _scan_head(period: Period, scan_step: float, free: tuple) -> tuple:
    """The scan grid cs = arange(scan_step, 0.5, scan_step), d = 1 - cs,
    the orbit points u(0) .. u^p(0) before the pull and the rows
    o[i] - o[j] of the pairs free, conditions no pulled point enters
    (Combinatorics.eps_free): all of the scan that eps does not enter,
    computed once per grid, read-only.

    They are rows of one anonymous memory map, off the malloc heap: arrays
    that outlive the call there pin the heap, so that every later scan's
    temporaries grow its top and the allocator trims it again, page fault
    by page fault (with glibc, 47 minor faults per eps solve in a loop of
    solves with the rows kept as separate arrays, none with the map)."""
    cs = np.arange(scan_step, 0.5, scan_step)
    o = period.orbit(cs)
    rows = (cs, 1.0 - cs, *o[1 : period.p + 1], *(o[i] - o[j] for i, j in free))
    head = np.frombuffer(mmap.mmap(-1, len(rows) * cs.nbytes)).reshape(len(rows), -1)
    for row, values in zip(head, rows):
        row[:] = values
    head.flags.writeable = False
    return tuple(head)


def _memoized(period: Period, scan_step: float) -> bool:
    """Whether the scan head at this step, a row of np.arange's length for
    each of cs, d, the p head points and the eps-free rows, fits
    SCAN_MEMO_CAP: the rule for _scan_head's memo and _window's."""
    points = math.ceil((0.5 - scan_step) / scan_step)
    return (period.p + 2 + len(period.comb.eps_free)) * 8 * points <= SCAN_MEMO_CAP


def _scan_conditions(period: Period, scan_step: float, eps: float):
    """The scan grid cs and _condition_values(period, cs, eps), bitwise,
    one row per condition in the table's order, read at call time.  A
    condition no pulled point enters is the memo's read-only row, one
    whose minus point is o_0 = 0.0 its plus point's row as is (x - 0.0 is
    x, -0.0 and NaN too), and every other a new row: the memoized head
    and the period's scan_tail, the pull and the u-steps after it, give
    the orbit.  A memo of more than SCAN_MEMO_CAP bytes (a row of
    np.arange's length for each of cs, d, the p head points and the
    eps-free rows) is computed by _scan_head's own function, uncached.

    A huge eps overflows the orbit after the pull, quietly: an orbit point
    past it that overflows is -inf, and so is the length S2 it ends, so
    the point fails worst > 0 whatever its other conditions read."""
    comb, p = period.comb, period.p
    free = comb.eps_free
    cs, d, *head = (_scan_head if _memoized(period, scan_step) else _scan_head.__wrapped__)(period, scan_step, free)
    fixed = iter(head[p:])  # the eps-free rows, in table order
    with np.errstate(over="ignore", invalid="ignore"):
        o = [0.0, *head[: p - 1], *period.scan_tail(cs, d, head[p - 1], eps), 1.0]
        return cs, [next(fixed) if (i, j) in free else o[i] if j == 0 else o[i] - o[j]
                    for i, j in comb.pairs]


def _worst(cond):
    """The minimum of the condition rows cond, two or more, elementwise in
    their order, a NaN first: folded into one new array."""
    worst = np.minimum(cond[0], cond[1])
    for row in cond[2:]:
        np.minimum(worst, row, out=worst)
    return worst


def _flips(mask) -> list:
    """The indices i where mask[i + 1] differs from mask[i], for an array of
    bools: nonzero()[0] of a 1-d mask is np.flatnonzero without its ravel
    call."""
    return (mask[1:] != mask[:-1]).nonzero()[0].tolist()


def _runs(ok) -> list:
    """The maximal runs of True in the mask ok as (first, last) indices,
    read off ok's transitions: a run starts after each index where ok turns
    True, or at 0, and ends at each index where it turns False, or at the
    last."""
    edges = _flips(ok)
    if ok[-1]:
        edges.append(len(ok) - 1)
    if ok[0]:
        edges.insert(0, -1)
    return [(i0 + 1, i1) for i0, i1 in zip(edges[::2], edges[1::2])]


def _joined(runs) -> list:
    """The runs (first, last), sorted, with each two that meet, one ending
    right before the next begins, joined into one."""
    out = []
    for i0, i1 in sorted(runs):
        if out and i0 == out[-1][1] + 1:
            out[-1] = (out[-1][0], i1)
        else:
            out.append((i0, i1))
    return out


_OPEN = -2  # _touch_at's answer where the value ranges do not decide the test


def _touch_at(low, high, m):
    """The touch test at grid point m, from each condition's value range
    [low[k][j], high[k][j]] at the points k = m - 1, m, m + 1: the first
    condition j at or below 1e-4 at m and below its value at both
    neighbours, or -1 for none, wherever every value in the ranges gives
    the same answer, else _OPEN.  A condition whose range at m lies above
    1e-4 or at or above the top of a neighbour's range is not the one; one
    whose range at m lies at or below 1e-4 and below the bottom of both
    neighbours' ranges is.  A NaN decides nothing."""
    before, here, after = high[m - 1], low[m], high[m + 1]
    for j, (a, z) in enumerate(zip(here, high[m])):
        if a > 1e-4 or a >= before[j] or a >= after[j]:
            continue
        if z <= 1e-4 and z < low[m - 1][j] and z < low[m + 1][j]:
            return j
        return _OPEN
    return -1


def _decide(low, high, cross) -> tuple:
    """What the condition rows' ranges decide, each condition's value at a
    grid point lying between the rows low and high there, at every point
    but those the mask cross (or None) marks: the runs of feasible points
    and the dips among them, the points left open and the touch test at
    each dip or open point it decides, a dict of m to the condition or -1
    (_touch_at).  Its bounds on worst are the fold of low and the fold of
    high: a point is feasible where the first is above 0 and infeasible
    where the second is at or below it, and a feasible point dips where the
    second is at or below 1e-4 and does not where the first is above it.
    The few points neither clear of 1e-4 nor infeasible are read one by
    one, as Python floats."""
    lower = _worst(low)
    upper = lower if high is low else _worst(high)
    clear, out = lower > 1e-4, upper <= 0.0
    if cross is not None:
        clear &= ~cross
        out &= ~cross
    rest = (~(clear | out)).nonzero()[0].tolist()
    crossed = cross[rest].tolist() if cross is not None else [False] * len(rest)
    dips, opened = [], []
    for i, a, z, b in zip(rest, lower[rest].tolist(), upper[rest].tolist(), crossed):
        (dips if a > 0.0 and z <= 1e-4 and not b else opened).append(i)
    clear[dips] = True
    n = len(lower)
    ms = [m for m in rest if 0 < m < n - 1]
    ks = sorted({k for m in ms for k in (m - 1, m, m + 1)})
    at = np.array(ks, dtype=int)
    at_low = dict(zip(ks, zip(*[row[at].tolist() for row in low])))
    at_high = at_low if high is low else dict(zip(ks, zip(*[row[at].tolist() for row in high])))
    bent = set() if cross is None else {k for k, b in zip(ks, cross[at].tolist()) if b}
    touched = {}
    for m in ms:
        if not bent & {m - 1, m, m + 1}:
            j = _touch_at(at_low, at_high, m)
            if j != _OPEN:
                touched[m] = j
    return _runs(clear), opened, dips, touched


EPS_WINDOW = 2.0 ** -7  # the width of an eps window, a power of two


def _window_ends(period: Period, scan_step: float, eps: float) -> tuple:
    """The ends of the eps window that holds eps, [jW, (j + 1)W] with W =
    EPS_WINDOW: j*W is eps less its remainder modulo W, exactly, and eps
    lies between the two ends wherever (j + 1)W rounds.  It is the
    degenerate window [eps, eps] for an eps below W, for a period whose
    conditions a window does not decide (Combinatorics.window_row) and for
    a step whose scan head is above SCAN_MEMO_CAP."""
    if period.comb.window_row is not None and _memoized(period, scan_step):
        lo = eps - math.fmod(eps, EPS_WINDOW)
        if lo > 0.0:
            return lo, lo + EPS_WINDOW
    return eps, eps


@lru_cache(maxsize=16)
def _window(period: Period, scan_step: float, lo: float, hi: float) -> tuple:
    """The domain scan's decisions (_decide) for every eps in the window
    [lo, hi], from _scan_conditions' rows at its two ends: computed once
    per window and kept, without the rows, in a memo of the last sixteen
    (period, step, lo, hi) keys, which hold the windows that eps in [0.96,
    1.04] falls in.  The degenerate window [eps, eps] is one scan, every
    point decided but a NaN, and is computed for its scan and not kept.

    Why the two ends decide a point, for a period whose window_row is set
    (Combinatorics; period three): eps enters the orbit only at the pull,
    x_p = eps*X with X the point's u^p(0), and one u-step follows it, t =
    (x_p - c)/d and x_{p+1} = 1 - t*t, the orbit's last point.  Each
    condition reads at most one of x_p and x_{p+1}, and subtracts from it,
    or it from, a point eps does not move.  Every IEEE operation on the way
    is monotone in its one operand that eps moves: eps*X in eps, x_p - c
    and the division by d = 1 - c > 0 in x_p, t*t in t while t keeps one
    sign, 1 - t*t and each difference in theirs.  So at a grid point where
    t has one sign at both ends, or is 0 at one, each condition's float
    value at every eps in [lo, hi] lies between its values at the two ends,
    and is NaN only if one of them is.  t keeps its sign where x_p - c
    does, and the row window_row is x_p as is.  A point where t changes
    sign is left open: there t*t falls to 0 inside the window, and the
    conditions that read x_{p+1} can leave the ends' range."""
    cs, ends = _scan_conditions(period, scan_step, lo)
    if hi == lo:
        return _decide(ends, ends, None)
    _, far = _scan_conditions(period, scan_step, hi)
    low = [a if a is b else np.minimum(a, b) for a, b in zip(ends, far)]
    high = [a if a is b else np.maximum(a, b) for a, b in zip(ends, far)]
    k = period.comb.window_row
    return _decide(low, high, (low[k] < cs) & (high[k] > cs))


def _window_scan(period: Period, scan_step: float, eps: float, decided) -> tuple:
    """The runs and each run's touches at eps from its window's decisions:
    the open points' condition tuples from values_kernel at the grid points
    scan_step + i*scan_step, bitwise the rows, and the open touch tests by
    _loop_touches."""
    runs, opened, dips, touched = decided
    values = period.values_kernel
    more, dips = [], list(dips)
    for i in opened:
        v = values(scan_step + i * scan_step, eps)
        worst = v[_argmin(v)]
        if worst > 0.0:
            more.append((i, i))
            if worst <= 1e-4:
                dips.append(i)
    if more:
        runs = _joined(runs + more)
        dips.sort()
    touches = []
    for i0, i1 in runs:
        ms = [m for m in dips if i0 < m < i1]
        known = [(m - 1, touched[m]) for m in ms if touched.get(m, -1) >= 0]
        found = _loop_touches(period, scan_step, eps, [m for m in ms if m not in touched])
        touches.append(sorted(known + found) if found else known)
    return runs, touches


def _loop_touches(period: Period, scan_step: float, eps: float, ms) -> list:
    """The touch test of _touch_at on exact values, for domain_scan, which
    keeps no condition row, and for the dips a window leaves open: the
    dips ms inside one run, each with the condition tuples at m - 1, m and
    m + 1 recomputed by values_kernel at the grid points scan_step +
    k*scan_step, bitwise the array scan's rows, once per distinct k."""
    ks = dict.fromkeys(k for m in ms for k in (m - 1, m, m + 1))
    rows = {k: period.values_kernel(scan_step + k * scan_step, eps) for k in ks}
    out = []
    for m in ms:
        before, here, after = rows[m - 1], rows[m], rows[m + 1]
        for j, v in enumerate(here):
            if v <= 1e-4 and v < before[j] and v < after[j]:
                out.append((m - 1, j))
                break
    return out


def feasible_domain(period: Period, scan_step: float = 1e-4, eps: float = 1.0) -> FeasibleDomain:
    """Sign-scan feasibility over (0, 1/2) and refine every boundary.

    Outer boundaries are bisected on the minimum over all conditions and
    labeled with the condition that vanishes there.  Interior punctures,
    where conditions touch zero without changing sign, are found by
    refining each grid minimum once and are named after every condition
    that vanishes there; each puncture splits its feasible interval in
    two, matching the punctured unions printed in the source domains.
    """
    # the scan holds every condition at every grid point: refuse a step
    # below 1e-6 (a peak of about 80 MB for period five, none of it kept:
    # that head is above SCAN_MEMO_CAP) before allocating
    if not 1e-6 <= scan_step <= 1e-2:
        raise ValueError(f"scan_step {scan_step} must lie in [1e-6, 1e-2]")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    n = math.ceil((0.5 - scan_step) / scan_step)
    if _scan_per_point(n * period.p):
        runs, dips = period.domain_scan(scan_step, n, eps)
        touches = [_loop_touches(period, scan_step, eps, [m for m in dips if i0 < m < i1]) for i0, i1 in runs]
    else:
        lo, hi = _window_ends(period, scan_step, eps)
        decided = (_window if lo < hi else _window.__wrapped__)(period, scan_step, lo, hi)
        runs, touches = _window_scan(period, scan_step, eps, decided)
    if not runs:
        raise EmptyDomain(f"no feasible point for {period} at step {scan_step}")

    comb, values = period.comb, period.values_kernel
    intervals = []
    boundaries = []
    punctures = []
    # grid point i is scan_step + i*scan_step, np.arange's, bitwise: arange
    # fills start + i*((start + step) - start), and 2s - s is s exactly
    for (i0, i1), touched in zip(runs, touches):
        lo_in, hi_in = scan_step + i0 * scan_step, scan_step + i1 * scan_step
        lo_out = lo_in - scan_step if i0 > 0 else 0.0
        hi_out = hi_in + scan_step if i1 + 1 < n else 0.5
        lo, lo_name = _bisect_boundary(period, lo_in, lo_out, eps)
        hi, hi_name = _bisect_boundary(period, hi_in, hi_out, eps)
        boundaries.append((lo, lo_name))
        boundaries.append((hi, hi_name))

        # several conditions can vanish at one point: refine each location
        # once, on the one condition that dips there, and name it after
        # every condition that vanishes there
        cut = []
        for k, j in touched:
            x = _refine_touch(values, eps, j, scan_step + k * scan_step, scan_step + (k + 2) * scan_step)
            names = sorted(nm for nm, v in zip(comb.names, values(x, eps)) if v < 1e-10)
            if names:
                cut.append((x, "+".join(names)))
        punctures.extend(cut)

        pts = [lo] + [x for x, _ in cut] + [hi]
        for a, b in zip(pts[:-1], pts[1:]):
            intervals.append((a, b))

    return FeasibleDomain(period, intervals, boundaries, punctures)


_ramp = ()  # 0.0, 1.0, 2.0, ... read-only, grown by _grids on demand


def _grids(intervals, nums):
    """Every interval's np.linspace(lo, hi, num), num its entry in nums,
    bitwise, written into one array.  Each is linspace's own formula,
    arange(num) * ((hi - lo) / (num - 1)) + lo with the last point hi,
    except where that step is 0, which linspace computes another way; the
    arange is the head of _ramp, read-only and kept across calls, which a
    longer grid replaces with one twice its length."""
    global _ramp
    if len(_ramp) < max(nums, default=0):
        _ramp = np.arange(float(2 * max(nums)))
        _ramp.flags.writeable = False
    xs = np.empty(sum(nums))
    for (lo, hi), end, num in zip(intervals, accumulate(nums), nums):
        out = xs[end - num : end]
        step = (hi - lo) / (num - 1)
        if step == 0.0:
            out[:] = np.linspace(lo, hi, num)
        else:
            np.multiply(_ramp[:num], step, out=out)
            out += lo
            out[-1] = hi
    return xs


def _root_brackets(period, eps, intervals, grid) -> list:
    """The sign changes of R(c, eps) - c over intervals, as brackets of
    Python floats: each (lo, hi) sampled at spacing grid on n + 1 points,
    n = max(ceil((hi - lo)/grid), 2), and every interval's grid scanned as
    one, by _scan_per_point's rule.  Per point, the period's root_scan runs
    over the _linspace grids as one list; as arrays, root_kernel runs over
    _grids' one array, and a hit is a step where v > 0 flips and the end
    not above 0 is below 0, root_scan's rule: zeros and NaN, the s2
    guard's, never pair.  One mask, and the few flips read one by one:
    np.sign and products of signs measured slower than the comparisons.
    Either form's hits then pass one junction filter: no step joins the
    last point of one grid and the first of the next."""
    nums = [max(math.ceil((hi - lo) / grid), 2) + 1 for lo, hi in intervals]
    if _scan_per_point(sum(nums) * period.p):
        xs = [x for (lo, hi), num in zip(intervals, nums) for x in _linspace(lo, hi, num)]
        hits = period.root_scan(xs, eps)
    else:
        xs = _grids(intervals, nums)
        v = period.root_kernel(xs, eps)
        hits = [i for i in _flips(v > 0.0) if v[i] < 0.0 or v[i + 1] < 0.0]
    junctions = {end - 1 for end in accumulate(nums[:-1])}
    return [(float(xs[i]), float(xs[i + 1])) for i in hits if i not in junctions]
