"""The domain scan and the root scan against what they replaced: the scan's
condition rows, whose eps-free head and rows are memoized per grid,
against the whole orbit;
the run, dip and sign-change finders against the np.split, matrix-dip and
np.sign formulas they replaced, and the root scan's one-buffer grid
against np.concatenate of np.linspace, kept here verbatim as the
references; feasible_domain, its runs and dips and the root scan
against tests/frozen_scan.py, their frozen form before the eps-free rows,
the in-place fold, the sign products and the eps windows; and the eps
window's decisions against the values between its two ends."""

import math
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frozen_scan
from test_lazy_imports import probe
from renorm import scaling, solver
from renorm.scaling import (
    REFINE_TOL,
    Combinatorics,
    Period,
    _argmin,
    _condition_values,
    _decide,
    _grids,
    _root_brackets,
    _runs,
    _scan_conditions,
    _scan_head,
    _window,
    _window_ends,
    _window_scan,
    _worst,
    feasible_domain,
)
from renorm.solver import SCAN_GRID

BITWISE = settings(settings.get_profile("bitwise"), max_examples=200)
STEPS = (1e-4, 2e-4, 5e-4, 1e-3)


# The formulas the scan replaced, verbatim.
def _split_runs(ok):
    """The maximal runs of ok as np.split of its feasible indices."""
    idx = np.flatnonzero(ok)
    splits = np.flatnonzero(np.diff(idx) > 1)
    return [(int(run[0]), int(run[-1])) for run in np.split(idx, splits + 1)]


def _matrix_touches(cond, i0, i1):
    """The run's dips from the stacked matrix of its condition rows."""
    vals = np.array([row[i0 : i1 + 1] for row in cond])
    mid = vals[:, 1:-1]
    dips = (mid < vals[:, :-2]) & (mid < vals[:, 2:]) & (mid <= 1e-4)
    touch = {}
    for j, t in zip(*np.nonzero(dips)):
        touch.setdefault(i0 + t, j)
    return [(int(k), int(touch[k])) for k in sorted(touch)]


def _linspace_grids(intervals, grid):
    """The grids the root scan wrote into one buffer, as it built them."""
    return [np.linspace(lo, hi, max(int(np.ceil((hi - lo) / grid)), 2) + 1) for lo, hi in intervals]


def _sizes(intervals, grid):
    """The number of points of each of those grids."""
    return [len(x) for x in _linspace_grids(intervals, grid)]


def _scan_roots(g, intervals, grid):
    """_root_brackets on arrays, the form a process with numpy loaded
    runs, with g, which takes the whole grid, as the root kernel."""
    return _root_brackets(SimpleNamespace(p=1, root_kernel=lambda xs, eps: g(xs)), 1.0, intervals, grid)


def _scanned_grids(intervals, grid):
    """The grids _root_brackets hands root_scan per point, a list, and
    root_kernel as arrays, one array."""
    seen = {}

    def root_scan(xs, eps):
        seen["points"] = xs
        return []

    def root_kernel(xs, eps):
        seen["array"] = xs.copy()
        return np.zeros(len(xs))

    period = SimpleNamespace(p=1, root_scan=root_scan, root_kernel=root_kernel)
    with _per_point():
        _root_brackets(period, 1.0, intervals, grid)
    _root_brackets(period, 1.0, intervals, grid)
    return seen["points"], seen["array"]


def _sign_scan(g, intervals, grid):
    """_scan_roots with the hits read off products of np.sign, over the
    concatenated linspace grids."""
    if not intervals:
        return []
    grids = _linspace_grids(intervals, grid)
    xs = np.concatenate(grids)
    signs = np.sign(g(xs))
    pairs = signs[:-1] * signs[1:]
    end = 0
    for xi in grids[:-1]:
        end += len(xi)
        pairs[end - 1] = 0.0
    hits = np.flatnonzero(pairs < 0)
    return list(zip(xs[hits].tolist(), xs[hits + 1].tolist()))


@st.composite
def _scans(draw):
    """(period, step, eps): period three at eps in [0.25, 4] or at 1e300,
    where the orbit overflows after the pull, period five at eps 1."""
    period = draw(st.sampled_from(list(Period)))
    if period is Period.THREE:
        eps = draw(st.one_of(st.floats(0.25, 4.0), st.just(1e300)))
    else:
        eps = 1.0
    return period, draw(st.sampled_from(STEPS)), eps


@BITWISE
@given(_scans())
@example((Period.THREE, 1e-4, 1e300))
def test_the_memoized_scan_is_bitwise_the_whole_orbit(case):
    # the scan's condition rows, -inf and inf where a huge eps overflows,
    # each memoized, read as is or computed afresh, are _condition_values'
    # over the whole orbit on the grid
    period, step, eps = case
    cs = np.arange(step, 0.5, step)
    got_cs, rows = _scan_conditions(period, step, eps)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _condition_values(period, cs, eps)
    assert got_cs.tobytes() == cs.tobytes()
    assert [row.tobytes() for row in rows] == [row.tobytes() for row in want]
    if eps == 1e300:
        assert np.isneginf(rows).any() and np.isposinf(rows).any()


def test_the_scan_reads_the_condition_table_at_call_time():
    # the memo holds orbit points only: rows patched after it is filled
    # still decide the scan's conditions
    period = Period.THREE
    _scan_conditions(period, 1e-4, 1.0)
    comb = Combinatorics(period.comb.cycle)
    comb.__dict__["intervals"] = ((1, 4), (0, 3), (2, -1))
    with mock.patch.object(period, "comb", comb):
        cs, rows = _scan_conditions(period, 1e-4, 1.0)
        assert np.array(rows).tobytes() == np.array(_condition_values(period, cs)).tobytes()
    assert np.array(rows).tobytes() != np.array(_condition_values(period, cs)).tobytes()


def test_the_scan_memo_is_bounded_and_read_only():
    _scan_head.cache_clear()
    for period in Period:
        for step in STEPS:
            feasible_domain(period, step)
    info = _scan_head.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (4, 4, 2 * len(STEPS))
    for period in Period:
        free = period.comb.eps_free
        head = _scan_head(period, 1e-4, free)
        # the grid, 1 - c, u(0) .. u^p(0) and the eps-free condition rows
        assert len(head) == period.p + 2 + len(free)
        assert sum(a.nbytes for a in head) <= 0.4e6
        for a in head:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
    # the pull makes a new array: a scan leaves its head as it was
    free = Period.THREE.comb.eps_free
    before = [a.tobytes() for a in _scan_head(Period.THREE, 1e-4, free)]
    _scan_conditions(Period.THREE, 1e-4, 1.03)
    assert [a.tobytes() for a in _scan_head(Period.THREE, 1e-4, free)] == before


def test_the_scan_memo_keeps_no_head_above_its_cap(monkeypatch):
    # the default steps' heads fit under the cap, the 1e-6 floor's do not;
    # a scan above the cap equals the memoized scan bitwise and keeps nothing
    for period in Period:
        assert sum(a.nbytes for a in _scan_head(period, 1e-4, period.comb.eps_free)) <= scaling.SCAN_MEMO_CAP
        assert (period.p + 2) * 8 * round(0.5 / 1e-6) > scaling.SCAN_MEMO_CAP
    want = {}
    for period in Period:
        for step in STEPS:
            cs, rows = _scan_conditions(period, step, 1.0)
            want[period, step] = [cs.tobytes()] + [row.tobytes() for row in rows]
        want[period] = feasible_domain(period, 2e-4)
    _scan_head.cache_clear()
    monkeypatch.setattr(scaling, "SCAN_MEMO_CAP", 0)
    for period in Period:
        for step in STEPS:
            cs, rows = _scan_conditions(period, step, 1.0)
            got = [cs.tobytes()] + [row.tobytes() for row in rows]
            assert got == want[period, step]
        assert repr(feasible_domain(period, 2e-4)) == repr(want[period])
    assert _scan_head.cache_info().currsize == 0


def _scan_case(rows):
    """The condition rows, their worst and the mask of feasible points."""
    cond = [np.array(row, dtype=float) for row in rows]
    worst = cond[0]
    for row in cond[1:]:
        worst = np.minimum(worst, row)
    return cond, worst, worst > 0.0


def _table_period(rows, step=1e-2):
    """A stand-in period whose values_kernel reads the condition tuples of
    the rows at the grid points step + k*step."""
    table = {step + k * step: point for k, point in enumerate(zip(*(np.asarray(row).tolist() for row in rows)))}
    return SimpleNamespace(values_kernel=lambda c, eps: table[c])


def _window_of(low, high, rows, cross=None):
    """The runs and each run's touches (_window_scan) that the ranges low
    and high decide, the open points and tests read from rows, which lie
    between them: a scan has two conditions or more, and a single row
    stands twice, which moves no run, dip or touch."""
    if len(rows) == 1:
        low, high, rows = low * 2, high * 2, rows * 2
    return _window_scan(_table_period(rows), 1e-2, 1.0, _decide(low, high, cross))


def _degenerate(cond):
    """The runs and touches of the degenerate window over the rows cond."""
    return _window_of(cond, cond, cond)


def _assert_scan_matches(rows):
    cond, worst, ok = _scan_case(rows)
    runs, touches = _degenerate(cond)
    assert runs == _runs(ok)
    if not ok.any():
        assert runs == []
        return
    assert runs == _split_runs(ok)
    assert touches == [_matrix_touches(cond, i0, i1) for i0, i1 in runs]


D = 5e-5  # a dip: at or below the 1e-4 touch threshold
CRAFTED = {
    # conditions 0 and 1 both dip at index 2: the first one names it
    "two conditions dip at one index": [[1.0, 0.5, D, 0.5, 1.0], [1.0, 0.5, D / 2, 0.5, 1.0]],
    # condition 0 is below 1e-4 there but not a strict minimum, 1 dips
    "the second condition dips": [[1.0, D, D, D, 1.0], [1.0, 0.5, D, 0.5, 1.0]],
    "flat minimum with an equal neighbour": [[1.0, 0.5, D, D, 0.5, 1.0]],
    "a minimum above the threshold": [[1.0, 0.5, 2e-4, 0.5, 1.0]],
    "the threshold itself": [[1.0, 0.5, 1e-4, 0.5, 1.0], [1.0, 0.5, 1.0000000000000002e-4, 0.5, 1.0]],
    "dip at the run's first interior point": [[-1.0, 0.5, D, 0.5, 0.7, 1.0, -1.0]],
    "dip at the run's last interior point": [[-1.0, 1.0, 0.7, 0.5, D, 0.5, -1.0]],
    "dips at both ends of a three-point run": [[-1.0, 0.5, D, 0.5, -1.0, 0.5, D, 0.5, -1.0]],
    "runs touching both ends of the grid": [[0.5, D, 0.5, -1.0, 0.5, D, 0.5]],
    "one-point and two-point runs": [[0.5, -1.0, D, 0.5, 0.0, -0.0, 1.0, math.nan, 0.5]],
    "NaN in another condition ends a run": [[0.5, 0.4, D, 0.4, 0.5, 0.4, D, 0.4], [1.0, 1.0, 1.0, math.nan, 1.0, 1.0, 1.0, 1.0]],
    "no feasible point": [[0.0, -1.0, math.nan, -0.0]],
    "every point feasible": [[1.0, D, 1.0, D / 2, 1.0]],
    "a single grid point": [[D]],
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_runs_and_dips_match_the_formulas_they_replaced(name):
    _assert_scan_matches(CRAFTED[name])


def test_crafted_rows_find_touches():
    # the crafted rows are not vacuous: each named dip is found
    cond, _, _ = _scan_case(CRAFTED["two conditions dip at one index"])
    assert _degenerate(cond) == ([(0, 4)], [[(1, 0)]])
    cond, _, _ = _scan_case(CRAFTED["the second condition dips"])
    assert _degenerate(cond) == ([(0, 4)], [[(1, 1)]])
    cond, _, _ = _scan_case(CRAFTED["dips at both ends of a three-point run"])
    assert _degenerate(cond) == ([(1, 3), (5, 7)], [[(1, 0)], [(5, 0)]])
    cond, _, ok = _scan_case(CRAFTED["runs touching both ends of the grid"])
    assert _runs(ok) == [(0, 2), (4, 6)]


# values that collide: equal neighbours, the threshold, zeros, NaN
_VALUES = st.sampled_from([-1.0, 0.0, -0.0, 1e-5, 5e-5, 1e-4, 1.0000000000000002e-4, 3e-4, 0.5, math.nan])


@BITWISE
@given(st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 24).flatmap(
        lambda m: st.lists(st.lists(_VALUES, min_size=m, max_size=m), min_size=n, max_size=n))))
def test_runs_and_dips_match_on_any_rows(rows):
    _assert_scan_matches(rows)


def _constant_scan(values, intervals, grid):
    """Both scans of a g that returns values whatever the grid."""
    g = lambda xs: np.array(values[: len(xs)], dtype=float)  # noqa: E731
    return _scan_roots(g, intervals, grid), _sign_scan(g, intervals, grid)


# three grids of 5 points each: junctions after the 5th and the 10th value
GRIDS = ([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)], 0.25)
_G_VALUES = st.sampled_from([1.0, -1.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300])


@pytest.mark.parametrize("values, hits", [
    # a sign change across each junction never pairs
    ([1.0] * 5 + [-1.0] * 5 + [1.0] * 5, 0),
    # zeros of either sign and NaN never pair, infinities do
    ([1.0, 0.0, -1.0, -0.0, 1.0, math.nan, -1.0, math.inf, -math.inf, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0], 7),
    ([-1e-300, 1e-300, -0.0, 0.0, math.nan] * 3, 3),
])
def test_root_scan_matches_the_sign_products(values, hits):
    new, ref = _constant_scan(values, *GRIDS)
    assert new == ref
    assert len(new) == hits


@BITWISE
@given(st.lists(_G_VALUES, min_size=15, max_size=15))
def test_root_scan_matches_the_sign_products_on_any_values(values):
    new, ref = _constant_scan(values, *GRIDS)
    assert new == ref


# an interval: an end in (0, 1/2), then a width that may be 0, below the
# two-point minimum 2 * grid, below the denormal floor, or negative, as
# padding makes it when an interval is narrower than the pad
_ENDS = st.floats(1e-6, 0.5)
_WIDTHS = st.one_of(
    st.just(0.0), st.just(5e-324), st.floats(-4e-12, 4e-12), st.floats(0.0, 2e-5), st.floats(0.0, 0.05))
_INTERVALS = st.lists(st.tuples(_ENDS, _WIDTHS).map(lambda t: (t[0], t[0] + t[1])), min_size=1, max_size=4)


@BITWISE
@given(_INTERVALS, st.sampled_from([SCAN_GRID, 1e-3, 0.25]))
@example([(0.3, 0.3)], SCAN_GRID)
@example([(0.3, 0.3 + 5e-324), (0.4, 0.4 - 1e-12)], SCAN_GRID)
@example([(0.38, 0.4301597082504439), (0.4301597082504439, 0.472972319464758)], SCAN_GRID)
@example([(0.012723905050869407, 0.039794528690544236)], SCAN_GRID)  # the ramp's last point is not hi
def test_the_one_buffer_grid_is_bitwise_the_concatenated_linspaces(intervals, grid):
    grids = _linspace_grids(intervals, grid)
    xs = _grids(intervals, _sizes(intervals, grid))
    assert xs.tobytes() == np.concatenate(grids).tobytes()
    assert _scanned_grids(intervals, grid)[1].tobytes() == xs.tobytes()


def test_the_grids_share_one_read_only_ramp(monkeypatch):
    # a grid no longer than the ramp reads its head; a longer one replaces
    # it with one twice its length; every grid stays linspace's, bitwise
    monkeypatch.setattr(scaling, "_ramp", ())
    short, long = [(0.1, 0.2)], [(0.1, 0.2), (0.2, 0.5)]
    _grids(short, _sizes(short, 1e-3))
    ramp = scaling._ramp
    assert ramp.tolist() == [float(k) for k in range(2 * max(_sizes(short, 1e-3)))]
    assert not ramp.flags.writeable
    xs = _grids(short[:1], _sizes(short[:1], 2e-3))
    assert scaling._ramp is ramp and xs.tobytes() == np.concatenate(_linspace_grids(short, 2e-3)).tobytes()
    xs = _grids(long, _sizes(long, 1e-3))
    assert len(scaling._ramp) == 2 * max(_sizes(long, 1e-3)) > len(ramp)
    assert xs.tobytes() == np.concatenate(_linspace_grids(long, 1e-3)).tobytes()


def test_the_denormal_branch_is_reached():
    # a width of one denormal over two steps rounds the step to 0, where
    # linspace divides the ramp before multiplying
    assert (5e-324 / 2) == 0.0
    xs = _grids([(0.0, 5e-324)], _sizes([(0.0, 5e-324)], SCAN_GRID))
    assert xs.tolist() == [0.0, 0.0, 5e-324]


# floats that collide under min: ties, zeros of either sign, NaN, infinities
_ARGS = st.lists(st.sampled_from([-1.0, 0.0, -0.0, 1e-12, 0.5, math.nan, math.inf, -math.inf]), min_size=1, max_size=7)


@BITWISE
@given(_ARGS)
@example([0.1, math.nan, 0.6, 0.1, math.nan])
def test_argmin_is_numpys(values):
    assert _argmin(tuple(values)) == int(np.argmin(values))


# The lean scan against its frozen form (tests/frozen_scan.py).
MEMO_ABOVE_CAP = 2e-5  # a step whose memo exceeds SCAN_MEMO_CAP for both periods
EPS_FREE = {Period.THREE: ((-1, 2),), Period.FIVE: ((-1, 4), (4, 2))}  # S3; S5 and Gr3


def _memo_bytes(period, step):
    points = math.ceil((0.5 - step) / step)
    return (period.p + 2 + len(period.comb.eps_free)) * 8 * points


def _domain_or_error(feasible_domain, period, step, eps):
    """The domain's every float as float.hex, with its names, or the type
    and message of what it raised."""
    try:
        fd = feasible_domain(period, step, eps)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return (fd.period, [(a.hex(), b.hex()) for a, b in fd.intervals],
            [(c.hex(), name) for c, name in fd.boundaries], [(c.hex(), name) for c, name in fd.punctures])


@st.composite
def _frozen_scans(draw):
    """(period, step, eps) as _scans draws them, at the steps 1e-4, 2e-4
    and 1e-3 or at one whose memo is above the cap."""
    period, _, eps = draw(_scans())
    return period, draw(st.sampled_from([1e-4, 2e-4, 1e-3, MEMO_ABOVE_CAP])), eps


@BITWISE
@given(_frozen_scans())
@example((Period.THREE, 1e-4, 1e300))
@example((Period.THREE, MEMO_ABOVE_CAP, 0.25))
@example((Period.FIVE, MEMO_ABOVE_CAP, 1.0))
def test_feasible_domain_is_the_frozen_scan(case):
    period, step, eps = case
    got = _domain_or_error(feasible_domain, period, step, eps)
    assert got == _domain_or_error(frozen_scan.feasible_domain, period, step, eps)
    if eps == 1e300:
        assert got[0] is scaling.EmptyDomain


def test_the_frozen_scan_is_compared_above_the_memo_cap():
    for period in Period:
        assert _memo_bytes(period, MEMO_ABOVE_CAP) > scaling.SCAN_MEMO_CAP
        assert all(_memo_bytes(period, step) <= scaling.SCAN_MEMO_CAP for step in STEPS)


# The eps window: an array scan at eps reads the decisions of the window
# [jW, (j + 1)W] that holds it, W = EPS_WINDOW, made from the condition rows
# at its two ends (scaling._window).
W = scaling.EPS_WINDOW
WINDOW_END = 128 * W  # 1.0


@settings(BITWISE, max_examples=100)
@given(st.tuples(st.just(Period.THREE), st.sampled_from([1e-4, 2e-4, 1e-3]), st.floats(0.25, 4.0)))
@example((Period.THREE, 1e-4, WINDOW_END))
@example((Period.THREE, 1e-4, math.nextafter(WINDOW_END, 0.0)))
@example((Period.THREE, 1e-4, math.nextafter(WINDOW_END, 2.0)))
@example((Period.THREE, 1e-4, W / 2))
@example((Period.THREE, 1e-4, 1e300))
@example((Period.THREE, 2e-4, 1.02))
@example((Period.THREE, MEMO_ABOVE_CAP, 1.02))
def test_the_windowed_domain_is_the_per_point_and_the_frozen_domain(case):
    # bitwise, exceptions included: the array domain, read off the window
    # that holds eps, the per-point loop's and the frozen dense scan's
    got, per_point = _per_point_scan(case)
    assert got == per_point == _domain_or_error(frozen_scan.feasible_domain, *case)


def test_the_window_ends_hold_eps():
    # [jW, (j + 1)W] for period three at a memoized step, eps at an end or
    # a float either side of it, and up to 1e300, where (j + 1)W rounds to
    # jW; the degenerate [eps, eps] below W, for period five and above the
    # memo cap
    three = Period.THREE
    assert _window_ends(three, 1e-4, WINDOW_END) == (WINDOW_END, WINDOW_END + W)
    assert _window_ends(three, 1e-4, math.nextafter(WINDOW_END, 0.0)) == (WINDOW_END - W, WINDOW_END)
    assert _window_ends(three, 1e-4, math.nextafter(WINDOW_END, 2.0)) == (WINDOW_END, WINDOW_END + W)
    assert _window_ends(three, 1e-3, 3.99) == (3.984375, 3.9921875)
    assert _window_ends(three, 1e-4, 1e300) == (1e300, 1e300)
    for eps in (W / 2, 0.0, -1.0):
        assert _window_ends(three, 1e-4, eps) == (eps, eps)
    assert _window_ends(three, MEMO_ABOVE_CAP, 1.02) == (1.02, 1.02)
    assert _window_ends(Period.FIVE, 1e-4, 1.0) == (1.0, 1.0)
    assert (three.comb.window_row, Period.FIVE.comb.window_row) == (0, None)


def _window_rows(step, lo, hi):
    """The grid, the lower and upper ends of each condition's range over the
    window [lo, hi] and the points where x3 - c, and with it t = (x3 -
    c)/d, changes sign from one end to the other."""
    cs, a = _scan_conditions(Period.THREE, step, lo)
    _, b = _scan_conditions(Period.THREE, step, hi)
    low, high = np.minimum(a, b), np.maximum(a, b)
    return cs, low, high, (low[0] < cs) & (high[0] > cs)


@pytest.mark.parametrize("j", [123, 128, 132, 40, 320, 500])
def test_the_ends_of_a_window_bound_every_value_it_decides(j):
    # the lemma: at seeded eps inside the window, each condition's
    # values_kernel value at every grid point where t keeps one sign lies
    # between its values at the two ends
    step, lo = 1e-4, j * W
    cs, low, high, cross = _window_rows(step, lo, lo + W)
    rng = np.random.default_rng(j)
    keep = np.flatnonzero(~cross)
    assert len(keep) > 0.98 * len(cs)
    for eps in lo + W * rng.uniform(0.0, 1.0, 3):
        values = np.array([Period.THREE.values_kernel(float(c), eps) for c in cs[keep]]).T
        assert ((low[:, keep] <= values) & (values <= high[:, keep])).all()


def test_a_window_leaves_open_a_point_where_t_changes_sign():
    # the negative control of the t-sign test: in the window [1, 1 + W],
    # x3 = eps*u^3(0) passes c at grid point 3847 (c = 0.3848), so t*t falls
    # to 0 inside the window and x4 = 1 - t*t rises above both ends' x4:
    # S2 = x4 - x1 and Gr = x2 - x4 leave the ends' range; the window
    # leaves the point open, where a test without the sign rule would read
    # its ranges as bounds
    step, i = 1e-4, 3847
    cs, low, high, cross = _window_rows(step, WINDOW_END, WINDOW_END + W)
    c = float(cs[i])
    eps = c / Period.THREE.orbit(c)[3]  # t = 0 at about this eps
    assert WINDOW_END < eps < WINDOW_END + W and cross[i]
    mid = Period.THREE.values_kernel(c, eps)
    outside = [name for name, v, a, z in zip(Period.THREE.comb.names, mid, low[:, i], high[:, i]) if not a <= v <= z]
    assert outside == ["S2", "Gr"]
    _, opened, dips, touched = _window(Period.THREE, step, WINDOW_END, WINDOW_END + W)
    assert i in opened and i not in dips and i not in touched
    # the same point at eps 1 is decided: both ends are eps = 1
    _, opened, _, _ = _window.__wrapped__(Period.THREE, step, WINDOW_END, WINDOW_END)
    assert opened == []


def test_the_window_memo_is_bounded_over_an_eps_sweep():
    # sixteen windows at most, of decisions only, no condition row; a step
    # whose scan head is above the memo cap keeps no window
    _window.cache_clear()
    for eps in np.linspace(0.3, 3.9, 500).tolist() + np.linspace(0.96, 1.04, 100).tolist():
        feasible_domain(Period.THREE, 1e-4, eps)
        assert _window.cache_info().currsize <= 16
    info = _window.cache_info()
    assert (info.maxsize, info.currsize) == (16, 16) and info.hits >= 80
    feasible_domain(Period.THREE, MEMO_ABOVE_CAP, 1.02)
    assert _window.cache_info().currsize == 16 and _window.cache_info().misses == info.misses


def _is_plain(value) -> bool:
    """Whether value is built of tuples, lists, dicts and ints alone."""
    if isinstance(value, (tuple, list)):
        return all(_is_plain(v) for v in value)
    if isinstance(value, dict):
        return all(_is_plain(k) and _is_plain(v) for k, v in value.items())
    return type(value) is int


def test_a_window_keeps_decisions_not_rows():
    decided = _window(Period.THREE, 1e-4, WINDOW_END, WINDOW_END + W)
    assert _is_plain(decided) and len(decided[1]) < 20


@BITWISE
@given(st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 24).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.tuples(_VALUES, _VALUES, st.sampled_from([0.0, 0.5, 1.0]), _VALUES),
                              min_size=m, max_size=m), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=m, max_size=m)))))
def test_a_window_decides_as_any_values_between_its_ends(case):
    # on any two ends a and z of each condition's rows, and any values v
    # between them, a, z or their mean, or anything at a point the mask
    # cross marks: the runs and touches the window decides, reading v
    # where it leaves a point or a test open, are the dense scan's of v
    rows, cross = case
    a = [np.array([e[0] for e in row]) for row in rows]
    z = [np.array([e[1] for e in row]) for row in rows]
    v = [np.array([x if bent else (s, 0.5 * s + 0.5 * t, t)[int(2 * w)] for (s, t, w, x), bent in zip(row, cross)])
         for row in rows]
    low, high = [np.minimum(s, t) for s, t in zip(a, z)], [np.maximum(s, t) for s, t in zip(a, z)]
    worst = frozen_scan._fold(v)
    runs = frozen_scan._runs(worst > 0.0)
    want = runs, [frozen_scan._touches(v, worst, i0, i1) for i0, i1 in runs]
    assert _window_of(low, high, v, np.array(cross)) == want


@pytest.mark.parametrize("period", list(Period))
def test_the_eps_free_rows_are_read_only_memoized_subtractions(period):
    # the conditions no pulled point enters are memoized beside the head,
    # read-only, bitwise the subtraction at any eps; every other row is new,
    # and a memo above the cap is computed for its scan and not kept
    free = period.comb.eps_free
    assert free == EPS_FREE[period]
    eps = 1.03 if period is Period.THREE else 1.0
    _scan_head.cache_clear()
    for step in (*STEPS, MEMO_ABOVE_CAP):
        cs, rows = _scan_conditions(period, step, eps)
        o = period.orbit(cs, eps)
        for (i, j), row in zip(period.comb.pairs, rows):
            assert row.flags.writeable is ((i, j) not in free)
            assert row.tobytes() == (o[i] - o[j]).tobytes()
    info = _scan_head.cache_info()
    assert (info.misses, info.currsize) == (len(STEPS), len(STEPS))
    _scan_head.cache_clear()
    _scan_conditions(period, MEMO_ABOVE_CAP, eps)
    assert _scan_head.cache_info().currsize == 0


MASKS = {
    "runs at both grid ends": [1, 1, 0, 0, 1],
    "single points": [1, 0, 1, 0, 1],
    "a single interior point": [0, 0, 1, 0],
    "all True": [1] * 6,
    "all False": [0] * 6,
    "a one-point grid, True": [1],
    "a one-point grid, False": [0],
}


@pytest.mark.parametrize("name", sorted(MASKS))
def test_runs_are_the_frozen_padded_form(name):
    ok = np.array(MASKS[name], dtype=bool)
    assert _runs(ok) == frozen_scan._runs(ok)


@BITWISE
@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_runs_are_the_frozen_padded_form_on_any_mask(mask):
    ok = np.array(mask, dtype=bool)
    assert _runs(ok) == frozen_scan._runs(ok)


@BITWISE
@given(st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 24).flatmap(
        lambda m: st.lists(st.lists(_VALUES, min_size=m, max_size=m), min_size=n, max_size=n))))
def test_worst_runs_and_dips_are_the_frozen_ones_on_any_rows(rows):
    cond = [np.array(row, dtype=float) for row in rows]
    worst = frozen_scan._fold(cond)
    if len(cond) > 1:  # the scan has two conditions or more
        assert _worst(cond).tobytes() == worst.tobytes()
    ok = worst > 0.0
    assert _runs(ok) == frozen_scan._runs(ok)
    runs, touches = _degenerate(cond)
    assert runs == frozen_scan._runs(ok)
    assert touches == [frozen_scan._touches(cond, worst, i0, i1) for i0, i1 in runs]


@BITWISE
@given(st.lists(_G_VALUES, min_size=15, max_size=15))
def test_root_scan_is_the_frozen_scan_on_any_values(values):
    g = lambda xs: np.array(values[: len(xs)], dtype=float)  # noqa: E731
    assert _scan_roots(g, *GRIDS) == frozen_scan._scan_roots(g, *GRIDS)


@BITWISE
@given(st.one_of(st.tuples(st.just(Period.THREE), st.floats(0.25, 4.0)), st.just((Period.FIVE, 1.0))))
@example((Period.THREE, 1.0))
def test_root_scan_is_the_frozen_scan_on_the_solver_grids(case):
    # the solver's padded domain intervals and root kernel, NaN at the pole
    period, eps = case
    try:
        domain = feasible_domain(period, eps=eps)
    except scaling.EmptyDomain:
        return
    pad = 2.0 * REFINE_TOL
    intervals = [(lo + pad, hi - pad) for lo, hi in domain.intervals]
    g = lambda xs: period.root_kernel(xs, eps)  # noqa: E731
    assert _scan_roots(g, intervals, SCAN_GRID) == frozen_scan._scan_roots(g, intervals, SCAN_GRID)


# The per-point scans against the array scans: scaling._scan_per_point, the
# rule both scans ask, patched to have every scan run per point, in its
# period's loop, domain_scan or root_scan.
PER_POINT_STEPS = (*STEPS, MEMO_ABOVE_CAP)


def _per_point():
    return mock.patch.object(scaling, "_scan_per_point", lambda work: True)


def _per_point_scan(case):
    """The per-point domain, with _scan_conditions refused so that the
    array scan cannot stand in for it, and the array domain."""
    period, step, eps = case
    with _per_point(), mock.patch.object(scaling, "_scan_conditions", side_effect=AssertionError("array scan")):
        got = _domain_or_error(feasible_domain, period, step, eps)
    return got, _domain_or_error(feasible_domain, period, step, eps)


@settings(BITWISE, max_examples=60)
@given(_scans().flatmap(lambda case: st.sampled_from(PER_POINT_STEPS).map(lambda s: (case[0], s, case[2]))))
@example((Period.THREE, 1e-4, 1.0))
@example((Period.FIVE, 1e-4, 1.0))
@example((Period.THREE, 1e-4, 1e300))
@example((Period.THREE, MEMO_ABOVE_CAP, 0.25))
@example((Period.FIVE, MEMO_ABOVE_CAP, 1.0))
def test_the_per_point_domain_is_the_array_domain(case):
    # bitwise, exceptions included; the empty domain at eps 1e300 too
    got, want = _per_point_scan(case)
    assert got == want
    if case[2] == 1e300:
        assert got[0] is scaling.EmptyDomain


def _array_runs_and_dips(period, step, eps):
    """The array scan's condition rows, the runs of their worst fold, and
    its feasible points at or below 1e-4: what domain_scan returns."""
    _, rows = _scan_conditions(period, step, eps)
    worst = _worst(rows)
    ok = worst > 0.0
    return rows, _runs(ok), np.flatnonzero(ok & (worst <= 1e-4)).tolist()


def _padded(domain):
    """The solver's root-scan intervals over a feasible domain."""
    pad = 2.0 * REFINE_TOL
    return [(lo + pad, hi - pad) for lo, hi in domain.intervals]


@pytest.mark.parametrize("eps", [1.0, 0.25, 1.03, 4.0, 1e300])
@pytest.mark.parametrize("step", [1e-4, MEMO_ABOVE_CAP])
def test_the_per_point_rows_and_worst_are_the_arrays(step, eps):
    # the loop's runs and dips are the array fold's, none where a huge eps
    # overflows; the rows _loop_touches recomputes, values_kernel at a grid
    # point, are the array rows bitwise, -inf and inf at eps 1e300 too
    rows, runs, dips = _array_runs_and_dips(Period.THREE, step, eps)
    n = len(rows[0])
    assert Period.THREE.domain_scan(step, n, eps) == (runs, dips)
    points = [Period.THREE.values_kernel(step + i * step, eps) for i in range(n)]
    assert np.array(points).T.tobytes() == np.array(rows).tobytes()
    if eps == 1e300:
        assert runs == [] and np.isneginf(points).any() and np.isposinf(points).any()


def _table_loops(period, table):
    """period's generated functions compiled with an orbit read from table,
    each grid point's x1 .. x{2p-2}: the loops' conditions, fold and hit
    rule on any orbit."""
    points = ", ".join(f"x{k}" for k in range(1, 2 * period.p - 1))
    orbit = f"        {points} = table[c]\n"
    namespace = {}
    src = scaling._kernel_source(period, orbit, orbit)
    exec(compile(src, "<table>", "exec"), {**vars(scaling), "table": table}, namespace)
    return dict(zip(scaling._GENERATED, namespace[f"_kernels{period.p}"](period)))


# orbit points that collide: ties, zeros of either sign, the dip threshold
# and the floats either side of it, S2_FLOOR, NaN and infinities
_POINTS = st.sampled_from([-1.0, 0.0, -0.0, 5e-5, 1e-4, 1.0000000000000002e-4, 9.999999999999999e-05,
                           scaling.S2_FLOOR, 0.3, 0.7, 1.0, math.nan, math.inf, -math.inf])
# a feasible orbit x1 .. x{2p-2} per period, every condition above 1e-4
_FEASIBLE = {Period.THREE: (0.3, 0.7, 0.2, 0.5),
             Period.FIVE: (0.617, 0.856, 0.413, 0.998, 0.008, 0.633, 0.835, 0.462)}


def _orbits(period):
    """49 orbits: each point the feasible orbit's or any of _POINTS."""
    point = st.tuples(*[st.one_of(st.just(x), _POINTS) for x in _FEASIBLE[period]])
    return st.tuples(st.just(period), st.lists(point, min_size=49, max_size=49))


@settings(BITWISE, max_examples=100)
@given(st.sampled_from(list(Period)).flatmap(_orbits))
@example((Period.THREE, [(0.3, 0.7, x3, 0.5) for x3 in [0.2, 1e-4, 0.2, 9.999999999999999e-05, 0.2] * 9 + [0.2] * 4]))
def test_the_per_point_worst_folds_as_np_minimum(case):
    # on any orbit: the loop's runs and dips are those of np.minimum's fold
    # of the condition rows, a NaN first, as the array scan computes them
    period, orbits = case
    step = 1e-2  # a grid of 49 points
    loops = _table_loops(period, {step + i * step: orbit for i, orbit in enumerate(orbits)})
    o = [np.zeros(49), *(np.array(x) for x in zip(*orbits)), np.ones(49)]  # x0 .. x{2p-2}, then ONE
    with np.errstate(invalid="ignore"):
        worst = frozen_scan._fold([o[i] - o[j] for i, j in period.comb.pairs])
    ok = worst > 0.0
    want = frozen_scan._runs(ok), np.flatnonzero(ok & (worst <= 1e-4)).tolist()
    assert loops["domain_scan"](step, 49, 1.0) == want


@BITWISE
@given(st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 24).flatmap(
        lambda m: st.lists(st.lists(_VALUES, min_size=m, max_size=m), min_size=n, max_size=n))))
def test_the_finders_take_per_point_lists(rows):
    # _loop_touches, which reads each point's condition tuple from
    # values_kernel, finds the touches the array rows' frozen test finds
    cond = [np.array(row, dtype=float) for row in rows]
    worst = frozen_scan._fold(cond)
    step = 1e-2
    table = {step + k * step: point for k, point in enumerate(zip(*rows))}
    with mock.patch.object(Period.FIVE, "values_kernel", lambda c, eps: table[c]):
        for i0, i1 in _runs(worst > 0.0):
            ms = [m for m in range(i0 + 1, i1) if worst[m] <= 1e-4]
            assert scaling._loop_touches(Period.FIVE, step, 1.0, ms) == frozen_scan._touches(cond, worst, i0, i1)


@pytest.mark.parametrize("period, dips, points", [(Period.THREE, 20, 22), (Period.FIVE, 10, 12)])
def test_the_per_point_touches_read_each_grid_point_once(period, dips, points):
    # at eps 1 and the default step, the dips of every run and the grid
    # points at m - 1, m and m + 1 about them, each read by one kernel call
    step = 1e-4
    n = math.ceil((0.5 - step) / step)
    runs, found = period.domain_scan(step, n, 1.0)
    calls = []
    real = period.values_kernel
    with mock.patch.object(period, "values_kernel", lambda c, eps: calls.append(c) or real(c, eps)):
        for i0, i1 in runs:
            ms = [m for m in found if i0 < m < i1]
            scaling._loop_touches(period, step, 1.0, ms)
            assert len(calls) == len(set(calls)) == len({k for m in ms for k in (m - 1, m, m + 1)})
            dips -= len(ms)
            points -= len(calls)
            del calls[:]
    assert dips == points == 0


@BITWISE
@given(_INTERVALS, st.sampled_from([SCAN_GRID, 1e-3, 0.25]))
@example([(0.3, 0.3 + 5e-324), (0.4, 0.4 - 1e-12)], SCAN_GRID)
@example([(0.012723905050869407, 0.039794528690544236)], SCAN_GRID)
def test_the_per_point_grid_is_the_array_grid(intervals, grid):
    # root_scan's grid, every interval's _linspace as one list, is _grids'
    # one array, and holds each reference grid's points
    pieces, xs = _scanned_grids(intervals, grid)
    assert np.array(pieces).tobytes() == xs.tobytes()
    assert len(pieces) == sum(_sizes(intervals, grid))


@BITWISE
@given(st.lists(st.tuples(_POINTS, _POINTS), min_size=15, max_size=15))
@example([(0.5, 0.5)] * 5 + [(1.0, -1.0)] * 5 + [(-1.0, 1.0)] * 5)
@example([(1.0, 0.0), (scaling.S2_FLOOR, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)] * 3)  # s2 at the floor
def test_the_per_point_root_scan_is_the_array_scan_on_any_values(ends):
    # on any ends of the central interval, ties, NaN and infinities among
    # them, over three grids of five points: root_scan's hits are
    # _scan_roots' over R(c) - c computed as root_kernel computes it, NaN
    # where s2 is at or below S2_FLOOR; the two forms of _root_brackets
    grids = [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    xs = [x for lo, hi in grids for x in scaling._linspace(lo, hi, 5)]
    table = {c: (b, 0.5, 0.5, t) for c, (t, b) in zip(xs, ends)}  # p = 3: I2 = (x1, x4)
    top, bottom = (np.array(x) for x in zip(*ends))

    def root_kernel(c, eps):
        with np.errstate(invalid="ignore", over="ignore"):
            s2 = top - bottom
            s2[s2 <= scaling.S2_FLOOR] = np.nan
            return (top - c) / s2 - c

    period = SimpleNamespace(p=3, root_scan=_table_loops(Period.THREE, table)["root_scan"], root_kernel=root_kernel)
    with _per_point():
        got = _root_brackets(period, 1.0, grids, 0.25)
    assert got == _root_brackets(period, 1.0, grids, 0.25) == _scan_roots(lambda c: root_kernel(c, 1.0), grids, 0.25)


@pytest.mark.parametrize("per_point", [True, False])
def test_no_bracket_joins_two_grids(per_point):
    # in either form: R(c) - c changes sign from the last point of one
    # grid to the first of the next, across c*, which no step of a grid
    # brackets; over one interval across c*, the one bracket holds it
    period = Period.THREE
    c = solver.solve_fixed_point(period).c_star
    g = lambda x: period.r_kernel(x, 1.0) - x  # noqa: E731
    assert g(c - 1e-5) < 0.0 < g(c + 1e-5)
    with mock.patch.object(scaling, "_scan_per_point", lambda work: per_point):
        assert _root_brackets(period, 1.0, [(c - 1e-3, c - 1e-5), (c + 1e-5, c + 1e-3)], SCAN_GRID) == []
        (lo, hi), = _root_brackets(period, 1.0, [(c - 1e-3, c + 1e-3)], SCAN_GRID)
    assert lo < c < hi


def _solve_or_error(period, eps):
    try:
        return repr(solver._solve(period, eps, None, solver.POLISH_TOL))
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


@settings(BITWISE, max_examples=60)
@given(st.one_of(st.tuples(st.just(Period.THREE), st.floats(0.25, 4.0)), st.just((Period.FIVE, 1.0))))
@example((Period.THREE, 1.0))
@example((Period.THREE, 0.25))
def test_the_per_point_root_scan_is_the_root_kernel(case):
    # on the solver's grids: root_scan's brackets are root_kernel's, and the
    # solve is the array solve, exceptions included
    period, eps = case
    try:
        intervals = _padded(feasible_domain(period, eps=eps))
    except scaling.EmptyDomain:
        intervals = None
    if intervals is not None:
        with _per_point():
            got = _root_brackets(period, eps, intervals, SCAN_GRID)
        assert got == _scan_roots(lambda xs: period.root_kernel(xs, eps), intervals, SCAN_GRID)
    with _per_point(), mock.patch.object(period, "root_kernel", side_effect=AssertionError("array scan")):
        got = _solve_or_error(period, eps)
    assert got == _solve_or_error(period, eps)


@st.composite
def _loop_cases(draw):
    """(period, step, eps): any step the domain scan takes, log-uniform in
    [1e-6, 1e-2], period three at eps in [0.3, 3] or at 1e300, period five
    at eps 1."""
    period = draw(st.sampled_from(list(Period)))
    eps = draw(st.one_of(st.floats(0.3, 3.0), st.just(1e300))) if period is Period.THREE else 1.0
    return period, min(max(10.0 ** draw(st.floats(-6.0, -2.0)), 1e-6), 1e-2), eps


@settings(BITWISE, max_examples=20)
@given(_loop_cases())
@example((Period.THREE, 1e-6, 1.0))
@example((Period.FIVE, 1e-6, 1.0))
@example((Period.THREE, 1e-2, 1e300))
def test_the_loops_are_bitwise_the_array_scans(case):
    # domain_scan's runs and dips, the per-point domain and root_scan's
    # brackets, over the domain or, where it is empty, over (step, 1/2 -
    # step), are the array scans', exceptions included; root_kernel
    # overflows quietly, as the loop does, only off a feasible domain
    period, step, eps = case
    rows, runs, dips = _array_runs_and_dips(period, step, eps)
    assert period.domain_scan(step, len(rows[0]), eps) == (runs, dips)
    with _per_point():
        got = _domain_or_error(feasible_domain, period, step, eps)
    try:
        domain = feasible_domain(period, step, eps)
    except scaling.EmptyDomain as exc:
        assert got == (scaling.EmptyDomain, str(exc))
        intervals = [(step, 0.5 - step)]
    else:
        assert got == _domain_or_error(lambda *case: domain, *case)
        intervals = _padded(domain)
    with _per_point():
        got = _root_brackets(period, eps, intervals, SCAN_GRID)
    with np.errstate(over="ignore", invalid="ignore"):
        assert got == _scan_roots(lambda xs: period.root_kernel(xs, eps), intervals, SCAN_GRID)


def test_the_loop_test_kills_a_condition_dropped_from_an_early_block(monkeypatch):
    # the mutant: period three's test right after the pull, x3 > 0 and
    # x1 - x3 > 0, loses the gap x1 - x3, so a point that fails only that
    # gap passes the loop; the loops' bitwise test must fail on it
    real = scaling._tested
    monkeypatch.setattr(scaling, "_tested", lambda *args: real(*args).replace(
        "x3 > 0.0 and x1 - x3 > 0.0", "x3 > 0.0", 1))
    period = Period.THREE
    namespace = {}
    src = scaling._kernel_source(period, scaling._orbit_block(3), scaling._orbit_block(
        3, steps=scaling._IN_PLACE, keep=period.comb.central))
    assert "if not (x3 > 0.0):" in src
    exec(compile(src, "<mutant>", "exec"), dict(vars(scaling)), namespace)
    mutant = dict(zip(scaling._GENERATED, namespace["_kernels3"](period)))["domain_scan"]
    check = test_the_loops_are_bitwise_the_array_scans.hypothesis.inner_test
    check((period, 1e-4, 1.0))
    monkeypatch.setattr(period, "domain_scan", mutant)
    with pytest.raises(AssertionError):
        check((period, 1e-4, 1.0))


@pytest.mark.parametrize("period, eps", [(Period.THREE, 1.02), (Period.FIVE, 1.0)])
def test_a_per_point_scan_calls_no_kernel_per_grid_point(period, eps, monkeypatch):
    # the loops run the orbit inline: values_kernel is called around the
    # dips, boundaries and punctures only, far fewer times than the domain
    # scan has grid points, and the root scan calls r_kernel not at all
    calls = []
    for name in ("values_kernel", "r_kernel"):
        kernel = getattr(period, name)
        monkeypatch.setattr(period, name, lambda c, e, name=name, kernel=kernel: calls.append(name) or kernel(c, e))
    with _per_point():
        domain = feasible_domain(period, eps=eps)
        assert calls.count("values_kernel") < 0.1 * math.ceil((0.5 - 1e-4) / 1e-4)
        calls.clear()
        intervals = _padded(domain)
        assert len(_root_brackets(period, eps, intervals, SCAN_GRID)) == 1
    assert calls == [] and sum(_sizes(intervals, SCAN_GRID)) > 1000


# The rule itself.  The test process has numpy loaded; where a test needs
# it unloaded, the rule reads sys.modules["numpy"] as None.
def _numpy_unloaded(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(scaling, "_scanned", 0)


def test_scans_use_arrays_whenever_numpy_is_loaded(monkeypatch):
    # whatever budget is left: nothing is charged, and the domain and root
    # scans of a solve never run per point
    monkeypatch.setattr(scaling, "_scanned", 0)
    assert not scaling._scan_per_point(1)
    with mock.patch.object(Period.THREE, "domain_scan", side_effect=AssertionError("per point")), \
            mock.patch.object(Period.THREE, "root_scan", side_effect=AssertionError("per point")):
        solver.solve_fixed_point_eps(1.02)
    assert scaling._scanned == 0


def test_a_per_point_scan_charges_its_exact_point_count(monkeypatch):
    # the domain scan's grid of ceil((0.5 - step)/step) points and the root
    # scan's every grid point, those the loops evaluate, each times the
    # period p: the work a grid point costs in either loop
    intervals = _padded(feasible_domain(Period.FIVE, 2e-4))
    want = _grids(intervals, _sizes(intervals, SCAN_GRID))
    _numpy_unloaded(monkeypatch)
    assert math.ceil((0.5 - 2e-4) / 2e-4) == 2499
    domain = feasible_domain(Period.FIVE, 2e-4)
    assert scaling._scanned == 2499 * 5
    solver.solve_fixed_point(Period.FIVE, domain)
    assert scaling._scanned == (2499 + len(want)) * 5


def test_a_grid_above_the_cap_scans_arrays(monkeypatch):
    # the budget is never overrun: a scan runs per point only if all of its
    # work fits what is left, and is then charged; the 1e-6 step floor's
    # 499999 points, five units of work each at period five, scan arrays in
    # a process that has scanned none
    _numpy_unloaded(monkeypatch)
    assert not scaling._scan_per_point(scaling.SCAN_BUDGET + 1) and scaling._scanned == 0
    assert scaling._scan_per_point(scaling.SCAN_BUDGET - 10) and scaling._scanned == scaling.SCAN_BUDGET - 10
    assert not scaling._scan_per_point(11) and scaling._scanned == scaling.SCAN_BUDGET - 10
    assert scaling._scan_per_point(10) and scaling._scanned == scaling.SCAN_BUDGET
    assert not scaling._scan_per_point(1) and scaling._scanned == scaling.SCAN_BUDGET
    monkeypatch.undo()
    code = "from renorm import scaling\nfd = repr(scaling.feasible_domain(scaling.Period.FIVE, 1e-6))\n"
    assert math.ceil((0.5 - 1e-6) / 1e-6) * 5 > scaling.SCAN_BUDGET
    assert probe(code, "[fd, scaling._scanned, 'numpy' in sys.modules]") == [
        repr(feasible_domain(Period.FIVE, 1e-6)), 0, True]


def test_once_the_budget_is_spent_the_next_scan_imports_numpy():
    # in a fresh interpreter, eps solves of about 11k points, 33k units of
    # work, each: per point
    # while they fit, then the scan that would overrun the budget imports
    # numpy and every later scan runs on arrays, all bitwise the array solves
    code = (
        "from renorm import scaling, solver\n"
        "reps, log = [], []\n"
        "for k in range(25):\n"
        "    reps.append(repr(solver.solve_fixed_point_eps(1.0 + k / 1000)))\n"
        "    log.append([scaling._scanned, 'numpy' in sys.modules])\n"
    )
    reps, log = probe(code, "[reps, log]")
    assert reps == [repr(solver.solve_fixed_point_eps(1.0 + k / 1000)) for k in range(25)]
    spent = [scanned for scanned, loaded in log if not loaded]
    assert 0 < len(spent) < len(log) and spent == sorted(set(spent))
    assert max(scanned for scanned, _ in log) <= scaling.SCAN_BUDGET
    # from the solve that imported numpy on, nothing more is charged
    assert [loaded for _, loaded in log] == [False] * len(spent) + [True] * (len(log) - len(spent))
    assert len({scanned for scanned, loaded in log if loaded}) == 1


def test_a_library_solve_without_numpy_is_the_array_solve():
    # within the budget a library caller's solves never import numpy, and
    # print the array solves' reports
    code = (
        "from renorm import Period, solve_fixed_point, solve_fixed_point_eps\n"
        "reps = [repr(solve_fixed_point(p)) for p in Period] + [repr(solve_fixed_point_eps(1.02))]\n"
    )
    want = [repr(solver.solve_fixed_point(p)) for p in Period] + [repr(solver.solve_fixed_point_eps(1.02))]
    assert probe(code, "[reps, 'numpy' in sys.modules]") == [want, False]
