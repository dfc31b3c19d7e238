"""The per-period combinatorics, derived from each visiting cycle, against
the hand-written rows and code it replaced, the rows against the dynamics
they encode, negative controls that break the cycle or the rows, and the
one straight-line orbit (floats, arrays, Intervals and jets) against the
eval_raw chain it replaced."""

import functools
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renorm.interval import Interval, Jet
from renorm.scaling import (
    COMBINATORICS,
    ONE,
    S2_FLOOR,
    Combinatorics,
    DivisionGuard,
    Period,
    _condition_values,
    conditions,
    eval_raw,
    feasibility,
    gaps,
    return_map,
    scaling_from_critical,
)
from renorm.tower import Affine, InvalidFactor, LevelData, ScalingSequence, build_tower, local_intervals
from renorm.horseshoe import symbol_scaling_sequence, Word
from renorm.pwa import build_pwa, verify_combinatorics
from renorm.extension import DEFAULT_DEPTH
from renorm.verify import COMBI_MAX
from reference_domains import DOMAIN_HEXES
from stand_in import stand_in_orbit

# the same examples on every run: a bitwise failure must reproduce
BITWISE = settings(settings.get_profile("bitwise"), max_examples=300)


# The hand-written formulas the table replaced, kept verbatim as the
# reference: every derived value must equal them bitwise.
def _ref_orbit(period, c, eps=1.0):
    p, last = {Period.THREE: (3, 4), Period.FIVE: (5, 8)}[period]
    x = 0.0
    out = [x]
    for _ in range(p):
        x = eval_raw(c, x)
        out.append(x)
    x = out[p] = eps * x
    for _ in range(p, last):
        x = eval_raw(c, x)
        out.append(x)
    return out


def _ref_components(period, o):
    if period is Period.THREE:
        return (o[3], o[4] - o[1], 1.0 - o[2])
    return (o[5], o[8] - o[3], o[6] - o[1], o[2] - o[7], 1.0 - o[4])


def _ref_gap_components(period, o):
    if period is Period.THREE:
        return (o[1] - o[3], o[2] - o[4])
    return (o[3] - o[5], o[1] - o[8], o[7] - o[6], o[4] - o[2])


def _ref_level_anchor(period, lv):
    o = _ref_orbit(period, lv.c)
    return o[1] if period is Period.THREE else o[3]


def _ref_local_intervals(period, lv, factor):
    s = factor.s
    o = _ref_orbit(period, lv.c)
    if period is Period.THREE:
        a = o[1]
        return {1: (0.0, s[0]), 2: (a, a + s[1]), 3: (1.0 - s[2], 1.0)}
    o3 = eval_raw(lv.c, o[2])
    return {
        1: (0.0, s[0]),
        2: (o3, o3 + s[1]),
        3: (o[1], o[1] + s[2]),
        4: (o[2] - s[3], o[2]),
        5: (1.0 - s[4], 1.0),
    }


def _ref_labels(t):
    chains = t.chains
    return {"y": [H(1.0) for H in chains], "z": [H(0.0) for H in chains]}


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _cases():
    """(period, c, eps) at seeded points of (0, 1/2), feasible or not."""
    rng = random.Random(50500)
    out = [(period, rng.uniform(0.001, 0.499), 1.0) for period in Period for _ in range(150)]
    out += [(Period.THREE, rng.uniform(0.001, 0.499), rng.uniform(0.96, 1.04)) for _ in range(150)]
    return out


def test_conditions_bitwise_reference_scalars():
    for period, c, eps in _cases():
        o = _ref_orbit(period, c, eps)
        comps, gs = _ref_components(period, o), _ref_gap_components(period, o)
        assert _bits(_condition_values(period, c, eps)) == _bits(comps + gs)
        assert _bits(scaling_from_critical(period, c, eps).s) == _bits(comps)
        if eps == 1.0:
            assert _bits(gaps(period, c)) == _bits(gs)
        anchor = o[1] if period is Period.THREE else o[3]
        s2 = o[-1] - anchor
        if s2 > 1e-14:
            assert _bits([return_map(period, c, eps)]) == _bits([(o[-1] - c) / s2])


@st.composite
def _drawn_cases(draw):
    """(period, c, eps): c anywhere in (0, 1/2) or around the feasible
    domains, eps exactly 1 or pulled for period three."""
    period = draw(st.sampled_from(list(Period)))
    c = draw(st.one_of(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True), st.floats(0.37, 0.46)))
    eps = 1.0
    if period is Period.THREE:
        eps = draw(st.one_of(st.just(1.0), st.floats(0.9, 1.1)))
    return period, c, eps


def _ref_return_map(period, c, eps):
    """(o[right of I_2] - c)/s2 off the reference orbit, None where s2 is
    at or below the floor; the arithmetic type is whatever c is."""
    o = _ref_orbit(period, c, eps)
    s2 = o[-1] - (o[1] if period is Period.THREE else o[3])
    low = s2 if isinstance(s2, float) else getattr(s2, "val", s2).lo  # a Jet's value part
    if not low > S2_FLOOR:
        return None
    return (o[-1] - c) / s2


@BITWISE
@given(_drawn_cases())
def test_scalar_return_map_is_bitwise_the_reference(case):
    # a NaN from the array call exactly where the scalar call raises
    period, c, eps = case
    want = _ref_return_map(period, c, eps)
    arr = return_map(period, np.array([c]), eps)
    if want is None:
        with pytest.raises(DivisionGuard):
            return_map(period, c, eps)
        assert np.isnan(arr[0])
    else:
        assert _bits([return_map(period, c, eps)]) == _bits([want]) == arr.tobytes()


@BITWISE
@given(_drawn_cases())
def test_feasibility_is_the_reference(case):
    period, c, eps = case
    o = _ref_orbit(period, c, eps)
    want = all(v > 0.0 for v in _ref_components(period, o) + _ref_gap_components(period, o))
    assert feasibility(period, c, eps) is want


def _s2(period, c, eps):
    """The central length off the reference orbit."""
    o = _ref_orbit(period, c, eps)
    return o[-1] - (o[1] if period is Period.THREE else o[3])


@functools.lru_cache(maxsize=8)  # period five has some 70 flips, all at eps 1
def _pole_edges(period, eps):
    """Adjacent floats on either side of each place in (0, 1/2) where
    s2 <= S2_FLOOR, or s2 <= 0, flips: a grid finds each flip and a
    bisection on floats takes it to the ulp."""
    cs = np.linspace(1e-3, 0.5 - 1e-3, 2001)
    s2 = _s2(period, cs, eps)
    edges = []
    for bound in (S2_FLOOR, 0.0):
        flag = s2 <= bound
        for k in np.flatnonzero(flag[1:] != flag[:-1]):
            a, b = float(cs[k]), float(cs[k + 1])
            mid = 0.5 * (a + b)
            while a < mid < b:
                if (_s2(period, mid, eps) <= bound) == flag[k]:
                    a = mid
                else:
                    b = mid
                mid = 0.5 * (a + b)
            edges += [a, b]
    return edges


@st.composite
def _kernel_cases(draw):
    """(period, c, eps): period three at eps in [0.25, 4], period five at
    eps 1, c anywhere in (0, 1/2), or a few ulps from a recorded domain
    boundary or puncture (at the record's eps) or from a flip of the s2
    guard."""
    period = draw(st.sampled_from(list(Period)))
    eps = draw(st.floats(0.25, 4.0)) if period is Period.THREE else 1.0
    where = draw(st.sampled_from(["anywhere", "recorded", "pole"]))
    if where == "anywhere":
        return period, draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)), eps
    if where == "recorded":
        (p, eps, _), rec = draw(st.sampled_from(sorted(DOMAIN_HEXES.items())))
        period = Period(p)
        x = float.fromhex(draw(st.sampled_from([h for h, _ in rec["boundaries"] + rec["punctures"]])))
    else:
        x = draw(st.sampled_from(_pole_edges(period, eps)))
    for _ in range(abs(steps := draw(st.integers(-4, 4)))):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return period, x, eps


@BITWISE
@given(_kernel_cases())
def test_float_kernels_are_bitwise_the_generic_path(case):
    # a float c and eps run the period's kernels, an array c reads
    # period.orbit: R bitwise, with a NaN from the array exactly where the
    # kernel raises, and feasibility as the minimum condition above 0 (a
    # NaN condition infeasible)
    period, c, eps = case
    arr = return_map(period, np.array([c]), eps)
    try:
        r = return_map(period, c, eps)
    except DivisionGuard:
        assert np.isnan(arr[0])
    else:
        assert _bits([r]) == arr.tobytes()
    want = bool(np.min(conditions(period, np.array([c]), eps)) > 0)
    assert feasibility(period, c, eps) is want
    assert _bits(period.values_kernel(c, eps)) == _bits(_condition_values(period, c, eps))


@pytest.mark.parametrize("period", list(Period))
def test_scaling_factors_and_gaps_read_the_values_kernel_bitwise(period, monkeypatch):
    # a real scalar c and eps run values_kernel: on a seeded grid over
    # (0, 1/2), at eps in [0.5, 2] for period three, the scaling factor and
    # the gaps are float.hex the generic orbit's conditions; a 0-d array c
    # or a numpy integer eps keeps the generic path, and period five
    # refuses an eps other than 1 with the orbit's error
    rng = random.Random(20 + period.p)
    kernel, calls = period.values_kernel, []
    monkeypatch.setattr(period, "values_kernel", lambda c, eps: calls.append(eps) or kernel(c, eps))
    hexes = lambda values: [float(x).hex() for x in values]
    want_calls = 0
    for k in range(400):
        c = 0.5 * (k + rng.random()) / 400
        eps = rng.uniform(0.5, 2.0) if period is Period.THREE and k % 2 else 1.0
        want = _condition_values(period, c, eps)
        assert hexes(scaling_from_critical(period, c, eps).s) == hexes(want[: period.p])
        want_calls += 1
        if eps == 1.0:
            assert hexes(gaps(period, c)) == hexes(want[period.p :])
            want_calls += 1
    assert len(calls) == want_calls
    want = _condition_values(period, 0.44)
    assert hexes(scaling_from_critical(period, np.array(0.44)).s) == hexes(want[: period.p])
    assert hexes(scaling_from_critical(period, 0.44, np.int64(1)).s) == hexes(want[: period.p])
    assert hexes(gaps(period, np.array(0.44))) == hexes(want[period.p :])
    assert len(calls) == want_calls
    if period is Period.FIVE:
        with pytest.raises(ValueError) as orbit:
            period.orbit(0.44, 1.01)
        with pytest.raises(ValueError) as got:
            scaling_from_critical(period, 0.44, 1.01)
        assert (type(got.value), str(got.value)) == (type(orbit.value), str(orbit.value))


@st.composite
def _root_scan_grids(draw):
    """(period, cs, eps): period three at eps in [0.25, 4], period five at
    eps 1, cs a grid of 1 to 400 points across (0, 1/2) or straddling a
    flip of the s2 guard a few ulps to 1e-3 away."""
    period = draw(st.sampled_from(list(Period)))
    eps = draw(st.floats(0.25, 4.0)) if period is Period.THREE else 1.0
    n = draw(st.integers(1, 400))
    if draw(st.booleans()):
        return period, np.linspace(1e-6, 0.5 - 1e-6, n), eps
    x = draw(st.sampled_from(_pole_edges(period, eps)))
    half = draw(st.one_of(st.floats(1e-15, 1e-12), st.floats(1e-12, 1e-3)))
    return period, np.linspace(x - half, x + half, n), eps


@BITWISE
@given(_root_scan_grids())
def test_the_root_kernel_is_bitwise_the_generic_path(case):
    # R(c) - c written in place: bitwise return_map(period, cs, eps) - cs,
    # NaN at the same indices, and cs left as it was
    period, cs, eps = case
    before = cs.tobytes()
    got = period.root_kernel(cs, eps)
    assert cs.tobytes() == before
    assert got.tobytes() == (return_map(period, cs, eps) - cs).tobytes()


def test_the_root_kernel_grids_reach_the_guard():
    # a grid across each pole holds NaN where the guard trips, and numbers
    for period, eps in ((Period.THREE, 0.25), (Period.THREE, 4.0), (Period.FIVE, 1.0)):
        x = _pole_edges(period, eps)[0]
        got = period.root_kernel(np.linspace(x - 1e-9, x + 1e-9, 101), eps)
        assert np.isnan(got).any() and not np.isnan(got).all()


@pytest.mark.parametrize("period, bad", [(Period.THREE, bad) for bad in (0.0, -1.0, math.nan)]
                         + [(Period.FIVE, bad) for bad in (0.0, -1.0, math.nan, 1.01)])
def test_every_kernel_refuses_an_eps_as_the_orbit_does(period, bad):
    # the pull check written into each kernel raises period.orbit's error
    with pytest.raises(ValueError) as want:
        period.orbit(0.44, bad)
    cs = np.array([0.44])
    calls = [functools.partial(kernel, 0.44, bad)
             for kernel in (period.r_kernel, period.feasible_kernel, period.values_kernel)]
    calls.append(functools.partial(period.scan_tail, cs, 1.0 - cs, cs, bad))
    calls.append(functools.partial(period.root_kernel, cs, bad))
    for call in calls:
        with pytest.raises(ValueError) as got:
            call()
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_pole_edges_straddle_the_guard():
    # the pole draws reach both sides of the s2 guard at every period
    for period, eps in ((Period.THREE, 1.0), (Period.THREE, 0.25), (Period.THREE, 4.0), (Period.FIVE, 1.0)):
        raised = set()
        for c in _pole_edges(period, eps):
            try:
                return_map(period, c, eps)
                raised.add(False)
            except DivisionGuard:
                raised.add(True)
        assert raised == {False, True}


def _orbit_reading(period, j, bad):
    """A stand-in orbit whose condition j reads bad, bitwise.

    The points sit left to right in the table's order at k * 2**-1000,
    the point 1.0 at 0.5, so every length and gap is positive and their
    sum below 1.  Then condition j's plus end moves to its minus end plus
    bad: on that dyadic scale the sum and the difference are exact.  A NaN
    end also makes NaN the condition right of it.
    """
    o = [0.0] * 2 * period.p
    order = [k for iv in period.comb.intervals for k in iv]
    for pos, k in enumerate(order[:-1]):
        o[k] = pos * 2.0**-1000
    o[ONE] = 0.5
    plus, minus = period.comb.pairs[j]
    o[plus] = o[minus] + bad
    return o


@BITWISE
@given(st.integers(0, 4), st.sampled_from([math.nan, 0.0, -1e-300]))
def test_feasibility_refuses_any_condition_not_above_zero(j, bad):
    # the seam is the orbit the feasibility kernel reads once, condition by
    # condition: a kernel from the same generator over the stand-in orbit
    o = _orbit_reading(Period.THREE, j, bad)
    vals = [o[i] - o[k] for i, k in Period.THREE.comb.pairs]
    assert _bits(vals[j]) == _bits(bad)
    assert all(v > 0.0 for n, v in enumerate(vals) if n != j and not math.isnan(v))
    with stand_in_orbit(Period.THREE, lambda *args: o):
        assert feasibility(Period.THREE, 0.44) is False


def _bounds(points):
    """Every bound of a list of floats, Intervals or Jets, as floats."""
    out = []
    for x in points:
        if isinstance(x, float):
            out.append(x)
            continue
        for iv in (x.val, x.der) if isinstance(x, Jet) else (x,):
            out += [iv.lo, iv.hi]
    return _bits(out)


@settings(BITWISE, max_examples=600)  # twice the profile's: two periods share the draws
@given(
    st.sampled_from(list(Period)),
    st.floats(0.33, 0.46),
    st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 1e-3)),
    st.one_of(st.just(1.0), st.floats(0.95, 1.05)),
)
def test_interval_and_jet_orbits_are_bitwise_the_reference(period, lo, width, eps):
    # the orbits and enclosures the full-shift certificate reads, bound for
    # bound; lo from 0.33 reaches across the s2 pole near 0.352 (and the
    # period-five poles near 0.414, 0.417, 0.447 and 0.449)
    if period is Period.FIVE:
        eps = 1.0  # the pull is defined for period three only
    c = Interval(lo, lo + width)
    jet = Jet(c, Interval(1.0, 1.0))
    for x in (c, jet):
        assert _bounds(period.orbit(x, eps)) == _bounds(_ref_orbit(period, x, eps) + [1.0])
    want = _ref_return_map(period, jet, eps)
    if want is None:
        with pytest.raises(DivisionGuard):
            return_map(period, jet, eps)
        with pytest.raises(DivisionGuard):
            return_map(period, c, eps)
    else:
        assert _bounds([return_map(period, jet, eps)]) == _bounds([want.val, want.der])
        assert _bounds([return_map(period, c, eps)]) == _bounds([want.val])


def test_an_interval_eps_passes_through_the_orbit():
    # the pull with an eps box: every point after it encloses the float
    # orbits at both ends and the midpoint of the box; the points before it
    # are the float orbit's, bitwise
    box = Interval(0.99, 1.01)
    for c in (0.44, 0.4402, 0.4301):
        o = Period.THREE.orbit(c, box)
        for eps in (box.lo, 1.0, box.hi):
            want = Period.THREE.orbit(c, eps)
            assert o[:3] == want[:3] and o[-1] == want[-1] == 1.0
            for x, w in zip(o[3:-1], want[3:-1]):
                assert isinstance(x, Interval) and x.lo <= w <= x.hi
    # a Jet c with an Interval eps: eps * x defers to the Jet
    jet = Jet(Interval(0.44, 0.44), Interval(1.0, 1.0))
    o = Period.THREE.orbit(jet, box)
    assert o[0] == 0.0 and o[-1] == 1.0
    assert all(isinstance(x, Jet) for x in o[1:-1])
    val = return_map(Period.THREE, jet, box).val
    for eps in (box.lo, 1.0, box.hi):
        assert val.lo <= return_map(Period.THREE, 0.44, eps) <= val.hi
    # a Jet in eps carries dR/deps: the mean-value slope across the box
    # is R' at some eps inside it
    der = return_map(Period.THREE, 0.44, Jet(box, Interval(1.0, 1.0))).der
    slope = (return_map(Period.THREE, 0.44, box.hi) - return_map(Period.THREE, 0.44, box.lo)) / (box.hi - box.lo)
    assert der.lo <= slope <= der.hi
    # an eps box reaching 0 or below is refused, as a float eps is
    for bad in (Interval(-0.1, 1.0), Interval(0.0, 1.0)):
        with pytest.raises(ValueError, match="eps must be positive"):
            Period.THREE.orbit(0.44, bad)
        with pytest.raises(ValueError, match="eps must be positive"):
            Period.THREE.orbit(jet, Jet(bad, Interval(0.0, 0.0)))


def test_return_map_sends_only_real_scalars_to_the_kernel(monkeypatch):
    # an Interval or a Jet eps with a float c keeps the generic path and
    # encloses the float results across the box
    box = Interval(0.99, 1.01)
    want = {e: return_map(Period.THREE, 0.44, e) for e in (box.lo, 1.0, box.hi)}
    kernel, calls = Period.THREE.r_kernel, []
    monkeypatch.setattr(Period.THREE, "r_kernel", lambda c, eps: calls.append(eps) or kernel(c, eps))
    for eps in (box, Jet(box, Interval(1.0, 1.0))):
        r = return_map(Period.THREE, 0.44, eps)
        val = getattr(r, "val", r)
        assert isinstance(val, Interval)
        assert all(val.lo <= w <= val.hi for w in want.values())
    return_map(Period.THREE, np.array([0.44]), 1.0)
    assert calls == []
    # an np.float64 c and an int eps run the kernel, bitwise the floats'
    for c, eps in ((np.float64(0.44), 1), (0.44, 1), (np.float64(0.44), 1.0), (0.44, 2)):
        assert return_map(Period.THREE, c, eps).hex() == kernel(0.44, float(eps)).hex()
        assert feasibility(Period.THREE, c, eps) is feasibility(Period.THREE, 0.44, float(eps))
    assert calls == [1, 1, 1.0, 2]
    assert want[1.0].hex() == kernel(0.44, 1.0).hex()
    # a 0-d array or a numpy integer eps keeps the generic path and its
    # float guard: the float result, and DivisionGuard at the s2 pole
    for c, eps in ((np.array(0.44), 1.0), (0.44, np.int64(1)), (0.44, np.array(1.0))):
        assert return_map(Period.THREE, c, eps).hex() == want[1.0].hex()
    with pytest.raises(DivisionGuard):
        return_map(Period.THREE, np.array(0.3522), np.int64(1))
    assert calls == [1, 1, 1.0, 2]


def test_conditions_bitwise_reference_arrays():
    cs = np.linspace(1e-4, 0.5 - 1e-4, 4001)
    for period, eps in ((Period.THREE, 1.0), (Period.FIVE, 1.0), (Period.THREE, 0.97), (Period.THREE, 1.03)):
        o = _ref_orbit(period, cs, eps)
        want = np.array(_ref_components(period, o) + _ref_gap_components(period, o))
        assert conditions(period, cs, eps).tobytes() == want.tobytes()


def _sequences(rep3, rep5, bsys):
    rng = np.random.default_rng(50501)
    word = Word(tuple(int(x) for x in rng.integers(0, 3, size=8)))
    return [
        ScalingSequence.stationary(Period.THREE, rep3.c_star),
        ScalingSequence.stationary(Period.FIVE, rep5.c_star),
        ScalingSequence.stationary(Period.THREE, 0.4401, 0.99),
        symbol_scaling_sequence(bsys, word),
    ]


def test_tower_bitwise_reference(rep3, rep5, bsys):
    for seq in _sequences(rep3, rep5, bsys):
        t = build_tower(seq, 8)
        assert t.families == ((1, 2, 3) if seq.period is Period.THREE else (1, 2, 3, 4, 5))
        for lv, f, loc, h in zip(t.levels, t.factors, t.local, t.rescale):
            assert loc == _ref_local_intervals(seq.period, lv, f)
            assert loc == local_intervals(seq.period, lv, f)
            a = _ref_level_anchor(seq.period, lv)
            assert h == Affine(-f.s[1], a + f.s[1])
        ref = _ref_labels(t)
        assert list(t.labels) == list(ref)
        for name in ref:
            assert _bits(ref[name]) == _bits(t.labels[name])


def test_local_intervals_need_a_critical_point_in_the_unit_interval():
    f = scaling_from_critical(Period.THREE, 0.44)
    for c in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            local_intervals(Period.THREE, LevelData(c), f)


def _step(k, p, central):
    """The orbit index u sends index k to: 1.0 goes to 0, and the central
    interval's far end u^{2p-1}(0) is replaced by the critical value 1.0."""
    if k == ONE:
        return 0
    if central and k + 1 == 2 * p - 1:
        return ONE
    return k + 1


@pytest.mark.parametrize("period", list(Period))
def test_table_rows_are_consistent(period):
    comb = period.comb
    p = period.p
    ivs = comb.intervals
    assert len(ivs) == p
    # every orbit point u^0(0) .. u^{2p-2}(0) and 1.0 ends exactly one interval
    ends = sorted(k for iv in ivs for k in iv)
    assert ends == [ONE] + list(range(2 * p - 1))
    assert len(comb.names) == 2 * p - 1 == len(comb.pairs)
    # lengths S1..Sp, then the gap left of the central interval, then the
    # gaps right of it in order
    right = ("Gr",) if p == 3 else tuple(f"Gr{k}" for k in range(1, p - 1))
    assert comb.names == tuple(f"S{j}" for j in range(1, p + 1)) + ("Gl",) + right
    # the cycle starts at the central interval and visits every interval once
    assert comb.cycle[0] == 2 and sorted(comb.cycle) == list(range(1, p + 1))
    arrows = zip(comb.cycle, comb.cycle[1:] + comb.cycle[:1])
    for j, k in arrows:
        image = {_step(x, p, central=(j == 2)) for x in ivs[j - 1]}
        assert image == set(ivs[k - 1]), (j, k)


@pytest.mark.parametrize("period", list(Period))
def test_table_intervals_are_ordered_at_the_fixed_point(period, rep3, rep5):
    # left to right and disjoint: the left end below the right end of each
    # I_j, each I_j left of the next, as the table's (left, right) reads
    c = (rep3 if period is Period.THREE else rep5).c_star
    o = _ref_orbit(period, c) + [1.0]
    pts = [o[k] for iv in period.comb.intervals for k in iv]
    assert pts == sorted(pts) and len(set(pts)) == len(pts)
    left, right = period.comb.intervals[1]
    assert o[left] < c < o[right]  # I_2 is the central interval


def test_domain_boundary_names(fd3, fd5):
    # both ends of each domain are where the first gap right of the
    # central interval closes; at the puncture every length touches zero at once
    assert [n for _, n in fd3.boundaries] == ["Gr", "Gr"]
    assert [n for _, n in fd5.boundaries] == ["Gr1", "Gr1"]
    assert [n for _, n in fd3.punctures] == ["S1+S2+S3"]
    assert [n for _, n in fd5.punctures] == ["S1+S2+S3+S4+S5"]



# The rows and names the table held by hand before both were derived from
# the cycle, kept verbatim as the reference the derivation must reproduce.
LITERAL_ROWS = {
    Period.THREE: (((0, 3), (1, 4), (2, ONE)), ("S1", "S2", "S3", "Gl", "Gr")),
    Period.FIVE: (
        ((0, 5), (3, 8), (1, 6), (7, 2), (4, ONE)),
        ("S1", "S2", "S3", "S4", "S5", "Gl", "Gr1", "Gr2", "Gr3"),
    ),
}


@pytest.mark.parametrize("period", list(Period))
def test_rows_derived_from_the_cycle_are_the_literal_rows(period):
    comb = period.comb
    intervals, names = LITERAL_ROWS[period]
    assert COMBINATORICS[period.p] == comb.cycle
    assert comb.intervals == intervals and comb.names == names
    assert all(type(k) is int for iv in comb.intervals for k in iv)
    # family 2 is central, the rightmost family is pulled, and the central
    # rescale reverses orientation, in both of the paper's combinatorics
    assert (comb.central_family, comb.pulled_family, comb.reverses) == (2, period.p, True)
    assert comb.central == intervals[1]


# the number of period-p windows of the real quadratic family (Metropolis,
# Stein and Stein 1973): one unimodal cycle of the intervals for each
MSS_COUNTS = {3: 1, 4: 2, 5: 3, 6: 5, 7: 9}


@pytest.mark.parametrize("p", sorted(MSS_COUNTS))
def test_every_cycle_either_is_refused_or_derives_consistent_rows(p):
    accepted = []
    for cycle in itertools.permutations(range(1, p + 1)):
        try:
            comb = Combinatorics(cycle)
        except ValueError:
            continue
        accepted.append(cycle)
        ivs = comb.intervals
        assert sorted(k for iv in ivs for k in iv) == [ONE] + list(range(2 * p - 1))
        for j, k in zip(cycle, cycle[1:] + cycle[:1]):
            image = {_step(x, p, central=(j == comb.central_family)) for x in ivs[j - 1]}
            assert image == set(ivs[k - 1]), (cycle, j, k)
        assert len(comb.names) == len(comb.pairs) == 2 * p - 1
    assert len(accepted) == MSS_COUNTS[p]
    if p == 5:  # the paper's, and the two the central rescale reverses or keeps
        assert accepted == [(2, 5, 1, 3, 4), (3, 5, 1, 2, 4), (4, 5, 1, 2, 3)]
        assert [Combinatorics(c).reverses for c in accepted] == [True, False, True]


@pytest.mark.parametrize(
    "cycle",
    [
        (2, 1, 3),           # step 1 is not the rightmost interval
        (3, 2, 1),           # nor here, and step 2 is not the leftmost
        (1, 3, 2),           # the central interval is the leftmost
        (2, 3, 3),           # not a permutation
        (2, 3, 4),           # nor this
        (1, 2),              # too short: the central interval is step 2
        (),
        (2, 5, 1, 4, 3),     # u would keep the order right of the centre
        (4, 5, 1, 3, 2),     # u would reverse the order left of it
        (2, 5, 1, 3, 4, 6),  # step 1 is not the rightmost of six
    ],
)
def test_a_cycle_no_unimodal_map_has_is_refused(cycle):
    with pytest.raises(ValueError, match="unimodal"):
        Combinatorics(cycle)


def _with_rows(period, rows):
    """Patch period's combinatorics to hold rows: the fields derived from
    them (lengths, gaps, the central ends) follow, and so does the
    condition tuple of a float c, values_kernel, read off the generic
    orbit; the families read off the cycle do not."""
    comb = Combinatorics(period.comb.cycle)
    comb.__dict__["intervals"] = rows  # the cached field, before any read
    values = lambda c, eps: _condition_values(period, c, eps)  # noqa: E731
    return mock.patch.multiple(period, comb=comb, values_kernel=values)


def _swapped_rows(period):
    """The period's rows with two interval ends swapped, across rows."""
    ends = [(r, e) for r in range(period.p) for e in range(2)]
    for (r1, e1), (r2, e2) in itertools.combinations(ends, 2):
        if r1 != r2:
            rows = [list(iv) for iv in period.comb.intervals]
            rows[r1][e1], rows[r2][e2] = rows[r2][e2], rows[r1][e1]
            yield tuple(tuple(iv) for iv in rows)


def _chase(period, c, rows):
    """verify_combinatorics at every n up to COMBI_MAX on the stationary
    map built with rows, or None where build_pwa refuses its factor."""
    with _with_rows(period, rows):
        try:
            f = build_pwa(ScalingSequence.stationary(period, c), DEFAULT_DEPTH[period])
        except InvalidFactor:
            return None
        return [verify_combinatorics(f, n) for n in range(1, COMBI_MAX[period] + 1)]


@pytest.mark.parametrize("period, refused", [(Period.THREE, 11), (Period.FIVE, 35)])
def test_every_swap_of_two_ends_across_rows_is_caught(period, refused, rep3, rep5):
    c = (rep3 if period is Period.THREE else rep5).c_star
    assert _chase(period, c, period.comb.intervals) == [True] * COMBI_MAX[period]
    chases = {rows: _chase(period, c, rows) for rows in _swapped_rows(period)}
    assert len(chases) == period.p * (period.p - 1) * 2
    assert sum(chase is None for chase in chases.values()) == refused
    for rows, chase in chases.items():
        assert chase is None or not all(chase), rows
    if period is Period.FIVE:
        # a swap the first generation cannot see: only n = 2 and 3 catch it
        assert chases[((0, 5), (3, 8), (1, 6), (7, 4), (2, ONE))] == [True, False, False]
