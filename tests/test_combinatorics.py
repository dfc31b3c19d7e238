"""The per-period combinatorics table against the hand-written code it
replaced, the table's rows against the dynamics they encode, and the one
orbit loop (floats, arrays, Intervals and jets) against the eval_raw
chain it replaced."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renorm import scaling
from renorm.interval import Interval, Jet
from renorm.scaling import (
    ONE,
    S2_FLOOR,
    DivisionGuard,
    Period,
    _condition_values,
    _orbit_points,
    conditions,
    eval_raw,
    feasibility,
    gaps,
    return_map,
    scaling_from_critical,
)
from renorm.tower import Affine, LevelData, ScalingSequence, build_tower, local_intervals
from renorm.horseshoe import symbol_scaling_sequence, Word

# the same examples on every run: a bitwise failure must reproduce
settings.register_profile("bitwise", derandomize=True, database=None, deadline=None, max_examples=300)
BITWISE = settings.get_profile("bitwise")


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
            assert _bits(gaps(period, c).gaps) == _bits(gs)
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


@BITWISE
@given(st.integers(0, 4), st.sampled_from([math.nan, 0.0, -1e-300]))
def test_feasibility_refuses_any_condition_not_above_zero(j, bad):
    vals = [0.1] * 5
    vals[j] = bad
    with mock.patch.object(scaling, "_condition_values", lambda *args: tuple(vals)):
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
        assert _bounds(_orbit_points(period, x, eps)) == _bounds(_ref_orbit(period, x, eps) + [1.0])
    want = _ref_return_map(period, jet, eps)
    if want is None:
        with pytest.raises(DivisionGuard):
            return_map(period, jet, eps)
        with pytest.raises(DivisionGuard):
            return_map(period, c, eps)
    else:
        assert _bounds([return_map(period, jet, eps)]) == _bounds([want.val, want.der])
        assert _bounds([return_map(period, c, eps)]) == _bounds([want.val])


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

