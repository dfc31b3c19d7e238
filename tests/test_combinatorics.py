"""The per-period combinatorics table against the hand-written code it
replaced, and the table's rows against the dynamics they encode."""

import random

import numpy as np
import pytest

from renorm.quadratic import QuadraticUnimodal, eval_raw, orbit
from renorm.scaling import (
    COMBINATORICS,
    ONE,
    Period,
    _condition_values,
    conditions,
    gaps,
    return_map,
    scaling_from_critical,
)
from renorm.tower import Affine, LevelData, ScalingSequence, build_tower, local_intervals
from renorm.horseshoe import symbol_scaling_sequence, Word
from renorm.pwa import micro_intervals


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
    o = orbit(QuadraticUnimodal(lv.c), 3)
    return o[1] if period is Period.THREE else o[3]


def _ref_local_intervals(period, lv, factor):
    s = factor.s
    o = orbit(QuadraticUnimodal(lv.c), 2)
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
    period, depth, chains, factors = t.period, t.depth, t.chains, t.factors
    labels = {"y": [H(1.0) for H in chains], "z": [H(0.0) for H in chains]}
    if period is Period.THREE:
        labels["x"] = [None] + [chains[n - 1](factors[n - 1].s[0]) for n in range(1, depth + 1)]
        labels["w"] = [None] + [chains[n - 1](1.0 - factors[n - 1].s[2]) for n in range(1, depth + 1)]
        return labels
    labels["a"] = [None] + [chains[n - 1](factors[n - 1].s[0]) for n in range(1, depth + 1)]
    labels["h"] = [None] + [chains[n - 1](1.0 - factors[n - 1].s[4]) for n in range(1, depth + 1)]
    for name, fam, local_t in (("d", 3, 0), ("e", 3, 1), ("f", 4, 0), ("g", 4, 1)):
        vals = [None]
        for n in range(1, depth + 1):
            lo_loc, hi_loc = _ref_local_intervals(period, t.levels[n - 1], factors[n - 1])[fam]
            vals.append(chains[n - 1](lo_loc if local_t == 0 else hi_loc))
        labels[name] = vals
    return labels


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
            assert _bits(ref[name][1:]) == _bits(t.labels[name][1:])


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
    comb = COMBINATORICS[period]
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
    # tags name each non-central family once; labels name an end of a family
    assert sorted(comb.tags.values()) == [i for i in range(1, p + 1) if i != 2]
    assert all(1 <= fam <= p and end in (0, 1) for fam, end in comb.labels.values())


@pytest.mark.parametrize("period", list(Period))
def test_table_intervals_are_ordered_at_the_fixed_point(period, rep3, rep5):
    # left to right and disjoint: the left end below the right end of each
    # I_j, each I_j left of the next, as the table's (left, right) reads
    c = (rep3 if period is Period.THREE else rep5).c_star
    o = _ref_orbit(period, c) + [1.0]
    pts = [o[k] for iv in COMBINATORICS[period].intervals for k in iv]
    assert pts == sorted(pts) and len(set(pts)) == len(pts)
    left, right = COMBINATORICS[period].intervals[1]
    assert o[left] < c < o[right]  # I_2 is the central interval


def test_domain_boundary_names(fd3, fd5):
    # both ends of each domain are where the first gap right of the
    # central interval closes; at the puncture every length touches zero at once
    assert [n for _, n in fd3.boundaries] == ["Gr", "Gr"]
    assert [n for _, n in fd5.boundaries] == ["Gr1", "Gr1"]
    assert [n for _, n in fd3.punctures] == ["S1+S2+S3"]
    assert [n for _, n in fd5.punctures] == ["S1+S2+S3+S4+S5"]


def test_tags_name_the_family_their_micro_interval_lands_on(f3, f5):
    # at generation one each tag's landing interval (micro_intervals'
    # own forward and preimage formulas) is the first-generation interval
    # of the family the table gives the tag
    for f in (f3, f5):
        tags = COMBINATORICS[f.period].tags
        landing = micro_intervals(f, 1)
        assert set(landing) == set(tags)
        for tag, fam in tags.items():
            assert landing[tag] == pytest.approx(f.tower.generations[0][fam], abs=1e-10), tag
