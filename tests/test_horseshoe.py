import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renorm.interval import Interval, Jet
from renorm.pwa import shift_residual
from renorm.scaling import DivisionGuard, Period, return_map
from renorm.tower import build_tower, verify_proper
from renorm import horseshoe, pwa
from renorm.horseshoe import (
    CODING_PAD,
    MARGIN,
    BranchSystem,
    NotAHorseshoe,
    Word,
    _invert_point,
    build_branch_system,
    code_to_point,
    coded_orbit,
    cylinder_count,
    cylinder_counts,
    dense_orbit_word,
    entropy_estimate,
    symbol_scaling_sequence,
)
from cylinders import _invert_fixed_64, resolved_levels, widths_within_bounds
from reference_bisections import BRANCH_DOMAIN_HEXES
from reference_values import C3_STAR, C_EPS_098, C_EPS_102
from values import field_names, replace


def test_fixed_points_ordered(bsys):
    c0, c1, c2 = bsys.fixed_points
    assert c0 < c1 < c2
    assert c0 == pytest.approx(C_EPS_102, abs=1e-8)
    assert c1 == pytest.approx(C3_STAR, abs=1e-9)
    assert c2 == pytest.approx(C_EPS_098, abs=1e-8)


def test_derivatives_above_two(bsys):
    for rep in bsys.reports:
        assert rep.derivative_estimate > 2.0


def test_strictly_decreasing_epsilons_required():
    with pytest.raises(ValueError):
        build_branch_system(1.02, 1.02, 0.98)


def test_branch_domains_cover_base(bsys):
    lo, hi = bsys.base
    for i, (a, b) in enumerate(bsys.domains):
        # A_0 starts at c_0* and A_2 ends at c_2*, up to bisection noise
        assert lo - 1e-10 <= a < b <= hi + 1e-10
        assert bsys.map(i, a) == pytest.approx(lo, abs=1e-9)
        assert bsys.map(i, b) == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys5", "bsys_wide"])
def test_branch_domains_bitwise_reference(request, name):
    b = request.getfixturevalue(name)
    got = [(lo.hex(), hi.hex()) for lo, hi in b.domains]
    assert got == BRANCH_DOMAIN_HEXES[b.epsilons]


def test_constant_words_code_fixed_points(bsys):
    for i in range(3):
        cod = code_to_point(bsys, Word((i,) * 12), 12)
        assert cod.c_alpha == pytest.approx(bsys.fixed_points[i], abs=1e-11)
        assert cod.residual <= 1e-11


def test_alternating_word(bsys):
    cod = code_to_point(bsys, Word((0, 1) * 6), 12)
    assert cod.residual <= 1e-9
    assert bsys.fixed_points[0] < cod.c_alpha < bsys.fixed_points[1]


def test_coding_conjugacy_random_words(bsys):
    rng = np.random.default_rng(7)
    for _ in range(10):
        word = Word(tuple(int(x) for x in rng.integers(0, 3, size=8)))
        assert code_to_point(bsys, word, 8).residual <= 1e-9


def test_coding_monotone_in_first_symbol(bsys):
    rng = np.random.default_rng(11)
    for _ in range(5):
        suffix = tuple(int(x) for x in rng.integers(0, 3, size=6))
        pts = [code_to_point(bsys, Word((i,) + suffix), 7).c_alpha for i in range(3)]
        assert pts[0] < pts[1] < pts[2]


def test_cylinder_counts_full_shift(bsys):
    assert cylinder_count(bsys, 1) == 3
    assert cylinder_count(bsys, 6) == 729
    for n in range(1, 11):
        assert cylinder_count(bsys, n) == 3**n


def test_cylinder_counts_one_pass(bsys, bsys5, monkeypatch):
    assert cylinder_counts(bsys, 10) == [3**n for n in range(1, 11)]
    assert cylinder_counts(bsys5, 6) == [5**n for n in range(1, 7)]
    # one proof per system, kept for every later count: per branch one
    # derivative enclosure over A_i and two value-only images of its ends;
    # a refused depth proves nothing
    calls = []

    def counted(period, c, eps=1.0):
        if isinstance(c, Jet):
            calls.append(("slope", eps))
        elif isinstance(c, Interval):
            calls.append(("image", eps))
        return return_map(period, c, eps)

    monkeypatch.setattr(horseshoe, "return_map", counted)
    b = replace(bsys)  # a copy without the cached proof
    with pytest.raises(ValueError):
        cylinder_counts(b, 40)
    assert calls == []
    for n in range(1, 9):
        assert cylinder_count(b, n) == 3**n
    assert calls == [(kind, e) for e in bsys.epsilons for kind in ("slope", "image", "image")]


@pytest.mark.parametrize("kind", ["repeated", "overlapping"])
def test_cylinder_count_refuses_non_disjoint_domains(bsys, kind):
    # both systems pass the cover check; without the disjointness check
    # each counted [3, 9, 27, 81], a full shift that is not there
    if kind == "repeated":
        b = BranchSystem((1.0,) * 3, (bsys.reports[1],) * 3, (bsys.domains[1],) * 3)
    else:
        d0, d1, d2 = bsys.domains
        b = BranchSystem(bsys.epsilons, bsys.reports, ((d0[0], 0.5 * (d1[0] + d1[1])), d1, d2))
    for n in (1, 4):
        with pytest.raises(RuntimeError, match="not disjoint and increasing"):
            cylinder_count(b, n)
        with pytest.raises(RuntimeError, match="not disjoint and increasing"):
            cylinder_counts(b, n)


def test_certificate_refuses_domains_outside_the_base(bsys):
    # A_0 moved below the widened base, still disjoint from A_1
    (a, z), d1, d2 = bsys.domains
    b = replace(bsys, domains=((a - 4 * MARGIN, z - 4 * MARGIN), d1, d2))
    with pytest.raises(NotAHorseshoe, match="leave the base"):
        cylinder_count(b, 3)


def test_certificate_refuses_a_branch_that_misses_the_base(bsys):
    # A_1 shrunk by 1e-8 at its low end: R_1 ~ 57 puts its image end about
    # 6e-7 above the base end, far more than MARGIN
    d0, (a, z), d2 = bsys.domains
    b = replace(bsys, domains=(d0, (a + 1e-8, z), d2))
    assert b.map(1, a + 1e-8) - b.base[0] > 100 * MARGIN
    with pytest.raises(NotAHorseshoe, match="does not cover the base"):
        cylinder_count(b, 3)


def test_certificate_refuses_a_slope_below_one(bsys, monkeypatch):
    def flat(period, c, eps=1.0):
        r = return_map(period, c, eps)
        return Jet(r.val, r.der * (0.9 / r.der.hi)) if isinstance(c, Jet) else r

    monkeypatch.setattr(horseshoe, "return_map", flat)
    with pytest.raises(NotAHorseshoe, match="is not above 1"):
        cylinder_count(replace(bsys), 3)


def test_certificate_refuses_a_branch_across_the_s2_pole(bsys):
    # a hand-built branch whose domain reaches below the s2 pole at c ~ 0.352:
    # a typed refusal, never a division by an interval around 0
    with pytest.raises(DivisionGuard):
        return_map(Period.THREE, Jet(Interval(0.3, 0.45), Interval(1.0, 1.0)), 1.0)
    b = BranchSystem((1.0,), bsys.reports[1:2], ((0.3, 0.45),))
    with pytest.raises(NotAHorseshoe):
        cylinder_count(b, 1)
    # with a base around it, (a) holds and the s2 floor is what fails
    rep = bsys.reports[1]
    reports = (replace(rep, c_star=0.29), replace(rep, c_star=0.46))
    b = BranchSystem((1.0, 0.99), reports, ((0.3, 0.45), (0.455, 0.458)))
    with pytest.raises(NotAHorseshoe, match="branch 0 is not smooth"):
        cylinder_count(b, 1)


def test_certified_slopes(bsys, bsys5):
    for b in (bsys, bsys5):
        assert len(b.slopes) == b.alphabet
        for s, rep in zip(b.slopes, b.reports):
            assert 50.0 < s.lo < rep.derivative_estimate < s.hi < 65.0


def test_entropy_estimate(bsys):
    assert abs(entropy_estimate(bsys, 10) - np.log(3.0)) < 0.01


def test_alphabet_four(bsys4):
    for n in range(1, 6):
        assert cylinder_count(bsys4, n) == 4**n
    assert abs(entropy_estimate(bsys4, 5) - np.log(4.0)) < 0.01


def test_alphabet_five(bsys5):
    for n in range(1, 7):
        assert cylinder_count(bsys5, n) == 5**n
    assert abs(entropy_estimate(bsys5, 6) - np.log(5.0)) < 0.01


def test_count_limit(bsys2, bsys, bsys4, bsys5):
    # counts stay within MAX_COUNT, 2^63 - 1; past that, a ValueError
    # naming the limit, before any proof; an n far past it is refused as
    # quickly, without raising m to it
    for b, limit in ((bsys2, 62), (bsys, 39), (bsys4, 31), (bsys5, 27)):
        m = b.alphabet
        assert cylinder_count(b, limit) == m**limit
        assert m ** (limit + 1) > horseshoe.MAX_COUNT
        for n in (limit + 1, 64, 10**12):
            with pytest.raises(ValueError) as err:
                cylinder_count(b, n)
            assert str(err.value) == (
                f"{m}^{n} cylinders exceed the count limit 2^63 - 1: "
                f"need n <= {limit} for {m} letters"
            )
    with pytest.raises(ValueError, match="2\\^63 - 1"):
        entropy_estimate(bsys, 41)
    with pytest.raises(ValueError, match="n >= 1"):
        cylinder_counts(bsys, 0)


def test_entropies_are_numpys_log_bitwise():
    # horseshoe's entropy_estimates (math.log(count) / n) and ln_alphabet
    # (math.log(m)) print what numpy's float64 log printed, for every m^n
    # count up to the limit of 2 to 1000 letters: 7229 entropies and 999
    # alphabet logs
    checked = 0
    for m in range(2, 1001):
        assert math.log(m) == float(np.log(m))
        checked += 1
        n, count = 1, m
        while count <= horseshoe.MAX_COUNT:
            assert math.log(count) / n == float(np.log(count) / n), (m, n)
            n, count = n + 1, count * m
            checked += 1
    assert checked == 8228


def test_symbol_sequence_constant_word_is_stationary(bsys, rep3):
    seq = symbol_scaling_sequence(bsys, Word((1,) * 8))
    for lv in seq.levels(8):
        assert lv.eps == 1.0
        assert lv.c == pytest.approx(rep3.c_star, abs=1e-11)


def test_symbol_sequence_proper(bsys):
    seq = symbol_scaling_sequence(bsys, Word((0, 1, 2) * 2))
    margin, decay = verify_proper(build_tower(seq, 6))
    assert margin > 0.0 and decay


def test_symbol_sequence_shift_identity(bsys):
    seq = symbol_scaling_sequence(bsys, Word((0, 1, 2, 0, 1, 2)))
    assert shift_residual(seq, 5).sup_norm <= 1e-9


@pytest.mark.parametrize("name", ["bsys", "bsys5"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_shift_identity_on_random_words(request, name, data):
    # R f_s = f_{sigma(s)} on drawn words over the 3- and the 5-letter
    # system: the pulled family's branch values at eps != 1, level by level
    b = request.getfixturevalue(name)
    m = len(b.epsilons)
    symbols = data.draw(st.lists(st.integers(0, m - 1), min_size=6, max_size=10))
    seq = symbol_scaling_sequence(b, Word(tuple(symbols), m))
    assert shift_residual(seq, 6).sup_norm <= 1e-9


def test_coded_orbit_consistency(bsys):
    word = Word((2, 0, 1, 1, 0, 2, 1, 0))
    xs = coded_orbit(bsys, word, 6)
    letters = word.cyclic(6)
    for n in range(5):
        assert bsys.map(letters[n], xs[n]) == pytest.approx(xs[n + 1], abs=1e-11)


def test_dense_orbit_word_lengths():
    assert dense_orbit_word(1).symbols == (0, 1, 2)
    w2 = dense_orbit_word(2)
    assert len(w2) == 3 + 2 * 9


def test_dense_orbit_word_contains_all_blocks():
    w2 = dense_orbit_word(2).symbols
    pairs = {(a, b) for a, b in zip(w2[:-1], w2[1:])}
    assert pairs == {(a, b) for a in range(3) for b in range(3)}


def test_dense_orbit_visits_all_two_cylinders(bsys):
    word = dense_orbit_word(2)
    n = len(word)
    xs = coded_orbit(bsys, word, n)
    letters = word.cyclic(n)
    seen = set()
    for k in range(n - 1):
        seen.add((letters[k], letters[k + 1]))
        # the coded point lies in the branch domain its symbol names
        a, b = bsys.domains[letters[k]]
        assert a - 1e-9 <= xs[k] <= b + 1e-9
    assert len(seen) == 9


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 3))
    with pytest.raises(ValueError):
        Word((0, 1), alphabet=1)


def _backward_fixed_64(b, letters):
    x = 0.5 * (b.base[0] + b.base[1])
    xs = [0.0] * len(letters)
    for n in range(len(letters) - 1, -1, -1):
        x = float(_invert_fixed_64(b, letters[n], x))
        xs[n] = x
    return xs


@pytest.mark.parametrize("name, depth", [("bsys2", 14), ("bsys", 10), ("bsys4", 5), ("bsys5", 6)])
def test_cylinder_levels_bitwise_fixed_64(request, name, depth):
    # nested cylinder endpoints from the A_i down to depth by the fixed-64
    # reference; _invert_point gives sampled lanes of every level bitwise,
    # the extreme first and last ones included
    b = request.getfixturevalue(name)
    rng = np.random.default_rng(60 + b.alphabet)
    ends = np.array([x for d in b.domains for x in d])
    for _ in range(depth - 1):
        level = [_invert_fixed_64(b, i, ends) for i in range(b.alphabet)]
        for i, xs in enumerate(level):
            for k in {0, len(ends) - 1, *rng.integers(0, len(ends), 8)}:
                assert np.float64(_invert_point(b, i, ends[k])).tobytes() == xs[k].tobytes()
        ends = np.concatenate(level)


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys4", "bsys5", "bsys_wide"])
def test_resolved_cylinder_levels(request, name):
    # the certificate's counts and slope bounds against measured cylinders,
    # at every level binary64 resolves (k <= 5 for each of these systems)
    b = request.getfixturevalue(name)
    levels, bounds = resolved_levels(b)
    assert [k for k, _ in levels] == [1, 2, 3, 4, 5]
    counts = cylinder_counts(b, len(levels))
    for k, widths in levels:
        assert np.count_nonzero(widths > 0.0) == b.alphabet**k == counts[k - 1]
        assert widths_within_bounds(b, k, widths, bounds)


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys4", "bsys5"])
def test_codings_bitwise_fixed_64(request, name):
    b = request.getfixturevalue(name)
    m = b.alphabet
    rng = np.random.default_rng(40 + m)
    for _ in range(4):
        word = Word(tuple(int(x) for x in rng.integers(0, m, size=10)), m)
        ref = _backward_fixed_64(b, word.symbols)
        cod = code_to_point(b, word, 10)
        assert np.float64(cod.c_alpha).tobytes() == np.float64(ref[0]).tobytes()
        resid = abs(b.map(word.symbols[0], ref[0]) - ref[1])
        assert np.float64(cod.residual).tobytes() == np.float64(resid).tobytes()
        orbit = coded_orbit(b, word, 8)
        ref = _backward_fixed_64(b, word.cyclic(8 + CODING_PAD))[:8]
        assert np.array(orbit).tobytes() == np.array(ref).tobytes()


def _count_evaluations(monkeypatch):
    """The list of eps values of every R evaluation _invert_point makes on
    a period-three system: each is a call of the period's float kernel."""
    steps = []
    real_kernel = Period.THREE.r_kernel

    def counting_kernel(c, eps):
        steps.append(eps)
        return real_kernel(c, eps)

    monkeypatch.setattr(Period.THREE, "r_kernel", counting_kernel)
    return steps


def test_inversion_stops_before_the_cap(bsys, monkeypatch):
    # the A_i are ~1e-5 wide, so the bisection stops moving well before 64
    # steps; a copy starts with an empty memo, whatever ran on bsys before
    b = replace(bsys)
    steps = _count_evaluations(monkeypatch)
    _invert_point(b, 1, 0.5 * (b.base[0] + b.base[1]))
    assert 0 < len(steps) < 64


def test_repeated_inversion_evaluates_nothing(bsys, monkeypatch):
    b = replace(bsys)
    y = 0.5 * (b.base[0] + b.base[1])
    x = _invert_point(b, 1, y)
    steps = _count_evaluations(monkeypatch)
    assert _invert_point(b, 1, y).hex() == x.hex()
    assert steps == []


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys5"])
def test_warmed_memo_codes_bitwise(request, name):
    # codings on a system whose memo other words filled equal those on a
    # fresh copy and the fixed-64 reference
    b = request.getfixturevalue(name)
    m = b.alphabet
    rng = np.random.default_rng(120 + m)
    warm = replace(b)
    for _ in range(6):
        coded_orbit(warm, Word(tuple(int(x) for x in rng.integers(0, m, size=12)), m), 6)
    assert all(warm._nodes)
    for _ in range(4):
        word = Word(tuple(int(x) for x in rng.integers(0, m, size=10)), m)
        ref = _backward_fixed_64(b, word.symbols)[0]
        ref_orbit = [x.hex() for x in _backward_fixed_64(b, word.cyclic(8 + CODING_PAD))[:8]]
        for system in (warm, replace(b)):
            assert code_to_point(system, word, 10).c_alpha.hex() == ref.hex()
            assert [x.hex() for x in coded_orbit(system, word, 8)] == ref_orbit


def test_memo_is_per_branch(bsys):
    # two branches on one domain with different eps: a node's R belongs to
    # its branch, so a memo shared between branches would answer wrongly
    b = BranchSystem(bsys.epsilons[:2], bsys.reports[:2], (bsys.domains[1],) * 2)
    y = 0.5 * (bsys.base[0] + bsys.base[1])
    for i in (0, 1):
        x = _invert_point(b, i, y)
        assert np.float64(x).tobytes() == _invert_fixed_64(b, i, [y])[0].tobytes()


def test_capped_memo_stays_bitwise(bsys, monkeypatch):
    # past the cap nodes are evaluated, not stored; results do not change
    monkeypatch.setattr(horseshoe, "NODE_CAP", 8)
    b = replace(bsys)
    rng = np.random.default_rng(7)
    for _ in range(4):
        word = Word(tuple(int(x) for x in rng.integers(0, 3, size=10)), 3)
        ref = _backward_fixed_64(bsys, word.cyclic(6 + CODING_PAD))[:6]
        assert np.array(coded_orbit(b, word, 6)).tobytes() == np.array(ref).tobytes()
    assert [len(memo) for memo in b._nodes] == [8, 8, 8]


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys4", "bsys5"])
def test_invert_point_is_bitwise_one_lane(request, name):
    b = request.getfixturevalue(name)
    lo, hi = b.base
    span = hi - lo
    rng = np.random.default_rng(80 + b.alphabet)
    # seeded points of the base, both base ends, and points outside every
    # branch image, whose lanes collapse onto an end of A_i
    below, above = lo - span, hi + span
    ys = list(rng.uniform(lo, hi, 12)) + [lo, hi, below, above, 0.0, 1.0]
    lanes = [(i, y) for i in range(b.alphabet) for y in ys]
    points = [_invert_point(b, i, y) for i, y in lanes]
    for (i, y), x in zip(lanes, points):
        assert np.float64(x).tobytes() == _invert_fixed_64(b, i, [y])[0].tobytes()
    for i, (a, z) in enumerate(b.domains):
        assert _invert_point(b, i, below) == pytest.approx(a, abs=1e-15)
        assert _invert_point(b, i, above) == pytest.approx(z, abs=1e-15)


def test_invert_point_reads_the_guard_as_the_array_nan(bsys):
    # a hand-built branch whose domain reaches below the s2 pole at
    # c ~ 0.352: the scalar raise must steer the bisection as NaN does
    with pytest.raises(DivisionGuard):
        bsys.map(1, 0.3)
    b = BranchSystem((1.0,), bsys.reports[1:2], ((0.3, 0.45),))
    for _ in range(2):  # the second pass reads the guard from the memo
        for y in (0.0, 0.44, 50.0):
            x = _invert_point(b, 0, y)
            assert np.float64(x).tobytes() == _invert_fixed_64(b, 0, [y])[0].tobytes()
    assert any(np.isnan(r) for r in b._nodes[0].values())


def test_branch_system_reads_its_period_from_its_reports(rep5):
    # a one-letter system on the period-five fixed point: the branch map
    # and its inversion must evaluate R for p = 5, read off the report
    c = rep5.c_star
    b = BranchSystem((1.0,), (rep5,), ((c - 1e-4, c + 1e-4),))

    def r5(x):
        return return_map(Period.FIVE, x)

    for x in (c - 5e-5, c, c + 5e-5):
        assert b.map(0, x).hex() == r5(x).hex()
    # the fixed 64-step bisection of _invert_fixed_64, on R for p = 5
    for y in (r5(c - 3e-5), c, r5(c + 7e-5)):
        lo, hi = b.domains[0]
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if r5(mid) < y:
                lo = mid
            else:
                hi = mid
        assert _invert_point(b, 0, y).hex() == (0.5 * (lo + hi)).hex()


def test_words_over_another_alphabet_are_refused(bsys):
    # every entry point refuses the word before a letter indexes a branch:
    # letters past the system's alphabet, or a smaller alphabet's word
    msg = "word alphabet does not match the branch system"
    with pytest.raises(ValueError, match=msg):
        code_to_point(bsys, Word((4, 1), 5), 2)
    with pytest.raises(ValueError, match=msg):
        coded_orbit(bsys, Word((4,), 5), 3)
    with pytest.raises(ValueError, match=msg):
        code_to_point(bsys, Word((1, 1), 2), 2)
    with pytest.raises(ValueError, match=msg):
        coded_orbit(bsys, Word((1, 1), 2), 2)
    with pytest.raises(ValueError, match=msg):
        symbol_scaling_sequence(bsys, Word((1, 1), 2))


class _CountingMemo(dict):
    """A node memo that logs every key _invert_point looks up."""

    def __init__(self):
        super().__init__()
        self.gets = []

    def get(self, key, default=None):
        self.gets.append(key)
        return super().get(key, default)


def _counting_copy(b):
    copy = replace(b)
    copy.__dict__["_nodes"] = tuple(_CountingMemo() for _ in b.epsilons)
    return copy


def _nodes_to(domain, key):
    """The bisection nodes from A_i's midpoint down to the node key."""
    lo, hi = domain
    path = []
    while True:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if mid == key:
            return path
        assert mid != lo and mid != hi and len(path) < 64, f"{key!r} is not a node"
        if key < mid:
            hi = mid
        else:
            lo = mid


def _node_path(b, i, y):
    """Every node the 64-step bisection for y evaluates, in order."""
    lo, hi = b.domains[i]
    path = []
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        path.append(mid)
        try:
            r = b.map(i, mid)
        except DivisionGuard:
            r = np.nan
        if r < y:
            lo = mid
        else:
            hi = mid
    return path


@pytest.mark.parametrize("cap", [horseshoe.NODE_CAP, 40])
def test_no_stored_node_lies_below_a_missing_one(bsys, monkeypatch, cap):
    # nodes are stored top-down and the memo only grows: every stored
    # node's ancestors are stored, also once a small cap stops the stores
    monkeypatch.setattr(horseshoe, "NODE_CAP", cap)
    b = _counting_copy(bsys)
    rng = np.random.default_rng(31)
    for _ in range(8):
        coded_orbit(b, Word(tuple(int(x) for x in rng.integers(0, 3, size=10)), 3), 6)
    for i, memo in enumerate(b._nodes):
        assert 0 < len(memo) <= cap
        for key in memo:
            assert all(node in memo for node in _nodes_to(b.domains[i], key))


def test_lookups_stop_at_the_first_miss(bsys, monkeypatch):
    # the looked-up keys are the path's nodes down to its first miss and
    # no further; every node below it is evaluated, none looked up
    b = _counting_copy(bsys)
    steps = _count_evaluations(monkeypatch)
    rng = np.random.default_rng(32)
    lo, hi = b.base
    misses = 0
    for y in [*rng.uniform(lo, hi, 24), lo, hi, lo - 1.0, hi + 1.0]:
        for i, memo in enumerate(b._nodes):
            before = set(memo)
            path = _node_path(bsys, i, y)
            memo.gets.clear()
            del steps[:]
            x = _invert_point(b, i, y)
            assert np.float64(x).tobytes() == _invert_fixed_64(bsys, i, [y])[0].tobytes()
            first_miss = next((k for k, node in enumerate(path) if node not in before), None)
            if first_miss is None:
                assert memo.gets == path and steps == []
            else:
                misses += 1
                assert memo.gets == path[: first_miss + 1]
                assert len(steps) == len(path) - first_miss
    assert misses > 0


def test_shift_residual_builds_one_tower_for_the_shifted_sequence(bsys, monkeypatch):
    seq = symbol_scaling_sequence(bsys, Word((0, 2, 1, 1, 0, 2)))
    want = shift_residual(seq, 6)
    seen = []
    real_residual = pwa._residual_at_endpoints
    monkeypatch.setattr(pwa, "_residual_at_endpoints", lambda rf, g: seen.append((rf, g)) or real_residual(rf, g))
    built = []
    real_tower = pwa.build_tower
    monkeypatch.setattr(pwa, "build_tower", lambda s, d: built.append(d) or real_tower(s, d))
    got = shift_residual(seq, 6)
    assert built == [6, 5]  # f's tower and the shifted one, which R f shares
    assert got.sup_norm.hex() == want.sup_norm.hex()
    assert got.evaluation_points == want.evaluation_points
    rf, g = seen[0]
    assert rf.tower is g.tower
    ref = build_tower(seq.shift(), 5)
    for name in field_names(ref):
        assert repr(getattr(g.tower, name)) == repr(getattr(ref, name)), name
    # R f is renormalize's map, branch by branch
    alone = pwa.renormalize(pwa.build_pwa(seq, 6))
    assert repr(rf.branches) == repr(alone.branches)
    assert (rf.seq, rf.c0.hex(), rf.period) == (alone.seq, alone.c0.hex(), alone.period)
    for depth in (2, 1, 0):
        with pytest.raises(ValueError, match="depth must be >= 2"):
            shift_residual(seq, depth)
