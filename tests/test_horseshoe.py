import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from renorm.interval import Interval, Jet, widen
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
from reference_inversions import INVERSION_HEXES
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
    # float-bound pass over A_i, whose eta bounds the image ends from the
    # float kernel; a refused depth proves nothing
    calls = []
    real_bounds = Period.THREE.r_bounds

    def counted(a, z, eps):
        calls.append(("slope" if a < z else "image", eps))
        return real_bounds(a, z, eps)

    monkeypatch.setattr(Period.THREE, "r_bounds", counted)
    b = replace(bsys)  # a copy without the cached proof
    with pytest.raises(ValueError):
        cylinder_counts(b, 40)
    assert calls == []
    for n in range(1, 9):
        assert cylinder_count(b, n) == 3**n
    assert calls == [("slope", e) for e in bsys.epsilons]


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
    real_bounds = Period.THREE.r_bounds

    def flat(a, z, eps):
        lo, hi, dlo, dhi, eta = real_bounds(a, z, eps)
        return lo, hi, dlo * (0.9 / dhi), 0.9, eta

    monkeypatch.setattr(Period.THREE, "r_bounds", flat)
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
@settings(settings.get_profile("bitwise"), max_examples=40)
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
    # steps
    b = replace(bsys)
    steps = _count_evaluations(monkeypatch)
    _invert_point(b, 1, 0.5 * (b.base[0] + b.base[1]))
    assert 0 < len(steps) < 64


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys5"])
def test_warmed_memo_codes_bitwise(request, name):
    # codings on a system that coded other words first equal those on a
    # fresh copy and the fixed-64 reference
    b = request.getfixturevalue(name)
    m = b.alphabet
    rng = np.random.default_rng(120 + m)
    warm = replace(b)
    for _ in range(6):
        coded_orbit(warm, Word(tuple(int(x) for x in rng.integers(0, m, size=12)), m), 6)
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


def test_invert_point_reads_the_guard_as_the_array_nan(bsys, monkeypatch):
    # a hand-built branch whose domain reaches below the s2 pole at
    # c ~ 0.352: the scalar raise must steer the bisection as NaN does
    with pytest.raises(DivisionGuard):
        bsys.map(1, 0.3)
    b = BranchSystem((1.0,), bsys.reports[1:2], ((0.3, 0.45),))
    guards = []
    real_kernel = Period.THREE.r_kernel

    def guarded_kernel(c, eps):
        try:
            return real_kernel(c, eps)
        except DivisionGuard:
            guards.append(c)
            raise

    monkeypatch.setattr(Period.THREE, "r_kernel", guarded_kernel)
    for y in (0.0, 0.44, 50.0):
        x = _invert_point(b, 0, y)
        assert np.float64(x).tobytes() == _invert_fixed_64(b, 0, [y])[0].tobytes()
    assert guards  # the bisection met the guard


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


# The bounded inversion: recorded bits, the kernel error bound eta against
# 40-digit mpmath, a negative control and the failed-proof path.
_SYSTEMS = {2: "bsys2", 3: "bsys", 5: "bsys5"}


def _recorded(request, epsilons):
    b = request.getfixturevalue(_SYSTEMS[len(epsilons)])
    assert b.epsilons == epsilons
    return b, INVERSION_HEXES[epsilons]


def _misses(b, record) -> int:
    """How many recorded inversions of b _invert_point does not reproduce."""
    return sum(_invert_point(b, i, float.fromhex(y)).hex() != x
               for i, branch in enumerate(record) for y, x in branch)


@pytest.mark.parametrize("epsilons", sorted(INVERSION_HEXES))
def test_inversions_are_bitwise_the_recorded_bisection(request, epsilons, monkeypatch):
    # every recorded target, the base's ends, its midpoint, 50 seeded
    # interior ones and two outside it, per branch; the interior ones are
    # bracketed by the error band and skip most nodes (the plain bisection
    # evaluates about 37)
    b, record = _recorded(request, epsilons)
    assert _misses(replace(b), record) == 0
    steps = _count_evaluations(monkeypatch)
    for i, branch in enumerate(record):
        for y, _ in branch[3:-2]:
            del steps[:]
            _invert_point(b, i, float.fromhex(y))
            assert 4 <= len(steps) <= 20


def test_inversions_differ_with_an_error_bound_below_the_kernel_error(request, monkeypatch):
    # the negative control: eta/40, about a quarter of the kernel's largest
    # error seen against mpmath, makes the band about one ulp, so some
    # skipped node is decided the wrong way and some of 20,000 inversions
    # miss the plain bisection's bits.  (eta/100 gives a band under half
    # an ulp: x_L = x^ = x_R, no bracket holds, every node is evaluated.)
    real_bounds = Period.THREE.r_bounds

    def small(a, z, eps):
        *bounds, eta = real_bounds(a, z, eps)
        return (*bounds, eta / 40.0)

    monkeypatch.setattr(Period.THREE, "r_bounds", small)
    misses = 0
    for name in _SYSTEMS.values():
        b = request.getfixturevalue(name)
        rng = np.random.default_rng(4100 + b.alphabet)
        small_b = replace(b)
        for i in range(b.alphabet):
            ys = rng.uniform(*b.base, 2000)
            ref = _invert_fixed_64(b, i, ys)
            misses += sum(_invert_point(small_b, i, float(y)) != x for y, x in zip(ys, ref))
    assert misses > 0


def _r40(x: float, eps: float):
    """R(x, eps) from the 40-digit orbit, as tests/make_reference.py's R3eps."""
    with mp.workdps(40):
        c, e = mp.mpf(x), mp.mpf(eps)
        u = lambda t: 1 - ((t - c) / (1 - c)) ** 2
        o1 = u(mp.mpf(0))
        o3 = u(u(o1))
        top = u(e * o3)
        return (top - c) / (top - o1)


@pytest.mark.parametrize("name", sorted(_SYSTEMS.values()))
def test_eta_bounds_the_kernel_error_against_mpmath(request, name):
    # at 200 seeded floats of each widened A_i the float kernel lies within
    # eta of the 40-digit R; the band is 2*eta/inf R', rounded up
    b = request.getfixturevalue(name)
    rng = np.random.default_rng(4000 + b.alphabet)
    for i, ((slope, window), e) in enumerate(zip(b._proof, b.epsilons)):
        a, z, band = window
        assert (a, z) == (b.domains[i][0] - 0.5 * MARGIN, b.domains[i][1] + 0.5 * MARGIN)
        *_, eta = Period.THREE.r_bounds(a, z, e)
        assert 0.0 < eta < 1e-12 and band == math.nextafter(2.0 * eta / slope.lo, math.inf)
        with mp.workdps(40):
            for x in rng.uniform(a, z, 200):
                x = float(x)
                assert abs(mp.mpf(b.map(i, x)) - _r40(x, e)) <= eta


def test_a_failed_proof_codes_by_full_bisection_and_runs_once(bsys, monkeypatch):
    # A_1 shrunk at its low end fails the cover check after branch 0's
    # pass and branch 1's; later counts refuse it without a second pass,
    # and coding evaluates every node, bitwise the fixed-64 bisection
    d0, (a, z), d2 = bsys.domains
    b = replace(bsys, domains=(d0, (a + 1e-8, z), d2))
    passes = []
    real_bounds = Period.THREE.r_bounds
    monkeypatch.setattr(Period.THREE, "r_bounds", lambda *args: passes.append(args) or real_bounds(*args))
    for n in (1, 3, 1):
        with pytest.raises(NotAHorseshoe, match="does not cover the base"):
            cylinder_counts(b, n)
    assert len(passes) == 2
    steps = _count_evaluations(monkeypatch)
    word = Word((1, 0, 2, 1, 1, 0, 2, 2), 3)
    assert code_to_point(b, word, 8).c_alpha.hex() == _backward_fixed_64(b, word.symbols)[0].hex()
    assert len(passes) == 2 and len(steps) > 8 * 30


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys4", "bsys5", "bsys_wide"])
def test_eta_bounds_the_kernel_error_at_the_widened_ends(request, name):
    # the proof's image ends: at both ends of each widened A_i the float
    # kernel's value, eta either side and rounded outward, encloses the
    # 40-digit R, which the uniform draws above need not reach
    b = request.getfixturevalue(name)
    for i, ((_, (a, z, _)), e) in enumerate(zip(b._proof, b.epsilons)):
        *_, eta = Period.THREE.r_bounds(a, z, e)
        assert 0.0 < eta < 1e-12
        for x in (a, z):
            r = b.map(i, x)
            lo, hi = widen(r - eta, r + eta)
            with mp.workdps(40):
                assert lo <= _r40(x, e) <= hi


def _point_pass_message(b, i):
    """The cover check's message for branch i of b from a float-bound pass
    at each widened end of A_i, or None where those passes prove it."""
    a, z = b.domains[i][0] - 0.5 * MARGIN, b.domains[i][1] + 0.5 * MARGIN
    e = b.epsilons[i]
    img_lo, img_hi = Period.THREE.r_bounds(a, a, e)[1], Period.THREE.r_bounds(z, z, e)[0]
    if img_lo <= b.base[0] - MARGIN and img_hi >= b.base[1] + MARGIN:
        return None
    return f"branch {i} image [{img_lo}, {img_hi}] does not cover the base"


def _counted_passes(monkeypatch, eta=None):
    """The list of every float-bound pass's (a, z); eta, where given,
    replaces every pass's bound on the kernel error."""
    passes = []
    real_bounds = Period.THREE.r_bounds

    def counted(a, z, e):
        passes.append((a, z))
        *bounds, real_eta = real_bounds(a, z, e)
        return (*bounds, real_eta if eta is None else eta)

    monkeypatch.setattr(Period.THREE, "r_bounds", counted)
    return passes


@pytest.mark.parametrize("shrunk", [False, True])
def test_an_infinite_eta_fails_the_proof(bsys, monkeypatch, shrunk):
    # with no bound on the kernel error the first branch's pass fails the
    # proof with its own message, before A_1's cover is looked at, and
    # later counts refuse the system without a second proof
    b = bsys
    if shrunk:
        d0, (a, z), d2 = bsys.domains
        b = replace(bsys, domains=(d0, (a + 1e-8, z), d2))
    passes = _counted_passes(monkeypatch, eta=math.inf)
    b = replace(b)  # a copy without the cached proof
    for n in (3, 1, 3):
        with pytest.raises(NotAHorseshoe, match=re.escape("branch 0 kernel error bound inf is not finite on A_0")):
            cylinder_count(b, n)
    assert passes == [(bsys.domains[0][0] - 0.5 * MARGIN, bsys.domains[0][1] + 0.5 * MARGIN)]


def _kernel_bound_message(b, i):
    """The cover check's message for branch i of b from the float kernel at
    each widened end of A_i, eta of A_i's pass either side and rounded
    outward, or None where that bound proves it."""
    a, z = b.domains[i][0] - 0.5 * MARGIN, b.domains[i][1] + 0.5 * MARGIN
    e = b.epsilons[i]
    *_, eta = Period.THREE.r_bounds(a, z, e)
    ra, rz = Period.THREE.r_kernel(a, e), Period.THREE.r_kernel(z, e)
    img_lo, img_hi = widen(ra - eta, ra + eta)[1], widen(rz - eta, rz + eta)[0]
    if img_lo <= b.base[0] - MARGIN and img_hi >= b.base[1] + MARGIN:
        return None
    return f"branch {i} image [{img_lo}, {img_hi}] does not cover the base"


def test_an_image_end_within_eta_of_the_base_fails_by_the_kernel_bound(bsys, monkeypatch):
    # A_1's low end bisected until its widened end's kernel image is the
    # first float above the widened base end: inside it by less than eta,
    # so the kernel bound cannot prove the cover and the proof fails with
    # its numbers after branch 0's pass and branch 1's, and no other
    r_kernel, e = Period.THREE.r_kernel, bsys.epsilons[1]
    lo = bsys.base[0] - MARGIN
    d0, (x_lo, z), d2 = bsys.domains
    x_hi = x_lo + 1e-10
    assert r_kernel(x_lo - 0.5 * MARGIN, e) <= lo < r_kernel(x_hi - 0.5 * MARGIN, e)
    while (mid := 0.5 * (x_lo + x_hi)) not in (x_lo, x_hi):
        if r_kernel(mid - 0.5 * MARGIN, e) <= lo:
            x_lo = mid
        else:
            x_hi = mid
    b = replace(bsys, domains=(d0, (x_hi, z), d2))
    a = x_hi - 0.5 * MARGIN
    *_, eta = Period.THREE.r_bounds(a, z + 0.5 * MARGIN, e)
    assert 0.0 < r_kernel(a, e) - lo < eta
    message = _kernel_bound_message(b, 1)
    assert message is not None and _kernel_bound_message(b, 0) is None
    passes = _counted_passes(monkeypatch)
    with pytest.raises(NotAHorseshoe, match=re.escape(message)):
        cylinder_count(b, 3)
    assert passes[1] == (a, z + 0.5 * MARGIN) and len(passes) == 2


def _stepped_ends(b, i, side, steps, ulps):
    """Systems like b with A_i's end on side (0 low, 1 high) stepped ulps
    floats at a time, steps times each way, about the end at which its
    widened end's kernel image meets the widened base end; index 0 is
    the innermost (A_i shortest)."""
    r_kernel, e = Period.THREE.r_kernel, b.epsilons[i]
    target = (b.base[0] - MARGIN, b.base[1] + MARGIN)[side]
    shift = 0.5 * MARGIN if side == 0 else -0.5 * MARGIN
    x_lo, x_hi = b.domains[i][side] - 1e-10, b.domains[i][side] + 1e-10
    while (mid := 0.5 * (x_lo + x_hi)) not in (x_lo, x_hi):
        if r_kernel(mid - shift, e) <= target:
            x_lo = mid
        else:
            x_hi = mid
    step = ulps * math.ulp(x_lo) * (1 if side == 0 else -1)
    out = []
    for k in range(steps, -steps - 1, -1):
        domains = list(b.domains)
        end = list(domains[i])
        end[side] = x_lo + k * step
        domains[i] = tuple(end)
        out.append(replace(b, domains=tuple(domains)))
    return out


@pytest.mark.parametrize("name", ["bsys2", "bsys", "bsys4", "bsys5", "bsys_wide"])
def test_the_kernel_bound_proves_every_cover_the_end_passes_prove(request, name):
    # each A_i end stepped 3 floats at a time across 300 floats either side
    # of where its widened end's kernel image meets the widened base end:
    # wherever a pass at each widened end (the reference, the proof's former
    # cover test) proves the cover, the proof proves it from the kernel
    # bound alone.  Both tests fail at the innermost end and hold at the
    # outermost, so the span holds where each changes its answer
    b = request.getfixturevalue(name)
    for i in range(b.alphabet):
        for side in (0, 1):
            stepped = _stepped_ends(b, i, side, 100, 3)
            assert _point_pass_message(stepped[0], i) is not None
            assert stepped[0]._proof.startswith(f"branch {i} image ")
            assert _point_pass_message(stepped[-1], i) is None
            for s in stepped:
                if _point_pass_message(s, i) is None:
                    assert not isinstance(s._proof, str), (i, side, s.domains[i])
