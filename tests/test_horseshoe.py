import numpy as np
import pytest

from renorm.pwa import shift_residual
from renorm.scaling import DivisionGuard
from renorm.tower import build_tower, verify_proper
from renorm import horseshoe
from renorm.horseshoe import (
    CODING_PAD,
    LANE_BLOCK,
    BranchSystem,
    Word,
    _invert_branch,
    _invert_point,
    _next_level,
    build_branch_system,
    code_to_point,
    coded_orbit,
    cylinder_count,
    cylinder_counts,
    dense_orbit_word,
    entropy_estimate,
    symbol_scaling_sequence,
)
from reference_values import C3_STAR, C_EPS_098, C_EPS_102


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
    # one nesting step per level, and a refused depth nests nothing
    calls = []
    real_next = _next_level

    def counting_next(b, los, his):
        calls.append(len(los))
        return real_next(b, los, his)

    monkeypatch.setattr("renorm.horseshoe._next_level", counting_next)
    assert cylinder_count(bsys, 6) == 729
    assert calls == [3**n for n in range(1, 6)]
    calls.clear()
    with pytest.raises(ValueError):
        cylinder_counts(bsys5, 10)
    assert calls == []


@pytest.mark.parametrize("kind", ["repeated", "overlapping"])
def test_cylinder_count_refuses_non_disjoint_domains(bsys, kind, monkeypatch):
    # both systems pass the cover check; without the disjointness check
    # each counted [3, 9, 27, 81], a full shift that is not there
    if kind == "repeated":
        b = BranchSystem((1.0,) * 3, (bsys.reports[1],) * 3, (bsys.domains[1],) * 3)
    else:
        d0, d1, d2 = bsys.domains
        b = BranchSystem(bsys.epsilons, bsys.reports, ((d0[0], 0.5 * (d1[0] + d1[1])), d1, d2))
    monkeypatch.setattr("renorm.horseshoe._next_level", None)  # refused before any nesting
    for n in (1, 4):
        with pytest.raises(RuntimeError, match="not disjoint and increasing"):
            cylinder_count(b, n)
        with pytest.raises(RuntimeError, match="not disjoint and increasing"):
            cylinder_counts(b, n)


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


def test_cylinder_cap(bsys, bsys2):
    with pytest.raises(ValueError):
        cylinder_count(bsys, 15)
    # two letters are fine at depth 14; five letters at depth 14 are not
    assert cylinder_count(bsys2, 14) == 2**14


def test_cylinder_total_cap(bsys5):
    with pytest.raises(ValueError):
        cylinder_count(bsys5, 12)


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


# The inversion before it stopped early: a fixed 64 bisection steps, and
# each endpoint array inverted on its own.  The early stop and the joint
# call must leave every number bitwise as this gives it.
def _invert_fixed_64(b, i, ys):
    ys = np.asarray(ys, dtype=float)
    lo = np.full_like(ys, b.domains[i][0])
    hi = np.full_like(ys, b.domains[i][1])
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = b.map(i, mid) < ys
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _backward_fixed_64(b, letters):
    x = 0.5 * (b.base[0] + b.base[1])
    xs = [0.0] * len(letters)
    for n in range(len(letters) - 1, -1, -1):
        x = float(_invert_fixed_64(b, letters[n], x))
        xs[n] = x
    return xs


@pytest.mark.parametrize("name, depth", [("bsys2", 14), ("bsys", 10), ("bsys4", 5), ("bsys5", 6)])
def test_cylinder_levels_bitwise_fixed_64(request, name, depth):
    b = request.getfixturevalue(name)
    los = np.array([d[0] for d in b.domains])
    his = np.array([d[1] for d in b.domains])
    ref_lo, ref_hi = los, his
    for _ in range(depth - 1):
        los, his = _next_level(b, los, his)
        ref_lo = np.concatenate([_invert_fixed_64(b, i, ref_lo) for i in range(b.alphabet)])
        ref_hi = np.concatenate([_invert_fixed_64(b, i, ref_hi) for i in range(b.alphabet)])
        assert los.tobytes() == ref_lo.tobytes()
        assert his.tobytes() == ref_hi.tobytes()


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


def test_inversion_stops_before_the_cap(bsys, monkeypatch):
    # the A_i are ~1e-5 wide, so every lane stops moving well before 64 steps
    steps = []
    real_map = horseshoe.return_map

    def counting_map(period, c, eps):
        steps.append(eps)
        return real_map(period, c, eps=eps)

    monkeypatch.setattr(horseshoe, "return_map", counting_map)
    _invert_branch(bsys, 1, np.linspace(*bsys.base, 50))
    assert 0 < len(steps) < 64
    steps.clear()
    _invert_point(bsys, 1, 0.5 * (bsys.base[0] + bsys.base[1]))
    assert 0 < len(steps) < 64


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
        assert np.float64(x).tobytes() == _invert_branch(b, i, [y])[0].tobytes()
    # and one call with a letter per lane inverts every lane the same way
    letters, lane_ys = (np.array(v) for v in zip(*lanes))
    assert _invert_branch(b, letters, lane_ys).tobytes() == np.array(points).tobytes()
    for i, (a, z) in enumerate(b.domains):
        assert _invert_point(b, i, below) == pytest.approx(a, abs=1e-15)
        assert _invert_point(b, i, above) == pytest.approx(z, abs=1e-15)


def test_invert_point_reads_the_guard_as_the_array_nan(bsys):
    # a hand-built branch whose domain reaches below the s2 pole at
    # c ~ 0.352: the scalar raise must steer the bisection as NaN does
    with pytest.raises(DivisionGuard):
        bsys.map(1, 0.3)
    b = BranchSystem((1.0,), bsys.reports[1:2], ((0.3, 0.45),))
    for y in (0.0, 0.44, 50.0):
        x = _invert_point(b, 0, y)
        assert np.float64(x).tobytes() == _invert_branch(b, 0, [y])[0].tobytes()


def test_bitwise_levels_span_a_partial_lane_block(request):
    # the fixed-64 comparison must reach a level cut into several blocks
    # with a short last one (3 letters, depth 10: 3 * 2 * 3^9 = 118098)
    (mark,) = test_cylinder_levels_bitwise_fixed_64.pytestmark
    lanes = []
    for name, depth in mark.args[1]:
        m = request.getfixturevalue(name).alphabet
        lanes += [m * 2 * m**n for n in range(1, depth)]
    assert any(x > LANE_BLOCK and x % LANE_BLOCK for x in lanes)
