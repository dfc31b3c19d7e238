import math
import random

import numpy as np
import pytest

from renorm.scaling import (
    REFINE_TOL,
    DivisionGuard,
    FeasibleDomain,
    NumericalFailure,
    Period,
    feasible_domain,
    return_map,
)
from renorm.solver import (
    POLISH_TOL,
    SCAN_GRID,
    SECANT_STEPS,
    SWEEP_STEPS,
    NoConvergence,
    NoRoot,
    _refine_root,
    _solve,
    continuum_sweep,
    solve_fixed_point,
    solve_fixed_point_eps,
)
from reference_values import (
    C3_6DP,
    C3_STAR,
    C5_6DP,
    C5_STAR,
    C_EPS_098,
    C_EPS_102,
    R3_DERIV,
    R5_DERIV,
)
from reference_solves import SOLVE_HEXES
from test_scan import _scan_roots


def test_tripling_fixed_point(rep3):
    assert abs(rep3.c_star - C3_6DP) < 1e-5
    assert abs(rep3.c_star - C3_STAR) < 1e-9
    assert rep3.residual <= 1e-12
    assert rep3.expanding
    assert rep3.derivative_estimate == pytest.approx(R3_DERIV, rel=1e-6)


def test_quintupling_fixed_point(rep5):
    assert abs(rep5.c_star - C5_6DP) < 1e-5
    assert abs(rep5.c_star - C5_STAR) < 1e-9
    assert rep5.residual <= 1e-12
    assert rep5.expanding
    assert rep5.derivative_estimate == pytest.approx(R5_DERIV, rel=1e-6)


def test_no_root_in_first_component(fd3):
    first_only = FeasibleDomain(Period.THREE, [fd3.intervals[0]], [], [])
    with pytest.raises(NoRoot):
        solve_fixed_point(Period.THREE, first_only)


def test_no_root_in_first_component_five(fd5):
    first_only = FeasibleDomain(Period.FIVE, [fd5.intervals[0]], [], [])
    with pytest.raises(NoRoot):
        solve_fixed_point(Period.FIVE, first_only)


def test_eps_one_coincides_with_unperturbed(rep3):
    rep = solve_fixed_point_eps(1.0)
    assert abs(rep.c_star - rep3.c_star) < 1e-11


def test_eps_ordering(rep3):
    lo = solve_fixed_point_eps(0.98)
    hi = solve_fixed_point_eps(1.02)
    assert abs(lo.c_star - C_EPS_098) < 1e-8
    assert abs(hi.c_star - C_EPS_102) < 1e-8
    assert hi.c_star < rep3.c_star < lo.c_star
    assert lo.expanding and hi.expanding


def test_eps_window_default_extent():
    # the solvable window extends at least across [0.9, 1.1]
    for e in (0.9, 1.1):
        rep = solve_fixed_point_eps(e)
        assert rep.expanding and rep.derivative_estimate > 2.0
        assert rep.residual <= 1e-12


def test_continuum_sweep_decreasing(rep3):
    rows = continuum_sweep(0.98, 1.02)
    assert len(rows) == SWEEP_STEPS == 5
    cs = [r[1] for r in rows]
    assert all(b < a for a, b in zip(cs[:-1], cs[1:]))
    assert abs(rows[2][1] - rep3.c_star) < 1e-10  # middle row is eps = 1


def test_continuum_sweep_solves_at_the_fixed_sample():
    rows = continuum_sweep(0.98, 1.02)
    assert [r[0].hex() for r in rows] == [float(e).hex() for e in np.linspace(0.98, 1.02, 5)]
    assert all(type(x) is float for r in rows for x in r)
    for r in rows:
        rep = solve_fixed_point_eps(r[0])
        assert (r[1], r[2]) == (rep.c_star, rep.derivative_estimate)


def test_continuum_sweep_validates():
    # a reversed or a one-point range: the one-step form took (1.0, 1.0)
    for lo, hi in [(1.01, 0.99), (1.0, 1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="eps_lo must be < eps_hi"):
            continuum_sweep(lo, hi)


def test_scan_finds_multiple_brackets():
    hits = _scan_roots(np.sin, [(1.0, 7.0)], 0.01)  # g takes the whole grid
    assert len(hits) == 2  # pi and 2*pi


def test_scan_brackets_are_python_floats_within_one_interval():
    # one g call over both grids; sin changes sign between 3.0 and 4.0, the
    # end of one grid and the start of the next, which must not pair
    calls = []
    hits = _scan_roots(lambda xs: calls.append(xs) or np.sin(xs), [(1.0, 3.0), (4.0, 7.0)], 0.01)
    assert len(calls) == 1 and len(hits) == 1  # 2*pi only
    (lo, hi), = hits
    assert type(lo) is float and type(hi) is float
    assert lo < 2 * np.pi < hi
    assert _scan_roots(np.sin, [], 0.01) == []


def _scalar_reference_solve(period, eps):
    """The sign scan as one scalar return_map call per grid point."""
    domain = feasible_domain(period, eps=eps)

    def g(c):
        try:
            return return_map(period, c, eps) - c
        except DivisionGuard:
            return np.nan

    brackets = []
    for lo, hi in domain.intervals:
        pad = 2.0 * REFINE_TOL
        lo, hi = lo + pad, hi - pad
        n = max(int(np.ceil((hi - lo) / SCAN_GRID)), 2)
        xs = np.linspace(lo, hi, n + 1)
        vals = np.array([g(x) for x in xs])
        hits = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        brackets.extend((xs[i], xs[i + 1]) for i in hits)
    assert len(brackets) == 1
    return brackets[0], _refine_root(g, brackets[0][0], brackets[0][1], POLISH_TOL)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the scan grids hit s2 == 0.0
def test_array_scan_matches_scalar_reference_bitwise():
    rng = random.Random(30300)
    cases = [(Period.THREE, 1.0), (Period.FIVE, 1.0)]
    cases += [(Period.THREE, rng.uniform(0.96, 1.04)) for _ in range(20)]
    for period, eps in cases:
        rep = _solve(period, eps, None, POLISH_TOL)
        bracket, c = _scalar_reference_solve(period, eps)
        assert rep.bracketing_interval == (float(bracket[0]), float(bracket[1]))
        assert rep.c_star == float(c)


def test_tolerance_validation():
    for tol in (1e-16, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            solve_fixed_point(Period.THREE, tol=tol)


def test_eps_solve_refuses_a_non_finite_eps_and_fails_a_huge_one():
    for eps in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="eps must be finite"):
            solve_fixed_point_eps(eps)
    # the orbit overflows: NoRoot, not numpy's overflow RuntimeWarning
    with pytest.raises(NoRoot, match="no feasible domain"):
        solve_fixed_point_eps(1e200)


@pytest.mark.parametrize("p, eps", sorted(SOLVE_HEXES))
def test_solves_are_bitwise_the_reference(p, eps):
    # c*, the bracket, the derivative estimate and the residual, or the
    # failure and its message, as recorded by tests/record_solves.py
    want = SOLVE_HEXES[(p, eps)]
    try:
        rep = _solve(Period(p), eps, None, POLISH_TOL)
    except NumericalFailure as exc:
        assert (type(exc).__name__, str(exc)) == want
        return
    assert {
        "c_star": rep.c_star.hex(),
        "bracketing_interval": tuple(x.hex() for x in rep.bracketing_interval),
        "derivative_estimate": rep.derivative_estimate.hex(),
        "residual": rep.residual.hex(),
    } == want


def test_the_pinned_solves_cover_both_outcomes():
    failures = [key for key, rec in SOLVE_HEXES.items() if isinstance(rec, tuple)]
    assert (3, 1e300) in failures and (3, 0.25) in failures
    assert {(3, 1.0), (5, 1.0)} <= SOLVE_HEXES.keys()
    assert len(SOLVE_HEXES) - len(failures) >= 45


def test_a_secant_polish_that_never_converges_raises():
    # f jumps across zero at 0.3 without vanishing: the bisection brackets
    # the jump, and the secant steps then cycle through four points about
    # 1e-9 apart, never one step within tol
    calls = []

    def f(x):
        calls.append(x)
        return math.copysign(1.0 + 1e9 * abs(x - 0.3), x - 0.3)

    with pytest.raises(NoConvergence, match=f"took {SECANT_STEPS} steps") as info:
        _refine_root(f, 0.0, 1.0, POLISH_TOL)
    assert isinstance(info.value, NumericalFailure)
    assert len(set(calls[-8:])) == 4
    assert min(abs(a - b) for a, b in zip(calls[-8:], calls[-7:])) > 1e3 * POLISH_TOL
    # the same bracket with a zero at 0.3 converges
    assert abs(_refine_root(lambda x: x - 0.3, 0.0, 1.0, POLISH_TOL) - 0.3) <= 1e-15


def test_a_domain_of_another_period_is_refused(fd3, fd5):
    # before the scan: a p3 domain scanned for p5 would report 8 roots, a
    # p5 domain scanned for p3 none, and both as numerical failures
    with pytest.raises(ValueError, match="feasible domain of Period.THREE cannot be scanned for Period.FIVE"):
        solve_fixed_point(Period.FIVE, fd3)
    with pytest.raises(ValueError, match="feasible domain of Period.FIVE cannot be scanned for Period.THREE"):
        solve_fixed_point(Period.THREE, fd5)
