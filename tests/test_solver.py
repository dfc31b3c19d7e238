import random

import numpy as np
import pytest

from renorm.scaling import (
    REFINE_TOL,
    DivisionGuard,
    FeasibleDomain,
    Period,
    feasible_domain,
    return_map,
)
from renorm.solver import (
    POLISH_TOL,
    SCAN_GRID,
    NoRoot,
    _refine_root,
    _scan_roots,
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
    first_only = FeasibleDomain(Period.THREE, [fd3.intervals[0]])
    with pytest.raises(NoRoot):
        solve_fixed_point(Period.THREE, first_only)


def test_no_root_in_first_component_five(fd5):
    first_only = FeasibleDomain(Period.FIVE, [fd5.intervals[0]])
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
    table = continuum_sweep(0.98, 1.02, 5)
    assert len(table.rows) == 5
    cs = [r[1] for r in table.rows]
    assert all(b < a for a, b in zip(cs[:-1], cs[1:]))
    assert abs(table.rows[2][1] - rep3.c_star) < 1e-10  # middle row is eps = 1


def test_continuum_sweep_degenerate(rep3):
    table = continuum_sweep(1.0, 1.0, 1)
    assert len(table.rows) == 1
    assert abs(table.rows[0][1] - rep3.c_star) < 1e-11


def test_continuum_sweep_three_rows(rep3):
    table = continuum_sweep(0.99, 1.01, 3)
    assert abs(table.rows[1][1] - rep3.c_star) < 1e-10


def test_continuum_sweep_validates():
    with pytest.raises(ValueError):
        continuum_sweep(1.01, 0.99, 5)
    with pytest.raises(ValueError):
        continuum_sweep(0.99, 1.01, 0)


def test_scan_finds_multiple_brackets():
    hits = _scan_roots(np.sin, 1.0, 7.0, 0.01)  # g takes the whole grid
    assert len(hits) == 2  # pi and 2*pi


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
