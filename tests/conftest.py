import pytest
from hypothesis import settings

from renorm.scaling import Period, feasible_domain
from renorm.solver import solve_fixed_point
from renorm.tower import ScalingSequence
from renorm.pwa import build_pwa
from renorm.extension import extend
from renorm.horseshoe import build_branch_system

# the one definition of a reproducible property: the same examples every
# run, no example database, no deadline; each test names its max_examples
# (test files read it as settings.get_profile("bitwise"))
settings.register_profile("bitwise", derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="session")
def fd3():
    return feasible_domain(Period.THREE)


@pytest.fixture(scope="session")
def fd5():
    return feasible_domain(Period.FIVE)


@pytest.fixture(scope="session")
def rep3(fd3):
    return solve_fixed_point(Period.THREE, fd3)


@pytest.fixture(scope="session")
def rep5(fd5):
    return solve_fixed_point(Period.FIVE, fd5)


@pytest.fixture(scope="session")
def seq3(rep3):
    return ScalingSequence.stationary(Period.THREE, rep3.c_star)


@pytest.fixture(scope="session")
def seq5(rep5):
    return ScalingSequence.stationary(Period.FIVE, rep5.c_star)


@pytest.fixture(scope="session")
def f3(seq3):
    return build_pwa(seq3, 10)


@pytest.fixture(scope="session")
def f5(seq5):
    return build_pwa(seq5, 8)


@pytest.fixture(scope="session")
def curve3(f3):
    return extend(f3, 8)


@pytest.fixture(scope="session")
def curve5(f5):
    return extend(f5, 6)


@pytest.fixture(scope="session")
def bsys():
    return build_branch_system(1.02, 1.00, 0.98)


@pytest.fixture(scope="session")
def bsys2():
    return build_branch_system(1.01, 1.0)


@pytest.fixture(scope="session")
def bsys4():
    return build_branch_system(1.015, 1.005, 0.995, 0.985)


@pytest.fixture(scope="session")
def bsys5():
    return build_branch_system(1.02, 1.01, 1.00, 0.99, 0.98)


@pytest.fixture(scope="session")
def bsys_wide():
    return build_branch_system(1.04, 1.00, 0.96)
