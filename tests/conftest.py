import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fk_saddle import (find_gap_pair, find_gap_pair_hetero, make_potential,
                       minimize_hetero, mountain_pass_hetero)
from fk_saddle.defaults import STATIONARITY_TOL


@pytest.fixture(scope="session")
def classical():
    return make_potential("classical-fk")


@pytest.fixture(scope="session")
def pinned():
    return make_potential("pinned-fk")


@pytest.fixture(scope="session")
def twowell():
    return make_potential("two-well-fk")


@pytest.fixture(scope="session")
def tol():
    return STATIONARITY_TOL


@pytest.fixture(scope="session")
def gap(classical, tol):
    return find_gap_pair(classical, (1, 1), seed=3, tol=tol)


@pytest.fixture(scope="session")
def pinned_gap(pinned, tol):
    return find_gap_pair(pinned, (1, 1), seed=3, tol=tol)


# the pinned-fk kink (q = 1), its gap pair and the strip mountain pass
@pytest.fixture(scope="session")
def het(pinned, pinned_gap, tol):
    return minimize_hetero(pinned, (1,), pinned_gap, tol)


@pytest.fixture(scope="session")
def het_gap(pinned, pinned_gap, tol, het):
    return find_gap_pair_hetero(pinned, het, pinned_gap, seed=5, tol=tol)


@pytest.fixture(scope="session")
def mph(pinned, het_gap, tol):
    return mountain_pass_hetero(pinned, het_gap, tol, N=65)
