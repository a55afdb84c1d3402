import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fk_saddle import (FlowParams, find_gap_pair, find_gap_pair_hetero,
                       make_potential, minimize_hetero, mountain_pass_hetero)


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
def params():
    return FlowParams()


@pytest.fixture(scope="session")
def gap(classical, params):
    g = find_gap_pair(classical, (1, 1), seed=3, params=params)
    assert g is not None
    return g


@pytest.fixture(scope="session")
def pinned_gap(pinned, params):
    g = find_gap_pair(pinned, (1, 1), seed=3, params=params)
    assert g is not None
    return g


# the pinned-fk kink (q = 1), its gap pair and the strip mountain pass
@pytest.fixture(scope="session")
def het(pinned, pinned_gap, params):
    return minimize_hetero(pinned, (1,), pinned_gap, params)


@pytest.fixture(scope="session")
def het_gap(pinned, pinned_gap, params, het):
    g = find_gap_pair_hetero(pinned, het, pinned_gap, seed=5, params=params)
    assert g is not None
    return g


@pytest.fixture(scope="session")
def mph(pinned, het_gap, params):
    return mountain_pass_hetero(pinned, het_gap, params, N=65)
