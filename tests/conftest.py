import pytest

from pathmeas import diagram_from_dict


def _stationary_finite(count, triplets):
    return diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": count},
        "matrices": [{"triplets": triplets}],
    })


@pytest.fixture
def allones2():
    """2x2 all-ones stationary diagram: lambda = 2, t = (1/2, 1/2)."""
    return _stationary_finite(2, [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]])


@pytest.fixture
def fib():
    """F = [[1,1],[1,0]]: lambda = golden ratio."""
    return _stationary_finite(2, [[0, 0, 1], [0, 1, 1], [1, 0, 1]])


@pytest.fixture
def tri_z():
    """Tridiagonal all-ones over the integers: lambda = 3, constant t."""
    return diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "integers", "band": 1},
        "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}],
    })


@pytest.fixture
def nat():
    """Tridiagonal all-ones stencil on the naturals."""
    return diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "naturals"},
        "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}],
    })


@pytest.fixture
def identity2():
    return _stationary_finite(2, [[0, 0, 1], [1, 1, 1]])


SYMMETRIC_P = [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]
ASYMMETRIC_P = [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.4], [1, 1, 0.6]]
DEGENERATE_P = [[0, 0, 0.25], [0, 1, 0.25], [1, 0, 0.25], [1, 1, 0.25]]

KERNEL_DICT = {
    "cells0": ["a", "b"],
    "cells1": ["a", "b"],
    "edges": [["a", "a", 0.3], ["a", "b", 0.2],
              ["b", "a", 0.25], ["b", "b", 0.25]],
}
