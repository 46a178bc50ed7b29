import numpy as np
import pytest

from perigid import (
    EdgeOrbit,
    Placement,
    QuotientGraph,
    SimplexVariant,
    simplex_framework,
    stressed_framework,
    validate_framework,
)


def rotated(fw, seed):
    """The framework turned by a random rotation (positions and lattice)."""
    d = fw.dimension
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    pl = fw.placement
    placement = Placement({o: q @ p for o, p in pl.positions.items()}, q @ pl.lattice)
    return validate_framework(fw.graph, placement)


def make_framework(dimension, positions, lattice, edges):
    graph = QuotientGraph(
        dimension,
        tuple(positions),
        tuple(EdgeOrbit(t, h, tuple(s)) for t, h, s in edges),
    )
    return validate_framework(graph, Placement(dict(positions), np.asarray(lattice, float)))


@pytest.fixture(scope="session")
def stressed():
    return stressed_framework()


@pytest.fixture(scope="session")
def base3():
    return simplex_framework(3)


@pytest.fixture(scope="session")
def enhanced3():
    return simplex_framework(3, SimplexVariant("enhanced"))
