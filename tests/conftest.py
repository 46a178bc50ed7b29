import numpy as np
import pytest

from perigid import (
    EdgeOrbit,
    Placement,
    QuotientGraph,
    SimplexVariant,
    expansive,
    simplex_framework,
    stressed_framework,
    validate_framework,
)
from perigid.framework import _separations
from perigid.motion import MotionPath
from perigid.rigidity import pack_motion, unpack_motion


def rotated(fw, seed):
    """The framework turned by a random rotation (positions and lattice)."""
    d = fw.dimension
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    pl = fw.placement
    placement = Placement({o: q @ p for o, p in pl.positions.items()}, q @ pl.lattice)
    return validate_framework(fw.graph, placement)


def scaled(fw, c):
    """The framework with positions and lattice multiplied by c: the same
    rigidity rows times c, so the same flexes, stresses and verdicts."""
    pl = fw.placement
    return validate_framework(fw.graph, Placement({o: c * p for o, p in pl.positions.items()}, c * pl.lattice))


def make_framework(dimension, positions, lattice, edges):
    graph = QuotientGraph(
        dimension,
        tuple(positions),
        tuple(EdgeOrbit(t, h, tuple(s)) for t, h, s in edges),
    )
    return validate_framework(graph, Placement(dict(positions), np.asarray(lattice, float)))


def change_basis(fw, U):
    """The same infinite framework in the lattice basis L' = L U (U an
    integer matrix with an integer inverse): each shift w becomes U^-1 w.
    Returns it and the map taking its motion vectors (rows) back to fw's
    layout, where the lattice velocity is L'dot U^-1."""
    U = np.array(U, dtype=float)
    inverse = np.linalg.inv(U).round()
    assert np.array_equal(inverse @ U, np.eye(len(U))), "U must be unimodular"
    edges = [(e.tail, e.head, (inverse @ e.shift).astype(int).tolist()) for e in fw.graph.edge_orbits]
    changed = make_framework(fw.dimension, fw.placement.positions, fw.placement.lattice @ U, edges)

    def back(motions):
        unpacked = (unpack_motion(changed.graph, m) for m in motions)
        return np.array([pack_motion(pdot, ldot @ inverse) for pdot, ldot in unpacked])

    return changed, back


def whole_pairs(fw, radius):
    """The whole canonical pair set at `radius` as (tails, heads, rows): the
    chunks of the pair stream concatenated, each row the stream's, bit for bit."""
    return tuple(map(np.concatenate, zip(*expansive._pair_chunks(fw, radius))))


def stream_shifts(fw, radius, shell=False):
    """The integer shifts the pair stream's rows are built from, one array per
    chunk of `_pair_chunks(fw, radius, shell)`, as `_pair_incidence` gives them."""
    return [w for *_, w in expansive._pair_incidence(fw.graph.vertex_orbits, fw.dimension, radius, shell)]


def whole_shifts(fw, radius):
    """The integer shifts of `whole_pairs(fw, radius)`, one row per pair."""
    return np.concatenate(stream_shifts(fw, radius))


def canonical_pair(fw, a, b, shift):
    """The (tails, heads, shifts) arrays, of one pair each, of the key of
    `pair_constraint(fw, a, b, shift)`: `EdgeOrbit(a, b, shift).canonical()`."""
    a, b, shift = EdgeOrbit(a, b, tuple(shift)).canonical()
    return np.array([fw.orbit_index(a)]), np.array([fw.orbit_index(b)]), np.array([shift])


def pair_keys(fw, tails, heads, shifts):
    """Canonical (orbit_a, orbit_b, shift) keys of the pairs (tails, heads,
    shifts), in pair order."""
    return expansive._pair_keys(fw.graph.vertex_orbits, tails, heads, shifts)


def pair_separations(fw, tails, heads, shifts):
    """Separations p_b + lattice w - p_a of the pairs (tails, heads, shifts),
    from the incidence core their rows are built by."""
    positions = np.array([fw.placement.positions[o] for o in fw.graph.vertex_orbits])
    return _separations(positions, fw.placement.lattice, tails, heads, shifts.astype(float))


def path_through(graph, placements):
    """A MotionPath through `placements`, step 0 first, its positions in
    vertex-orbit order and its lattices C-ordered as `continue_motion` stacks
    them; its step size and residuals are zero."""
    positions = [[pl.positions[o] for o in graph.vertex_orbits] for pl in placements]
    lattices = [pl.lattice for pl in placements]
    stacks = np.array(positions, dtype=float), np.array(lattices, dtype=float)
    return MotionPath(graph, *stacks, 0.0, np.zeros(len(placements)))


def step_placements(path):
    """The Placement of each step of `path`, step 0 first."""
    orbits = path.graph.vertex_orbits
    return [Placement(dict(zip(orbits, p)), lattice) for p, lattice in zip(path.positions, path.lattices)]


@pytest.fixture(scope="session")
def stressed():
    return stressed_framework()


@pytest.fixture(scope="session")
def base3():
    return simplex_framework(3)


@pytest.fixture(scope="session")
def enhanced3():
    return simplex_framework(3, SimplexVariant("enhanced"))
