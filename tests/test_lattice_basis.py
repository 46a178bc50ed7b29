"""Lattice-basis invariance as an independent check of the pair truncation.

A d-periodic framework does not depend on its lattice basis: L U with U
unimodular, and each shift w replaced by U^-1 w, describe the same infinite
framework, so its true expansive cone is the same once lattice velocities
are mapped back (`conftest.change_basis`) and trivial motions are factored
out.  The max-norm box of shifts is not basis invariant, so these tests
check the truncation and the radius probe without reading their code; for
random U the box in the new basis is made large enough to hold the
standard one.
Renaming the vertex orbits and scaling positions and lattice alike change
the framework's description too, not the framework: the pair stream's order
and orientation follow the orbits' sorted names, so a renaming that flips
that order feeds the double description another halfspace order.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import analyze, expansive_cone, find_stable_radius, simplex_framework, stressed_framework
from perigid import trivial_motion_basis

from conftest import change_basis, make_framework, pair_keys, whole_pairs, whole_shifts

FAMILIES = {
    "base2": lambda: simplex_framework(2),
    "base3": lambda: simplex_framework(3),
    "base4": lambda: simplex_framework(4),
    "stressed": stressed_framework,
}
SKEWED = {"base2": [[1, 1], [1, 2]], "base3": [[1, 2, 0], [0, 1, 3], [0, 0, 1]], "stressed": [[1, 4, -2], [0, 1, 0], [0, 0, 1]]}


def directions(fw, motions):
    """Unit motions of fw with their trivial part projected out."""
    q = np.linalg.qr(trivial_motion_basis(fw).T)[0]
    motions = motions - (motions @ q) @ q.T
    return motions / np.linalg.norm(motions, axis=1, keepdims=True)


def standard_rays(fw):
    """The rays of fw's cone, in its own basis at the radius the probe calls stable."""
    report = analyze(fw)
    stable = find_stable_radius(fw, expansive_cone(fw, report))
    return directions(fw, expansive_cone(fw, report, stable).ray_motions())


def skewed_rays(fw, U, radius):
    """The radius the probe calls stable from `radius` in the basis L U, and
    that cone's rays mapped back to fw's layout."""
    changed, back = change_basis(fw, U)
    cone = expansive_cone(changed, analyze(changed), radius)
    stable = find_stable_radius(changed, cone, max_radius=radius + 3)
    return stable, directions(fw, back(cone.ray_motions()))


def assert_same_rays(rays, expected):
    assert len(rays) == len(expected)
    assert max(np.linalg.norm(expected - ray, axis=1).min() for ray in rays) < 1e-9


@pytest.mark.parametrize("name, radius", [("base2", 4), ("base3", 7), ("stressed", 4)])
def test_a_large_enough_radius_gives_the_standard_basis_cone(name, radius):
    fw = FAMILIES[name]()
    stable, rays = skewed_rays(fw, SKEWED[name], radius)
    assert stable == radius
    assert_same_rays(rays, standard_rays(fw))


# The probe tests the one shell R + 1, and a skewed basis makes the box long
# in the directions that matter: base2 at R = 2 (rays 0.276 away), stressed
# at R = 2 (0.251 away) and base3 at R = 5 (4 rays for 3) are all called
# stable.  A radius certificate that covers every shift beyond the box
# (ROADMAP item 6) turns these green.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="item 6: the radius probe stops early in a skewed basis")
@pytest.mark.parametrize("name, radius", [("base2", 2), ("stressed", 2), ("base3", 5)])
def test_the_radius_called_stable_gives_the_standard_basis_cone(name, radius):
    fw = FAMILIES[name]()
    stable, _ = skewed_rays(fw, SKEWED[name], radius)
    assert_same_rays(skewed_rays(fw, SKEWED[name], stable)[1], standard_rays(fw))


# The radius at which each framework's standard box already gives its cone.
STANDARD_RADIUS = {"base2": 4, "stressed": 3, "base3": 3}


@functools.lru_cache(maxsize=None)
def standard_cone_rays(name):
    fw = FAMILIES[name]()
    return directions(fw, expansive_cone(fw, analyze(fw), STANDARD_RADIUS[name]).ray_motions())


@st.composite
def unimodular(draw, d):
    """A product of one or two elementary shears, entry -2, -1, 1 or 2, each
    followed by a permutation of the axes."""
    U = np.eye(d, dtype=int)
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.permutations(range(d)))[:2]
        shear = np.eye(d, dtype=int)
        shear[i, j] = draw(st.sampled_from([-2, -1, 1, 2]))
        U = U @ shear[:, draw(st.permutations(range(d)))]
    return U


@pytest.mark.parametrize("name", sorted(STANDARD_RADIUS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_box_holding_the_standard_box_gives_the_standard_cone(name, data):
    # A shift w is U^-1 w in the basis L U, so there the box of radius
    # ||U^-1||_inf R holds every pair of the standard box of radius R: its
    # cone lies inside the standard one, and both are the true cone.
    fw = FAMILIES[name]()
    U = data.draw(unimodular(fw.dimension), label="U")
    radius = int(np.abs(np.linalg.inv(U)).sum(axis=1).max().round()) * STANDARD_RADIUS[name]
    changed, back = change_basis(fw, U)
    cone = expansive_cone(changed, analyze(changed), radius)
    assert_same_rays(directions(fw, back(cone.ray_motions())), standard_cone_rays(name))


def described(fw, names=None, scale=1.0):
    """fw with each vertex orbit o called names[o] and positions and lattice
    multiplied by scale."""
    names, pl = names or {o: o for o in fw.graph.vertex_orbits}, fw.placement
    positions = {names[o]: scale * pl.positions[o] for o in fw.graph.vertex_orbits}
    edges = [(names[e.tail], names[e.head], e.shift) for e in fw.graph.edge_orbits]
    return make_framework(fw.dimension, positions, scale * pl.lattice, edges)


def tight_sets(fw, radius, names=None):
    """Each ray's tight pairs at `radius`, sorted: the pairs whose row is
    orthogonal to the ray's motion (cosine at most 1e-9; the cases below
    have at most 6e-15 against at least 0.019 otherwise), each an unordered
    pair key with its orbits called names[o]."""
    names = names or {o: o for o in fw.graph.vertex_orbits}
    tails, heads, rows = whole_pairs(fw, radius)
    motions = expansive_cone(fw, analyze(fw), radius).ray_motions()
    cosine = np.abs(rows @ motions.T) / np.outer(
        np.linalg.norm(rows, axis=1), np.linalg.norm(motions, axis=1)
    )
    keys = []
    for a, b, w in pair_keys(fw, tails, heads, whole_shifts(fw, radius)):
        key = (names[a], names[b], w)
        keys.append(min(key, (key[1], key[0], tuple(-c for c in w))))
    return sorted(tuple(sorted(k for k, t in zip(keys, tight) if t)) for tight in (cosine <= 1e-9).T)


@pytest.mark.parametrize("name, n_rays", [("stressed", 2), ("base2", 2), ("base3", 3), ("base4", 4)])
def test_relabelling_and_scaling_keep_the_rays_and_their_tight_pairs(name, n_rays):
    fw = FAMILIES[name]()
    expected = tight_sets(fw, 2)
    assert len(expected) == n_rays
    # The last orbit in sorted order becomes the first, and so on.
    orbits = sorted(fw.graph.vertex_orbits)
    flipped = {o: f"v{i}" for i, o in enumerate(reversed(orbits))}
    assert sorted(orbits, key=flipped.get) == orbits[::-1]
    assert tight_sets(described(fw, flipped), 2) == tight_sets(fw, 2, flipped)
    assert tight_sets(described(fw, scale=2.0), 2) == expected
