"""Lattice-basis invariance as an independent check of the pair truncation.

A d-periodic framework does not depend on its lattice basis: L U with U
unimodular, and each shift w replaced by U^-1 w, describe the same infinite
framework, so its true expansive cone is the same once lattice velocities
are mapped back (`conftest.change_basis`) and trivial motions are factored
out.  The max-norm box of shifts is not basis invariant, so these tests
check the truncation and the radius probe without reading their code.
"""

import numpy as np
import pytest

from perigid import analyze, expansive_cone, find_stable_radius, simplex_framework, stressed_framework
from perigid import trivial_motion_basis

from conftest import change_basis

FAMILIES = {"base2": lambda: simplex_framework(2), "base3": lambda: simplex_framework(3), "stressed": stressed_framework}
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
