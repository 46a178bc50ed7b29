"""The array cone layer against frozen loop code, brute force and the
from-scratch radius probe.

The halfspace merge and the double description must make the same
decisions with the same arithmetic as the loop-and-bitmask code they
replaced, of which ``_oracles`` keeps a frozen copy: the halfspace matrix
and the rays are compared byte for byte on randomly rotated frameworks.
Ray sets of random pointed cones are compared with an (f-1)-subset
enumeration, and the incremental radius probe with rebuilding each cone.
"""

import numpy as np
import pytest

from perigid import (
    NumericalFailureError,
    SimplexVariant,
    analyze,
    enumerate_pairs,
    expansive_cone,
    extremal_rays,
    find_stable_radius,
    simplex_framework,
    stressed_framework,
)
from _oracles import brute_force_rays, frozen_cone, frozen_extremal_rays, rays_match
from conftest import rotated


def framework(kind, d, seed):
    if kind == "stressed":
        fw = stressed_framework()
    elif kind == "regular":
        fw = simplex_framework(d, regular=True)
    else:
        fw = simplex_framework(d, SimplexVariant.parse(kind))
    return rotated(fw, seed)


# The frozen double description needs ~40 s at d = 5, R = 3, so d = 5 stops at R = 2.
CONES = [("stressed", 3, r) for r in (1, 2, 3)] + [
    (kind, d, r)
    for d in (2, 3, 4, 5)
    for kind in ("base", "regular", "removed:1", "removed:2")
    for r in ((1, 2, 3) if d < 5 else (1, 2))
]


@pytest.mark.parametrize("kind, d, radius", CONES)
def test_cone_matches_frozen_pipeline_bit_for_bit(kind, d, radius):
    fw = framework(kind, d, seed=31 * d + radius)
    report = analyze(fw)
    cone = expansive_cone(fw, report, radius)
    halfspaces, rays = frozen_cone(enumerate_pairs(fw, radius).rows, report.flex_basis)
    assert cone.halfspace_matrix.shape == halfspaces.shape
    assert cone.halfspace_matrix.tobytes() == halfspaces.tobytes()
    assert cone.rays.shape == rays.shape
    assert cone.rays.tobytes() == rays.tobytes()


def random_pointed_cone(rng, f, integer):
    """Rows with a positive product against a common interior direction, so
    the cone is pointed with nonempty interior; small integer rows make
    degenerate rays, tight on more than f - 1 rows."""
    k = int(rng.integers(f + 1, f + 6))
    inside = rng.integers(1, 4, f) * rng.choice([-1, 1], f) if integer else rng.standard_normal(f)
    rows = []
    while len(rows) < k:
        row = rng.integers(-2, 3, f).astype(float) if integer else rng.standard_normal(f)
        if row @ inside != 0:
            rows.append(row if row @ inside > 0 else -row)
    return np.array(rows)


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("f", [3, 4, 5, 6])
def test_random_pointed_cones_match_brute_force(f, integer):
    rng = np.random.default_rng(10 * f + integer)
    for _ in range(6):
        rows = random_pointed_cone(rng, f, integer)
        if np.linalg.matrix_rank(rows) < f:
            continue
        rays = extremal_rays(rows)
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert rays_match(rays, brute_force_rays(unit), 1e-7)
        assert rays.tobytes() == frozen_extremal_rays(rows, f).tobytes()


def stable_radius_from_scratch(fw, report, start, max_radius):
    prev = expansive_cone(fw, report, start)
    for radius in range(start, max_radius + 1):
        nxt = expansive_cone(fw, report, radius + 1)
        if rays_match(prev.rays, nxt.rays):
            return radius
        prev = nxt
    return None


PROBES = [("stressed", 3)] + [
    (kind, d)
    for kind in ("base", "regular", "removed:1", "removed:2", "enhanced")
    for d in (2, 3, 4)
]


@pytest.mark.parametrize("kind, d", PROBES)
@pytest.mark.parametrize("start, max_radius", [(1, 1), (1, 3), (2, 4)])
def test_probe_matches_rebuilding_each_cone(kind, d, start, max_radius):
    fw = framework(kind, d, seed=d + start)
    report = analyze(fw)
    expected = stable_radius_from_scratch(fw, report, start, max_radius)
    cone = expansive_cone(fw, report, start)
    if expected is None:
        with pytest.raises(NumericalFailureError):
            find_stable_radius(fw, cone, max_radius)
    else:
        assert find_stable_radius(fw, cone, max_radius) == expected


def test_probe_rejects_a_start_beyond_max_radius(base3):
    cone = expansive_cone(base3, analyze(base3), 3)
    with pytest.raises(ValueError, match="max_radius"):
        find_stable_radius(base3, cone, max_radius=2)
