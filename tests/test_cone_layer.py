"""The array cone layer against frozen loop code, brute force, np.unique
and the from-scratch radius probe.

The halfspace merge and the double description must make the same
decisions with the same arithmetic as the loop-and-bitmask code they
replaced, of which ``_oracles`` keeps a frozen copy: the halfspace matrix
and the rays are compared byte for byte on randomly rotated frameworks.
Ray sets of random pointed cones are compared with an (f-1)-subset
enumeration, and the incremental radius probe with rebuilding each cone.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import (
    ExpansiveCone,
    NumericalFailureError,
    SimplexVariant,
    analyze,
    enumerate_pairs,
    expansive,
    expansive_cone,
    extremal_rays,
    find_stable_radius,
    simplex_framework,
    stressed_framework,
)
from _oracles import (
    brute_force_rays,
    first_rounded_rows,
    frozen_cone,
    frozen_extremal_rays,
    rays_match,
)
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


# SHA-256 of the halfspace and ray bytes of the simplex base cone, recorded
# at commit f3c979d with numpy 2.4.6 and OpenBLAS on x86-64 (other BLAS builds
# may round differently).  The frozen oracle needs ~40 s at these sizes.
BASE_DIGESTS = {
    (5, 3): (
        "0b1b8769ad0388b4fe89a72d13734a8fdf2db97ae0303d38dfc293bb759a3b85",
        "93f295acb98eb0d8acaa895459e673d17f6f43ad3dc5316df603d44252a864e6",
    ),
    (6, 2): (
        "6a8c7b59601d0b4718cfa1e845f6be81deffe81ada72de4983eb95adcfc09e80",
        "9ea303af66a61b72b75817532b8a401482a0ea2c99014de4f95396e2359f73f0",
    ),
}


@pytest.mark.parametrize("d, radius", sorted(BASE_DIGESTS))
def test_base_cone_bytes_at_flex_dimension_five_and_six(d, radius):
    fw = simplex_framework(d)
    cone = expansive_cone(fw, analyze(fw), radius)
    digests = tuple(
        hashlib.sha256(m.tobytes()).hexdigest() for m in (cone.halfspace_matrix, cone.rays)
    )
    assert digests == BASE_DIGESTS[d, radius]


# Entries that round to the same 9 decimals or not: signed zeros, values a
# nudge away from a rounding boundary (x.xxxxxxxxx5), and arbitrary ones.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-10, -5e-10, 0.1234567885, -0.1234567885]),
    st.floats(-1, 1),
)
_NUDGE = [0.0, -0.0, 1e-12, -1e-12, 4e-10, -4e-10, 6e-10, -6e-10]


@st.composite
def near_duplicate_rows(draw):
    """Copies of a few base rows, each nudged in one column or not at all."""
    f = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(_ENTRY, min_size=f, max_size=f), min_size=1, max_size=5))
    copies = st.tuples(
        st.integers(0, len(base) - 1), st.integers(0, f - 1), st.sampled_from(_NUDGE)
    )
    rows = []
    for b, c, nudge in draw(st.lists(copies, max_size=24)):
        row = list(base[b])
        row[c] += nudge
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), f)


@given(near_duplicate_rows())
@settings(max_examples=300, deadline=None)
def test_first_unique_matches_np_unique(rows):
    got = expansive._first_unique(rows)
    assert got.tolist() == first_rounded_rows(rows).tolist()


def test_probe_tests_the_merged_shell_rows(base3, monkeypatch):
    # The shell row rounds to the same 9 decimals as a cone row, so the merge
    # drops it: its violation of the ray (1, 0) must not move the radius.
    cone = ExpansiveCone(
        np.eye(2), np.array([[1.0, 0.0], [-0.9e-9, 1.0]]), 2, np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    twin = np.array([[-1.1e-9, 1.0]])
    assert twin[0] @ cone.rays[1] < -expansive.CONE_TOL
    monkeypatch.setattr(expansive, "_shell_halfspaces", lambda fw, basis, radius: twin)
    assert find_stable_radius(base3, cone, max_radius=4) == 2


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
