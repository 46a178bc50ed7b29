"""The array cone layer against frozen loop code, brute force, np.unique
and the from-scratch radius probe, and its guarded products against the
reference products.

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
    _frozen_adjacent,
    brute_force_rays,
    first_rounded_rows,
    frozen_cone,
    frozen_extremal_rays,
    frozen_finish_kept,
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


# -- guarded products ---------------------------------------------------------


def reference_tight(a, rays):
    """The reference: |a @ ray| <= CONE_TOL from one matrix-vector product
    per ray."""
    return np.abs((a[None] @ rays[:, :, None])[:, :, 0]) <= expansive.CONE_TOL


def guarded_tight(a, rays):
    """The active sets `_ActiveSets` writes for `rays` over every row of `a`."""
    sets = expansive._ActiveSets(a, len(a), rays)
    tight = np.zeros((len(rays), len(a)), dtype=bool)
    tight[:, sets.hs[: sets.c]] = sets.inc[: len(rays), : sets.c]
    return tight


def test_a_value_in_the_band_takes_the_reference_path():
    # The GEMM value of the first row is CONE_TOL itself.
    a = np.array([[np.sqrt(1 - 1e-18), 0.0, 1e-9], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    rays = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert expansive._below(np.abs(rays @ a.T), expansive._band(a, rays)) is None
    got = guarded_tight(a, rays)
    assert got.tolist() == reference_tight(a, rays).tolist() == [[True, True, False], [True, False, True]]


def unit(v):
    return v / np.linalg.norm(v)


@st.composite
def rows_near_the_threshold(draw):
    """Unit rays and unit rows whose dot with one of the rays is
    +-(CONE_TOL + delta), delta a few band widths at most, or arbitrary."""
    f = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rays = np.array([unit(rng.standard_normal(f)) for _ in range(draw(st.integers(1, 5)))])
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        target = rays[draw(st.integers(0, len(rays) - 1))]
        if draw(st.booleans()):
            rows.append(unit(rng.standard_normal(f)))
            continue
        t = draw(st.sampled_from([-1.0, 1.0])) * expansive.CONE_TOL
        t += draw(st.floats(-5e-15, 5e-15))
        side = rng.standard_normal(f)
        side = unit(side - (side @ target) * target)
        rows.append(np.sqrt(1 - t * t) * side + t * target)
    return np.array(rows), rays


@given(rows_near_the_threshold())
@settings(max_examples=300, deadline=None)
def test_guarded_tight_sets_match_the_per_ray_products(case):
    a, rays = case
    assert guarded_tight(a, rays).tolist() == reference_tight(a, rays).tolist()


@st.composite
def incidences(draw):
    """A random ray x column incidence, each ray on the positive (1),
    zero (0) or negative (-1) side, and a cone dimension."""
    r, c = draw(st.integers(1, 10)), draw(st.integers(0, 8))
    bits = draw(st.lists(st.booleans(), min_size=r * c, max_size=r * c))
    sides = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=r, max_size=r)))
    return np.array(bits, dtype=bool).reshape(r, c), sides, draw(st.integers(2, 6))


@given(incidences())
@settings(max_examples=300, deadline=None)
def test_adjacent_pairs_are_the_frozen_subset_test(case):
    inc, sides, f = case
    pos, neg = np.flatnonzero(sides == 1), np.flatnonzero(sides == -1)
    p, q = expansive._adjacent_pairs(inc, pos, neg, f)
    masks = [sum(1 << int(t) for t in np.flatnonzero(row)) for row in inc]
    # Only pairs with at least f - 2 common members are tested: in a double
    # description the others are never adjacent.
    expected = [
        (i, j)
        for i in pos.tolist()
        for j in neg.tolist()
        if bin(masks[i] & masks[j]).count("1") >= f - 2 and _frozen_adjacent(masks, i, j)
    ]
    assert list(zip(p.tolist(), q.tolist())) == expected


def counting(monkeypatch, name):
    """Count the calls of `_ActiveSets.<name>`."""
    calls = []
    method = getattr(expansive._ActiveSets, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(expansive._ActiveSets, name, counted)
    return calls


def test_a_small_buffer_drops_and_revives_columns_bit_for_bit(monkeypatch):
    # Two columns, the last one never read: every halfspace forces a rebuild.
    monkeypatch.setattr(expansive, "_WIDTH", 2)
    rebuilds, revivals = counting(monkeypatch, "_rebuild"), counting(monkeypatch, "_revive")
    rng = np.random.default_rng(7)
    cones = [random_pointed_cone(rng, f, True) for f in (3, 4, 5, 6) for _ in range(4)]
    cones = [rows for rows in cones if np.linalg.matrix_rank(rows) == rows.shape[1]]
    for kind, d, radius in [("base", 4, 2), ("removed:1", 4, 2), ("stressed", 3, 2)]:
        fw = framework(kind, d, seed=d + radius)
        cones.append(expansive_cone(fw, analyze(fw), radius).halfspace_matrix)
    for rows in cones:
        assert extremal_rays(rows).tobytes() == frozen_extremal_rays(rows, rows.shape[1]).tobytes()
    assert rebuilds and revivals


@pytest.mark.parametrize("chunk", [expansive._CHUNK, 130, 1])
def test_finish_merges_as_the_frozen_loop(chunk, monkeypatch):
    # 130 entries are chunks of two rows, 1 is a chunk of one row.
    monkeypatch.setattr(expansive, "_CHUNK", chunk)
    rng = np.random.default_rng(3)
    base = np.array([unit(rng.standard_normal(4)) for _ in range(6)])
    offset = unit(rng.standard_normal(4))
    # Twins just inside and just outside CONE_TOL of a base ray, and a chain
    # whose middle link is merged, so its last one is compared only with kept rays.
    rays = np.concatenate([
        base,
        base[:3] + 0.99e-9 * offset,
        base[3:] + 1.01e-9 * offset,
        base[:1] + 1.6e-9 * offset,
    ])
    kept = rays[frozen_finish_kept(rays)]
    expected = kept[np.lexsort(np.round(kept, 12).T[::-1])]
    got = expansive._finish(rays, np.zeros((1, 4)))
    assert got.tobytes() == expected.tobytes()
    assert 6 < len(got) < len(rays)

