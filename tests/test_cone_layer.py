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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perigid import (
    ExpansiveCone,
    NumericalFailureError,
    SimplexVariant,
    analyze,
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
    loop_pairs,
    rays_match,
    simplicial_cone_is_complete,
)
from conftest import make_framework, pair_keys, rotated, stream_shifts, whole_pairs, whole_shifts


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
    halfspaces, rays = frozen_cone(whole_pairs(fw, radius)[2], report.flex_basis)
    assert cone.halfspace_matrix.shape == halfspaces.shape
    assert cone.halfspace_matrix.tobytes() == halfspaces.tobytes()
    assert cone.rays.shape == rays.shape
    assert cone.rays.tobytes() == rays.tobytes()
    if kind in ("base", "regular"):
        assert simplicial_cone_is_complete(cone.halfspace_matrix, cone.rays)


@pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, None])
@pytest.mark.parametrize("kind, d", [("stressed", 3), ("base", 4), ("regular", 5)])
def test_row_norms_by_chunks_are_the_one_pass_norms(kind, d, rows_per_chunk, monkeypatch):
    fw = framework(kind, d, seed=d)
    rows, basis = whole_pairs(fw, 2)[2], analyze(fw).flex_basis
    projected = rows @ basis.T
    scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
    norms = np.linalg.norm(projected, axis=1)
    keep = norms > expansive.CONE_TOL * scale
    expected = projected[keep] / norms[keep, None]
    if rows_per_chunk is not None:
        monkeypatch.setattr(expansive, "_CHUNK", rows_per_chunk * rows.shape[1])
    assert expansive._unit_halfspaces(rows, basis).tobytes() == expected.tobytes()
    step = rows_per_chunk or len(rows)
    chunked = np.concatenate([np.linalg.norm(rows[i : i + step], axis=1) for i in range(0, len(rows), step)])
    assert chunked.tobytes() == np.linalg.norm(rows, axis=1).tobytes()


# SHA-256 of the halfspace and ray bytes of the simplex base cone, recorded
# with numpy 2.4.6 and OpenBLAS on x86-64 (other BLAS builds may round
# differently): d = 5, R = 3 and d = 6, R = 2 at commit f3c979d, d = 5, R = 4
# at commit d9a694d.  The frozen oracle needs ~40 s at d = 5, R = 3, so the
# simplicial oracle checks these cones instead.  The d = 6, R = 3 and R = 4
# digests are checked outside this suite, by scripts/north_star_digests.py.
BASE_DIGESTS = {
    (5, 3): (
        "0b1b8769ad0388b4fe89a72d13734a8fdf2db97ae0303d38dfc293bb759a3b85",
        "93f295acb98eb0d8acaa895459e673d17f6f43ad3dc5316df603d44252a864e6",
    ),
    (6, 2): (
        "6a8c7b59601d0b4718cfa1e845f6be81deffe81ada72de4983eb95adcfc09e80",
        "9ea303af66a61b72b75817532b8a401482a0ea2c99014de4f95396e2359f73f0",
    ),
    (5, 4): (
        "68cdd37306664e30936e021029024a674f2f18f461c6737c2b95c9fb6069567f",
        "a1c44f43d5ce853f3c44e8097669335e64335d198dab179385a4cfa561007fc8",
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
    assert simplicial_cone_is_complete(cone.halfspace_matrix, cone.rays)


# Rotated base cones beyond the frozen pipeline's sizes, each checked as the
# digests are: by the simplicial oracle, which shares no code with the package.
@pytest.mark.parametrize("d, radius", [(5, 3), (6, 1), (6, 2), (5, 4)])
def test_rotated_base_cones_are_complete(d, radius):
    fw = framework("base", d, seed=31 * d + radius)
    cone = expansive_cone(fw, analyze(fw), radius)
    assert cone.rays.shape == (d, d)
    assert simplicial_cone_is_complete(cone.halfspace_matrix, cone.rays)


def test_the_simplicial_oracle_rejects_a_missing_facet_and_a_cut_ray():
    rays = np.eye(3)
    assert simplicial_cone_is_complete(np.eye(3), rays)
    # Without its third facet the cone is larger than the rays span.
    assert not simplicial_cone_is_complete(np.eye(3)[:2], rays)
    # A row that the third ray violates.
    assert not simplicial_cone_is_complete(np.vstack([np.eye(3), [[0.0, 1.0, -1.0]]]), rays)


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
def test_streamed_merge_matches_np_unique(rows):
    # Every split of the rows into two consecutive chunks keeps np.unique's
    # first row of each key, in row order.
    want = rows[first_rounded_rows(rows)].tobytes()
    for cut in range(len(rows) + 1):
        seen = set()
        got = [expansive._merge_new(seen, chunk) for chunk in (rows[:cut], rows[cut:])]
        assert np.concatenate(got).tobytes() == want


def test_probe_tests_the_merged_shell_rows(base3, monkeypatch):
    # The shell row rounds to the same 9 decimals as a cone row, so the merge
    # drops it: its violation of the ray (1, 0) must not move the radius.
    cone = ExpansiveCone(
        np.eye(2), np.array([[1.0, 0.0], [-0.9e-9, 1.0]]), 2, np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    twin = np.array([[-1.1e-9, 1.0]])
    assert twin[0] @ cone.rays[1] < -expansive.CONE_TOL
    monkeypatch.setattr(expansive, "_shell_halfspaces", lambda fw, basis, radius: [twin])
    assert find_stable_radius(base3, cone, max_radius=4) == 2


def test_probe_merges_a_twin_across_shell_chunks(base3, monkeypatch):
    # The first chunk's row does not cut the rays; its 9-decimal twin in the
    # second chunk cuts the ray (1, 0), but the merge keeps the first of the
    # key, so the radius must not move.
    cone = ExpansiveCone(np.eye(2), np.eye(2), 2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    first, twin = np.array([[-0.9e-9, 1.0]]), np.array([[-1.1e-9, 1.0]])
    assert not (cone.rays @ first.T < -expansive.CONE_TOL).any()
    assert twin[0] @ cone.rays[1] < -expansive.CONE_TOL
    monkeypatch.setattr(expansive, "_shell_halfspaces", lambda fw, basis, radius: [first, twin])
    assert find_stable_radius(base3, cone, max_radius=4) == 2


def random_pointed_cone(rng, f, integer, k=None):
    """k rows (f + 1 to f + 5 by default) with a positive product against a
    common interior direction, so the cone is pointed with nonempty
    interior; small integer rows make degenerate rays, tight on more than
    f - 1 rows."""
    k = int(rng.integers(f + 1, f + 6)) if k is None else k
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


@pytest.mark.parametrize("chunk", [None, 4])
def test_probe_inserts_a_shell_that_cuts(chunk, monkeypatch):
    # The R = 2 shell of the d = 2 base cuts a ray of the R = 1 cone, so the
    # probe merges that shell chunk by chunk, one key set across however
    # many chunks it streams in, inserts it and reads radius 2.
    fw = simplex_framework(2)
    cone = expansive_cone(fw, analyze(fw), 1)
    if chunk is not None:
        monkeypatch.setattr(expansive, "_PAIR_CHUNK", chunk)
    shell = np.concatenate(list(expansive._shell_halfspaces(fw, cone.flex_basis, 2)))
    assert (cone.rays @ shell.T < -expansive.CONE_TOL).any()
    assert find_stable_radius(fw, cone, max_radius=4) == 2


# -- the pair stream ----------------------------------------------------------


@pytest.mark.parametrize("count", [1, 1023, 1024, 2047, 2048, 4687])
def test_pair_stream_folds_the_last_chunk_into_the_one_before(count):
    # One orbit in d = 1 has one pair per shift -R .. -1 within radius R.
    chunks = list(expansive._pair_incidence(("a",), 1, count))
    sizes = [len(tails) for tails, _, _ in chunks]
    step = expansive._PAIR_CHUNK
    assert sizes[:-1] == [step] * (len(sizes) - 1)
    assert sizes == [count] if count < step else step <= sizes[-1] < 2 * step
    assert np.concatenate([shifts for _, _, shifts in chunks]).tolist() == [[w] for w in range(-count, 0)]


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize(
    "kind, d, radius",
    [("stressed", 3, 2), ("base", 2, 3), ("removed:1", 3, 2), ("base", 4, 3), ("regular", 5, 2)],
)
def test_pair_stream_is_the_whole_pair_set_in_order(kind, d, radius, chunk, monkeypatch):
    fw = framework(kind, d, seed=d + radius)
    with monkeypatch.context() as one_chunk:
        # One chunk: the rows of one product over the whole pair set.
        one_chunk.setattr(expansive, "_PAIR_CHUNK", 1 << 30)
        tails, heads, rows = whole_pairs(fw, radius)
    shifts = whole_shifts(fw, radius)
    keys = pair_keys(fw, tails, heads, shifts)
    if chunk is not None:
        monkeypatch.setattr(expansive, "_PAIR_CHUNK", chunk)
    step = expansive._PAIR_CHUNK
    on_shell = np.abs(shifts).max(axis=1) == radius
    for shell, keep in ((False, np.ones(len(rows), dtype=bool)), (True, on_shell)):
        chunks = list(expansive._pair_chunks(fw, radius, shell=shell))
        sizes = [len(c_rows) for *_, c_rows in chunks]
        assert sizes == [keep.sum()] if keep.sum() < step else all(step <= s < 2 * step for s in sizes)
        chunk_keys = [k for (t, h, _), w in zip(chunks, stream_shifts(fw, radius, shell)) for k in pair_keys(fw, t, h, w)]
        assert chunk_keys == [k for k, kept in zip(keys, keep) if kept]
        assert np.concatenate([c_rows for *_, c_rows in chunks]).tobytes() == rows[keep].tobytes()


@pytest.mark.parametrize("orbits, d, radius", [(("a",), 1, 3), (("c", "a", "b"), 2, 2), (("b", "a"), 3, 1), (("x", "y"), 4, 2)])
def test_pairs_at_a_stream_position_are_the_streams(orbits, d, radius):
    # The audit table and keys read pairs by stream position from the block
    # layout alone; it must be the stream's, block sizes included.
    tails, heads, shifts = map(np.concatenate, zip(*expansive._pair_incidence(orbits, d, radius)))
    assert sum(count for _, _, count in expansive._pair_blocks(orbits, d, radius)) == len(tails)
    for index in (np.arange(len(tails)), np.array([0, 0, len(tails) // 2, len(tails) - 1])):
        at = expansive._pairs_at(orbits, d, radius, index)
        for got, expected in zip(at, (tails, heads, shifts)):
            assert got.tolist() == expected[index].tolist()


@pytest.mark.parametrize("chunk", [None, 7])
def test_pair_stream_of_three_orbits_is_the_loop_order(chunk, monkeypatch):
    # Orbits stored out of name order, so the a < b blocks are not in index
    # order; the per-pair loop in `_oracles` shares no code with the stream.
    positions = {"c": np.array([0.1, 0.2]), "a": np.array([0.5, 0.1]), "b": np.array([0.3, 0.7])}
    lattice = np.array([[1.0, 0.2], [0.1, 1.1]])
    edges = [("c", "a", (0, 0)), ("a", "b", (1, 0)), ("b", "c", (0, 1))]
    fw = make_framework(2, positions, lattice, edges)
    if chunk is not None:
        monkeypatch.setattr(expansive, "_PAIR_CHUNK", chunk)
    keys, _, rows = loop_pairs(positions, lattice, 3)
    chunks = list(expansive._pair_chunks(fw, 3))
    assert [k for (t, h, _), w in zip(chunks, stream_shifts(fw, 3)) for k in pair_keys(fw, t, h, w)] == keys
    assert np.concatenate([c_rows for *_, c_rows in chunks]).tobytes() == rows.tobytes()


@pytest.mark.parametrize("kind, d, radius", CONES)
def test_streamed_projection_is_the_one_product(kind, d, radius, monkeypatch):
    # Each chunk of pairs is projected by its own matrix product.  That a
    # row's bits do not depend on the chunk is observed of this BLAS for
    # chunks of 512 rows or more, not proved, so a BLAS that rounds
    # differently fails here.
    fw = framework(kind, d, seed=31 * d + radius)
    report = analyze(fw)
    unit = expansive._unit_halfspaces
    cone_rows = whole_pairs(fw, radius)[2]
    beyond = whole_pairs(fw, radius + 1)[2]
    shell_rows = beyond[np.abs(whole_shifts(fw, radius + 1)).max(axis=1) == radius + 1]
    seen = []

    def kept(rows, basis):
        seen.append(unit(rows, basis))
        return seen[-1]

    monkeypatch.setattr(expansive, "_PAIR_CHUNK", 512)
    monkeypatch.setattr(expansive, "_unit_halfspaces", kept)
    expansive_cone(fw, report, radius)
    assert np.concatenate(seen).tobytes() == unit(cone_rows, report.flex_basis).tobytes()
    shell = np.concatenate(list(expansive._shell_halfspaces(fw, report.flex_basis, radius + 1)))
    assert shell.tobytes() == unit(shell_rows, report.flex_basis).tobytes()


# -- guarded products ---------------------------------------------------------


def reference_tight(a, rays):
    """The reference: |a @ ray| <= CONE_TOL from one matrix-vector product
    per ray."""
    return np.abs((a[None] @ rays[:, :, None])[:, :, 0]) <= expansive.CONE_TOL


def guarded_tight(a, rays):
    """The active sets `_DoubleDescription` writes for `rays` over every row of `a`."""
    sets = expansive._DoubleDescription(a, len(a), rays)
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


@pytest.mark.parametrize(
    "kind, d, radius", [("stressed", 3, 2), ("base", 3, 3), ("regular", 4, 2), ("base", 5, 2)]
)
def test_the_reference_products_alone_give_the_frozen_cone(kind, d, radius, monkeypatch):
    # A band of 1 holds every value of unit rows and rays, so every block of
    # the run scan and every chunk of `write` is decided by the reference
    # products.
    below, sent = expansive._below, []

    def recorded(mag, band):
        tight = below(mag, band)
        sent.append(tight is None)
        return tight

    monkeypatch.setattr(expansive, "_band", lambda rows, rays: 1.0)
    monkeypatch.setattr(expansive, "_below", recorded)
    fw = framework(kind, d, seed=31 * d + radius)
    report = analyze(fw)
    cone = expansive_cone(fw, report, radius)
    halfspaces, rays = frozen_cone(whole_pairs(fw, radius)[2], report.flex_basis)
    assert cone.halfspace_matrix.tobytes() == halfspaces.tobytes()
    assert cone.rays.shape == rays.shape and cone.rays.tobytes() == rays.tobytes()
    assert sent and all(sent)


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


@pytest.mark.parametrize("value", [np.nan, 5.0])
@pytest.mark.parametrize("spoiled", [1, 2])
def test_adjacency_counts_outside_the_columns_raise(spoiled, value):
    # Each count of a 0/1 product lies in [0, columns]; the common-set
    # (1st) or containment (2nd) product with one that does not, or with a
    # NaN, raises instead of deciding adjacency.
    calls = []

    class Spoiled(np.ndarray):
        def __matmul__(self, other):
            out = np.asarray(self) @ np.asarray(other)
            calls.append(len(calls) + 1)
            if calls[-1] == spoiled:
                out.flat[0] = value
            return out

    inc = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1]], dtype=bool)  # 4 columns read
    assert len(expansive._adjacent_pairs(inc, np.array([0]), np.array([1, 2]), 3)[0]) == 2
    with pytest.raises(NumericalFailureError):
        expansive._adjacent_pairs(inc.view(Spoiled), np.array([0]), np.array([1, 2]), 3)
    assert len(calls) == spoiled


def test_a_small_buffer_drops_and_refreshes_columns_bit_for_bit(monkeypatch):
    # Two columns, the last one never read: every halfspace forces a rebuild,
    # and every rebuild computes afresh the minima of the columns no ray's set
    # holds.
    monkeypatch.setattr(expansive, "_WIDTH", 2)
    rebuild, kept = expansive._DoubleDescription._rebuild, []

    def recorded(self, r, rows, extra):
        before = self.hs[: self.c].copy()
        loose = ~np.logical_or.reduce(self.inc[:r, : self.c], axis=0)
        rebuild(self, r, rows, extra)
        after = np.isin(before, self.hs[: self.c])
        # A dropped column is one no current ray is tight at.
        assert not reference_tight(self.a[before[~after]], self.rays).any()
        if r:
            kept.append(after[loose])

    monkeypatch.setattr(expansive._DoubleDescription, "_rebuild", recorded)
    rng = np.random.default_rng(7)
    cones = [random_pointed_cone(rng, f, True) for f in (3, 4, 5, 6) for _ in range(4)]
    cones = [rows for rows in cones if np.linalg.matrix_rank(rows) == rows.shape[1]]
    for kind, d, radius in [("base", 4, 2), ("removed:1", 4, 2), ("stressed", 3, 2)]:
        fw = framework(kind, d, seed=d + radius)
        cones.append(expansive_cone(fw, analyze(fw), radius).halfspace_matrix)
    for rows in cones:
        assert extremal_rays(rows).tobytes() == frozen_extremal_rays(rows, rows.shape[1]).tobytes()
    # Within a pass the fresh minima keep some columns no ray's set holds
    # and drop others.
    kept = np.concatenate(kept)
    assert kept.any() and not kept.all()


def test_past_the_cut_budget_a_rebuild_keeps_every_column(monkeypatch):
    # The frozen-pipeline inputs and their radius probes with the budget at 0
    # cuts: the same bytes and radii, and no rebuild drops a column, where
    # with the budget some rebuild does.  Each pass counts its cuts (one
    # `_adjacent_pairs` call a cut) from n - f, so a probe from the cone's.
    dd, adjacent = expansive._DoubleDescription, expansive._adjacent_pairs
    rebuild, insert = dd._rebuild, dd.insert
    dropped, calls, starts = [], [], []

    def recorded(self, r, rows, extra):
        before = self.hs[: self.c].copy()
        rebuild(self, r, rows, extra)
        dropped.append(not np.isin(before, self.hs[: self.c]).all())

    def counted(*args):
        calls.append(1)
        return adjacent(*args)

    def counted_insert(self):
        starts.append(self.cuts)
        assert self.cuts == self.n - self.a.shape[1]
        n_calls = len(calls)
        rays = insert(self)
        assert self.cuts - starts[-1] == len(calls) - n_calls
        return rays

    monkeypatch.setattr(dd, "_rebuild", recorded)
    monkeypatch.setattr(dd, "insert", counted_insert)
    monkeypatch.setattr(expansive, "_adjacent_pairs", counted)

    def cone_and_probe(kind, d, radius):
        fw = framework(kind, d, seed=31 * d + radius)
        cone = expansive_cone(fw, analyze(fw), radius)
        return cone.halfspace_matrix.tobytes(), cone.rays.tobytes(), find_stable_radius(fw, cone)

    expected = {case: cone_and_probe(*case) for case in CONES}
    assert any(dropped) and calls and max(starts) > 0
    dropped.clear()
    monkeypatch.setattr(expansive, "_NEAR_CUTS", 0)
    assert {case: cone_and_probe(*case) for case in CONES} == expected
    assert dropped and not any(dropped)


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_a_column_no_ray_is_tight_at_stays_while_its_bound_is_within_the_margin(offset):
    # The coordinate rays; the planted row's smallest value over them is its
    # first entry, a hair inside or outside `_NEAR`, the margin of 1e-10
    # above CONE_TOL, so no ray is tight at it.
    low = expansive._NEAR + offset
    side = np.sqrt((1 - low * low) / 2)
    a = np.vstack([np.eye(3), [[low, side, side]]])
    rays = np.eye(3)
    inside = offset < 0
    # The first buffer is a rebuild's, and so is a later one: a column
    # appended by the run scan stays until the next rebuild decides.
    sets = expansive._DoubleDescription(a, 4, rays)
    assert (3 in sets.hs[: sets.c]) == inside
    sets = expansive._DoubleDescription(a, 3, rays)
    sets.append(np.zeros((3, 1), dtype=bool))
    assert 3 in sets.hs[: sets.c]
    sets._rebuild(3, 3, 0)
    assert (3 in sets.hs[: sets.c]) == inside
    assert guarded_tight(a, rays).tolist() == reference_tight(a, rays).tolist()
    # The rays a pass makes from here are still not tight at the row.
    rows = np.vstack([a, [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]]])
    assert extremal_rays(rows).tobytes() == frozen_extremal_rays(rows, 3).tobytes()


@st.composite
def cut_sequences(draw):
    """A pointed cone of up to 40 rows in random order, so a random sequence
    of cuts, and a starting buffer width small enough to force rebuilds or
    not.

    Or a degenerate one: R_+ e_1 + D for a random pointed cone D in the
    other f - 1 coordinates, then cut by a last row on which only e_1 is
    positive.  Every ray but e_1 is tight at the row e_1, which comes last
    in the starting basis, so ray 0 is never e_1, and the last cut drops
    every ray but e_1, ray 0 included."""
    degenerate = draw(st.booleans())
    f = draw(st.integers(3 if degenerate else 2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer, width = draw(st.booleans()), draw(st.sampled_from([2, 8, 256]))
    if not degenerate:
        return random_pointed_cone(rng, f, integer, draw(st.integers(f, 40))), width
    d = random_pointed_cone(rng, f - 1, integer, draw(st.integers(f, 40)))
    d = np.hstack([np.zeros((len(d), 1)), d])
    e1 = np.eye(f)[:1]
    last = e1 - (d / np.linalg.norm(d, axis=1, keepdims=True)).sum(axis=0)
    return np.vstack([d[: f - 1], e1, d[f - 1 :], last]), width


@given(cut_sequences())
@settings(max_examples=150, deadline=None)
def test_pruned_tight_sets_are_the_per_ray_products_over_every_processed_halfspace(case):
    rows, width = case
    assume(np.linalg.matrix_rank(rows) == rows.shape[1])
    write = expansive._DoubleDescription.write

    def checked(self, lo):
        write(self, lo)
        got = np.zeros((len(self.rays), self.n), dtype=bool)
        got[:, self.hs[: self.c]] = self.inc[: len(self.rays), : self.c]
        assert got.tolist() == reference_tight(self.a[: self.n], self.rays).tolist()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expansive, "_WIDTH", width)
        patch.setattr(expansive._DoubleDescription, "write", checked)
        rays = extremal_rays(rows)
    assert rays.tobytes() == frozen_extremal_rays(rows, rows.shape[1]).tobytes()


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

