import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from perigid import (
    EdgeOrbit,
    FlexClass,
    FrameworkError,
    NewtonDivergenceError,
    NotAFlexError,
    NumericalFailureError,
    NotSimplexFamilyError,
    Placement,
    QuotientGraph,
    SimplexVariant,
    SingularJacobianError,
    SingularLatticeError,
    ZeroLengthEdgeError,
    analyze,
    audit_expansiveness,
    classify_flex,
    continue_motion,
    enumerate_pairs,
    expansive_cone,
    export_frames,
    facet_separation,
    pair_constraint,
    simplex_framework,
    stressed_framework,
    trivial_motion_basis,
    validate_framework,
    with_edge_orbit,
)
from perigid import motion
from perigid.motion import MotionPath, write_audit_csv
from perigid.rigidity import pack_motion

from _oracles import frozen_frames, frozen_gauge_free_indices
from conftest import make_framework


def expanding_flex(fw):
    flex = analyze(fw).flex_basis[0]
    if classify_flex(fw, flex) is FlexClass.NOT_EXPANSIVE:
        flex = -flex
    assert classify_flex(fw, flex) is FlexClass.EFFECTIVELY_EXPANSIVE
    return flex


@pytest.fixture(scope="module")
def mech2():
    return simplex_framework(2, SimplexVariant("removed", 1))


@pytest.fixture(scope="module")
def path2(mech2):
    return continue_motion(mech2, expanding_flex(mech2), n_steps=50, h=0.01)


def test_rigid_framework_rejects_random_direction(enhanced3):
    rng = np.random.default_rng(3)
    with pytest.raises(NotAFlexError):
        continue_motion(enhanced3, rng.standard_normal(15))


def test_trivial_direction_gives_zero_path(enhanced3):
    v = trivial_motion_basis(enhanced3)[0]
    path = continue_motion(enhanced3, v, n_steps=5, h=0.01)
    assert path.n_steps == 5
    p0 = path.placements[0]
    for pl in path.placements[1:]:
        assert np.array_equal(pl.lattice, p0.lattice)
        for o in path.graph.vertex_orbits:
            assert np.array_equal(pl.positions[o], p0.positions[o])


def test_mechanism_path_residuals(path2):
    assert path2.n_steps == 50
    assert path2.residuals.max() < 1e-10


def test_edge_lengths_preserved(mech2, path2):
    base = mech2.edge_lengths
    for k in range(mech2.m):
        for step in range(0, 51, 10):
            fw_k = validate_framework(path2.graph, path2.placements[step])
            assert abs(fw_k.edge_lengths[k] ** 2 - base[k] ** 2) < 10 * 1e-10


def test_step_zero_is_input(mech2, path2):
    for o in mech2.graph.vertex_orbits:
        assert np.array_equal(path2.placements[0].positions[o], mech2.placement.positions[o])
    assert np.array_equal(path2.placements[0].lattice, mech2.placement.lattice)


def test_tangent_continuity(path2):
    for a, b in zip(path2.tangents, path2.tangents[1:]):
        angle = np.arccos(np.clip(a @ b, -1.0, 1.0))
        assert angle < 0.1


def test_audit_passes_forward_fails_reversed(mech2, path2):
    audit = audit_expansiveness(path2, radius=2)
    assert audit.passed and not audit.violations
    reverse = continue_motion(mech2, -expanding_flex(mech2), n_steps=50, h=0.01)
    bad = audit_expansiveness(reverse, radius=2)
    assert not bad.passed
    assert bad.violations


def test_first_order_agreement(mech2, path2):
    # Finite difference of squared pair distances against the pair rows.
    t0 = path2.tangents[0]
    h_eff = path2.step_size
    for key in list(audit_expansiveness(path2, radius=2).pair_results)[:40]:
        a, b, shift = key
        p = pair_constraint(mech2, a, b, shift)
        d0 = np.linalg.norm(
            path2.placements[0].positions[b]
            + path2.placements[0].lattice @ np.asarray(shift, float)
            - path2.placements[0].positions[a]
        )
        d1 = np.linalg.norm(
            path2.placements[1].positions[b]
            + path2.placements[1].lattice @ np.asarray(shift, float)
            - path2.placements[1].positions[a]
        )
        fd = (d1**2 - d0**2) / (2 * h_eff)
        assert abs(fd - p.rows[0] @ t0) < 10 * 0.01  # ten times the path's h


def test_interior_seed_passes_outside_fails(stressed):
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, radius=2)
    interior = cone.ray_motion(0) + cone.ray_motion(1)
    path = continue_motion(stressed, interior, n_steps=20, h=0.005)
    assert audit_expansiveness(path, radius=2).passed
    outside = cone.ray_motion(0) - 2 * cone.ray_motion(1)
    path_out = continue_motion(stressed, outside, n_steps=20, h=0.005)
    assert not audit_expansiveness(path_out, radius=2).passed


def test_boundary_ray_via_period_edge_mechanism(stressed):
    # Fixing one period length equals inserting the corresponding red-red
    # edge orbit; the resulting one-dof mechanism realizes the extremal ray
    # and keeps that pair distance constant.
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, radius=2)
    row_e1 = pair_constraint(stressed, "red", "red", (1, 0, 0)).rows[0]
    ray = min(range(2), key=lambda i: abs(row_e1 @ cone.ray_motion(i)))
    mech = with_edge_orbit(stressed, "red", "red", (1, 0, 0))
    flex = analyze(mech).flex_basis[0]
    if flex @ cone.ray_motion(ray) < 0:
        flex = -flex
    path = continue_motion(mech, flex, n_steps=50, h=0.01)
    audit = audit_expansiveness(path, radius=2)
    assert audit.passed
    dists = [
        np.linalg.norm(pl.lattice @ np.array([1.0, 0, 0])) for pl in path.placements
    ]
    assert max(abs(d - dists[0]) for d in dists) < 1e-8


# -- facet separation ----------------------------------------------------------


def test_facet_separation_increases(path2):
    sep = facet_separation(path2)
    assert np.all(np.diff(sep) > 0)


def test_facet_separation_increases_3d():
    fw = simplex_framework(3, SimplexVariant("removed", 2))
    path = continue_motion(fw, expanding_flex(fw), n_steps=20, h=0.01)
    sep = facet_separation(path)
    assert np.all(np.diff(sep) > 0)


def test_facet_separation_constant_on_rigid(enhanced3):
    path = MotionPath(
        graph=enhanced3.graph,
        placements=[enhanced3.placement] * 4,
        step_size=0.0,
        tangents=np.zeros((4, 15)),
        residuals=np.zeros(4),
    )
    sep = facet_separation(path)
    assert np.allclose(sep, sep[0])


def test_facet_separation_requires_family(stressed):
    path = MotionPath(
        graph=stressed.graph,
        placements=[stressed.placement] * 2,
        step_size=0.0,
        tangents=np.zeros((2, 15)),
        residuals=np.zeros(2),
    )
    with pytest.raises(NotSimplexFamilyError, match="edge offsets"):
        facet_separation(path)
    positions = {"a": [0.0, 0.0], "b": [0.5, 0.0], "c": [0.0, 0.5]}
    edges = [("a", "b", (0, 0)), ("b", "c", (0, 0)), ("c", "a", (1, 1))]
    fw = make_framework(2, positions, np.eye(2), edges)
    path = MotionPath(fw.graph, [fw.placement] * 2, 0.0, np.zeros((2, 10)), np.zeros(2))
    with pytest.raises(NotSimplexFamilyError, match="exactly two vertex orbits"):
        facet_separation(path)


def test_audit_needs_two_steps(mech2):
    path = continue_motion(mech2, expanding_flex(mech2), n_steps=0)
    with pytest.raises(ValueError, match="at least two steps"):
        audit_expansiveness(path)


# -- exports --------------------------------------------------------------------


def test_export_obj(tmp_path, path2):
    files = export_frames(path2, supercell=1, fmt="obj", outdir=tmp_path)
    assert len(files) == 51
    text = (tmp_path / "frame_0000.obj").read_text().strip().split("\n")
    kinds = {line.split()[0] for line in text}
    assert kinds == {"v", "l"}
    n_vertices = sum(1 for line in text if line.startswith("v "))
    assert n_vertices == 2 * 9  # two orbits, 3x3 supercell in d=2


def test_export_obj_vertex_positions_match(tmp_path, stressed):
    path = MotionPath(
        graph=stressed.graph,
        placements=[stressed.placement],
        step_size=0.0,
        tangents=np.zeros((1, 15)),
        residuals=np.zeros(1),
    )
    files = export_frames(path, supercell=1, fmt="obj", outdir=tmp_path)
    text = (tmp_path / "frame_0000.obj").read_text().strip().split("\n")
    verts = [line.split()[1:] for line in text if line.startswith("v ")]
    assert len(verts) == 2 * 27
    import itertools

    shifts = list(itertools.product((-1, 0, 1), repeat=3))
    idx = 0
    for orbit in stressed.graph.vertex_orbits:
        for w in shifts:
            p, lattice = stressed.placement.positions[orbit], stressed.placement.lattice
            expected = p + lattice @ np.asarray(w, dtype=float)
            got = np.array([float(x) for x in verts[idx]])
            assert np.array_equal(got, expected)
            idx += 1


def test_export_csv(tmp_path, path2):
    files = export_frames(path2, supercell=1, fmt="csv", outdir=tmp_path)
    lines = (tmp_path / "frames.csv").read_text().strip().split("\n")
    assert lines[0] == "step,orbit,shift_1,shift_2,x_1,x_2"
    assert len(lines) == 1 + 51 * 2 * 9


def test_audit_csv(tmp_path, path2):
    audit = audit_expansiveness(path2, radius=1)
    write_audit_csv(audit, tmp_path / "audit.csv")
    lines = (tmp_path / "audit.csv").read_text().strip().split("\n")
    assert lines[0] == "orbit_a,orbit_b,shift_1,shift_2,min_increment,first_violation_step"
    assert len(lines) == 1 + len(audit.pair_results)
    assert all(line.endswith(",") or line.split(",")[-1].isdigit() for line in lines[1:])


@pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf")])
def test_continue_motion_rejects_nonpositive_step(mech2, h):
    with pytest.raises(ValueError, match="step size"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=2, h=h)


def test_an_overflowing_step_is_a_newton_divergence(mech2, capfd):
    # The predicted state's squared lengths overflow: the corrector raises
    # before least squares, which would fail inside LAPACK.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NewtonDivergenceError, match="corrector residual is inf"):
            continue_motion(mech2, expanding_flex(mech2), n_steps=2, h=1e308)
    assert "DLASCL" not in capfd.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n_steps", [-3, 2.5, "2", None])
def test_continue_motion_rejects_a_step_count_that_is_not_a_nonnegative_int(mech2, n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=n_steps)


@pytest.mark.parametrize("n_steps", [0, np.int64(2)])
def test_continue_motion_accepts_zero_and_numpy_step_counts(mech2, n_steps):
    path = continue_motion(mech2, expanding_flex(mech2), n_steps=n_steps)
    assert path.n_steps == n_steps and len(path.residuals) == n_steps + 1


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_export_rejects_negative_supercell(tmp_path, path2, fmt):
    with pytest.raises(ValueError, match="supercell"):
        export_frames(path2, supercell=-1, fmt=fmt, outdir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_export_rejects_an_unknown_format_and_obj_beyond_three_dimensions(tmp_path, path2):
    with pytest.raises(ValueError, match="unknown format 'ply'"):
        export_frames(path2, fmt="ply", outdir=tmp_path)
    fw = simplex_framework(4)
    path4 = MotionPath(fw.graph, [fw.placement] * 2, 0.0, np.zeros((2, 24)), np.zeros(2))
    with pytest.raises(ValueError, match="obj export supports d <= 3"):
        export_frames(path4, fmt="obj", outdir=tmp_path)
    assert list(tmp_path.iterdir()) == []


# -- per-step placement check ------------------------------------------------------


def broken_state(fw, kind):
    """The framework's motion state with a singular lattice, a zero-length
    bar or a non-finite coordinate."""
    positions = np.array([fw.placement.positions[o] for o in fw.graph.vertex_orbits])
    lattice = fw.placement.lattice.copy()
    if kind is SingularLatticeError:
        lattice[:, 1] = lattice[:, 0]
    elif kind is ZeroLengthEdgeError:
        tail, head, shift = fw.graph.edge_orbits[0]
        positions[fw.orbit_index(head)] = (
            positions[fw.orbit_index(tail)] - lattice @ np.asarray(shift, float)
        )
    else:
        positions[-1, 0] = np.nan
    return pack_motion(positions, lattice)


@pytest.mark.parametrize("kind", [SingularLatticeError, ZeroLengthEdgeError, FrameworkError])
def test_step_errors_match_validate_framework(mech2, monkeypatch, kind):
    # A corrector that lands on a broken state: the step raises what
    # validate_framework raises on that state, class and message.
    state = broken_state(mech2, kind)
    with pytest.raises(FrameworkError) as expected:
        validate_framework(mech2.graph, motion._placement_of(mech2.graph, state))
    assert type(expected.value) is kind
    monkeypatch.setattr(motion, "_newton_correct", lambda *args: (state.copy(), 0.0))
    with pytest.raises(FrameworkError) as got:
        continue_motion(mech2, expanding_flex(mech2), n_steps=1)
    assert type(got.value) is kind
    assert str(got.value) == str(expected.value)


def recording_corrector(monkeypatch, stall=False):
    """Patch the corrector to record the size of each call's free set, and
    to stall on every call if `stall`; returns the recorded sizes."""
    sizes, real = [], motion._newton_correct

    def corrector(graph, target_sq, state, free, newton_tol):
        sizes.append(len(free))
        if stall:
            raise NewtonDivergenceError("corrector stalled")
        return real(graph, target_sq, state, free, newton_tol)

    monkeypatch.setattr(motion, "_newton_correct", corrector)
    return sizes


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_gauge_matches_the_frozen_index_formula(d, n):
    graph = QuotientGraph(d, tuple(f"o{i}" for i in range(n)), ())
    free = motion._gauge_free_indices(graph)
    expected = frozen_gauge_free_indices(d, n)
    assert free.dtype == expected.dtype and free.tolist() == expected.tolist()


def test_converging_steps_never_free_every_coordinate(mech2, monkeypatch):
    sizes = recording_corrector(monkeypatch)
    continue_motion(mech2, expanding_flex(mech2), n_steps=10)
    assert sizes == [len(motion._gauge_free_indices(mech2.graph))] * 10


def test_a_stall_is_retried_once_with_every_coordinate_free(mech2, monkeypatch):
    sizes = recording_corrector(monkeypatch, stall=True)
    with pytest.raises(NewtonDivergenceError, match="corrector stalled"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=3)
    # The retry frees every coordinate: d n vertex and d^2 lattice ones.
    full = mech2.dimension * mech2.n + mech2.dimension**2
    assert sizes == [len(motion._gauge_free_indices(mech2.graph)), full]


def patched_step_reports(monkeypatch, change):
    """Patch the rigidity analysis so every report after the first is
    `change(fw, report)`."""
    real, seen = motion.analyze, []

    def analyze_step(fw, tol):
        report = real(fw, tol)
        if seen:
            report = change(fw, report)
        seen.append(report)
        return report

    monkeypatch.setattr(motion, "analyze", analyze_step)


def test_rank_change_along_the_path_is_a_singular_jacobian(mech2, monkeypatch):
    patched_step_reports(monkeypatch, lambda fw, r: dataclasses.replace(r, rank=r.rank - 1))
    with pytest.raises(SingularJacobianError, match="rank changed from 4 to 3"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=3)


def test_tangent_leaving_the_flex_space_is_a_numerical_failure(mech2, monkeypatch):
    # A flex basis of one translation: the tangent, a nontrivial flex, is
    # orthogonal to it, so its projection shrinks to 0.
    def translation_basis(fw, report):
        t = trivial_motion_basis(fw)[:1]
        return dataclasses.replace(report, flex_basis=t / np.linalg.norm(t))

    patched_step_reports(monkeypatch, translation_basis)
    with pytest.raises(NumericalFailureError, match="tangent projection shrank to 0.000"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=3)


# -- frame writers against the frozen per-value writers ----------------------------

# Values whose formatting is easy to get wrong: a signed zero, the smallest
# subnormal, a large power of ten, a repeating fraction and a small one.
AWKWARD = [-0.0, 5e-324, 1e22, 1 / 3, 1e-7]


def awkward_path(d):
    """A two-step path over a hand-built graph (not validated) whose
    positions and lattice entries are the awkward values; an orbit id with a
    '%' must reach the CSV as it is."""
    orbits = ("a", "b%s")
    edges = [("a", "b%s", (0,) * d), ("a", "a", (1,) + (0,) * (d - 1)), ("b%s", "a", (1,) * d)]
    graph = QuotientGraph(d, orbits, tuple(EdgeOrbit(*e) for e in edges))
    placements = []
    for scale in (1.0, -1 / 7):
        positions = {"a": scale * np.array(AWKWARD[:d]), "b%s": scale * np.array(AWKWARD[-d:])}
        lattice = scale * np.array([[AWKWARD[(i + j) % 5] for j in range(d)] for i in range(d)])
        placements.append(Placement(positions, lattice))
    path = MotionPath(graph, placements, 0.0, np.zeros((2, 2 * d + d * d)), np.zeros(2))
    return path, (orbits, edges, [(pl.positions, pl.lattice) for pl in placements])


@pytest.mark.parametrize("supercell", [0, 1, 2])
@pytest.mark.parametrize(
    "fmt, d", [("obj", 1), ("obj", 2), ("obj", 3), ("csv", 1), ("csv", 2), ("csv", 3), ("csv", 4)]
)
def test_export_matches_frozen_writers(tmp_path, fmt, d, supercell):
    path, data = awkward_path(d)
    files = export_frames(path, supercell=supercell, fmt=fmt, outdir=tmp_path)
    expected = frozen_frames(*data, supercell, fmt)
    assert [os.path.basename(f) for f in files] == list(expected)
    for f in files:
        with open(f, "rb") as fh:
            assert fh.read() == expected[os.path.basename(f)].encode()


# -- long paths: the audit and the export hold a step or a block, not the run ----

def scaled_path(n_steps, contract_every=None):
    """A path built without continuation: the d = 3 removed:1 regular
    mechanism scaled by 1 + 1e-4 k at step k.  With `contract_every`, the
    lattice at every step k = 3 mod `contract_every` is scaled as at step
    k - 2 instead, so the pairs that cross cells contract at those steps only."""
    fw = simplex_framework(3, SimplexVariant("removed", 1), regular=True)
    pl = fw.placement
    placements = []
    for k in range(n_steps + 1):
        scale = 1 + 1e-4 * k
        back = contract_every and k % contract_every == 3
        lattice = (1 + 1e-4 * (k - 2) if back else scale) * pl.lattice
        placements.append(Placement({o: scale * p for o, p in pl.positions.items()}, lattice))
    path = MotionPath(fw.graph, placements, 0.0, np.zeros((n_steps + 1, 1)), np.zeros(n_steps + 1))
    return fw, path


@pytest.mark.parametrize("audit_tol", [motion.DEFAULT_AUDIT_TOL, 0.0])
def test_audit_matches_the_whole_table(audit_tol):
    fw, path = scaled_path(60, contract_every=7)
    keys = enumerate_pairs(fw, 2).keys()
    dist = np.array([
        [np.linalg.norm(pl.positions[b] + pl.lattice @ np.array(w, float) - pl.positions[a]) for a, b, w in keys]
        for pl in path.placements
    ])
    inc = np.diff(dist, axis=0)  # (steps, pairs), the table the audit no longer builds
    expected = [(keys[k], int(s) + 1, float(-inc[s, k])) for k, s in zip(*np.nonzero(inc.T < -audit_tol))]

    audit = audit_expansiveness(path, radius=2, audit_tol=audit_tol)
    low = np.array(list(audit.pair_results.values()))
    assert list(audit.pair_results) == keys
    assert np.array_equal(low, inc.min(axis=0)) and np.array_equal(np.signbit(low), np.signbit(inc.min(axis=0)))
    assert audit.violations == expected
    # Some pairs, at some steps: the order tells pair-major from step-major.
    steps = {step for _, step, _ in expected}
    assert steps == set(range(3, 61, 7)) and len({key for key, _, _ in expected}) < len(keys)


def traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt, bound", [("csv", 1_000_000), ("obj", 600_000)])
def test_export_holds_a_block_of_steps(tmp_path, monkeypatch, fmt, bound):
    # A block of 4,096 coordinates is 5 steps of 250 vertices here, so the
    # 51-step run is written from 11 blocks.  Holding the run whole peaked
    # at ~2.2 MB (CSV) and ~1 MB (OBJ).
    monkeypatch.setattr(motion, "_CHUNK", 4096)
    _, path = scaled_path(50)
    path._stacks  # the path's own arrays, built once
    assert traced_peak(export_frames, path, supercell=2, fmt=fmt, outdir=tmp_path) < bound


def test_audit_holds_a_step_of_distances():
    # 401 steps of 249 pairs; the (steps + 1) x pairs table and its
    # increments peaked at ~1.8 MB.
    _, path = scaled_path(400)
    path._stacks
    assert traced_peak(audit_expansiveness, path, radius=2) < 300_000
