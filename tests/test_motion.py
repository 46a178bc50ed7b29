import dataclasses
import hashlib
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from perigid import expansive, motion
from perigid.motion import MotionPath, write_audit_csv
from perigid.rigidity import pack_motion, unpack_motion

from _oracles import frozen_audit, frozen_audit_csv, frozen_frames, frozen_gauge_free_indices
from conftest import make_framework, pair_keys, path_through, step_placements, whole_pairs, whole_shifts


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
    p0, *rest = step_placements(path)
    for pl in rest:
        assert np.array_equal(pl.lattice, p0.lattice)
        for o in path.graph.vertex_orbits:
            assert np.array_equal(pl.positions[o], p0.positions[o])


# SHA-256 of the positions, lattices and residuals of 5 steps along a
# rotation of the rigid enhanced framework, keyed by d: a zero-displacement
# path, recorded with numpy 2.4.6 and OpenBLAS 0.3.31 when the tangent still
# had its own branch for a framework without flexes.
RIGID_PATH_DIGESTS = {
    2: (
        "9dbb87d6db2190bebc3d1cc780c1a14c89ceef8fbc7b51c2e5712efcf4ac716e",
        "d7fffb11ccaae9cfa95944358649ed5689050dc88b4df83bfe54421e1760e528",
        "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
    ),
    3: (
        "0792c75402712a0318b4a5d1fb34ef4c94940ccb15863368bbd92e620f6aad38",
        "dfd3a1f8ba350eb43da5bb262b8a56d0c3e9b027718167225218a3d2bcf5bdd2",
        "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
    ),
}


@pytest.mark.parametrize("d", sorted(RIGID_PATH_DIGESTS))
def test_rigid_path_bytes(d):
    fw = simplex_framework(d, SimplexVariant("enhanced"))
    path = continue_motion(fw, trivial_motion_basis(fw)[-1], n_steps=5)
    assert path.step_size == 0.0
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (path.positions, path.lattices, path.residuals))
    assert digests == RIGID_PATH_DIGESTS[d]


def test_mechanism_path_residuals(path2):
    assert path2.n_steps == 50
    assert path2.residuals.max() < 1e-10


def test_edge_lengths_preserved(mech2, path2):
    base = mech2.edge_lengths
    for k in range(mech2.m):
        for step in range(0, 51, 10):
            fw_k = validate_framework(path2.graph, step_placements(path2)[step])
            assert abs(fw_k.edge_lengths[k] ** 2 - base[k] ** 2) < 10 * 1e-10


def test_path_holds_its_steps_as_c_ordered_stacks(mech2, path2):
    # One array per quantity, no per-step objects; C order gives the
    # `lattice @ w` bits of a framework read back from JSON.
    fields = [f.name for f in dataclasses.fields(MotionPath)]
    assert fields == ["graph", "positions", "lattices", "step_size", "residuals"]
    assert path2.positions.shape == (51, mech2.n, 2) and path2.lattices.shape == (51, 2, 2)
    assert path2.positions.flags.c_contiguous and path2.lattices.flags.c_contiguous


def test_step_zero_is_input(mech2, path2):
    p0 = step_placements(path2)[0]
    for o in mech2.graph.vertex_orbits:
        assert np.array_equal(p0.positions[o], mech2.placement.positions[o])
    assert np.array_equal(p0.lattice, mech2.placement.lattice)


def test_tangent_continuity(path2):
    # The tangent is not kept; each step's secant, the unit step from one
    # corrected state to the next, turns smoothly as the tangent did.
    secants = np.diff(pack_motion(path2.positions, path2.lattices), axis=0)
    secants /= np.linalg.norm(secants, axis=1)[:, None]
    for a, b in zip(secants, secants[1:]):
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
    # Finite difference of squared pair distances against the pair rows on
    # the first tangent: the seed's unit projection onto the flex space.
    basis = analyze(mech2).flex_basis
    t0 = basis.T @ (basis @ expanding_flex(mech2))
    t0 /= np.linalg.norm(t0)
    h_eff = path2.step_size
    p0, p1 = step_placements(path2)[:2]
    for key in list(audit_expansiveness(path2, radius=2).pair_results)[:40]:
        a, b, shift = key
        row = pair_constraint(mech2, a, b, shift)
        d0 = np.linalg.norm(
            p0.positions[b]
            + p0.lattice @ np.asarray(shift, float)
            - p0.positions[a]
        )
        d1 = np.linalg.norm(
            p1.positions[b]
            + p1.lattice @ np.asarray(shift, float)
            - p1.positions[a]
        )
        fd = (d1**2 - d0**2) / (2 * h_eff)
        assert abs(fd - row @ t0) < 10 * 0.01  # ten times the path's h


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
    row_e1 = pair_constraint(stressed, "red", "red", (1, 0, 0))
    ray = min(range(2), key=lambda i: abs(row_e1 @ cone.ray_motion(i)))
    mech = with_edge_orbit(stressed, "red", "red", (1, 0, 0))
    flex = analyze(mech).flex_basis[0]
    if flex @ cone.ray_motion(ray) < 0:
        flex = -flex
    path = continue_motion(mech, flex, n_steps=50, h=0.01)
    audit = audit_expansiveness(path, radius=2)
    assert audit.passed
    dists = [
        np.linalg.norm(lattice @ np.array([1.0, 0, 0])) for lattice in path.lattices
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
    path = path_through(enhanced3.graph, [enhanced3.placement] * 4)
    sep = facet_separation(path)
    assert np.allclose(sep, sep[0])


def test_facet_separation_requires_family(stressed):
    path = path_through(stressed.graph, [stressed.placement] * 2)
    with pytest.raises(NotSimplexFamilyError, match="edge offsets"):
        facet_separation(path)
    positions = {"a": [0.0, 0.0], "b": [0.5, 0.0], "c": [0.0, 0.5]}
    edges = [("a", "b", (0, 0)), ("b", "c", (0, 0)), ("c", "a", (1, 1))]
    fw = make_framework(2, positions, np.eye(2), edges)
    path = path_through(fw.graph, [fw.placement] * 2)
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
    path = path_through(stressed.graph, [stressed.placement])
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


def test_a_jacobian_that_overflows_is_a_newton_divergence(capfd):
    # A bar of shift (10**154, 0) has finite rows and squared length, but
    # 2 s w^T overflows in the Jacobian; LAPACK's least squares then printed
    # DLASCL errors and numpy raised LinAlgError.
    fw = make_framework(2, {"a": [0.0, 0.0], "b": [0.5, 0.25]}, np.eye(2), [("a", "b", (0, 0)), ("a", "b", (10**154, 0))])
    assert np.isfinite(fw.edge_lengths**2).all()
    state = pack_motion(np.array([[0.0, 0.0], [0.5, 0.3]]), np.eye(2))  # off its lengths
    free = motion._gauge_free_indices(fw.graph)
    with pytest.raises(NewtonDivergenceError, match="^corrector Jacobian is not finite"):
        motion._newton_correct(fw.graph, fw.edge_lengths**2, state, free, 1e-10)
    assert capfd.readouterr().err == ""


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


@pytest.mark.parametrize("newton_tol", [float("nan"), float("inf")])
def test_continue_motion_rejects_a_newton_tolerance_that_is_not_finite(mech2, newton_tol):
    # Unchecked, an infinite tolerance skips the corrector and a NaN one runs
    # it to the iteration cap; the rank tolerance is checked by analyze.
    with pytest.raises(ValueError, match="newton_tol must be finite"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=2, newton_tol=newton_tol)
    with pytest.raises(ValueError, match="rank tolerance must be finite"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=2, rank_tol=newton_tol)


@pytest.mark.parametrize("n_steps", [-3, 2.5, "2", None])
def test_continue_motion_rejects_a_step_count_that_is_not_a_nonnegative_int(mech2, n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=n_steps)


@pytest.mark.parametrize("n_steps", [0, np.int64(2)])
def test_continue_motion_accepts_zero_and_numpy_step_counts(mech2, n_steps):
    path = continue_motion(mech2, expanding_flex(mech2), n_steps=n_steps)
    assert path.n_steps == n_steps and len(path.residuals) == n_steps + 1


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, 1.5, "2"])
@pytest.mark.parametrize("entry", ["continue_motion", "audit_expansiveness", "export_frames"])
def test_motion_counts_are_integers_checked_first(tmp_path, mech2, path2, monkeypatch, entry, value):
    # Unchecked, n_steps=True runs one step and a float radius fails in the
    # pair stream with a TypeError; nothing is computed or written first.
    flex = expanding_flex(mech2)

    def no_work(*args, **kwargs):
        raise AssertionError("a count was not checked before the work it sizes")

    monkeypatch.setattr(motion, "rigidity_rows", no_work)
    monkeypatch.setattr(motion, "_separations", no_work)
    calls = {
        "continue_motion": (lambda: continue_motion(mech2, flex, n_steps=value), "n_steps"),
        "audit_expansiveness": (lambda: audit_expansiveness(path2, radius=value), "radius"),
        "export_frames": (lambda: export_frames(path2, supercell=value, fmt="csv", outdir=tmp_path), "supercell"),
    }
    call, name = calls[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()
    assert list(tmp_path.iterdir()) == []


def test_audit_and_export_take_numpy_integer_counts(tmp_path, path2):
    audit = audit_expansiveness(path2, radius=np.int64(2))
    assert repr(audit.pair_results) == repr(audit_expansiveness(path2, radius=2).pair_results)
    for supercell in (1, np.int64(1)):
        outdir = tmp_path / type(supercell).__name__
        outdir.mkdir()
        export_frames(path2, supercell=supercell, fmt="csv", outdir=outdir)
    assert (tmp_path / "int64" / "frames.csv").read_bytes() == (tmp_path / "int" / "frames.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_export_rejects_negative_supercell(tmp_path, path2, fmt):
    with pytest.raises(ValueError, match="supercell"):
        export_frames(path2, supercell=-1, fmt=fmt, outdir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_export_rejects_an_unknown_format_and_obj_beyond_three_dimensions(tmp_path, path2):
    with pytest.raises(ValueError, match="unknown format 'ply'"):
        export_frames(path2, fmt="ply", outdir=tmp_path)
    fw = simplex_framework(4)
    path4 = path_through(fw.graph, [fw.placement] * 2)
    with pytest.raises(ValueError, match="obj export supports d <= 3"):
        export_frames(path4, fmt="obj", outdir=tmp_path)
    assert list(tmp_path.iterdir()) == []


# -- per-step placement check ------------------------------------------------------


def broken_state(fw, broken):
    """The framework's motion state with `broken` broken: the lattice's rank,
    a bar's length, a position's or the lattice's finiteness, or both."""
    positions = np.array([fw.placement.positions[o] for o in fw.graph.vertex_orbits])
    lattice = fw.placement.lattice.copy()
    if broken == "lattice rank":
        lattice[:, 1] = lattice[:, 0]
    elif broken == "bar":
        tail, head, shift = fw.graph.edge_orbits[0]
        positions[fw.orbit_index(head)] = (
            positions[fw.orbit_index(tail)] - lattice @ np.asarray(shift, float)
        )
    if "position" in broken:
        positions[-1, 0] = np.nan
    if broken.endswith("lattice"):
        lattice[0, 1] = np.inf
    return pack_motion(positions, lattice)


@pytest.mark.parametrize(
    ("broken", "kind", "message"),
    [
        ("lattice rank", SingularLatticeError, "lattice determinant below"),
        ("bar", ZeroLengthEdgeError, "realizes to a zero vector"),
        ("position", FrameworkError, "position of orbit 'green' is not finite"),
        ("lattice", FrameworkError, "lattice is not finite"),
        # validate_framework checks every position before the lattice.
        ("position and lattice", FrameworkError, "position of orbit 'green' is not finite"),
    ],
    ids=["SingularLatticeError", "ZeroLengthEdgeError", "FrameworkError", "lattice_not_finite", "position_first"],
)
def test_step_errors_match_validate_framework(mech2, monkeypatch, broken, kind, message):
    # A corrector that lands on a broken state: the step raises what
    # validate_framework raises on that state, class and message.
    state = broken_state(mech2, broken)
    positions, lattice = unpack_motion(mech2.graph, state)
    with pytest.raises(FrameworkError, match=message) as expected:
        validate_framework(mech2.graph, Placement(dict(zip(mech2.graph.vertex_orbits, positions)), lattice))
    assert type(expected.value) is kind
    monkeypatch.setattr(motion, "_newton_correct", lambda *args: (state.copy(), 0.0))
    with pytest.raises(FrameworkError) as got:
        continue_motion(mech2, expanding_flex(mech2), n_steps=1)
    assert type(got.value) is kind
    assert str(got.value) == str(expected.value)


def recording_corrector(monkeypatch, stall=False):
    """Patch the corrector to record the size of each call's free set, and
    to stall on every call if `stall` is True, or on every gauged call if it
    is "gauged" (so each step is the free-gauge retry); returns the sizes."""
    sizes, real = [], motion._newton_correct

    def corrector(graph, target_sq, state, free, newton_tol):
        sizes.append(len(free))
        if stall is True or (stall == "gauged" and len(free) < state.size):
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
    """Patch the step's array analysis so every step's report is
    `change(trivial, report)`; the seed's `analyze` is not patched."""
    real = motion._analysis

    def analyze_step(matrix, trivial, tol):
        return change(trivial, real(matrix, trivial, tol))

    monkeypatch.setattr(motion, "_analysis", analyze_step)


def test_rank_change_along_the_path_is_a_singular_jacobian(mech2, monkeypatch):
    patched_step_reports(monkeypatch, lambda trivial, r: dataclasses.replace(r, rank=r.rank - 1))
    with pytest.raises(SingularJacobianError, match="rank changed from 4 to 3"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=3)


def test_tangent_leaving_the_flex_space_is_a_numerical_failure(mech2, monkeypatch):
    # A flex basis of one translation: the tangent, a nontrivial flex, is
    # orthogonal to it, so its projection shrinks to 0.
    def translation_basis(trivial, report):
        t = trivial[:1]
        return dataclasses.replace(report, flex_basis=t / np.linalg.norm(t))

    patched_step_reports(monkeypatch, translation_basis)
    with pytest.raises(NumericalFailureError, match="tangent projection shrank to 0.000"):
        continue_motion(mech2, expanding_flex(mech2), n_steps=3)


# The perfbench motion inputs, each followed along its cone's ray 0 as
# `simulate --ray 0` does.
MOTION_INPUTS = {
    "removed1_d2": lambda: simplex_framework(2, SimplexVariant("removed", 1), regular=True),
    "removed1_d3": lambda: simplex_framework(3, SimplexVariant("removed", 1), regular=True),
    "removed1_d4": lambda: simplex_framework(4, SimplexVariant("removed", 1), regular=True),
    "stressed_rr100": lambda: with_edge_orbit(stressed_framework(), "red", "red", (1, 0, 0)),
}


@pytest.mark.parametrize("stall", [False, "gauged"])
@pytest.mark.parametrize("name", sorted(MOTION_INPUTS))
def test_step_analysis_is_analyze_of_the_validated_state(monkeypatch, name, stall):
    # The step analyses the arrays it holds; at every step its report must be
    # analyze's report on the framework validate_framework builds from the
    # same state: the same rank, and the flex and stress bases bit for bit.
    fw = MOTION_INPUTS[name]()
    direction = expansive_cone(fw, analyze(fw), expansive.DEFAULT_RADIUS).ray_motion(0)
    real, reports = motion._analysis, []

    def recorded(matrix, trivial, tol):
        reports.append(real(matrix, trivial, tol))
        return reports[-1]

    monkeypatch.setattr(motion, "_analysis", recorded)
    sizes = recording_corrector(monkeypatch, stall)
    path = continue_motion(fw, direction, n_steps=50)
    assert len(reports) == 50
    assert sizes.count(len(direction)) == (50 if stall else 0)  # the free-gauge retries
    for report, placement in zip(reports, step_placements(path)[1:], strict=True):
        expected = analyze(validate_framework(fw.graph, placement))
        assert report.rank == expected.rank
        for got, want in ((report.flex_basis, expected.flex_basis), (report.stress_basis, expected.stress_basis)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stall", [False, "gauged"])
def test_rigidity_rows_serves_the_seed_and_each_newton_jacobian(mech2, monkeypatch, stall):
    # perfbench reads Newton iterations per step from the calls through
    # motion.rigidity_rows: one for the seed and one per Jacobian, each
    # solved by one lstsq.  The step's analysis must not call it.
    direction = expanding_flex(mech2)
    calls = {"rigidity_rows": 0, "lstsq": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(motion, "rigidity_rows", counted("rigidity_rows", motion.rigidity_rows))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    recording_corrector(monkeypatch, stall)
    continue_motion(mech2, direction, n_steps=10)
    assert calls["lstsq"] >= 10
    assert calls["rigidity_rows"] == 1 + calls["lstsq"]


@pytest.mark.parametrize("stall", [False, "gauged"])
def test_newton_evaluates_each_iterate_once(mech2, monkeypatch, stall):
    # One bar-separation evaluation per iterate, which the residual and the
    # Jacobian share: one per lstsq, and one for each correction's last
    # iterate, the converged one.  The step's checks do not go through it.
    separations, rows, lstsq = motion._separations, motion.rigidity_rows, np.linalg.lstsq
    evaluated, shared, solves = [], [], []  # shared: whether each Jacobian read the last evaluation

    def evaluate(*args):
        evaluated.append(separations(*args))
        return evaluated[-1]

    def jacobian(graph, e):
        shared.append(bool(evaluated) and e is evaluated[-1])
        return rows(graph, e)

    def solve(*args, **kwargs):
        solves.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(motion, "_separations", evaluate)
    monkeypatch.setattr(motion, "rigidity_rows", jacobian)
    monkeypatch.setattr(np.linalg, "lstsq", solve)
    sizes = recording_corrector(monkeypatch, stall)
    continue_motion(mech2, expanding_flex(mech2), n_steps=10)
    corrections = 10  # a gauged call that the recorder stalls does no work
    assert len(sizes) == (20 if stall else 10) and len(solves) >= 10
    assert len(evaluated) == len(solves) + corrections
    assert shared == [False] + [True] * len(solves)  # the seed reads the framework's own


def test_a_real_stall_is_retried_free_then_raised_without_warnings(mech2, monkeypatch):
    # A zero tolerance is never met: both corrections run every iteration,
    # and the message reports the last iterate's residual.
    sizes = recording_corrector(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NewtonDivergenceError, match=r"^corrector stalled at residual \S+ after 25 iterations$"):
            continue_motion(mech2, expanding_flex(mech2), n_steps=1, newton_tol=0.0)
    full = mech2.dimension * mech2.n + mech2.dimension**2
    assert sizes == [len(motion._gauge_free_indices(mech2.graph)), full]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_stall_without_bars_reports_a_zero_residual():
    # No bars, so no residual entries: the stall message reads 0, where a
    # maximum over the empty residual would raise numpy's ValueError.
    fw = make_framework(2, {"a": [0.0, 0.0]}, np.eye(2), [])
    with pytest.raises(NewtonDivergenceError, match=r"stalled at residual 0\.000e\+00 after 25"):
        continue_motion(fw, analyze(fw).flex_basis[0], n_steps=1, newton_tol=0.0)


# SHA-256 of the positions, lattices and residuals of 50 steps along ray 0
# with every step's gauged correction stalled, so each step is the free-gauge
# retry; recorded before the corrector kept one separation per iterate, with
# numpy 2.4.6 and OpenBLAS on x86-64 (other BLAS builds may round differently).
RETRY_DIGESTS = {
    "removed1_d2": (
        "f3c81baefc54dd10a97e70841f7e78917eec32d5ab30557334882b9357deea6d",
        "6af5c1cd7b568924611b4d6c87752db3acad1a047b3138dcf884ef013993a176",
        "dc314f76f8326084cda04d82d75dd49bf8aca8ecf01338c13ade573a35ce19ad",
    ),
    "removed1_d3": (
        "237b37f60cdbd51e3250d73cfef0ef1a066feafa2adfd71bb040ec53ec311479",
        "c506f362d2a432f13a7bb2611aeabf95f7f4f4a99e592527edb4ccb8ba77cb04",
        "fa1bd3ddee8674ff03c41ac70f46298cf7d3d0bdea33a68b5a2500e97c19e011",
    ),
    "removed1_d4": (
        "1a13e5a8c23f79ab49660253d7dc2b3dbc7cb74b47b643b2dfdc6fc21da5e42a",
        "800d9b22f45e7df7b063e5d06838950f75b0430b251f40113664075018b34655",
        "2b6516e68e27d1f1713a3cb3b48ec29e7e2a57ac5d8a514e2924bd572a7cc47e",
    ),
    "stressed_rr100": (
        "ac654eae813025df2e40ff4fab14a7860cf9a97da471c3b60ce5f6107e372071",
        "9ec915f6ff59713abafba72194877d97e0bacbd6010bf8491e895ce2c2da48ba",
        "1f76d48446e23b91545719daea56ac8ba84b3ba894259c58345bea6c3935f418",
    ),
}


@pytest.mark.parametrize("name", sorted(RETRY_DIGESTS))
def test_free_gauge_retry_bytes(monkeypatch, name):
    fw = MOTION_INPUTS[name]()
    direction = expansive_cone(fw, analyze(fw), expansive.DEFAULT_RADIUS).ray_motion(0)
    recording_corrector(monkeypatch, "gauged")
    path = continue_motion(fw, direction, n_steps=50)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (path.positions, path.lattices, path.residuals))
    assert digests == RETRY_DIGESTS[name]


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
    path = path_through(graph, placements)
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

def scaled_path(n_steps, contract_every=None, d=3):
    """A path built without continuation: the dimension-d removed:1 regular
    mechanism scaled by 1 + 1e-4 k at step k.  With `contract_every`, the
    lattice at every step k = 3 mod `contract_every` is scaled as at step
    k - 2 instead, so the pairs that cross cells contract at those steps only."""
    fw = simplex_framework(d, SimplexVariant("removed", 1), regular=True)
    pl = fw.placement
    placements = []
    for k in range(n_steps + 1):
        scale = 1 + 1e-4 * k
        back = contract_every and k % contract_every == 3
        lattice = (1 + 1e-4 * (k - 2) if back else scale) * pl.lattice
        placements.append(Placement({o: scale * p for o, p in pl.positions.items()}, lattice))
    path = path_through(fw.graph, placements)
    return fw, path


@pytest.mark.parametrize("audit_tol", [motion.AUDIT_TOL, 0.0])
def test_audit_matches_the_whole_table(audit_tol, monkeypatch):
    fw, path = scaled_path(60, contract_every=7)
    keys = pair_keys(fw, *whole_pairs(fw, 2)[:2], whole_shifts(fw, 2))
    dist = np.array([
        [np.linalg.norm(pl.positions[b] + pl.lattice @ np.array(w, float) - pl.positions[a]) for a, b, w in keys]
        for pl in step_placements(path)
    ])
    inc = np.diff(dist, axis=0)  # (steps, pairs), the table the audit no longer builds
    expected = [(keys[k], int(s) + 1, float(-inc[s, k])) for k, s in zip(*np.nonzero(inc.T < -audit_tol))]

    monkeypatch.setattr(motion, "AUDIT_TOL", audit_tol)
    audit = audit_expansiveness(path, radius=2)
    low = np.array(list(audit.pair_results.values()))
    assert list(audit.pair_results) == keys
    assert np.array_equal(low, inc.min(axis=0)) and np.array_equal(np.signbit(low), np.signbit(inc.min(axis=0)))
    assert audit.violations == expected
    # Some pairs, at some steps: the order tells pair-major from step-major.
    steps = {step for _, step, _ in expected}
    assert steps == set(range(3, 61, 7)) and len({key for key, _, _ in expected}) < len(keys)



def test_audit_csv_first_violations_match_the_step_sorted_list(tmp_path):
    # The table reads each pair's first violating step off the pair-major
    # arrays; it must be the pair's first step in the violation list sorted
    # by step.  Pairs here violate at several steps, so the order matters.
    _, path = scaled_path(60, contract_every=7)
    audit = audit_expansiveness(path, radius=2)
    first = {}
    for key, step, _ in sorted(audit.violations, key=lambda v: v[1]):
        first.setdefault(key, step)
    keys = [key for key, _, _ in audit.violations]
    assert len(set(keys)) < len(keys)
    write_audit_csv(audit, tmp_path / "audit.csv")
    column = {}
    for line in (tmp_path / "audit.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        column[(fields[0], fields[1], tuple(map(int, fields[2:5])))] = fields[-1]
    assert column == {key: str(first.get(key, "")) for key in audit.pair_results}
    assert set(column.values()) == {"", "3"}


# Orbit names whose sorted order differs from every graph order drawn below:
# one needs CSV quoting for its comma, one for its quote, one is not ASCII,
# and one holds '%', which the table's line templates must escape.
AUDIT_NAMES = ("\u00e9t\u00e9", "b,c", 'a"q', "B", "5%")


@settings(max_examples=40, deadline=None)
@given(
    order=st.permutations(AUDIT_NAMES),
    n=st.sampled_from([3, 4, 5]),
    d=st.sampled_from([1, 2, 3]),
    radius=st.sampled_from([1, 2]),
    moves=st.lists(st.sampled_from([1.0, -0.5, 0.25]), min_size=1, max_size=5),
    audit_tol=st.sampled_from([motion.AUDIT_TOL, 0.0, 1e-3]),
    seed=st.integers(0, 2**16),
)
def test_audit_and_its_table_match_the_frozen_keyed_audit(tmp_path_factory, order, n, d, radius, moves, audit_tol, seed):
    # Each step moves every position and the lattice along one random
    # velocity, forward or back, so some pairs contract at some steps.
    orbits = order[:n]
    assume(list(orbits) != sorted(orbits))
    rng = np.random.default_rng(seed)
    p0, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    l0, lv = 3 * np.eye(d) + 0.3 * rng.standard_normal((d, d)), 0.3 * rng.standard_normal((d, d))
    placements = [
        ({o: p0[i] + t * v[i] for i, o in enumerate(orbits)}, l0 + t * lv)
        for t in 0.05 * np.cumsum([0.0, *moves])
    ]
    graph = QuotientGraph(d, orbits, ())
    path = path_through(graph, [Placement(*pl) for pl in placements])
    results, violations = frozen_audit(orbits, placements, radius, audit_tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(motion, "AUDIT_TOL", audit_tol)
        audit = audit_expansiveness(path, radius=radius)
    assert list(audit.pair_results) == list(results)
    assert np.array(list(audit.pair_results.values())).tobytes() == np.array(list(results.values())).tobytes()
    assert repr(audit.violations) == repr(violations)
    target = tmp_path_factory.mktemp("audit") / "audit.csv"
    write_audit_csv(audit, target)
    assert target.read_bytes() == frozen_audit_csv(results, violations).encode()


def test_audit_holds_a_few_arrays_per_pair():
    # d = 4, R = 3: 4,801 pairs, 8 bytes each (the smallest increment); one
    # key, dict entry and list entry each took ~220.
    d = 4
    _, path = scaled_path(2, d=d)
    tracemalloc.start()
    try:
        audit = audit_expansiveness(path, radius=3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pairs = len(audit.pair_results)
    assert pairs == 4801 and held <= 8 * pairs + 16_384


def test_audit_holds_a_float_a_pair_and_its_violations():
    # d = 5, R = 3: 33,613 pairs, 67,224 violations.  The smallest increment
    # is 8 bytes a pair and the violations' pair, step and drop 24 a
    # violation; the pairs' orbit indices and shifts (8 (d + 3) bytes a pair)
    # are not held.
    _, path = scaled_path(8, contract_every=4, d=5)
    tracemalloc.start()
    try:
        audit = audit_expansiveness(path, radius=3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pairs, violations = len(audit.pair_results), len(audit.violations)
    assert (pairs, violations) == (33_613, 67_224)
    assert held <= 8 * pairs + 24 * violations + 16_384


@pytest.mark.parametrize("chunk", [1, 130, None])
def test_audit_is_the_same_for_every_chunk_of_the_pair_stream(tmp_path, monkeypatch, chunk):
    # Each chunk runs through every step on its own, and the table reads its
    # keys from the stream layout; chunks of one pair, of a size that splits
    # blocks, and the default must give the same values, order and types.
    # d = 3, R = 3: 685 pairs in blocks of 343, 171 and 171.
    _, path = scaled_path(30, contract_every=7)
    reference = audit_expansiveness(path, radius=3)
    write_audit_csv(reference, tmp_path / "reference.csv")
    if chunk is not None:
        monkeypatch.setattr(expansive, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(motion, "_PAIR_CHUNK", chunk)
    audit = audit_expansiveness(path, radius=3)
    write_audit_csv(audit, tmp_path / "audit.csv")
    assert (tmp_path / "audit.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert repr(audit.pair_results) == repr(reference.pair_results)  # repr tells -0.0 and np.int64 apart
    assert repr(audit.violations) == repr(reference.violations) and audit.violations
    assert {type(x) for key, step, drop in audit.violations for x in (*key[2], step)} == {int}
    assert {type(key[0]) for key in audit.pair_results} == {str}
    assert {type(drop) for _, _, drop in audit.violations} | {type(v) for v in audit.pair_results.values()} == {float}


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
    assert traced_peak(export_frames, path, supercell=2, fmt=fmt, outdir=tmp_path) < bound


def test_audit_holds_a_step_of_distances():
    # 401 steps of 249 pairs; the (steps + 1) x pairs table and its
    # increments peaked at ~1.8 MB.
    _, path = scaled_path(400)
    assert traced_peak(audit_expansiveness, path, radius=2) < 300_000


def test_audit_holds_its_violations_as_arrays():
    # Contractions at every 4th of 400 steps: 24,800 violations.  Three
    # 8-byte arrays take 24 bytes a violation; one tuple each took ~110.
    _, path = scaled_path(400, contract_every=4)
    tracemalloc.start()
    try:
        audit = audit_expansiveness(path, radius=2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    violations = len(audit.violations)
    assert violations == 24_800 and held <= 40 * violations


def test_audit_table_writer_peaks_under_a_megabyte(tmp_path):
    # 24,800 violations of 249 pairs, kept in the order found: the writer
    # takes each pair's first step from one np.unique of their stream
    # indices (~0.65 MB) and writes the rows a chunk at a time.
    _, path = scaled_path(400, contract_every=4)
    audit = audit_expansiveness(path, radius=2)
    assert len(audit.violations) == 24_800
    assert traced_peak(write_audit_csv, audit, tmp_path / "audit.csv") < 1_000_000
