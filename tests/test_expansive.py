import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import (
    DimensionMismatchError,
    EdgeOrbit,
    FlexClass,
    FlexDimensionTooLargeError,
    FrameworkError,
    NonPointedConeError,
    NotAFlexError,
    NumericalFailureError,
    SimplexVariant,
    analyze,
    classify_flex,
    continue_motion,
    expansive_cone,
    extremal_rays,
    find_stable_radius,
    pair_constraint,
    simplex_framework,
    stressed_framework,
    trivial_motion_basis,
    verify_pointedness,
    with_edge_orbit,
)
from perigid import expansive, feasibility, motion, rigidity_matrix
from perigid.expansive import cone_report_json

from _oracles import rays_match, sweep_rays_2d
from conftest import canonical_pair, make_framework, pair_keys, pair_separations, scaled, whole_pairs, whole_shifts


def pair_count(n, d, radius):
    box = (2 * radius + 1) ** d
    return (n * (n - 1) // 2) * box + n * (box - 1) // 2


# -- pair enumeration ---------------------------------------------------------


def test_pair_counts(stressed):
    _, _, rows = whole_pairs(stressed, 1)
    assert len(rows) == 53 == pair_count(2, 3, 1)
    assert len(whole_pairs(stressed, 2)[2]) == pair_count(2, 3, 2)


def test_pair_count_single_orbit():
    solo = make_framework(2, {"a": [0.0, 0.0]}, np.eye(2), [("a", "a", (1, 0))])
    assert len(whole_pairs(solo, 1)[2]) == 4
    with pytest.raises(ValueError):
        whole_pairs(solo, 0)


def test_contains_period_pair(stressed):
    tails, heads, _ = whole_pairs(stressed, 1)
    keys = set(pair_keys(stressed, tails, heads, whole_shifts(stressed, 1)))
    one = canonical_pair(stressed, "red", "red", (1, 0, 0))
    key = pair_keys(stressed, *one)[0]
    assert key in keys and key == EdgeOrbit("red", "red", (1, 0, 0)).canonical()
    assert np.allclose(np.abs(pair_separations(stressed, *one)[0]), [1, 0, 0])


def test_pair_row_orientation_invariant(stressed):
    a = pair_constraint(stressed, "green", "red", (1, 1, 0))
    b = pair_constraint(stressed, "red", "green", (-1, -1, 0))
    assert a.shape == (stressed.n * 3 + 9,)
    assert a.tobytes() == b.tobytes()


def test_self_pair_rejected(stressed):
    with pytest.raises(FrameworkError):
        pair_constraint(stressed, "red", "red", (0, 0, 0))


@pytest.mark.parametrize(
    "shift, error",
    [
        ((1, 0), DimensionMismatchError),
        ((1, 0, 0, 0), DimensionMismatchError),
        ((1.5, 0, 0), FrameworkError),
        ((float("nan"), 0, 0), FrameworkError),
        ((0, float("-inf"), 0), FrameworkError),
        ((10**400, 0, 0), FrameworkError),
    ],
)
def test_pair_shift_checked(stressed, shift, error):
    with pytest.raises(error) as info:
        pair_constraint(stressed, "red", "red", shift)
    assert type(info.value) is error


def test_pair_integral_shift_types_accepted(stressed):
    ref = pair_constraint(stressed, "green", "red", (1, 1, 0))
    for shift in [(1.0, 1.0, 0.0), tuple(np.array([1, 1, 0], dtype=np.int64))]:
        assert pair_constraint(stressed, "green", "red", shift).tobytes() == ref.tobytes()


def test_edge_rows_project_to_zero(stressed):
    report = analyze(stressed)
    for k, e in enumerate(stressed.graph.edge_orbits):
        row = pair_constraint(stressed, e.tail, e.head, e.shift)
        assert np.linalg.norm(row @ report.flex_basis.T) < 1e-9 * np.linalg.norm(row)
        assert np.array_equal(row, rigidity_matrix(stressed)[k])


# -- double description -------------------------------------------------------


def test_quadrant_rays():
    rays = extremal_rays(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert rays_match(rays, np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-9)


def test_finish_rejects_a_ray_that_violates_a_halfspace():
    rays, halfspaces = np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericalFailureError, match="ray violates a halfspace by 1.000e"):
        expansive._finish(rays, halfspaces)


@pytest.mark.parametrize("f", [1, 2, 5])
def test_finish_of_no_rays_is_no_rays(f):
    rays = expansive._finish(np.zeros((0, f)), np.eye(f))
    assert rays.shape == (0, f) and rays.dtype == float


def test_wedge_rays_vs_sweep():
    halves = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
    rays = extremal_rays(halves)
    expected = np.array([[1.0, 0.0], [1.0, -1.0] / np.sqrt(2)])
    assert rays_match(rays, expected, 1e-9)
    sweep = sweep_rays_2d(halves)
    assert len(sweep) == 2
    for r in rays:
        assert min(np.linalg.norm(r - s) for s in sweep) < 2 * np.pi / 3600 * 2


def test_empty_cone():
    rays = extremal_rays(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    assert len(rays) == 0


def test_non_pointed_detected():
    with pytest.raises(NonPointedConeError):
        extremal_rays(np.array([[1.0, 0.0]]))
    with pytest.raises(NonPointedConeError):
        extremal_rays(np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]))


def test_dimension_cap():
    with pytest.raises(FlexDimensionTooLargeError):
        extremal_rays(np.eye(7))


def test_halfspaces_must_be_a_matrix_of_positive_width():
    with pytest.raises(ValueError, match="halfspaces must be a matrix"):
        extremal_rays(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="cone dimension must be positive"):
        extremal_rays(np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_halfspaces_must_be_finite(bad):
    # Unchecked, a NaN row is dropped by the norm filter and an infinite one
    # fails inside the SVD.
    with pytest.raises(ValueError, match="halfspaces must be finite"):
        extremal_rays([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]])


def test_simplicial_3d_cone():
    rays = extremal_rays(np.eye(3))
    assert rays_match(rays, np.eye(3), 1e-9)


@given(
    st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda t: any(t)),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_random_2d_cones_match_sweep(raw):
    halves = np.array(raw, dtype=float)
    step = 2 * np.pi / 7200
    sweep = sweep_rays_2d(halves, samples=7200)
    try:
        rays = extremal_rays(halves)
    except NonPointedConeError:
        return  # line or full-plane cone; nothing to compare
    if len(rays):
        assert float((halves @ rays.T).min()) >= -1e-8
    if sweep is None or len(sweep) == 0:
        # Cone thinner than sweep resolution (possibly just {0}).
        if len(rays) == 2:
            assert np.linalg.norm(rays[0] - rays[1]) < 4 * step
        return
    # Every computed ray sits near a feasible-arc endpoint; counts agree for
    # arcs wide enough to resolve.
    for r in rays:
        assert min(np.linalg.norm(r - s) for s in sweep) < 4 * step
    if len(sweep) == 2 and np.linalg.norm(sweep[0] - sweep[1]) > 16 * step:
        assert len(rays) == 2


# -- expansive cones of the families -----------------------------------------


def test_stressed_cone_two_rays(stressed):
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, radius=2)
    assert cone.flex_dim == 2
    assert len(cone.rays) == 2
    assert len(cone.rays) != 0
    row1 = pair_constraint(stressed, "red", "red", (1, 0, 0))
    row2 = pair_constraint(stressed, "red", "red", (0, 1, 0))
    vals = np.array([[abs(row1 @ cone.ray_motion(i)), abs(row2 @ cone.ray_motion(i))] for i in range(2)])
    # One ray fixes each period length, exclusively.
    assert sorted(np.argmin(vals, axis=1).tolist()) == [0, 1]
    assert vals.min(axis=1).max() < 1e-8
    assert vals.max(axis=1).min() > 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_base_cone_d_rays(d):
    fw = simplex_framework(d)
    report = analyze(fw)
    cone = expansive_cone(fw, report, radius=2)
    assert len(cone.rays) == d


def test_rigid_framework_trivial_cone(enhanced3):
    report = analyze(enhanced3)
    cone = expansive_cone(enhanced3, report, radius=2)
    assert len(cone.rays) == 0


@pytest.mark.parametrize("radius", [0, -5])
def test_rigid_framework_rejects_radius_below_one(enhanced3, radius):
    # The same error as a framework with flexes, before the rigid shortcut.
    with pytest.raises(ValueError, match="radius must be at least 1"):
        expansive_cone(enhanced3, analyze(enhanced3), radius)


def no_work(*args, **kwargs):
    raise AssertionError("a count was not checked before the work it sizes")


NOT_COUNTS = [True, np.bool_(True), 2.0, 1.5, "2"]


@pytest.mark.parametrize("value", NOT_COUNTS)
@pytest.mark.parametrize("entry", ["expansive_cone", "classify_flex", "verify_pointedness", "find_stable_radius"])
def test_cone_layer_counts_are_integers_checked_first(stressed, monkeypatch, entry, value):
    # Unchecked, True runs as radius 1 and is written as "radius": true into
    # the cone report, and a float radius fails in the pair stream with a
    # TypeError; the check comes before any pair or rigidity row is built.
    report = analyze(stressed)
    flex = report.flex_basis[0]
    cone = expansive_cone(stressed, report, 1)
    monkeypatch.setattr(expansive, "_pair_chunks", no_work)
    monkeypatch.setattr(expansive, "rigidity_matrix", no_work)
    calls = {
        "expansive_cone": lambda: expansive_cone(stressed, report, value),
        "classify_flex": lambda: classify_flex(stressed, flex, value),
        "verify_pointedness": lambda: verify_pointedness(stressed, flex, value),
        "find_stable_radius": lambda: find_stable_radius(stressed, cone, value),
    }
    name = "max_radius" if entry == "find_stable_radius" else "radius"
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        calls[entry]()


def test_cone_layer_takes_numpy_integer_counts(stressed):
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, np.int64(2))
    assert cone_report_json(cone, 2) == cone_report_json(expansive_cone(stressed, report, 2), 2)
    assert find_stable_radius(stressed, cone, np.int64(4)) == find_stable_radius(stressed, cone, 4)
    flex = cone.ray_motion(0) + cone.ray_motion(1)
    assert classify_flex(stressed, flex, np.int64(2)) is classify_flex(stressed, flex, 2)


def test_flex_dimension_cap_enforced():
    fw = simplex_framework(7)
    report = analyze(fw)
    assert report.dof == 7
    with pytest.raises(FlexDimensionTooLargeError):
        expansive_cone(fw, report, radius=1)


def test_stable_radius_families(stressed, base3):
    for fw in (stressed, base3, simplex_framework(2)):
        assert find_stable_radius(fw, expansive_cone(fw, analyze(fw))) == 2


# -- classification -----------------------------------------------------------


def test_trivial_motions_weakly_expansive(stressed):
    for v in trivial_motion_basis(stressed):
        assert classify_flex(stressed, v) is FlexClass.WEAKLY_EXPANSIVE


def test_ray_classification_and_negation(stressed):
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, radius=2)
    mot = cone.ray_motion(0)
    assert classify_flex(stressed, mot) is FlexClass.EFFECTIVELY_EXPANSIVE
    assert classify_flex(stressed, -mot) is FlexClass.NOT_EXPANSIVE


def test_not_a_flex_rejected(stressed):
    bad = np.ones(15)
    with pytest.raises(NotAFlexError):
        classify_flex(stressed, bad)


@pytest.mark.parametrize("bad", ["nan", "inf", "column"])
@pytest.mark.parametrize(
    "entry", [classify_flex, verify_pointedness, continue_motion],
    ids=lambda f: f.__name__,
)
def test_flex_gate_rejects_nonfinite_and_misshaped(entry, bad):
    # One flex gate for all three entry points: a non-finite or mis-shaped
    # vector is not a flex, whatever its residual would be.
    fw = simplex_framework(2, SimplexVariant("removed", 1))
    vector = analyze(fw).flex_basis[0].copy()
    if bad == "column":
        vector = vector[:, None]
    else:
        vector[0] = float(bad)
    with pytest.raises(NotAFlexError):
        entry(fw, vector)


def test_flex_gate_tolerance_band():
    # A flex nudged off edge row 0 by 3e-9 |row| lies between the two gate
    # tolerances: a seed for continuation, not a flex for the cone layer.
    assert (expansive.CONE_TOL, motion._SEED_FLEX_TOL) == (1e-9, 1e-8)
    fw = simplex_framework(2, SimplexVariant("removed", 1), regular=True)
    row = rigidity_matrix(fw)[0]
    nudged = analyze(fw).flex_basis[0] + 3e-9 * row / np.linalg.norm(row)
    assert continue_motion(fw, nudged, n_steps=1).n_steps == 1
    with pytest.raises(NotAFlexError):
        classify_flex(fw, nudged)


# -- coordinates near the float range --------------------------------------------
# Positions and lattice times c multiply every row by c and keep every flex.


def test_relative_tests_past_the_float_range_raise(stressed):
    # Times 10**160 the rows are finite, but their norms overflow to inf, and
    # a test of |r . v| against tol |r| |v| passed any vector: classify_flex
    # called the ray, its negative and np.ones(15) weakly expansive, the seed
    # gate passed np.ones(15), and the cone dropped every pair row as
    # "full lineality".  The rank is still right.
    mot = expansive_cone(stressed, analyze(stressed), radius=2).ray_motion(0)
    fw = scaled(stressed, float(10**160))
    report = analyze(fw)
    assert (report.rank, report.dof, report.stress_dim) == (7, 2, 1)
    for vector in (mot, -mot, np.ones(15)):
        with pytest.raises(NumericalFailureError, match="^flex test scale is not finite"):
            classify_flex(fw, vector)
    with pytest.raises(NumericalFailureError, match="^flex test scale is not finite"):
        continue_motion(fw, np.ones(15))
    with pytest.raises(NumericalFailureError, match="^pair row norm is not finite") as info:
        expansive_cone(fw, report, radius=2)
    assert "lineality" not in str(info.value)


def test_a_pair_test_past_the_float_range_raises(stressed):
    # Times 2**509 the bar rows' norms are finite, so the flex passes the
    # gate, but some radius-2 pair rows' norms overflow: their thresholds
    # are inf, and no verdict can rest on them.
    mot = expansive_cone(stressed, analyze(stressed), radius=2).ray_motion(0)
    fw = scaled(stressed, 2.0**509)
    with pytest.raises(NumericalFailureError, match="^pair test scale is not finite"):
        classify_flex(fw, mot, radius=2)
    with pytest.raises(NumericalFailureError, match="^pair test scale is not finite"):
        verify_pointedness(fw, mot, radius=2)


def test_relative_tests_inside_the_float_range_answer_as_unscaled(stressed):
    # Times 10**150 no norm overflows: the unscaled framework's answers.
    cone0 = expansive_cone(stressed, analyze(stressed), radius=2)
    mot = cone0.ray_motion(0)
    fw = scaled(stressed, float(10**150))
    assert classify_flex(fw, mot) is FlexClass.EFFECTIVELY_EXPANSIVE
    assert classify_flex(fw, -mot) is FlexClass.NOT_EXPANSIVE
    for entry in (classify_flex, continue_motion):
        with pytest.raises(NotAFlexError):
            entry(fw, np.ones(15))
    cone = expansive_cone(fw, analyze(fw), radius=2)
    assert rays_match(cone.rays @ cone.flex_basis, cone0.rays @ cone0.flex_basis, 1e-9)


def test_cone_membership_soundness(stressed):
    rng = np.random.default_rng(7)
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, radius=2)
    for _ in range(10):
        coeffs = rng.uniform(0.0, 1.0, len(cone.rays))
        mot = (coeffs @ cone.rays) @ cone.flex_basis
        assert classify_flex(stressed, mot) in (
            FlexClass.WEAKLY_EXPANSIVE,
            FlexClass.EFFECTIVELY_EXPANSIVE,
        )
    for i in range(len(cone.halfspace_matrix)):
        mot = (-cone.halfspace_matrix[i]) @ cone.flex_basis
        assert classify_flex(stressed, mot) is FlexClass.NOT_EXPANSIVE


def test_effective_vertices(stressed, enhanced3):
    # Trivial motions open no pair strictly, so they touch no orbit.
    for v in trivial_motion_basis(stressed):
        assert classify_flex(stressed, v) is FlexClass.WEAKLY_EXPANSIVE
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, radius=2)
    assert set(verify_pointedness(stressed, cone.ray_motion(0)).analyses) == {"red", "green"}


# -- pointedness verification --------------------------------------------------


def test_pointedness_on_mechanism():
    fw = simplex_framework(3, SimplexVariant("removed", 1))
    report = analyze(fw)
    flex = report.flex_basis[0]
    if classify_flex(fw, flex) is FlexClass.NOT_EXPANSIVE:
        flex = -flex
    result = verify_pointedness(fw, flex)
    assert result.passed
    assert set(result.analyses) == {"red", "green"}


def test_pointedness_requires_effective_flex(stressed):
    trivial = trivial_motion_basis(stressed)[0]
    with pytest.raises(ValueError):
        verify_pointedness(stressed, trivial)


def test_pointedness_stressed_with_period_edge(stressed):
    fw = with_edge_orbit(stressed, "red", "red", (1, 0, 0))
    report = analyze(fw)
    flex = report.flex_basis[0]
    if classify_flex(fw, flex) is FlexClass.NOT_EXPANSIVE:
        flex = -flex
    result = verify_pointedness(fw, flex)
    assert result.passed
    assert result.analyses["red"].lineality_dim == 1


def test_d2_mechanism_pointed_in_classical_sense():
    fw = simplex_framework(2, SimplexVariant("removed", 1))
    report = analyze(fw)
    flex = report.flex_basis[0]
    if classify_flex(fw, flex) is FlexClass.NOT_EXPANSIVE:
        flex = -flex
    result = verify_pointedness(fw, flex)
    assert result.passed
    for analysis in result.analyses.values():
        assert analysis.lineality_dim == 0  # d - 2 = 0 forces classical pointedness


def test_pointedness_checks_and_enumerates_once(stressed, monkeypatch):
    import perigid.expansive as expansive

    report = analyze(stressed)
    flex = expansive_cone(stressed, report, radius=2).ray_motion(0)
    calls = []

    def count(name):
        original = getattr(expansive, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(expansive, name, counted)

    count("rigidity_matrix")
    count("_pair_chunks")
    result = verify_pointedness(stressed, flex)
    assert set(result.analyses) == {"red", "green"}
    # One flex check, then one pass of the pair stream.
    assert calls == ["rigidity_matrix", "_pair_chunks"]


# -- serialization -------------------------------------------------------------


def test_cone_report_json(stressed):
    report = analyze(stressed)
    cone = expansive_cone(stressed, report, radius=2)
    data = json.loads(cone_report_json(cone, 2))
    assert list(data) == [
        "flex_dim",
        "radius",
        "stable_radius",
        "num_halfspaces",
        "rays",
        "ray_motions",
    ]
    assert data["flex_dim"] == 2
    assert len(data["rays"]) == 2
    assert len(data["ray_motions"][0]) == 15


def test_pair_audit_csv(tmp_path, stressed):
    report = analyze(stressed)
    target = tmp_path / "pairs.csv"
    expansive_cone(stressed, report, 1, pairs_csv=target)
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "orbit_a,orbit_b,shift_1,shift_2,shift_3,value"
    assert len(lines) == 1 + 53
    values = {}
    for line in lines[1:]:
        fields = line.split(",")
        values[(fields[0], fields[1], tuple(int(c) for c in fields[2:5]))] = float(fields[5])
    # Edge pairs are inert; the e1 period pair is active.
    first_edge = stressed.graph.edge_orbits[0]
    assert values[first_edge.canonical()] < 1e-9
    assert values[EdgeOrbit("red", "red", (1, 0, 0)).canonical()] > 1e-3


# -- tolerances ----------------------------------------------------------------


@pytest.mark.parametrize("module, names", [(expansive, ["CONE_TOL"]), (feasibility, ["LP_TOL"])])
def test_one_tolerance_per_layer(module, names):
    # Each layer keeps one module tolerance; a second *_TOL constant is a
    # second rule for the same decision.
    assert [name for name in vars(module) if name.endswith("_TOL")] == names
