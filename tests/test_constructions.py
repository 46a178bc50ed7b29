import numpy as np
import pytest

from perigid import (
    DuplicateEdgeOrbitError,
    FrameworkError,
    InvalidDimensionError,
    QuotientGraph,
    SimplexVariant,
    analyze,
    is_minimally_rigid,
    simplex_framework,
    stressed_framework,
    validate_framework,
    with_edge_orbit,
)
from perigid.framework import dumps_framework


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_simplex_counts(d):
    base = simplex_framework(d)
    assert base.n == 2
    assert base.m == d + d * (d - 1) // 2
    enhanced = simplex_framework(d, SimplexVariant("enhanced"))
    assert enhanced.m == 2 * d + d * (d - 1) // 2
    for k in range(1, d + 1):
        removed = simplex_framework(d, SimplexVariant("removed", k))
        assert removed.m == enhanced.m - 1


def test_simplex_green_position():
    fw = simplex_framework(3)
    assert np.allclose(fw.placement.positions["green"], [0.25, 0.25, 0.25])


def test_simplex_enhanced_d3_minimally_rigid():
    assert is_minimally_rigid(simplex_framework(3, SimplexVariant("enhanced")))


def test_invalid_dimension_and_variant():
    with pytest.raises(InvalidDimensionError):
        simplex_framework(1)
    with pytest.raises(InvalidDimensionError):
        simplex_framework(3, SimplexVariant("removed", 4))
    with pytest.raises(InvalidDimensionError):
        SimplexVariant.parse("removed:x")
    with pytest.raises(InvalidDimensionError):
        SimplexVariant.parse("bogus")


def test_variant_parse_round_trip():
    assert SimplexVariant.parse("base") == SimplexVariant("base")
    assert SimplexVariant.parse("enhanced") == SimplexVariant("enhanced")
    assert SimplexVariant.parse("removed:2") == SimplexVariant("removed", 2)


def test_regular_lattice_geometry():
    fw = simplex_framework(3, regular=True)
    lat = fw.placement.lattice
    gens = [lat[:, i] for i in range(3)]
    for g in gens:
        assert np.isclose(np.linalg.norm(g), 1.0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.isclose(np.linalg.norm(gens[i] - gens[j]), 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["base", "enhanced", "removed:1"])
def test_regular_and_standard_placements_agree(d, kind):
    variant = SimplexVariant.parse(kind)
    std = analyze(simplex_framework(d, variant, regular=False))
    reg = analyze(simplex_framework(d, variant, regular=True))
    assert std.rank == reg.rank
    assert std.dof == reg.dof
    assert std.stress_dim == reg.stress_dim


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_family_dof_ladder(d):
    assert analyze(simplex_framework(d)).dof == d
    enhanced = simplex_framework(d, SimplexVariant("enhanced"))
    assert analyze(enhanced).dof == 0
    assert is_minimally_rigid(enhanced)
    for k in range(1, d + 1):
        assert analyze(simplex_framework(d, SimplexVariant("removed", k))).dof == 1


def test_removed_variants_agree_under_axis_swap():
    r1 = analyze(simplex_framework(3, SimplexVariant("removed", 1)))
    r2 = analyze(simplex_framework(3, SimplexVariant("removed", 2)))
    assert (r1.rank, r1.dof, r1.stress_dim) == (r2.rank, r2.dof, r2.stress_dim)


def test_stressed_framework_basics():
    fw = stressed_framework()
    assert fw.n == 2 and fw.m == 8
    assert np.allclose(fw.placement.positions["green"], [0.5, 0.5, -0.5])
    report = analyze(fw)
    assert report.dof == 2 and report.stress_dim == 1


def test_fig_style_mechanism_from_enhanced():
    # d=2 enhanced minus the v(2*lambda_1) edge: one degree of freedom.
    enhanced = simplex_framework(2, SimplexVariant("enhanced"))
    idx = next(
        k for k, e in enumerate(enhanced.graph.edge_orbits) if e.shift == (2, 0)
    )
    edges = enhanced.graph.edge_orbits
    graph = QuotientGraph(2, enhanced.graph.vertex_orbits, edges[:idx] + edges[idx + 1 :])
    mech = validate_framework(graph, enhanced.placement)
    assert analyze(mech).dof == 1
    assert mech.graph == simplex_framework(2, SimplexVariant("removed", 1)).graph


def test_edge_surgery_round_trip(stressed):
    edges = stressed.graph.edge_orbits
    graph = QuotientGraph(3, stressed.graph.vertex_orbits, edges[:3] + edges[4:])
    fw2 = validate_framework(graph, stressed.placement)
    fw3 = with_edge_orbit(fw2, "green", "red", (0, 0, 1))
    assert set(fw3.graph.edge_orbits) == set(stressed.graph.edge_orbits)


@pytest.mark.parametrize(
    "variant", [SimplexVariant("enhnced"), SimplexVariant("base", 2), SimplexVariant("enhanced", 1)]
)
def test_malformed_variant_rejected(variant):
    # A misspelled kind, or an edge index on a kind that removes none, is not
    # silently read as the base framework.
    with pytest.raises(InvalidDimensionError):
        simplex_framework(3, variant)


@pytest.mark.parametrize("shift", [(1.5, 0, 0), (0.9, 0, 0), (float("nan"), 0, 0), (float("inf"), 0, 0)])
def test_insert_non_integral_shift_rejected(stressed, shift):
    with pytest.raises(FrameworkError) as info:
        with_edge_orbit(stressed, "red", "red", shift)
    assert type(info.value) is FrameworkError


def test_insert_integral_shift_types_accepted(stressed):
    reference = dumps_framework(with_edge_orbit(stressed, "red", "red", (1, 0, 0)))
    for shift in [(1.0, 0.0, 0.0), tuple(np.array([1, 0, 0], dtype=np.int64)), np.array([1.0, 0, 0])]:
        fw = with_edge_orbit(stressed, "red", "red", shift)
        assert dumps_framework(fw) == reference
        assert all(type(c) is int for c in fw.graph.edge_orbits[-1].shift)


def test_insert_duplicate_rejected(stressed):
    with pytest.raises(DuplicateEdgeOrbitError):
        with_edge_orbit(stressed, "green", "red", (0, 0, 0))
    with pytest.raises(DuplicateEdgeOrbitError):
        with_edge_orbit(stressed, "red", "green", (0, 0, 0))


def test_insert_period_edge_drops_dof(stressed):
    fw = with_edge_orbit(stressed, "red", "red", (1, 0, 0))
    assert analyze(fw).dof == 1
