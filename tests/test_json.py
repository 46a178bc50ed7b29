"""Byte tests of the JSON writers: the framework file and the rigidity, star
and cone reports, all written by `framework._json`, against frozen copies of
the f-string writers they replaced (`_oracles.frozen_*`).

The cases reach the corners of that format: an empty flex basis of shape
(0, size), an edgeless framework (stress basis (0, 0) and an empty edge
block), -0.0 entries, orbit ids that need escaping, a star report with a
None normal or dependence, and report fields that are numpy scalars or
Fractions rather than Python values."""

import json
from fractions import Fraction

import numpy as np
import pytest

from perigid import (
    SimplexVariant,
    analyze,
    expansive_cone,
    find_stable_radius,
    simplex_framework,
    stressed_framework,
)
from perigid.cones import ConeAnalysis, VectorStar, analyze_star, star_report_json, vertex_star
from perigid.expansive import cone_report_json
from perigid.errors import DimensionMismatchError, SchemaError
from perigid.framework import _json, dumps_framework, loads_framework
from perigid.rigidity import report_to_json

from _oracles import (
    frozen_cone_report_json,
    frozen_dumps_framework,
    frozen_report_json,
    frozen_star_report_json,
)
from conftest import make_framework, rotated

ESCAPED_ORBITS = ('a"b', "c\\d", "e,f", "été → \U0001d4b3")


def escaped_framework():
    o1, o2, o3, o4 = ESCAPED_ORBITS
    positions = {o1: [0.0, 0.0], o2: [0.5, 0.1], o3: [0.2, 0.6], o4: [0.7, 0.7]}
    edges = [(o1, o2, (0, 0)), (o2, o3, (1, 0)), (o3, o4, (0, -1)), (o4, o1, (1, 1)), (o1, o3, (0, 0))]
    return make_framework(2, positions, np.eye(2), edges)


def negative_zero_framework():
    positions = {"a": [-0.0, 0.25], "b": [0.5, -0.0]}
    lattice = [[1.0, -0.0], [-0.0, 1.0]]
    return make_framework(2, positions, lattice, [("a", "b", (0, 0)), ("a", "b", (1, 0)), ("b", "a", (0, 1))])


def edgeless_framework():
    return make_framework(2, {"a": [0.0, 0.0], "b": [0.5, 0.5]}, np.eye(2), [])


FRAMEWORKS = {
    "stressed": stressed_framework,
    "enhanced4": lambda: simplex_framework(4, SimplexVariant("enhanced")),
    "removed3": lambda: simplex_framework(3, SimplexVariant("removed", 1), regular=True),
    "rotated_stressed": lambda: rotated(stressed_framework(), 1),
    "rotated_base3": lambda: rotated(simplex_framework(3), 2),
    "escaped": escaped_framework,
    "negative_zero": negative_zero_framework,
    "edgeless": edgeless_framework,
}


@pytest.mark.parametrize("name", FRAMEWORKS)
def test_framework_file_and_rigidity_report_bytes(name):
    fw = FRAMEWORKS[name]()
    text = dumps_framework(fw)
    assert text == frozen_dumps_framework(fw)
    assert dumps_framework(loads_framework(text)) == text
    report = analyze(fw)
    assert report_to_json(report) == frozen_report_json(report)


def test_the_corner_cases_are_reached():
    report = analyze(FRAMEWORKS["enhanced4"]())
    assert report.flex_basis.shape == (0, 24) and '"flex_basis": []' in report_to_json(report)
    edgeless = edgeless_framework()
    assert analyze(edgeless).stress_basis.shape == (0, 0)
    assert '  "edge_orbits": [\n\n  ]\n}\n' in dumps_framework(edgeless)
    assert "[-0, 0.25]" in dumps_framework(negative_zero_framework())
    text = dumps_framework(escaped_framework())
    assert '"a\\"b"' in text and '"c\\\\d"' in text and "\\u00e9t\\u00e9 \\u2192 \\ud835\\udcb3" in text


def test_minus_zero_reads_as_a_negative_coordinate_and_an_integer_shift():
    # The writer prints -0.0 as "-0", which json.loads alone reads as the int 0.
    text = dumps_framework(negative_zero_framework()).replace('"shift": [0, 0]', '"shift": [-0, 0]')
    fw = loads_framework(text)
    assert np.signbit(fw.placement.positions["a"][0]) and np.signbit(fw.placement.lattice[1, 0])
    assert not np.signbit(fw.placement.positions["a"][1]) and fw.placement.lattice[0, 0] == 1
    assert [type(c) for c in fw.graph.edge_orbits[0].shift] == [int, int] and fw.graph.edge_orbits[0].shift == (0, 0)
    with pytest.raises(DimensionMismatchError, match="got 0$"):
        loads_framework(text.replace('"dimension": 2', '"dimension": -0'))
    with pytest.raises(SchemaError, match="shift"):
        loads_framework(text.replace('"shift": [-0, 0]', '"shift": [-0.0, 0]'))


@pytest.mark.parametrize("name", ["stressed", "rotated_stressed", "removed3", "escaped", "negative_zero"])
def test_star_report_bytes(name):
    fw = FRAMEWORKS[name]()
    for orbit in fw.graph.vertex_orbits:
        analysis = analyze_star(vertex_star(fw, orbit), fw.dimension)
        assert star_report_json(analysis) == frozen_star_report_json(analysis)


def test_star_reports_with_a_missing_normal_or_dependence():
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    spanning = analyze_star(VectorStar("s", np.array([e1, [-1.0, 0.0], e2, [0.0, -1.0]])), 2)
    pointed = analyze_star(VectorStar("p", np.array([e1, e2])), 2)
    assert spanning.separating_normal is None and spanning.positive_dependence is not None
    assert pointed.positive_dependence is None and pointed.separating_normal is not None
    for analysis in (spanning, pointed):
        assert star_report_json(analysis) == frozen_star_report_json(analysis)


@pytest.mark.parametrize("pointed", [np.bool_(True), np.bool_(False)])
def test_star_report_of_numpy_and_fraction_fields(pointed):
    # np.bool_ is no Python bool: a writer that takes it for a number prints 1.
    analysis = ConeAnalysis(
        orbit='q"é',
        lineality_basis=np.zeros((np.int64(1), np.int64(2))),
        pointed_codim2=pointed,
        separating_normal=np.array([1, -2], dtype=np.int64),
        positive_dependence=[Fraction(1), Fraction(3, 2), Fraction(1, 3)],
    )
    text = star_report_json(analysis)
    assert text == frozen_star_report_json(analysis)
    assert json.loads(text)["pointed_codim2"] is bool(pointed)


def cone_case(name):
    if name == "stressed_R2":
        fw, radius = stressed_framework(), 2
    elif name == "rigid_enhanced4":
        fw, radius = simplex_framework(4, SimplexVariant("enhanced")), 1
    else:
        fw, radius = rotated(simplex_framework(3), 3), np.int64(1)
    cone = expansive_cone(fw, analyze(fw), radius)
    return cone, find_stable_radius(fw, cone, max_radius=radius + 3)


@pytest.mark.parametrize("name", ["stressed_R2", "rigid_enhanced4", "rotated_base3_int64"])
def test_cone_report_bytes(name):
    cone, stable = cone_case(name)
    assert cone_report_json(cone, stable) == frozen_cone_report_json(cone, stable)
    assert cone_report_json(cone, np.int64(stable)) == frozen_cone_report_json(cone, stable)


def test_json_values():
    assert _json(np.bool_(True)) == "true" and _json(np.bool_(False)) == "false"
    assert _json([None, True, False, 7, np.int64(-3), 10**20]) == "[null, true, false, 7, -3, 100000000000000000000]"
    assert _json((0.1, np.float64(-0.0), Fraction(1, 3), np.array(2.5))) == "[0.10000000000000001, -0, 0.33333333333333331, 2.5]"
    assert _json(np.array([[1, 2]], dtype=np.int64)) == "[[1, 2]]"
    assert _json(np.zeros((0, 3))) == "[]" and _json(np.zeros((2, 0))) == "[[], []]"
    assert _json({"k\n": {"a": [np.float32(0.5)]}}) == '{"k\\n": {"a": [0.5]}}'
    for text in ESCAPED_ORBITS + ("\x00\t\x7f ",):
        assert _json(text) == json.dumps(text)
