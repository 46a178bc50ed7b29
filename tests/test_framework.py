import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import (
    DimensionMismatchError,
    DuplicateEdgeOrbitError,
    EdgeOrbit,
    FrameworkError,
    LoopEdgeError,
    Placement,
    QuotientGraph,
    SchemaError,
    SingularLatticeError,
    ZeroLengthEdgeError,
    enumerate_pairs,
    simplex_framework,
    validate_framework,
)
from perigid.cli import main
from perigid.framework import _csv_field, _write_pair_table, dumps_framework, loads_framework

from conftest import make_framework


def test_stressed_inputs_validate(stressed):
    assert stressed.dimension == 3
    assert stressed.n == 2
    assert stressed.m == 8
    for k in range(stressed.m):
        assert stressed.edge_lengths[k] == np.linalg.norm(stressed._edge_vectors[k])


def test_loop_edge_rejected():
    with pytest.raises(LoopEdgeError):
        make_framework(
            2,
            {"r": [0.0, 0.0]},
            np.eye(2),
            [("r", "r", (0, 0))],
        )


def test_same_orbit_nonzero_shift_allowed():
    fw = make_framework(2, {"r": [0.0, 0.0]}, np.eye(2), [("r", "r", (1, 0))])
    assert fw.m == 1


def test_singular_lattice_rejected():
    with pytest.raises(SingularLatticeError):
        make_framework(
            2,
            {"a": [0.0, 0.0], "b": [1.0, 0.0]},
            [[1.0, 1.0], [2.0, 2.0]],  # equal columns
            [("a", "b", (0, 0))],
        )


def test_zero_length_edge_rejected():
    with pytest.raises(ZeroLengthEdgeError):
        make_framework(
            2,
            {"a": [0.5, 0.5], "b": [0.5, 0.5]},
            np.eye(2),
            [("a", "b", (0, 0))],
        )


def test_duplicate_edge_orbit_up_to_reversal_rejected():
    with pytest.raises(DuplicateEdgeOrbitError):
        make_framework(
            2,
            {"a": [0.0, 0.0], "b": [0.5, 0.25]},
            np.eye(2),
            [("a", "b", (1, 0)), ("b", "a", (-1, 0))],
        )


def test_shift_length_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        make_framework(
            2,
            {"a": [0.0, 0.0], "b": [0.5, 0.25]},
            np.eye(2),
            [("a", "b", (1, 0, 0))],
        )


@pytest.mark.parametrize(
    "shift", [(1.5, 0), (0.9, 0), (float("nan"), 0), (0, float("inf")), ("1", 0)]
)
def test_non_integral_shift_rejected(shift):
    # Not truncated: (1.5, 0) is not the bar (1, 0), and (0.9, 0) is no loop.
    with pytest.raises(FrameworkError) as info:
        make_framework(2, {"a": [0.0, 0.0], "b": [0.5, 0.25]}, np.eye(2), [("a", "b", shift)])
    assert type(info.value) is FrameworkError


def test_integral_shift_types_accepted():
    def build(shift):
        return make_framework(2, {"a": [0.0, 0.0], "b": [0.5, 0.25]}, np.eye(2), [("a", "b", shift)])

    reference = build((1, 0))
    for shift in [(1.0, 0.0), tuple(np.array([1, 0], dtype=np.int64)), np.array([1.0, -0.0])]:
        fw = build(shift)
        assert fw.graph == reference.graph
        assert all(type(c) is int for c in fw.graph.edge_orbits[0].shift)
        assert dumps_framework(fw) == dumps_framework(reference)


def test_unknown_endpoint_rejected():
    with pytest.raises(FrameworkError):
        make_framework(2, {"a": [0.0, 0.0]}, np.eye(2), [("a", "c", (1, 0))])


def test_edge_vector_values(stressed):
    # green -> red with shift 0: 0 - v
    assert np.allclose(stressed._edge_vectors[0], [-0.5, -0.5, 0.5])
    # green -> red with shift e1
    assert np.allclose(stressed._edge_vectors[1], [0.5, -0.5, 0.5])


def test_edge_vector_simplex(base3):
    # green -> red with shift e1: e1 - (1/4)(e1+e2+e3)
    assert np.allclose(base3._edge_vectors[0], [0.75, -0.25, -0.25])


def test_reversed_storage_accepted_identically():
    kwargs = dict(
        dimension=2,
        positions={"a": [0.0, 0.0], "b": [0.5, 0.25]},
        lattice=np.eye(2),
    )
    fw = make_framework(edges=[("a", "b", (1, 0))], **kwargs)
    fw_rev = make_framework(edges=[("b", "a", (-1, 0))], **kwargs)
    assert fw.graph == fw_rev.graph
    assert np.array_equal(fw._edge_vectors[0], fw_rev._edge_vectors[0])


def test_edge_order_permutation_permutes_vectors(stressed):
    perm = [3, 1, 0, 2, 7, 5, 6, 4]
    edges = [stressed.graph.edge_orbits[i] for i in perm]
    fw2 = make_framework(
        3,
        {o: stressed.placement.positions[o] for o in stressed.graph.vertex_orbits},
        stressed.placement.lattice,
        [(e.tail, e.head, e.shift) for e in edges],
    )
    for new_k, old_k in enumerate(perm):
        assert np.array_equal(fw2._edge_vectors[new_k], stressed._edge_vectors[old_k])


# -- serialization ----------------------------------------------------------


def test_round_trip_bit_for_bit(stressed):
    text = dumps_framework(stressed)
    fw2 = loads_framework(text)
    assert fw2.graph == stressed.graph
    assert np.array_equal(fw2.placement.lattice, stressed.placement.lattice)
    for o in stressed.graph.vertex_orbits:
        assert np.array_equal(fw2.placement.positions[o], stressed.placement.positions[o])
    assert dumps_framework(fw2) == text


@pytest.mark.parametrize("d", [3, 4, 5])
def test_regular_lattice_same_bits_in_memory_and_from_json(d):
    # The Cholesky lattice of the regular simplex comes out Fortran-ordered;
    # stored C-ordered, `lattice @ w` rounds as for the framework read back.
    fw = simplex_framework(d, regular=True)
    again = loads_framework(dumps_framework(fw))
    assert fw.placement.lattice.flags.c_contiguous
    assert np.array_equal(enumerate_pairs(fw, 2).separations, enumerate_pairs(again, 2).separations)


def test_writer_key_order(stressed):
    data = json.loads(dumps_framework(stressed))
    assert list(data) == ["dimension", "vertex_orbits", "lattice", "edge_orbits"]
    assert list(data["vertex_orbits"][0]) == ["id", "position"]
    assert list(data["edge_orbits"][0]) == ["tail", "head", "shift"]


def test_loader_rejects_unknown_fields(stressed):
    data = json.loads(dumps_framework(stressed))
    data["comment"] = "nope"
    with pytest.raises(SchemaError):
        loads_framework(json.dumps(data))
    data = json.loads(dumps_framework(stressed))
    data["edge_orbits"][0]["weight"] = 1.0
    with pytest.raises(SchemaError):
        loads_framework(json.dumps(data))


def test_loader_rejects_non_integer_shift(stressed):
    data = json.loads(dumps_framework(stressed))
    data["edge_orbits"][0]["shift"] = [0.5, 0, 0]
    with pytest.raises(SchemaError):
        loads_framework(json.dumps(data))


def framework_text(**changes) -> str:
    """JSON text of a valid two-orbit framework with some top-level values replaced."""
    data = {
        "dimension": 2,
        "vertex_orbits": [{"id": "a", "position": [0.0, 0.0]}, {"id": "b", "position": [0.5, 0.25]}],
        "lattice": [[1.0, 0.0], [0.0, 1.0]],
        "edge_orbits": [{"tail": "a", "head": "b", "shift": [1, 0]}],
    }
    return json.dumps({**data, **changes})


ORBIT_B = {"id": "b", "position": [0.5, 0.25]}
AB_GRAPH = QuotientGraph(2, ("a", "b"), (EdgeOrbit("a", "b", (1, 0)),))

# (file text, or a placement for AB_GRAPH, and the class the library raises).
REJECTIONS = {
    # validate_framework
    "dimension-zero": (framework_text(dimension=0), DimensionMismatchError),
    "no-orbits": (framework_text(vertex_orbits=[], edge_orbits=[]), FrameworkError),
    "duplicate-ids": (framework_text(vertex_orbits=[ORBIT_B, ORBIT_B]), FrameworkError),
    "missing-position": (Placement({"a": [0.0, 0.0]}, np.eye(2)), FrameworkError),
    "extra-position": (
        Placement({"a": [0.0, 0.0], "b": [0.5, 0.25], "c": [0.1, 0.1]}, np.eye(2)),
        FrameworkError,
    ),
    "position-shape": (
        framework_text(vertex_orbits=[{"id": "a", "position": [0.0]}, ORBIT_B]),
        DimensionMismatchError,
    ),
    "lattice-shape": (framework_text(lattice=np.eye(3).tolist()), DimensionMismatchError),
    "lattice-infinite": (framework_text(lattice=[[1.0, 0.0], [0.0, float("inf")]]), FrameworkError),
    # loads_framework
    "not-an-object": ("[]", SchemaError),
    "invalid-json": ('{"dimension": 2,', SchemaError),
    "dimension-float": (framework_text(dimension=2.0), SchemaError),
    "vertex-orbits-not-list": (framework_text(vertex_orbits={}), SchemaError),
    "edge-orbits-not-list": (framework_text(edge_orbits={}), SchemaError),
    "id-not-string": (
        framework_text(vertex_orbits=[{"id": 1, "position": [0.0, 0.0]}, ORBIT_B]),
        SchemaError,
    ),
    "lattice-not-numbers": (framework_text(lattice=[[1.0, "x"], [0.0, 1.0]]), SchemaError),
    "lattice-not-square": (framework_text(lattice=[[1.0, 0.0], [0.0]]), DimensionMismatchError),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_typed_rejections(case, tmp_path, capsys):
    source, error = REJECTIONS[case]
    with pytest.raises(error) as info:
        if isinstance(source, Placement):
            validate_framework(AB_GRAPH, source)
        else:
            loads_framework(source)
    assert type(info.value) is error
    if isinstance(source, Placement):
        return  # a framework file always gives each orbit one position
    target = tmp_path / "fw.json"
    target.write_text(source)
    assert main(["analyze", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid input: ")


@st.composite
def small_frameworks(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    orbits = [f"v{i}" for i in range(n)]
    coord = st.integers(-8, 8).map(lambda q: q / 4)
    positions = {o: [draw(coord) for _ in range(d)] for o in orbits}
    lattice = np.eye(d) + 0.25 * np.array(
        [[draw(st.integers(-1, 1)) for _ in range(d)] for _ in range(d)]
    )
    n_edges = draw(st.integers(1, 4))
    edges = []
    seen = set()
    for _ in range(n_edges):
        t = draw(st.sampled_from(orbits))
        h = draw(st.sampled_from(orbits))
        s = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        if t == h and all(c == 0 for c in s):
            continue
        key = min((t, h, s), (h, t, tuple(-c for c in s)))
        if key in seen:
            continue
        seen.add(key)
        edges.append((t, h, s))
    if not edges:
        edges = [(orbits[0], orbits[0], (1,) + (0,) * (d - 1))]
    return d, positions, lattice, edges


@given(small_frameworks())
@settings(max_examples=60, deadline=None)
def test_round_trip_random_frameworks(spec):
    d, positions, lattice, edges = spec
    try:
        fw = make_framework(d, positions, lattice, edges)
    except (SingularLatticeError, ZeroLengthEdgeError):
        return
    text = dumps_framework(fw)
    fw2 = loads_framework(text)
    assert fw2.graph == fw.graph
    assert np.array_equal(fw2.placement.lattice, fw.placement.lattice)
    for o in fw.graph.vertex_orbits:
        assert np.array_equal(fw2.placement.positions[o], fw.placement.positions[o])
    assert dumps_framework(fw2) == text


# -- the pair table writer -------------------------------------------------------

def one_string_table(path, d, value_names, rows):
    """The table writer as it was before it streamed: the whole table joined
    into one string and written at once."""
    header = ["orbit_a", "orbit_b", *(f"shift_{i + 1}" for i in range(d)), *value_names]
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, rows)]) + "\n")


def table_rows(count, d=2):
    """`count` rows whose orbit names include one that needs quoting."""
    names = [_csv_field(o) for o in ("a", 'b,"x"', "c")]
    return (
        [names[k % 3], names[(k + 1) % 3], *(str(k % 5 - 2) for _ in range(d)), format(k / 7, ".12g")]
        for k in range(count)
    )


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_pair_table_writes_the_one_string_bytes(tmp_path, count):
    _write_pair_table(tmp_path / "streamed.csv", 2, ["value"], table_rows(count))
    one_string_table(tmp_path / "whole.csv", 2, ["value"], list(table_rows(count)))
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert (b'"b,""x"""' in (tmp_path / "streamed.csv").read_bytes()) == (count > 0)


def test_pair_table_holds_a_chunk_of_lines_not_the_table(tmp_path):
    # 50,000 rows make a ~1.5 MB table; joined whole it peaked at ~5.5 MB.
    tracemalloc.start()
    try:
        _write_pair_table(tmp_path / "big.csv", 2, ["value"], table_rows(50_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").read_text().count("\n") == 50_001
    assert peak < 1_000_000
