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
    simplex_framework,
    validate_framework,
)
from perigid.cli import main
from perigid.framework import _csv_field, _write_pair_table, dumps_framework, loads_framework

from conftest import make_framework, pair_separations, scaled, whole_pairs, whole_shifts


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


@pytest.mark.parametrize("shift", [(10**400, 0), (0, -(10**309)), (np.int64(1), 2**1024)])
def test_shift_beyond_the_float_range_rejected(shift):
    # No float holds such a coordinate, so the bars' float shifts cannot be built.
    with pytest.raises(FrameworkError, match="beyond the float range") as info:
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


@pytest.mark.parametrize("k", [150, 160, 200, 300])
def test_edge_lengths_stay_finite_past_the_square_root_of_the_float_range(stressed, k):
    # Past about 1.34e154 a length's square overflows, and np.linalg.norm
    # returned inf with a RuntimeWarning (an error in this suite); such rows
    # are taken by hypot.
    c = float(10**k)
    fw = scaled(stressed, c)
    assert np.isfinite(fw.edge_lengths).all()
    np.testing.assert_allclose(fw.edge_lengths, c * stressed.edge_lengths, rtol=1e-15, atol=0)
    if k == 150:  # no square overflows: the plain norm's bits
        assert np.array_equal(fw.edge_lengths, np.linalg.norm(fw._edge_vectors, axis=1))


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
    shifts = whole_shifts(fw, 2)
    separations = [pair_separations(f, *whole_pairs(f, 2)[:2], shifts) for f in (fw, again)]
    assert np.array_equal(*separations)


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
    "tail-not-string": (framework_text(edge_orbits=[{"tail": ["a"], "head": "b", "shift": [1, 0]}]), SchemaError),
    "head-not-string": (framework_text(edge_orbits=[{"tail": "a", "head": {}, "shift": [1, 0]}]), SchemaError),
    # An integer shift a float cannot hold: the shift rule of validate_framework.
    "shift-beyond-float": (framework_text(edge_orbits=[{"tail": "a", "head": "b", "shift": [10**400, 0]}]), FrameworkError),
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


# One name needs CSV quoting; one holds '%', which the writer's line
# templates must escape (unescaped, "%%s" writes "%s").
ORBITS = ("a", 'b,"x"', "c", "%%s")


def run_pair(r):
    """Orbit indices (tail, head) of run r: from one run to the next the
    tail and the head change in turn, so a run starts where only one does."""
    return (r + 1) // 2 % 4, (r // 2 + 1) % 4


def table_rows(count, d=2, run=1):
    """`count` rows, quoted one field at a time, in runs of `run` rows of
    one orbit pair."""
    names = [_csv_field(o) for o in ORBITS]
    return (
        [*(names[i] for i in run_pair(k // run)), *(str(k % 5 - 2) for _ in range(d)), format(k / 7, ".12g")]
        for k in range(count)
    )


def table_chunks(count, d=2, size=1024, run=1):
    """The pairs of `table_rows` as the writer reads them: chunks of `size`
    pairs, each orbit index arrays, a shift matrix and the value array."""
    for lo in range(0, count, size):
        k = np.arange(lo, min(lo + size, count))
        shifts = np.repeat(k[:, None] % 5 - 2, d, axis=1)
        yield *run_pair(k // run), shifts, k / 7


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_pair_table_writes_the_one_string_bytes(tmp_path, count):
    # A run a line, runs that chunks cut (chunks start mid-run and hold
    # several runs), and runs longer than a chunk.
    for size, run in [(1024, 1), (1024, 7), (100, 37), (5, 12)]:
        _write_pair_table(tmp_path / "streamed.csv", ORBITS, 2, ["value"], table_chunks(count, size=size, run=run))
        one_string_table(tmp_path / "whole.csv", 2, ["value"], list(table_rows(count, run=run)))
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert (b'"b,""x"""' in (tmp_path / "streamed.csv").read_bytes()) == (count > 0)
        assert (b"\n%%s," in (tmp_path / "streamed.csv").read_bytes()) == (count > 5 * run)


@settings(max_examples=100, deadline=None)
@given(
    floats=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40),
    size=st.integers(1, 8),
)
def test_pair_table_floats_are_format_12g(tmp_path_factory, floats, size):
    # Every float (-0.0, infinities, NaN and subnormals included) is
    # format(v, '.12g'), and a '%s' column writes each entry's str, in
    # chunks of `size` pairs, in runs of 3 pairs.
    values = np.array([*floats, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e-300])
    steps = np.array([k if k % 2 else "" for k in range(len(values))], dtype=object)
    k = np.arange(len(values))
    (tails, heads), shifts = run_pair(k // 3), np.stack([k - 3, -k], axis=1)
    chunks = (
        (tails[lo : lo + size], heads[lo : lo + size], shifts[lo : lo + size], values[lo : lo + size], steps[lo : lo + size])
        for lo in range(0, len(values), size)
    )
    target = tmp_path_factory.mktemp("floats") / "table.csv"
    _write_pair_table(target, ORBITS, 2, ["value", "step"], chunks, ["%.12g", "%s"])
    names = [_csv_field(o) for o in ORBITS]
    rows = [
        [names[a], names[b], *map(str, w), format(v, ".12g"), str(step)]
        for a, b, w, v, step in zip(tails.tolist(), heads.tolist(), shifts.tolist(), values.tolist(), steps.tolist())
    ]
    one_string_table(target.with_suffix(".whole"), 2, ["value", "step"], rows)
    assert target.read_bytes() == target.with_suffix(".whole").read_bytes()


def test_pair_table_holds_a_chunk_of_lines_not_the_table(tmp_path):
    # 50,000 rows make a ~1.5 MB table; joined whole it peaked at ~5.5 MB.
    tracemalloc.start()
    try:
        _write_pair_table(tmp_path / "big.csv", ORBITS, 2, ["value"], table_chunks(50_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").read_text().count("\n") == 50_001
    assert peak < 1_000_000
