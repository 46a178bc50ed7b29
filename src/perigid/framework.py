"""Data model for d-periodic bar-and-joint frameworks given by a finite quotient.

A framework is described by a quotient graph (vertex orbits plus edge orbits
labeled with integer lattice shifts), a placement of one representative per
vertex orbit, and a lattice matrix whose columns are the period generators.
The realized edge for orbit (tail, head, shift) runs from p[tail] to
p[head] + lattice @ shift.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateEdgeOrbitError,
    FrameworkError,
    LoopEdgeError,
    SchemaError,
    SingularLatticeError,
    UnknownOrbitError,
    ZeroLengthEdgeError,
)

# |det| must exceed this factor times (max generator norm)^d.
LATTICE_DET_TOL = 1e-12


class EdgeOrbit(NamedTuple):
    tail: str
    head: str
    shift: tuple[int, ...]

    def canonical(self) -> "EdgeOrbit":
        """Orientation with the lexicographically smaller (tail, head, shift)."""
        rev = EdgeOrbit(self.head, self.tail, tuple(-c for c in self.shift))
        return self if tuple(self) <= tuple(rev) else rev


@dataclass(frozen=True)
class QuotientGraph:
    dimension: int
    vertex_orbits: tuple[str, ...]
    edge_orbits: tuple[EdgeOrbit, ...]

    @property
    def n(self) -> int:
        return len(self.vertex_orbits)

    @property
    def m(self) -> int:
        return len(self.edge_orbits)

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge orbits as (tail index, head index, float shift) arrays."""
        index = {orbit: i for i, orbit in enumerate(self.vertex_orbits)}
        tails = _freeze([index[e[0]] for e in self.edge_orbits], int)
        heads = _freeze([index[e[1]] for e in self.edge_orbits], int)
        shifts = _freeze([e[2] for e in self.edge_orbits]).reshape(self.m, self.dimension)
        return tails, heads, shifts


@dataclass(frozen=True, eq=False)
class Placement:
    positions: dict[str, np.ndarray]
    lattice: np.ndarray  # column c is period generator c


def _freeze(a, dtype=float) -> np.ndarray:
    # C order: BLAS rounds `lattice @ w` differently for a Fortran layout,
    # and a framework read back from JSON is C-ordered.
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


def _separations(positions, lattice, tails, heads, shifts) -> np.ndarray:
    """Separations p[head] + lattice @ w - p[tail] of every bar, pair and
    translate (with `tails` None, p[head] + lattice @ w).

    `positions` (n, d) and `lattice` (d, d) may be per-step stacks (t, n, d)
    and (t, d, d); `shifts` is a float (k, d) matrix.  The stacked matmul is
    one BLAS product per shift, bit for bit `lattice @ w`; a single
    `shifts @ lattice.T` rounds differently."""
    s = positions[..., heads, :] + (lattice[..., None, :, :] @ shifts[:, :, None])[..., 0]
    return s if tails is None else s - positions[..., tails, :]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each bit for bit the 1-d `a[k] @ b[k]`
    (np.linalg.norm(v) is the square root of `v @ v`; norm(axis=1) is not)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class PeriodicFramework:
    """Validated framework; build through :func:`validate_framework` only, or
    through its placement-only check ``_with_placement`` on ``fw.graph``.

    Immutable after construction: all arrays are read-only and safe to share
    between threads.
    """

    graph: QuotientGraph
    placement: Placement
    edge_lengths: np.ndarray
    _edge_vectors: np.ndarray = field(repr=False, default=None)  # (m, d) separations

    @property
    def dimension(self) -> int:
        return self.graph.dimension

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def orbit_index(self, orbit: str) -> int:
        try:
            return self.graph.vertex_orbits.index(orbit)
        except ValueError:
            raise UnknownOrbitError(orbit) from None

    @property
    def min_edge_length(self) -> float:
        return float(self.edge_lengths.min()) if self.m else 0.0


def _integer_shift(shift, d: int, what: str) -> tuple[int, ...]:
    """The lattice shift of `what` as d Python ints.  Numpy integers and
    integral floats are accepted; a fractional, NaN or infinite coordinate
    is a FrameworkError, a wrong length a DimensionMismatchError."""
    coords = tuple(shift)
    if len(coords) != d:
        raise DimensionMismatchError(f"{what} has a shift of length {len(coords)}, expected {d}")
    try:
        ints = tuple(int(c) for c in coords)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != coords:
        raise FrameworkError(f"{what} has a shift {coords} that is not integral")
    return ints


def validate_framework(graph: QuotientGraph, placement: Placement) -> PeriodicFramework:
    """Check all framework invariants and return the validated value.

    Edge orbits are stored in canonical orientation (lexicographically smallest
    of (tail, head, shift) versus the reversal), preserving input order.
    """
    d = graph.dimension
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DimensionMismatchError(f"dimension must be a positive integer, got {d!r}")

    orbits = tuple(graph.vertex_orbits)
    if len(orbits) < 1:
        raise FrameworkError("framework needs at least one vertex orbit")
    if len(set(orbits)) != len(orbits):
        raise FrameworkError("duplicate vertex orbit identifiers")
    orbit_set = set(orbits)

    canonical_edges = []
    seen: set[EdgeOrbit] = set()
    for e in graph.edge_orbits:
        e = EdgeOrbit(e[0], e[1], e[2])
        if e.tail not in orbit_set or e.head not in orbit_set:
            raise FrameworkError(f"edge orbit {e} references an unknown vertex orbit")
        e = e._replace(shift=_integer_shift(e.shift, d, f"edge orbit {e}"))
        if e.tail == e.head and all(c == 0 for c in e.shift):
            raise LoopEdgeError(f"edge orbit {e} is a loop")
        canon = e.canonical()
        if canon in seen:
            raise DuplicateEdgeOrbitError(f"edge orbit {e} duplicates {canon}")
        seen.add(canon)
        canonical_edges.append(canon)

    return _with_placement(QuotientGraph(d, orbits, tuple(canonical_edges)), placement)


def _with_placement(graph: QuotientGraph, placement: Placement) -> PeriodicFramework:
    """The placement checks of :func:`validate_framework` on a graph it has
    already validated (such as ``fw.graph``), whose incidence is reused."""
    d, orbits = graph.dimension, graph.vertex_orbits
    orbit_set = set(orbits)
    positions = dict(placement.positions)
    if set(positions) != orbit_set:
        missing = orbit_set - set(positions)
        extra = set(positions) - orbit_set
        raise FrameworkError(
            f"positions do not cover the vertex orbits (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    frozen_positions = {}
    for orbit in orbits:
        p = np.asarray(positions[orbit], dtype=float)
        if p.shape != (d,):
            raise DimensionMismatchError(
                f"position of orbit {orbit!r} has shape {p.shape}, expected ({d},)"
            )
        if not np.all(np.isfinite(p)):
            raise FrameworkError(f"position of orbit {orbit!r} is not finite")
        frozen_positions[orbit] = _freeze(p)

    lattice = np.asarray(placement.lattice, dtype=float)
    if lattice.shape != (d, d):
        raise DimensionMismatchError(
            f"lattice has shape {lattice.shape}, expected ({d}, {d})"
        )
    if not np.all(np.isfinite(lattice)):
        raise FrameworkError("lattice is not finite")
    col_norm = float(np.linalg.norm(lattice, axis=0).max())
    if abs(np.linalg.det(lattice)) <= LATTICE_DET_TOL * col_norm**d:
        raise SingularLatticeError("lattice determinant below degeneracy tolerance")
    lattice = _freeze(lattice)

    scale = max(1.0, col_norm, max(float(np.abs(p).max()) for p in frozen_positions.values()))
    positions = np.array([frozen_positions[o] for o in orbits])
    vectors = _separations(positions, lattice, *graph._incidence)
    lengths = np.linalg.norm(vectors, axis=1)
    short = np.flatnonzero(lengths <= 1e-12 * scale)
    if short.size:
        raise ZeroLengthEdgeError(f"edge orbit {graph.edge_orbits[short[0]]} realizes to a zero vector")

    out_placement = Placement(frozen_positions, lattice)
    return PeriodicFramework(graph, out_placement, _freeze(lengths), _freeze(vectors))


# ---------------------------------------------------------------------------
# JSON serialization.  Fixed schema, fixed key order, 17-significant-digit
# floats so that save/load round-trips bit for bit.  The report writers of
# the other modules share these float formatters.

_TOP_KEYS = ("dimension", "vertex_orbits", "lattice", "edge_orbits")
_TABLE_LINES = 1024  # lines per write of _write_pair_table


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted as RFC 4180 does (a quote doubled)
    when it holds a comma, a quote, CR or LF, and as it is otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_pair_table(path, d: int, value_names: list[str], rows) -> None:
    """The CSV table orbit_a,orbit_b,shift_1..shift_d,*value_names with one
    line per row of `rows`, each a sequence of fields already quoted.

    `rows` may be a generator: it is read and written `_TABLE_LINES` lines
    at a time, so the table is never held whole."""
    header = ["orbit_a", "orbit_b", *(f"shift_{i + 1}" for i in range(d)), *value_names]
    lines = map("\n".__add__, map(",".join, rows))
    with open(path, "w") as fh:
        fh.write(",".join(header))
        for block in iter(lambda: "".join(itertools.islice(lines, _TABLE_LINES)), ""):
            fh.write(block)
        fh.write("\n")


def _json_vec(v) -> str:
    if v is None:
        return "null"
    return "[" + ", ".join(_f17(x) for x in v) + "]"


def _json_matrix(rows) -> str:
    return "[" + ", ".join(_json_vec(row) for row in rows) + "]"


def dumps_framework(fw: PeriodicFramework) -> str:
    g, pl = fw.graph, fw.placement
    lines = ["{", f'  "dimension": {g.dimension},']
    vo = []
    for orbit in g.vertex_orbits:
        pos = _json_vec(pl.positions[orbit])
        vo.append(f'    {{"id": {json.dumps(orbit)}, "position": {pos}}}')
    lines.append('  "vertex_orbits": [')
    lines.append(",\n".join(vo))
    lines.append("  ],")
    lines.append(f'  "lattice": {_json_matrix(pl.lattice)},')
    eo = []
    for e in g.edge_orbits:
        shift = ", ".join(str(c) for c in e.shift)
        eo.append(
            f'    {{"tail": {json.dumps(e.tail)}, "head": {json.dumps(e.head)}, '
            f'"shift": [{shift}]}}'
        )
    lines.append('  "edge_orbits": [')
    lines.append(",\n".join(eo))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if set(obj) != set(keys):
        raise SchemaError(
            f"{where}: keys {sorted(obj)} do not match schema {list(keys)}"
        )


def loads_framework(text: str) -> PeriodicFramework:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _require_keys(data, _TOP_KEYS, "framework")
    if not isinstance(data["dimension"], int) or isinstance(data["dimension"], bool):
        raise SchemaError("dimension must be an integer")

    orbits, positions = [], {}
    if not isinstance(data["vertex_orbits"], list):
        raise SchemaError("vertex_orbits must be a list")
    for rec in data["vertex_orbits"]:
        _require_keys(rec, ("id", "position"), "vertex orbit")
        if not isinstance(rec["id"], str):
            raise SchemaError("vertex orbit id must be a string")
        if not _number_list(rec["position"]):
            raise SchemaError("vertex position must be a list of numbers")
        orbits.append(rec["id"])
        positions[rec["id"]] = rec["position"]

    edges = []
    if not isinstance(data["edge_orbits"], list):
        raise SchemaError("edge_orbits must be a list")
    for rec in data["edge_orbits"]:
        _require_keys(rec, ("tail", "head", "shift"), "edge orbit")
        shift = rec["shift"]
        if not isinstance(shift, list) or any(
            not isinstance(c, int) or isinstance(c, bool) for c in shift
        ):
            raise SchemaError("edge shift must be a list of integers")
        edges.append(EdgeOrbit(rec["tail"], rec["head"], tuple(shift)))

    lattice = data["lattice"]
    if not isinstance(lattice, list) or not all(_number_list(r) for r in lattice):
        raise SchemaError("lattice must be a list of rows of numbers")
    if len({len(r) for r in lattice} | {len(lattice)}) > 1:
        raise DimensionMismatchError("lattice rows must form a square matrix")

    graph = QuotientGraph(data["dimension"], tuple(orbits), tuple(edges))
    placement = Placement(positions, np.asarray(lattice, dtype=float))
    return validate_framework(graph, placement)


def _number_list(values) -> bool:
    # Floats, and ints a float can hold: 10**400 would overflow in numpy.
    return isinstance(values, list) and all(
        isinstance(x, float) or (type(x) is int and abs(x) <= sys.float_info.max) for x in values
    )


def save_framework(fw: PeriodicFramework, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_framework(fw))


def load_framework(path) -> PeriodicFramework:
    with open(path) as fh:
        return loads_framework(fh.read())
