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
from json.encoder import encode_basestring_ascii
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
    """Validated framework; build through :func:`validate_framework` only.

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
    integral floats are accepted; a fractional, NaN or infinite coordinate,
    or one beyond the float range, is a FrameworkError, a wrong length a
    DimensionMismatchError."""
    coords = tuple(shift)
    if len(coords) != d:
        raise DimensionMismatchError(f"{what} has a shift of length {len(coords)}, expected {d}")
    try:
        ints = tuple(int(c) for c in coords)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != coords:
        raise FrameworkError(f"{what} has a shift that is not integral")
    if any(abs(c) > sys.float_info.max for c in ints):
        raise FrameworkError(f"{what} has a shift coordinate beyond the float range")
    return ints


def _check_count(value, name: str, least: int) -> None:
    """The one check of a count (radius, step count, supercell) before any
    work: a Python or numpy integer, not a bool, of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


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
    for k, e in enumerate(graph.edge_orbits):
        e = EdgeOrbit(e[0], e[1], e[2])
        if e.tail not in orbit_set or e.head not in orbit_set:
            raise FrameworkError(f"edge orbit {e} references an unknown vertex orbit")
        e = e._replace(shift=_integer_shift(e.shift, d, f"edge orbit {k} ({e.tail} -> {e.head})"))
        if e.tail == e.head and all(c == 0 for c in e.shift):
            raise LoopEdgeError(f"edge orbit {e} is a loop")
        canon = e.canonical()
        if canon in seen:
            raise DuplicateEdgeOrbitError(f"edge orbit {e} duplicates {canon}")
        seen.add(canon)
        canonical_edges.append(canon)

    graph = QuotientGraph(d, orbits, tuple(canonical_edges))
    positions = dict(placement.positions)
    if set(positions) != orbit_set:
        missing = orbit_set - set(positions)
        extra = set(positions) - orbit_set
        raise FrameworkError(
            f"positions do not cover the vertex orbits (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    rows = []
    for orbit in orbits:
        p = np.asarray(positions[orbit], dtype=float)
        if p.shape != (d,):
            if np.isfinite(rows).all():  # else an earlier orbit's non-finite position is reported
                raise DimensionMismatchError(f"position of orbit {orbit!r} has shape {p.shape}, expected ({d},)")
            break
        rows.append(p)
    lattice, vectors, lengths = _checked_placement(graph, np.array(rows), placement.lattice)
    frozen_positions = {orbit: _freeze(p) for orbit, p in zip(orbits, rows)}
    return PeriodicFramework(graph, Placement(frozen_positions, lattice), _freeze(lengths), _freeze(vectors))


def _checked_placement(graph: QuotientGraph, positions: np.ndarray, lattice) -> tuple[np.ndarray, ...]:
    """The placement checks of :func:`validate_framework`, in its order, on
    positions (n, d) in orbit order: finite positions, a finite (d, d)
    lattice L with det(L / c) above LATTICE_DET_TOL, c its largest column
    norm, no zero-length bar.  Returns the
    frozen lattice and the bar separations and lengths.  A passing check
    reads each array once; the culprit is looked for only on failure."""
    d = graph.dimension
    if not np.isfinite(positions).all():
        k = np.flatnonzero(~np.isfinite(positions).all(axis=1))[0]
        raise FrameworkError(f"position of orbit {graph.vertex_orbits[k]!r} is not finite")
    lattice = np.asarray(lattice, dtype=float)
    if lattice.shape != (d, d):
        raise DimensionMismatchError(
            f"lattice has shape {lattice.shape}, expected ({d}, {d})"
        )
    if not np.isfinite(lattice).all():
        raise FrameworkError("lattice is not finite")
    col_norm = float(np.hypot.reduce(lattice, axis=0).max())  # no square to overflow
    if not col_norm or abs(np.linalg.det(lattice / col_norm)) <= LATTICE_DET_TOL:
        raise SingularLatticeError("lattice determinant below degeneracy tolerance")
    lattice = _freeze(lattice)

    scale = max(1.0, col_norm, float(np.abs(positions).max()))
    vectors = _separations(positions, lattice, *graph._incidence)
    with np.errstate(over="ignore"):  # a length past sqrt(max float) is taken again, by hypot
        lengths = np.linalg.norm(vectors, axis=1)
    over = np.isinf(lengths)
    if over.any():
        lengths[over] = np.hypot.reduce(vectors[over], axis=1, initial=0.0)
    short = lengths <= 1e-12 * scale
    if short.any():
        raise ZeroLengthEdgeError(f"edge orbit {graph.edge_orbits[short.argmax()]} realizes to a zero vector")
    return lattice, vectors, lengths


# ---------------------------------------------------------------------------
# Serialization.  Fixed schema, fixed key order, 17-significant-digit floats
# so that save/load round-trips bit for bit.  `_json` writes the framework
# file and the report of every other module.

_TOP_KEYS = ("dimension", "vertex_orbits", "lattice", "edge_orbits")


def _json(value) -> str:
    """`value` as JSON text with ", " and ": " separators: strings, None and
    bools as `json.dumps` writes them, Python ints in decimal, numpy values as
    their `tolist()`, and other numbers (float, Fraction) as 17-significant-digit
    floats.  Float types are checked first (the bulk of every report), and a
    float array's rows are formatted with no call per entry."""
    t = type(value)
    if t is float:
        return format(value, ".17g")
    if t is int:
        return str(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is list or t is tuple:
        return "[" + ", ".join(map(_json, value)) + "]"
    if t is dict:
        return "{" + ", ".join([encode_basestring_ascii(k) + ": " + _json(v) for k, v in value.items()]) + "}"
    if t is np.ndarray and value.ndim and value.dtype.kind == "f":
        if value.ndim > 1:
            return "[" + ", ".join(map(_json, value)) + "]"
        return "[" + ", ".join(map(format, value.tolist(), itertools.repeat(".17g"))) + "]"
    if value is None or t is bool:
        return json.dumps(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return _json(value.tolist())
    return format(float(value), ".17g")


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted as RFC 4180 does (a quote doubled)
    when it holds a comma, a quote, CR or LF, and as it is otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_pair_table(path, orbits, d: int, value_names: list[str], chunks, codes=None) -> None:
    """The one pair-table writer: orbit_a,orbit_b,shift_1..shift_d,*value_names,
    a line per pair of `chunks`, each (tails, heads, shifts, *values) with index
    arrays into `orbits`, integer shifts and an array per value name, written
    with its %-code in `codes`: '%.12g' (format(v, '.12g') bit for bit, the
    default) or '%s'.  Each run of one (tail, head) in a chunk is one
    %-format of a line template that holds the two quoted orbit names, so no
    text spans more than a chunk."""
    names = [_csv_field(o).replace("%", "%%") for o in orbits]
    fields = ",".join(["%d"] * d + list(codes or ["%.12g"] * len(value_names)))
    header = ["orbit_a", "orbit_b", *(f"shift_{i + 1}" for i in range(d)), *value_names]
    with open(path, "w") as fh:
        fh.write(",".join(header))
        for tails, heads, shifts, *values in chunks:
            cells = np.empty((len(shifts), d + len(values)), dtype=object)  # Python ints and floats
            cells[:, :d], cells[:, d:] = shifts, np.transpose(values)
            starts = np.ones(len(shifts), dtype=bool)  # where a run of one (tail, head) starts
            starts[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
            starts = np.flatnonzero(starts).tolist()
            for lo, hi in zip(starts, starts[1:] + [len(shifts)]):
                line = f"\n{names[tails[lo]]},{names[heads[lo]]},{fields}"
                fh.write(line * (hi - lo) % tuple(cells[lo:hi].ravel()))
        fh.write("\n")


def dumps_framework(fw: PeriodicFramework) -> str:
    """The framework file, one line per vertex orbit and per edge orbit."""
    g, pl = fw.graph, fw.placement
    vo = ",\n".join(["    " + _json({"id": o, "position": pl.positions[o]}) for o in g.vertex_orbits])
    eo = ",\n".join(["    " + _json({"tail": e.tail, "head": e.head, "shift": e.shift}) for e in g.edge_orbits])
    return (
        f'{{\n  "dimension": {_json(g.dimension)},\n  "vertex_orbits": [\n{vo}\n  ],\n'
        f'  "lattice": {_json(pl.lattice)},\n  "edge_orbits": [\n{eo}\n  ]\n}}\n'
    )


def _require_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if set(obj) != set(keys):
        raise SchemaError(
            f"{where}: keys {sorted(obj)} do not match schema {list(keys)}"
        )


class _MinusZero(int):
    """JSON `-0`, as the writer prints -0.0: the int 0 to a shift or the
    dimension, and -0.0 as a coordinate, which numpy reads by `__float__`."""

    def __float__(self) -> float:
        return -0.0


def loads_framework(text: str) -> PeriodicFramework:
    try:
        data = json.loads(text, parse_int=lambda digits: _MinusZero() if digits == "-0" else int(digits))
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
        if not isinstance(rec["tail"], str) or not isinstance(rec["head"], str):
            raise SchemaError("edge orbit tail and head must be strings")
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
        isinstance(x, float) or (type(x) in (int, _MinusZero) and abs(x) <= sys.float_info.max) for x in values
    )


def save_framework(fw: PeriodicFramework, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_framework(fw))


def load_framework(path) -> PeriodicFramework:
    with open(path) as fh:
        return loads_framework(fh.read())
