"""Finite deformation along a flex by predictor-corrector continuation.

State is the full coordinate vector (representative positions plus lattice,
in the rigidity motion layout, packed and unpacked by ``rigidity``).  Each
step advances by ``h * min_edge_length`` along the current unit tangent, then
Newton iterations restore the squared edge lengths.  Corrections are
restricted to a gauge complement: the first vertex orbit stays pinned and the
strictly lower triangular lattice entries are never corrected, which removes
exactly the d + C(d,2) isometry freedoms without altering intrinsic geometry,
as long as the trivial motions stay independent on the fixed coordinates.
Rotated input can break that (a lattice whose (0, 0) entry is 0 does), and
the gauged corrector then stalls.  Such a step is corrected once more from
the same predicted state with every coordinate free, by minimum-norm updates,
which are orthogonal to the trivial motions; a step whose gauged correction
converges never reaches that retry, and a second stall raises
``NewtonDivergenceError``.  The tangent is carried along by projecting the
previous tangent onto the new nontrivial flex space, so the path follows one
smooth branch; rank drops surface as errors instead of being stepped
through.  The seed must first pass the flex gate ``rigidity._checked_flex``
at ``_SEED_FLEX_TOL``, or ``NotAFlexError`` is raised before any step.  Each
step is one Newton correction (two after a stall), then the placement checks
of ``validate_framework`` and the rigidity analysis on the corrected state's
arrays (``framework._checked_placement``, ``rigidity._analysis``), with no
framework built.

The path is each step's unpacked state, stacked: positions and C-ordered
lattices, which the pair audit, facet gaps and frame export read, getting
every pair separation and realized vertex from the same incidence core as
the rigidity rows.  The audit runs one chunk of the pair stream through
every step and keeps violations in the order found (chunk, then step), which
readers sort into pair order; the export reads one block of steps, so
neither holds a whole run or the audit the whole pair set.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .constructions import _simplex_offsets
from .errors import (
    NewtonDivergenceError,
    NotSimplexFamilyError,
    NumericalFailureError,
    SingularJacobianError,
)
from .expansive import _CHUNK, _PAIR_CHUNK, DEFAULT_RADIUS, _pair_blocks, _pair_incidence, _pair_keys, _pairs_at
from .framework import PeriodicFramework, QuotientGraph
from .framework import _check_count, _checked_placement, _csv_field, _row_dots, _separations, _write_pair_table
from .rigidity import DEFAULT_RANK_TOL, _analysis, _checked_flex, _incidence_rows, _trivial_basis, analyze
from .rigidity import pack_motion, rigidity_rows, unpack_motion

DEFAULT_STEP = 0.01
DEFAULT_STEPS = 50
DEFAULT_NEWTON_TOL = 1e-10
AUDIT_TOL = 1e-8
_MAX_NEWTON_ITER = 25
_SEED_FLEX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MotionPath:
    graph: QuotientGraph
    positions: np.ndarray  # (steps + 1, n, d) in vertex-orbit order; step 0 is the input placement
    lattices: np.ndarray  # (steps + 1, d, d), C-ordered (np.array of a list) as `lattice @ w` bits need
    step_size: float  # arc step actually taken (h * min edge length)
    residuals: np.ndarray  # per step, max |len^2 - len0^2| after correction

    @property
    def n_steps(self) -> int:
        return len(self.positions) - 1


@dataclass(frozen=True, eq=False)
class ExpansionAudit:
    """Each pair's smallest step increment in stream order, and the violations
    as arrays of stream index, step and drop in the order found (chunk, then
    step), which `violations` sorts into pair order.  No key is held: each
    read builds the pairs from the stream's layout (`_pairs_at`)."""

    _stream: tuple[tuple[str, ...], int, int, np.ndarray]  # orbits, d, radius, low
    _found: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def passed(self) -> bool:
        return not len(self._found[0])

    @property
    def pair_results(self) -> dict[tuple[str, str, tuple[int, ...]], float]:
        """Each pair's smallest step increment by key, in stream order, built on each read."""
        orbits, d, radius, low = self._stream
        return dict(zip(_pair_keys(orbits, *_pairs_at(orbits, d, radius, np.arange(len(low)))), low.tolist()))

    @property
    def violations(self) -> list[tuple[tuple[str, str, tuple[int, ...]], int, float]]:
        """(key, step, drop) per violation, pair-major, built on each read."""
        orbits, d, radius, _ = self._stream
        order = np.argsort(self._found[0], kind="stable")  # a pair's steps stay ascending
        pairs, steps, drops = (a[order] for a in self._found)
        return list(zip(_pair_keys(orbits, *_pairs_at(orbits, d, radius, pairs)), steps.tolist(), drops.tolist()))


def _gauge_free_indices(graph: QuotientGraph) -> np.ndarray:
    """Indices of the coordinates the gauged corrector moves: the zeros of a
    motion that is 1 on the first orbit and the strictly lower lattice entries."""
    pin = np.zeros((graph.n, graph.dimension))
    pin[0] = 1.0
    return np.flatnonzero(pack_motion(pin, np.tri(graph.dimension, k=-1)) == 0)


def _newton_correct(
    graph: QuotientGraph,
    target_sq: np.ndarray,
    state: np.ndarray,
    free: np.ndarray,
    newton_tol: float,
) -> tuple[np.ndarray, float]:
    x = state.copy()
    pos, lattice = unpack_motion(graph, x)  # views, which follow each update of x
    # An overflowing step is reported by the check below, not by numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(_MAX_NEWTON_ITER + 1):
            e = _separations(pos, lattice, *graph._incidence)
            g = _row_dots(e, e) - target_sq
            residual = float(np.abs(g).max(initial=0.0))
            if iteration == _MAX_NEWTON_ITER:  # the last update is measured for the message only
                break
            if residual < newton_tol:
                return x, residual
            if not np.isfinite(residual):
                raise NewtonDivergenceError(f"corrector residual is {residual}; the step overflowed")
            jac = 2.0 * rigidity_rows(graph, e)
            if not np.isfinite(jac).all():  # LAPACK would fail on it
                raise NewtonDivergenceError("corrector Jacobian is not finite; the step overflowed")
            delta, *_ = np.linalg.lstsq(jac[:, free], -g, rcond=None)
            x[free] += delta
    raise NewtonDivergenceError(f"corrector stalled at residual {residual:.3e} after {_MAX_NEWTON_ITER} iterations")


def continue_motion(
    fw: PeriodicFramework,
    direction,
    n_steps: int = DEFAULT_STEPS,
    h: float = DEFAULT_STEP,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> MotionPath:
    """Follow the flex `direction` for `n_steps` steps of size h.

    h is measured in units of the shortest edge length and must be
    positive and finite; n_steps must be a nonnegative integer (not a bool),
    and newton_tol and rank_tol finite.  The seed must annihilate the edge
    rows; its trivial (isometry) component is projected out before stepping.
    A purely trivial seed, or a rigid framework, yields a zero-displacement
    path.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    _check_count(n_steps, "n_steps", 0)
    if not math.isfinite(newton_tol):
        raise ValueError(f"newton_tol must be finite, got {newton_tol!r}")
    graph = fw.graph
    pos0 = np.array([fw.placement.positions[o] for o in graph.vertex_orbits])
    # The seed's rows are rigidity_rows of the framework's bar separations, as
    # each Newton Jacobian's are of its iterate's and no step analysis's are:
    # perfbench counts its calls as one per seed plus one per iteration.
    rows = rigidity_rows(graph, fw._edge_vectors)
    direction = _checked_flex(rows, direction, _SEED_FLEX_TOL)

    report0 = analyze(fw, rank_tol)
    state = pack_motion(pos0, fw.placement.lattice)
    tangent = report0.flex_basis.T @ (report0.flex_basis @ direction)
    norm0 = float(np.linalg.norm(tangent))
    if norm0 <= 1e-12 * max(1.0, float(np.linalg.norm(direction))):
        k = n_steps + 1
        return MotionPath(graph, np.array([pos0] * k), np.array([fw.placement.lattice] * k), 0.0, np.zeros(k))
    tangent = tangent / norm0

    step_len = h * fw.min_edge_length
    target_sq = fw.edge_lengths**2
    free = _gauge_free_indices(graph)
    positions, lattices, residuals = [pos0], [fw.placement.lattice], [0.0]

    for _ in range(n_steps):
        predicted = state + step_len * tangent
        try:
            state, residual = _newton_correct(graph, target_sq, predicted, free, newton_tol)
        except NewtonDivergenceError:
            # The gauge no longer complements the rotations (see the module
            # docstring); a second stall propagates.
            every = np.arange(predicted.size)
            state, residual = _newton_correct(graph, target_sq, predicted, every, newton_tol)
        pos, lattice = unpack_motion(graph, state)
        lattice, separations, _ = _checked_placement(graph, pos, lattice)
        matrix = _incidence_rows(graph.n, *graph._incidence, separations)
        report = _analysis(matrix, _trivial_basis(pos, lattice), rank_tol)
        if report.rank < report0.rank or report.dof != report0.dof:
            raise SingularJacobianError(
                f"rank changed from {report0.rank} to {report.rank}; possible bifurcation"
            )
        projected = report.flex_basis.T @ (report.flex_basis @ tangent)
        nrm = float(np.linalg.norm(projected))
        if nrm < 0.5:
            raise NumericalFailureError(
                f"tangent projection shrank to {nrm:.3f}; lost the smooth branch"
            )
        tangent = projected / nrm
        positions.append(pos)
        lattices.append(lattice)
        residuals.append(residual)

    return MotionPath(graph, np.array(positions), np.array(lattices), step_len, np.array(residuals))


# ---------------------------------------------------------------------------
# Audits.

def audit_expansiveness(path: MotionPath, radius: int = DEFAULT_RADIUS) -> ExpansionAudit:
    """Check that every truncated pair distance is nondecreasing stepwise.

    A violation at step k means the distance dropped by more than AUDIT_TOL
    between steps k-1 and k.
    """
    if len(path.positions) < 2:
        raise ValueError("path needs at least two steps")
    orbits, d = path.graph.vertex_orbits, path.graph.dimension
    low, start = [], 0
    found = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]  # pairs, steps, drops
    for tails, heads, shifts in _pair_incidence(orbits, d, radius):
        w = shifts.astype(float)
        seps = (_separations(p, lattice, tails, heads, w) for p, lattice in zip(path.positions, path.lattices))
        dists = (np.sqrt(_row_dots(sep, sep)) for sep in seps)
        least = np.full(len(w), np.inf)
        for step, (prev, dist) in enumerate(itertools.pairwise(dists), 1):
            inc = dist - prev
            np.minimum(least, inc, out=least)
            bad = np.flatnonzero(inc < -AUDIT_TOL)
            if len(bad):
                found.append((start + bad, np.full(len(bad), step), -inc[bad]))
        low.append(least)
        start += len(w)
    pairs, steps, drops = zip(*found)
    del found  # each step's arrays go as they are joined
    pairs = np.concatenate(pairs)
    steps = np.concatenate(steps)
    drops = np.concatenate(drops)
    return ExpansionAudit((orbits, d, radius, np.concatenate(low)), (pairs, steps, drops))


def _simplex_family_offsets(graph: QuotientGraph):
    """Hub orbit, far orbit, and shift lists (singles, doubles) if the graph
    belongs to the two-orbit simplex family; raises otherwise."""
    if graph.n != 2:
        raise NotSimplexFamilyError("simplex family has exactly two vertex orbits")
    singles, pairs, doubles = map(set, _simplex_offsets(graph.dimension))
    if all(e.tail != e.head for e in graph.edge_orbits):  # every bar joins the two orbits
        for hub, far in (graph.vertex_orbits, graph.vertex_orbits[::-1]):
            shifts = {e.shift if e.tail == hub else tuple(-c for c in e.shift) for e in graph.edge_orbits}
            if singles | pairs <= shifts <= singles | pairs | doubles:
                return hub, far, sorted(singles), sorted(doubles)
    raise NotSimplexFamilyError("edge offsets do not match the simplex family")


def facet_separation(path: MotionPath) -> np.ndarray:
    """Distance between the affine hulls of the far translates {2 lambda_i}
    and {lambda_i} at each step (simplex-family frameworks only).

    The two hulls are parallel hyperplanes through lattice translates of the
    far orbit, so the distance is the normal component of one generator.
    """
    _, far, singles, doubles = _simplex_family_offsets(path.graph)
    d = path.graph.dimension
    heads = np.full(2 * d, path.graph.vertex_orbits.index(far))
    pts = _separations(path.positions, path.lattices, None, heads, np.array(singles + doubles, dtype=float))
    near_pts, far_pts = pts[:, :d], pts[:, d:]
    # At d = 1 the difference set is empty and the SVD returns the normal [1].
    normal = np.linalg.svd(far_pts[:, 1:] - far_pts[:, :1])[2][:, -1]
    return np.abs(_row_dots(normal, far_pts[:, 0] - near_pts[:, 0]))


# ---------------------------------------------------------------------------
# Frame export.

def export_frames(path: MotionPath, supercell: int = 1, fmt: str = "obj", outdir=".") -> list[str]:
    """Write realized geometry per step: OBJ wireframes or one CSV table.

    OBJ files contain only ``v`` and ``l`` records and require d <= 3 (third
    coordinate padded with zero for d = 2); the CSV lists every realized
    vertex as step,orbit,shift_1..shift_d,x_1..x_d.  Vertices are realized
    a block of steps at a time, at most `_CHUNK` coordinates per block (the
    stacked product is one product per item, so a block's bits are the whole
    stack's), and written one step at a time.
    """
    d = path.graph.dimension
    if fmt not in ("obj", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "obj" and d > 3:
        raise ValueError("obj export supports d <= 3; use csv")
    _check_count(supercell, "supercell", 0)
    orbits = path.graph.vertex_orbits
    shifts = list(itertools.product(range(-supercell, supercell + 1), repeat=d))
    vertices = list(itertools.product(orbits, shifts))  # orbit-major
    heads = np.repeat(np.arange(len(orbits)), len(shifts))
    offsets = np.array(shifts * len(orbits), dtype=float).reshape(-1, d)
    positions, lattices = path.positions, path.lattices
    block = max(1, _CHUNK // offsets.size)
    coords = (
        xs
        for k in range(0, len(lattices), block)
        for xs in _separations(positions[k : k + block], lattices[k : k + block], None, heads, offsets)
    )
    if fmt == "csv":
        header = (
            ["step", "orbit"]
            + [f"shift_{i + 1}" for i in range(d)]
            + [f"x_{i + 1}" for i in range(d)]
        )
        # One %-format per step; '%.12g' is format(v, '.12g') bit for bit.
        rows = [
            ",".join([_csv_field(orbit).replace("%", "%%"), *map(str, w), *["%.12g"] * d])
            for orbit, w in vertices
        ]
        target = os.path.join(outdir, "frames.csv")
        with open(target, "w") as fh:
            fh.write(",".join(header))
            for step, xs in enumerate(coords):
                prefix = f"\n{step},"
                fh.write(prefix + (prefix.join(rows) % tuple(xs.ravel().tolist())))
            fh.write("\n")
        return [target]

    vertex_index = {v: k + 1 for k, v in enumerate(vertices)}
    box = set(shifts)
    segments = []
    for z in shifts:
        for e in path.graph.edge_orbits:
            other = tuple(z[i] + e.shift[i] for i in range(d))
            if other in box:
                segments.append(f"l {vertex_index[(e.tail, z)]} {vertex_index[(e.head, other)]}")

    # One %-format per frame; '%.17g' is framework._json's float bit for bit.
    vertex_block = "\n".join(["v " + " ".join(["%.17g"] * d + ["0"] * (3 - d))] * len(vertices))
    tail = "".join("\n" + seg for seg in segments) + "\n"
    written = []
    for step, xs in enumerate(coords):
        target = os.path.join(outdir, f"frame_{step:04d}.obj")
        with open(target, "w") as fh:
            fh.write(vertex_block % tuple(xs.ravel().tolist()))
            fh.write(tail)
        written.append(target)
    return written


def write_audit_csv(audit: ExpansionAudit, path) -> None:
    """Audit table: orbit_a,orbit_b,shift...,min_increment,first_violation_step
    in key order, `sorted(audit.pair_results)`: the stream's (tail, head)
    blocks (`_pair_blocks`), each a run of ascending shifts, in key order.  A
    pair's first violating step is the least step of its violations, found
    with one pass over them and no sort."""
    orbits, d, radius, low = audit._stream
    pairs, steps, _ = audit._found
    # Each pair's least step, in the smallest type that holds one past the
    # last step, which marks a pair with no violation; a passing audit needs none.
    none = int(steps.max(initial=0)) + 1
    first = np.full(len(low) if len(steps) else 0, none, dtype=np.min_scalar_type(none))
    np.minimum.at(first, pairs, steps.astype(first.dtype))  # one type: numpy's fast path
    blocks = _pair_blocks(orbits, d, radius)
    starts = itertools.accumulate([count for *_, count in blocks], initial=0)
    spans = sorted(((orbits[a], orbits[b]), start, start + count) for (a, b, count), start in zip(blocks, starts))

    def chunks():
        for _, start, stop in spans:  # key order
            for lo in range(start, stop, _PAIR_CHUNK):
                hi = min(lo + _PAIR_CHUNK, stop)
                column = np.full(hi - lo, "", dtype=object)
                hit = np.flatnonzero(first[lo:hi] != none)
                column[hit] = first[lo + hit]
                yield *_pairs_at(orbits, d, radius, np.arange(lo, hi)), low[lo:hi], column

    _write_pair_table(path, orbits, d, ["min_increment", "first_violation_step"], chunks(), ["%.12g", "%s"])
