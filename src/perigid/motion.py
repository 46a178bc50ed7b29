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
step is one Newton correction (two after a stall), one placement-only check
(``framework._with_placement`` on ``fw.graph``) and one rigidity analysis.

The pair audit, facet gaps and frame export read one stack of per-step
positions and lattices and get every pair separation and realized vertex
from the same incidence core as the rigidity rows.  The audit reads one step
at a time and the export one block of steps, so neither holds a whole run.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constructions import _simplex_offsets
from .errors import (
    NewtonDivergenceError,
    NotSimplexFamilyError,
    NumericalFailureError,
    SingularJacobianError,
)
from .expansive import _CHUNK, DEFAULT_RADIUS, _pair_incidence, _pair_keys
from .framework import PeriodicFramework, Placement, QuotientGraph
from .framework import _csv_field, _row_dots, _separations, _with_placement, _write_pair_table
from .rigidity import DEFAULT_RANK_TOL, _checked_flex, analyze, pack_motion, rigidity_rows
from .rigidity import unpack_motion

DEFAULT_STEP = 0.01
DEFAULT_STEPS = 50
DEFAULT_NEWTON_TOL = 1e-10
DEFAULT_AUDIT_TOL = 1e-8
_MAX_NEWTON_ITER = 25
_SEED_FLEX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MotionPath:
    graph: QuotientGraph
    placements: list[Placement]  # step 0 is the input placement
    step_size: float  # arc step actually taken (h * min edge length)
    tangents: np.ndarray  # (steps + 1, dn + d^2) unit tangents
    residuals: np.ndarray  # per step, max |len^2 - len0^2| after correction

    @property
    def n_steps(self) -> int:
        return len(self.placements) - 1

    @cached_property
    def _stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step positions (steps + 1, n, d) and C-ordered lattices
        (steps + 1, d, d), as the audit, facet gaps and frame export read them."""
        positions = [[pl.positions[o] for o in self.graph.vertex_orbits] for pl in self.placements]
        lattices = [pl.lattice for pl in self.placements]
        return np.array(positions, dtype=float), np.array(lattices, dtype=float)


@dataclass(frozen=True, eq=False)
class ExpansionAudit:
    pair_results: dict[tuple[str, str, tuple[int, ...]], float]  # min step increment
    violations: list[tuple[tuple[str, str, tuple[int, ...]], int, float]]

    @property
    def passed(self) -> bool:
        return not self.violations


def _placement_of(graph: QuotientGraph, state: np.ndarray) -> Placement:
    pos, lattice = unpack_motion(graph, state)
    return Placement(
        {o: pos[i].copy() for i, o in enumerate(graph.vertex_orbits)}, lattice.copy()
    )


def _gauge_free_indices(graph: QuotientGraph) -> np.ndarray:
    """Indices of the coordinates the gauged corrector moves: the zeros of a
    motion that is 1 on the first orbit and the strictly lower lattice entries."""
    pin = np.zeros((graph.n, graph.dimension))
    pin[0] = 1.0
    return np.flatnonzero(pack_motion(pin, np.tri(graph.dimension, k=-1)) == 0)


def _edge_sq_lengths(graph: QuotientGraph, state: np.ndarray) -> np.ndarray:
    e = _separations(*unpack_motion(graph, state), *graph._incidence)
    return _row_dots(e, e)


def _newton_correct(
    graph: QuotientGraph,
    target_sq: np.ndarray,
    state: np.ndarray,
    free: np.ndarray,
    newton_tol: float,
) -> tuple[np.ndarray, float]:
    x = state.copy()
    for _ in range(_MAX_NEWTON_ITER):
        # An overflowing step is reported by the check below, not by numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            g = _edge_sq_lengths(graph, x) - target_sq
        residual = float(np.abs(g).max()) if len(g) else 0.0
        if residual < newton_tol:
            return x, residual
        if not np.isfinite(residual):
            raise NewtonDivergenceError(f"corrector residual is {residual}; the step overflowed")
        jac = 2.0 * rigidity_rows(graph, *unpack_motion(graph, x))
        delta, *_ = np.linalg.lstsq(jac[:, free], -g, rcond=None)
        x[free] += delta
    g = _edge_sq_lengths(graph, x) - target_sq
    raise NewtonDivergenceError(
        f"corrector stalled at residual {float(np.abs(g).max()):.3e} "
        f"after {_MAX_NEWTON_ITER} iterations"
    )


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
    positive and finite; n_steps must be a nonnegative integer.  The seed must
    annihilate the edge rows; its trivial (isometry) component is projected
    out before stepping.  A purely trivial seed, or a rigid framework, yields
    a zero-displacement path.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ValueError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    graph = fw.graph
    pos0 = np.array([fw.placement.positions[o] for o in graph.vertex_orbits])
    # The seed's rows come from rigidity_rows, as each Newton Jacobian's do:
    # perfbench counts its calls as one per seed plus one per iteration.
    rows = rigidity_rows(graph, pos0, fw.placement.lattice)
    direction = _checked_flex(rows, direction, _SEED_FLEX_TOL)

    report0 = analyze(fw, rank_tol)
    state = pack_motion(pos0, fw.placement.lattice)
    tangent = report0.flex_basis.T @ (report0.flex_basis @ direction) if report0.dof else np.zeros_like(direction)
    norm0 = float(np.linalg.norm(tangent))
    if norm0 <= 1e-12 * max(1.0, float(np.linalg.norm(direction))):
        same = _placement_of(graph, state)
        return MotionPath(
            graph,
            [same] * (n_steps + 1),
            0.0,
            np.zeros((n_steps + 1, state.size)),
            np.zeros(n_steps + 1),
        )
    tangent = tangent / norm0

    step_len = h * fw.min_edge_length
    target_sq = fw.edge_lengths**2
    free = _gauge_free_indices(graph)
    placements = [_placement_of(graph, state)]
    tangents = [tangent]
    residuals = [0.0]

    for _ in range(n_steps):
        predicted = state + step_len * tangent
        try:
            state, residual = _newton_correct(graph, target_sq, predicted, free, newton_tol)
        except NewtonDivergenceError:
            # The gauge no longer complements the rotations (see the module
            # docstring); a second stall propagates.
            every = np.arange(predicted.size)
            state, residual = _newton_correct(graph, target_sq, predicted, every, newton_tol)
        placement = _placement_of(graph, state)
        step_fw = _with_placement(graph, placement)
        report = analyze(step_fw, rank_tol)
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
        placements.append(placement)
        tangents.append(tangent)
        residuals.append(residual)

    return MotionPath(
        graph,
        placements,
        step_len,
        np.array(tangents),
        np.array(residuals),
    )


# ---------------------------------------------------------------------------
# Audits.

def audit_expansiveness(
    path: MotionPath,
    radius: int = DEFAULT_RADIUS,
    audit_tol: float = DEFAULT_AUDIT_TOL,
) -> ExpansionAudit:
    """Check that every truncated pair distance is nondecreasing stepwise.

    A violation at step k means the distance dropped by more than audit_tol
    between steps k-1 and k.
    """
    if len(path.placements) < 2:
        raise ValueError("path needs at least two steps")
    orbits = path.graph.vertex_orbits
    tails, heads, shifts = map(np.concatenate, zip(*_pair_incidence(orbits, path.graph.dimension, radius)))
    w = shifts.astype(float)
    seps = (_separations(p, lattice, tails, heads, w) for p, lattice in zip(*path._stacks))
    dists = (np.sqrt(_row_dots(sep, sep)) for sep in seps)
    prev, low = next(dists), np.full(len(w), np.inf)
    found = []  # per violating step: (pair indices, step, drops)
    for step, dist in enumerate(dists, 1):
        inc = dist - prev
        np.minimum(low, inc, out=low)
        bad = np.flatnonzero(inc < -audit_tol)
        if len(bad):
            found.append((bad, np.full(len(bad), step), -inc[bad]))
        prev = dist
    keys = _pair_keys(orbits, tails, heads, shifts)
    pair_results = dict(zip(keys, low.tolist()))
    violations = []
    if found:
        bad, steps, drops = map(np.concatenate, zip(*found))
        order = np.argsort(bad, kind="stable")  # pair-major, steps ascending
        pair_of = [keys[k] for k in bad[order].tolist()]
        violations = list(zip(pair_of, steps[order].tolist(), drops[order].tolist()))
    return ExpansionAudit(pair_results, violations)


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
    pts = _separations(*path._stacks, None, heads, np.array(singles + doubles, dtype=float))
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
    if supercell < 0:
        raise ValueError("supercell must be nonnegative")
    orbits = path.graph.vertex_orbits
    shifts = list(itertools.product(range(-supercell, supercell + 1), repeat=d))
    vertices = list(itertools.product(orbits, shifts))  # orbit-major
    heads = np.repeat(np.arange(len(orbits)), len(shifts))
    offsets = np.array(shifts * len(orbits), dtype=float).reshape(-1, d)
    positions, lattices = path._stacks
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

    # One %-format per frame; '%.17g' is framework._f17 bit for bit.
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
    """Audit table: orbit_a,orbit_b,shift...,min_increment,first_violation_step."""
    keys = sorted(audit.pair_results)
    d = len(keys[0][2]) if keys else 0
    first_violation: dict = {}
    for key, step, _ in sorted(audit.violations, key=lambda v: v[1]):
        first_violation.setdefault(key, step)
    # Each orbit is quoted once, not once per row.
    names = {o: _csv_field(o) for o in {o for key in keys for o in key[:2]}}
    rows = (
        [names[key[0]], names[key[1]], *map(str, key[2])]
        + [format(audit.pair_results[key], ".12g"), str(first_violation.get(key, ""))]
        for key in keys
    )
    _write_pair_table(path, d, ["min_increment", "first_violation_step"], rows)
