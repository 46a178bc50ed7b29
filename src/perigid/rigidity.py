"""Periodic rigidity matrix and infinitesimal analysis.

Motion vectors are laid out as (dn + d^2) coordinates: first the velocity of
each vertex-orbit representative (d entries per orbit, in graph order), then
the lattice velocity column by column (generator 1 first).  ``pack_motion``
and ``unpack_motion`` are the layout's only owners: other modules build and
read motion vectors through them and compute no index into one.  Bars and pairs
share one incidence layout: a (tail i, head j, shift w) triple with
separation e = p_j + L w - p_i (from ``framework._separations``) gives the
row with -e in block i, +e in block j (cancelling when i = j), and
e_r * w_c at lattice position (r, c).  ``_incidence_rows`` builds those rows
for whole index arrays at once; the rigidity matrix is its rows for the
framework's stored bar separations.  The factor 2 from differentiating
squared lengths is dropped; it does not change ranks, nullspaces, or signs.
``_checked_flex`` is the package's one flex gate: a flex has shape
(dn + d^2,), finite entries and |r . v| <= tol |r| |v| for every edge row r,
at the caller's tolerance; anything else raises ``NotAFlexError``, and a
scale tol |r| |v| past the float range, which would pass any vector,
``NumericalFailureError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedError,
    NonUniqueStressError,
    NoStressError,
    NotAFlexError,
    NumericalFailureError,
    ZeroPivotError,
)
from .framework import PeriodicFramework, QuotientGraph, _freeze, _json

DEFAULT_RANK_TOL = 1e-9


def unpack_motion(graph: QuotientGraph, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a motion vector into vertex velocities (n, d) and lattice velocity (d, d)."""
    d, n = graph.dimension, graph.n
    vec = np.asarray(vec, dtype=float)
    pdot = vec[: d * n].reshape(n, d)
    ldot = vec[d * n :].reshape(d, d, order="F")
    return pdot, ldot


def pack_motion(pdot: np.ndarray, ldot: np.ndarray) -> np.ndarray:
    """The motion vector of vertex velocities (n, d) and lattice velocity
    (d, d); stacks of them, (k, n, d) and (k, d, d), give k vectors."""
    pdot, ldot = np.asarray(pdot, float), np.asarray(ldot, float)
    lead = ldot.shape[:-2]
    return np.concatenate(
        [pdot.reshape(*lead, -1), np.swapaxes(ldot, -1, -2).reshape(*lead, -1)], axis=-1
    )


def _incidence_rows(n: int, tails, heads, shifts, separations) -> np.ndarray:
    """Rows of (tail, head, w) triples with separations s in the layout above.

    Accumulated into zeros as a per-row loop would be, so every zero keeps
    its sign (0 - 0 is +0, where -s would give -0).  An entry w_c s_r past
    the float range is inf (NaN for 0 times inf), with no warning: the
    analysis, the flex gate, the Newton step and the cone's pair tests check
    their rows or scales."""
    k, d = separations.shape
    rows, at = np.zeros((k, n + d, d)), np.arange(k)
    rows[at, tails] -= separations
    rows[at, heads] += separations
    with np.errstate(over="ignore", invalid="ignore"):
        rows[:, n:] += shifts[:, :, None] * separations[:, None, :]
    return rows.reshape(k, (n + d) * d)


def rigidity_rows(graph: QuotientGraph, separations: np.ndarray) -> np.ndarray:
    """Rigidity rows of the bars' separations (m, d), in edge-orbit order."""
    return _incidence_rows(graph.n, *graph._incidence, separations)


def rigidity_matrix(fw: PeriodicFramework) -> np.ndarray:
    """Constraint rows of the framework, one per edge orbit: shape (m, dn + d^2)."""
    return _incidence_rows(fw.n, *fw.graph._incidence, fw._edge_vectors)


def _checked_flex(matrix: np.ndarray, vector, tol: float) -> np.ndarray:
    """`vector` as a float array, if it is a flex of the constraint rows
    `matrix` at relative tolerance `tol`; raises NotAFlexError otherwise."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (matrix.shape[1],):
        raise NotAFlexError(f"motion vector has shape {vector.shape}, expected ({matrix.shape[1]},)")
    if not np.all(np.isfinite(vector)):
        raise NotAFlexError("motion vector is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed scale is reported below
        resid = np.abs(matrix @ vector)
        bound = tol * np.linalg.norm(matrix, axis=1) * np.linalg.norm(vector)
    if not np.isfinite(bound).all():
        raise NumericalFailureError("flex test scale is not finite; coordinates too large for a relative test")
    if np.any(resid > bound):
        raise NotAFlexError(f"edge residual {resid.max():.3e} exceeds tolerance; not a flex")
    return vector


def trivial_motion_basis(fw: PeriodicFramework) -> np.ndarray:
    """The d + C(d,2) motions induced by translations and rotations.

    Translations move every representative by the same vector and leave the
    lattice fixed; rotations apply a skew map S to positions and lattice
    alike, so each constraint row evaluates to <e, S e> = 0.
    """
    positions = np.array([fw.placement.positions[o] for o in fw.graph.vertex_orbits], dtype=float)
    return _trivial_basis(positions, fw.placement.lattice)


def _trivial_basis(positions: np.ndarray, lattice: np.ndarray) -> np.ndarray:
    """The trivial motions of positions (n, d) in orbit order and a lattice,
    gathered: every entry is 0, 1, or a coordinate copied or negated."""
    p, lat = positions.ravel(), lattice.ravel()
    return np.concatenate(([0.0, 1.0], p, lat, -p, -lat))[_trivial_template(*positions.shape)]


@functools.cache
def _trivial_template(n: int, d: int) -> np.ndarray:
    """Indices into [0, 1, p, L, -p, -L] (flattened) of the trivial motions:
    translations are 1 on one coordinate of every orbit, the rotation in the
    (a, b) plane is -x_b on coordinate a and x_a on coordinate b of every
    orbit and lattice column."""
    planes = list(itertools.combinations(range(d), 2))
    p, lat = 2 + np.arange(n * d).reshape(n, d), 2 + n * d + np.arange(d * d).reshape(d, d)
    neg = n * d + d * d  # from a coordinate's index to its negation's
    pdot, ldot = np.zeros((d + len(planes), n, d)), np.zeros((d + len(planes), d, d))
    for a in range(d):
        pdot[a, :, a] = 1
    for r, (a, b) in enumerate(planes, d):
        pdot[r, :, a], pdot[r, :, b] = neg + p[:, b], p[:, a]
        ldot[r, a], ldot[r, b] = neg + lat[b], lat[a]
    return _freeze(pack_motion(pdot, ldot), np.intp)


@dataclass(frozen=True, eq=False)
class RigidityReport:
    rank: int
    flex_basis: np.ndarray  # (f, dn + d^2), orthonormal, orthogonal to trivial
    stress_basis: np.ndarray  # (s, m), orthonormal left-nullspace vectors
    tolerance_used: float

    @property
    def dof(self) -> int:
        return self.flex_basis.shape[0]

    @property
    def stress_dim(self) -> int:
        return self.stress_basis.shape[0]


def _rank_from_singular_values(s: np.ndarray, tol: float) -> int:
    smax = float(s.max(initial=0.0))  # s[0] of LAPACK's descending spectrum
    threshold = tol * smax
    rank = int(np.sum(s > threshold))
    if 0 < rank < s.size:
        gap = float(s[rank - 1] - s[rank])
        if gap < 10.0 * tol * smax:
            raise IllConditionedError(
                f"singular values {s[rank - 1]:.3e} and {s[rank]:.3e} hug the rank "
                f"threshold {threshold:.3e}; rank is ambiguous"
            )
    return rank


def analyze(fw: PeriodicFramework, tol: float = DEFAULT_RANK_TOL) -> RigidityReport:
    """Rank, nontrivial flexes, stresses, and DOF count.

    Rank comes from an SVD with threshold tol * (largest singular value).
    The flex basis spans nullspace intersected with the orthogonal complement
    of the trivial motions; the stress basis spans the left nullspace.
    A NaN or infinite tol is a ValueError, a constraint matrix with a
    non-finite entry a NumericalFailureError, both before any SVD.
    """
    return _analysis(rigidity_matrix(fw), trivial_motion_basis(fw), tol)


def _analysis(matrix: np.ndarray, trivial: np.ndarray, tol: float) -> RigidityReport:
    """:func:`analyze` of the constraint rows `matrix` and the trivial
    motions `trivial`, for callers that hold both as arrays."""
    if not math.isfinite(tol):
        raise ValueError(f"rank tolerance must be finite, got {tol!r}")
    if not np.isfinite(matrix).all():
        raise NumericalFailureError("constraint matrix is not finite")
    size, t = matrix.shape[1], trivial.shape[0]
    # With no rows, numpy's SVD gives Vt = I and an empty U.
    u, s, vt = np.linalg.svd(matrix)
    rank = _rank_from_singular_values(s, tol)
    q_triv, _ = np.linalg.qr(trivial.T)
    f = (size - rank) - t
    if f < 0:
        raise IllConditionedError(f"nullity {size - rank} smaller than the {t} trivial motions")
    residual = vt[rank:] - (vt[rank:] @ q_triv) @ q_triv.T
    _, sg, vg = np.linalg.svd(residual)
    # Projected orthonormal rows have singular values 1 (flex directions)
    # or 0 (trivial directions); anything else means the split failed.
    kept = int(np.sum(sg > 0.5))
    if kept != f:
        raise IllConditionedError(f"flex-space projection produced {kept} directions, expected {f}")
    return RigidityReport(rank=rank, flex_basis=vg[:f], stress_basis=u[:, rank:].T, tolerance_used=tol)


def stress_coefficients(
    fw: PeriodicFramework,
    report: RigidityReport,
    normalize_edge: int,
    value: float = 1.0,
) -> np.ndarray:
    """The unique stress, rescaled so entry `normalize_edge` equals the finite `value`."""
    if not math.isfinite(value):
        raise ValueError(f"stress value must be finite, got {value!r}")
    s = report.stress_dim
    if s == 0:
        raise NoStressError("framework carries no stress")
    if s > 1:
        raise NonUniqueStressError(f"stress space has dimension {s}")
    stress = report.stress_basis[0]
    if not 0 <= normalize_edge < fw.m:
        raise IndexError(f"edge orbit index {normalize_edge} out of range 0..{fw.m - 1}")
    pivot = stress[normalize_edge]
    if abs(pivot) <= report.tolerance_used * float(np.linalg.norm(stress)):
        raise ZeroPivotError(f"stress vanishes at edge orbit {normalize_edge}")
    stress = stress * (value / pivot)

    matrix = rigidity_matrix(fw)
    with np.errstate(over="ignore"):  # an overflowed scale is reported below
        residual = float(np.linalg.norm(stress @ matrix))
        scale = float(np.linalg.norm(matrix)) * float(np.linalg.norm(stress))
    if not math.isfinite(scale):
        raise NumericalFailureError("stress residual scale is not finite; coordinates too large for a relative test")
    if residual > 1e-9 * max(scale, 1.0):
        raise NumericalFailureError(
            f"stress residual {residual:.3e} exceeds tolerance"
        )
    return stress


def is_minimally_rigid(fw: PeriodicFramework) -> bool:
    """True iff rank = m = dn + C(d,2), the rank at ``DEFAULT_RANK_TOL``."""
    d = fw.dimension
    target = d * fw.n + d * (d - 1) // 2
    report = analyze(fw)
    return report.rank == fw.m == target


# ---------------------------------------------------------------------------
# Report serialization.

def report_to_json(report: RigidityReport) -> str:
    return _json({"rank": report.rank, "dof": report.dof, "stress_dim": report.stress_dim,
                  "flex_basis": report.flex_basis, "stress_basis": report.stress_basis,
                  "tolerance": float(report.tolerance_used)})
