"""Convex-cone analysis of vertex stars.

The star of a vertex orbit collects the edge vectors emanating from its
representative, one per incidence and both orientations for same-orbit edges.
On top of the feasibility oracle this module decides positive dependence
(a zero combination with strictly positive coefficients), computes the
lineality space of the generated cone, finds separating hyperplanes, and
tests pointedness in codimension two (lineality dimension at most d - 2),
the local condition every vertex star must satisfy where an expansive
deformation is effective.  The oracle picks each system's mode from the
star's entries: exact when every entry is an integer or a Fraction, float
otherwise.  Float decisions use the oracle's tolerance, ``feasibility.LP_TOL``.
Each star function reads the star's vectors once as nested Python numbers
(floats, ints or Fractions; np.float32 keeps its scalars and arithmetic).
A positive dependence, in either mode, fails the strict-expansion probe and
puts every star vector in the lineality space, so neither the probe nor a
membership system is solved; strict_expansion_probe says how to read a float one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .feasibility import LP_TOL, solve_linear_feasibility
from .framework import PeriodicFramework, _json


@dataclass(frozen=True, eq=False)
class VectorStar:
    vertex_orbit: str
    vectors: np.ndarray  # (k, d); float, or object dtype holding Fractions

    def __len__(self) -> int:
        return len(self.vectors)

    def as_float(self) -> np.ndarray:
        return np.asarray(self.vectors, dtype=float)


@dataclass(frozen=True, eq=False)
class ConeAnalysis:
    orbit: str
    lineality_basis: np.ndarray  # (L, d) orthonormal rows
    pointed_codim2: bool
    separating_normal: np.ndarray | None
    positive_dependence: np.ndarray | None

    @property
    def lineality_dim(self) -> int:
        return self.lineality_basis.shape[0]


def vertex_star(fw: PeriodicFramework, orbit: str) -> VectorStar:
    """Edge vectors at the representative of `orbit`, one per incidence.

    An edge orbit with tail = orbit contributes its edge vector, one with
    head = orbit the negated vector; a same-orbit edge contributes both.
    """
    i = fw.orbit_index(orbit)
    tails, heads, _ = fw.graph._incidence
    both = np.stack([fw._edge_vectors, -fw._edge_vectors], axis=1)  # (m, 2, d)
    return VectorStar(orbit, both[np.stack([tails == i, heads == i], axis=1)])


def _vectors(star: VectorStar, dtype=None) -> list[list]:
    """The star's vectors (cast to ``dtype``), which must be some and of one
    length, as nested Python numbers; a dtype Python has no number type for
    (float32) keeps its numpy scalars, and so its own arithmetic."""
    vectors = star.vectors
    if len(vectors) == 0:
        raise ValueError("empty star")
    if getattr(vectors, "ndim", 0) != 2 and len(set(map(len, vectors))) > 1:
        raise ValueError("star vectors differ in length")
    vs = np.asarray(vectors, dtype)
    return vs.tolist() if vs.dtype == float or vs.dtype.kind in "biuO" else [list(v) for v in vs]


def _dependence(vs: list[list]):
    """positive_dependence on the star's vectors: one equality row per coordinate."""
    return solve_linear_feasibility([list(c) for c in zip(*vs)], [0] * len(vs[0]), [1] * len(vs))


def positive_dependence(star: VectorStar):
    """Coefficients a with every a_i >= 1 and sum a_i v_i = 0, else None.

    Strict positivity is normalized to >= 1: dependences form a cone, so a
    strictly positive combination exists iff one with entries >= 1 does.
    A dependence refutes effective expansion at the vertex: a zero
    combination with all-positive coefficients forces every velocity
    assignment that preserves the bar lengths to close at least one pair
    whenever it opens another, so no strictly expansive assignment exists.
    The mode comes from the star's entries: Fractions when every entry is an
    integer or a Fraction, a float array otherwise.
    """
    return _dependence(_vectors(star))


def lineality_space(star: VectorStar) -> np.ndarray:
    """Orthonormal basis of the largest linear subspace inside the star cone.

    A generator v_i lies in the lineality space exactly when -v_i is still a
    nonnegative combination of the generators; the members span the whole
    linear part, so an SVD of that subset gives the basis.
    """
    vs = _vectors(star, float)
    rows, bounds = [list(c) for c in zip(*vs)], [0] * len(vs)
    members = [v for v in vs if solve_linear_feasibility(rows, [-x for x in v], bounds) is not None]
    if not members:
        return np.zeros((0, len(vs[0])))
    return _span(np.array(members))


def _span(stack: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of `stack`, by SVD."""
    _, s, vt = np.linalg.svd(stack)
    return vt[: np.count_nonzero(s > LP_TOL * s[0])]


def analyze_star(star: VectorStar, d: int | None = None) -> ConeAnalysis:
    """Full cone report: lineality, codim-2 pointedness, separating normal.

    A separating normal is produced whenever the lineality dimension is at
    most d - 1: it vanishes on the lineality space and is strictly positive
    on every star vector outside it.  With a positive dependence a,
    -v_i = sum_{j != i} (a_j / a_i) v_j puts every vector in the lineality
    space, the SVD span of them all (as :func:`lineality_space` finds it when
    every membership system is feasible); without one, that function decides.
    A star with a zero vector (no edge direction) is a ValueError.
    """
    rows = _vectors(star, float)
    if not all(map(any, rows)):
        raise ValueError("zero vector in star")
    vs = np.array(rows)
    if d is None:
        d = vs.shape[1]
    dep = _dependence(rows)
    lin = lineality_space(star) if dep is None else _span(vs)
    ldim = lin.shape[0]
    pointed2 = ldim <= d - 2

    normal = None
    if ldim <= d - 1:
        normal = _separating_normal(vs, lin)

    return ConeAnalysis(
        orbit=star.vertex_orbit,
        lineality_basis=lin,
        pointed_codim2=pointed2,
        separating_normal=normal,
        positive_dependence=dep,
    )


def _separating_normal(vs: np.ndarray, lin: np.ndarray) -> np.ndarray:
    d = vs.shape[1]
    units = vs / np.linalg.norm(vs, axis=1, keepdims=True)
    if lin.shape[0]:
        residual = units - (units @ lin.T) @ lin
        outside = units[np.linalg.norm(residual, axis=1) > LP_TOL]
    else:
        outside = units
    if len(outside) == 0:
        # Everything lies in the lineality span, which is then nonzero (with
        # none, every vector is outside); any unit normal to it works.
        _, _, vt = np.linalg.svd(lin)
        return vt[lin.shape[0]]
    h = solve_linear_feasibility(
        lin.tolist(),
        [0.0] * lin.shape[0],
        [None] * d,
        inequalities=outside.tolist(),
        ineq_rhs=[1.0] * len(outside),
    )
    if h is None:
        raise NumericalFailureError(
            "no separating hyperplane found although the quotient cone is pointed"
        )
    return h / np.linalg.norm(h)


def strict_expansion_probe(star: VectorStar):
    """Velocity assignment opening some pair strictly, or None.

    Unknowns are one velocity per star vector (the hub stays fixed); bar
    constraints <v_i, vdot_i> = 0 hold exactly, every pair satisfies
    <v_i - v_j, vdot_i - vdot_j> >= 0, and a probe row asks for total opening
    >= 1.  Because solutions scale, feasibility is equivalent to the
    existence of a strictly expansive assignment.  The mode comes from the
    star's entries, as for :func:`positive_dependence`.  In both modes a
    positive dependence a (every a_i >= 1) answers None before the probe
    system is built: with <v_i, vdot_i> = 0, sum_{i<j} a_i a_j
    <v_i - v_j, vdot_i - vdot_j> = -<eps, sum a_j vdot_j> with eps =
    sum a_i v_i.  Exactly, eps = 0, so every pair term, >= 0 with weight
    >= 1, is 0, and so is the probe row.  In float mode eps is at the
    oracle's tolerance scale, so a total opening >= 1 needs
    |sum a_j vdot_j| >= 1 / |eps|, velocities far beyond that scale.
    """
    vs = _vectors(star)
    if _dependence(vs) is not None:
        return None
    k = len(vs)
    d = len(vs[0])
    nvars = k * d
    eq_rows = [[0] * nvars for _ in range(k)]
    for i in range(k):
        for c in range(d):
            eq_rows[i][i * d + c] = vs[i][c]

    ineq_rows, probe = [], [0] * nvars
    for i in range(k):
        for j in range(i + 1, k):
            row = [0] * nvars
            for c in range(d):
                diff = vs[i][c] - vs[j][c]
                row[i * d + c] = diff
                row[j * d + c] = -diff
                probe[i * d + c] += diff
                probe[j * d + c] -= diff
            ineq_rows.append(row)
    ineq_rows.append(probe)

    sol = solve_linear_feasibility(
        eq_rows,
        [0] * k,
        [None] * nvars,
        inequalities=ineq_rows,
        ineq_rhs=[0] * (len(ineq_rows) - 1) + [1],
    )
    if sol is None:
        return None
    if isinstance(sol, list):
        return [sol[i * d : (i + 1) * d] for i in range(k)]
    return sol.reshape(k, d)


# ---------------------------------------------------------------------------
# Report serialization.

def star_report_json(analysis: ConeAnalysis) -> str:
    return _json({"orbit": analysis.orbit, "lineality_dim": analysis.lineality_dim,
                  "pointed_codim2": bool(analysis.pointed_codim2), "separating_normal": analysis.separating_normal,
                  "positive_dependence": analysis.positive_dependence})
