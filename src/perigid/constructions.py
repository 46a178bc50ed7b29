"""Constructors for the built-in framework families and for adding an edge orbit.

Two families are provided:

* ``simplex_framework(d, variant)``: two orbits, red at the origin and green
  at the centroid v = (1/(d+1)) sum(lambda_i), with green-to-red bars at the
  offsets {lambda_i} and {lambda_i + lambda_j, i < j}.  The enhanced variant
  adds the d offsets {2 lambda_i}; removing one of those gives a one-degree-
  of-freedom mechanism.  The three offset lists come from one table,
  ``_simplex_offsets(d)``, which the motion module's family test reads too.
* ``stressed_framework()``: the three-dimensional two-orbit framework with
  eight green-to-red bars that carries a one-dimensional stress space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidDimensionError
from .framework import EdgeOrbit, PeriodicFramework, Placement, QuotientGraph, validate_framework

RED = "red"
GREEN = "green"


@dataclass(frozen=True)
class SimplexVariant:
    kind: str  # "base" | "enhanced" | "removed"
    removed: int | None = None

    @classmethod
    def parse(cls, text: str) -> "SimplexVariant":
        """Parse CLI-style variant spec: ``base``, ``enhanced``, ``removed:K``."""
        if text in ("base", "enhanced"):
            return cls(text)
        if text.startswith("removed:"):
            try:
                return cls("removed", int(text.split(":", 1)[1]))
            except ValueError:
                pass
        raise InvalidDimensionError(f"unknown simplex variant {text!r}")


def _regular_simplex_generators(d: int) -> np.ndarray:
    # Unit generators with pairwise inner product 1/2: the edge vectors of a
    # regular simplex with one vertex at the origin.  Cholesky gives an
    # upper-triangular column layout.
    gram = (np.eye(d) + np.ones((d, d))) / 2.0
    return np.linalg.cholesky(gram).T


def _simplex_offsets(d: int) -> tuple[list, list, list]:
    """Integer shifts of the family's bars, in edge order: the singles
    {lambda_i}, the pairs {lambda_i + lambda_j, i < j}, the doubles {2 lambda_i}."""
    singles = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    pairs = [tuple(int(i == a) + int(i == b) for i in range(d)) for a, b in combinations(range(d), 2)]
    doubles = [tuple(2 * c for c in s) for s in singles]
    return singles, pairs, doubles


def simplex_framework(
    d: int,
    variant: SimplexVariant = SimplexVariant("base"),
    regular: bool = False,
) -> PeriodicFramework:
    """Two-orbit simplex-family framework in dimension d >= 2.

    With ``regular=False`` (default) the lattice generators are the standard
    basis, which keeps every coordinate an exact binary rational for d where
    1/(d+1) is dyadic and keeps golden tests deterministic; ``regular=True``
    uses the edge vectors of a regular simplex instead.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise InvalidDimensionError(f"simplex family needs integer d >= 2, got {d!r}")
    if variant.kind not in ("base", "enhanced", "removed"):
        raise InvalidDimensionError(f"unknown simplex variant kind {variant.kind!r}")
    if variant.kind != "removed" and variant.removed is not None:
        raise InvalidDimensionError(f"variant {variant.kind!r} removes no edge")
    if variant.kind == "removed" and not (
        isinstance(variant.removed, int) and 1 <= variant.removed <= d
    ):
        raise InvalidDimensionError(
            f"removed edge index must lie in 1..{d}, got {variant.removed!r}"
        )

    lattice = _regular_simplex_generators(d) if regular else np.eye(d)
    green = lattice.sum(axis=1) / (d + 1)

    singles, pairs, doubles = _simplex_offsets(d)
    shifts = singles + pairs
    if variant.kind == "enhanced":
        shifts += doubles
    elif variant.kind == "removed":
        shifts += doubles[: variant.removed - 1] + doubles[variant.removed :]

    graph = QuotientGraph(
        d,
        (RED, GREEN),
        tuple(EdgeOrbit(GREEN, RED, s) for s in shifts),
    )
    placement = Placement({RED: np.zeros(d), GREEN: green}, lattice)
    return validate_framework(graph, placement)


def stressed_framework() -> PeriodicFramework:
    """Three-dimensional stressed framework: 2 vertex orbits, 8 edge orbits.

    Red sits at the origin with the identity lattice; green sits at
    (1/2, 1/2, -1/2) and connects to the red translates at 0, e1, e2, e3,
    e1+e2, e2+e3, e3+e1, e1+e2+e3 (in that edge order).
    """
    shifts = [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 1),
    ]
    graph = QuotientGraph(
        3,
        (RED, GREEN),
        tuple(EdgeOrbit(GREEN, RED, s) for s in shifts),
    )
    placement = Placement(
        {RED: np.zeros(3), GREEN: np.array([0.5, 0.5, -0.5])},
        np.eye(3),
    )
    return validate_framework(graph, placement)


def with_edge_orbit(
    fw: PeriodicFramework, tail: str, head: str, shift
) -> PeriodicFramework:
    """Return a new framework with one extra edge orbit appended; its shift
    is checked by ``validate_framework``."""
    new_edge = EdgeOrbit(tail, head, shift)
    graph = QuotientGraph(
        fw.dimension,
        fw.graph.vertex_orbits,
        fw.graph.edge_orbits + (new_edge,),
    )
    return validate_framework(graph, fw.placement)

