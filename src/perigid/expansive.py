"""Infinitesimal expansive cone of a periodic framework.

A motion is expansive when the distance between every pair of joints is
nondecreasing.  For a quotient description that quantifies over all pairs of
vertex-orbit translates; here the pair set is truncated to lattice shifts
with max-norm at most a radius R.  The truncated pairs are held as arrays
(:class:`PairSet`): tail and head orbit indices plus an integer shift
matrix, with separations and constraint rows built in one pass by the same
incidence core as the bars of the rigidity matrix.  The halfspace rows are
expressed in the coordinates of the nontrivial flex basis (trivial motions
satisfy every pair row with equality and would only add spurious lineality).
Halfspaces that round to the same 9 decimals are merged, the first kept,
by a stable sort on those keys.  Extremal rays come from a double
description pass over the merged halfspaces, each ray's active set a bool
row over the live columns, the processed halfspaces tight at some ray.  The
merge and the double description are array code that makes the decisions
of the one-row, one-ray loop they replaced, in the same order, and builds
every ray with the same floating-point operations, so the halfspaces and
rays are bit for bit that loop's.  A tight-or-violated decision may be read
from a faster product (a GEMM) only when every value it reads lies outside
a band of twice gamma_(f+1) around its threshold, wider than any difference
in rounding between the two products (Higham, section 3.1); the values
inside the band are recomputed by the loop's product.  The
stability probe makes truncation bias observable: the cone at R + 1 is the
cone at R cut by the halfspaces of the new shell of pairs, so R is stable
when no ray at R violates one of them.  Every float decision of this layer
uses the one module tolerance ``CONE_TOL``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cones import ConeAnalysis, analyze_star, vertex_star
from .errors import (
    FlexDimensionTooLargeError,
    FrameworkError,
    NonPointedConeError,
    NumericalFailureError,
)
from .framework import EdgeOrbit, PeriodicFramework, _csv_field, _integer_shift, _json_matrix
from .framework import _row_dots, _separations
from .rigidity import RigidityReport, _checked_flex, _incidence_rows, rigidity_matrix

DEFAULT_RADIUS = 2
CONE_TOL = 1e-9
MAX_FLEX_DIM = 6


@dataclass(frozen=True, eq=False)
class PairSet:
    """Canonical pairs, one array row per pair: pair k joins a = orbits[tails[k]]
    to b = orbits[heads[k]] translated by w = shifts[k].

    Its separation is s = p_b + lattice w - p_a, and its row evaluates a
    motion u to <s, pdot_b + ldot w - pdot_a>, so the truncated pair
    inequality is row . u >= 0.  The row is invariant under orientation
    reversal, and pairs are stored with (a, b, w) lexicographically minimal
    versus (b, a, -w).  Same-orbit pairs with w a generator shift encode
    period length constraints.
    """

    orbits: tuple[str, ...]
    tails: np.ndarray  # (k,) vertex orbit indices
    heads: np.ndarray  # (k,)
    shifts: np.ndarray  # (k, d) integers
    separations: np.ndarray  # (k, d)
    rows: np.ndarray  # (k, dn + d^2)

    def __len__(self) -> int:
        return len(self.tails)

    def keys(self) -> list[tuple[str, str, tuple[int, ...]]]:
        """Canonical (orbit_a, orbit_b, shift) keys in pair order."""
        return _pair_keys(self.orbits, self.tails, self.heads, self.shifts)


def _pair_set(fw: PeriodicFramework, tails, heads, shifts) -> PairSet:
    positions = np.array([fw.placement.positions[o] for o in fw.graph.vertex_orbits])
    w = shifts.astype(float)
    s = _separations(positions, fw.placement.lattice, tails, heads, w)
    rows = _incidence_rows(fw.n, tails, heads, w, s)
    return PairSet(fw.graph.vertex_orbits, tails, heads, shifts, s, rows)


def pair_constraint(fw: PeriodicFramework, a: str, b: str, shift) -> PairSet:
    """The one-pair :class:`PairSet` of (a, b, shift) in the orientation of
    ``EdgeOrbit.canonical``, so ``keys()[0]`` is the key ``enumerate_pairs``
    gives that pair.  The shift is checked as a bar's: one that is not
    integral is a FrameworkError, a wrong length a DimensionMismatchError; a
    vertex paired with itself at shift zero is a FrameworkError."""
    shift = _integer_shift(shift, fw.dimension, f"pair ({a}, {b})")
    if a == b and all(c == 0 for c in shift):
        raise FrameworkError(f"({a}, {b}, {shift}) pairs a vertex with itself")
    a, b, shift = EdgeOrbit(a, b, shift).canonical()
    ends = np.array([fw.orbit_index(a)]), np.array([fw.orbit_index(b)])
    return _pair_set(fw, *ends, np.array([shift]))


def _pair_incidence(
    orbits, d: int, radius: int, shell: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail index, head index, integer shift) arrays of the canonical pairs:
    each a < b (sorted orbits) over the lexicographic shift box, then each
    (a, a) over its first half, the shifts w < -w.  With `shell`, only the
    shifts of max-norm exactly `radius`: the box is filtered before it is
    tiled, and the filter keeps w and -w together, so the first half of the
    filtered box is still the w < -w half."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    n, width = len(orbits), 2 * radius + 1
    box = np.indices((width,) * d).reshape(d, -1).T - radius
    if shell:
        box = box[np.abs(box).max(axis=1) == radius]
    half = len(box) // 2
    order = np.array(sorted(range(n), key=lambda i: orbits[i]), dtype=int)
    first, second = np.triu_indices(n, 1)
    tails = np.concatenate([np.repeat(order[first], len(box)), np.repeat(order, half)])
    heads = np.concatenate([np.repeat(order[second], len(box)), np.repeat(order, half)])
    shifts = np.concatenate([np.tile(box, (len(first), 1)), np.tile(box[:half], (n, 1))])
    return tails, heads, shifts


def _pair_keys(orbits, tails, heads, shifts) -> list[tuple[str, str, tuple[int, ...]]]:
    names = np.array(orbits, dtype=object)
    return list(zip(names[tails].tolist(), names[heads].tolist(), map(tuple, shifts.tolist())))


def enumerate_pairs(fw: PeriodicFramework, radius: int) -> PairSet:
    """All canonical pair constraints within the truncation radius.

    Count is C(n,2)*(2R+1)^d + n*((2R+1)^d - 1)/2.
    """
    return _pair_set(fw, *_pair_incidence(fw.graph.vertex_orbits, fw.dimension, radius))


# ---------------------------------------------------------------------------
# Double description.

def _independent_rows(a: np.ndarray, f: int) -> list[int]:
    chosen: list[int] = []
    basis = np.zeros((0, f))
    for i, row in enumerate(a):
        residual = row - basis.T @ (basis @ row) if len(basis) else row
        if np.linalg.norm(residual) > CONE_TOL:
            basis = np.vstack([basis, residual / np.linalg.norm(residual)])
            chosen.append(i)
            if len(chosen) == f:
                return chosen
    return chosen


def extremal_rays(halfspaces) -> np.ndarray:
    """Minimal generating rays of {c : A c >= 0} for a pointed cone in
    R^f, f the width of A.

    Incremental double description: start from a simplicial subcone given by
    f independent rows, then clip with each remaining halfspace in row order,
    combining adjacent positive/negative ray pairs.  Each ray carries its
    active set, a bool row over the processed halfspaces tight at some ray,
    and adjacency is the combinatorial test on those sets.  Raises
    NonPointedConeError when the rows have a nontrivial common nullspace.
    """
    a = np.asarray(halfspaces, dtype=float)
    if a.ndim != 2:
        raise ValueError("halfspaces must be a matrix")
    f = a.shape[1]
    if f < 1:
        raise ValueError("cone dimension must be positive")
    if f > MAX_FLEX_DIM:
        raise FlexDimensionTooLargeError(
            f"ray enumeration disabled for dimension {f} > {MAX_FLEX_DIM}"
        )
    a = a[np.linalg.norm(a, axis=1) > CONE_TOL]
    a = a / np.linalg.norm(a, axis=1, keepdims=True) if len(a) else a
    k = len(a)
    if k < f:
        raise NonPointedConeError(f"{k} halfspaces cannot point a {f}-dimensional cone")
    s = np.linalg.svd(a, compute_uv=False)
    if int(np.sum(s > CONE_TOL * s[0])) < f:
        raise NonPointedConeError("halfspace normals do not span; nonzero lineality")

    base = _independent_rows(a, f)
    if len(base) < f:
        raise NonPointedConeError("could not extract an independent halfspace basis")
    m_inv = np.linalg.inv(a[base])
    rays = np.array([m_inv[:, j] / np.linalg.norm(m_inv[:, j]) for j in range(f)])
    # Rows in insertion order: the basis, then the others by index.
    ordered = a[base + sorted(set(range(k)) - set(base))]
    return _finish(_clip(ordered, f, rays), a)


# Entries per chunk of the ray x row and pair x ray blocks: a few MB at most.
_CHUNK = 1 << 17
# Starting column count of `_clip`'s incidence buffer.
_WIDTH = 256


def _band(rows: np.ndarray, rays: np.ndarray) -> float:
    """Half-width of the band around a threshold inside which a decision on
    `row @ ray` read from a faster product is recomputed by the reference one.

    Two evaluations of a length-f dot product x . y, in any order, differ by
    at most 2 gamma_f ||x|| ||y||, gamma_f = f u / (1 - f u) with u the unit
    roundoff (Higham, Accuracy and Stability of Numerical Algorithms, section
    3.1).  Rays built later are unit, hence max(1, .); gamma_(f+1) exceeds
    gamma_f by about u, which covers the rounding of the norms.  A scale that
    is not finite sends every decision to the reference product.
    """
    fu = (rows.shape[1] + 1) * np.finfo(float).eps / 2
    scale = np.linalg.norm(rows, axis=1).max(initial=0.0) * np.linalg.norm(rays, axis=1).max(initial=1.0)
    band = 2 * fu / (1 - fu) * scale
    return band if band < np.inf else np.inf


def _below(mag: np.ndarray, band: float):
    """mag <= CONE_TOL, or None when some magnitude lies within `band` of
    CONE_TOL, where a faster product may have decided it differently."""
    tight = mag <= CONE_TOL + band
    return None if np.count_nonzero(tight) != np.count_nonzero(mag <= CONE_TOL - band) else tight


class _ActiveSets:
    """The active sets of `_clip`'s rays: row i of the bool buffer `inc`,
    over its first `c` columns, is the set of ray i, column j standing for
    halfspace `hs[j]`.  A halfspace has a column while some ray may be tight
    at it, and the columns from `c` on are clear."""

    def __init__(self, a: np.ndarray, n: int, rays: np.ndarray):
        self.a, self.at, self.band = a, a.T.copy(), _band(a, rays)
        self.inc = np.zeros((len(rays), _WIDTH), dtype=bool)
        self.hs = np.empty(_WIDTH, dtype=int)
        self.c = 0
        self.write(0, n, rays)

    def append(self, r: int, n: int, tight: np.ndarray) -> None:
        """Give halfspaces n, n + 1, ... the next columns, set where `tight`."""
        w = tight.shape[1]
        if self.c + w > self.inc.shape[1]:
            self._rebuild(r, len(self.inc), w)
        self.inc[:r, self.c : self.c + w] = tight
        self.hs[self.c : self.c + w] = np.arange(n, n + w)
        self.c += w

    def write(self, lo: int, n: int, rays: np.ndarray) -> None:
        """Set rows lo, lo + 1, ... to the active sets |a[:n] @ ray| <=
        CONE_TOL of `rays`, each decision the one of the matrix-vector
        product per ray: from one GEMM per chunk, unless a value of the
        chunk lies in the band, which sends the chunk's rays to their
        products."""
        hi = lo + len(rays)
        if not hi <= len(self.inc) <= 2 * hi:
            self._rebuild(lo, hi + hi // 4, 0)
        step = max(1, _CHUNK // max(1, n))
        for i in range(lo, hi, step):
            chunk = rays[i - lo : i - lo + step]
            tight = _below(np.abs(chunk @ self.at[:, :n]), self.band)
            if tight is None:
                tight = np.abs((self.a[None, :n] @ chunk[:, :, None])[:, :, 0]) <= CONE_TOL
            self._set(i, tight)

    def _set(self, lo: int, tight: np.ndarray) -> None:
        """Rows lo, lo + 1, ... from their sets over all processed
        halfspaces, read at the halfspaces that have columns."""
        rows = self.inc[lo : lo + len(tight), : self.c]
        rows[:] = np.take(tight, self.hs[: self.c], axis=1)
        if np.count_nonzero(rows) != np.count_nonzero(tight):
            self._revive(lo, tight)
            self._set(lo, tight)

    def _revive(self, lo: int, tight: np.ndarray) -> None:
        """Give a column to each halfspace that `tight` sets and has none."""
        hit = np.logical_or.reduce(tight, axis=0).nonzero()[0]
        self._rebuild(lo, len(self.inc), len(hit))
        gone = np.setdiff1d(hit, self.hs[: self.c], assume_unique=True)
        self.hs[self.c : self.c + len(gone)] = gone
        self.c += len(gone)

    def _rebuild(self, r: int, rows: int, extra: int) -> None:
        """A new buffer of `rows` rows over the columns some ray of the first
        r is tight at, with half as many columns again as those and `extra`."""
        live = np.logical_or.reduce(self.inc[:r, : self.c], axis=0).nonzero()[0]
        c = len(live)
        width = max(_WIDTH, 3 * (c + extra) // 2)
        inc = np.zeros((rows, width), dtype=bool)
        step = max(1, _CHUNK // max(1, c))
        for i in range(0, r, step):
            inc[i : min(i + step, r), :c] = self.inc[i : min(i + step, r), live]
        hs = np.empty(width, dtype=int)
        hs[:c] = self.hs[live]
        self.inc, self.hs, self.c = inc, hs, c


def _clip(a: np.ndarray, n: int, rays: np.ndarray) -> np.ndarray:
    """Insert the halfspaces a[n:], in order, into the rays of {c : a[:n] c >= 0}.

    Each ray's active set, the processed halfspaces tight at it, is a bool
    row over the live columns of a reusable buffer (`_ActiveSets`).  A run
    of halfspaces that no ray violates only marks tight rays, so runs are
    evaluated a block at a time and written with one slice.  A violated
    halfspace keeps the rays on its nonnegative side, positive then zero,
    and appends, for every adjacent pair of a ray p on its positive and q on
    its negative side, the unit ray along vals[p] * q - vals[q] * p.  Only
    the rows after the first ray that moves are copied, and only the new
    rays' rows are written; a halfspace whose column was dropped gets one
    again.  Columns no ray is tight at are dropped when the buffer is full.

    Tight and violated come from one GEMM per block; a block with a value
    within `_band` of CONE_TOL is decided by the 1-d dots `a[t] @ ray`, which
    also give the values that build new rays, so every decision is the one
    those dots make.
    """
    f = a.shape[1]
    sets = _ActiveSets(a, n, rays)
    block = 8
    while n < len(a) and len(rays):
        vals = rays @ sets.at[:, n : n + block]
        tight = _below(np.abs(vals), sets.band)
        if tight is None:
            vals = _row_dots(rays[:, None, :], a[n : n + block])
            tight = np.abs(vals) <= CONE_TOL
        cut = np.logical_or.reduce(vals < -CONE_TOL, axis=0).nonzero()[0]
        run = cut[0] if len(cut) else vals.shape[1]
        # The run's columns and the cut's, which is tight at the zero rays only.
        sets.append(len(rays), n, tight[:, : run + 1])
        n += run
        if not len(cut):
            block = min(2 * block, max(8, _CHUNK // len(rays)))
            continue
        block = 8
        v = _row_dots(rays, a[n])  # each the 1-d `a[n] @ ray`
        positive = v > CONE_TOL
        pos, neg = positive.nonzero()[0], (v < -CONE_TOL).nonzero()[0]
        keep = np.concatenate([pos, tight[:, run].nonzero()[0]])
        p, q = _adjacent_pairs(sets.inc[: len(rays), : sets.c], pos, neg, f)
        new = v[p][:, None] * rays[q] - v[q][:, None] * rays[p]
        nrm = np.sqrt(_row_dots(new, new))
        long = nrm > CONE_TOL
        new = new[long] / nrm[long][:, None]
        n += 1
        rays = np.concatenate([rays[keep], new])
        # The rays before the first one off the positive side keep their rows.
        first = positive.argmin()
        sets.inc[first : len(keep), : sets.c] = sets.inc[keep[first:], : sets.c]
        if len(new):
            sets.write(len(keep), n, new)
    return rays


def _adjacent_pairs(inc: np.ndarray, pos: np.ndarray, neg: np.ndarray, f: int):
    """Ray pairs (p in pos, q in neg), p-major, that pass the combinatorial
    adjacency test: no third ray's active set contains their common one.

    A pair whose common active set has fewer than f - 2 members spans a face
    of dimension at least 3, whose other extremal rays contain that set, so
    only the pairs with at least f - 2 common members get the subset test.
    Common sets lie in the columns tight at some ray of each side, so only
    those are counted, as 0/1 float32 products (exact below 2^24).
    """
    shared = np.logical_or.reduce(inc[pos], axis=0) & np.logical_or.reduce(inc[neg], axis=0)
    act = inc[:, shared.nonzero()[0]].astype(np.float32)
    act_pos, act_neg = act[pos], act[neg]
    i, j = np.nonzero(act_pos @ act_neg.T >= f - 2)
    adjacent = np.empty(len(i), dtype=bool)
    step = max(1, _CHUNK // max(1, *act.shape))
    for lo in range(0, len(i), step):
        both = act_pos[i[lo : lo + step]] * act_neg[j[lo : lo + step]]
        # Rays containing the common set: p and q themselves, and no other.
        contain = (both @ act.T) == both.sum(axis=1, keepdims=True)
        adjacent[lo : lo + step] = contain.sum(axis=1) == 2
    return pos[i[adjacent]], neg[j[adjacent]]


def _finish(rays: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Merge each ray within CONE_TOL of an earlier kept one into it, check
    them against every halfspace, and sort them lexicographically.  The
    distances are `np.linalg.norm(rays[i] - rays[j])`, bit for bit, computed
    a chunk of rows at a time and read as they come."""
    kept: list[int] = []
    step = max(1, _CHUNK // max(1, rays.size))
    for lo in range(0, len(rays), step):
        diff = rays[lo : lo + step, None, :] - rays[None, :, :]
        for i, near in enumerate(np.sqrt(_row_dots(diff, diff)) <= CONE_TOL, lo):
            if not near[kept].any():
                kept.append(i)
    rays = rays[kept]
    if len(rays) == 0:
        return rays
    worst = float((a @ rays.T).min())
    if worst < -10 * CONE_TOL:
        raise NumericalFailureError(f"ray violates a halfspace by {-worst:.3e}")
    return rays[np.lexsort(np.round(rays, 12).T[::-1])]


# ---------------------------------------------------------------------------
# Expansive cone of a framework.

@dataclass(frozen=True, eq=False)
class ExpansiveCone:
    flex_basis: np.ndarray  # (f, dn + d^2)
    halfspace_matrix: np.ndarray  # (k, f), unit rows, deduplicated
    radius: int
    rays: np.ndarray  # (r, f), unit rows, deterministic order

    @property
    def flex_dim(self) -> int:
        return self.flex_basis.shape[0]

    def ray_motion(self, i: int) -> np.ndarray:
        """Lift ray i back to (pdot, lattice-dot) coordinates."""
        return self.rays[i] @ self.flex_basis

    def ray_motions(self) -> np.ndarray:
        return self.rays @ self.flex_basis if len(self.rays) else np.zeros((0, self.flex_basis.shape[1]))


def expansive_cone(
    fw: PeriodicFramework, report: RigidityReport, radius: int = DEFAULT_RADIUS
) -> ExpansiveCone:
    """Halfspace description and extremal rays in flex coordinates.

    Pair rows are composed with the flex basis; rows of norm below CONE_TOL
    are dropped (bars project to zero because flexes preserve them exactly),
    unit rows equal to 9 decimals are merged, and rays come from the double
    description pass.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    f = report.dof
    if f == 0:
        return ExpansiveCone(report.flex_basis, np.zeros((0, 0)), radius, np.zeros((0, 0)))
    if f > MAX_FLEX_DIM:
        raise FlexDimensionTooLargeError(
            f"flex dimension {f} exceeds the ray-enumeration cap {MAX_FLEX_DIM}"
        )
    projected = _unit_halfspaces(enumerate_pairs(fw, radius).rows, report.flex_basis)
    if len(projected) == 0:
        # No pair restricts the flexes at this radius; the cone is all of R^f.
        raise NonPointedConeError("no active pair constraints; cone has full lineality")
    uniq = projected[_first_unique(projected)]
    return ExpansiveCone(report.flex_basis, uniq, radius, extremal_rays(uniq))


def _unit_halfspaces(rows: np.ndarray, flex_basis: np.ndarray) -> np.ndarray:
    """Pair rows in flex coordinates, normalized; rows of norm below
    CONE_TOL (relative to the row, at least 1) are dropped."""
    projected = rows @ flex_basis.T
    scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
    # Each row's norm depends on that row alone, so one pass serves both.
    norms = np.linalg.norm(projected, axis=1)
    keep = norms > CONE_TOL * scale
    return projected[keep] / norms[keep, None]


def _first_unique(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first row of each distinct 9-decimal
    rounding: a stable lexsort puts equal keys (compared as floats, so -0.0
    is 0.0) next to each other in row order, each run led by its first row."""
    keys = np.round(rows, 9)
    order = np.lexsort(keys.T)
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return np.sort(order[first])


# ---------------------------------------------------------------------------
# Flex classification.

class FlexClass(Enum):
    NOT_EXPANSIVE = "not_expansive"
    WEAKLY_EXPANSIVE = "weakly_expansive"
    EFFECTIVELY_EXPANSIVE = "effectively_expansive"


def _flex_verdict(fw: PeriodicFramework, flex, radius: int):
    """(FlexClass, effective orbits) of a checked flex at this radius.

    Thresholds are relative: a pair row counts as strict when its value
    exceeds CONE_TOL * |row| * |flex|, as violated when below the negative of it.
    The effective orbits are those touched by a strict pair.
    """
    flex = _checked_flex(rigidity_matrix(fw), flex, CONE_TOL)
    pairs = enumerate_pairs(fw, radius)
    values = _row_dots(pairs.rows, flex)
    scales = np.sqrt(_row_dots(pairs.rows, pairs.rows)) * np.linalg.norm(flex)
    thresholds = CONE_TOL * scales
    strict = values > thresholds
    if np.any(values < -thresholds):
        cls = FlexClass.NOT_EXPANSIVE
    elif np.any(strict):
        cls = FlexClass.EFFECTIVELY_EXPANSIVE
    else:
        cls = FlexClass.WEAKLY_EXPANSIVE
    touched = np.union1d(pairs.tails[strict], pairs.heads[strict])
    return cls, {pairs.orbits[i] for i in touched}


def classify_flex(fw: PeriodicFramework, flex, radius: int = DEFAULT_RADIUS) -> FlexClass:
    """NotExpansive / WeaklyExpansive / EffectivelyExpansive at this radius,
    with the relative thresholds of `_flex_verdict`."""
    return _flex_verdict(fw, flex, radius)[0]


@dataclass(frozen=True, eq=False)
class PointednessReport:
    analyses: dict[str, ConeAnalysis]

    @property
    def passed(self) -> bool:
        return all(a.pointed_codim2 for a in self.analyses.values())


def verify_pointedness(
    fw: PeriodicFramework, flex, radius: int = DEFAULT_RADIUS
) -> PointednessReport:
    """Check codim-2 pointedness of every effective vertex star.

    The flex must classify as effectively expansive; a failure on a genuine
    expansive flex indicates a numerical or modeling bug, never a valid state.
    """
    cls, effective = _flex_verdict(fw, flex, radius)
    if cls is not FlexClass.EFFECTIVELY_EXPANSIVE:
        raise ValueError(f"flex classifies as {cls.value}, not effectively expansive")
    analyses = {}
    for orbit in sorted(effective):
        analyses[orbit] = analyze_star(vertex_star(fw, orbit), fw.dimension)
    return PointednessReport(analyses)


# ---------------------------------------------------------------------------
# Radius stability.

def find_stable_radius(fw: PeriodicFramework, cone: ExpansiveCone, max_radius: int = 6) -> int:
    """Smallest R >= cone.radius whose rays are not cut by the pairs of radius R + 1.

    The truncated cone at R + 1 is the cone at R cut by the new shell of
    pairs, those whose shift has max-norm R + 1.  So R is stable exactly when
    no ray at R violates a merged shell halfspace by more than CONE_TOL;
    otherwise the merged shell is inserted into the rays at R and the next
    radius is probed.  The merged rows are some of the shell rows with the
    same values, so the shell is merged only once some row of it is violated,
    and the merged rows are tested by their columns of the shell's one product.
    """
    if cone.radius > max_radius:
        raise ValueError(f"cone radius {cone.radius} exceeds max_radius {max_radius}")
    a, rays = cone.halfspace_matrix, cone.rays
    for radius in range(cone.radius, max_radius + 1):
        if not len(rays):
            return radius
        shell = _shell_halfspaces(fw, cone.flex_basis, radius + 1)
        cuts = _row_dots(rays[:, None, :], shell) < -CONE_TOL
        if not cuts.any():
            return radius
        # The merged shell: the first row of each 9-decimal key new to `a`.
        first = _first_unique(np.concatenate([a, shell])) - len(a)
        first = first[first >= 0]
        if not cuts[:, first].any():
            return radius
        n, a = len(a), np.concatenate([a, shell[first]])
        rays = _finish(_clip(a, n, rays), a)
    raise NumericalFailureError(
        f"ray set still changing between radius {max_radius} and {max_radius + 1}"
    )


def _shell_halfspaces(fw: PeriodicFramework, flex_basis: np.ndarray, radius: int) -> np.ndarray:
    """Unit halfspaces of the pairs whose shift has max-norm exactly `radius`."""
    orbits, d = fw.graph.vertex_orbits, fw.dimension
    rows = _pair_set(fw, *_pair_incidence(orbits, d, radius, shell=True)).rows
    return _unit_halfspaces(rows, flex_basis)


# ---------------------------------------------------------------------------
# Serialization.

def cone_report_json(cone: ExpansiveCone, stable_radius: int) -> str:
    return (
        f'{{"flex_dim": {cone.flex_dim}, "radius": {cone.radius}, '
        f'"stable_radius": {stable_radius}, "num_halfspaces": {len(cone.halfspace_matrix)}, '
        f'"rays": {_json_matrix(cone.rays)}, "ray_motions": {_json_matrix(cone.ray_motions())}}}'
    )


def write_pair_audit_csv(fw: PeriodicFramework, cone: ExpansiveCone, path) -> None:
    """Per-pair audit at the cone's radius: the norm of each pair row
    projected to the cone's flex coordinates.

    Zero means the pair does not restrict the flex space (bars in particular).
    """
    pairs = enumerate_pairs(fw, cone.radius)
    d = fw.dimension
    header = ["orbit_a", "orbit_b"] + [f"shift_{i + 1}" for i in range(d)] + ["value"]
    # One vector-matrix product per row, bit for bit `row @ flex_basis.T`.
    projected = (pairs.rows[:, None, :] @ cone.flex_basis.T)[:, 0, :]
    values = np.sqrt(_row_dots(projected, projected)).tolist()
    names = np.array([_csv_field(o) for o in pairs.orbits], dtype=object)
    columns = [names[pairs.tails].tolist(), names[pairs.heads].tolist()]
    columns += [map(str, pairs.shifts[:, c].tolist()) for c in range(d)]
    columns.append(map(format, values, itertools.repeat(".12g")))
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n")
