"""Infinitesimal expansive cone of a periodic framework.

A motion is expansive when the distance between every pair of joints is
nondecreasing.  For a quotient description that quantifies over all pairs of
vertex-orbit translates; here the pair set is truncated to lattice shifts
with max-norm at most a radius R.  A pair is a (tail index, head index,
integer shift) triple of `_pair_incidence` and its constraint row, built by
the incidence core of the rigidity matrix's bars (`_pair_rows`).  The pairs
come only as one stream of (tails, heads, rows) arrays in the canonical
order (`_pair_chunks`, chunks of 1,024 to 2,047 pairs), of which the cone,
the radius probe and the flex verdict keep only what each needs of a chunk,
so no array spans the pair set; `pair_constraint` gives one pair's row.
Each step is per pair, so its bits do not depend on the chunk, except the
projection's matrix product, whose rows are observed, not proved, to be the
one product's for chunks of 512 rows or more.  The halfspace rows are
expressed in the coordinates of the nontrivial flex basis (trivial motions
satisfy every pair row with equality and would only add spurious lineality).
A row is kept, as the pairs stream, when its 9-decimal key is not yet in
the set of keys seen before it (`_merge_new`), so halfspaces that round
alike are merged, the first kept.  Extremal rays come from a double
description pass over the merged halfspaces (`_DoubleDescription`), each
ray's active set a bool row over the processed halfspaces that some ray is
tight at or may become tight at, which one rule decides at each rebuild.
The double description is array code that makes the decisions of the
one-row, one-ray loop it replaced, in the same order, and builds every ray
with the same floating-point operations, so the rays are bit for bit that
loop's.  A tight-or-violated decision may be read from a faster product (a
GEMM) only when every value it reads lies outside a band of twice
gamma_(f+1) around its threshold, wider than any difference in rounding
between the two products (Higham, section 3.1); the values inside the band
are recomputed by the loop's product.  The stability probe makes truncation
bias observable: the cone at R + 1 is the cone at R cut by the halfspaces of
the new shell of pairs, so R is stable when no ray at R violates one of
them.  Every float decision of this layer uses the one module tolerance
``CONE_TOL``.
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
from .framework import EdgeOrbit, PeriodicFramework, _integer_shift, _json
from .framework import _check_count, _row_dots, _separations, _write_pair_table
from .rigidity import RigidityReport, _checked_flex, _incidence_rows, rigidity_matrix

DEFAULT_RADIUS = 2
CONE_TOL = 1e-9
MAX_FLEX_DIM = 6


def _pair_rows(fw: PeriodicFramework, tails, heads, shifts) -> np.ndarray:
    """Constraint rows of the pairs k: (a, b, w) = (tails[k], heads[k],
    shifts[k]) joins vertex orbit a to orbit b translated by the shift w.

    Its separation is s = p_b + lattice w - p_a, and its row evaluates a
    motion u to <s, pdot_b + ldot w - pdot_a>, so the truncated pair
    inequality is row . u >= 0.  The row is invariant under orientation
    reversal, and pairs are taken with (a, b, w) lexicographically minimal
    versus (b, a, -w).  Same-orbit pairs with w a generator shift encode
    period length constraints.
    """
    positions = np.array([fw.placement.positions[o] for o in fw.graph.vertex_orbits])
    w = shifts.astype(float)
    s = _separations(positions, fw.placement.lattice, tails, heads, w)
    return _incidence_rows(fw.n, tails, heads, w, s)


def pair_constraint(fw: PeriodicFramework, a: str, b: str, shift) -> np.ndarray:
    """The constraint row (dn + d^2,) of the pair (a, b, shift), in the
    stream's orientation, that of its key ``EdgeOrbit(a, b, shift).canonical()``.
    The shift is checked as a bar's: one that is not integral is a
    FrameworkError, a wrong length a DimensionMismatchError; a vertex paired
    with itself at shift zero is a FrameworkError."""
    shift = _integer_shift(shift, fw.dimension, f"pair ({a}, {b})")
    if a == b and all(c == 0 for c in shift):
        raise FrameworkError(f"({a}, {b}, {shift}) pairs a vertex with itself")
    a, b, shift = EdgeOrbit(a, b, shift).canonical()
    ends = np.array([fw.orbit_index(a)]), np.array([fw.orbit_index(b)])
    return _pair_rows(fw, *ends, np.array([shift]))[0]


# Pairs per chunk of the pair stream; the last chunk also takes the rest, so
# every chunk holds _PAIR_CHUNK to 2 * _PAIR_CHUNK - 1 pairs unless the whole
# set is smaller.
_PAIR_CHUNK = 1024


def _pair_incidence(orbits, d: int, radius: int, shell: bool = False):
    """(tail index, head index, integer shift) arrays of the canonical pairs,
    one triple per chunk of `_PAIR_CHUNK` pairs, the last chunk with the
    rest, in the blocks of `_pair_blocks`: each a < b (sorted orbits) over
    the lexicographic shift box, then each (a, a) over the shifts before the
    box's centre, the w < -w half.  With `shell`, only the shifts of max-norm
    exactly `radius`; the filter keeps w and -w together, so the shell's
    shifts before the centre are its w < -w half.  The box is walked a
    window at a time, its last k coordinates running through a sub-box of
    _PAIR_CHUNK to (2 radius + 1) _PAIR_CHUNK shifts (the whole box if it is
    smaller) while the first d - k are fixed, so no array spans the whole
    set; the chunks are cut from the pair order, not from the box."""
    _check_count(radius, "radius", 1)
    width, k = 2 * radius + 1, 1
    while k < d and width**k < _PAIR_CHUNK:
        k += 1
    tail = np.indices((width,) * k).reshape(k, -1).T - radius
    tail_on_shell = np.abs(tail).max(axis=1) == radius
    leads = list(itertools.product(range(-radius, radius + 1), repeat=d - k))
    held, count = [], 0
    for a, b, stop in _pair_blocks(orbits, d, radius):
        for lo, lead in zip(range(0, stop, len(tail)), leads):
            rows = tail[: stop - lo]
            if shell and max(map(abs, lead), default=0) < radius:
                rows = rows[tail_on_shell[: len(rows)]]
            w = np.empty((len(rows), d), dtype=int)
            w[:, : d - k], w[:, d - k :] = lead, rows
            held.append((np.full(len(w), a), np.full(len(w), b), w))
            count += len(w)
            if count >= 2 * _PAIR_CHUNK:
                # Hold back _PAIR_CHUNK to 2 * _PAIR_CHUNK - 1 pairs: the last chunk takes the rest.
                merged = [np.concatenate(x) for x in zip(*held)]
                cut = (count // _PAIR_CHUNK - 1) * _PAIR_CHUNK
                for i in range(0, cut, _PAIR_CHUNK):
                    yield tuple(x[i : i + _PAIR_CHUNK] for x in merged)
                held, count = [tuple(x[cut:] for x in merged)], count - cut
    yield tuple(np.concatenate(x) for x in zip(*held))


def _pair_blocks(orbits, d: int, radius: int) -> list[tuple[int, int, int]]:
    """(tail, head, pair count) of the stream's blocks in stream order: every
    a < b (sorted orbits) over the (2 radius + 1)^d shifts of the box, then
    every (a, a) over its first half, each in the box's lexicographic order."""
    order, box = sorted(range(len(orbits)), key=lambda i: orbits[i]), (2 * radius + 1) ** d
    return [(a, b, box) for a, b in itertools.combinations(order, 2)] + [(a, a, box // 2) for a in order]


def _pairs_at(orbits, d: int, radius: int, index: np.ndarray):
    """(tail index, head index, integer shift) arrays of the pairs of
    `_pair_incidence(orbits, d, radius)` at the stream positions `index`."""
    tails, heads, counts = np.array(_pair_blocks(orbits, d, radius)).T
    ends = np.cumsum(counts)
    block = np.searchsorted(ends, index, side="right")
    box = np.unravel_index(index - ends[block] + counts[block], (2 * radius + 1,) * d)
    return tails[block], heads[block], np.stack(box, axis=1) - radius


def _pair_chunks(fw: PeriodicFramework, radius: int, shell: bool = False):
    """The canonical pairs as (tails, heads, rows), one per chunk of
    `_pair_incidence`; every row is the whole set's, bit for bit."""
    for tails, heads, shifts in _pair_incidence(fw.graph.vertex_orbits, fw.dimension, radius, shell):
        yield tails, heads, _pair_rows(fw, tails, heads, shifts)


def _pair_keys(orbits, tails, heads, shifts) -> list[tuple[str, str, tuple[int, ...]]]:
    names = np.array(orbits, dtype=object)
    return list(zip(names[tails].tolist(), names[heads].tolist(), map(tuple, shifts.tolist())))


# ---------------------------------------------------------------------------
# Double description.

def _independent_rows(a: np.ndarray, f: int) -> list[int]:
    chosen: list[int] = []
    basis = np.zeros((0, f))
    for i, row in enumerate(a):
        residual = row - basis.T @ (basis @ row)
        norm = np.linalg.norm(residual)
        if norm > CONE_TOL:
            basis = np.vstack([basis, residual / norm])
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
    if not np.all(np.isfinite(a)):
        raise ValueError("halfspaces must be finite")
    f = a.shape[1]
    if f < 1:
        raise ValueError("cone dimension must be positive")
    if f > MAX_FLEX_DIM:
        raise FlexDimensionTooLargeError(
            f"ray enumeration disabled for dimension {f} > {MAX_FLEX_DIM}"
        )
    a = a[np.linalg.norm(a, axis=1) > CONE_TOL]
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
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
    return _finish(_DoubleDescription(ordered, f, rays).insert(), a)


# Entries per chunk of the ray x row and pair x ray blocks: a few MB at most.
_CHUNK = 1 << 17
# Starting column count of the double description's incidence buffer.
_WIDTH = 256
# A rebuild keeps the column of a processed halfspace no ray is tight at
# while the rays' smallest value at it is at most this; the margin over
# CONE_TOL is argued in `_DoubleDescription`.
_NEAR = CONE_TOL + 1e-10
# The cuts that margin covers; from this many on, a rebuild keeps every column.
_NEAR_CUTS = 90_000


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


class _DoubleDescription:
    """The rays of {c : a[:n] c >= 0} and each ray's active set, the
    processed halfspaces tight at it, both changed here only and together.
    Row i of the bool buffer `inc`, over its first `c` columns, is the set
    of ray i, column j standing for halfspace `hs[j]`, whose row is `ha[j]`;
    the columns from `c` on are clear.  A new ray's set is computed at the
    columns only.

    `_rebuild` alone decides which processed halfspaces have a column: h
    keeps its column while some ray is tight at it or the smallest value of
    a[h] @ ray over the current rays, computed afresh, is at most `_NEAR`.
    Every later ray is (v_p q - v_q p) / N for current unit rays p, q,
    v_p > 0 > v_q and N <= v_p + |v_q|, so in exact arithmetic it keeps
    a[h] @ ray at or above that minimum (Fukuda and Prodon, Double
    description method revisited, 1996).  In floating point a generation of
    rays loses about 10 units of roundoff from the bound, itself a GEMM value
    within gamma_f of the dot, and a pass makes at most one generation per
    cut, so the 1e-10 margin covers some 9 x 10^4 cuts (d = 6, R = 4 makes
    12,633): a product not taken is one the reference calls not tight, and
    the bits do not change.  `cuts` counts them from n - f, at least the
    cuts that made the starting rays (the probe continues the cone's pass),
    and from `_NEAR_CUTS` on no column is dropped, which changes no decision.
    """

    def __init__(self, a: np.ndarray, n: int, rays: np.ndarray):
        self.a, self.n, self.rays, self.band = a, n, rays, _band(a, rays)
        self.cuts = n - a.shape[1]
        # No ray's set yet: the first rebuild keeps halfspaces by their minima.
        self.inc, self.hs, self.ha, self.c = np.zeros((0, n), dtype=bool), np.arange(n), a[:n], n
        self._rebuild(0, len(rays), 0)
        self.write(0)

    def insert(self) -> np.ndarray:
        """Insert the halfspaces a[n:], in order, and return the rays.

        A run of halfspaces that no ray violates only marks tight rays, so
        runs are evaluated a block at a time and written with one slice.  A
        violated halfspace keeps the rays on its nonnegative side, positive
        then zero, and appends, for every adjacent pair of a ray p on its
        positive and q on its negative side, the unit ray along
        vals[p] * q - vals[q] * p.  Only the rows after the first ray that
        moves are copied, and only the new rays' rows are written.

        Tight and violated come from one GEMM per block; a block with a value
        within `_band` of CONE_TOL is decided by the 1-d dots `a[t] @ ray`,
        which also give the values that build new rays, so every decision is
        the one those dots make.  A halfspace is violated when the smallest
        value of its column is below -CONE_TOL.
        """
        a, f, block, rays = self.a, self.a.shape[1], 8, self.rays
        # One errstate a pass: `_adjacent_pairs` checks its counts instead.
        with np.errstate(invalid="ignore"):
            while self.n < len(a) and len(rays):
                vals = rays @ a[self.n : self.n + block].T
                tight = _below(np.abs(vals), self.band)
                if tight is None:
                    vals = _row_dots(rays[:, None, :], a[self.n : self.n + block])
                    tight = np.abs(vals) <= CONE_TOL
                cut = (vals.min(axis=0) < -CONE_TOL).nonzero()[0]
                run = cut[0] if len(cut) else vals.shape[1]
                # The run's columns and the cut's, which is tight at the zero rays only.
                self.append(tight[:, : run + 1])
                self.n += run
                if not len(cut):
                    block = min(2 * block, max(8, _CHUNK // len(rays)))
                    continue
                block, self.cuts = 8, self.cuts + 1
                v = _row_dots(rays, a[self.n])  # each the 1-d `a[n] @ ray`
                positive = v > CONE_TOL
                pos, neg = positive.nonzero()[0], (v < -CONE_TOL).nonzero()[0]
                keep = np.concatenate([pos, tight[:, run].nonzero()[0]])
                p, q = _adjacent_pairs(self.inc[: len(rays), : self.c], pos, neg, f)
                new = v[p][:, None] * rays[q] - v[q][:, None] * rays[p]
                nrm = np.sqrt(_row_dots(new, new))
                long = nrm > CONE_TOL
                new = new[long] / nrm[long][:, None]
                self.n += 1
                rays = self.rays = np.concatenate([rays[keep], new])
                # The rays before the first one off the positive side keep their rows.
                first = positive.argmin()
                self.inc[first : len(keep), : self.c] = self.inc[keep[first:], : self.c]
                if len(new):
                    self.write(len(keep))
        return self.rays

    def append(self, tight: np.ndarray) -> None:
        """Give halfspaces n, n + 1, ... the next columns, set where `tight`."""
        w = tight.shape[1]
        if self.c + w > self.inc.shape[1]:
            self._rebuild(len(self.rays), len(self.inc), w)
        self.inc[: len(self.rays), self.c : self.c + w] = tight
        self.hs[self.c : self.c + w] = np.arange(self.n, self.n + w)
        self.ha[self.c : self.c + w] = self.a[self.n : self.n + w]
        self.c += w

    def write(self, lo: int) -> None:
        """Set rows lo, lo + 1, ... to the active sets |a[:n] @ ray| <=
        CONE_TOL of rays[lo:], each decision the one of the matrix-vector
        product per ray: from one GEMM per chunk at the columns, unless a
        value of the chunk lies in the band, which sends the chunk's rays to
        their products."""
        hi = len(self.rays)
        if not hi <= len(self.inc) <= 2 * hi:
            self._rebuild(lo, hi + hi // 4, 0)
        step = max(1, _CHUNK // max(1, self.c))
        for i in range(lo, hi, step):
            chunk = self.rays[i : i + step]
            tight = _below(np.abs(chunk @ self.ha[: self.c].T), self.band)
            if tight is None:
                dots = (self.a[None, : self.n] @ chunk[:, :, None])[:, self.hs[: self.c], 0]
                tight = np.abs(dots) <= CONE_TOL
            self.inc[i : i + len(chunk), : self.c] = tight

    def _rebuild(self, r: int, rows: int, extra: int) -> None:
        """A new buffer of `rows` rows over the columns some ray of the first
        r is tight at or whose minimum over the rays is at most `_NEAR` (all
        of them past `_NEAR_CUTS` cuts), with half as many columns again as
        those and `extra`."""
        keep = np.logical_or.reduce(self.inc[:r, : self.c], axis=0) | (self.cuts >= _NEAR_CUTS)
        loose = (~keep).nonzero()[0]
        step = max(1, _CHUNK // max(1, len(self.rays)))
        for i in range(0, len(loose), step):
            cols = loose[i : i + step]
            keep[cols] = (self.rays @ self.ha[cols].T).min(axis=0, initial=np.inf) <= _NEAR
        live = keep.nonzero()[0]
        c = len(live)
        width = max(_WIDTH, 3 * (c + extra) // 2)
        inc = np.zeros((rows, width), dtype=bool)
        inc[:r, :c] = self.inc[:r, live]
        hs, ha = np.empty(width, dtype=int), np.empty((width, self.a.shape[1]))
        hs[:c], ha[:c] = self.hs[live], self.ha[live]
        self.inc, self.hs, self.ha, self.c = inc, hs, ha, c


def _adjacent_pairs(inc: np.ndarray, pos: np.ndarray, neg: np.ndarray, f: int):
    """Ray pairs (p in pos, q in neg), p-major, that pass the combinatorial
    adjacency test: no third ray's active set contains their common one.

    A pair whose common active set has fewer than f - 2 members spans a face
    of dimension at least 3, whose other extremal rays contain that set, so
    only the pairs with at least f - 2 common members get the subset test.
    Common sets lie in the columns some negative ray is tight at, so all
    rays are read at only those, and counted as 0/1 float32 products (exact
    below 2^24).  An sgemm has raised the invalid flag on these finite
    operands, so the flag is ignored (by the caller, once a pass) and a
    count above the column count (or NaN) raises instead.
    """
    act = inc[:, np.logical_or.reduce(inc[neg], axis=0).nonzero()[0]].astype(np.float32)
    act_pos, act_neg = act[pos], act[neg]
    common = act_pos @ act_neg.T
    if not common.max(initial=0) <= act.shape[1]:
        raise NumericalFailureError(f"a common-set count exceeds the {act.shape[1]} columns")
    i, j = np.nonzero(common >= f - 2)
    del common  # the pos x neg counts are not needed by the subset tests
    adjacent = np.empty(len(i), dtype=bool)
    step = max(1, _CHUNK // max(1, *act.shape))
    for lo in range(0, len(i), step):
        both = act_pos[i[lo : lo + step]] * act_neg[j[lo : lo + step]]
        counts = both @ act.T
        if not counts.max(initial=0) <= act.shape[1]:
            raise NumericalFailureError(f"a containment count exceeds the {act.shape[1]} columns")
        # Rays containing the common set: p and q themselves, and no other.
        contain = counts == both.sum(axis=1, keepdims=True)
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
    worst = float((a @ rays.T).min(initial=np.inf))
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
        return self.rays @ self.flex_basis


def expansive_cone(
    fw: PeriodicFramework, report: RigidityReport, radius: int = DEFAULT_RADIUS, pairs_csv=None
) -> ExpansiveCone:
    """Halfspace description and extremal rays in flex coordinates.

    Pair rows are composed with the flex basis; rows of norm below CONE_TOL
    are dropped (bars project to zero because flexes preserve them exactly),
    unit rows equal to 9 decimals are merged, and rays come from the double
    description pass.  The pairs come a chunk at a time (`_pair_chunks`);
    only their merged unit rows are kept and, unless `pairs_csv` is None, each
    pair's audit value, which is written there after the double description
    (`_write_pair_audit`).
    """
    _check_count(radius, "radius", 1)
    f = report.dof
    if f > MAX_FLEX_DIM:
        raise FlexDimensionTooLargeError(
            f"flex dimension {f} exceeds the ray-enumeration cap {MAX_FLEX_DIM}"
        )
    seen, kept, values = set(), [], []
    for _, _, rows in _pair_chunks(fw, radius) if f or pairs_csv is not None else ():
        if f:
            kept.append(_merge_new(seen, _unit_halfspaces(rows, report.flex_basis)))
        if pairs_csv is not None:
            # One vector-matrix product per row, bit for bit `row @ flex_basis.T`.
            projected = (rows[:, None, :] @ report.flex_basis.T)[:, 0, :]
            values.append(np.sqrt(_row_dots(projected, projected)))
    del seen  # only the merged rows live through the double description
    uniq = np.concatenate(kept) if f else np.zeros((0, 0))
    del kept
    if f and len(uniq) == 0:
        # No pair restricts the flexes at this radius; the cone is all of R^f.
        raise NonPointedConeError("no active pair constraints; cone has full lineality")
    rays = extremal_rays(uniq) if f else uniq
    cone = ExpansiveCone(report.flex_basis, uniq, radius, rays)
    if pairs_csv is not None:
        _write_pair_audit(fw, radius, values, pairs_csv)
    return cone


def _unit_halfspaces(rows: np.ndarray, flex_basis: np.ndarray) -> np.ndarray:
    """Pair rows in flex coordinates, normalized; rows of norm below
    CONE_TOL (relative to the row, at least 1) are dropped.  Callers pass one
    chunk of the pair stream at a time; each row's norms are the ones of its
    own reductions, whatever the chunk."""
    projected = rows @ flex_basis.T
    with np.errstate(over="ignore"):  # an overflowed scale is reported below
        scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        norms = np.linalg.norm(projected, axis=1)
    if not np.isfinite(scale).all():
        raise NumericalFailureError("pair row norm is not finite; coordinates too large for a relative test")
    keep = norms > CONE_TOL * scale
    return projected[keep] / norms[keep, None]


def _merge_new(seen: set, rows: np.ndarray) -> np.ndarray:
    """The rows whose key, the bytes of np.round(row, 9) + 0.0 (-0.0 is 0.0),
    is not in `seen`, the first of each; their keys join `seen`, so chunks
    merged in turn keep the first row of each key of the whole stream."""
    keys = np.round(rows, 9) + 0.0
    new = []
    for i, key in enumerate(keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel().tolist()):
        if key not in seen:
            seen.add(key)
            new.append(i)
    return rows[new]


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
    _check_count(radius, "radius", 1)
    flex = _checked_flex(rigidity_matrix(fw), flex, CONE_TOL)
    flex_norm, violated, touched = np.linalg.norm(flex), False, set()
    for tails, heads, rows in _pair_chunks(fw, radius):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed scale is reported below
            values = _row_dots(rows, flex)
            thresholds = CONE_TOL * (np.sqrt(_row_dots(rows, rows)) * flex_norm)
        if not np.isfinite(thresholds).all():
            raise NumericalFailureError("pair test scale is not finite; coordinates too large for a relative test")
        strict = values > thresholds
        violated = violated or bool(np.any(values < -thresholds))
        touched.update(tails[strict].tolist(), heads[strict].tolist())
    if violated:
        cls = FlexClass.NOT_EXPANSIVE
    elif touched:
        cls = FlexClass.EFFECTIVELY_EXPANSIVE
    else:
        cls = FlexClass.WEAKLY_EXPANSIVE
    return cls, {fw.graph.vertex_orbits[i] for i in touched}


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
    radius is probed.  The shell is streamed a chunk at a time and each chunk
    is tested and dropped; only when some row cuts a ray is the shell streamed
    again and merged chunk by chunk against the cone's halfspaces
    (`_merge_new`), and the merged rows tested.
    """
    _check_count(max_radius, "max_radius", 1)
    if cone.radius > max_radius:
        raise ValueError(f"cone radius {cone.radius} exceeds max_radius {max_radius}")
    a, rays = cone.halfspace_matrix, cone.rays
    for radius in range(cone.radius, max_radius + 1):
        if not len(rays):
            return radius
        chunks = _shell_halfspaces(fw, cone.flex_basis, radius + 1)
        if not any((_row_dots(rays[:, None, :], rows) < -CONE_TOL).any() for rows in chunks):
            return radius
        # The merged shell: the first row of each 9-decimal key new to `a`.
        seen = set()
        _merge_new(seen, a)
        shell = [_merge_new(seen, rows) for rows in _shell_halfspaces(fw, cone.flex_basis, radius + 1)]
        del seen
        if not any((_row_dots(rays[:, None, :], rows) < -CONE_TOL).any() for rows in shell):
            return radius
        n, a = len(a), np.concatenate([a, *shell])
        rays = _finish(_DoubleDescription(a, n, rays).insert(), a)
    raise NumericalFailureError(
        f"ray set still changing between radius {max_radius} and {max_radius + 1}"
    )


def _shell_halfspaces(fw: PeriodicFramework, flex_basis: np.ndarray, radius: int):
    """Unit halfspaces of the pairs whose shift has max-norm exactly
    `radius`, one array per chunk of `_pair_chunks`."""
    for _, _, rows in _pair_chunks(fw, radius, shell=True):
        yield _unit_halfspaces(rows, flex_basis)


# ---------------------------------------------------------------------------
# Serialization.

def cone_report_json(cone: ExpansiveCone, stable_radius: int) -> str:
    return _json({"flex_dim": cone.flex_dim, "radius": cone.radius, "stable_radius": stable_radius,
                  "num_halfspaces": len(cone.halfspace_matrix), "rays": cone.rays, "ray_motions": cone.ray_motions()})


def _write_pair_audit(fw: PeriodicFramework, radius: int, values: list[np.ndarray], path) -> None:
    """Per-pair audit CSV of the cone's pairs, the pair stream at `radius`:
    each pair's key and its entry of `values`, an array per chunk of the
    stream: the norm of its row projected to the flex coordinates.  The keys
    come from a second pass of `_pair_incidence`, which builds no rows.

    Zero means the pair does not restrict the flex space (bars in particular).
    """
    orbits, d = fw.graph.vertex_orbits, fw.dimension
    chunks = ((*pairs, chunk) for pairs, chunk in zip(_pair_incidence(orbits, d, radius), values, strict=True))
    _write_pair_table(path, orbits, d, ["value"], chunks)
