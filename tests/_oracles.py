"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately implemented from first principles with no
code shared with the package: exact Gaussian elimination over Fractions,
Fourier-Motzkin elimination for linear feasibility, a revised Phase-I simplex
over Fractions, a frozen copy of the row-by-row float and fraction-free
Phase-I tableaus the feasibility oracle must reproduce bit for bit, an
angular sweep for two-dimensional cones, a per-pair loop over the plain
separation formula p_b + L w - p_a, a frozen copy of the loop-and-bitmask halfspace merge and double description the cone layer
must reproduce bit for bit, the first rows of each 9-decimal key by
``np.unique``, a brute-force (f-1)-subset ray enumeration, a completeness
check of a simplicial cone by its facet normals,
a comparison of ray sets up to an angular tolerance, a frozen copy of the
frame writers that format one value at a time, a frozen copy of the pair
audit and its table keyed and sorted one pair at a time, the motion gauge's free
coordinates by the index formula of the (dn + d^2) layout, a frozen copy of the
per-plane trivial-motion loop, and a frozen copy of the f-string JSON writers
of the framework file and the rigidity, star and cone reports.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np


def exact_rank(rows) -> int:
    """Rank by fraction-free Gaussian elimination over exact rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = mat[row][col]
        for r in range(n_rows):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def _rational(x) -> Fraction:
    """x as a Fraction of Python ints: Fraction(np.int64(3)) would keep the
    numpy integer as its numerator, which overflows and does not hash."""
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def fourier_motzkin_feasible(ineqs, eqs=(), eq_rhs=(), ineq_rhs=None) -> bool:
    """Feasibility of {A x >= b, C x = d} by exact variable elimination.

    `ineqs` rows with right-hand sides `ineq_rhs` (default 0).  Each equality
    is solved for its first variable, which is substituted into every other
    row.  Then the variable with the fewest positive x negative pairs is
    eliminated, repeatedly.  After s eliminations a combined row that derives
    from more than s + 1 of the substituted inequalities is implied by the
    other rows (Chernikov's rule), so it is dropped, and so is a row equal to
    one whose sources are a subset of its own, since each row it would make
    is then made with those fewer sources too.  Exponential in general; fine
    for the small systems used in tests.
    """
    if ineq_rhs is None:
        ineq_rhs = [0] * len(ineqs)
    rows = [[_rational(x) for x in r] + [_rational(b)] for r, b in zip(ineqs, ineq_rhs)]
    pending = [[_rational(x) for x in r] + [_rational(b)] for r, b in zip(eqs, eq_rhs)]
    while pending:
        eq = pending.pop()
        col = next((j for j, x in enumerate(eq[:-1]) if x != 0), None)
        if col is None:
            if eq[-1] != 0:
                return False
            continue

        def substituted(row, eq=eq, col=col):
            f = row[col] / eq[col]
            return [a - f * b for a, b in zip(row, eq)]

        pending = [substituted(r) for r in pending]
        rows = [substituted(r) for r in rows]

    def normalized(row):
        lead = next(abs(x) for x in row[:-1] if x != 0)
        return tuple(x / lead for x in row)

    n_vars = len(rows[0]) - 1 if rows else 0
    live = [(row, frozenset([i])) for i, row in enumerate(rows)]
    eliminated = 0
    while True:
        kept = {}
        for row, sources in live:
            if all(x == 0 for x in row[:-1]):
                if row[-1] > 0:
                    return False
                continue
            equal = kept.setdefault(normalized(row), [])
            if not any(other <= sources for _, other in equal):
                equal[:] = [(r, other) for r, other in equal if not sources <= other] + [(row, sources)]
        live = [entry for equal in kept.values() for entry in equal]
        present = [j for j in range(n_vars) if any(row[j] != 0 for row, _ in live)]
        if not present:
            return True

        def pairs(j):
            return sum(row[j] > 0 for row, _ in live) * sum(row[j] < 0 for row, _ in live)

        col = min(present, key=pairs)
        eliminated += 1
        pos = [(row, sources) for row, sources in live if row[col] > 0]
        neg = [(row, sources) for row, sources in live if row[col] < 0]
        live = [(row, sources) for row, sources in live if row[col] == 0]
        for p, p_sources in pos:
            for q, q_sources in neg:
                sources = p_sources | q_sources
                if len(sources) <= eliminated + 1:
                    live.append(([-q[col] * a + p[col] * b for a, b in zip(p, q)], sources))


def bland_phase_one_point(eqs, eq_rhs, lower_bounds, ineqs=(), ineq_rhs=()):
    """Phase-I simplex point of {C x = d, A x >= b, x_i >= lb_i}, or None.

    A revised simplex over Fractions with an explicit basis inverse, written
    to the textbook conventions the library documents for its oracle, so its
    vertex is the library's vertex:
    - slack s_i >= 0 turns row i of A x >= b into A_i x - s_i = b_i; slacks
      follow the variables;
    - a variable with bound lb becomes y = x - lb >= 0, a free variable the
      pair y+ - y- of adjacent columns;
    - a row whose right-hand side is negative is negated, and each row gets
      an artificial column, the starting basis, after all other columns;
    - Bland's rule: the entering column is the lowest-index column with
      negative reduced cost for the cost "sum of artificials"; the leaving
      row is the minimum ratio, ties going to the lowest basic index.
    """
    n = len(lower_bounds)
    k = len(ineqs)
    bounds = [None if lb is None else _rational(lb) for lb in lower_bounds] + [Fraction(0)] * k
    constraints = [([_rational(c) for c in row] + [Fraction(0)] * k, _rational(rhs))
                   for row, rhs in zip(eqs, eq_rhs)]
    for i, (row, rhs) in enumerate(zip(ineqs, ineq_rhs)):
        coeffs = [_rational(c) for c in row] + [Fraction(0)] * k
        coeffs[n + i] = Fraction(-1)
        constraints.append((coeffs, _rational(rhs)))

    # columns[j] is the j-th standard-form column as a list over rows.
    m = len(constraints)
    columns, plus_col = [], []
    for var, lb in enumerate(bounds):
        plus_col.append(len(columns))
        column = [coeffs[var] for coeffs, _ in constraints]
        columns.append(column)
        if lb is None:
            columns.append([-c for c in column])
    b = [rhs - sum(c * lb for c, lb in zip(coeffs, bounds) if lb is not None)
         for coeffs, rhs in constraints]
    for r in range(m):
        if b[r] < 0:
            b[r] = -b[r]
            for column in columns:
                column[r] = -column[r]
    n_real = len(columns)
    for r in range(m):
        columns.append([Fraction(int(i == r)) for i in range(m)])

    basis = list(range(n_real, n_real + m))
    inverse = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    values = list(b)
    while True:
        # Duals of the cost vector: 1 on artificial columns, 0 elsewhere.
        duals = [sum(inverse[i][r] for i in range(m) if basis[i] >= n_real) for r in range(m)]
        entering = None
        for j, column in enumerate(columns):
            if (j >= n_real) - sum(y * a for y, a in zip(duals, column) if a) < 0:
                entering = j
                break
        if entering is None:
            break
        direction = [sum(v * a for v, a in zip(inverse[i], columns[entering]) if a) for i in range(m)]
        leaving = None
        for i in range(m):
            if direction[i] <= 0:
                continue
            ratio = values[i] / direction[i]
            if leaving is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                leaving, best = i, ratio
        assert leaving is not None, "phase-1 objective is bounded below by zero"
        step = direction[leaving]
        inverse[leaving] = [v / step for v in inverse[leaving]]
        values[leaving] = values[leaving] / step
        for i in range(m):
            if i != leaving and direction[i] != 0:
                f = direction[i]
                inverse[i] = [v - f * w for v, w in zip(inverse[i], inverse[leaving])]
                values[i] = values[i] - f * values[leaving]
        basis[leaving] = entering

    if sum(v for v, var in zip(values, basis) if var >= n_real) > 0:
        return None
    y = [Fraction(0)] * n_real
    for v, var in zip(values, basis):
        if var < n_real:
            y[var] = v
    point = []
    for var in range(n):
        col = plus_col[var]
        if bounds[var] is None:
            point.append(y[col] - y[col + 1])
        else:
            point.append(y[col] + bounds[var])
    return point


# -- frozen copy of the row-by-row feasibility oracle --------------------------
#
# The Phase-I simplex of perigid.feasibility as it was before its exact loop
# became a revised fraction-free simplex and its float loop a numpy tableau:
# a Python-list tableau, every row updated entry by entry.  The package must
# return the same bits (float arrays byte for byte, Fractions equal in value
# and type) and raise the same errors, pivot caps included.


class NumericalFailureError(Exception):
    """Stands for the package's error of the same name."""


class _FrozenPhaseOneUnbounded(NumericalFailureError):
    pass


_FROZEN_UNBOUNDED = "phase-1 objective unbounded; inconsistent tableau"
_FROZEN_TOL = 1e-9


def _frozen_is_exact(value):
    return isinstance(value, (int, Fraction, np.integer)) and not isinstance(value, bool)


def _frozen_fraction(x):
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def frozen_feasibility(
    eq_rows, eq_b, lbs, in_rows=(), in_b=(), *, exact=None, max_pivots=50_000, stale=None
):
    """The frozen oracle's answer for a system with finite values: a float
    array, a list of Fractions or None, with the same mode rule and the same
    exact re-solve after a float phase-1 breakdown.

    ``stale``, a Counter, records the exact tableau's stale rows: each time a
    row whose entry in the entering column was 0 at the last two or more
    pivots is then eliminated, chosen as the pivot row (by the kind of
    variable leaving there) or read out as part of the answer."""
    eq_rows = [list(r) for r in eq_rows]
    in_rows = [list(r) for r in in_rows]
    eq_b, lbs, in_b = list(eq_b), list(lbs), list(in_b)
    if exact is None:
        values = [x for row in (*eq_rows, *in_rows, eq_b, in_b) for x in row]
        exact = all(map(_frozen_is_exact, values)) and all(
            x is None or _frozen_is_exact(x) for x in lbs
        )
    system = (eq_rows, eq_b, lbs, in_rows, in_b)
    if exact:
        return _frozen_solve_exact(*system, max_pivots, stale)
    try:
        return _frozen_solve_float(*system, max_pivots)
    except _FrozenPhaseOneUnbounded:
        pass
    floats = [[Fraction(float(x)) for x in row] for row in (*eq_rows, eq_b, *in_rows, in_b)]
    bounds = [None if x is None else Fraction(float(x)) for x in lbs]
    n_eq = len(eq_rows)
    images = (floats[:n_eq], floats[n_eq], bounds, floats[n_eq + 1 : -1], floats[-1])
    x = _frozen_solve_exact(*images, max_pivots, stale)
    return None if x is None else np.array([float(v) for v in x])


def _frozen_standard_form(eq_rows, eq_b, lbs, in_rows, in_b, num):
    zero = num(0)
    nvars = len(lbs)
    n_slack = len(in_rows)
    rows = [[num(x) for x in r] + [zero] * n_slack for r in eq_rows]
    b = [num(x) for x in eq_b]
    for idx, (r, bi) in enumerate(zip(in_rows, in_b)):
        row = [num(x) for x in r] + [zero] * n_slack
        row[nvars + idx] = -num(1)
        rows.append(row)
        b.append(num(bi))
    bounds = [None if x is None else num(x) for x in lbs] + [zero] * n_slack

    col_map = []
    width = 0
    for lb in bounds:
        if lb is None:
            col_map.append(("free", width, width + 1))
            width += 2
        else:
            col_map.append(("shift", width, lb))
            width += 1

    tableau = [[zero] * width + [zero] for _ in rows]
    for r, src in enumerate(rows):
        acc = b[r]
        for j, spec in enumerate(col_map):
            coeff = src[j]
            if coeff == zero:
                continue
            if spec[0] == "free":
                tableau[r][spec[1]] = coeff
                tableau[r][spec[2]] = -coeff
            else:
                tableau[r][spec[1]] = coeff
                acc -= coeff * spec[2]
        tableau[r][-1] = acc
        if acc < zero:
            tableau[r] = [-x for x in tableau[r]]
    return tableau, col_map, width


def _frozen_original_point(y, col_map, nvars):
    x = [y[s[1]] - y[s[2]] if s[0] == "free" else y[s[1]] + s[2] for s in col_map]
    return x[:nvars]


def _frozen_solve_float(eq_rows, eq_b, lbs, in_rows, in_b, max_pivots):
    tableau, col_map, width = _frozen_standard_form(eq_rows, eq_b, lbs, in_rows, in_b, float)
    m = len(tableau)
    rhs_scale = max([abs(row[-1]) for row in tableau], default=0.0)
    feas_tol = _FROZEN_TOL * (1.0 + float(rhs_scale))

    total = width + m
    basis = []
    for r in range(m):
        row = tableau[r]
        row[-1:-1] = [0.0] * m
        row[width + r] = 1.0
        basis.append(width + r)
    zrow = [0.0] * (total + 1)
    for j in range(width):
        zrow[j] = -sum(tableau[r][j] for r in range(m))
    zrow[-1] = -sum(tableau[r][-1] for r in range(m))

    pivots = 0
    while True:
        enter = next((j for j in range(total) if zrow[j] < -_FROZEN_TOL), None)
        if enter is None:
            break
        best_r, best_ratio = None, None
        for r in range(m):
            a = tableau[r][enter]
            if a > _FROZEN_TOL:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_r])
                ):
                    best_r, best_ratio = r, ratio
        if best_r is None:
            raise _FrozenPhaseOneUnbounded(_FROZEN_UNBOUNDED)
        piv = tableau[best_r][enter]
        tableau[best_r] = [x / piv for x in tableau[best_r]]
        prow = tableau[best_r]
        for r in range(m):
            if r != best_r and tableau[r][enter] != 0.0:
                factor = tableau[r][enter]
                tableau[r] = [x - factor * p for x, p in zip(tableau[r], prow)]
        if zrow[enter] != 0.0:
            factor = zrow[enter]
            zrow = [x - factor * p for x, p in zip(zrow, prow)]
        basis[best_r] = enter
        pivots += 1
        if pivots > max_pivots:
            raise NumericalFailureError(f"simplex exceeded {max_pivots} pivots")

    if -zrow[-1] > feas_tol:
        return None
    y = [0.0] * width
    for r, var in enumerate(basis):
        if var < width:
            y[var] = tableau[r][-1]
    return np.array([float(v) for v in _frozen_original_point(y, col_map, nvars=len(lbs))])


def _frozen_solve_exact(eq_rows, eq_b, lbs, in_rows, in_b, max_pivots, stale=None):
    rational, col_map, width = _frozen_standard_form(
        eq_rows, eq_b, lbs, in_rows, in_b, _frozen_fraction
    )
    scale = math.lcm(*(x.denominator for row in rational for x in row))
    tableau = [[x.numerator * (scale // x.denominator) for x in row] for row in rational]
    m = len(tableau)

    total = width + m
    basis = list(range(width, total))
    for r, row in enumerate(tableau):
        row[-1:-1] = [0] * m
        row[width + r] = 1
    zrow = [-sum(col) for col in zip(*tableau)] if m else [0] * (total + 1)
    zrow[width:total] = [0] * m
    denom = 1
    skipped = [0] * m  # pivots in a row at which each row's factor was 0

    pivots = 0
    while True:
        enter = next((j for j in range(total) if zrow[j] < 0), None)
        if enter is None:
            break
        best_r = None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                if best_r is None:
                    best_r, best_a, best_b = r, a, tableau[r][-1]
                    continue
                lhs, rhs = tableau[r][-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_r]):
                    best_r, best_a, best_b = r, a, tableau[r][-1]
        if best_r is None:
            raise NumericalFailureError(_FROZEN_UNBOUNDED)
        if stale is not None:
            for r in range(m):
                if r != best_r and tableau[r][enter] == 0:
                    skipped[r] += 1
                    continue
                if skipped[r] >= 2:
                    leaving = "artificial" if basis[r] >= width else "real"
                    stale["eliminated" if r != best_r else f"pivot row, {leaving} leaves"] += 1
                skipped[r] = 0
        prow = tableau[best_r]
        piv = prow[enter]
        for r in range(m):
            if r != best_r:
                tableau[r] = _frozen_eliminate(tableau[r], prow, enter, piv, denom)
        zrow = _frozen_eliminate(zrow, prow, enter, piv, denom)
        denom = piv
        basis[best_r] = enter
        pivots += 1
        if pivots > max_pivots:
            raise NumericalFailureError(f"simplex exceeded {max_pivots} pivots")

    if zrow[-1] < 0:
        return None
    y = [Fraction(0)] * width
    for r, var in enumerate(basis):
        if var < width:
            y[var] = Fraction(tableau[r][-1], denom)
            if stale is not None and skipped[r] >= 2:
                stale["read out"] += 1
    return _frozen_original_point(y, col_map, nvars=len(lbs))


def _frozen_eliminate(row, prow, enter, piv, denom):
    factor = row[enter]
    if factor == 0:
        if piv == denom:
            return row
        return [x * piv // denom for x in row]
    return [(x * piv - factor * p) // denom for x, p in zip(row, prow)]


def sweep_rays_2d(halfspaces, samples: int = 3600):
    """Approximate extremal rays of {x in R^2 : A x >= 0} by angular sweep.

    Returns unit direction estimates of the feasible arc endpoints; empty if
    no sampled direction is feasible.  Resolution is 2*pi/samples.
    """
    a = np.asarray(halfspaces, dtype=float)
    angles = np.arange(samples) * (2 * np.pi / samples)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    feasible = np.all(dirs @ a.T >= -1e-9, axis=1)
    if not feasible.any():
        return np.zeros((0, 2))
    if feasible.all():
        return None  # whole plane: non-pointed
    # Endpoints of maximal circular arcs of feasible directions.
    rays = []
    for i in range(samples):
        prev = feasible[(i - 1) % samples]
        nxt = feasible[(i + 1) % samples]
        if feasible[i] and (not prev or not nxt):
            rays.append(dirs[i])
    return np.array(rays)


def loop_row(orbits, lattice, a, b, w, s):
    """Constraint row of the pair (a, b, w) with separation s, one entry at a
    time: -s in a's block, +s in b's block, s_r * w_c at dn + c*d + r."""
    d, n = lattice.shape[0], len(orbits)
    ia, ib = orbits.index(a), orbits.index(b)
    row = np.zeros(d * n + d * d)
    for r in range(d):
        row[ia * d + r] -= s[r]
        row[ib * d + r] += s[r]
        for c in range(d):
            row[d * n + c * d + r] += s[r] * w[c]
    return row


def canonical_pair_keys(orbits, d: int, radius: int):
    """Keys (a, b, w) with a < b over the whole shift box, both in sorted
    order, followed by every (a, a, w) with w < -w."""
    names = sorted(orbits)
    box = list(itertools.product(range(-radius, radius + 1), repeat=d))
    keys = [(a, b, w) for i, a in enumerate(names) for b in names[i + 1 :] for w in box]
    return keys + [(a, a, w) for a in names for w in box if w < tuple(-c for c in w)]


def loop_pairs(positions: dict, lattice, radius: int):
    """Canonical pair keys, separations and rows, one pair at a time.

    Keys are (a, b, w) with a < b over the whole shift box, both in sorted
    order, followed by every (a, a, w) with w < -w; the separation is
    positions[b] + lattice @ w - positions[a].
    """
    orbits = list(positions)
    keys = canonical_pair_keys(orbits, lattice.shape[0], radius)
    seps, rows = [], []
    for a, b, w in keys:
        wv = np.array(w, dtype=float)
        s = positions[b] + lattice @ wv - positions[a]
        seps.append(s)
        rows.append(loop_row(orbits, lattice, a, b, wv, s))
    return keys, np.array(seps), np.array(rows)


# ---------------------------------------------------------------------------
# Frozen loop-and-bitmask cone pipeline: the halfspace merge and the double
# description as first written, one row and one ray at a time.  The array
# code in the package must make the same decisions with the same arithmetic.

def _frozen_dedup(rows, tol):
    out = []
    for r in rows:
        if all(np.linalg.norm(r - s) > tol for s in out):
            out.append(r)
    return np.array(out) if out else np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0))


def _frozen_mask(a, processed, ray, tol):
    idx = np.asarray(processed, dtype=int)
    vals = a[idx] @ ray
    mask = 0
    for i in idx[np.abs(vals) <= tol]:
        mask |= 1 << int(i)
    return mask


def _frozen_adjacent(masks, p, q):
    common = masks[p] & masks[q]
    for r, mr in enumerate(masks):
        if r != p and r != q and (common & ~mr) == 0:
            return False
    return True


def frozen_extremal_rays(halfspaces, f, tol=1e-9):
    """Rays of {c : A c >= 0} by the bitmask double description; raises
    ValueError where the package raises a typed error."""
    a = np.asarray(halfspaces, dtype=float)
    a = a[np.linalg.norm(a, axis=1) > tol]
    a = a / np.linalg.norm(a, axis=1, keepdims=True) if len(a) else a
    k = len(a)
    if k < f:
        raise ValueError("too few halfspaces")
    s = np.linalg.svd(a, compute_uv=False)
    if int(np.sum(s > tol * s[0])) < f:
        raise ValueError("not pointed")
    base, basis = [], np.zeros((0, f))
    for i, row in enumerate(a):
        residual = row - basis.T @ (basis @ row) if len(basis) else row
        if np.linalg.norm(residual) > tol:
            basis = np.vstack([basis, residual / np.linalg.norm(residual)])
            base.append(i)
            if len(base) == f:
                break
    m_inv = np.linalg.inv(a[base])
    rays, masks, processed = [], [], list(base)
    for j in range(f):
        r = m_inv[:, j]
        r = r / np.linalg.norm(r)
        rays.append(r)
        masks.append(_frozen_mask(a, processed, r, tol))
    for t in [i for i in range(k) if i not in set(base)]:
        vals = np.array([a[t] @ r for r in rays])
        pos = [i for i, v in enumerate(vals) if v > tol]
        zero = [i for i, v in enumerate(vals) if -tol <= v <= tol]
        neg = [i for i, v in enumerate(vals) if v < -tol]
        processed.append(t)
        bit = 1 << t
        if not neg:
            for i in zero:
                masks[i] |= bit
            continue
        new_rays, new_masks = [], []
        for p in pos:
            for q in neg:
                if not _frozen_adjacent(masks, p, q):
                    continue
                r = vals[p] * rays[q] - vals[q] * rays[p]
                nrm = np.linalg.norm(r)
                if nrm <= tol:
                    continue
                r = r / nrm
                new_rays.append(r)
                new_masks.append(_frozen_mask(a, processed, r, tol))
        rays = [rays[i] for i in pos + zero] + new_rays
        masks = [masks[i] for i in pos] + [masks[i] | bit for i in zero] + new_masks
        if not rays:
            break
    rays = _frozen_dedup(np.array(rays) if rays else np.zeros((0, f)), 1e-8)
    order = np.lexsort(np.round(rays, 12).T[::-1]) if len(rays) else []
    return rays[order] if len(rays) else rays


def frozen_finish_kept(rays, tol=1e-9):
    """Indices of the rays the package's final merge keeps, as first
    written: ray i is kept unless an earlier kept ray is within tol of it."""
    kept = []
    for i, r in enumerate(rays):
        if not any(np.linalg.norm(r - rays[j]) <= tol for j in kept):
            kept.append(i)
    return kept


def frozen_cone(pair_rows, flex_basis, tol=1e-9):
    """(halfspace matrix, rays) of the projected pair rows: exact duplicates
    merged through rounded dict keys, then the pairwise angular merge when
    at most 800 rows remain, then the double description."""
    projected = pair_rows @ flex_basis.T
    scale = np.maximum(np.linalg.norm(pair_rows, axis=1), 1.0)
    projected = projected[np.linalg.norm(projected, axis=1) > tol * scale]
    projected = projected / np.linalg.norm(projected, axis=1, keepdims=True)
    seen, unique = set(), []
    for r in projected:
        key = tuple(np.round(r, 9))
        if key not in seen:
            seen.add(key)
            unique.append(r)
    uniq = np.array(unique)
    if len(uniq) <= 800:
        uniq = _frozen_dedup(uniq, 1e-8)
    return uniq, frozen_extremal_rays(uniq, flex_basis.shape[0], tol)


def first_rounded_rows(rows):
    """Ascending indices of the first row of each distinct key
    np.round(row, 9) + 0.0, by np.unique's stable sort."""
    _, first = np.unique(np.round(rows, 9) + 0.0, axis=0, return_index=True)
    return np.sort(first)


def brute_force_rays(halfspaces, tol=1e-9):
    """Extremal rays of the pointed cone {c : A c >= 0} by trying every
    (f-1)-subset of rows: a ray spans the null space of a rank f-1 subset
    and satisfies every row.  Unit rays, duplicates removed, unordered."""
    a = np.asarray(halfspaces, dtype=float)
    f = a.shape[1]
    found = []
    for subset in itertools.combinations(range(len(a)), f - 1):
        sub = a[list(subset)].reshape(f - 1, f)
        _, s, vt = np.linalg.svd(sub)
        if f > 1 and (len(s) < f - 1 or s[-1] <= 1e-9 * max(1.0, s[0])):
            continue
        v = vt[-1]
        for r in (v, -v):
            if (a @ r).min() >= -tol and all(np.linalg.norm(r - x) > 1e-7 for x in found):
                found.append(r)
    return np.array(found).reshape(len(found), f)


def simplicial_cone_is_complete(halfspaces, rays, tol=1e-9) -> bool:
    """Whether f independent rays R span exactly {c : A c >= 0}.

    cone(R) lies in the halfspaces when every ray satisfies every row within
    `tol`.  The halfspaces lie in cone(R) when each facet normal of cone(R),
    a row of (R^T)^-1 (its dot with ray j is 1 at its own ray and 0 at the
    others), is a row of A up to a positive scale: both unit, their dot is
    within 1e-12 of 1.  Then the intersection of the halfspaces is cut by
    every facet of cone(R), so the two cones are equal."""
    a = np.asarray(halfspaces, dtype=float)
    r = np.asarray(rays, dtype=float)
    f = a.shape[1]
    if r.shape != (f, f) or np.linalg.matrix_rank(r) < f:
        return False
    if (a @ r.T).min() < -tol:
        return False
    normals = np.linalg.inv(r.T)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    unit = a / np.linalg.norm(a, axis=1, keepdims=True)
    return bool(((normals @ unit.T).max(axis=1) >= 1 - 1e-12).all())


_RAY_MATCH_TOL = 1e-6  # angular tolerance when comparing ray sets


def rays_match(a, b, angular_tol=_RAY_MATCH_TOL) -> bool:
    """Same ray set up to angular tolerance (unit rays, same orientation)."""
    if len(a) != len(b):
        return False
    unmatched = list(range(len(b)))
    for r in a:
        hit = next((i for i in unmatched if np.linalg.norm(r - b[i]) < angular_tol), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


# ---------------------------------------------------------------------------
# Frozen frame writers: the OBJ and CSV frame export as first written, one
# format call per value, with every vertex realized on its own as p + L @ w.

def frozen_frames(orbits, edges, placements, supercell, fmt):
    """{file name: text} of the frame export; `edges` are (tail, head,
    shift) triples and `placements` (positions dict, lattice) per step."""
    d = len(placements[0][1])
    shifts = list(itertools.product(range(-supercell, supercell + 1), repeat=d))
    vertices = [(o, w) for o in orbits for w in shifts]
    coords = [
        [positions[o] + lattice @ np.array(w, dtype=float) for o, w in vertices]
        for positions, lattice in placements
    ]
    if fmt == "csv":
        header = ["step", "orbit"] + [f"shift_{i + 1}" for i in range(d)] + [f"x_{i + 1}" for i in range(d)]
        lines = [",".join(header)]
        for step, xs in enumerate(coords):
            for (o, w), x in zip(vertices, xs):
                lines.append(",".join([str(step), o, *map(str, w)] + [format(float(v), ".12g") for v in x]))
        return {"frames.csv": "\n".join(lines) + "\n"}
    index = {v: k + 1 for k, v in enumerate(vertices)}
    segments = []
    for z in shifts:
        for tail, head, shift in edges:
            other = tuple(a + b for a, b in zip(z, shift))
            if (head, other) in index:
                segments.append(f"l {index[(tail, z)]} {index[(head, other)]}")
    files = {}
    for step, xs in enumerate(coords):
        lines = ["v " + " ".join([format(float(v), ".17g") for v in x] + ["0"] * (3 - d)) for x in xs]
        files[f"frame_{step:04d}.obj"] = "\n".join(lines + segments) + "\n"
    return files


# ---------------------------------------------------------------------------
# Frozen motion audit: the pair audit and its table as first written, one
# Python key per pair, each distance by the plain formula |p_b + L w - p_a|,
# and the table's lines in the order of the sorted keys.

def frozen_audit(orbits, placements, radius, audit_tol):
    """(pair_results, violations): each canonical pair's smallest step
    increment by key, in canonical order, and (key, step, drop) per drop
    larger than `audit_tol`, pair-major; `placements` are (positions dict,
    lattice) per step."""
    keys = canonical_pair_keys(orbits, len(placements[0][1]), radius)
    dist = np.array([
        [np.linalg.norm(p[b] + lattice @ np.array(w, dtype=float) - p[a]) for a, b, w in keys]
        for p, lattice in placements
    ])
    inc = np.diff(dist, axis=0)
    violations = [(keys[k], int(s) + 1, float(-inc[s, k])) for k, s in zip(*np.nonzero(inc.T < -audit_tol))]
    return dict(zip(keys, inc.min(axis=0).tolist())), violations


def frozen_audit_csv(pair_results, violations) -> str:
    """Text of the audit table: orbit_a,orbit_b,shift...,min_increment,
    first_violation_step, one line per key of `pair_results` in sorted
    order, an orbit with a comma, quote, CR or LF quoted as RFC 4180 does."""

    def field(text):
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text

    keys = sorted(pair_results)
    first = {}
    for key, step, _ in violations:
        first[key] = min(first.get(key, step), step)
    d = len(keys[0][2]) if keys else 0
    lines = [",".join(["orbit_a", "orbit_b", *(f"shift_{i + 1}" for i in range(d)), "min_increment", "first_violation_step"])]
    for key in keys:
        a, b, w = key
        lines.append(",".join([field(a), field(b), *map(str, w), format(pair_results[key], ".12g"), str(first.get(key, ""))]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Frozen motion gauge: the corrector's free coordinates as first written, by
# index arithmetic on the layout (d entries per orbit, then the lattice
# velocity column by column).

def frozen_gauge_free_indices(d, n):
    """All coordinates but the first orbit's and the strictly lower lattice entries."""
    fixed = set(range(d))
    for c in range(d):
        for r in range(c + 1, d):
            fixed.add(d * n + c * d + r)
    return np.array([i for i in range(d * n + d * d) if i not in fixed])


def frozen_trivial_basis(positions, lattice):
    """The d + C(d,2) trivial motions as first written, one plane at a time:
    translations are 1 on one coordinate of every orbit; the rotation in the
    (a, b) plane is -x_b on coordinate a and x_a on coordinate b of every
    orbit and of every lattice column, zeros elsewhere.  Laid out as the
    rigidity motion vector: d entries per orbit, then the lattice velocity
    column by column."""
    n, d = positions.shape
    planes = list(itertools.combinations(range(d), 2))
    pdot, ldot = np.zeros((d + len(planes), n, d)), np.zeros((d + len(planes), d, d))
    for a in range(d):
        pdot[a, :, a] = 1.0
    for r, (a, b) in enumerate(planes, d):
        pdot[r, :, a], pdot[r, :, b] = -positions[:, b], positions[:, a]
        ldot[r, a], ldot[r, b] = -lattice[b], lattice[a]
    return np.concatenate([pdot.reshape(len(pdot), -1), np.swapaxes(ldot, 1, 2).reshape(len(ldot), -1)], axis=1)


# -- frozen f-string JSON writers ---------------------------------------------


def _frozen_f17(x):
    return format(float(x), ".17g")


def _frozen_json_vec(v):
    if v is None:
        return "null"
    return "[" + ", ".join(_frozen_f17(x) for x in v) + "]"


def _frozen_json_matrix(rows):
    return "[" + ", ".join(_frozen_json_vec(row) for row in rows) + "]"


def frozen_dumps_framework(fw) -> str:
    g, pl = fw.graph, fw.placement
    lines = ["{", f'  "dimension": {g.dimension},']
    vo = []
    for orbit in g.vertex_orbits:
        pos = _frozen_json_vec(pl.positions[orbit])
        vo.append(f'    {{"id": {json.dumps(orbit)}, "position": {pos}}}')
    lines.append('  "vertex_orbits": [')
    lines.append(",\n".join(vo))
    lines.append("  ],")
    lines.append(f'  "lattice": {_frozen_json_matrix(pl.lattice)},')
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


def frozen_report_json(report) -> str:
    return (
        "{"
        + f'"rank": {report.rank}, "dof": {report.dof}, '
        + f'"stress_dim": {report.stress_dim}, '
        + f'"flex_basis": {_frozen_json_matrix(report.flex_basis)}, '
        + f'"stress_basis": {_frozen_json_matrix(report.stress_basis)}, '
        + f'"tolerance": {_frozen_f17(report.tolerance_used)}'
        + "}"
    )


def frozen_star_report_json(analysis) -> str:
    return (
        "{"
        + f'"orbit": {json.dumps(analysis.orbit)}, '
        + f'"lineality_dim": {analysis.lineality_dim}, '
        + f'"pointed_codim2": {"true" if analysis.pointed_codim2 else "false"}, '
        + f'"separating_normal": {_frozen_json_vec(analysis.separating_normal)}, '
        + f'"positive_dependence": {_frozen_json_vec(analysis.positive_dependence)}'
        + "}"
    )


def frozen_cone_report_json(cone, stable_radius) -> str:
    return (
        f'{{"flex_dim": {cone.flex_dim}, "radius": {cone.radius}, '
        f'"stable_radius": {stable_radius}, "num_halfspaces": {len(cone.halfspace_matrix)}, '
        f'"rays": {_frozen_json_matrix(cone.rays)}, "ray_motions": {_frozen_json_matrix(cone.ray_motions())}}}'
    )
