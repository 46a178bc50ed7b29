"""Sparse linear feasibility oracle.

Finds x with A_eq x = b_eq, A_ineq x >= b_ineq, and per-variable lower bounds
(None marks a free variable), or certifies that no such x exists.  The solver
is a Phase-I simplex with Bland's rule, so it terminates and is deterministic
for a fixed input ordering.  Arithmetic runs in floating point with the
module tolerance ``LP_TOL`` by default, and exactly (every comparison exact)
when every input is an int or Fraction or when ``exact=True``; there a float
is taken at its exact value, and any other non-rational real (np.float32) at
its float's.  The mode comes from the set of the input's value types: plain
ints and Fractions alone are exact with no further look; with plain floats
too, one ``math.isfinite`` pass checks every value; any other type (bools,
numpy scalars, subclasses), or an int or Fraction beyond the float range,
sends every value through ``_is_exact`` and the finiteness test.  A
non-finite coefficient, right-hand side or bound is a ValueError in either
mode; float mode raises the same for an int beyond the float range.

Both modes read one standard form over y >= 0, built row by row from the
input rows: inequality rows get a slack, bounded variables are shifted by
their bound, free ones split into y+ - y-, and a row is negated if that makes
its rhs nonnegative.  Float mode builds the dense Phase-I tableau from the
rows in that one pass: each row's nonzero (y-column, value) pairs go
straight into its tableau row and, in row order, into the objective's column
sums.  Exact mode does no Fraction arithmetic: it reads each value's reduced
numerator and denominator, keeps a row's shifted rhs over the lcm of its
terms' denominators, scales every row by the lcm of all rhs and nonzero
denominators and hands the integers over as (row, integer) columns, a free
variable's y- column the negation of its y+ column.

Exact mode is a revised, fraction-free simplex (integer-preserving elimination
after Edmonds 1967 and Bareiss 1968) on those integer rows [A | b].  The Bareiss
tableau of Phase I, [A | I | b] under the artificial basis, shares one positive
denominator D, the determinant of the current basis B, and by Cramer's rule
each of its integers is D B^-1 times an integer column: the artificial block is
adj(B) = D B^-1, a real column j is adj(B) A_j, and the rhs is beta = adj(B) b.
Only beta, the columns of adj(B) of the nonbasic artificials and the objective
row over those columns and the rhs (``zrow``) are stored.  The column of an
artificial basic at row q is D e_q with objective entry 0: it is stored when
the artificial leaves (at row p, as D e_p) and dropped when it re-enters, after
the pivot makes it D' e_p again.  A real column's objective entry is
D c_j - c_B adj(B) A_j with c = 0 on real and 1 on artificial columns, where
c_B adj(B) is D - zrow at a stored column and D at a basic one; it is priced
on demand over the nonzeros of A_j, once per free pair, since y- is -(y+).
The entering column is adj(B) A_e.  Row r is stored at at[r], the D it was
last written at: its true integers are the stored ones times D / at[r].  A
pivot on (p, e) skips a row whose entry f in column e is 0 and replaces every
other row by (row*piv - f*pivot_row) / at[r], exact by Sylvester's determinant
identity, stamping it piv; zrow's entry is negative, so zrow is always
rewritten, and D becomes piv.  Only the pivot row (rescaled to D once if
stale), a basic artificial's D e_q term in an entering column (at[q] times the
entry) and the readout need true values: each coordinate of the point is one
Fraction of integers, beta_r / at[r] plus its bound or minus its twin.  Every
D is a pivot, so positive, and so is every scale D / at[r]: every sign, ratio
and tie the ratio test reads, the pivot sequence, D and the returned Fractions
are those of plain Fraction pivoting (the entering artificial is the
lowest-indexed one, not the first stored); a system is infeasible when zrow's
rhs entry is negative.

Floating mode pivots on a row-by-row tableau: the pivot row is divided by the
pivot, and only rows whose factor is nonzero are updated, so signed zeros are
kept.  It runs on Python lists up to ``_LIST_ROWS`` rows, where numpy's ~10
calls a pivot cost more, and on a numpy array above (about even at 5-6 rows),
in the same IEEE operations and order; the list loop reads the objective row
and the rhs column in place and runs Bland's ratio test inline.  A tableau
that drifts into a state exact arithmetic cannot reach (a phase-1 objective
that looks unbounded below), or that overflows (a bound shift that makes a
finite rhs infinite, a non-finite value in the final rhs column or point), is
not an answer: the system is solved again exactly on the float images of its
values, each at its exact value, and that solution is returned as floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import NumericalFailureError

LP_TOL = 1e-9
_MAX_PIVOTS = 50_000
_UNBOUNDED = "phase-1 objective unbounded; inconsistent tableau"
_OVERFLOW = "float tableau overflowed"
_LIST_ROWS = 6  # the most rows a float system pivots on lists (module docstring)
_FLOATS, _RATIONALS = frozenset((float, np.float64)), frozenset((int, Fraction))
_PLAIN = _FLOATS | _RATIONALS


class _PhaseOneUnbounded(NumericalFailureError):
    pass


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction, np.integer)) and not isinstance(value, bool)


def _ratio(x) -> tuple[int, int]:
    """x's exact value as a reduced (numerator, denominator > 0): ints (bools,
    numpy ints), Fractions and floats as they are, any other value as
    Fraction() reads it or, where it cannot (np.float32), at its float's."""
    if isinstance(x, (int, float, Fraction)):
        return x.as_integer_ratio()
    if isinstance(x, np.integer):
        return int(x), 1
    try:
        return Fraction(x).as_integer_ratio()
    except TypeError:  # a real that is neither a float nor rational (np.float32)
        return float(x).as_integer_ratio()


def _all_finite(values) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int or Fraction beyond the float range
        return False


def _floats(values) -> list:
    return [None if v is None else float(v) for v in values]


def solve_linear_feasibility(
    equalities,
    rhs,
    lower_bounds,
    inequalities=None,
    ineq_rhs=None,
    *,
    exact: bool | None = None,
):
    """Feasible point for the system, or None if infeasible.

    equalities / rhs:     A_eq x = b_eq  (lists or arrays; may be empty)
    lower_bounds:         one entry per variable; a number means x_i >= lb_i,
                          None means x_i is free
    inequalities / ineq_rhs: optional rows A x >= b, handled through slacks

    Returns a float ndarray in floating mode, a list of Fractions in exact
    mode.  Raises NumericalFailureError past ``_MAX_PIVOTS`` pivots, and
    ValueError if a value is not finite or, in float mode, beyond floats,
    or if float mode finds a feasible point no float vector represents.
    """
    eq_rows = [list(r) for r in equalities]
    eq_b, lbs = list(rhs), list(lower_bounds)
    in_rows = [list(r) for r in (inequalities if inequalities is not None else [])]
    in_b = list(ineq_rhs) if ineq_rhs is not None else []
    if len(eq_rows) != len(eq_b) or len(in_rows) != len(in_b):
        raise ValueError("row/rhs length mismatch")
    if not set(map(len, eq_rows + in_rows)) <= {len(lbs)}:
        raise ValueError("constraint row length does not match variable count")

    # One type pass; the finiteness of plain ints, Fractions and floats in one
    # more, and any other type (bools, numpy scalars, subclasses) or an int
    # or Fraction beyond the float range by the general test, entry by entry.
    values = [*itertools.chain(*eq_rows, eq_b, *in_rows, in_b), *[lb for lb in lbs if lb is not None]]
    kinds = set(map(type, values))
    rational = kinds <= _RATIONALS
    if not rational and not (kinds <= _PLAIN and _all_finite(values)):
        rational = True
        for x in values:
            kind = type(x)
            if kind in _RATIONALS or (kind not in _FLOATS and _is_exact(x)):
                continue
            rational = False
            if not math.isfinite(x if kind in _FLOATS else float(x)):
                raise ValueError("non-finite coefficient, right-hand side or bound")
    system = (eq_rows, eq_b, lbs, in_rows, in_b)
    if exact or (exact is None and rational):
        return _solve_exact(*_integer_form(*system))
    try:
        return _solve_float(*system)
    except _PhaseOneUnbounded:
        pass
    except OverflowError:  # float() of an int or Fraction beyond the float range
        raise ValueError("non-finite coefficient, right-hand side or bound") from None
    # Solved again on the values' float images, each at its exact value.
    eq_f, in_f = ([_floats(r) for r in rows] for rows in (eq_rows, in_rows))
    x = _solve_exact(*_integer_form(eq_f, _floats(eq_b), _floats(lbs), in_f, _floats(in_b)))
    try:
        return None if x is None else np.array([float(v) for v in x])
    except OverflowError:  # the exact point lies beyond the float range
        raise ValueError("feasible point beyond the float range") from None


def _column_map(lbs, num):
    """Per variable ("shift", y column, num(lb)) or ("free", y+, y-), and the y width."""
    col_map, width = [], 0
    for lb in lbs:
        col_map.append(("free", width, width + 1) if lb is None else ("shift", width, num(lb)))
        width += 2 if lb is None else 1
    return col_map, width


def _integer_form(eq_rows, eq_b, lbs, in_rows, in_b):
    """The standard form in exact values, scaled to integers (module
    docstring): the y columns as (row, integer) pairs in row order, the
    integer rhs, and the column map with each bound as a reduced (numerator,
    denominator).  Each row, its rhs reduced, is the Fraction row it stands
    for, so the common scale and the integers are that row's."""
    bounds = [None if lb is None else _ratio(lb) for lb in lbs]
    col_map, width = _column_map(bounds, tuple)
    slacks = [None] * len(eq_rows) + list(range(width, width + len(in_rows)))

    rows, dens = [], set()
    for src, b, slack in zip(eq_rows + in_rows, eq_b + in_b, slacks):
        entries = []
        num, den = _ratio(b)
        for spec, bound, x in zip(col_map, bounds, src):
            p, q = (x, 1) if type(x) is int else x.as_integer_ratio() if type(x) in _PLAIN else _ratio(x)
            if not p:
                continue
            entries.append((spec[1], p, q))
            dens.add(q)
            if bound is not None and bound[0]:  # num / den -= (p / q) * bound, over the lcm of the denominators
                tq = q * bound[1]
                g = math.gcd(den, tq)
                num, den = num * (tq // g) - p * bound[0] * (den // g), den // g * tq
        if slack is not None:
            entries.append((slack, -1, 1))
        g = math.gcd(num, den)
        rows.append((entries, num // g, den // g))
        dens.add(den // g)

    scale = math.lcm(*dens)
    columns = [[] for _ in range(width + len(in_rows))]
    rhs = []
    for r, (entries, num, den) in enumerate(rows):
        s = -scale if num < 0 else scale
        for c, p, q in entries:
            columns[c].append((r, p * (s // q)))
        rhs.append(num * (s // den))
    for spec in col_map:  # a free variable's y- column is minus its y+ column
        if spec[0] == "free":
            columns[spec[2]] = [(r, -a) for r, a in columns[spec[1]]]
    return columns, rhs, col_map


def _solve_float(eq_rows, eq_b, lbs, in_rows, in_b):
    """Phase I in floats on the tableau built from the rows in one pass
    (module docstring): artificial columns between the real ones and the
    rhs, and below the rows the objective "sum of artificials", whose
    reduced costs are minus the column sums, added in row order from 0.0
    over the nonzeros.  A float ndarray, or None if infeasible."""
    col_map, width = _column_map(lbs, float)
    n_eq, n = len(eq_rows), width + len(in_rows)
    m = n_eq + len(in_rows)
    tableau, sums, rhs_sum = [], [0.0] * n, 0.0
    for r, (src, b) in enumerate(zip(eq_rows + in_rows, eq_b + in_b)):
        pairs, acc = [], float(b)
        # A nonzero Fraction below the float range converts to 0.0.
        for spec, coeff in zip(col_map, map(float, src)):
            if coeff:
                pairs.append((spec[1], coeff))
                if spec[0] == "free":
                    pairs.append((spec[2], -coeff))
                else:
                    acc -= coeff * spec[2]
        if r >= n_eq:
            # The slack is shifted by 0; a -0.0 rhs becomes 0.0 here.
            pairs.append((width + r - n_eq, -1.0))
            acc += 0.0
        if acc < 0.0:
            pairs, acc = [(c, -v) for c, v in pairs], -acc
        row = [0.0] * (n + m + 1)
        for c, v in pairs:
            row[c] = v
            sums[c] += v
        row[n + r], row[-1] = 1.0, acc
        rhs_sum += acc
        tableau.append(row)
    tableau.append([-v for v in sums] + [0.0] * m + [-rhs_sum])
    feas_tol = LP_TOL * (1.0 + float(max([abs(row[-1]) for row in tableau[:m]], default=0.0)))
    basis = list(range(n, n + m))
    rhs = (_pivot_lists if m <= _LIST_ROWS else _pivot_array)(tableau, basis)

    # An infinite shifted rhs or an overflowing pivot: row operations keep a
    # non-finite rhs entry non-finite, so it is still there at the end.
    if not all(map(math.isfinite, rhs)):
        raise _PhaseOneUnbounded(_OVERFLOW)
    if -rhs[-1] > feas_tol:
        return None
    y = [0.0] * width
    for var, value in zip(basis, rhs):
        if var < width:
            y[var] = value
    x = [y[s[1]] - y[s[2]] if s[0] == "free" else y[s[1]] + s[2] for s in col_map]
    if not all(map(math.isfinite, x)):  # a value plus its bound overflowed
        raise _PhaseOneUnbounded(_OVERFLOW)
    return np.array(x)


def _leaving_row(factors, rhs, basis):
    """Bland's ratio test over the factors above LP_TOL: the row of the least
    rhs / factor, a tie to the lower basic variable, or _PhaseOneUnbounded."""
    best_r, best = None, None
    for r, b in enumerate(rhs):
        if factors[r] > LP_TOL:
            key = (b / factors[r], basis[r])
            if best is None or key < best:
                best_r, best = r, key
    if best_r is None:
        raise _PhaseOneUnbounded(_UNBOUNDED)
    return best_r


def _pivot_lists(tableau, basis):
    """Phase I pivots on ``tableau``, its rows and then its objective row as
    lists of floats, and on ``basis``, in place; the final rhs column."""
    m = len(basis)
    rhs_col = len(tableau[m]) - 1
    for _ in range(_MAX_PIVOTS + 1):
        # The first negative reduced cost; the rhs entry, last, is not a column.
        for enter, z in enumerate(tableau[m]):
            if z < -LP_TOL:
                break
        if enter == rhs_col:
            return [row[-1] for row in tableau]
        factors = [row[enter] for row in tableau]
        # Bland's ratio test, as _leaving_row.
        best_r = None
        for r in range(m):
            f = factors[r]
            if f > LP_TOL:
                ratio = tableau[r][-1] / f
                if best_r is None or ratio < best or (ratio == best and basis[r] < basis[best_r]):
                    best_r, best = r, ratio
        if best_r is None:
            raise _PhaseOneUnbounded(_UNBOUNDED)
        piv = factors[best_r]
        prow = [x / piv for x in tableau[best_r]]
        # Only rows with a nonzero factor change, so signed zeros survive.
        for r, f in enumerate(factors):
            if f != 0.0 and r != best_r:
                tableau[r] = [x - f * p for x, p in zip(tableau[r], prow)]
        tableau[best_r] = prow
        basis[best_r] = enter
    raise NumericalFailureError(f"simplex exceeded {_MAX_PIVOTS} pivots")


@np.errstate(all="ignore")  # overflow gives inf and NaN silently, as Python floats do
def _pivot_array(tableau, basis):
    """_pivot_lists on one numpy array: the same IEEE operations in the same
    order, at about ten numpy calls a pivot whatever the row count."""
    tableau = np.array(tableau)
    m, total = len(basis), tableau.shape[1] - 1
    for _ in range(_MAX_PIVOTS + 1):
        negative = tableau[-1] < -LP_TOL
        enter = negative.argmax()
        if enter == total or not negative[enter]:
            return tableau[:, -1].tolist()
        col = tableau[:, enter]
        factors = col.tolist()
        best_r = _leaving_row(factors, tableau[:m, -1].tolist(), basis)
        prow = tableau[best_r] / factors[best_r]
        hit = col != 0.0
        hit[best_r] = False
        np.subtract(tableau, col[:, None] * prow, out=tableau, where=hit[:, None])
        tableau[best_r] = prow
        basis[best_r] = int(enter)
    raise NumericalFailureError(f"simplex exceeded {_MAX_PIVOTS} pivots")


def _solve_exact(columns, rhs, col_map):
    """Revised fraction-free Phase I with Bland's rule over beta and the
    stored artificial columns of adj(B), with the objective row over the
    same columns, each row at its own stamp (see the module docstring); a
    list of Fractions or None."""
    m, width = len(rhs), len(columns)
    # A free pair's y- column is minus its y+ column, which is priced just before it.
    twins = {spec[2] for spec in col_map if spec[0] == "free"}

    # Row r is beta_r, then adj(B)'s entries in the stored columns: artificial
    # i's column sits at position slot[i] while i is nonbasic.  A basic
    # artificial's column is D e_q at its row q, with objective entry 0.  Row r
    # holds its true integers times at[r] / D.
    basis = list(range(width, width + m))
    adj = [[b] for b in rhs]
    at = [1] * m
    zrow = [-sum(row[0] for row in adj)]
    slot = {}
    denom = 1

    pivots = 0
    while True:
        # Bland's rule: the first column with a negative objective entry,
        # real columns priced from their nonzeros, then the artificial ones.
        dual = [-denom] * m
        for i, k in slot.items():
            dual[i] = zrow[k] - denom
        for j, column in enumerate(columns):
            zenter = -zenter if j in twins else sum([dual[r] * a for r, a in column])
            if zenter < 0:
                enter = j
                col = [0] * m
                for i, a in column:
                    k = slot.get(i)
                    if k is None:
                        q = basis.index(width + i)
                        col[q] += at[q] * a
                    else:
                        col = [c + row[k] * a for c, row in zip(col, adj)]
                break
        else:
            # The lowest index, not the first stored: Bland's order.
            enter = min((i for i, k in slot.items() if zrow[k] < 0), default=None)
            if enter is None:
                break
            zenter = zrow[slot[enter]]
            col = [row[slot[enter]] for row in adj]
            enter += width
        best_r = None
        for r in range(m):
            a = col[r]
            if a > 0:
                if best_r is None:
                    best_r, best_a, best_b = r, a, adj[r][0]
                    continue
                # b/a versus best_b/best_a with both denominators positive.
                lhs, rhs = adj[r][0] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_r]):
                    best_r, best_a, best_b = r, a, adj[r][0]
        if best_r is None:
            raise NumericalFailureError(_UNBOUNDED)
        stamp = at[best_r]
        piv = col[best_r] * denom // stamp
        prow = adj[best_r]
        if stamp != denom:
            prow = adj[best_r] = [x * denom // stamp for x in prow]
        if basis[best_r] >= width:  # a leaving artificial's column, D e_p, is stored
            slot[basis[best_r] - width] = len(zrow)
            zrow.append(0)
            for row in adj:
                row.append(0)
            prow[-1] = denom
        for r, f in enumerate(col):
            if f and r != best_r:
                stamp = at[r]
                adj[r] = [(x * piv - f * p) // stamp for x, p in zip(adj[r], prow)]
                at[r] = piv
        zrow = [(x * piv - zenter * p) // denom for x, p in zip(zrow, prow)]
        at[best_r] = denom = piv
        basis[best_r] = enter
        if enter >= width:  # an entering artificial's column is D e_p again
            k = slot.pop(enter - width)
            for row in adj + [zrow]:
                del row[k]
            slot = {i: s - (s > k) for i, s in slot.items()}
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise NumericalFailureError(f"simplex exceeded {_MAX_PIVOTS} pivots")

    if zrow[0] < 0:  # phase-1 objective -zrow[0] / D is positive
        return None
    y = [(0, 1)] * width  # (numerator, denominator > 0)
    for r, var in enumerate(basis):
        if var < width:
            y[var] = (adj[r][0], at[r])
    x = []
    for kind, col, other in col_map:  # y+ - y-, or y + bound, as one Fraction
        (p, q), (a, b) = y[col], (y[other] if kind == "free" else (-other[0], other[1]))
        x.append(Fraction(p * b - a * q, q * b))
    return x
