"""Dense linear feasibility oracle.

Finds x with A_eq x = b_eq, A_ineq x >= b_ineq, and per-variable lower bounds
(None marks a free variable), or certifies that no such x exists.  The solver
is a Phase-I simplex with Bland's rule, so it terminates and is deterministic
for a fixed input ordering.  Arithmetic runs in floating point with the
module tolerance ``LP_TOL`` by default and switches to exact arithmetic
whenever every input is an int or Fraction (or when ``exact=True``), in which
case all comparisons are exact.  Floating mode rejects a non-finite entry,
right-hand side or bound with ValueError.

Exact mode is a revised, fraction-free simplex (integer-preserving
elimination after Edmonds 1967 and Bareiss 1968).  The standard-form rows
[A | b] are scaled by the lcm of their denominators, so A and b are integer.
The Bareiss tableau of Phase I, [A | I | b] under the artificial basis,
shares one positive denominator D, the determinant of the current basis B,
and by Cramer's rule each of its integers is D B^-1 times an integer
column: the artificial block is adj(B) = D B^-1, a real column j is
adj(B) A_j, and the rhs is beta = adj(B) b.  So the real block is never
stored: only [adj(B) | beta] and the objective row over the artificial
columns and the rhs (``zrow``) are kept.
The objective row of a real column is D c_j - c_B adj(B) A_j with c = 0 on
real and 1 on artificial columns, and c_B adj(B) = D - zrow[:m], so it is
priced on demand as sum_r (zrow[r] - D) A[r][j] over the nonzeros of A_j;
the entering column is adj(B) A_e.  A pivot on (p, e) replaces every other
row r of [adj | beta], and zrow, by (row*piv - row_e*pivot_row) / D, a
division that is exact by Sylvester's determinant identity, and sets D to
piv.  These are the integers the full tableau would hold, so every sign and
ratio comparison, the pivot sequence, D and the returned Fractions are those
of plain Fraction pivoting; a system is infeasible when zrow[-1] < 0 (an
artificial basic row with beta > 0).

Floating mode pivots on one numpy tableau with the IEEE operations of a
row-by-row tableau in the same order: the pivot row is divided by the pivot,
and only rows whose factor is nonzero are updated, so signed zeros are kept.
A tableau that drifts into a state exact arithmetic cannot reach (a phase-1
objective that looks unbounded below) is not an answer: the system is solved
again exactly on the rational images of the same floats, and that solution
is returned as floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericalFailureError

LP_TOL = 1e-9
_MAX_PIVOTS = 50_000
_UNBOUNDED = "phase-1 objective unbounded; inconsistent tableau"


class _PhaseOneUnbounded(NumericalFailureError):
    pass


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction, np.integer)) and not isinstance(value, bool)


def _all_exact(rows) -> bool:
    return all(_is_exact(x) for row in rows for x in row)


def _fraction(x) -> Fraction:
    # numpy integers would otherwise survive as Fraction numerators.
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def solve_linear_feasibility(
    equalities,
    rhs,
    lower_bounds,
    inequalities=None,
    ineq_rhs=None,
    *,
    exact: bool | None = None,
    max_pivots: int = _MAX_PIVOTS,
):
    """Feasible point for the system, or None if infeasible.

    equalities / rhs:     A_eq x = b_eq  (lists or arrays; may be empty)
    lower_bounds:         one entry per variable; a number means x_i >= lb_i,
                          None means x_i is free
    inequalities / ineq_rhs: optional rows A x >= b, handled through slacks

    Returns a float ndarray in floating mode, a list of Fractions in exact
    mode.  Raises NumericalFailureError if the pivot cap is hit, and
    ValueError in floating mode if a value is not finite.
    """
    eq_rows = [list(r) for r in equalities]
    eq_b = list(rhs)
    lbs = list(lower_bounds)
    in_rows = [list(r) for r in (inequalities if inequalities is not None else [])]
    in_b = list(ineq_rhs) if ineq_rhs is not None else []
    if len(eq_rows) != len(eq_b) or len(in_rows) != len(in_b):
        raise ValueError("row/rhs length mismatch")
    nvars = len(lbs)
    for r in eq_rows + in_rows:
        if len(r) != nvars:
            raise ValueError("constraint row length does not match variable count")

    if exact is None:
        exact = (
            _all_exact(eq_rows)
            and _all_exact(in_rows)
            and _all_exact([eq_b, in_b])
            and all(x is None or _is_exact(x) for x in lbs)
        )
    if exact:
        return _solve_exact(eq_rows, eq_b, lbs, in_rows, in_b, max_pivots)
    floats = [[float(x) for x in row] for row in (*eq_rows, eq_b, *in_rows, in_b)]
    bounds = [None if x is None else float(x) for x in lbs]
    values = [x for row in floats for x in row] + [x for x in bounds if x is not None]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite coefficient, right-hand side or bound")
    n_eq = len(eq_rows)
    system = (floats[:n_eq], floats[n_eq], bounds, floats[n_eq + 1 : -1], floats[-1])
    try:
        return _solve_float(*system, max_pivots)
    except _PhaseOneUnbounded:
        pass
    # The exact standard form takes each float at its exact rational value.
    x = _solve_exact(*system, max_pivots)
    return None if x is None else np.array([float(v) for v in x])


def _standard_form(eq_rows, eq_b, lbs, in_rows, in_b, num):
    """Rows [A | b] over y >= 0 with b >= 0, plus the column map back to x.

    Inequality row r >= b becomes r - slack = b with slack >= 0; bounded
    variables are shifted by their bound, free ones split into y+ - y-.
    """
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

    col_map = []  # per original column: ("shift", y_col, lb) or ("free", y+, y-)
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


def _original_point(y, col_map, nvars):
    x = [y[s[1]] - y[s[2]] if s[0] == "free" else y[s[1]] + s[2] for s in col_map]
    return x[:nvars]  # drop slack values


@np.errstate(all="ignore")  # overflow gives inf and NaN silently, as Python floats do
def _solve_float(eq_rows, eq_b, lbs, in_rows, in_b, max_pivots):
    rows, col_map, width = _standard_form(eq_rows, eq_b, lbs, in_rows, in_b, float)
    m = len(rows)
    feas_tol = LP_TOL * (1.0 + float(max([abs(row[-1]) for row in rows], default=0.0)))

    # Phase I: artificial columns between the real ones and the rhs, and
    # below the rows the objective "sum of artificials": its reduced costs
    # are minus the column sums (added in row order from 0, as sum() does).
    total = width + m
    tableau = []
    for r, row in enumerate(rows):
        unit = [0.0] * m
        unit[r] = 1.0
        tableau.append(row[:-1] + unit + row[-1:])
    sums = [sum(c) for c in zip(*rows)] if m else [0.0] * (width + 1)
    tableau.append([-s for s in sums[:-1]] + [0.0] * m + [-sums[-1]])
    tableau = np.array(tableau)
    zrow = tableau[-1]
    basis = list(range(width, total))

    pivots = 0
    while True:
        # The first negative reduced cost; the rhs entry is not a column.
        negative = zrow < -LP_TOL
        enter = negative.argmax()
        if enter == total or not negative[enter]:
            break
        col = tableau[:, enter]
        factors = col.tolist()
        best_r, best_ratio = None, None
        for r, b in enumerate(tableau[:m, -1].tolist()):
            a = factors[r]
            if a > LP_TOL:
                ratio = b / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_r])
                ):
                    best_r, best_ratio = r, ratio
        if best_r is None:
            raise _PhaseOneUnbounded(_UNBOUNDED)
        prow = tableau[best_r] / factors[best_r]
        # Only rows with a nonzero factor change, so signed zeros survive.
        hit = col != 0.0
        hit[best_r] = False
        np.subtract(tableau, col[:, None] * prow, out=tableau, where=hit[:, None])
        tableau[best_r] = prow
        basis[best_r] = int(enter)
        pivots += 1
        if pivots > max_pivots:
            raise NumericalFailureError(f"simplex exceeded {max_pivots} pivots")

    if -zrow[-1] > feas_tol:
        return None
    y = [0.0] * width
    for var, value in zip(basis, tableau[:m, -1].tolist()):
        if var < width:
            y[var] = value
    return np.array([float(v) for v in _original_point(y, col_map, nvars=len(lbs))])


def _solve_exact(eq_rows, eq_b, lbs, in_rows, in_b, max_pivots):
    """Revised fraction-free Phase I with Bland's rule over [adj(B) | beta]
    and the objective row's artificial part (see the module docstring); a
    list of Fractions or None."""
    rational, col_map, width = _standard_form(eq_rows, eq_b, lbs, in_rows, in_b, _fraction)
    scale = math.lcm(*(x.denominator for row in rational for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in rational]
    m = len(ints)
    columns = [[(r, row[j]) for r, row in enumerate(ints) if row[j]] for j in range(width)]

    basis = list(range(width, width + m))
    adj = [[int(c == r) for c in range(m)] + [row[-1]] for r, row in enumerate(ints)]
    zrow = [0] * m + [-sum(row[-1] for row in ints)]
    denom = 1

    pivots = 0
    while True:
        # Bland's rule: the first column with a negative objective entry,
        # real columns priced from their nonzeros, then the artificial ones.
        dual = [z - denom for z in zrow[:m]]
        for j, column in enumerate(columns):
            zenter = sum(dual[r] * a for r, a in column)
            if zenter < 0:
                enter = j
                col = [sum(row[r] * a for r, a in column) for row in adj]
                break
        else:
            enter = next((i for i in range(m) if zrow[i] < 0), None)
            if enter is None:
                break
            zenter = zrow[enter]
            col = [row[enter] for row in adj]
            enter += width
        best_r = None
        for r in range(m):
            a = col[r]
            if a > 0:
                if best_r is None:
                    best_r, best_a, best_b = r, a, adj[r][-1]
                    continue
                # b/a versus best_b/best_a with both denominators positive.
                lhs, rhs = adj[r][-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_r]):
                    best_r, best_a, best_b = r, a, adj[r][-1]
        if best_r is None:
            raise NumericalFailureError(_UNBOUNDED)
        prow = adj[best_r]
        piv = col[best_r]
        for r in range(m):
            if r != best_r:
                adj[r] = _eliminate(adj[r], col[r], prow, piv, denom)
        zrow = _eliminate(zrow, zenter, prow, piv, denom)
        denom = piv
        basis[best_r] = enter
        pivots += 1
        if pivots > max_pivots:
            raise NumericalFailureError(f"simplex exceeded {max_pivots} pivots")

    if zrow[-1] < 0:  # phase-1 objective -zrow[-1] / D is positive
        return None
    y = [Fraction(0)] * width
    for r, var in enumerate(basis):
        if var < width:
            y[var] = Fraction(adj[r][-1], denom)
    return _original_point(y, col_map, nvars=len(lbs))


def _eliminate(row, factor, prow, piv, denom):
    """(row * piv - factor * prow) / denom, exactly."""
    if factor == 0:
        if piv == denom:
            return row
        return [x * piv // denom for x in row]
    return [(x * piv - factor * p) // denom for x, p in zip(row, prow)]
