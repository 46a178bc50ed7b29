"""Dense linear feasibility oracle.

Finds x with A_eq x = b_eq, A_ineq x >= b_ineq, and per-variable lower bounds
(None marks a free variable), or certifies that no such x exists.  The solver
is a Phase-I simplex with Bland's rule, so it terminates and is deterministic
for a fixed input ordering.  Arithmetic runs in floating point with the
module tolerance ``LP_TOL`` by default and switches to exact arithmetic
whenever every input is an int or Fraction (or when ``exact=True``), in which
case all comparisons are exact.

Exact mode pivots on an integer tableau (integer-preserving elimination after
Edmonds 1967 and Bareiss 1968).  The standard-form rows are scaled by the lcm
L of their denominators, so every entry is an int, and the whole tableau
shares one positive denominator D, the determinant of the current basis
(D = 1 for the starting artificial basis).  A pivot on (p, e) replaces every
other row r, the objective row included, by (T[r]*T[p][e] - T[r][e]*T[p]) / D,
a division that is exact by Sylvester's determinant identity, and sets D to
T[p][e].  Since L and D are positive, every sign and every ratio comparison
agrees with the rational tableau, so the pivot sequence and the returned
Fractions are those of plain Fraction pivoting, without a gcd per entry.

In floating mode a tableau that drifts into a state exact arithmetic cannot
reach (a phase-1 objective that looks unbounded below) is not an answer: the
system is solved again exactly on the rational images of the same floats, and
that solution is returned as floats.
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
    mode.  Raises NumericalFailureError if the pivot cap is hit.
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
    system = (eq_rows, eq_b, lbs, in_rows, in_b)
    if exact:
        return _solve_exact(*system, max_pivots)
    try:
        return _solve_float(*system, max_pivots)
    except _PhaseOneUnbounded:
        images = _float_images(*system)
    if images is None:
        raise NumericalFailureError(_UNBOUNDED)
    x = _solve_exact(*images, max_pivots)
    return None if x is None else np.array([float(v) for v in x])


def _float_images(eq_rows, eq_b, lbs, in_rows, in_b):
    """The floats the float solver saw, as exact Fractions; None if one of
    them is not finite."""
    floats = [[float(x) for x in row] for row in (*eq_rows, eq_b, *in_rows, in_b)]
    bounds = [None if x is None else float(x) for x in lbs]
    values = [x for row in floats for x in row] + [x for x in bounds if x is not None]
    if not all(map(math.isfinite, values)):
        return None
    exact = [[Fraction(x) for x in row] for row in floats]
    n_eq = len(eq_rows)
    return (
        exact[:n_eq],
        exact[n_eq],
        [None if x is None else Fraction(x) for x in bounds],
        exact[n_eq + 1 : -1],
        exact[-1],
    )


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


def _solve_float(eq_rows, eq_b, lbs, in_rows, in_b, max_pivots):
    tableau, col_map, width = _standard_form(eq_rows, eq_b, lbs, in_rows, in_b, float)
    m = len(tableau)
    rhs_scale = max([abs(row[-1]) for row in tableau], default=0.0)
    feas_tol = LP_TOL * (1.0 + float(rhs_scale))

    # Phase I: append artificial columns, minimize their sum.
    total = width + m
    basis = []
    for r in range(m):
        row = tableau[r]
        row[-1:-1] = [0.0] * m  # insert artificial block before rhs
        row[width + r] = 1.0
        basis.append(width + r)
    # Reduced costs (artificial basis): -sum of rows on real columns.
    zrow = [0.0] * (total + 1)
    for j in range(width):
        zrow[j] = -sum(tableau[r][j] for r in range(m))
    zrow[-1] = -sum(tableau[r][-1] for r in range(m))  # = -objective

    pivots = 0
    while True:
        enter = next((j for j in range(total) if zrow[j] < -LP_TOL), None)
        if enter is None:
            break
        best_r, best_ratio = None, None
        for r in range(m):
            a = tableau[r][enter]
            if a > LP_TOL:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_r])
                ):
                    best_r, best_ratio = r, ratio
        if best_r is None:
            raise _PhaseOneUnbounded(_UNBOUNDED)
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
    return np.array([float(v) for v in _original_point(y, col_map, nvars=len(lbs))])


def _solve_exact(eq_rows, eq_b, lbs, in_rows, in_b, max_pivots):
    """Phase I with Bland's rule on an integer tableau with common
    denominator D (see the module docstring); a list of Fractions or None."""
    rational, col_map, width = _standard_form(eq_rows, eq_b, lbs, in_rows, in_b, _fraction)
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
                # b/a versus best_b/best_a with both denominators positive.
                lhs, rhs = tableau[r][-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_r]):
                    best_r, best_a, best_b = r, a, tableau[r][-1]
        if best_r is None:
            raise NumericalFailureError(_UNBOUNDED)
        prow = tableau[best_r]
        piv = prow[enter]
        for r in range(m):
            if r != best_r:
                tableau[r] = _eliminate(tableau[r], prow, enter, piv, denom)
        zrow = _eliminate(zrow, prow, enter, piv, denom)
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
            y[var] = Fraction(tableau[r][-1], denom)
    return _original_point(y, col_map, nvars=len(lbs))


def _eliminate(row, prow, enter, piv, denom):
    """(row * piv - row[enter] * prow) / denom, exactly."""
    factor = row[enter]
    if factor == 0:
        if piv == denom:
            return row
        return [x * piv // denom for x in row]
    return [(x * piv - factor * p) // denom for x, p in zip(row, prow)]
