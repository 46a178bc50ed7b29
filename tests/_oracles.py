"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately implemented from first principles with no
code shared with the package: exact Gaussian elimination over Fractions,
Fourier-Motzkin elimination for linear feasibility, a revised Phase-I simplex
over Fractions, and an angular sweep for two-dimensional cones.
"""

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


def fourier_motzkin_feasible(ineqs, eqs=(), eq_rhs=(), ineq_rhs=None) -> bool:
    """Feasibility of {A x >= b, C x = d} by exact variable elimination.

    `ineqs` rows with right-hand sides `ineq_rhs` (default 0), equalities are
    rewritten as two opposite inequalities.  Exponential in general; fine for
    the tiny systems used in tests.
    """
    rows = []
    if ineq_rhs is None:
        ineq_rhs = [0] * len(ineqs)
    for r, b in zip(ineqs, ineq_rhs):
        rows.append([Fraction(x) for x in r] + [Fraction(b)])
    for r, b in zip(eqs, eq_rhs):
        rows.append([Fraction(x) for x in r] + [Fraction(b)])
        rows.append([-Fraction(x) for x in r] + [-Fraction(b)])
    if not rows:
        return True

    def normalized(row):
        lead = next((abs(x) for x in row[:-1] if x != 0), None)
        if lead is None:
            return tuple(row)
        return tuple(x / lead for x in row)

    nvars = len(rows[0]) - 1
    for _ in range(nvars):
        pos = [r for r in rows if r[0] > 0]
        neg = [r for r in rows if r[0] < 0]
        zero = [r[1:] for r in rows if r[0] == 0]
        combined = []
        for p in pos:
            for q in neg:
                scale_p, scale_q = -q[0], p[0]
                combined.append(
                    [scale_p * a + scale_q * b for a, b in zip(p[1:], q[1:])]
                )
        # Dedup and drop trivially satisfied rows to keep growth in check.
        rows = []
        seen = set()
        for r in zero + combined:
            if all(x == 0 for x in r[:-1]) and r[-1] <= 0:
                continue
            key = normalized(r)
            if key not in seen:
                seen.add(key)
                rows.append(r)
        if not rows:
            return True
    return all(r[0] <= 0 for r in rows)


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
    bounds = [None if lb is None else Fraction(lb) for lb in lower_bounds] + [Fraction(0)] * k
    constraints = [([Fraction(c) for c in row] + [Fraction(0)] * k, Fraction(rhs))
                   for row, rhs in zip(eqs, eq_rhs)]
    for i, (row, rhs) in enumerate(zip(ineqs, ineq_rhs)):
        coeffs = [Fraction(c) for c in row] + [Fraction(0)] * k
        coeffs[n + i] = Fraction(-1)
        constraints.append((coeffs, Fraction(rhs)))

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
