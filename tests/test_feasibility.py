from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import (
    NumericalFailureError,
    VectorStar,
    cones,
    positive_dependence,
    solve_linear_feasibility,
    strict_expansion_probe,
    stressed_framework,
    vertex_star,
)

from _oracles import bland_phase_one_point, fourier_motzkin_feasible


def test_sum_with_unit_lower_bounds_infeasible():
    assert solve_linear_feasibility([[1, 1]], [0], [1, 1]) is None


def test_difference_with_unit_lower_bounds_feasible():
    x = solve_linear_feasibility([[1, -1]], [0], [1, 1])
    assert x is not None
    assert x[0] == pytest.approx(x[1])
    assert min(x) >= 1 - 1e-12


def test_free_variables_and_inequalities():
    # h in R^2 with <h, e1> >= 1 and <h, (1,1)> >= 1: feasible.
    h = solve_linear_feasibility(
        [], [], [None, None], inequalities=[[1, 0], [1, 1]], ineq_rhs=[1, 1]
    )
    assert h is not None
    assert h[0] >= 1 - 1e-9 and h[0] + h[1] >= 1 - 1e-9


def test_infeasible_inequalities():
    # x >= 1 and -x >= 0 cannot hold together.
    assert (
        solve_linear_feasibility([], [], [1.0], inequalities=[[-1]], ineq_rhs=[0])
        is None
    )


def test_exact_mode_returns_fractions():
    x = solve_linear_feasibility(
        [[Fraction(1), Fraction(-2)]], [Fraction(0)], [1, 1]
    )
    assert isinstance(x, list) and all(isinstance(v, Fraction) for v in x)
    assert x[0] - 2 * x[1] == 0
    assert min(x) >= 1


def test_exact_mode_infeasible():
    assert solve_linear_feasibility([[1, 1]], [0], [Fraction(1), Fraction(1)]) is None


def test_stressed_star_separating_system_feasible():
    # Eight inequalities <h, v_i> >= 1 over three unknowns, cross-checked by
    # exact elimination.
    star = vertex_star(stressed_framework(), "green")
    vs = [[Fraction(x) for x in v] for v in star.vectors]  # dyadic floats are exact
    h = solve_linear_feasibility(
        [], [], [None, None, None], inequalities=[list(v) for v in star.vectors],
        ineq_rhs=[1.0] * len(star),
    )
    assert h is not None
    assert fourier_motzkin_feasible(vs, ineq_rhs=[1] * len(vs))


def test_determinism():
    args = ([[1, 2, -1], [0, 1, 1]], [1, 2], [0, 0, None])
    a = solve_linear_feasibility(*args)
    b = solve_linear_feasibility(*args)
    assert np.array_equal(a, b)


def test_pivot_cap():
    with pytest.raises(NumericalFailureError):
        solve_linear_feasibility([[1, 1]], [5], [0, 0], max_pivots=0)


@st.composite
def rational_systems(draw):
    n_vars = draw(st.integers(1, 4))
    n_eq = draw(st.integers(0, 2))
    n_ineq = draw(st.integers(0, 3))
    val = st.integers(-4, 4)
    eqs = [[draw(val) for _ in range(n_vars)] for _ in range(n_eq)]
    eq_rhs = [draw(val) for _ in range(n_eq)]
    ineqs = [[draw(val) for _ in range(n_vars)] for _ in range(n_ineq)]
    ineq_rhs = [draw(val) for _ in range(n_ineq)]
    lbs = [draw(st.sampled_from([None, 0, 1, -2])) for _ in range(n_vars)]
    return eqs, eq_rhs, ineqs, ineq_rhs, lbs


@given(rational_systems())
@settings(max_examples=120, deadline=None)
def test_verdicts_match_fourier_motzkin(system):
    eqs, eq_rhs, ineqs, ineq_rhs, lbs = system
    x = solve_linear_feasibility(
        eqs, eq_rhs, lbs, inequalities=ineqs or None, ineq_rhs=ineq_rhs or None
    )
    # Independent oracle: bounds become inequality rows.
    n_vars = len(lbs)
    all_ineqs = [list(r) for r in ineqs]
    all_rhs = list(ineq_rhs)
    for i, lb in enumerate(lbs):
        if lb is not None:
            row = [0] * n_vars
            row[i] = 1
            all_ineqs.append(row)
            all_rhs.append(lb)
    expected = fourier_motzkin_feasible(all_ineqs, eqs, eq_rhs, ineq_rhs=all_rhs)
    assert (x is not None) == expected
    if x is not None:
        x = np.asarray([float(v) for v in x])
        for r, b in zip(eqs, eq_rhs):
            assert np.dot(r, x) == pytest.approx(b, abs=1e-7)
        for r, b in zip(all_ineqs, all_rhs):
            assert np.dot(r, x) >= b - 1e-7


# -- exact mode against the independent Phase-I oracle --------------------------


def assert_same_point(got, expected):
    """Identical Fractions, not just the same verdict."""
    if expected is None:
        assert got is None
        return
    assert isinstance(got, list) and all(type(v) is Fraction for v in got)
    assert got == expected


@st.composite
def fractional_systems(draw):
    n_vars = draw(st.integers(1, 5))
    n_eq = draw(st.integers(0, 3))
    n_ineq = draw(st.integers(0, 4))
    val = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    eqs = [[draw(val) for _ in range(n_vars)] for _ in range(n_eq)]
    eq_rhs = [draw(val) for _ in range(n_eq)]
    ineqs = [[draw(val) for _ in range(n_vars)] for _ in range(n_ineq)]
    ineq_rhs = [draw(val) for _ in range(n_ineq)]
    lb = st.sampled_from([None, 0, 1, -2, Fraction(3, 2), Fraction(-1, 3)])
    lbs = [draw(lb) for _ in range(n_vars)]
    return eqs, eq_rhs, lbs, ineqs, ineq_rhs


@given(fractional_systems())
@settings(max_examples=200, deadline=None)
def test_exact_mode_matches_phase_one_oracle(system):
    # Free variables, fractional and negative bounds, inequalities and
    # negative right-hand sides all occur in the strategy.
    eqs, eq_rhs, lbs, ineqs, ineq_rhs = system
    got = solve_linear_feasibility(eqs, eq_rhs, lbs, inequalities=ineqs, ineq_rhs=ineq_rhs)
    assert_same_point(got, bland_phase_one_point(eqs, eq_rhs, lbs, ineqs, ineq_rhs))


@st.composite
def star_vectors(draw, d, k):
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    nonzero = st.lists(entry, min_size=d, max_size=d).filter(any)
    vectors = draw(st.lists(nonzero, min_size=k, max_size=k))
    if k >= 3 and draw(st.booleans()):
        # Plant a positive dependence through the last vector.
        weights = draw(st.lists(st.integers(1, 3), min_size=k - 1, max_size=k - 1))
        planted = [-sum(w * v[c] for w, v in zip(weights, vectors)) for c in range(d)]
        if any(planted):
            vectors[-1] = planted
    return vectors


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_star_systems_match_phase_one_oracle(d, k, data):
    star = VectorStar("s", np.array(data.draw(star_vectors(d, k)), dtype=object))
    systems = []

    def recording(*args, **kwargs):
        result = solve_linear_feasibility(*args, **kwargs)
        systems.append((args, kwargs, result))
        return result

    with mock.patch.object(cones, "solve_linear_feasibility", recording):
        positive_dependence(star)
        strict_expansion_probe(star)
    assert len(systems) == 2
    for (eqs, eq_rhs, lbs), kwargs, result in systems:
        expected = bland_phase_one_point(
            eqs, eq_rhs, lbs, kwargs.get("inequalities") or [], kwargs.get("ineq_rhs") or []
        )
        assert_same_point(result, expected)


# -- exact-mode edge cases (expected values are the plain Fraction tableau's) ---


def test_exact_mode_without_rows():
    assert_same_point(solve_linear_feasibility([], [], [None, None], exact=True), [0, 0])
    assert_same_point(
        solve_linear_feasibility([], [], [None, 2, Fraction(1, 3)]), [0, 2, Fraction(1, 3)]
    )


def test_exact_mode_on_float_inputs():
    # 0.1 and friends enter as their exact dyadic values (denominators 2**55
    # and beyond), so the common row scale is large.
    eqs, eq_rhs, lbs = [[0.1, 0.2, -0.3]], [0.7], [0, 0, None]
    ineqs, ineq_rhs = [[1.0, -0.1, 0.0]], [0.3]
    x = solve_linear_feasibility(
        eqs, eq_rhs, lbs, inequalities=ineqs, ineq_rhs=ineq_rhs, exact=True
    )
    expected = [
        Fraction(46837436124653156, 75660473739824333),
        Fraction(869709723804583569412206964422738, 272595585073078466350521745628201),
        Fraction(0),
    ]
    assert_same_point(x, expected)
    assert_same_point(x, bland_phase_one_point(eqs, eq_rhs, lbs, ineqs, ineq_rhs))
    assert sum(Fraction(a) * v for a, v in zip(eqs[0], x)) == Fraction(0.7)

    tight = solve_linear_feasibility([[0.1, 0.2, -0.3]], [0.0], [1, 1, 1], exact=True)
    assert_same_point(tight, [1, 1, Fraction(10808639105689191, 10808639105689190)])
    assert solve_linear_feasibility([[0.1, 0.2]], [-0.3], [0, 0], exact=True) is None


def test_exact_mode_on_numpy_integers():
    eqs = np.array([[1, 2, -1], [0, 1, 1]], dtype=np.int64)
    x = solve_linear_feasibility(
        eqs, np.array([1, 2], dtype=np.int64), [np.int64(0), np.int64(0), None]
    )
    assert_same_point(x, [0, 1, 1])
    x = solve_linear_feasibility(
        np.array([[3, -2]], dtype=np.int64),
        np.array([-5], dtype=np.int64),
        [None, np.int64(1)],
        inequalities=np.array([[1, 1]], dtype=np.int64),
        ineq_rhs=np.array([4], dtype=np.int64),
    )
    assert_same_point(x, [Fraction(3, 5), Fraction(17, 5)])


def test_exact_pivot_cap_on_a_three_pivot_system():
    args = ([[1, 2, -1], [0, 1, 1]], [1, 2], [0, 0, None])
    kwargs = dict(inequalities=[[1, 1, 1]], ineq_rhs=[3])
    for cap in (0, 1, 2):
        with pytest.raises(NumericalFailureError, match=f"simplex exceeded {cap} pivots"):
            solve_linear_feasibility(*args, **kwargs, max_pivots=cap)
    expected = [Fraction(1), Fraction(2, 3), Fraction(4, 3)]
    assert_same_point(solve_linear_feasibility(*args, **kwargs, max_pivots=3), expected)
