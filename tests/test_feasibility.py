import collections
import contextlib
import functools
import importlib.util
import itertools
import math
import operator
import os
import random
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perigid import (
    NumericalFailureError,
    VectorStar,
    cones,
    feasibility,
    positive_dependence,
    solve_linear_feasibility,
    strict_expansion_probe,
    stressed_framework,
    vertex_star,
)

from _oracles import bland_phase_one_point, exact_rank, fourier_motzkin_feasible, frozen_feasibility

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def pivot_cap(cap):
    """The oracle's pivot cap set to `cap` inside the block.  A MonkeyPatch
    context, since hypothesis tests cannot take function-scoped fixtures."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_MAX_PIVOTS", cap)
        yield


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


def test_mismatched_rows_are_value_errors():
    with pytest.raises(ValueError, match="row/rhs length mismatch"):
        solve_linear_feasibility([[1, 1]], [1, 2], [0, 0])
    with pytest.raises(ValueError, match="row/rhs length mismatch"):
        solve_linear_feasibility([], [], [0, 0], [[1, 1]], [])
    with pytest.raises(ValueError, match="constraint row length does not match variable count"):
        solve_linear_feasibility([[1, 1, 1]], [1], [0, 0])


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
    with pivot_cap(0), pytest.raises(NumericalFailureError):
        solve_linear_feasibility([[1, 1]], [5], [0, 0])


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


FRACTION_ENTRIES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def star_vectors(draw, d, k, entry=FRACTION_ENTRIES, plant_from=3):
    nonzero = st.lists(entry, min_size=d, max_size=d).filter(any)
    vectors = draw(st.lists(nonzero, min_size=k, max_size=k))
    if k >= plant_from and draw(st.booleans()):
        # Plant a positive dependence through the last vector.
        weights = draw(st.lists(st.integers(1, 3), min_size=k - 1, max_size=k - 1))
        planted = [-sum(w * v[c] for w, v in zip(weights, vectors)) for c in range(d)]
        if any(planted):
            vectors[-1] = planted
    return vectors


def dependence_system(vectors):
    """(eqs, eq_rhs, lbs, ineqs, ineq_rhs) of a positive dependence, from its
    definition: sum_i a_i v_i = 0 with every a_i >= 1, over the entries as
    the star functions read them (``ndarray.tolist()``)."""
    vectors = np.asarray(vectors).tolist()
    d = len(vectors[0])
    return [[v[c] for v in vectors] for c in range(d)], [0] * d, [1] * len(vectors), [], []


def probe_system(vectors):
    """(eqs, eq_rhs, lbs, ineqs, ineq_rhs) of the strict-expansion probe, from
    its definition: free velocities vdot_i in k blocks of d, <v_i, vdot_i> = 0,
    <v_i - v_j, vdot_i - vdot_j> >= 0 for i < j, and the sum of those pair
    rows >= 1, over the entries as dependence_system reads them."""
    vectors = np.asarray(vectors).tolist()
    k, d = len(vectors), len(vectors[0])

    def row(*blocks):  # (block index, d values) pairs, zeros elsewhere
        out = [0] * (k * d)
        for i, values in blocks:
            out[i * d : (i + 1) * d] = values
        return out

    eqs = [row((i, list(v))) for i, v in enumerate(vectors)]
    pairs = []
    for i, j in itertools.combinations(range(k), 2):
        diff = [a - b for a, b in zip(vectors[i], vectors[j])]
        pairs.append(row((i, diff), (j, [-x for x in diff])))
    probe = [sum(column) for column in zip(*pairs)]
    return eqs, [0] * k, [None] * (k * d), pairs + [probe], [0] * len(pairs) + [1]


def flat(velocities):
    """A probe's answer as one point over the k * d unknowns."""
    if velocities is None:
        return None
    if isinstance(velocities, np.ndarray):
        return velocities.reshape(-1)
    return [c for v in velocities for c in v]


def recorded_systems(*calls):
    """(system, result) of every oracle call the cone functions make, the
    system as (eqs, eq_rhs, lbs, ineqs, ineq_rhs)."""
    systems = []

    def recording(*args, **kwargs):
        result = solve_linear_feasibility(*args, **kwargs)
        ineqs, ineq_rhs = kwargs.get("inequalities") or [], kwargs.get("ineq_rhs") or []
        systems.append(((*args, ineqs, ineq_rhs), result))
        return result

    with mock.patch.object(cones, "solve_linear_feasibility", recording):
        for call in calls:
            call()
    return systems


def dependence_and_probe(star):
    """The answers of positive_dependence and strict_expansion_probe on
    `star` (the probe's flattened), and the (system, result) of each oracle
    call they make."""
    answers = []
    seen = recorded_systems(
        lambda: answers.append(positive_dependence(star)),
        lambda: answers.append(flat(strict_expansion_probe(star))),
    )
    return answers, seen


def expected_calls(star, has_dependence):
    """The systems positive_dependence and strict_expansion_probe must send
    for `star`, a star of Fractions or of floats, in order: the dependence's
    twice, then the probe's, which the probe sends in either mode only after
    its own dependence system comes back infeasible."""
    return ["dependence"] * 2 + ["probe"] * (not has_dependence)


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_star_systems_match_phase_one_oracle(d, k, data):
    star = VectorStar("s", np.array(data.draw(star_vectors(d, k)), dtype=object))
    systems = {"dependence": dependence_system(star.vectors), "probe": probe_system(star.vectors)}
    expected = {name: bland_phase_one_point(*system) for name, system in systems.items()}
    answers, seen = dependence_and_probe(star)
    for got, name in zip(answers, ["dependence", "probe"]):
        assert_same_point(got, expected[name])
    # Systems by repr, which tells the types and -0.0 from 0.0.
    calls = expected_calls(star, expected["dependence"] is not None)
    assert [repr(system) for system, _ in seen] == [repr(systems[name]) for name in calls]
    for (_, result), name in zip(seen, calls):
        assert_same_point(result, expected[name])


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_float_dependence_skips_the_lineality_and_probe_systems(d, k, data):
    # The fast path against the path it skips: with a float dependence,
    # analyze_star's basis is lineality_space's bit for bit, of the star's
    # exact rank, and the exact values have a dependence too.
    vectors = data.draw(star_vectors(d, k, plant_from=2))
    float_star = VectorStar("s", np.array(vectors, dtype=float))
    assume(positive_dependence(float_star) is not None)
    basis = cones.analyze_star(float_star).lineality_basis
    expected = cones.lineality_space(float_star)
    assert basis.dtype == expected.dtype and basis.shape == expected.shape
    assert basis.tobytes() == expected.tobytes()
    assert basis.shape[0] == exact_rank(vectors)
    assert strict_expansion_probe(float_star) is None
    assert bland_phase_one_point(*dependence_system(vectors)) is not None


def assert_dependence_refutes_probe(vectors, dependence):
    """Farkas' lemma: weights y >= 0 on the rows of A x >= b and any weights z
    on the rows of C x = 0 with y A + z C = 0 and y b = 1 prove the probe
    system empty, since a point x would give 0 = y A x >= y b = 1.  From a
    positive dependence a (every a_i >= 1): a_i a_j - 1 on pair row (i, j), 1
    on the probe row and -a_i sum(a) on the equality row of v_i.  The
    inequality rows then sum to sum_j a_i a_j (v_i - v_j) in block i, which is
    a_i sum(a) v_i since sum_j a_j v_j = 0; a wrong dependence leaves a
    nonzero row."""
    eqs, eq_rhs, _, ineqs, ineq_rhs = probe_system(vectors)
    a = [Fraction(x) for x in dependence]
    assert min(a) >= 1
    ineq_weights = [a[i] * a[j] - 1 for i, j in itertools.combinations(range(len(a)), 2)] + [1]
    eq_weights = [-x * sum(a) for x in a]
    assert min(ineq_weights) >= 0
    weighted = list(zip(ineq_weights + eq_weights, ineqs + eqs, ineq_rhs + eq_rhs))
    assert [sum(w * Fraction(row[c]) for w, row, _ in weighted) for c in range(len(eqs[0]))] == [0] * len(eqs[0])
    assert sum(w * Fraction(b) for w, _, b in weighted) == 1


EXACT_ENTRIES = st.one_of(st.integers(-6, 6), FRACTION_ENTRIES, st.integers(-6, 6).map(np.int64))


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_dependence_refutes_the_exact_probe(d, k, data):
    # int, Fraction and np.int64 entries, mixed; half the stars planted.
    vectors = data.draw(star_vectors(d, k, entry=EXACT_ENTRIES, plant_from=2))
    star = VectorStar("s", np.array(vectors, dtype=object))
    probe = probe_system(star.vectors)
    assert_same_point(flat(strict_expansion_probe(star)), bland_phase_one_point(*probe))
    dependence = bland_phase_one_point(*dependence_system(star.vectors))
    if dependence is not None:
        assert_dependence_refutes_probe(star.vectors, dependence)
    # A float star, and one float among exact entries (first or last), send
    # the dependence system to the oracle, then the probe system only when
    # the float dependence comes back infeasible.
    mixed = [np.array(vectors, dtype=object) for _ in range(2)]
    for vs, at in zip(mixed, [(0, 0), (-1, -1)]):
        vs[at] = float(vs[at])
    for vs in (star.as_float(), *mixed):
        seen = recorded_systems(functools.partial(strict_expansion_probe, VectorStar("s", vs)))
        dependence = dependence_system(vs)
        expected = [dependence] + [probe_system(vs)] * (frozen_feasibility(*dependence) is None)
        assert [repr(system) for system, _ in seen] == [repr(system) for system in expected]


def test_dependence_refutes_the_probe_of_a_planted_star():
    # A planted d = 3, k = 6 star on which Fourier-Motzkin elimination of the
    # probe system took ~10 s and ~170 MB; the certificate is exact and
    # instant, and a dependence off by one in one weight fails it.
    vectors = [[4, 0, -6], [4, -4, 6], [-3, -5, 3], [0, -1, 6], [3, 3, -4], [-22, 9, -9]]
    dependence = bland_phase_one_point(*dependence_system(vectors))
    assert dependence is not None and bland_phase_one_point(*probe_system(vectors)) is None
    assert strict_expansion_probe(VectorStar("s", np.array(vectors, dtype=object))) is None
    assert_dependence_refutes_probe(vectors, dependence)
    with pytest.raises(AssertionError):
        assert_dependence_refutes_probe(vectors, [dependence[0] + 1, *dependence[1:]])


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


def test_exact_mode_takes_numpy_floats_at_their_float_value():
    # Neither a float nor rational: exact mode takes its float image, as the
    # float mode and its exact fallback do.
    for value in (np.float32(1), np.float16(1), np.float32(0.1), np.float16(0.1)):
        x = solve_linear_feasibility([[value]], [1.0], [0], exact=True)
        assert_same_point(x, [1 / Fraction(float(value))])
        assert solve_linear_feasibility([[value]], [1.0], [0]).tolist() == [1 / float(value)]


def test_exact_pivot_cap_on_a_three_pivot_system():
    args = ([[1, 2, -1], [0, 1, 1]], [1, 2], [0, 0, None])
    kwargs = dict(inequalities=[[1, 1, 1]], ineq_rhs=[3])
    for cap in (0, 1, 2):
        with pivot_cap(cap), pytest.raises(NumericalFailureError, match=f"simplex exceeded {cap} pivots"):
            solve_linear_feasibility(*args, **kwargs)
    expected = [Fraction(1), Fraction(2, 3), Fraction(4, 3)]
    with pivot_cap(3):
        assert_same_point(solve_linear_feasibility(*args, **kwargs), expected)


# -- the package against the frozen row-by-row tableau, byte for byte ------------


def result_bytes(x):
    """A solve's answer as comparable bytes: Fractions with their types,
    float arrays with dtype, shape and every bit (signed zeros included)."""
    if x is None:
        return ("infeasible",)
    if isinstance(x, list):
        return ("fractions", [(type(v), v) for v in x])
    return ("floats", x.dtype.str, x.shape, x.tobytes())


def outcome(solve, *args, **kwargs):
    try:
        return result_bytes(solve(*args, **kwargs))
    except Exception as exc:  # compared by type name and message
        return ("raised", type(exc).__name__, str(exc))


def assert_matches_frozen(eqs, eq_rhs, lbs, ineqs, ineq_rhs, *, exact=None):
    """Same outcome as the frozen tableau at every pivot cap from 0 up to the
    solve's own pivot count; each cap below it trips with the same message."""
    for cap in itertools.count():
        with pivot_cap(cap):
            got = outcome(
                solve_linear_feasibility, eqs, eq_rhs, lbs, inequalities=ineqs, ineq_rhs=ineq_rhs,
                exact=exact,
            )
        expected = outcome(
            frozen_feasibility, eqs, eq_rhs, lbs, ineqs, ineq_rhs, exact=exact, max_pivots=cap
        )
        assert got == expected
        if expected != ("raised", "NumericalFailureError", f"simplex exceeded {cap} pivots"):
            return


def assert_star_calls_match_frozen(star):
    """The float and exact dependence and probe of `star`, a star of
    Fractions, give the frozen tableau's bytes on their own systems, built
    here, and the oracle sees just the systems `expected_calls` names; the
    number of systems it saw."""
    n_seen = 0
    for s in (VectorStar(star.vertex_orbit, star.as_float()), star):
        systems = {"dependence": dependence_system(s.vectors), "probe": probe_system(s.vectors)}
        frozen = {name: frozen_feasibility(*system) for name, system in systems.items()}
        answers, seen = dependence_and_probe(s)
        assert [result_bytes(x) for x in answers] == [result_bytes(frozen[name]) for name in systems]
        # Systems by repr, which tells the types and -0.0 from 0.0.
        calls = expected_calls(s, frozen["dependence"] is not None)
        assert [repr(system) for system, _ in seen] == [repr(systems[name]) for name in calls]
        assert [result_bytes(x) for _, x in seen] == [result_bytes(frozen[name]) for name in calls]
        n_seen += len(seen)
    return n_seen


# Small quotients round like real data and tie often in the ratio test.
FLOATS = st.one_of(st.just(-0.0), st.builds(operator.truediv, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def float_systems(draw):
    n_vars = draw(st.integers(0, 4))
    row = st.lists(FLOATS, min_size=n_vars, max_size=n_vars)
    eqs = draw(st.lists(row, max_size=3))
    ineqs = draw(st.lists(row, max_size=3))
    eq_rhs = draw(st.lists(FLOATS, min_size=len(eqs), max_size=len(eqs)))
    ineq_rhs = draw(st.lists(FLOATS, min_size=len(ineqs), max_size=len(ineqs)))
    bound = st.sampled_from([None, 0.0, -0.0, 1.0, -2.0, 0.5])
    lbs = draw(st.lists(bound, min_size=n_vars, max_size=n_vars))
    return eqs, eq_rhs, lbs, ineqs, ineq_rhs


@given(float_systems(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_float_systems_match_frozen_tableau(system, exact):
    # Free variables, negative and -0.0 right-hand sides, ratio ties and
    # systems without rows all occur; exact=True solves the floats' values.
    assert_matches_frozen(*system, exact=exact)


@given(fractional_systems())
@settings(max_examples=150, deadline=None)
def test_exact_systems_match_frozen_tableau(system):
    assert_matches_frozen(*system)


# Every input type the mode rule sees; small values so negative shifted
# right-hand sides (negated rows) and -0.0 entries occur often.
MIXED = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(np.int64),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    FLOATS,
    FLOATS.map(np.float64),
)


@st.composite
def mixed_systems(draw):
    n_vars = draw(st.integers(1, 4))
    row = st.lists(MIXED, min_size=n_vars, max_size=n_vars)
    eqs = draw(st.lists(row, max_size=3))
    ineqs = draw(st.lists(row, max_size=3))
    eq_rhs = draw(st.lists(MIXED, min_size=len(eqs), max_size=len(eqs)))
    ineq_rhs = draw(st.lists(MIXED, min_size=len(ineqs), max_size=len(ineqs)))
    bound = st.one_of(st.none(), MIXED)
    lbs = draw(st.lists(bound, min_size=n_vars, max_size=n_vars))
    return eqs, eq_rhs, lbs, ineqs, ineq_rhs


@given(mixed_systems(), st.sampled_from([None, True, False]))
@settings(max_examples=200, deadline=None)
def test_mixed_type_systems_match_frozen_tableau(system, exact):
    # ints, numpy ints, Fractions, floats and numpy floats in one system: the
    # mode rule, the float images, signed zeros and negated rows all agree.
    assert_matches_frozen(*system, exact=exact)


# Every exact-mode input type; the bools and floats only under exact=True.
EXACT_INPUTS = st.one_of(MIXED, st.booleans())


def fraction_columns(eqs, eq_rhs, lbs, ineqs, ineq_rhs):
    """The exact standard form, built here in Fractions on dense rows: a slack
    per inequality, bounded variables shifted, free ones split, a row with a
    negative rhs negated, then every row scaled by the lcm of all
    denominators.  Its integer columns, each (row, integer) at the nonzeros,
    and its integer rhs."""
    def value(x):
        return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)

    n_y = sum(2 if lb is None else 1 for lb in lbs)
    rows = []
    for r, (row, b) in enumerate(zip(eqs + ineqs, eq_rhs + ineq_rhs)):
        dense, rhs, col = [Fraction(0)] * (n_y + len(ineqs)), value(b), 0
        for x, lb in zip(row, lbs):
            dense[col] = value(x)
            if lb is None:
                dense[col + 1] = -dense[col]
            else:
                rhs -= dense[col] * value(lb)
            col += 2 if lb is None else 1
        if r >= len(eqs):
            dense[n_y + r - len(eqs)] = Fraction(-1)
        rows.append([-v for v in dense + [rhs]] if rhs < 0 else dense + [rhs])
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    ints = [[int(v * scale) for v in row] for row in rows]
    columns = [[(r, row[c]) for r, row in enumerate(ints) if row[c]] for c in range(n_y + len(ineqs))]
    return columns, [row[-1] for row in ints]


@st.composite
def exact_input_systems(draw):
    n_vars = draw(st.integers(1, 4))
    row = st.lists(EXACT_INPUTS, min_size=n_vars, max_size=n_vars)
    eqs, ineqs = draw(st.lists(row, max_size=3)), draw(st.lists(row, max_size=3))
    eq_rhs = draw(st.lists(EXACT_INPUTS, min_size=len(eqs), max_size=len(eqs)))
    ineq_rhs = draw(st.lists(EXACT_INPUTS, min_size=len(ineqs), max_size=len(ineqs)))
    lbs = draw(st.lists(st.one_of(st.none(), EXACT_INPUTS), min_size=n_vars, max_size=n_vars))
    return eqs, eq_rhs, lbs, ineqs, ineq_rhs


@given(exact_input_systems())
@example(([[1, Fraction(1, 2)]], [-3], [2, None], [[np.int64(1), True]], [-0.5]))  # both rows negated
@settings(max_examples=200, deadline=None)
def test_integer_rows_are_the_scaled_fraction_rows(system):
    # ints, Fractions, numpy ints, bools and floats, free and bounded
    # variables and negated rows: the exact form holds the integers of the
    # Fraction standard form, and the solve gives the frozen tableau's point.
    columns, rhs, _ = feasibility._integer_form(*system)
    assert (columns, rhs) == fraction_columns(*system)
    assert all(type(v) is int for column in columns for _, v in column)
    assert all(type(v) is int for v in rhs)
    assert_matches_frozen(*system, exact=True)


def test_entering_artificial_is_the_lowest_indexed():
    # Bland's rule among the nonbasic artificials picks the lowest index, not
    # the one whose column left the basis first: the frozen tableau ends
    # infeasible after 9 pivots, the order of leaving after 5.
    assert_matches_frozen(
        [[-2, -1, 0], [-1, 3, -2]], [-1, 3], [None, 1, None], [[2, -3, 1], [-1, 3, -2]], [-1, -3]
    )


@st.composite
def crowded_systems(draw):
    # More rows than free variables, so artificials leave and re-enter the
    # basis with a choice among several: the Bland order among them matters.
    n_vars, n_eq, n_ineq = draw(st.integers(2, 4)), draw(st.integers(3, 5)), draw(st.integers(3, 5))
    val = st.integers(-3, 3)
    eqs = [[draw(val) for _ in range(n_vars)] for _ in range(n_eq)]
    eq_rhs = [draw(val) for _ in range(n_eq)]
    ineqs = [[draw(val) for _ in range(n_vars)] for _ in range(n_ineq)]
    ineq_rhs = [draw(val) for _ in range(n_ineq)]
    return eqs, eq_rhs, [None] * n_vars, ineqs, ineq_rhs


@given(crowded_systems())
@settings(max_examples=150, deadline=None)
def test_crowded_integer_systems_match_frozen_tableau(system):
    assert_matches_frozen(*system)


def test_small_integer_systems_match_frozen_tableau_at_every_pivot_cap():
    # More rows than free variables, so artificials leave and re-enter the
    # basis often: about 3% of these systems pivot differently when the
    # entering artificial is not the lowest-indexed one.
    rng = random.Random(24)
    for _ in range(200):
        n_vars = rng.randint(2, 4)
        eqs, ineqs = (
            [[rng.randint(-3, 3) for _ in range(n_vars)] for _ in range(rng.randint(3, 5))]
            for _ in range(2)
        )
        eq_rhs, ineq_rhs = ([rng.randint(-3, 3) for _ in rows] for rows in (eqs, ineqs))
        assert_matches_frozen(eqs, eq_rhs, [None] * n_vars, ineqs, ineq_rhs)


def test_stale_rows_match_frozen_tableau_at_every_pivot_cap():
    # A row whose entry in the entering column is 0 keeps the integers of an
    # older determinant.  Sparse rows make such rows sit out several pivots
    # in a row; every other system has a planted integer point, so it is
    # feasible and its stale rows are read out as the answer.
    rng = random.Random(26)

    def entry():
        return 0 if rng.random() < 0.4 else rng.randint(-3, 3)

    stale = collections.Counter()
    for i in range(150):
        n_vars = rng.randint(3, 5)
        eqs, ineqs = (
            [[entry() for _ in range(n_vars)] for _ in range(rng.randint(3, 6))] for _ in range(2)
        )
        if i % 2:
            point = [rng.randint(-2, 2) for _ in range(n_vars)]
            eq_rhs = [sum(map(operator.mul, row, point)) for row in eqs]
            ineq_rhs = [sum(map(operator.mul, row, point)) - rng.randint(0, 2) for row in ineqs]
        else:
            eq_rhs, ineq_rhs = ([rng.randint(-3, 3) for _ in rows] for rows in (eqs, ineqs))
        system = (eqs, eq_rhs, [None] * n_vars, ineqs, ineq_rhs)
        assert_matches_frozen(*system)
        frozen_feasibility(*system, stale=stale)
    kinds = ("eliminated", "pivot row, real leaves", "pivot row, artificial leaves", "read out")
    assert set(stale) == set(kinds) and min(stale.values()) >= 20, stale


ZERO_FACTOR_SYSTEM = ([[0.5, 3.0], [0.0, -0.5]], [-0.0, -0.0], [None, None], [[2.0, -0.0]], [-0.0])


def test_rows_with_a_zero_factor_keep_their_signed_zeros():
    # x - 0.0 * p turns x = -0.0 into 0.0 when p < 0 (or -0.0 * p, p > 0),
    # so a pivot must leave rows whose factor is zero untouched.
    system = ZERO_FACTOR_SYSTEM
    x = solve_linear_feasibility(*system[:3], inequalities=system[3], ineq_rhs=system[4])
    assert x.tobytes() == np.array([-0.0, 0.0]).tobytes()
    assert_matches_frozen(*system)


def test_negative_zero_rhs_of_an_inequality_becomes_zero():
    # The slack's shift by 0 turns an inequality's -0.0 rhs into 0.0, so x
    # reads 0.0; an equality has no slack, and its -0.0 survives into x.
    for system, expected in (
        (([], [], [None], [[1.0]], [-0.0]), 0.0),
        (([[1.0]], [-0.0], [None], [[1.0]], [-0.0]), -0.0),
    ):
        x = solve_linear_feasibility(*system[:3], inequalities=system[3], ineq_rhs=system[4])
        assert x.tobytes() == np.array([expected]).tobytes()
        assert_matches_frozen(*system)


class _Rational(Fraction):
    """A Fraction subclass, which the exact standard form keeps as it is."""


def test_fraction_subclass_entries_and_bounds_give_plain_fractions():
    half, third = _Rational(1, 2), _Rational(-1, 3)
    for system in (
        ([[half, half]], [half], [third, third], [], []),
        ([], [], [third, None], [[half, 0]], [third]),
    ):
        x = solve_linear_feasibility(*system[:3], inequalities=system[3], ineq_rhs=system[4])
        assert all(type(v) is Fraction for v in x)
        assert_matches_frozen(*system)  # result_bytes compares the types too


@pytest.mark.parametrize(
    "one, exact",
    [
        (1, True), (Fraction(1), True), (np.int64(1), True), (_Rational(1), True),
        (1.0, False), (np.float64(1), False), (np.float32(1), False), (True, False),
    ],
)
def test_the_mode_pass_reads_each_entry_type(one, exact):
    # ints and Fractions by their type, numpy ints and Fraction subclasses
    # by the general test, are exact; a bool, like any float, is not.
    x = solve_linear_feasibility([[one, one]], [one], [0, 0])
    assert isinstance(x, list) == exact and x[0] + x[1] == 1


def test_breakdown_star_systems_match_frozen_tableau():
    # The star of test_float_probe_recovers_where_the_float_tableau_fails:
    # its float probe breaks down and is re-solved exactly.
    F = Fraction
    vs = [
        (F(3, 4), F(5, 4), F(5, 3)),
        (F(3), F(4), F(6)),
        (F(-5, 2), F(-1, 2), F(6)),
        (F(6), F(-5), F(-4)),
        (F(1, 3), F(6), F(5, 3)),
        (F(0), F(1, 2), F(1, 2)),
    ]
    # Float and exact dependence, then each probe's dependence and own
    # system, since the star has no dependence.
    assert assert_star_calls_match_frozen(VectorStar("s", np.array(vs, dtype=object))) == 6


needs_perfbench = pytest.mark.skipif(
    not os.path.isfile(os.path.join(ROOT, "perfbench", "workloads.py")),
    reason="no perfbench/ in this checkout",
)


def workload_stars(monkeypatch, seed):
    """The stars of `perfbench/run.py --workload stars --seed <seed>`, in
    `star_plan` order: the workload draws the stressed framework's 3 x 3
    rotation, then its star mix."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    rng = np.random.default_rng(seed)
    workloads.random_rotation(rng, 3)
    return [
        VectorStar("s", np.array(workloads._star_vectors(rng, d, k, plant), dtype=object))
        for d, k, plant in workloads.star_plan(workloads.STARS_PER_STRATUM)
    ]


@needs_perfbench
def test_stars_workload_oracle_calls_match_frozen_tableau(monkeypatch):
    # Each seed-1 star's float and exact dependence and probe must give the
    # frozen tableau's bytes, which keeps the stars digests fixed.
    stars = workload_stars(monkeypatch, 1)
    dependent = sum(frozen_feasibility(*dependence_system(s.vectors)) is not None for s in stars)
    assert (len(stars), dependent) == (110, 63)
    # Per star: float and exact dependence and each probe's dependence; each
    # probe's own system only for the 47 stars without one.
    with counted_loops() as rows:
        assert sum(map(assert_star_calls_match_frozen, stars)) == 4 * 110 + 2 * 47 == 534
    # The float systems take both pivot loops: dependences and the 22 k = 2
    # probes the list loop, the 25 probes of k >= 3 stars without a
    # dependence (7 rows and up) the array loop.
    assert (len(rows["lists"]), len(rows["array"])) == (2 * 110 + 22, 25)


@needs_perfbench
@pytest.mark.parametrize("seed, index", [(3804, 103), (3809, 100), (3887, 104), (3927, 109)])
def test_float_dependence_settles_the_float_probe(monkeypatch, seed, index):
    # d = 3, k = 6 workload stars whose float probe system, solved alone,
    # accepts a point, although the exact values of those floats have a
    # dependence and an infeasible probe system.
    star = workload_stars(monkeypatch, seed)[index]
    float_star = VectorStar("s", star.as_float())
    images = VectorStar("s", np.array([[Fraction(x) for x in v] for v in star.as_float()], dtype=object))
    assert positive_dependence(float_star) is not None
    assert positive_dependence(star) is not None
    assert strict_expansion_probe(float_star) is None
    for s in (star, images):
        assert strict_expansion_probe(s) is None
        assert solve_linear_feasibility(*probe_system(s.vectors)) is None


# -- the two float pivot loops ------------------------------------------------


@contextlib.contextmanager
def counted_loops():
    """The row counts of the systems each float pivot loop sees in the block,
    under "lists" and "array"."""
    rows = {"lists": [], "array": []}
    with pytest.MonkeyPatch.context() as patch:
        for name in rows:
            loop = getattr(feasibility, f"_pivot_{name}")

            def counting(tableau, basis, loop=loop, seen=rows[name]):
                seen.append(len(basis))
                return loop(tableau, basis)

            patch.setattr(feasibility, f"_pivot_{name}", counting)
        yield rows


def test_six_rows_pivot_on_lists_and_seven_on_the_array():
    for n_rows, expected in ((6, {"lists": [6], "array": []}), (7, {"lists": [], "array": [7]})):
        ineqs = [[1.0, float(i)] for i in range(n_rows)]
        with counted_loops() as rows:
            assert solve_linear_feasibility([], [], [0.0, None], ineqs, [1.0] * n_rows) is not None
        assert rows == expected


# Entries near 1e300 overflow in a pivot or in the bound shift; -0.0 and
# small quotients give signed zeros and ratio ties.
HUGE_FLOATS = st.one_of(FLOATS, st.sampled_from([1e300, -1e300, 3e299, -7e299, 1e-300]))


@st.composite
def tall_float_systems(draw):
    n_vars, n_rows = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    n_eq = draw(st.integers(0, n_rows))
    rows = [draw(st.lists(HUGE_FLOATS, min_size=n_vars, max_size=n_vars)) for _ in range(n_rows)]
    rhs = draw(st.lists(HUGE_FLOATS, min_size=n_rows, max_size=n_rows))
    bound = st.sampled_from([None, 0.0, -0.0, 1.0, -2.0, 1e300])
    lbs = draw(st.lists(bound, min_size=n_vars, max_size=n_vars))
    return rows[:n_eq], rhs[:n_eq], lbs, rows[n_eq:], rhs[n_eq:]


@given(tall_float_systems(), st.sampled_from([None, 3]))
@example(ZERO_FACTOR_SYSTEM, None)  # a row with a zero factor keeps its -0.0
@settings(max_examples=300, deadline=None)
def test_list_and_array_loops_give_the_same_bytes(system, cap):
    # Each system of 1-12 rows solved on one loop, then on the other: the
    # same bytes, or the same exception type and message (overflow, an
    # unbounded phase 1, or the pivot cap of 3).
    outcomes = []
    for list_rows in (12, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(feasibility, "_LIST_ROWS", list_rows)
            if cap is not None:
                patch.setattr(feasibility, "_MAX_PIVOTS", cap)
            outcomes.append(outcome(feasibility._solve_float, *system))
    assert outcomes[0] == outcomes[1]


# -- non-finite input ---------------------------------------------------------


@pytest.mark.parametrize(
    "eqs, eq_rhs, lbs, ineqs, ineq_rhs",
    [
        ([[1.0, math.nan]], [1.0], [0, 0], None, None),
        ([[1.0, 1.0]], [math.inf], [0, 0], None, None),
        ([[1.0, 1.0]], [1.0], [0.0, -math.inf], None, None),
        ([], [], [None], [[1.0]], [math.nan]),
    ],
)
def test_float_mode_rejects_non_finite_values(eqs, eq_rhs, lbs, ineqs, ineq_rhs):
    # Exact mode rejects the same values with the same error.
    for exact in (None, True):
        with pytest.raises(ValueError, match="^non-finite coefficient, right-hand side or bound$"):
            solve_linear_feasibility(
                eqs, eq_rhs, lbs, inequalities=ineqs, ineq_rhs=ineq_rhs, exact=exact
            )


def test_float_mode_rejects_an_int_beyond_the_float_range():
    # float() cannot take these; an all-rational system still solves exactly.
    for huge in (10**400, -(10**400), Fraction(10**400, 3)):
        for args, kwargs in (
            (([[1.0, huge]], [1.0], [0, 0]), {}),
            (([[1, huge]], [1], [0, 0]), {"exact": False}),
        ):
            with pytest.raises(ValueError, match="^non-finite coefficient, right-hand side or bound$"):
                solve_linear_feasibility(*args, **kwargs)
        x = solve_linear_feasibility([[1, huge]], [abs(huge)], [0, 0])
        assert all(isinstance(v, Fraction) and v >= 0 for v in x)
        assert x[0] + huge * x[1] == abs(huge)


# -- overflow after the bound shift -------------------------------------------


@pytest.mark.parametrize(
    "eqs, eq_rhs, lbs",
    [
        ([[1e308]], [1.0], [10.0]),  # shifted rhs 1 - 1e309 is -inf
        ([[1e308, 1e308]], [-1e308], [-1e308, 0.0]),  # shifted rhs +inf
        ([[1.0]], [1e308], [-1e308]),  # shifted rhs 2e308
    ],
)
def test_float_mode_overflow_gives_the_exact_answer(eqs, eq_rhs, lbs):
    # Finite floats whose bound shift overflows: float mode answers with exact
    # mode's verdict and point on the same floats.
    expected = solve_linear_feasibility(eqs, eq_rhs, lbs, exact=True)
    got = solve_linear_feasibility(eqs, eq_rhs, lbs)
    if expected is None:
        assert got is None
    else:
        assert np.isfinite(got).all()
        assert got.tolist() == [float(v) for v in expected]


def test_float_mode_rejects_a_point_beyond_the_float_range():
    # Feasible, but x1 = x2 + 1e308 >= 2e308 at every feasible point.
    with pytest.raises(ValueError, match="^feasible point beyond the float range$"):
        solve_linear_feasibility([[1.0, -1.0]], [1e308], [1e308, 1e308])
