import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import (
    SimplexVariant,
    UnknownOrbitError,
    VectorStar,
    analyze_star,
    lineality_space,
    positive_dependence,
    simplex_framework,
    strict_expansion_probe,
    stressed_framework,
    vertex_star,
    with_edge_orbit,
)
from perigid.cones import star_report_json

from _oracles import fourier_motzkin_feasible
from conftest import make_framework

E1, E2, E3 = np.eye(3)


def star(*vectors):
    return VectorStar("test", np.array(vectors, dtype=float))


# -- vertex stars -------------------------------------------------------------


def test_star_counts():
    assert len(vertex_star(simplex_framework(3), "green")) == 6
    assert len(vertex_star(stressed_framework(), "green")) == 8
    assert len(vertex_star(stressed_framework(), "red")) == 8


def test_same_orbit_edge_contributes_both_orientations():
    fw = with_edge_orbit(stressed_framework(), "red", "red", (1, 0, 0))
    red = vertex_star(fw, "red")
    assert len(red) == 10
    vs = red.as_float()
    assert any(np.allclose(v, [1, 0, 0]) for v in vs)
    assert any(np.allclose(v, [-1, 0, 0]) for v in vs)


def test_unknown_orbit():
    with pytest.raises(UnknownOrbitError):
        vertex_star(stressed_framework(), "blue")


# -- positive dependence ------------------------------------------------------


def test_antipodal_pair_dependence():
    dep = positive_dependence(star(E1, -E1))
    assert dep is not None
    assert np.allclose(dep, [1.0, 1.0])


def test_independent_pair_has_none():
    assert positive_dependence(star(E1, E2)) is None


def test_simplex_star_with_interior_origin():
    # Vertices of a tetrahedron around the origin.
    vs = [E1, E2, E3, -(E1 + E2 + E3)]
    dep = positive_dependence(star(*vs))
    assert dep is not None
    combo = sum(a * v for a, v in zip(dep, vs))
    assert np.linalg.norm(combo) < 1e-9 * sum(dep)
    assert min(dep) >= 1 - 1e-12


def test_exact_dependence_verdict():
    vs = np.array([[Fraction(1), Fraction(0)], [Fraction(-1), Fraction(0)]], dtype=object)
    dep = positive_dependence(VectorStar("x", vs))
    assert dep is not None and all(isinstance(a, Fraction) for a in dep)


def test_numpy_integer_star_is_exact_in_both_oracles():
    # The oracle alone picks the mode: np.int64 entries are exact, so the
    # dependence and the probe both answer in Fractions.
    vs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.int64)
    dep = positive_dependence(VectorStar("x", vs))
    assert dep == [1, 1, 1, 1] and all(isinstance(a, Fraction) for a in dep)
    probe = strict_expansion_probe(VectorStar("x", vs[[0, 2]]))
    assert all(isinstance(c, Fraction) for v in probe for c in v)


def test_dependence_mode_follows_the_oracle():
    vs = np.array([[Fraction(1, 2), Fraction(0)], [Fraction(-1, 3), Fraction(0)]], dtype=object)
    exact_star, float_star = VectorStar("x", vs), VectorStar("x", vs.astype(float))
    assert isinstance(positive_dependence(exact_star), list)
    assert not isinstance(positive_dependence(float_star), list)


# -- lineality ----------------------------------------------------------------


def test_lineality_examples():
    basis = lineality_space(star(E1, -E1, E2))
    assert basis.shape[0] == 1
    assert np.allclose(np.abs(basis[0]), E1)
    assert lineality_space(star(E1, E2)).shape[0] == 0
    assert lineality_space(star(E1, -E1, E2, -E2)).shape[0] == 2


def test_lineality_monotone_under_added_vector():
    base = [E1, -E1, E2]
    before = lineality_space(star(*base)).shape[0]
    after = lineality_space(star(*base, -E2)).shape[0]
    assert after >= before


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda t: any(t)),
        min_size=1,
        max_size=4,
    ),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda t: any(t)),
)
@settings(max_examples=40, deadline=None)
def test_lineality_monotone_property(raw, extra):
    vs = [np.array(v, dtype=float) for v in raw]
    before = lineality_space(star(*vs)).shape[0]
    after = lineality_space(star(*vs, np.array(extra, dtype=float))).shape[0]
    assert after >= before


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(1, 5), min_size=5, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_scale_invariance(raw, scales):
    vs = [np.array(v, dtype=float) for v in raw if any(v)]
    if not vs:
        return
    s1 = star(*vs)
    s2 = star(*[s * v for s, v in zip(scales, vs)])
    assert lineality_space(s1).shape[0] == lineality_space(s2).shape[0]
    a1, a2 = analyze_star(s1), analyze_star(s2)
    assert a1.pointed_codim2 == a2.pointed_codim2
    assert (a1.positive_dependence is None) == (a2.positive_dependence is None)


# -- full star analysis -------------------------------------------------------


def test_analyze_star_pointed_codim2_with_line():
    analysis = analyze_star(star(E1, -E1, E2, E3))
    assert analysis.lineality_dim == 1
    assert analysis.pointed_codim2
    h = analysis.separating_normal
    assert h is not None
    assert abs(h @ E1) < 1e-9
    assert h @ E2 > 1e-9 and h @ E3 > 1e-9


def test_analyze_star_plane_lineality_not_pointed():
    analysis = analyze_star(star(E1, -E1, E2, -E2, E3))
    assert analysis.lineality_dim == 2
    assert not analysis.pointed_codim2
    # Lineality d-1 still admits a hyperplane containing the linear part.
    assert analysis.separating_normal is not None


def test_analyze_star_full_lineality_has_no_normal():
    analysis = analyze_star(star(E1, -E1, E2, -E2, E3, -E3))
    assert analysis.lineality_dim == 3
    assert analysis.separating_normal is None
    assert analysis.positive_dependence is not None


def test_stressed_plus_period_edge_red_star():
    fw = with_edge_orbit(stressed_framework(), "red", "red", (1, 0, 0))
    analysis = analyze_star(vertex_star(fw, "red"), 3)
    assert analysis.lineality_dim == 1
    assert analysis.pointed_codim2
    assert np.allclose(np.abs(analysis.lineality_basis[0]), E1)


def test_separating_normal_present_when_pointed(base3):
    for orbit in ("red", "green"):
        analysis = analyze_star(vertex_star(base3, orbit), 3)
        assert analysis.separating_normal is not None
        vs = vertex_star(base3, orbit).as_float()
        assert np.all(vs @ analysis.separating_normal > 1e-9)


# -- local expansion refutation ----------------------------------------------


def test_refute_examples():
    assert positive_dependence(star(E1, -E1)) is not None
    assert positive_dependence(star(E1, E2)) is None
    assert positive_dependence(star(E1, E2, E3, -(E1 + E2 + E3))) is not None


def test_probe_blocked_by_dependence():
    assert strict_expansion_probe(star(E1, -E1)) is None
    assert strict_expansion_probe(star(E1, E2, E3, -(E1 + E2 + E3))) is None


def test_probe_finds_strict_expansion_for_pointed_star():
    vel = strict_expansion_probe(star(E1, E2))
    assert vel is not None
    vs = np.array([E1, E2])
    for i, v in enumerate(vs):
        assert abs(v @ vel[i]) < 1e-7
    opening = (vs[0] - vs[1]) @ (vel[0] - vel[1])
    assert opening > 1e-7


def test_probe_agrees_with_exact_elimination():
    # The degenerate two-vector star with a dependence: exact refutation.
    vs = [[Fraction(1), Fraction(0)], [Fraction(-1), Fraction(0)]]
    k, d = 2, 2
    eqs = []
    for i in range(k):
        row = [Fraction(0)] * (k * d)
        for c in range(d):
            row[i * d + c] = vs[i][c]
        eqs.append(row)
    ineq = []
    probe = [Fraction(0)] * (k * d)
    for c in range(d):
        diff = vs[0][c] - vs[1][c]
        probe[c] += diff
        probe[d + c] -= diff
    ineq.append(probe[:])  # only one pair, probe equals the single pair row
    assert not fourier_motzkin_feasible(ineq + [probe], eqs, [0, 0], ineq_rhs=[0, 1])
    assert strict_expansion_probe(VectorStar("x", np.array(vs, dtype=object))) is None


def test_float_probe_recovers_where_the_float_tableau_fails():
    # A random star on which the float simplex once reported an unbounded
    # phase-1 objective; the float probe now re-solves exactly on the
    # rational images of its floats.
    F = Fraction
    vs = [
        (F(3, 4), F(5, 4), F(5, 3)),
        (F(3), F(4), F(6)),
        (F(-5, 2), F(-1, 2), F(6)),
        (F(6), F(-5), F(-4)),
        (F(1, 3), F(6), F(5, 3)),
        (F(0), F(1, 2), F(1, 2)),
    ]
    exact = strict_expansion_probe(VectorStar("s", np.array(vs, dtype=object)))
    assert exact is not None
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]

    def opening(vel, i, j):
        return sum((vs[i][c] - vs[j][c]) * (vel[i][c] - vel[j][c]) for c in range(3))

    assert all(sum(a * b for a, b in zip(v, u)) == 0 for v, u in zip(vs, exact))
    assert all(opening(exact, i, j) >= 0 for i, j in pairs)
    assert sum(opening(exact, i, j) for i, j in pairs) >= 1

    floats = np.array(vs, dtype=float)
    vel = strict_expansion_probe(VectorStar("s", floats))
    assert vel is not None and vel.shape == (6, 3)
    # An exact point of the float system, rounded: residuals are relative.
    scale = np.abs(vel).max() * np.abs(floats).max()
    assert np.abs(np.sum(floats * vel, axis=1)).max() <= 1e-12 * scale
    gaps = [(floats[i] - floats[j]) @ (vel[i] - vel[j]) for i, j in pairs]
    assert min(gaps) >= -1e-12 * scale


def test_non_finite_star_is_a_value_error():
    # Rejected before any pivot: solved, this star gives a NaN "point", the
    # wrong dependence [1., 1.] and numpy's LinAlgError from the SVD.
    nan_star = VectorStar("a", [[1, math.nan], [-1, 0]])
    for call in (positive_dependence, strict_expansion_probe, lineality_space, analyze_star):
        with pytest.raises(ValueError, match="non-finite"):
            call(nan_star)


def test_zero_vector_star_is_a_value_error():
    # Rejected before the separating normal divides by the vector's norm.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="zero vector in star"):
            analyze_star(star(E1, np.zeros(3), E2))


def test_all_generators_in_the_lineality_space():
    # One orbit, d = 2, one bar to its own e1 translate: the star {e1, -e1}
    # is all lineality, so the normal is the unit vector normal to that line.
    fw = make_framework(2, {"a": [0.0, 0.0]}, np.eye(2), [("a", "a", (1, 0))])
    analysis = analyze_star(vertex_star(fw, "a"), 2)
    assert analysis.lineality_dim == 1
    assert not analysis.pointed_codim2
    assert np.allclose(np.abs(analysis.separating_normal), [0.0, 1.0])
    assert np.allclose(np.abs(analysis.lineality_basis[0]), [1.0, 0.0])


def test_star_of_an_orbit_without_bars_is_a_value_error():
    fw = make_framework(2, {"a": [0.0, 0.0]}, np.eye(2), [])
    empty = vertex_star(fw, "a")
    assert len(empty) == 0
    for call in (positive_dependence, strict_expansion_probe, lineality_space, analyze_star):
        with pytest.raises(ValueError, match="empty star"):
            call(empty)


@pytest.mark.parametrize(
    "vectors",
    [
        [[1, 0], [-1]],  # zip(*vectors) would read the star {e1, -e1}
        [[Fraction(1), 0], [-1, 0, 0]],
        [[1.0, 0.0, 0.0], [-1.0, 0.0], [0.0, 1.0, 0.0]],
    ],
)
def test_star_vectors_of_different_lengths_are_a_value_error(vectors):
    ragged = VectorStar("s", np.array(vectors, dtype=object))
    for call in (positive_dependence, strict_expansion_probe, lineality_space, analyze_star):
        with pytest.raises(ValueError, match="^star vectors differ in length$"):
            call(ragged)


def test_star_report_json_fields():
    text = star_report_json(analyze_star(star(E1, -E1, E2, E3)))
    import json

    data = json.loads(text)
    assert list(data) == [
        "orbit",
        "lineality_dim",
        "pointed_codim2",
        "separating_normal",
        "positive_dependence",
    ]
    assert data["lineality_dim"] == 1
    assert data["pointed_codim2"] is True
    assert data["positive_dependence"] is None


# -- byte pin of the star layer ------------------------------------------------


def _pinned_stars():
    """Seeded stars: d = 2 and 3, k = 2..6, planted and not, each with
    entries p/q (q up to 7, so most floats are not dyadic) as Fractions and
    as floats; then a float star the float simplex cannot solve, one
    float32 star and one numpy-int star."""
    rng = np.random.default_rng(4601)
    stars = []
    for d in (2, 3):
        for k in range(2, 7):
            for plant in (False, True):
                for _ in range(2):
                    vs = []
                    while len(vs) < k:
                        v = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 8))) for _ in range(d)]
                        if any(v):
                            vs.append(v)
                    if plant:
                        w = [int(rng.integers(1, 4)) for _ in vs[:-1]]
                        planted = [-sum(a * v[c] for a, v in zip(w, vs[:-1])) for c in range(d)]
                        if any(planted):
                            vs[-1] = planted
                    exact = np.array(vs, dtype=object)
                    stars += [VectorStar("s", exact), VectorStar("s", exact.astype(float))]
    # The float images of this star once left the float tableau unbounded.
    F = Fraction
    recovered = [(F(3, 4), F(5, 4), F(5, 3)), (3, 4, 6), (F(-5, 2), F(-1, 2), 6), (6, -5, -4),
                 (F(1, 3), 6, F(5, 3)), (0, F(1, 2), F(1, 2))]
    stars.append(VectorStar("s", np.array(recovered, dtype=float)))
    stars.append(VectorStar("s", (rng.standard_normal((5, 3)) / 3).astype(np.float32)))
    stars.append(VectorStar("s", rng.integers(-5, 6, size=(4, 3)) + np.array([[7, 0, 0]] * 4)))
    return stars


def _result_bytes(x) -> bytes:
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{x.shape}".encode() + x.tobytes()
    if hasattr(x, "lineality_basis"):
        fields = (x.orbit, x.lineality_basis, x.pointed_codim2, x.separating_normal, x.positive_dependence)
        return b"|".join(map(_result_bytes, fields))
    return repr(x).encode()  # None, bools, and lists of Fractions or of their lists


# SHA-256 per star function over its results on every _pinned_stars() star,
# float and exact, recorded at commit 13f0e58 with numpy 2.4.6 and OpenBLAS
# 0.3.31 on x86-64.
STARS_DIGESTS = {
    "positive_dependence": "2deccf2e8675974fe72129ef208b093455f4c52d3c663050edc6cf3f1bf0de6b",
    "strict_expansion_probe": "fab96f956b498429e1299aed760d40ebeecfb54fd9033ca0fab015fcdd2ccc9b",
    "lineality_space": "b2f9fcf6d653ad1fd948b45de12d11b6ab54582d82092f6ddb56abc0723cd728",
    "analyze_star": "be34d11080d773d4c7d1e40f90277ed1d0937ed5d940a66dc2682ad75a2a6baf",
}


def test_star_layer_bytes():
    calls = (positive_dependence, strict_expansion_probe, lineality_space, analyze_star)
    stars = _pinned_stars()
    digests = {
        call.__name__: hashlib.sha256(b"\n".join(_result_bytes(call(s)) for s in stars)).hexdigest()
        for call in calls
    }
    assert digests == STARS_DIGESTS
