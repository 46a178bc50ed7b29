import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import (
    IllConditionedError,
    NonUniqueStressError,
    NoStressError,
    NumericalFailureError,
    SimplexVariant,
    ZeroPivotError,
    analyze,
    is_minimally_rigid,
    rigidity_matrix,
    simplex_framework,
    stress_coefficients,
    stressed_framework,
    trivial_motion_basis,
    with_edge_orbit,
)
from perigid.rigidity import _analysis, _rank_from_singular_values, _trivial_basis, report_to_json

from _oracles import exact_rank, frozen_trivial_basis
from conftest import make_framework, rotated, scaled


def n_trivial(d):
    return d + d * (d - 1) // 2


def max_rank(fw):
    d = fw.dimension
    return d * fw.n + d * (d - 1) // 2


def test_stressed_matrix_shape(stressed):
    assert rigidity_matrix(stressed).shape == (8, 15)


def test_single_edge_row_pattern():
    fw = make_framework(
        2,
        {"a": [0.0, 0.0], "b": [0.75, 0.5]},
        np.eye(2),
        [("a", "b", (0, 0))],
    )
    row = rigidity_matrix(fw)[0]
    e = np.array([0.75, 0.5])
    assert np.allclose(row[0:2], -e)
    assert np.allclose(row[2:4], e)
    assert np.allclose(row[4:], 0.0)


def test_same_orbit_row_is_lattice_only():
    fw = make_framework(2, {"a": [0.3, 0.1]}, np.eye(2), [("a", "a", (1, 2))])
    row = rigidity_matrix(fw)[0]
    assert np.allclose(row[:2], 0.0)  # vertex blocks cancel
    e = fw._edge_vectors[0]
    w = np.array(fw.graph.edge_orbits[0].shift, dtype=float)
    assert np.allclose(row[2:], np.outer(e, w).reshape(-1, order="F"))


@pytest.mark.parametrize("d,count", [(2, 3), (3, 6)])
def test_trivial_motion_count(d, count):
    fw = simplex_framework(d)
    basis = trivial_motion_basis(fw)
    assert basis.shape[0] == count
    assert np.linalg.matrix_rank(basis) == count


def test_trivial_motions_annihilated(stressed):
    matrix = rigidity_matrix(stressed)
    for v in trivial_motion_basis(stressed):
        assert np.abs(matrix @ v).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 6), n=st.integers(1, 3), order=st.sampled_from("CF"))
def test_trivial_basis_is_the_frozen_per_plane_loop_bit_for_bit(data, d, n, order):
    # Every entry is 0, 1, or a copy or negation of a coordinate, so signed
    # zeros must come out as the per-plane loop writes them.
    values = st.sampled_from([0.0, -0.0]) | st.floats(width=64)
    positions = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    lattice = np.array(data.draw(st.lists(values, min_size=d * d, max_size=d * d))).reshape(d, d, order=order)
    got, want = _trivial_basis(positions, lattice), frozen_trivial_basis(positions, lattice)
    assert got.dtype == want.dtype and got.shape == want.shape == (d + d * (d - 1) // 2, d * n + d * d)
    assert got.tobytes() == want.tobytes()


def test_analyze_builtin_families(base3, enhanced3, stressed):
    assert analyze(base3).dof == 3
    report = analyze(enhanced3)
    assert report.dof == 0 and report.stress_dim == 0
    report = analyze(stressed)
    assert report.dof == 2 and report.stress_dim == 1
    assert report.tolerance_used == 1e-9


def test_framework_without_bars():
    # No rows to factor: rank 0, every nontrivial motion a flex, no stress.
    fw = make_framework(2, {"a": [0.0, 0.0]}, np.eye(2), [])
    report = analyze(fw)
    assert (report.rank, report.dof, report.stress_dim) == (0, 3, 0)
    assert np.allclose(report.flex_basis @ trivial_motion_basis(fw).T, 0.0)
    data = json.loads(report_to_json(report))
    assert (data["rank"], data["dof"], data["stress_dim"]) == (0, 3, 0)
    assert len(data["flex_basis"]) == 3 and data["stress_basis"] == []


# SHA-256 of report_to_json(analyze(fw)) for frameworks without bars (keyed
# by d, n) and for the rigid enhanced family (keyed by d; its report holds
# no basis rows, so both placements and a rotation give the same bytes),
# recorded with numpy 2.4.6 and OpenBLAS 0.3.31 when the analysis still had
# its own branches for no rows and for no flex.
BARLESS_REPORT_DIGESTS = {
    (1, 1): "27e85724b5487cc34a0916fa4a78985b27908f4d138b6f38e64beda394555c74",
    (1, 2): "a2be01b833e227503b11b174ba8b4af038ac6fbc8248550e6a6c176149e3ddb1",
    (1, 3): "10289474fb041d43aa8e4c4e2e760a081964b497494d7b7de9963b0cfca6fc65",
    (2, 1): "9c43a338c1a45acfb4078da459529b856b385d216694c6e76994e57e3a02b2a2",
    (2, 2): "d9e0947aec32e66eedabb64d32b6aa8acfd4048f08a125e87ed7a0b437443423",
    (2, 3): "821b3d2caf20e3c35d621a3a71911546a0e5e1e60daaa8ab95d1e18d291e4569",
    (3, 1): "2838d917a745374a23d6139c0380c4711629ae79c0807832069113fb334de478",
    (3, 2): "6a304391424b0d62144fc6c9587c992138d3d566b8c2535528de04ebee737009",
    (3, 3): "224fd0b2352ca47fbd55bd84ea65d37d74f1c3261e4d53e8a2fda23cb278ca56",
    (4, 1): "2a5422fbceeabfaad684f84a2ee9bcbf018b48c92fe8f2a8610a4588bb14ce2a",
    (4, 2): "343bf78b019c3f9a965c400b40c9b3046316f6f8f9609a6982861f3b85cc7800",
    (4, 3): "0f0893290a55dc39ef1144a43f705a22f17f6c3a597c2c7bef42f6de66853670",
}
RIGID_REPORT_DIGESTS = {
    2: "52be877608901f78746292c1abf1a1971f03da4081e75fcb9e44457c82c1565a",
    3: "1744fe5474dabc4c692217fa474290eef28f7694ccc44459bd785c59181bc39c",
    4: "0529ed4d8b11b23b653e53678fa18267bdba30dba6aa14233bfdc8c3696b16af",
    5: "f921b45248afad23507b154f8d4e1f13688f59756b9de0670112132a56d80f75",
    6: "3533cafebb342fb1cd29201829c956ce2dcc8b6c20b98571bc6f6a5ecb159485",
}


@pytest.mark.parametrize("d, n", sorted(BARLESS_REPORT_DIGESTS))
def test_report_bytes_without_bars(d, n):
    positions = {f"v{k}": [(k + 1) / 4 + i / 8 for i in range(d)] for k in range(n)}
    fw = make_framework(d, positions, np.eye(d) + np.triu(np.ones((d, d)), 1) / 2, [])
    report = analyze(fw)
    assert report.flex_basis.shape == (d * n + d * d - n_trivial(d), d * n + d * d)
    assert report.stress_basis.size == 0
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == BARLESS_REPORT_DIGESTS[d, n]


@pytest.mark.parametrize(
    "d, placement", [(d, p) for d in sorted(RIGID_REPORT_DIGESTS) for p in ("standard", "regular")] + [(3, "rotated")]
)
def test_report_bytes_of_rigid_frameworks(d, placement):
    fw = simplex_framework(d, SimplexVariant("enhanced"), regular=placement == "regular")
    if placement == "rotated":
        fw = rotated(fw, 7)
    report = analyze(fw)
    assert report.flex_basis.shape == (0, 2 * d + d * d)
    assert report.stress_basis.shape == (0, fw.m)
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == RIGID_REPORT_DIGESTS[d]


def test_flex_basis_properties(stressed):
    report = analyze(stressed)
    matrix = rigidity_matrix(stressed)
    for flex in report.flex_basis:
        assert np.abs(matrix @ flex).max() < 1e-9
        for t in trivial_motion_basis(stressed):
            assert abs(flex @ t) < 1e-9
    gram = report.flex_basis @ report.flex_basis.T
    assert np.allclose(gram, np.eye(report.dof))


def test_bookkeeping_identities(base3, enhanced3, stressed):
    for fw in (base3, enhanced3, stressed):
        report = analyze(fw)
        d, n, m = fw.dimension, fw.n, fw.m
        assert report.rank + report.stress_dim == m
        assert report.rank + n_trivial(d) + report.dof == d * n + d * d
        assert report.rank <= max_rank(fw)


def test_minimal_rigidity_calls(base3, enhanced3, stressed):
    assert is_minimally_rigid(enhanced3)
    assert not is_minimally_rigid(base3)
    assert not is_minimally_rigid(stressed)


# -- stress extraction -------------------------------------------------------


def test_stress_coefficients_match_known_vector(stressed):
    report = analyze(stressed)
    w = stress_coefficients(stressed, report, 0, value=-1.0)
    expected = np.array([-1, 1, 1, 1, -1, -1, -1, 1], dtype=float)
    assert np.abs(w - expected).max() < 1e-9


def test_stress_residual_is_left_nullspace(stressed):
    report = analyze(stressed)
    w = stress_coefficients(stressed, report, 0, value=-1.0)
    matrix = rigidity_matrix(stressed)
    assert np.linalg.norm(w @ matrix) < 1e-9 * np.linalg.norm(matrix)


def test_a_stress_residual_scale_past_the_float_range_raises(stressed):
    # Times 10**160 the matrix norm overflows, and the residual test passed
    # against an infinite scale; times 10**150 the stress is the unscaled one.
    expected = stress_coefficients(stressed, analyze(stressed), 0)
    fw = scaled(stressed, float(10**150))
    np.testing.assert_allclose(stress_coefficients(fw, analyze(fw), 0), expected, rtol=0, atol=1e-12)
    fw = scaled(stressed, float(10**160))
    with pytest.raises(NumericalFailureError, match="^stress residual scale is not finite"):
        stress_coefficients(fw, analyze(fw), 0)


def test_no_stress_on_base_simplex(base3):
    # Independent oracle: exact elimination confirms full row rank.
    matrix = rigidity_matrix(base3)
    assert exact_rank([[Fraction(x) for x in row] for row in matrix]) == base3.m
    with pytest.raises(NoStressError):
        stress_coefficients(base3, analyze(base3), 0)


def test_non_unique_stress():
    # Six same-orbit edges in the plane: rows live in a 3-dim symmetric space.
    shifts = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
    fw = make_framework(2, {"a": [0.0, 0.0]}, np.eye(2), [("a", "a", s) for s in shifts])
    report = analyze(fw)
    assert report.stress_dim > 1
    with pytest.raises(NonUniqueStressError):
        stress_coefficients(fw, report, 0)


def test_zero_pivot(stressed):
    fw = with_edge_orbit(stressed, "red", "red", (1, 0, 0))
    report = analyze(fw)
    assert report.stress_dim == 1
    # The unique stress is supported on the original eight edges only.
    with pytest.raises(ZeroPivotError):
        stress_coefficients(fw, report, fw.m - 1)
    w = stress_coefficients(fw, report, 0, value=-1.0)
    assert abs(w[-1]) < 1e-9


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_stress_value_must_be_finite(stressed, value):
    with pytest.raises(ValueError, match="stress value must be finite"):
        stress_coefficients(stressed, analyze(stressed), 0, value=value)


def test_stress_normalized_at_a_missing_edge_is_an_index_error(stressed):
    with pytest.raises(IndexError, match=f"edge orbit index {stressed.m} out of range"):
        stress_coefficients(stressed, analyze(stressed), stressed.m)


# -- rank estimation ---------------------------------------------------------


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_rank_tolerance_must_be_finite(tol):
    # Unchecked, either tolerance reads rank 0 and dof 9 on this rank-8, dof-1 framework.
    fw = simplex_framework(3, SimplexVariant("removed", 1))
    report = analyze(fw)
    assert (report.rank, report.dof) == (8, 1)
    with pytest.raises(ValueError, match="rank tolerance must be finite"):
        analyze(fw, tol)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_a_non_finite_constraint_matrix_fails_before_the_svd(stressed, entry):
    # Such rows come from a shift times a separation beyond the float range;
    # LAPACK's SVD of them can run without end.
    matrix = rigidity_matrix(stressed)
    matrix[3, 7] = entry
    with pytest.raises(NumericalFailureError, match="^constraint matrix is not finite$"):
        _analysis(matrix, trivial_motion_basis(stressed), 1e-9)


def test_rank_gap_guard():
    s = np.array([1.0, 1.02e-9, 0.98e-9, 1e-16])
    with pytest.raises(IllConditionedError):
        _rank_from_singular_values(s, 1e-9)
    clean = np.array([1.0, 0.5, 1e-16])
    assert _rank_from_singular_values(clean, 1e-9) == 2


def test_exact_rank_oracle_small_frameworks():
    # Dyadic-coordinate d=2 frameworks (<= 12 unknowns): float entries are
    # exact rationals, so SVD rank must equal exact Gaussian rank.
    cases = [
        make_framework(
            2,
            {"a": [0.0, 0.0], "b": [0.5, 0.25]},
            np.eye(2),
            [("a", "b", (0, 0)), ("a", "b", (1, 0)), ("a", "b", (0, 1)), ("a", "a", (1, 1))],
        ),
        simplex_framework(2),
        simplex_framework(2, SimplexVariant("enhanced")),
        simplex_framework(2, SimplexVariant("removed", 2)),
        make_framework(2, {"a": [0.25, 0.5]}, np.eye(2), [("a", "a", (1, 0)), ("a", "a", (0, 1))]),
    ]
    for fw in cases:
        matrix = rigidity_matrix(fw)
        assert analyze(fw).rank == exact_rank(matrix.tolist())


def test_perturbation_stability():
    rng = np.random.default_rng(20240817)
    for fw in (simplex_framework(3), simplex_framework(3, SimplexVariant("enhanced")), stressed_framework()):
        rank0 = analyze(fw).rank
        jitter = {
            o: fw.placement.positions[o] + rng.uniform(-1e-8, 1e-8, 3)
            for o in fw.graph.vertex_orbits
        }
        fw2 = make_framework(
            3,
            jitter,
            fw.placement.lattice,
            [(e.tail, e.head, e.shift) for e in fw.graph.edge_orbits],
        )
        assert analyze(fw2).rank == rank0


@st.composite
def random_frameworks(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    orbits = [f"v{i}" for i in range(n)]
    coord = st.integers(-8, 8).map(lambda q: q / 4)
    positions = {o: [draw(coord) for _ in range(d)] for o in orbits}
    edges = []
    seen = set()
    for _ in range(draw(st.integers(1, 6))):
        t, h = draw(st.sampled_from(orbits)), draw(st.sampled_from(orbits))
        s = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        if t == h and not any(s):
            continue
        key = min((t, h, s), (h, t, tuple(-c for c in s)))
        if key in seen:
            continue
        seen.add(key)
        edges.append((t, h, s))
    if not edges:
        edges = [(orbits[0], orbits[0], (1,) + (0,) * (d - 1))]
    return d, positions, edges


@given(random_frameworks())
@settings(max_examples=50, deadline=None)
def test_rank_bound_and_identities_random(spec):
    d, positions, edges = spec
    try:
        fw = make_framework(d, positions, np.eye(d), edges)
    except Exception:
        return
    report = analyze(fw)
    assert report.rank <= max_rank(fw)
    assert report.rank + report.stress_dim == fw.m
    assert report.rank + n_trivial(d) + report.dof == d * fw.n + d * d


def test_report_json_schema(stressed):
    data = json.loads(report_to_json(analyze(stressed)))
    assert list(data) == ["rank", "dof", "stress_dim", "flex_basis", "stress_basis", "tolerance"]
    assert data["rank"] == 7
    assert len(data["flex_basis"]) == 2
    assert len(data["stress_basis"]) == 1
