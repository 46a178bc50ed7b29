"""Acceptance suite: every promised quantitative behavior at its stated
tolerance, one printed pass line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the criterion log.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from perigid import (
    FlexClass,
    SimplexVariant,
    VectorStar,
    analyze,
    audit_expansiveness,
    classify_flex,
    continue_motion,
    expansive_cone,
    facet_separation,
    is_minimally_rigid,
    lineality_space,
    motion,
    pair_constraint,
    positive_dependence,
    simplex_framework,
    strict_expansion_probe,
    stress_coefficients,
    stressed_framework,
    validate_framework,
    verify_pointedness,
    with_edge_orbit,
)
from _oracles import fourier_motzkin_feasible, rays_match
from conftest import step_placements

RANK_TOL = 1e-9
AUDIT_TOL = 1e-8
ANGULAR_TOL = 1e-6


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def angle(u, v):
    u = np.asarray(u) / np.linalg.norm(u)
    v = np.asarray(v) / np.linalg.norm(v)
    return float(np.arccos(np.clip(abs(u @ v), -1.0, 1.0)))


def expanding_flex(fw, radius=2):
    flex = analyze(fw, RANK_TOL).flex_basis[0]
    if classify_flex(fw, flex, radius) is FlexClass.NOT_EXPANSIVE:
        flex = -flex
    return flex


def test_criterion_1_base_dof():
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        assert analyze(simplex_framework(d), RANK_TOL).dof == d
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"base variant dof = d for d = 2..5 ({elapsed:.2f}s)")


def test_criterion_2_minimal_rigidity():
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        fw = simplex_framework(d, SimplexVariant("enhanced"))
        rep = analyze(fw, RANK_TOL)
        assert rep.dof == 0
        assert rep.stress_dim == 0
        assert fw.m == d * fw.n + d * (d - 1) // 2
        assert is_minimally_rigid(fw)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"enhanced variant minimally rigid for d = 2..5 ({elapsed:.2f}s)")


def criterion_3_paths():
    # Infinitesimal data is placement-independent and is checked on both
    # placements; the finite continuation runs on the regular-simplex
    # geometry, whose expansive range comfortably covers 50 steps (the
    # standard-basis placement leaves the expansive regime near step 37).
    for d in (2, 3):
        for k in range(1, d + 1):
            for regular in (False, True):
                fw = simplex_framework(d, SimplexVariant("removed", k), regular=regular)
                rep = analyze(fw, RANK_TOL)
                assert rep.dof == 1
                flex = expanding_flex(fw)
                assert classify_flex(fw, flex, radius=2) is FlexClass.EFFECTIVELY_EXPANSIVE
                assert classify_flex(fw, flex, radius=3) is FlexClass.EFFECTIVELY_EXPANSIVE
                if regular:
                    path = continue_motion(fw, flex, n_steps=50, h=0.01, newton_tol=1e-10)
                    yield fw, path


def test_criterion_3_one_dof_mechanisms():
    start = time.perf_counter()
    assert motion.AUDIT_TOL == AUDIT_TOL  # the audit runs at the stated tolerance
    for fw, path in criterion_3_paths():
        audit = audit_expansiveness(path, radius=2)
        assert audit.passed, audit.violations[:3]
        sep = facet_separation(path)
        assert np.all(np.diff(sep) > 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"removed(k) mechanisms expansive with increasing facet gap ({elapsed:.2f}s)")


def test_criterion_4_cone_ray_count_and_correspondence():
    for d in (2, 3, 4):
        base = simplex_framework(d)
        rep = analyze(base, RANK_TOL)
        cone2 = expansive_cone(base, rep, radius=2)
        cone3 = expansive_cone(base, rep, radius=3)
        assert len(cone2.rays) == d
        assert rays_match(cone2.rays, cone3.rays, ANGULAR_TOL)
        matched = set()
        for k in range(1, d + 1):
            removed = simplex_framework(d, SimplexVariant("removed", k))
            coeff = rep.flex_basis @ analyze(removed, RANK_TOL).flex_basis[0]
            angles = [angle(coeff, ray) for ray in cone2.rays]
            best = int(np.argmin(angles))
            assert angles[best] < ANGULAR_TOL
            matched.add(best)
        assert matched == set(range(d))
    report(4, "base cone has d rays (stable at R=3) matching removed(k) flexes")


def test_criterion_5_stress_vector():
    fw = stressed_framework()
    rep = analyze(fw, RANK_TOL)
    w = stress_coefficients(fw, rep, 0, value=-1.0)
    expected = np.array([-1, 1, 1, 1, -1, -1, -1, 1], dtype=float)
    assert np.abs(w - expected).max() < 1e-9
    report(5, "stress coefficients (-1,1,1,1,-1,-1,-1,1) within 1e-9")


def test_criterion_6_stressed_rays_and_mechanisms():
    fw = stressed_framework()
    rep = analyze(fw, RANK_TOL)
    assert rep.dof == 2 and rep.stress_dim == 1
    cone = expansive_cone(fw, rep, radius=2)
    assert len(cone.rays) == 2
    rows = {
        1: pair_constraint(fw, "red", "red", (1, 0, 0)),
        2: pair_constraint(fw, "red", "red", (0, 1, 0)),
    }
    fixed_by_ray = {}
    for i in range(2):
        flex = cone.ray_motion(i)
        vals = {axis: abs(row @ flex) for axis, row in rows.items()}
        axis = min(vals, key=vals.get)
        assert vals[axis] < 1e-8
        fixed_by_ray[i] = axis
    assert set(fixed_by_ray.values()) == {1, 2}

    shift = {1: (1, 0, 0), 2: (0, 1, 0)}
    for i, axis in fixed_by_ray.items():
        mech = with_edge_orbit(fw, "red", "red", shift[axis])
        mrep = analyze(mech, RANK_TOL)
        assert mrep.dof == 1
        coeff = rep.flex_basis @ mrep.flex_basis[0]
        assert angle(coeff, cone.rays[i]) < ANGULAR_TOL
    report(6, "two rays fixing |lambda1|, |lambda2|; inserted edges give matching one-dof flexes")


def test_criterion_7_pointedness_necessary_condition():
    checked = 0
    for d in (2, 3):
        for k in range(1, d + 1):
            fw = simplex_framework(d, SimplexVariant("removed", k))
            assert verify_pointedness(fw, expanding_flex(fw), radius=2).passed
            checked += 1
    for d in (2, 3, 4):
        base = simplex_framework(d)
        rep = analyze(base, RANK_TOL)
        cone = expansive_cone(base, rep, radius=2)
        for i in range(len(cone.rays)):
            assert verify_pointedness(base, cone.ray_motion(i), radius=2).passed
            checked += 1
    fw = stressed_framework()
    rep = analyze(fw, RANK_TOL)
    cone = expansive_cone(fw, rep, radius=2)
    for i in range(2):
        assert verify_pointedness(fw, cone.ray_motion(i), radius=2).passed
        checked += 1
    for shift in ((1, 0, 0), (0, 1, 0)):
        mech = with_edge_orbit(fw, "red", "red", shift)
        result = verify_pointedness(mech, expanding_flex(mech), radius=2)
        assert result.passed
        assert result.analyses["red"].lineality_dim == 1
        checked += 1
    report(7, f"pointedness in codimension two verified on {checked} expansive flexes")


def _random_star(rng, d):
    k = int(rng.integers(2, 7))
    vectors = []
    while len(vectors) < k:
        v = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(d)]
        if any(v):
            vectors.append(v)
    if rng.random() < 0.45 and k >= 3:
        # Plant a dependence: last vector balances a positive combination.
        weights = [int(rng.integers(1, 4)) for _ in vectors[:-1]]
        planted = [-sum(w * v[c] for w, v in zip(weights, vectors[:-1])) for c in range(d)]
        if any(planted):
            vectors[-1] = planted
    return VectorStar("s", np.array(vectors, dtype=object))


def test_criterion_8_local_expansion_property_suite():
    rng = np.random.default_rng(20250810)
    n_dep = n_strict = 0
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        star = _random_star(rng, d)
        float_star = VectorStar("s", star.as_float())

        dep_float = positive_dependence(float_star)
        dep_exact = positive_dependence(star)
        assert (dep_float is None) == (dep_exact is None), f"trial {trial}"
        # Independent exact oracle on the dependence system.
        rows = [[v[c] for v in star.vectors] for c in range(d)]
        identity = [[int(i == j) for j in range(len(star))] for i in range(len(star))]
        dep_fm = fourier_motzkin_feasible(
            identity, rows, [0] * d, ineq_rhs=[1] * len(star)
        )
        assert dep_fm == (dep_exact is not None), f"trial {trial}"

        probe_float = strict_expansion_probe(float_star)
        probe_exact = strict_expansion_probe(star)
        assert (probe_float is None) == (probe_exact is None), f"trial {trial}"

        if dep_exact is not None:
            n_dep += 1
            assert probe_exact is None, f"trial {trial}: dependence must refute expansion"
        elif lineality_space(float_star).shape[0] == 0:
            n_strict += 1
            assert probe_exact is not None, f"trial {trial}: pointed star must expand"
    assert n_dep >= 30 and n_strict >= 30
    report(8, f"200 random stars: {n_dep} refuted by dependence, {n_strict} strictly expansive, verdicts exact")


def test_criterion_9_numerical_hygiene():
    worst_fd = 0.0
    worst_drift = 0.0
    for fw, path in criterion_3_paths():
        basis = analyze(fw, RANK_TOL).flex_basis
        t0 = basis.T @ (basis @ expanding_flex(fw))  # the seed's unit projection, the first tangent
        t0 /= np.linalg.norm(t0)
        p0, p1 = step_placements(path)[:2]
        for key in audit_expansiveness(path, radius=2).pair_results:
            a, b, shift = key
            w = np.asarray(shift, float)
            d0 = np.linalg.norm(p0.positions[b] + p0.lattice @ w - p0.positions[a])
            d1 = np.linalg.norm(p1.positions[b] + p1.lattice @ w - p1.positions[a])
            fd = (d1**2 - d0**2) / (2 * path.step_size)
            analytic = pair_constraint(fw, a, b, shift) @ t0
            worst_fd = max(worst_fd, abs(fd - analytic))
        base_sq = fw.edge_lengths**2
        for placement in step_placements(path):
            lengths = validate_framework(path.graph, placement).edge_lengths
            worst_drift = max(worst_drift, float(np.abs(lengths - fw.edge_lengths).max()))
            assert np.abs(lengths**2 - base_sq).max() < 10 * 1e-10
    assert worst_fd < 10 * 0.01
    assert worst_drift < 1e-9
    report(9, f"first-order agreement {worst_fd:.2e} < 0.1; edge drift {worst_drift:.2e} < 1e-9")
