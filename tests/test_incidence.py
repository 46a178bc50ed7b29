"""The array incidence core against a per-pair loop, bit for bit.

Every separation p_b + L w - p_a in the package (bars, pairs, the motion
audit and the frame export) comes from one stacked computation; these tests
compare it with the plain one-vector-at-a-time formula on randomly rotated
frameworks, including the sign of every zero.
"""

import itertools

import numpy as np
import pytest

from perigid import (
    SimplexVariant,
    analyze,
    audit_expansiveness,
    continue_motion,
    export_frames,
    motion,
    pair_constraint,
    rigidity_matrix,
    simplex_framework,
    stressed_framework,
    vertex_star,
)

from _oracles import loop_pairs, loop_row
from conftest import canonical_pair, pair_keys, pair_separations, rotated, step_placements, whole_pairs, whole_shifts

FAMILIES = [("stressed", 3)] + [(v, d) for d in (2, 3, 4, 5) for v in ("base", "removed:1")]


def rotated_framework(kind, d, seed):
    fw = stressed_framework() if kind == "stressed" else simplex_framework(d, SimplexVariant.parse(kind))
    return rotated(fw, seed)


def positions_of(fw, orbits):
    return {o: fw.placement.positions[o] for o in orbits}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("kind, d", FAMILIES)
def test_pairs_match_loop(kind, d, radius):
    fw = rotated_framework(kind, d, seed=10 * d + radius)
    orbits = fw.graph.vertex_orbits
    keys, seps, rows = loop_pairs(positions_of(fw, orbits), fw.placement.lattice, radius)
    (tails, heads, pair_rows), shifts = whole_pairs(fw, radius), whole_shifts(fw, radius)
    assert len(pair_rows) == len(keys)
    assert pair_keys(fw, tails, heads, shifts) == keys
    assert same_bits(pair_separations(fw, tails, heads, shifts), seps)
    assert same_bits(pair_rows, rows)
    for k in range(0, len(keys), max(1, len(keys) // 7)):
        one = canonical_pair(fw, *keys[k])
        assert pair_keys(fw, *one) == [keys[k]]
        assert same_bits(pair_separations(fw, *one)[0], seps[k]) and same_bits(pair_constraint(fw, *keys[k]), rows[k])


@pytest.mark.parametrize("kind, d", FAMILIES)
def test_bars_and_stars_match_loop(kind, d):
    fw = rotated_framework(kind, d, seed=d)
    orbits = list(fw.graph.vertex_orbits)
    pos, lattice = positions_of(fw, orbits), fw.placement.lattice
    seps, rows = [], []
    for tail, head, shift in fw.graph.edge_orbits:
        w = np.array(shift, dtype=float)
        seps.append(pos[head] + lattice @ w - pos[tail])
        rows.append(loop_row(orbits, lattice, tail, head, w, seps[-1]))
    assert same_bits(rigidity_matrix(fw), rows)
    assert same_bits(fw._edge_vectors, seps)
    assert same_bits(fw.edge_lengths, np.linalg.norm(seps, axis=1))
    for orbit in orbits:
        star = []
        for e, s in zip(fw.graph.edge_orbits, seps):
            star += ([s] if e.tail == orbit else []) + ([-s] if e.head == orbit else [])
        assert same_bits(vertex_star(fw, orbit).vectors, star)


@pytest.mark.parametrize("kind, d", [("stressed", 3), ("removed:1", 2), ("removed:1", 3), ("removed:1", 4)])
def test_motion_audit_and_export_match_loop(tmp_path, monkeypatch, kind, d):
    fw = rotated_framework(kind, d, seed=100 + d)
    path = continue_motion(fw, analyze(fw).flex_basis[0], n_steps=6, h=0.02)
    orbits = fw.graph.vertex_orbits
    keys, _, _ = loop_pairs(positions_of(fw, orbits), fw.placement.lattice, 2)
    dist = [
        [np.linalg.norm(pl.positions[b] + pl.lattice @ np.array(w, float) - pl.positions[a]) for a, b, w in keys]
        for pl in step_placements(path)
    ]
    inc = np.diff(np.array(dist), axis=0)

    # With an infinite negative tolerance every increment is listed as a violation.
    monkeypatch.setattr(motion, "AUDIT_TOL", -np.inf)
    audit = audit_expansiveness(path, radius=2)
    assert list(audit.pair_results) == keys
    assert same_bits(list(audit.pair_results.values()), inc.min(axis=0))
    assert [(key, step) for key, step, _ in audit.violations] == [
        (key, s + 1) for key in keys for s in range(len(inc))
    ]
    assert same_bits([v for _, _, v in audit.violations], -inc.T.reshape(-1))

    shifts = list(itertools.product((-1, 0, 1), repeat=d))
    coords = [
        [pl.positions[o] + pl.lattice @ np.array(w, float) for o in orbits for w in shifts]
        for pl in step_placements(path)
    ]
    csv = export_frames(path, supercell=1, fmt="csv", outdir=tmp_path)
    with open(csv[0]) as fh:
        cells = [line.rstrip("\n").split(",")[2 + d :] for line in list(fh)[1:]]
    assert cells == [[format(v, ".12g") for v in x] for step in coords for x in step]
    if d <= 3:
        for step, name in enumerate(export_frames(path, supercell=1, fmt="obj", outdir=tmp_path)):
            with open(name) as fh:
                verts = [line.split()[1 : 1 + d] for line in fh if line.startswith("v ")]
            assert same_bits(np.array(verts, dtype=float), coords[step])
