"""Inputs, job lists and output checks of the three benchmark workloads.

``build(name, seed, workdir, pg)`` makes a workload's inputs from the seed
and returns its job list.  Every input framework is a built-in construction
turned by a random rotation drawn from the seed (positions and lattice
alike), then written as JSON; the jobs load only those files, or the
generated ``VectorStar``s.  A job's ``run`` calls perigid's public entry
points through module attributes looked up at call time, so the tracer's
patches apply when installed.  ``check`` runs after the pass, outside the
timed region, and returns the artifacts whose digests are reported.

Why these workloads and sizes is recorded in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

WORKLOADS = ("cone", "motion", "stars")

# Stars per (dimension, star size) stratum in one pass; see README.md.
STARS_PER_STRATUM = 11
PLANT_SHARE = 0.45
MOTION_STEPS = 50


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    # check(output) raises CheckFailed (or anything else) on a wrong result
    # and returns the artifact bytes to digest, keyed by artifact name.
    check: Callable[[Any], dict[str, bytes]]


def digest(blobs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for key in sorted(blobs):
        h.update(key.encode() + b"\0" + hashlib.sha256(blobs[key]).digest())
    return h.hexdigest()


def read_files(paths) -> dict[str, bytes]:
    out = {}
    for p in paths:
        with open(p, "rb") as fh:
            out[os.path.basename(p)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# Inputs.

def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random proper rotation (QR of a Gaussian matrix, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated(pg, fw, rotation: np.ndarray):
    pl = fw.placement
    placement = pg.framework.Placement(
        {o: rotation @ p for o, p in pl.positions.items()}, rotation @ pl.lattice
    )
    return pg.framework.validate_framework(fw.graph, placement)


def write_rotated(pg, rng, fw, path: str) -> str:
    pg.framework.save_framework(rotated(pg, fw, random_rotation(rng, fw.dimension)), path)
    return path


def _star_vectors(rng, d: int, k: int, plant: bool) -> list[list[Fraction]]:
    # Same entry distribution and planting rule as the local-expansion
    # property suite; only the (d, k, planted) mix is fixed per pass.
    vectors = []
    while len(vectors) < k:
        v = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(d)]
        if any(v):
            vectors.append(v)
    if plant:
        weights = [int(rng.integers(1, 4)) for _ in vectors[:-1]]
        planted = [-sum(w * v[c] for w, v in zip(weights, vectors[:-1])) for c in range(d)]
        if any(planted):
            vectors[-1] = planted
    return vectors


def star_plan(per_stratum: int) -> list[tuple[int, int, bool]]:
    """(d, k, planted) slots of one pass: every d in {2, 3} and k in 2..6,
    ``per_stratum`` stars each, a PLANT_SHARE of them planted when k >= 3."""
    plan = []
    planted = round(PLANT_SHARE * per_stratum)
    for d, k in itertools.product((2, 3), range(2, 7)):
        plan += [(d, k, k >= 3 and i < planted) for i in range(per_stratum)]
    return plan


def facet_separations(lattices) -> np.ndarray:
    """Distance from the origin to the affine hull of the generators, per
    lattice: 1 / |L^-T 1|.  This is the gap between the facet hulls
    {lambda_i} and {2 lambda_i} that simplex-family motions widen."""
    out = []
    for lat in lattices:
        normal = np.linalg.solve(lat.T, np.ones(lat.shape[0]))
        out.append(1.0 / np.linalg.norm(normal))
    return np.array(out)


def _obj_lattices(frame_paths, d: int):
    # OBJ vertices list the first orbit's translates first, in
    # itertools.product(range(-1, 2), repeat=d) order.
    shifts = list(itertools.product(range(-1, 2), repeat=d))
    origin = shifts.index((0,) * d)
    units = [shifts.index(tuple(int(i == k) for i in range(d))) for k in range(d)]
    lattices = []
    for p in frame_paths:
        with open(p) as fh:
            verts = [line.split()[1 : 1 + d] for line in fh if line.startswith("v ")]
        pts = np.array(verts[: len(shifts)], dtype=float)
        lattices.append(np.array([pts[u] - pts[origin] for u in units]).T)
    return lattices


def _csv_lattices(csv_path: str, d: int, orbit: str):
    rows: dict[int, dict[tuple, np.ndarray]] = {}
    with open(csv_path) as fh:
        next(fh)
        for line in fh:
            f = line.rstrip("\n").split(",")
            if f[1] != orbit:
                continue
            shift = tuple(int(c) for c in f[2 : 2 + d])
            rows.setdefault(int(f[0]), {})[shift] = np.array(f[2 + d :], dtype=float)
    lattices = []
    for step in sorted(rows):
        pts = rows[step]
        base = pts[(0,) * d]
        lattices.append(np.array([pts[tuple(int(i == k) for i in range(d))] - base for k in range(d)]).T)
    return lattices


# ---------------------------------------------------------------------------
# Jobs.

def _cli(pg, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pg.cli.main(list(argv))
    return code, out.getvalue()


def cone_cli_job(pg, name, fw_path, radius, workdir, expect):
    """``perigid cone``; expect = (flex_dim, rays, stable radius or None)."""
    report = os.path.join(workdir, f"{name}.json")
    pairs = os.path.join(workdir, f"{name}.pairs.csv")
    argv = ["cone", fw_path, "--radius", str(radius), "--pairs", pairs, "-o", report]

    def check(result):
        code, _ = result
        require(code == 0, f"exit code {code}")
        with open(report) as fh:
            rep = json.load(fh)
        flex_dim, n_rays, stable = expect
        require(rep["flex_dim"] == flex_dim, f"flex_dim {rep['flex_dim']} != {flex_dim}")
        require(len(rep["rays"]) == n_rays, f"{len(rep['rays'])} rays, expected {n_rays}")
        if stable is not None:
            require(rep["stable_radius"] == stable, f"stable radius {rep['stable_radius']} != {stable}")
        return read_files([report, pairs])

    return Job(name, lambda: _cli(pg, argv), check)


def cone_library_job(pg, name, fw_path, radius, n_rays):
    def run():
        fw = pg.framework.load_framework(fw_path)
        report = pg.rigidity.analyze(fw)
        return pg.expansive.expansive_cone(fw, report, radius)

    def check(cone):
        require(cone.flex_dim == n_rays, f"flex_dim {cone.flex_dim} != {n_rays}")
        require(len(cone.rays) == n_rays, f"{len(cone.rays)} rays, expected {n_rays}")
        return {"rays": np.ascontiguousarray(cone.rays).tobytes(),
                "halfspaces": np.ascontiguousarray(cone.halfspace_matrix).tobytes()}

    return Job(name, run, check)


def simulate_job(pg, name, fw_path, workdir, fmt, simplex_d=None):
    """``perigid simulate --ray 0``; the audit must pass, the corrector must
    hold the edge lengths, and for simplex-family inputs the facet gap read
    back from the exported frames must not shrink."""
    outdir = os.path.join(workdir, name)
    argv = ["simulate", fw_path, "--ray", "0", "--steps", str(MOTION_STEPS),
            "--format", fmt, "--outdir", outdir]

    def check(result):
        code, stdout = result
        require(code == 0, f"exit code {code}")
        summary = json.loads(stdout)
        require(summary["steps"] == MOTION_STEPS, f"{summary['steps']} steps")
        require(summary["passed"] and summary["num_violations"] == 0, "pair audit failed")
        require(summary["max_residual"] < 1e-10, f"residual {summary['max_residual']:.3e}")
        files = [os.path.join(outdir, f) for f in summary["frames"] + [summary["audit"]]]
        if simplex_d is not None:
            if fmt == "obj":
                lattices = _obj_lattices(files[:-1], simplex_d)
            else:
                lattices = _csv_lattices(files[0], simplex_d, "red")
            require(len(lattices) == MOTION_STEPS + 1, "missing frames")
            gaps = np.diff(facet_separations(lattices))
            require(bool(np.all(gaps >= 0)), f"facet gap shrank by {-gaps.min():.3e}")
        blobs = read_files(files)
        blobs["stdout"] = stdout.encode()
        return blobs

    return Job(name, lambda: _cli(pg, argv), check)


def _result_bytes(x) -> bytes:
    if x is None:
        return b"None"
    if isinstance(x, list):
        return repr(x).encode()
    return np.ascontiguousarray(x, dtype=float).tobytes()


def star_job(pg, name, star, d):
    """Float and exact dependence and probe, plus the float star report."""
    float_star = pg.cones.VectorStar(star.vertex_orbit, star.as_float())

    def run():
        cones = pg.cones
        return (
            cones.positive_dependence(float_star),
            cones.positive_dependence(star),
            cones.strict_expansion_probe(float_star),
            cones.strict_expansion_probe(star),
            cones.analyze_star(float_star, d),
        )

    def check(result):
        dep_f, dep_e, probe_f, probe_e, analysis = result
        require((dep_f is None) == (dep_e is None), "float and exact dependence disagree")
        require((probe_f is None) == (probe_e is None), "float and exact probe disagree")
        require(dep_e is None or probe_e is None, "exact dependence but the probe expands")
        require((analysis.positive_dependence is None) == (dep_f is None),
                "star report disagrees with positive_dependence")
        if dep_e is not None:
            total = [sum(a * v[c] for a, v in zip(dep_e, star.vectors)) for c in range(d)]
            require(all(x == 0 for x in total) and min(dep_e) >= 1, "exact dependence is wrong")
        parts = (dep_f, dep_e, probe_f, probe_e, analysis.lineality_basis,
                 analysis.separating_normal, [analysis.pointed_codim2])
        return {f"{i}": _result_bytes(p) for i, p in enumerate(parts)}

    return Job(name, run, check)


def star_cli_job(pg, name, fw_path, orbit, workdir):
    report = os.path.join(workdir, f"{name}.json")
    argv = ["star", fw_path, "--orbit", orbit, "-o", report]

    def check(result):
        code, _ = result
        require(code == 0, f"exit code {code}")
        with open(report) as fh:
            rep = json.load(fh)
        require(rep["pointed_codim2"] and rep["lineality_dim"] == 0, "stressed star not pointed")
        require(rep["positive_dependence"] is None, "stressed star positively dependent")
        return read_files([report])

    return Job(name, lambda: _cli(pg, argv), check)


def pointedness_job(pg, name, fw_path, ray_motions):
    def run():
        fw = pg.framework.load_framework(fw_path)
        return [pg.expansive.verify_pointedness(fw, m, radius=2) for m in ray_motions]

    def check(reports):
        require(len(reports) == 2 and all(r.passed for r in reports), "pointedness failed")
        return {f"{i}.{orbit}": repr(a.lineality_dim).encode()
                for i, r in enumerate(reports) for orbit, a in sorted(r.analyses.items())}

    return Job(name, run, check)


# ---------------------------------------------------------------------------
# Workloads.

def build(name: str, seed: int, workdir: str, pg, tiny: bool = False) -> list[Job]:
    """Make the inputs of workload `name` from `seed` under `workdir` and
    return its job list.  ``tiny`` shrinks every workload for the self-test."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    cons = pg.constructions

    def fw_file(label, fw):
        return write_rotated(pg, rng, fw, os.path.join(workdir, f"{label}.fw.json"))

    def simplex(d, variant="base", regular=False):
        return cons.simplex_framework(d, cons.SimplexVariant.parse(variant), regular=regular)

    if name == "cone":
        jobs = [cone_cli_job(pg, "stressed_r2", fw_file("stressed", cons.stressed_framework()),
                             2, workdir, (2, 2, 2))]
        if tiny:
            return jobs + [
                cone_cli_job(pg, "base_d2_r2", fw_file("base_d2", simplex(2)), 2, workdir, (2, 2, 2)),
                cone_cli_job(pg, "enhanced_d3_r2", fw_file("enhanced_d3", simplex(3, "enhanced")),
                             2, workdir, (0, 0, 2)),
            ]
        base3 = fw_file("base_d3", simplex(3))
        base4 = fw_file("base_d4", simplex(4))
        return jobs + [
            cone_cli_job(pg, "base_d3_r2", base3, 2, workdir, (3, 3, 2)),
            cone_cli_job(pg, "base_d3_r3", base3, 3, workdir, (3, 3, 3)),
            cone_cli_job(pg, "base_d4_r2", base4, 2, workdir, (4, 4, 2)),
            cone_cli_job(pg, "regular_d4_r2", fw_file("regular_d4", simplex(4, regular=True)),
                         2, workdir, (4, 4, 2)),
            cone_cli_job(pg, "base_d4_r3", base4, 3, workdir, (4, 4, 3)),
            cone_cli_job(pg, "removed2_d3_r2", fw_file("removed2_d3", simplex(3, "removed:2")),
                         2, workdir, (1, 1, None)),
            cone_cli_job(pg, "enhanced_d4_r2", fw_file("enhanced_d4", simplex(4, "enhanced")),
                         2, workdir, (0, 0, 2)),
            cone_library_job(pg, "base_d5_r2_library", fw_file("base_d5", simplex(5)), 2, 5),
        ]

    if name == "motion":
        stressed_edge = cons.with_edge_orbit(cons.stressed_framework(), "red", "red", (1, 0, 0))
        jobs = [
            simulate_job(pg, f"removed1_d{d}", fw_file(f"removed1_d{d}", simplex(d, "removed:1", True)),
                         workdir, "obj" if d <= 3 else "csv", simplex_d=d)
            for d in ((2,) if tiny else (2, 3, 4))
        ]
        return jobs + [simulate_job(pg, "stressed_rr100", fw_file("stressed_rr100", stressed_edge),
                                    workdir, "obj")]

    if name == "stars":
        stressed = fw_file("stressed", cons.stressed_framework())
        fw = pg.framework.load_framework(stressed)
        cone = pg.expansive.expansive_cone(fw, pg.rigidity.analyze(fw), 2)
        jobs = [
            star_cli_job(pg, "stressed_red", stressed, "red", workdir),
            star_cli_job(pg, "stressed_green", stressed, "green", workdir),
            pointedness_job(pg, "stressed_pointedness", stressed, cone.ray_motions()),
        ]
        plan = star_plan(1 if tiny else STARS_PER_STRATUM)
        for i, (d, k, plant) in enumerate(plan):
            star = pg.cones.VectorStar("s", np.array(_star_vectors(rng, d, k, plant), dtype=object))
            jobs.append(star_job(pg, f"star{i:03d}_d{d}_k{k}{'_planted' if plant else ''}", star, d))
        return jobs

    raise ValueError(f"unknown workload {name!r}")
