#!/usr/bin/env python3
"""Desk-scale reproduction of the package's headline results.

Walks the built-in framework families end to end: degree-of-freedom ladder,
minimal rigidity, the stress vector of the stressed example, expansive cone
rays with their radius-stability probe, pointedness checks at effective
vertices, and a finite expansive motion with its pairwise audit (and its
first violations, should it fail).  Artifacts
(framework JSON, cone reports, OBJ frames, audit CSV) land in --outdir.
"""

import argparse
import os

import numpy as np

import perigid as pg
from perigid.expansive import cone_report_json
from perigid.motion import write_audit_csv


def dof_ladder(out):
    print("== simplex family: degrees of freedom ==")
    for d in range(2, 6):
        base = pg.simplex_framework(d)
        enhanced = pg.simplex_framework(d, pg.SimplexVariant("enhanced"))
        rb, re = pg.analyze(base), pg.analyze(enhanced)
        removed_dofs = [
            pg.analyze(pg.simplex_framework(d, pg.SimplexVariant("removed", k))).dof
            for k in range(1, d + 1)
        ]
        print(
            f"  d={d}: base m={base.m} dof={rb.dof} | enhanced m={enhanced.m} "
            f"dof={re.dof} minimally_rigid={pg.is_minimally_rigid(enhanced)} | "
            f"removed(k) dof={removed_dofs}"
        )


def stressed_example(out):
    print("== stressed example ==")
    fw = pg.stressed_framework()
    pg.save_framework(fw, os.path.join(out, "stressed.json"))
    report = pg.analyze(fw)
    print(f"  n={fw.n} m={fw.m} rank={report.rank} dof={report.dof} stress_dim={report.stress_dim}")
    coeffs = pg.stress_coefficients(fw, report, 0, value=-1.0)
    print(f"  stress normalized at the v-0 edge: {np.round(coeffs, 12).tolist()}")

    cone = pg.expansive_cone(fw, report, radius=2, pairs_csv=os.path.join(out, "stressed_pairs.csv"))
    stable = pg.find_stable_radius(fw, cone)
    with open(os.path.join(out, "stressed_cone.json"), "w") as fh:
        fh.write(cone_report_json(cone, stable))
    print(f"  expansive cone: {len(cone.rays)} extremal rays, stable radius {stable}")
    for i in range(len(cone.rays)):
        motion = cone.ray_motion(i)
        fixes = [
            axis
            for axis, shift in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1)), start=1)
            if abs(pg.pair_constraint(fw, "red", "red", shift) @ motion) < 1e-8
        ]
        print(f"    ray {i}: fixes period length(s) {fixes}, "
              f"classified {pg.classify_flex(fw, motion).value}")
        result = pg.verify_pointedness(fw, motion)
        dims = {o: a.lineality_dim for o, a in result.analyses.items()}
        print(f"    pointedness in codimension two: {result.passed} (lineality {dims})")

    for axis, shift in ((1, (1, 0, 0)), (2, (0, 1, 0))):
        mech = pg.with_edge_orbit(fw, "red", "red", shift)
        mrep = pg.analyze(mech)
        result = pg.verify_pointedness(mech, _expanding(mech))
        print(
            f"  with red-red edge fixing |lambda{axis}|: dof={mrep.dof}, "
            f"pointedness={result.passed}, red lineality={result.analyses['red'].lineality_dim}"
        )


def _expanding(fw):
    flex = pg.analyze(fw).flex_basis[0]
    if pg.classify_flex(fw, flex) is pg.FlexClass.NOT_EXPANSIVE:
        flex = -flex
    return flex


def base_cones(out):
    print("== base-variant expansive cones ==")
    for d in (2, 3, 4):
        fw = pg.simplex_framework(d)
        report = pg.analyze(fw)
        cone = pg.expansive_cone(fw, report, radius=2)
        stable = pg.find_stable_radius(fw, cone)
        print(f"  d={d}: {len(cone.rays)} extremal rays, stable radius {stable}")


def finite_motion(out, d=2, steps=50, h=0.01):
    print("== finite expansive motion (regular-simplex placement) ==")
    fw = pg.simplex_framework(d, pg.SimplexVariant("removed", 1), regular=True)
    path = pg.continue_motion(fw, _expanding(fw), n_steps=steps, h=h)
    audit = pg.audit_expansiveness(path, radius=2)
    sep = pg.facet_separation(path)
    frame_dir = os.path.join(out, f"motion_d{d}")
    os.makedirs(frame_dir, exist_ok=True)
    frames = pg.export_frames(path, supercell=1, fmt="obj", outdir=frame_dir)
    write_audit_csv(audit, os.path.join(frame_dir, "audit.csv"))
    print(
        f"  d={d} removed(1): {steps} steps at h={h}, max residual "
        f"{path.residuals.max():.2e}, audit passed={audit.passed}, "
        f"facet separation {sep[0]:.4f} -> {sep[-1]:.4f}, {len(frames)} OBJ frames"
    )
    if not audit.passed:
        print(f"  first violations (pair, step, drop): {audit.violations[:3]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--steps", type=int, default=50)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    dof_ladder(args.outdir)
    stressed_example(args.outdir)
    base_cones(args.outdir)
    finite_motion(args.outdir, steps=args.steps)
    print(f"artifacts written to {args.outdir}/")


if __name__ == "__main__":
    main()
