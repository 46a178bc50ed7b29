"""Command-line interface.

Subcommands tie the constructors, rigidity analysis, cone computation, star
analysis, and motion continuation into reproducible runs that emit JSON, CSV,
and OBJ artifacts.  Numeric output is full precision in JSON and 12
significant digits in CSV; identical configurations produce byte-identical
files.  Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O
error.  PERIGID_TOL_RANK and PERIGID_TOL_NEWTON override the default
tolerances with positive finite numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import constructions, expansive, motion
from .cones import analyze_star, star_report_json, vertex_star
from .errors import FrameworkError, NumericalError, PerigidError, StressError, UnknownOrbitError
from .framework import _number_list, dumps_framework, load_framework
from .rigidity import DEFAULT_RANK_TOL, analyze, report_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


def _env_tol(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"{name} must be a number, got {raw!r}") from None
    if not 0 < value < float("inf"):
        raise UsageError(f"{name} must be positive and finite, got {raw!r}")
    return value


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perigid",
        description="Rigidity, expansive cones, and motion continuation for "
        "periodic bar-and-joint frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a built-in framework as JSON")
    gen.add_argument("family", choices=["stressed", "simplex"])
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--variant", default="base", help="base | enhanced | removed:K")
    gen.add_argument("--regular", action="store_true", help="regular-simplex lattice")
    gen.add_argument("-o", "--out", default=None, help="output path (default: stdout)")

    ana = sub.add_parser("analyze", help="rigidity report for a framework file")
    ana.add_argument("framework")
    ana.add_argument("-o", "--out", default=None)

    cone = sub.add_parser("cone", help="expansive cone report")
    cone.add_argument("framework")
    cone.add_argument("--radius", type=int, default=expansive.DEFAULT_RADIUS)
    cone.add_argument("-o", "--out", default=None)
    cone.add_argument("--pairs", default=None, help="also write the pair audit CSV here")

    star = sub.add_parser("star", help="vertex star cone analysis")
    star.add_argument("framework")
    star.add_argument("--orbit", required=True)
    star.add_argument("-o", "--out", default=None)

    sim = sub.add_parser("simulate", help="continue a flex and audit expansiveness")
    sim.add_argument("framework")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--ray", type=int, default=None, help="extremal ray index to follow")
    group.add_argument("--direction", default=None, help="JSON file with a motion vector")
    sim.add_argument("--steps", type=int, default=motion.DEFAULT_STEPS)
    sim.add_argument("--h", type=float, default=motion.DEFAULT_STEP)
    sim.add_argument("--radius", type=int, default=expansive.DEFAULT_RADIUS)
    sim.add_argument("--supercell", type=int, default=1)
    sim.add_argument("--format", choices=["obj", "csv"], default="obj")
    sim.add_argument("--outdir", default=".")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args) -> int:
    if args.family == "stressed":
        fw = constructions.stressed_framework()
    else:
        variant = constructions.SimplexVariant.parse(args.variant)
        fw = constructions.simplex_framework(args.dim, variant, regular=args.regular)
    _emit(dumps_framework(fw), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    fw = load_framework(args.framework)
    report = analyze(fw, args.rank_tol)
    _emit(report_to_json(report), args.out)
    return EXIT_OK


def _cmd_cone(args) -> int:
    fw = load_framework(args.framework)
    report = analyze(fw, args.rank_tol)
    # The pair audit is written from the cone's own pairs, before the probe.
    cone = expansive.expansive_cone(fw, report, args.radius, pairs_csv=args.pairs)
    stable = expansive.find_stable_radius(fw, cone, max_radius=args.radius + 3)
    _emit(expansive.cone_report_json(cone, stable), args.out)
    return EXIT_OK


def _cmd_star(args) -> int:
    fw = load_framework(args.framework)
    star = vertex_star(fw, args.orbit)
    if len(star) == 0:
        raise UsageError(f"orbit {args.orbit!r} has no incident bar; its star is empty")
    analysis = analyze_star(star, fw.dimension)
    _emit(star_report_json(analysis), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.steps < 1:
        raise UsageError("steps must be at least 1")
    if not 0 < args.h < float("inf"):
        raise UsageError("step size h must be positive and finite")
    if args.supercell < 0:
        raise UsageError("supercell must be nonnegative")
    fw = load_framework(args.framework)
    if args.format == "obj" and fw.dimension > 3:
        raise UsageError("obj export supports d <= 3; use --format csv")
    report = analyze(fw, args.rank_tol)
    if args.ray is not None:
        cone = expansive.expansive_cone(fw, report, args.radius)
        if not 0 <= args.ray < len(cone.rays):
            raise UsageError(
                f"ray index {args.ray} out of range; cone has {len(cone.rays)} rays"
            )
        direction = cone.ray_motion(args.ray)
    else:
        with open(args.direction) as fh:
            direction = json.load(fh)
        if not _number_list(direction):
            raise UsageError("direction file must hold a list of numbers")
    path = motion.continue_motion(
        fw, direction, n_steps=args.steps, h=args.h, newton_tol=args.newton_tol,
        rank_tol=args.rank_tol,
    )
    os.makedirs(args.outdir, exist_ok=True)
    frames = motion.export_frames(path, supercell=args.supercell, fmt=args.format, outdir=args.outdir)
    audit = motion.audit_expansiveness(path, radius=args.radius)
    audit_path = os.path.join(args.outdir, "audit.csv")
    motion.write_audit_csv(audit, audit_path)
    summary = {
        "steps": path.n_steps,
        "h": args.h,
        "step_size": path.step_size,
        "max_residual": float(path.residuals.max()),
        "passed": audit.passed,
        "num_violations": len(audit._found[0]),
        "frames": [os.path.basename(p) for p in frames],
        "audit": os.path.basename(audit_path),
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "cone": _cmd_cone,
    "star": _cmd_star,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.rank_tol = _env_tol("PERIGID_TOL_RANK", DEFAULT_RANK_TOL)
        args.newton_tol = _env_tol("PERIGID_TOL_NEWTON", motion.DEFAULT_NEWTON_TOL)
        if getattr(args, "radius", 1) < 1:
            raise UsageError("radius must be at least 1")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FrameworkError, UnknownOrbitError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, StressError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except PerigidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
