"""The reproduction script still runs against the package.

`scripts/reproduce_claims.py` calls the cone, probe, pair-audit and motion
API end to end; an API change that breaks it makes it exit nonzero.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join("scripts", "reproduce_claims.py")


def test_reproduce_claims_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, SCRIPT, "--outdir", str(tmp_path), "--steps", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "expansive cone: 2 extremal rays, stable radius 2" in done.stdout
    for name in ("stressed_cone.json", "stressed_pairs.csv", os.path.join("motion_d2", "audit.csv")):
        assert (tmp_path / name).is_file()


def test_settable_values_counts_every_module():
    # `scripts/settable_values.py` imports every counted module from the src/
    # beside it, with no PYTHONPATH; its total is the sum of the per-module
    # lines, then come the public names and the line count of src/perigid.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join("scripts", "settable_values.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    *modules, total, names, lines = [line.split(": ") for line in done.stdout.splitlines()]
    assert [name for name, _ in modules] == [
        "framework", "rigidity", "expansive", "feasibility", "cones", "motion", "constructions", "cli",
    ]
    assert all(int(count) > 0 for _, count in modules)
    assert total == ["total", str(sum(int(count) for _, count in modules))]
    assert names[0] == "public names" and int(names[1]) > 0
    package = os.path.join(ROOT, "src", "perigid")
    newlines = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                newlines += fh.read().count(b"\n")
    assert lines == ["lines", str(newlines)]
