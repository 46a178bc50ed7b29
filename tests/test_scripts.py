"""The reproduction script still runs against the package, byte for byte.

`scripts/reproduce_claims.py` calls the cone, probe, pair-audit and motion
API end to end; an API change that breaks it makes it exit nonzero, and a
change to its stdout or to any artifact it writes changes a digest.
"""

import ast
import dataclasses
import hashlib
import importlib
import inspect
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join("scripts", "reproduce_claims.py")


# SHA-256 of the stdout, without its `artifacts written to` line, and of every
# file `--steps 5` writes, as recorded with numpy 2.4.6 (OpenBLAS 0.3.31).
CLAIMS_DIGESTS = {
    "stdout": "33b89503aadc8aeaad7f13e2588b89832c43abf9b617f5c692ece5e0de6ab730",
    "stressed.json": "dc07289d33660526e6fbc5b5dcfcfc24a4ca033538c6faf1a8750e68d17c7191",
    "stressed_cone.json": "290a8061034794ad3c62bf786e87ffe905f61dee82c1ed0dc665dcb4562cfad3",
    "stressed_pairs.csv": "758e6e1b8d8e5d8755818c5e61c426b252029be4684c931bbcb955f4f9024c54",
    "motion_d2/audit.csv": "322ccea3c090bed980709f309d5808c0151bdc16d52c0b15bada52c78b6c5a51",
    "motion_d2/frame_0000.obj": "4c847d23051ccbb67316e39e666f7ddfd6d75b9b15715852a5e64d6cb4fcae24",
    "motion_d2/frame_0001.obj": "1c4289437eb9a6354eec65d8e004614bad8f4aa8e6dd2656cf68b10f66b29f16",
    "motion_d2/frame_0002.obj": "43fb64a7c3f5d670d52ee6b08ee767572c63a37731076ff9d396551bb94df62c",
    "motion_d2/frame_0003.obj": "896ae7511f428e549cf71704455ff829143e88eb2ebd5ab05acb62fbc003639a",
    "motion_d2/frame_0004.obj": "bfd48ea2cc4d14f5edeebb222ab2596981a970c63d746ed599256cb09255eff3",
    "motion_d2/frame_0005.obj": "9a87d3da15f0714ad0f8213a84f667caf87250e6ab2081bcfbf0e02159c75f22",
}


def test_reproduce_claims_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, SCRIPT, "--outdir", str(tmp_path), "--steps", "5"],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, (done.stdout + done.stderr).decode()
    stdout = b"".join(
        line for line in done.stdout.splitlines(keepends=True) if not line.startswith(b"artifacts written to")
    )
    got = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            got[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == CLAIMS_DIGESTS


# The ratchet: settable values and public names may fall, never rise.  A
# change that adds a knob or a name raises its pin here, together with the
# caller outside the tests that needs it.
MAX_SETTABLE_VALUES = 114
MAX_PUBLIC_NAMES = 72


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
    assert int(total[1]) <= MAX_SETTABLE_VALUES and int(names[1]) <= MAX_PUBLIC_NAMES
    package = os.path.join(ROOT, "src", "perigid")
    newlines = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                newlines += fh.read().count(b"\n")
    assert lines == ["lines", str(newlines)]


def syntax_trees(*dirs, skip=()):
    """The AST of each .py file of `dirs` but those named in `skip`."""
    for folder in dirs:
        for file in os.listdir(folder):
            if file.endswith(".py") and file not in skip:
                with open(os.path.join(folder, file)) as fh:
                    yield ast.parse(fh.read())


def referenced_names(*dirs, skip=()):
    """Every name an AST `Name`, `Attribute` or import alias uses in the .py
    files of `dirs`; a name inside a string is not a reference."""
    names = set()
    for tree in syntax_trees(*dirs, skip=skip):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update([node.name.rsplit(".", 1)[-1], node.asname])
    return names


# The package outside `__init__.py`, the scripts and perfbench: the callers
# the caller rules count; tests and the README do not.
CALLERS = [os.path.join(ROOT, "src", "perigid"), os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench")]


def settable_values_script():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        return importlib.import_module("settable_values")
    finally:
        sys.path.remove(os.path.join(ROOT, "scripts"))


def test_every_public_name_has_a_caller():
    # The caller rule: each public name `scripts/settable_values.py` counts is
    # used by a caller.
    settable_values = settable_values_script()
    used = referenced_names(*CALLERS, skip=("__init__.py",))
    unused = [
        f"{module}.{name}"
        for module in settable_values.MODULES
        for name in settable_values.public_names(importlib.import_module(f"perigid.{module}"))
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []


def test_every_field_is_read_by_a_caller():
    # The caller rule for fields: each field of a dataclass whose fields
    # `scripts/settable_values.py` counts is read as an attribute (`x.field`)
    # by a caller; a field only written, or read only by tests, is a settable
    # value nothing uses.
    settable_values = settable_values_script()
    read = {
        node.attr
        for tree in syntax_trees(*CALLERS, skip=("__init__.py",))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}.{name}.{field.name}"
        for module in settable_values.MODULES
        for name, obj in vars(importlib.import_module(f"perigid.{module}")).items()
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == f"perigid.{module}"
        for field in dataclasses.fields(obj)
        if field.name not in read
    ]
    assert unread == []


def test_peak_rss_bounds_the_command_and_keeps_its_failure():
    # CI bounds the largest `simulate` runs with it: exit 0 within the bound,
    # 1 beyond it, and the command's own code when the command fails.
    script = os.path.join(ROOT, "scripts", "peak_rss.py")
    runs = {(1000, 0): 0, (0.001, 0): 1, (1000, 3): 3}
    for (bound, code), expected in runs.items():
        command = [sys.executable, script, str(bound), sys.executable, "-c", f"raise SystemExit({code})"]
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
        assert done.returncode == expected, done.stdout + done.stderr
        assert done.stdout.startswith("peak RSS ")
