#!/usr/bin/env python3
"""Count the settable values and the public names of the perigid library and CLI.

A settable value is a parameter of a public module-level function defined in
the module, or a field of a dataclass defined there, over the modules below.
A public name is a public module-level function or class defined in the
module, or a public method, property or classmethod such a class defines.
Prints one "module: count" line of settable values per module, then
"total: N", then "public names: N", then "lines: N", the line count of
src/perigid/*.py.  It imports perigid from the src/ beside it.

    python scripts/settable_values.py
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

MODULES = (
    "framework", "rigidity", "expansive", "feasibility", "cones", "motion", "constructions", "cli",
)


def settable_values(module) -> int:
    count = 0
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            count += len(inspect.signature(obj).parameters)
        elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            count += len(dataclasses.fields(obj))
    return count


def public_names(module):
    """Yield each public name of the module: "f" for a function or class,
    "C.m" for a method, property or classmethod of class C."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(value) or isinstance(value, (property, classmethod))
                ):
                    yield f"{name}.{attr}"


def main() -> None:
    total = names = 0
    for name in MODULES:
        module = importlib.import_module(f"perigid.{name}")
        count = settable_values(module)
        print(f"{name}: {count}")
        total += count
        names += sum(1 for _ in public_names(module))
    print(f"total: {total}")
    print(f"public names: {names}")
    lines = sum(path.read_bytes().count(b"\n") for path in (SRC / "perigid").glob("*.py"))
    print(f"lines: {lines}")


if __name__ == "__main__":
    main()
