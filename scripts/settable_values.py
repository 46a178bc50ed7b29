#!/usr/bin/env python3
"""Count the settable values of the perigid library and CLI.

A settable value is a parameter of a public module-level function defined in
the module, or a field of a dataclass defined there, over the modules below.
Prints one "module: count" line per module, then "total: N".

    PYTHONPATH=src python scripts/settable_values.py
"""

import dataclasses
import importlib
import inspect

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


def main() -> None:
    total = 0
    for name in MODULES:
        count = settable_values(importlib.import_module(f"perigid.{name}"))
        print(f"{name}: {count}")
        total += count
    print(f"total: {total}")


if __name__ == "__main__":
    main()
