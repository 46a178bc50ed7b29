#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

    python3 perfbench/selftest.py

For each workload it builds the tiny job list, runs one untraced and one
traced pass, and checks that every job passes its output check both times,
that both passes write byte-identical artifacts, that the tracer restored
every patched name, and that the module self times plus ``unattributed_s``
add up to the traced wall time.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

import hostspeed
import tracing
import workloads


def check_workload(pg, name: str, workdir: str, sampler) -> list[str]:
    problems = []
    jobs = workloads.build(name, 7, workdir, pg, tiny=True)
    tracer = tracing.Tracer(pg)

    _, _, plain = run.run_pass(jobs, sampler)
    plain_failures, plain_digests = run.check_pass(jobs, plain)

    tracer.reset()
    sampler.on_probe = tracer.add_probe
    with tracer.installed():
        wall, _, traced = run.run_pass(jobs, sampler)
    sampler.on_probe = None
    traced_failures, traced_digests = run.check_pass(jobs, traced)
    metrics = tracer.metrics(wall)

    problems += [f"untraced {f}" for f in plain_failures]
    problems += [f"traced {f}" for f in traced_failures]
    for job in jobs:
        if plain_digests.get(job.name) != traced_digests.get(job.name):
            problems.append(f"{job.name}: traced and untraced artifacts differ")
    if not tracer.is_clean():
        problems.append("tracer left a patched name behind")
    total = sum(metrics[f"{m}.self_s"] for m in tracing.TRACED_MODULES) + metrics["unattributed_s"]
    if abs(total - metrics["traced_wall_s"]) > 1e-9 * max(1.0, metrics["traced_wall_s"]):
        problems.append(f"self times add up to {total}, traced wall is {metrics['traced_wall_s']}")
    if metrics["unattributed_s"] < 0:
        problems.append(f"negative unattributed time {metrics['unattributed_s']}")
    return problems


def main() -> int:
    sampler = hostspeed.Sampler()
    workdir = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    problems = []
    try:
        pg, _ = run.import_program(sampler)
        for name in workloads.WORKLOADS:
            found = check_workload(pg, name, os.path.join(workdir, name), sampler)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            problems += [f"{name}: {p}" for p in found]
    finally:
        sampler.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
