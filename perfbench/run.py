#!/usr/bin/env python3
"""Benchmark of perigid: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload cone --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else.  The load is a closed loop with one
client: the process runs the workload's job list in order, one job at a
time, for a number of passes derived from ``--seconds``.  Job times are
taken at a reference host speed (see hostspeed.py).  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the median traced pass plus the tracing overhead.  The last line of
standard output is the result object; the line before it holds the details
(environment, passes, per-job times, tail percentile, artifact digests),
also written under ``.bench_results/``.  Scratch files live under
``.bench_work/`` and are removed at exit.  README.md explains the choices.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads.  One BLAS thread (never more than the cores):
# the matrices here are small, and on a shared two-core machine threaded
# BLAS adds scheduling noise without speed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Nominal seconds of one untraced pass on a 2-core Xeon.  The pass count is
# --seconds divided by this, not a deadline, so both commits of a comparison
# run the same number of passes.
NOMINAL_PASS_S = {"cone": 5.0, "motion": 1.0, "stars": 10.0}
MIN_PASSES = 2
SETUP_REPEATS = 5
PROGRAM_MODULES = ("framework", "rigidity", "expansive", "feasibility", "cones", "motion", "cli",
                   "constructions")


class BenchmarkError(Exception):
    pass


def import_program(sampler):
    """Import perigid from this checkout; returns (package, import seconds
    at the reference host speed)."""
    if not os.path.isfile(os.path.join(SRC, "perigid", "__init__.py")):
        raise BenchmarkError(f"no perigid sources under {SRC}")
    sys.path.insert(0, SRC)

    def load():
        for name in PROGRAM_MODULES:
            importlib.import_module(f"perigid.{name}")
        return importlib.import_module("perigid")

    package, _, seconds = sampler.measure(load)
    if not os.path.abspath(package.__file__).startswith(os.path.join(SRC, "")):
        raise BenchmarkError(f"perigid imported from {package.__file__}, not from {SRC}")
    return package, seconds


# ---------------------------------------------------------------------------
# Environment record.

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_info():
    """(version, threads in use, how the thread count was read)."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        version = None
    libdirs = [os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"),
               os.path.join(os.path.dirname(np.__file__), ".libs")]
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for libdir in libdirs:
        for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for name in names:
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return version, int(fn()), name
    return version, BLAS_THREADS, "OPENBLAS_NUM_THREADS"


def _git_commit(root: str):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    version, threads, source = _openblas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads": threads,
        "blas_threads_source": source,
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Passes.

def _run_job(job):
    try:
        return job.run(), None
    except Exception:  # a failing job is counted, not fatal
        return None, traceback.format_exc()


def run_pass(jobs, sampler):
    """Run every job once, in order, under the host-speed sampler.

    Returns (seconds spent in jobs, per-job seconds at the reference host
    speed, outputs).  Probe time is outside every figure.
    """
    wall, scaled, outputs = 0.0, [], []
    for job in jobs:
        output, seconds, at_reference = sampler.measure(lambda: _run_job(job))
        wall += seconds
        scaled.append(at_reference)
        outputs.append(output)
    return wall, scaled, outputs


def check_pass(jobs, outputs):
    """Check each job's output; returns (failure messages, digest per job)."""
    failures, digests = [], {}
    for job, (output, error) in zip(jobs, outputs):
        if error is None:
            try:
                digests[job.name] = workloads.digest(job.check(output))
                continue
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:
                error = traceback.format_exc()
        failures.append(f"{job.name}: {error}")
    return failures, digests


def job_costs(pass_times):
    """Each job's median over the passes of its time at reference speed."""
    return [statistics.median(times) for times in zip(*pass_times)]


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of the order statistics.  It averages the jobs near the
    quantile instead of picking one, so the stars workload's figures do
    not jump when one job's time moves past its neighbour's."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = np.linspace(0.0, 1.0, 200 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1])
    return float(np.diff(cdf) @ x)


def tail(costs):
    """(value, percentile, jobs): the highest percentile with at least ten
    jobs above it, or the slowest job (percentile 100) when the list has
    fewer than eleven jobs and no such percentile exists."""
    n = len(costs)
    if n < 11:
        return max(costs), 100.0, n
    q = (n - 10) / n
    return hd_quantile(costs, q), 100.0 * q, n


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def measure(args, pg, import_s, workdir, sampler):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        jobs, _, seconds = sampler.measure(lambda: workloads.build(args.workload, args.seed, workdir, pg))
        setup_times.append(seconds)

    # Traced and untraced passes alternate, so host drift hits both alike.
    passes = pass_count(args.workload, args.seconds)
    if args.trace:
        tracer = tracing.Tracer(pg)
        order = [i % 2 == 1 for i in range(2 * ((passes + 1) // 2))]
    else:
        tracer, order = None, [False] * passes

    walls = {False: [], True: []}
    pass_times = {False: [], True: []}
    traced_metrics, failures, pass_digests = [], [], []
    for traced in order:
        if traced:
            tracer.reset()
            sampler.on_probe = tracer.add_probe
            with tracer.installed():
                wall, times, outputs = run_pass(jobs, sampler)
            sampler.on_probe = None
            traced_metrics.append(tracer.metrics(wall))
        else:
            if tracer is not None and not tracer.is_clean():
                raise BenchmarkError("untraced pass would run patched code")
            wall, times, outputs = run_pass(jobs, sampler)
        walls[traced].append(wall)
        pass_times[traced].append(times)
        pass_failures, digests = check_pass(jobs, outputs)
        failures += pass_failures
        pass_digests.append(digests)
    attempted = len(order) * len(jobs)

    costs = job_costs(pass_times[False])
    job_tail = tail(costs)
    if args.trace:
        by_wall = sorted(traced_metrics, key=lambda m: m["traced_wall_s"])
        metrics = dict(by_wall[(len(by_wall) - 1) // 2])
        metrics["trace_overhead_s"] = sum(job_costs(pass_times[True])) - sum(costs)
    else:
        metrics = {
            "wall_s": sum(costs),
            "job_p50_ms": 1e3 * hd_quantile(costs, 0.5),
            "job_tail_ms": 1e3 * job_tail[0],
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": len(order),
        "traced_passes": len(walls[True]),
        "jobs_per_pass": len(jobs),
        "pass_walls_s": walls[False],
        "traced_pass_walls_s": walls[True],
        "import_s": import_s,
        "setup_times_s": setup_times,
        "job_tail": {"percentile": job_tail[1], "jobs": job_tail[2]},
        "job_ms": {job.name: 1e3 * c for job, c in zip(jobs, costs)},
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "artifact_digests": pass_digests[0],
        "digests_same_every_pass": all(d == pass_digests[0] for d in pass_digests),
    }
    return metrics, attempted, len(failures), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sampler = hostspeed.Sampler()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        pg, import_s = import_program(sampler)
        metrics, attempted, failed, detail = measure(args, pg, import_s, workdir, sampler)
    finally:
        sampler.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    for message in detail["failures"]:
        print(message, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
