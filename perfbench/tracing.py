"""Outside-in tracing of perigid's public functions.

The tracer patches every public function of the traced modules at every
module attribute bound to it, so a call is seen whichever name it is made
through (``perigid.motion.analyze`` is ``perigid.rigidity.analyze`` imported
into ``motion``; ``find_stable_radius`` reaches ``expansive_cone`` as a
module global).  Spans are kept in memory as tuples and turned into
per-layer metrics when the traced pass ends; ``uninstall`` puts every
original attribute back and checks that it did.

The package is not modified and carries no tracing code, so a pass run
outside ``Tracer.installed()`` executes the unpatched program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from fractions import Fraction

import numpy as np

PROBE = "hostspeed.probe"
TRACED_MODULES = ("framework", "rigidity", "expansive", "feasibility", "cones", "motion", "cli")

# Every public function is wrapped; these are the ones whose own self time
# and call count are reported (README.md says what each should move).
REPORTED_SELF = (
    "expansive.extremal_rays",
    "expansive.expansive_cone",
    "expansive.find_stable_radius",
    "expansive.enumerate_pairs",
    "expansive.cone_report_json",
    "expansive.write_pair_audit_csv",
    "feasibility.solve_linear_feasibility.exact",
    "feasibility.solve_linear_feasibility.float",
    "cones.positive_dependence",
    "cones.strict_expansion_probe",
    "cones.lineality_space",
    "cones.analyze_star",
    "rigidity.analyze",
    "motion.continue_motion",
    "motion.audit_expansiveness",
    "motion.export_frames",
    "motion.write_audit_csv",
    "framework.load_framework",
    "framework.validate_framework",
    "cli.main",
)
REPORTED_CALLS = (
    "expansive.extremal_rays",
    "expansive.enumerate_pairs",
    "feasibility.solve_linear_feasibility.exact",
    "feasibility.solve_linear_feasibility.float",
    "rigidity.analyze",
    "rigidity.rigidity_rows",
    "framework.load_framework",
    "framework.validate_framework",
)
COUNTERS = (
    "expansive.rays",
    "expansive.halfspaces",
    "expansive.pairs",
    "feasibility.tableau_cells",
    "motion.steps",
    "motion.audit_pair_steps",
    "motion.export_files",
    "motion.export_bytes",
)
LP = "feasibility.solve_linear_feasibility"


def _public_functions(module):
    for name, value in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, np.integer)) and not isinstance(x, bool)


def _lp_is_exact(lp: dict) -> bool:
    """Mode rule of solve_linear_feasibility: exact when asked, or when every
    coefficient, right-hand side and bound is an int or Fraction."""
    if lp["exact"] is not None:
        return bool(lp["exact"])
    rows = list(lp["equalities"]) + list(lp["inequalities"] or [])
    rhs = list(lp["rhs"]) + list(lp["ineq_rhs"] or [])
    return (
        all(_is_exact(x) for row in rows for x in row)
        and all(_is_exact(x) for x in rhs)
        and all(x is None or _is_exact(x) for x in lp["lower_bounds"])
    )


def _lp_cells(lp: dict) -> int:
    """Dense Phase-I tableau size implied by the input shapes: a row per
    constraint; a column per bounded variable, two per free one, a slack per
    inequality, an artificial per row, and the right-hand side."""
    n_eq, n_in = len(lp["equalities"]), len(lp["inequalities"] or [])
    width = sum(2 if lb is None else 1 for lb in lp["lower_bounds"]) + n_in
    rows = n_eq + n_in
    return rows * (width + rows + 1)


def _framework_key(fw) -> tuple:
    pl = fw.placement
    return (
        fw.graph.edge_orbits,
        tuple(np.asarray(pl.positions[o]).tobytes() for o in fw.graph.vertex_orbits),
        np.asarray(pl.lattice).tobytes(),
    )


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in TRACED_MODULES
        }
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.via: dict[str, int] = {}  # calls per call-site name
        self.cones_seen: set = set()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget the previous pass.  The containers are cleared in place
        because the installed wrappers hold them."""
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()
        self.via.clear()
        self.cones_seen.clear()

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, qualname: str, site: str):
        spans, stack, via = self.spans, self._stack, self.via
        after = getattr(self, "_after_" + qualname.replace(".", "_"), None)
        signature = inspect.signature(fn)

        def bind(args, kwargs) -> dict:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = qualname
            if qualname == LP:
                name += ".exact" if _lp_is_exact(bind(args, kwargs)) else ".float"
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            via[site] = via.get(site, 0) + 1
            if after is not None:
                after(bind(args, kwargs), result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def add_probe(self, start: float, end: float) -> None:
        """Record a host-speed probe that ran inside the current span, so
        that its time counts against no layer."""
        self.spans.append((PROBE, start, end, self._stack[-1] if self._stack else -1))

    # -- counters taken from arguments and results, outside the span --------

    def _after_expansive_extremal_rays(self, args, result):
        self._count("expansive.rays", len(result))

    def _after_expansive_expansive_cone(self, args, result):
        self.cones_seen.add((_framework_key(args["fw"]), args["radius"]))
        self._count("expansive.halfspaces", result.halfspace_matrix.shape[0])

    def _after_expansive_enumerate_pairs(self, args, result):
        self._count("expansive.pairs", len(result))

    def _after_feasibility_solve_linear_feasibility(self, args, result):
        self._count("feasibility.calls")
        self._count("feasibility.infeasible", result is None)
        self._count("feasibility.tableau_cells", _lp_cells(args))

    def _after_motion_continue_motion(self, args, result):
        self._count("motion.steps", result.n_steps)

    def _after_motion_audit_expansiveness(self, args, result):
        self._count("motion.audit_pair_steps", len(result.pair_results) * args["path"].n_steps)

    def _after_motion_export_frames(self, args, result):
        self._count("motion.export_files", len(result))
        self._count("motion.export_bytes", sum(os.path.getsize(p) for p in result))

    # -- patching ----------------------------------------------------------

    def _holders(self):
        """The package and every loaded submodule: each place a traced
        function can be reached through."""
        prefix = self.package.__name__ + "."
        yield self.package.__name__, self.package
        for name, module in sorted(sys.modules.items()):
            if name.startswith(prefix) and module is not None:
                yield name[len(prefix):], module

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        for short, module in self.modules.items():
            for name, fn in _public_functions(module):
                targets[id(fn)] = (fn, f"{short}.{name}")
        for site_name, holder in self._holders():
            for attr, value in list(vars(holder).items()):
                hit = targets.get(id(value))
                if hit is None or value is not hit[0]:
                    continue
                fn, qualname = hit
                self._patches.append((holder, attr, fn))
                setattr(holder, attr, self._wrap(fn, qualname, f"{site_name}.{attr}"))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches = []
        if not self.is_clean():
            raise RuntimeError("a traced function was not restored")

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def is_clean(self) -> bool:
        """True when no module attribute is a wrapper."""
        return not any(
            hasattr(value, "__wrapped_original__")
            for _, holder in self._holders()
            for value in vars(holder).values()
        )

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        ``wall_s`` is the pass's time inside its jobs, host-speed probes
        excluded.  Self time is a span's duration minus its direct children's
        (calls are sequential, so children never overlap; probes count as
        children).  ``unattributed_s`` is the rest of ``wall_s``, so the
        module self times plus ``unattributed_s`` add up to ``wall_s``.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        probe_time = [0.0] * n  # probe seconds inside each span
        for index in range(n - 1, -1, -1):  # children come after parents
            name, start, end, parent = self.spans[index]
            if parent >= 0:
                child_time[parent] += end - start
                probe_time[parent] += probe_time[index] + (end - start if name == PROBE else 0.0)
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        net_s: dict[str, float] = {}  # inclusive time without probes
        for index, (name, start, end, parent) in enumerate(self.spans):
            if name == PROBE:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[index]
            net_s[name] = net_s.get(name, 0.0) + (end - start) - probe_time[index]
            calls[name] = calls.get(name, 0) + 1

        out: dict[str, float] = {"traced_wall_s": wall_s}
        for short in TRACED_MODULES:
            out[f"{short}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == short)
        out["unattributed_s"] = wall_s - sum(out[f"{short}.self_s"] for short in TRACED_MODULES)
        for name in REPORTED_SELF:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in REPORTED_CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)

        cone_calls = calls.get("expansive.expansive_cone", 0)
        out["expansive.cone_reuse_ratio"] = len(self.cones_seen) / cone_calls if cone_calls else 0.0
        lp_calls = self.counters.get("feasibility.calls", 0)
        infeasible = self.counters.get("feasibility.infeasible", 0)
        out["feasibility.infeasible_ratio"] = infeasible / lp_calls if lp_calls else 0.0
        steps = self.counters.get("motion.steps", 0)
        out["motion.step_ms"] = 1e3 * net_s.get("motion.continue_motion", 0.0) / steps if steps else 0.0
        # continue_motion builds the rigidity rows once for its seed check and
        # once per Newton iteration, both through the name motion.rigidity_rows.
        jacobians = self.via.get("motion.rigidity_rows", 0) - calls.get("motion.continue_motion", 0)
        out["motion.newton_iters_per_step"] = jacobians / steps if steps else 0.0
        return out
