"""Span tracer for the traced benchmark run, patched onto cellhom from outside.

``traced(tracer)`` wraps every public function of the traced modules and a
few named ``Stencil`` members for the duration of a ``with`` block, then puts
the originals back. Modules import each other's functions by name
(``from .fem import div_adjoint``), so a wrapper is installed on *every*
``cellhom.*`` module attribute that holds the original object, not only on
the defining module. Modules are resolved through ``sys.modules``: the
package attribute ``cellhom.homogenize`` is the function, not the module.

A span records its name, start, end, parent span and pass ("run") id. Each
thread keeps its own stack, so a span's self time is its duration minus the
duration of its children on the same thread. Spans stay in memory and are
written out once, when the run ends.

Targets that no longer exist (a refactor removed ``Stencil.k_phi``, say) are
skipped; the metrics that need them are reported as absent.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
import weakref

TRACED_MODULES = ("cell", "config", "fem", "solvers", "homogenize", "checks", "energies", "cli")
#: ``Stencil`` members traced besides module functions; ``__init__`` is named ``init``
TRACED_MEMBERS = {("solvers", "Stencil"): ("__init__", "strain_periodic", "stress", "k_phi",
                                          "k_ext", "ref_solve", "ref_pinv")}
#: solver entry points whose reports carry the iteration counts
ROUTES = ("solvers.solve_strain_driven", "solvers.solve_stress_driven",
          "solvers.solve_stress_uzawa")
#: the operator and preconditioner kernels whose self time ``trace.kernel_frac`` sums
KERNELS = ("fem.gather_corners", "solvers.Stencil.strain_periodic", "solvers.Stencil.stress",
           "fem.div_adjoint", "solvers.Stencil.ref_solve")


class Tracer:
    """In-memory span recorder; thread-safe for appends from worker threads."""

    def __init__(self):
        self.spans: list = []  # (id, parent, run, thread, name, start, end, self_s, outermost, extra)
        self.run_id = 0
        self.installed: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()

    def enter(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        outermost = all(f[1] != name for f in stack)
        frame = [next(self._ids), name, time.perf_counter(), 0.0, outermost,
                 stack[-1][0] if stack else None]
        stack.append(frame)
        return frame

    def exit(self, frame: list, extra=None):
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        sid, name, start, child, outermost, parent = frame
        dur = end - start
        if stack:
            stack[-1][3] += dur
        self.spans.append((sid, parent, self.run_id, threading.get_ident(), name,
                           start - self._t0, end - self._t0, dur - child, outermost, extra))

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "run", "thread", "name", "start_s", "end_s", "self_s"])
            for s in self.spans:
                out.writerow([s[0], s[1] or "", s[2], s[3], s[4],
                              f"{s[5]:.9f}", f"{s[6]:.9f}", f"{s[7]:.9f}"])


# ---------------------------------------------------------------------------
# wrappers


def _route_extra(args, result, exc):
    """Iterations and unknowns of one solve, from its report or its failure."""
    report = getattr(exc, "report", None) if exc is not None else (
        result[-1] if isinstance(result, tuple) and result else None)
    iterations = getattr(report, "iterations", None)
    if iterations is None:
        return None
    dofs = 3 * int(getattr(args[0], "n_voxels", 0)) if args else 0
    return {"iterations": int(iterations), "dof_iters": dofs * int(iterations)}


def _wrap_function(tracer: Tracer, name: str, fn, extra=None):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        frame = tracer.enter(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            tracer.exit(frame, extra(args, result, exc) if extra else None)
    return traced_call


def _wrap_property(tracer: Tracer, name: str, prop: property) -> property:
    """Trace every read; mark a read as a build when it returns a new object."""
    last = weakref.WeakKeyDictionary()
    lock = threading.Lock()

    def fget(obj):
        frame = tracer.enter(name)
        value = None
        try:
            value = prop.fget(obj)
            return value
        finally:
            with lock:
                built = value is not None and last.get(obj) is not value
                last[obj] = value
            tracer.exit(frame, {"build": built})
    return property(fget, prop.fset, prop.fdel, prop.__doc__)


def _cellhom_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cellhom" or n.startswith("cellhom."))]


def install(tracer: Tracer, restore: list):
    """Patch the traced targets, appending ``(owner, attr, original)`` to ``restore``."""
    modules = {}
    for short in TRACED_MODULES:
        importlib.import_module(f"cellhom.{short}")
        modules[short] = sys.modules[f"cellhom.{short}"]
    everywhere = _cellhom_modules()

    for short, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = _wrap_function(tracer, name, fn, _route_extra if name in ROUTES else None)
            for holder in everywhere:
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        restore.append((holder, key, fn))
                        setattr(holder, key, wrapper)
            tracer.installed.add(name)

    for (short, cls_name), members in TRACED_MEMBERS.items():
        cls = getattr(modules[short], cls_name, None)
        for attr in members:
            member = vars(cls).get(attr) if inspect.isclass(cls) else None
            name = f"{short}.{cls_name}.{'init' if attr == '__init__' else attr}"
            if isinstance(member, property):
                new = _wrap_property(tracer, name, member)
            elif inspect.isfunction(member):
                new = _wrap_function(tracer, name, member)
            else:
                continue
            restore.append((cls, attr, member))
            setattr(cls, attr, new)
            tracer.installed.add(name)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    restore: list = []
    try:
        install(tracer, restore)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


#: span metrics of the traced run, by span name; see README.md for which
#: end-to-end metric and workload each one is expected to move
SPAN_METRICS = (
    ("fem.gather_corners", ("calls", "self_s")),
    ("fem.div_adjoint", ("calls", "self_s")),
    ("fem.sym_gradient", ("calls", "self_s")),
    ("fem.strain_tables", ("calls", "self_s")),
    ("solvers.Stencil.strain_periodic", ("calls", "self_s")),
    ("solvers.Stencil.stress", ("calls", "self_s")),
    ("solvers.Stencil.k_phi", ("calls",)),
    ("solvers.Stencil.k_ext", ("calls",)),
    ("solvers.Stencil.ref_solve", ("calls", "self_s")),
    ("solvers.Stencil.ref_pinv", ("builds", "build_s")),
    ("solvers.Stencil.init", ("calls", "self_s")),
    ("solvers.solve_strain_driven", ("calls", "total_s")),
    ("solvers.solve_stress_driven", ("calls", "total_s")),
    ("solvers.solve_stress_uzawa", ("calls", "total_s")),
    ("homogenize.homogenize", ("total_s", "self_s")),
    ("homogenize.dual_consistency", ("total_s",)),
    ("checks.equivalence_matrix", ("total_s", "self_s")),
    ("checks.random_equilibrated_stress", ("total_s",)),
    ("checks.hill_mandel_residual", ("total_s",)),
    ("checks.voigt_reuss_margins", ("total_s",)),
    ("fem.compatibility_residual", ("calls", "total_s")),
    ("fem.is_equilibrated", ("calls", "total_s")),
    ("cell.parse_voxel_text", ("calls", "total_s")),
    ("cell.cell_average", ("calls", "self_s")),
    ("config.load_config", ("total_s",)),
    ("cli.run", ("self_s",)),
)

#: metrics derived from several spans or from the run, with unit and direction
DERIVED_METRICS = (
    ("solvers.op_apply_ms", "ms", "lower"),
    ("solvers.precond_apply_ms", "ms", "lower"),
    ("solvers.stencils_per_cell", "ratio", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.dof_iters_per_s", "1/s", "higher"),
    ("energies.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.kernel_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_FIELD_UNITS = {"calls": "count", "builds": "count", "self_s": "s", "total_s": "s", "build_s": "s"}


def per_layer_spec() -> list:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    spec = [(f"{span}.{fld}", _FIELD_UNITS[fld], "lower")
            for span, fields in SPAN_METRICS for fld in fields]
    return spec + list(DERIVED_METRICS)


def _empty():
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "builds": 0, "build_s": 0.0,
            "iterations": 0, "dof_iters": 0}


def span_stats(spans, run_id: int) -> dict:
    """Per-name counts and times of one pass."""
    stats: dict = {}
    for _, _, run, _, name, start, end, self_s, outermost, extra in spans:
        if run != run_id:
            continue
        s = stats.setdefault(name, _empty())
        s["calls"] += 1
        s["self_s"] += self_s
        if outermost:
            s["total_s"] += end - start
        if extra:
            if extra.get("build"):
                s["builds"] += 1
                s["build_s"] += end - start
            s["iterations"] += extra.get("iterations", 0)
            s["dof_iters"] += extra.get("dof_iters", 0)
    return stats


def pass_metrics(tracer: Tracer, run_id: int, wall_s: float, cells: int,
                 artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced pass; absent metrics are left out."""
    stats = span_stats(tracer.spans, run_id)
    have = tracer.installed

    def get(name):
        return stats.get(name, _empty())

    out = {}
    for span, fields in SPAN_METRICS:
        if span in have:
            for fld in fields:
                out[f"{span}.{fld}"] = get(span)[fld]

    ops = [get(n) for n in ("solvers.Stencil.k_phi", "solvers.Stencil.k_ext") if n in have]
    calls = sum(s["calls"] for s in ops)
    if calls:
        out["solvers.op_apply_ms"] = 1e3 * sum(s["total_s"] for s in ops) / calls
    pre = get("solvers.Stencil.ref_solve")
    if pre["calls"]:
        out["solvers.precond_apply_ms"] = \
            1e3 * (pre["total_s"] - get("solvers.Stencil.ref_pinv")["build_s"]) / pre["calls"]
    if "solvers.Stencil.init" in have:
        out["solvers.stencils_per_cell"] = get("solvers.Stencil.init")["calls"] / cells
    routes = [get(n) for n in ROUTES if n in have]
    if routes:
        out["solvers.iterations"] = sum(s["iterations"] for s in routes)
        busy = sum(s["total_s"] for s in routes)
        if busy > 0.0:
            out["solvers.dof_iters_per_s"] = sum(s["dof_iters"] for s in routes) / busy
    out["energies.self_s"] = sum(s["self_s"] for n, s in stats.items()
                                 if n.startswith("energies."))
    out["cli.artifact_bytes"] = artifact_bytes
    kernels = [n for n in KERNELS if n in have]
    if kernels:
        out["trace.kernel_frac"] = sum(get(n)["self_s"] for n in kernels) / wall_s
    return out


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes that report it."""
    names = dict.fromkeys(k for m in per_pass for k in m)
    return {k: statistics.median(m[k] for m in per_pass if k in m) for k in names}
