"""Outside-in tracing of elongate's layers.

Each public name is wrapped where its caller looks it up (``study`` calls
``elongate.study.minimize``, not ``elongate.solver.minimize``), so a span
records exactly the calls one layer makes into another.  No file of the
package changes.  Names that ROADMAP plans to delete (``embed_field``,
``embed_offsets``, the private CG helpers) are not wrapped; their time
stays in the caller's self time.  A name that no longer exists is
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time


def _iterations(args, out):
    return out[1].iterations


def _grid_size(args, out):
    cells = 1
    for m in out.shape:
        cells *= m - 1
    return {"nodes": out.node_count, "cells": cells, "n": out.n}


def _text_bytes(args, out):
    return len(args[1].encode("utf-8"))


#: (module, attribute, span name, extra recorded from the arguments and result)
FUNCTIONS = [
    ("elongate.study", "run_sweep", "study.run_sweep", None),
    ("elongate.cli", "run_sweep", "study.run_sweep", None),
    ("elongate.study", "build_vertical_grid", "geometry.build_vertical_grid", _grid_size),
    ("elongate.study", "build_grid", "geometry.build_grid", _grid_size),
    ("elongate.study", "minimize", "solver.minimize", _iterations),
    ("elongate.study", "solve_limit", "solver.solve_limit", _iterations),
    ("elongate.study", "cell_gradients", "study.measure", None),
    ("elongate.study", "cell_means", "study.measure", None),
    ("elongate.study", "lp_norm_p", "study.measure", None),
    ("elongate.study", "region_cells", "study.measure", None),
    ("elongate.study", "extend_vertical", "study.measure", None),
    ("elongate.cli", "resolve_config", "cli.resolve_config", None),
    ("elongate.cli", "fit_rate", "cli.post", None),
    ("elongate.cli", "convergence_verdicts", "cli.post", None),
    ("elongate.cli", "records_to_csv", "cli.post", None),
    ("elongate.cli", "atomic_write_text", "ioutil.atomic_write_text", _text_bytes),
]

#: Built-in density classes whose evaluation methods are wrapped.
DENSITY_CLASSES = ("PDirichletDensity", "SeparablePowerDensity", "QuadraticDensity")
DENSITY_METHODS = ("value", "grad", "value_increment")


class Tracer:
    """Collects spans ``(id, parent, name, start, end, thread, extra)`` in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, fn, name, extra):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out = info = None
            done = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if extra is not None and done:
                    info = extra(args, out)
                spans.append((sid, parent, name, t0, t1, threading.get_ident(), info))

        return traced

    def install(self) -> None:
        for modname, attr, name, extra in FUNCTIONS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, extra))
        density = importlib.import_module("elongate.density")
        for clsname in DENSITY_CLASSES:
            cls = getattr(density, clsname, None)
            for meth in DENSITY_METHODS:
                fn = getattr(cls, meth, None)
                if fn is None:
                    self.absent.append(f"elongate.density.{clsname}.{meth}")
                    continue
                setattr(cls, meth, self._wrap(fn, f"density.{meth}", None))


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive and self seconds, and summed extras.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on the same thread.  ``thread_self_s``
    sums self time per thread: no thread can be busy longer than the run.
    """
    child_s: dict[int, float] = {}
    for _sid, parent, _name, t0, t1, _thread, _info in tracer.spans:
        if parent:
            child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
    names: dict[str, dict] = {}
    thread_self: dict[int, float] = {}
    extras: dict[str, list] = {}
    for sid, _parent, name, t0, t1, thread, info in tracer.spans:
        self_s = (t1 - t0) - child_s.get(sid, 0.0)
        agg = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += self_s
        thread_self[thread] = thread_self.get(thread, 0.0) + self_s
        if info is not None:
            extras.setdefault(name, []).append(info)
    return {
        "names": names,
        "extras": extras,
        "thread_self_s": sorted(thread_self.values(), reverse=True),
        "absent": list(tracer.absent),
    }


def layer_metrics(summary: dict) -> dict:
    """Per-layer counts and times of one traced run (see BENCHMARK.json)."""
    names, extras = summary["names"], summary["extras"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    minimize_iters = sum(extras.get("solver.minimize", []))
    iters = minimize_iters + sum(extras.get("solver.solve_limit", []))
    trials = get("density.value_increment", "calls")
    grids = extras.get("geometry.build_grid", []) + extras.get("geometry.build_vertical_grid", [])
    largest = max(grids, key=lambda g: g["nodes"], default={"nodes": 0, "cells": 0, "n": 0})
    minimize_s = get("solver.minimize", "total_s")
    return {
        "solver.iters": iters,
        "solver.ms_per_iter": 1e3 * minimize_s / minimize_iters if minimize_iters else 0.0,
        "solver.minimize_s": minimize_s,
        "solver.self_s": get("solver.minimize", "self_s"),
        "solver.trials": trials,
        "solver.trials_per_iter": trials / iters if iters else 0.0,
        "solver.limit_s": get("solver.solve_limit", "total_s"),
        "density.value_increment_s": get("density.value_increment", "self_s"),
        "density.grad_s": get("density.grad", "self_s"),
        "density.grad_calls": get("density.grad", "calls"),
        "density.value_s": get("density.value", "self_s"),
        # Computed, not measured: the minimum traffic of one gradient assembly
        # on the largest grid (nodal values in and out, centroid gradients and
        # fluxes in float64); temporaries and cache misses are ignored.
        "field.bytes_per_assembly": 8 * (2 * largest["nodes"] + 2 * largest["n"] * largest["cells"]),
        "study.measure_s": get("study.measure", "total_s"),
        "geometry.build_s": get("geometry.build_grid", "total_s")
        + get("geometry.build_vertical_grid", "total_s"),
        "geometry.nodes": sum(g["nodes"] for g in grids),
        "cli.post_s": get("cli.post", "total_s"),
        "ioutil.write_s": get("ioutil.atomic_write_text", "total_s"),
        "ioutil.bytes": sum(extras.get("ioutil.atomic_write_text", [])),
        "ioutil.files": get("ioutil.atomic_write_text", "calls"),
    }


#: Per-layer values that must repeat exactly between two traced runs.
EXACT_COUNTS = ("solver.iters", "solver.trials", "density.grad_calls", "ioutil.files", "geometry.nodes")
