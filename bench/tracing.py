"""Spans around calls into cellhom's layers, recorded from outside the package.

``Tracer.patch`` replaces an entry point at the attribute its callers look
up (a module global, a class method or a model instance's method) with a
wrapper that records one span per call: name, start, end, parent span,
thread and a few attributes of the call.  Spans stay in memory until the
run ends.  ``layer_metrics`` derives the per-layer metrics from them; a
layer's self time is its spans' durations minus those of their children.
An entry point that no longer exists is reported as missing, and every
metric that needs it is left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``attrs(args, result)`` adds attributes of a call that returned.
        """
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            extra = {}
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, out)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, t0, t1, parent,
                                       threading.get_ident(), extra))

        return wrapper

    def patch(self, owner, attr, name, attrs=None):
        """Wrap ``owner.attr`` in place until ``restore``."""
        if not hasattr(owner, attr):
            self.missing.add(name)
            return
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def restore(self):
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, fh, origin: float, **tags):
        """One JSON line per span, times in seconds from ``origin``."""
        for s in self.spans:
            fh.write(json.dumps({
                **tags, "id": s.id, "name": s.name,
                "start": s.start - origin, "end": s.end - origin,
                "parent": s.parent, "thread": s.thread, **s.attrs,
            }) + "\n")


def _start_attrs(args, result):
    return {"N": args[0].grid.N, "label": result.start_label,
            "iterations": result.iterations, "converged": result.converged,
            "energy": result.energy, "result": id(result)}


def _cells(args, result):
    return {"cells": int(args[0].shape[0])}


def instrument(tracer: Tracer, solver, homogenize, model):
    """Patch every traced entry point; undo with ``tracer.restore()``."""
    tracer.patch(solver.Problem, "value_and_grad", "solver.value_and_grad")
    tracer.patch(solver.Problem, "energy_only", "solver.energy_only")
    tracer.patch(model, "_energy_gradient", "models.kernel", _cells)
    tracer.patch(model, "_energy", "models.kernel_energy", _cells)
    tracer.patch(solver, "minimize", "solver.minimize", _start_attrs)
    tracer.patch(homogenize, "multi_start_minimize", "multistart", _start_attrs)
    tracer.patch(homogenize, "build_grid", "lattice.build_grid")
    tracer.patch(homogenize, "w_cont_estimate", "homogenize.w_cont_estimate")


def _self_times(spans):
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.dur
    return {s.id: s.dur - child.get(s.id, 0.0) for s in spans}


def layer_metrics(tracer: Tracer, run: Span, bonds_per_cell: int) -> dict:
    """Per-layer metrics of one traced ``cli.run`` whose span is ``run``.

    Values are plain numbers.  A metric whose entry points are missing, or
    that is undefined in this run (a ratio over zero), is absent.
    """
    spans = tracer.spans
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    ids = {s.id: s for s in spans}
    self_t = _self_times(spans)
    kernel_names = ("models.kernel", "models.kernel_energy")
    kernels = [s for name in kernel_names for s in by.get(name, [])
               if s.parent is None or ids[s.parent].name not in kernel_names]
    vag = by.get("solver.value_and_grad", [])
    eo = by.get("solver.energy_only", [])
    # a start that raised has no attributes; multistart skips it too
    starts = [s for s in by.get("solver.minimize", []) if s.attrs]
    multi = [s for s in by.get("multistart", []) if s.attrs]
    schedule = by.get("homogenize.w_cont_estimate", [])
    n_max = max((s.attrs["N"] for s in multi), default=None)
    iters = sum(s.attrs["iterations"] for s in starts)
    top_starts = [s for s in starts if s.attrs["N"] == n_max]
    top_multi = [s for s in multi if s.attrs["N"] == n_max]
    schedule_s = sum(s.dur for s in schedule)
    cells = sum(s.attrs["cells"] for s in kernels)
    winners = {s.id: s.attrs["result"] for s in multi}

    def won(start):
        return winners.get(start.parent) == start.attrs["result"]

    def discarded_lower(m):
        if not m.attrs["converged"]:
            return False
        return any(not s.attrs["converged"] and s.attrs["energy"] < m.attrs["energy"]
                   for s in starts if s.parent == m.id)

    table = [
        ("models.kernel_s", ["models.kernel"],
         lambda: sum(s.dur for s in kernels)),
        ("models.cells", ["models.kernel"], lambda: cells),
        ("models.ns_per_cell", ["models.kernel"],
         lambda: 1e9 * sum(s.dur for s in kernels) / cells),
        ("models.bond_evals", ["models.kernel"], lambda: cells * bonds_per_cell),
        ("solver.vag_calls", ["solver.value_and_grad"], lambda: len(vag)),
        ("solver.vag_self_s", ["solver.value_and_grad", "models.kernel"],
         lambda: sum(self_t[s.id] for s in vag)),
        ("solver.energy_only_calls", ["solver.energy_only"], lambda: len(eo)),
        ("solver.energy_only_self_s", ["solver.energy_only", "models.kernel_energy"],
         lambda: sum(self_t[s.id] for s in eo)),
        ("solver.stalled_starts", ["solver.minimize"],
         lambda: sum(not s.attrs["converged"] for s in starts)),
        ("solver.iterations", ["solver.minimize"], lambda: iters),
        ("solver.evals_per_iter",
         ["solver.minimize", "solver.value_and_grad", "solver.energy_only"],
         lambda: (len(vag) + len(eo)) / iters),
        ("solver.s_per_iter", ["solver.minimize", "multistart"],
         lambda: sum(s.dur for s in top_starts)
         / sum(s.attrs["iterations"] for s in top_starts)),
        ("solver.minimize_self_s",
         ["solver.minimize", "solver.value_and_grad", "solver.energy_only"],
         lambda: sum(self_t[s.id] for s in starts)),
        ("multistart.winner_iterations", ["multistart"],
         lambda: max(s.attrs["iterations"] for s in top_multi)),
        ("multistart.starts", ["solver.minimize"], lambda: len(starts)),
        ("multistart.useful_frac", ["multistart", "solver.minimize"],
         lambda: sum(s.dur for s in starts if won(s)) / sum(s.dur for s in starts)),
        ("multistart.largest_N_s", ["multistart"],
         lambda: sum(s.dur for s in top_multi)),
        ("multistart.lower_discarded", ["multistart", "solver.minimize"],
         lambda: sum(discarded_lower(m) for m in multi)),
        ("homogenize.schedule_s", ["homogenize.w_cont_estimate"], lambda: schedule_s),
        ("homogenize.largest_N_share", ["homogenize.w_cont_estimate", "multistart"],
         lambda: sum(s.dur for s in top_multi) / schedule_s),
        ("lattice.build_grid_s", ["lattice.build_grid"],
         lambda: sum(s.dur for s in by.get("lattice.build_grid", []))),
        ("cli.overlap", ["homogenize.w_cont_estimate"], lambda: schedule_s / run.dur),
        ("cli.write_s", ["homogenize.w_cont_estimate"],
         lambda: run.end - max(s.end for s in schedule)),
    ]
    out = {}
    for name, needs, value in table:
        if tracer.missing.intersection(needs):
            continue
        try:
            out[name] = float(value())
        except (ZeroDivisionError, ValueError):   # undefined in this run
            pass
    return out
