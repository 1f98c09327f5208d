"""Span recorder for the traced benchmark run, and its self-time reducer.

:meth:`Tracer.install` wraps the public functions of each ``ciprop``
layer and rebinds the wrapper at every ``ciprop.*`` module attribute bound
to the original, because ``from .grids import marginalize`` copies the
binding into the importing module.  The package source is not touched;
:meth:`Tracer.uninstall` restores every binding.

Each call records one span ``[name, start, end, parent, iteration, cost,
counters]`` in memory.  ``counters`` are computed from the call's arguments
and return value after ``end``; ``cost`` is the time that took, which is
charged to the benchmark, not to the layer.  A span's self time is its
duration minus its children's durations and costs, and a layer's time is
the self time of its spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("grids", "jsonio", "topology", "intersection", "sem", "cli")
# called once per float while rendering; its time stays in render_json
UNWRAPPED = frozenset({"jsonio.fmt17"})

NAME, START, END, PARENT, ITERATION, COST, COUNTERS = range(7)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _cells(args, kwargs, result, parent):
    return {"cells": _arg(args, kwargs, 0, "grid").prob.size}


def _label_2d(args, kwargs, result, parent):
    return {"cells": result.labels.size, "components": result.count}


def _label_cells(args, kwargs, result, parent):
    if parent == "topology.path_components":
        return None  # counted once, at path_components
    return {"cells": np.size(_arg(args, kwargs, 0, "cells")), "components": result[1]}


def _label_nd(args, kwargs, result, parent):
    return {"cells": np.size(_arg(args, kwargs, 0, "support")), "components": result[1]}


def _propagate(args, kwargs, result, parent):
    sem = _arg(args, kwargs, 0, "sem")
    return {
        "configs": math.prod(len(n.points) for n in sem.noises.values()),
        "cells": result.prob.size,
        "bytes": result.prob.nbytes,
        "support": int(np.count_nonzero(result.prob)),
    }


COUNTER_OF = {
    "grids.marginalize": _cells,
    "grids.ci_deviation": _cells,
    "grids.pointwise_deviation": _cells,
    "grids.grid_to_json": lambda a, k, r, p: {"bytes": len(r)},
    "grids.grid_from_json": lambda a, k, r, p: {"bytes": len(_arg(a, k, 0, "text"))},
    "topology.path_components": _label_2d,
    "topology.label_cells": _label_cells,
    "topology.label_support_nd": _label_nd,
    "intersection.intersection_condition": lambda a, k, r, p: {
        "c_cells": len(r.per_c_class_counts)
    },
    "sem.propagate": _propagate,
    "sem.non_constancy_check": lambda a, k, r, p: {
        "cond_sets": len(r.witnesses) + (r.failing_set is not None)
    },
}


class Tracer:
    """Records spans for the layer calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.iteration, 0.0, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        record = self.spans[self._open(name)]
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        counter = COUNTER_OF.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            record = spans[index]
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if counter is not None:
                parent = record[PARENT]
                record[COUNTERS] = counter(
                    args, kwargs, result, None if parent is None else spans[parent][NAME]
                )
                record[COST] = perf_counter() - record[END]
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ciprop.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(obj, name)
        for modname, module in list(sys.modules.items()):
            if modname != "ciprop" and not modname.startswith("ciprop."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# -- reduction ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus its children's durations and costs."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= (s[END] - s[START]) + s[COST]
    return own


def layer_metrics(spans: list[list], iterations: int, budget: int | None) -> dict:
    """Per-layer metrics per traced iteration, from the spans of those iterations.

    Span names are ``<layer>.<function>``; the benchmark's op spans use the
    layer ``bench``.  Counters are the computed ones recorded on the spans.
    """
    own = self_times(spans)
    secs: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    counts: defaultdict[str, float] = defaultdict(float)
    cost = 0.0
    budget_frac = 0.0
    for s, self_s in zip(spans, own):
        name = s[NAME]
        secs[name] += self_s
        calls[name] += 1
        cost += s[COST]
        for key, value in (s[COUNTERS] or {}).items():
            counts[f"{name}:{key}"] += value
            if name == "sem.propagate" and key == "configs" and budget:
                budget_frac = max(budget_frac, value / budget)
    layer_s: defaultdict[str, float] = defaultdict(float)
    for name, value in secs.items():
        layer_s[name.split(".", 1)[0]] += value

    def s(*names):
        return sum(secs[n] for n in names) / iterations

    def n(*names):
        return sum(calls[k] for k in names) / iterations

    def c(*keys):
        return sum(counts[k] for k in keys) / iterations

    c_cells = c("intersection.intersection_condition:c_cells")
    classes = n("topology.coordinatewise_classes")
    grid_cells = c("sem.propagate:cells")
    return {
        "grids.self_s": layer_s["grids"] / iterations,
        "grids.marginalize_s": s("grids.marginalize"),
        "grids.marginalize_calls": n("grids.marginalize"),
        "grids.marginalize_cells": c("grids.marginalize:cells"),
        "grids.ci_s": s("grids.is_ci", "grids.ci_deviation", "grids.pointwise_deviation"),
        "grids.ci_calls": n("grids.is_ci", "grids.ci_deviation", "grids.pointwise_deviation"),
        "grids.ci_cells": c("grids.ci_deviation:cells", "grids.pointwise_deviation:cells"),
        "grids.json_write_s": s("grids.grid_to_json", "grids.save_grid"),
        "grids.json_read_s": s("grids.grid_from_json", "grids.load_grid"),
        "grids.json_bytes": c("grids.grid_to_json:bytes", "grids.grid_from_json:bytes"),
        "jsonio.render_s": s("jsonio.render_json"),
        "jsonio.render_calls": n("jsonio.render_json"),
        "topology.self_s": layer_s["topology"] / iterations,
        "topology.support_mask_s": s("topology.support_mask"),
        "topology.support_mask_calls": n("topology.support_mask"),
        "topology.label_s": s(
            "topology.path_components", "topology.label_cells", "topology.label_support_nd"
        ),
        "topology.label_cells_scanned": c(
            "topology.path_components:cells", "topology.label_cells:cells",
            "topology.label_support_nd:cells",
        ),
        "topology.components": c(
            "topology.path_components:components", "topology.label_cells:components",
            "topology.label_support_nd:components",
        ),
        "topology.classes_s": s("topology.coordinatewise_classes"),
        "topology.classes_calls": classes,
        "intersection.self_s": layer_s["intersection"] / iterations,
        "intersection.condition_s": s(
            "intersection.intersection_condition", "intersection.classes_per_c"
        ),
        "intersection.adversary_s": s(
            "intersection.construct_adversary", "intersection.attach_class_variable"
        ),
        "intersection.weak_s": s("intersection.verify_weak_intersection"),
        "intersection.verify_s": s("intersection.verify_intersection"),
        "intersection.c_cells": c_cells,
        "intersection.classes_per_c_cell": classes / c_cells if c_cells else 0.0,
        "sem.self_s": layer_s["sem"] / iterations,
        "sem.propagate_s": s("sem.propagate"),
        "sem.noise_configs": c("sem.propagate:configs"),
        "sem.noise_budget_frac": budget_frac,
        "sem.grid_cells": grid_cells,
        "sem.grid_mb": c("sem.propagate:bytes") / 1e6,
        "sem.support_cells": c("sem.propagate:support"),
        "sem.support_frac": c("sem.propagate:support") / grid_cells if grid_cells else 0.0,
        "sem.components_s": s("sem.joint_support_components"),
        "sem.nonconst_s": s("sem.non_constancy_check"),
        "sem.cond_sets_tried": c("sem.non_constancy_check:cond_sets"),
        "cli.self_s": layer_s["cli"] / iterations,
        "cli.commands": n("cli.run"),
        "trace.spans": len(spans) / iterations,
        "_bench_op_s": layer_s["bench"] / iterations,
        "_cost_s": cost / iterations,
        "_layers_s": sum(layer_s[layer] for layer in LAYERS) / iterations,
    }
