"""Span tracing from outside the program, and the per-layer metrics built on it.

``install`` replaces every public function of the cubestats modules, and
every public method of the classes they define, with a wrapper that
records one span per call: name, start, end, parent span and op id.  The
wrapper is bound in every module namespace that binds the original, so
calls made inside cubestats (``cli.main`` calling ``distribution_fast``,
say) are seen too.  Spans stay in memory; ``layer_metrics`` reduces them
after the pass.  A layer is a module of ``src/cubestats``.

Not wrapped: generator functions (a span would end before the work does)
and ``HOT_LEAVES``, helpers called 10^4 to 10^5 times per pass; their
time counts toward the caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

LAYERS = (
    "approx",
    "cli",
    "constructions",
    "cube",
    "exhaustive",
    "gf2",
    "hadamard",
    "johnson",
    "residues",
    "stats",
    "turan",
)
HOT_LEAVES = frozenset({"johnson.johnson_adjacent", "residues.q_binsum", "residues.thm32_q"})

# Span fields, stored as lists to keep recording cheap.
NAME, LAYER, START, END, PARENT, OP, RAISED, COUNTS = range(8)


class Tracer:
    """Records spans while ``active``; checks and set-up run with it off."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.counters: dict[str, Callable] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        counter = self.counters.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced


def _function_targets(module) -> list[tuple[str, Any]]:
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj) or inspect.isgeneratorfunction(obj):
            continue
        out.append((attr, obj))
    return out


def _method_targets(cls) -> list[tuple[str, Any]]:
    out = []
    for attr, raw in vars(cls).items():
        public = not attr.startswith("_") or (attr == "__init__" and not dataclasses.is_dataclass(cls))
        if not public or isinstance(raw, property):
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            out.append((attr, raw))
    return out


def install(tracer: Tracer) -> None:
    """Bind traced wrappers in place of the cubestats public functions."""
    import cubestats

    modules = {layer: importlib.import_module(f"cubestats.{layer}") for layer in LAYERS}
    namespaces = [cubestats, *modules.values()]
    _register_counters(tracer)
    for layer, module in modules.items():
        for attr, fn in _function_targets(module):
            name = f"{layer}.{attr}"
            if name in HOT_LEAVES:
                continue
            traced = tracer.wrap(name, fn)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is fn]:
                    setattr(ns, key, traced)
        for cls in [obj for obj in vars(module).values() if inspect.isclass(obj) and obj.__module__ == module.__name__]:
            for attr, raw in _method_targets(cls):
                name = f"{layer}.{cls.__name__}.{attr}"
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(cls, attr, type(raw)(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, tracer.wrap(name, raw))


# ---------------------------------------------------------------------------
# counts derived from the inputs of a call (labelled *_computed where they
# are a formula over the inputs rather than a size of the output)
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _register_counters(tracer: Tracer) -> None:
    from cubestats.constructions import ConstructionResult
    from cubestats.cube import VertexSet

    seen_graphs: weakref.WeakSet = weakref.WeakSet()
    swept: set[tuple[int, int]] = set()

    def distribution_fast(args, kwargs, result):
        n, d = _arg(args, kwargs, 0, "A").n, _arg(args, kwargs, 1, "d")
        masks = math.comb(n, d)
        return {
            "subcubes_counted": masks << (n - d),
            "free_masks": masks,
            "fold_elems_computed": masks * ((2 << n) - (2 << (n - d))),
        }

    def built(args, kwargs, result):
        vs = result.vertex_set if isinstance(result, ConstructionResult) else result
        return {"vertices_materialized": 1 << vs.n} if isinstance(vs, VertexSet) else None

    def converted(args, kwargs, result):
        return {"vertices_converted": len(result)}

    def exhaustive_lambda(args, kwargs, result):
        n, d = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "d")
        if (n, d) in swept:
            return None
        swept.add((n, d))
        return {"masks_computed": (1 << ((1 << n) - 1)) * (math.comb(n, d) << (n - d))}

    def adjacency(args, kwargs, result):
        graph = args[0]
        if graph in seen_graphs:
            return None
        seen_graphs.add(graph)
        v = len(graph.vertices)
        return {"pairs": v * (v - 1) // 2}

    def hadamard_matrix(args, kwargs, result):
        return None if result is None else {"entries_computed": result.order**2}

    def verify_thm32(args, kwargs, result):
        return {"subsets_scanned": (1 << result.k) * len(result.dims)}

    def cli_main(args, kwargs, result):
        argv = list(_arg(args, kwargs, 0, "argv") or [])
        counts = {"exit_code": result}
        if "--out" in argv and result == 0:
            counts["report_bytes"] = os.path.getsize(argv[argv.index("--out") + 1])
        return counts

    tracer.counters.update(
        {
            "stats.distribution_fast": distribution_fast,
            "cube.VertexSet.vertices": converted,
            "cube.VertexSet.from_vertices": converted,
            "exhaustive.exhaustive_lambda": exhaustive_lambda,
            "johnson.JohnsonGraph.adjacency_bitsets": adjacency,
            "hadamard.hadamard_matrix": hadamard_matrix,
            "residues.verify_thm32": verify_thm32,
            "cli.main": cli_main,
        }
    )
    import cubestats.constructions as constructions

    for attr, _ in _function_targets(constructions):
        tracer.counters.setdefault(f"constructions.{attr}", built)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

# (metric, span name, statistic); statistic is "calls", "busy_s" or a count key.
FUNCTION_METRICS = (
    ("stats.distribution_fast.calls", "stats.distribution_fast", "calls"),
    ("stats.distribution_fast.busy_s", "stats.distribution_fast", "busy_s"),
    ("stats.indicator_array.busy_s", "stats.indicator_array", "busy_s"),
    ("stats.subcubes_counted", "stats.distribution_fast", "subcubes_counted"),
    ("stats.free_masks", "stats.distribution_fast", "free_masks"),
    ("stats.fold_elems_computed", "stats.distribution_fast", "fold_elems_computed"),
    ("cube.vertices.calls", "cube.VertexSet.vertices", "calls"),
    ("cube.vertices.busy_s", "cube.VertexSet.vertices", "busy_s"),
    ("cube.to_json.busy_s", "cube.VertexSet.to_json", "busy_s"),
    ("cube.from_vertices.busy_s", "cube.VertexSet.from_vertices", "busy_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.report_bytes", "cli.main", "report_bytes"),
    ("exhaustive.exhaustive_lambda.calls", "exhaustive.exhaustive_lambda", "calls"),
    ("exhaustive.exhaustive_lambda.busy_s", "exhaustive.exhaustive_lambda", "busy_s"),
    ("exhaustive.masks_computed", "exhaustive.exhaustive_lambda", "masks_computed"),
    ("johnson.adjacency.busy_s", "johnson.JohnsonGraph.adjacency_bitsets", "busy_s"),
    ("johnson.adjacency.pairs", "johnson.JohnsonGraph.adjacency_bitsets", "pairs"),
    ("johnson.max_clique.calls", "johnson.max_clique", "calls"),
    ("johnson.max_clique.busy_s", "johnson.max_clique", "busy_s"),
    ("johnson.hadamard_to_clique.busy_s", "johnson.hadamard_to_clique", "busy_s"),
    ("johnson.verify_clique.busy_s", "johnson.verify_clique", "busy_s"),
    ("hadamard.hadamard_matrix.calls", "hadamard.hadamard_matrix", "calls"),
    ("hadamard.hadamard_matrix.busy_s", "hadamard.hadamard_matrix", "busy_s"),
    ("hadamard.entries_computed", "hadamard.hadamard_matrix", "entries_computed"),
    ("residues.verify_thm32.busy_s", "residues.verify_thm32", "busy_s"),
    ("residues.subsets_scanned", "residues.verify_thm32", "subsets_scanned"),
    ("approx.check_approx.calls", "approx.check_approx", "calls"),
    ("approx.check_approx.busy_s", "approx.check_approx", "busy_s"),
)
# Layers with self_s and errors metrics: every module the workloads reach.
REPORTED_LAYERS = ("stats", "constructions", "cube", "cli", "exhaustive", "johnson", "hadamard", "residues", "approx")


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [m for m, _, _ in FUNCTION_METRICS]
    names += [f"{layer}.self_s" for layer in REPORTED_LAYERS]
    names += [f"{layer}.errors" for layer in REPORTED_LAYERS]
    names += [
        "constructions.build.calls",
        "constructions.build.busy_s",
        "constructions.vertices_materialized",
        "cube.vertices_converted",
        "harness.self_s",
        "trace.spans",
    ]
    return names


def write_spans(spans: list[list], path: str) -> None:
    """Write the spans as JSON lines, one object per span, in call order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(("name", "layer", "start", "end", "parent", "op", "raised"), span))) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_metrics(spans: list[list], wall_s: float, failed_ops: set[int]) -> dict:
    """Reduce one pass's spans to per-layer metrics.

    Self time is a span's duration minus the part its children cover.  The
    harness's time is the wall time no top-level span covers, so the layer
    self times plus the harness time add up to the wall time exactly when
    spans nest properly; ``self_sum_error_s`` reports the difference.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    build = {"calls": 0, "busy_s": 0.0, "vertices_materialized": 0}
    converted = 0
    errors: dict[str, int] = defaultdict(int)
    deepest_raise: dict[int, tuple[int, int]] = {}
    cli_failures = 0

    for i, span in enumerate(spans):
        name, layer, start, end = span[NAME], span[LAYER], span[START], span[END]
        dur = end - start
        inner = [(max(spans[c][START], start), min(spans[c][END], end)) for c in children[i]]
        self_s[layer] += dur - _covered(inner)
        ancestors = []
        p = span[PARENT]
        while p >= 0:
            ancestors.append(spans[p])
            p = spans[p][PARENT]
        calls[name] += 1
        if all(a[NAME] != name for a in ancestors):
            busy[name] += dur
        extra = span[COUNTS] or {}
        for key, value in extra.items():
            counts[(name, key)] += value
        if layer == "constructions" and "vertices_materialized" in extra and all(a[LAYER] != layer for a in ancestors):
            build["calls"] += 1
            build["busy_s"] += dur
            build["vertices_materialized"] += extra["vertices_materialized"]
        converted += extra.get("vertices_converted", 0)
        if span[RAISED] and span[OP] in failed_ops:
            depth = len(ancestors)
            if span[OP] not in deepest_raise or depth > deepest_raise[span[OP]][0]:
                deepest_raise[span[OP]] = (depth, i)
        elif name == "cli.main" and extra.get("exit_code") not in (0, None):
            cli_failures += 1

    for _, i in deepest_raise.values():
        errors[spans[i][LAYER]] += 1
    errors["cli"] += cli_failures

    roots = [(s[START], s[END]) for s in spans if s[PARENT] < 0]
    harness = wall_s - _covered(roots)
    out: dict[str, float] = {}
    for metric, name, stat in FUNCTION_METRICS:
        if stat == "calls":
            out[metric] = calls[name]
        elif stat == "busy_s":
            out[metric] = busy[name]
        else:
            out[metric] = counts[(name, stat)]
    for layer in REPORTED_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.errors"] = errors[layer]
    out["constructions.build.calls"] = build["calls"]
    out["constructions.build.busy_s"] = build["busy_s"]
    out["constructions.vertices_materialized"] = build["vertices_materialized"]
    out["cube.vertices_converted"] = converted
    out["harness.self_s"] = harness
    out["trace.spans"] = len(spans)
    total_self = sum(self_s.values()) + harness
    return {"metrics": out, "self_sum_error_s": total_self - wall_s, "all_self_s": dict(self_s)}
