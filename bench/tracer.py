"""Span tracer that wraps simmap's public functions from outside the program.

`Tracer.installed()` replaces every public module-level function of the
traced modules with a recording wrapper. The wrapper is rebound wherever the
function is bound by name: in its defining module, in every simmap module that
imported it with `from .x import f`, and in the package namespace. Without
that, a call such as `optimizer`'s `recompute(diagram)` would look up the
original through its own module globals and slip past the wrapper.

Spans are recorded only inside `Tracer.root()`, so calls the benchmark makes
to check outputs are not counted. A span's self time is its duration minus
the durations of the spans it called, kept on a stack. The root span's self
time is the benchmark's own time inside the timed region, so all self times
together add up to the summed root durations.

Work counts are computed from the arguments and results seen at the wrapper,
not measured inside the program.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "tree_model", "similarity", "geometry", "layout_init",
    "optimizer", "metrics", "render", "pipeline",
)
ROOT = "bench"

# Size of the dense E x E arrays the seed's cell_neighbors allocates:
# 11 float64 planes (DA and DB count twice) and 4 boolean masks.
NEIGHBOR_BYTES_PER_PAIR = 11 * 8 + 4


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_recompute(tracer, args, kwargs, result):
    cells = _arg(args, kwargs, 0, "diagram").cells
    n = len(cells)
    tracer.count("geometry.recompute.cells", n)
    tracer.count("geometry.recompute.clips", n * (n - 1))
    tracer.count("geometry.recompute.empty", sum(c.polygon is None for c in cells))


def _count_cell_neighbors(tracer, args, kwargs, result):
    diagrams = _arg(args, kwargs, 0, "level_diagrams")
    edges = sum(len(c.polygon.vertices) for d in diagrams for c in d.cells
                if c.polygon is not None)
    tracer.count("geometry.cell_neighbors.edges", edges)
    tracer.count("geometry.cell_neighbors.pair_tests", edges * edges)
    tracer.count("geometry.cell_neighbors.bytes", NEIGHBOR_BYTES_PER_PAIR * edges * edges)
    tracer.count("geometry.cell_neighbors.pairs", len(result))


def _count_lloyd_step(tracer, args, kwargs, result):
    if tracer.active("layout_init.build_cvt"):
        tracer.count("layout_init.build_cvt.lloyd_iters", 1)


def _count_optimize_level(tracer, args, kwargs, result):
    tracer.count("optimizer.iterations", _arg(args, kwargs, 1, "cfg").max_iter)


def _count_constraints(tracer, args, kwargs, result):
    tracer.count("similarity.constraints", sum(len(v) for v in result.values()))


def _count_nodes(tracer, args, kwargs, result):
    tracer.count("tree_model.nodes", len(result.nodes))


def _count_svg(tracer, args, kwargs, result):
    tracer.count("render.svg_bytes", len(result.encode("utf-8")))


COUNTERS = {
    "geometry.recompute": _count_recompute,
    "geometry.cell_neighbors": _count_cell_neighbors,
    "geometry.lloyd_step": _count_lloyd_step,
    "optimizer.optimize_level": _count_optimize_level,
    "similarity.extract_level_constraints": _count_constraints,
    "tree_model.propagate_attributes": _count_nodes,
    "render.render_svg": _count_svg,
}

# (metric, unit, better) reported by a traced run, in BENCHMARK.json order.
_SPAN_CALLS = (
    "geometry.recompute", "geometry.adapt_weights", "geometry.cell_neighbors",
    "geometry.power_diagram", "geometry.lloyd_step", "layout_init.build_cvt",
    "optimizer.neighborhood_step", "optimizer.move_toward", "optimizer.move_orthogonal",
)
_SPAN_SELF = (
    "geometry.recompute", "geometry.adapt_weights", "geometry.cell_neighbors",
    "geometry.power_diagram", "geometry.lloyd_step", "layout_init.build_cvt",
    "layout_init.mds_project", "layout_init.match_assignment", "layout_init.swap_improve",
    "layout_init.proj_scale_init", "optimizer.optimize_level", "optimizer.neighborhood_step",
    "metrics.evaluate", "render.render_svg",
)
_COUNTS = (
    ("geometry.recompute.cells", "count", "lower"),
    ("geometry.recompute.clips", "count", "lower"),
    ("geometry.cell_neighbors.edges", "count", "lower"),
    ("geometry.cell_neighbors.pair_tests", "count", "lower"),
    ("geometry.cell_neighbors.bytes", "B", "lower"),
    ("geometry.cell_neighbors.pairs", "count", "higher"),
    ("layout_init.build_cvt.lloyd_iters", "count", "lower"),
    ("optimizer.iterations", "count", "lower"),
    ("tree_model.nodes", "count", "lower"),
    ("similarity.constraints", "count", "lower"),
    ("render.svg_bytes", "B", "lower"),
)
PER_LAYER = (
    tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS + (ROOT,))
    + tuple((f"{span}.self_s", "s", "lower") for span in _SPAN_SELF)
    + tuple((f"{span}.calls", "count", "lower") for span in _SPAN_CALLS)
    + _COUNTS
    + (
        ("geometry.recompute.empty_ratio", "ratio", "lower"),
        ("optimizer.centroid_moves", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    )
)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}    # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.root_s = 0.0                   # summed durations of root spans
        self.wrapped: set[str] = set()      # span names of the installed wrappers
        self._stack: list[list] = []        # [name, start, seconds in children]
        self._patched: list[tuple] = []     # (namespace, attribute, original)

    def reset(self) -> None:
        self.spans = {}
        self.counts = {}
        self.root_s = 0.0

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        record = self.spans.setdefault(name, [0, 0.0])
        record[0] += 1
        record[1] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def root(self, fn):
        """Call fn() inside the root span, the only place spans are recorded."""
        if self._stack:
            raise RuntimeError("root span is already open")
        self._enter(ROOT)
        try:
            return fn()
        finally:
            self._exit()

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind a wrapper for every public function at all its import sites."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"simmap.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "simmap" or n.startswith("simmap.")]
        try:
            for layer, module in modules.items():
                for attr, fn in list(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    self.wrapped.add(f"{layer}.{attr}")
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is fn:
                                setattr(ns, bound, wrapper)
                                self._patched.append((ns, bound, fn))
            yield self
        finally:
            for ns, bound, fn in reversed(self._patched):
                setattr(ns, bound, fn)
            self._patched = []

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset,
        except trace.overhead_s, which needs an untraced pass."""
        out: dict[str, float] = {}
        for layer in LAYERS + (ROOT,):
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(
                s for name, (_, s) in self.spans.items()
                if name == layer or name.startswith(prefix))
        for span in _SPAN_SELF:
            out[f"{span}.self_s"] = self.spans.get(span, (0, 0.0))[1]
        for span in _SPAN_CALLS:
            out[f"{span}.calls"] = self.spans.get(span, (0, 0.0))[0]
        for key, _, _ in _COUNTS:
            out[key] = self.counts.get(key, 0)
        cells = self.counts.get("geometry.recompute.cells", 0)
        empty = self.counts.get("geometry.recompute.empty", 0)
        out["geometry.recompute.empty_ratio"] = empty / cells if cells else 0.0
        out["optimizer.centroid_moves"] = (
            out["optimizer.neighborhood_step.calls"]
            - out["optimizer.move_toward.calls"]
            - out["optimizer.move_orthogonal.calls"])
        return out

    def work_counts(self) -> dict[str, int]:
        """Every call count and computed work count: exact for a fixed input."""
        calls = {f"{name}.calls": rec[0] for name, rec in self.spans.items()}
        return {**calls, **self.counts}
