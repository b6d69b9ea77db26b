"""In-memory span recorder for the benchmark's traced run.

While installed, a :class:`Tracer` replaces the layer-boundary functions of
the ``semistruct`` modules with wrappers that record one :class:`Span` per
call: name, start, end, parent span and run id. A function is replaced in
every ``semistruct`` module namespace that binds it, so ``cli.fit``,
``evaluate.fit`` and ``solver.fit`` all record, and ``solver.update_slack``
records as ``fit`` sees it. The inference oracles are replaced in each
output-space class's own ``__dict__``. ``delta``, ``phi`` and ``contains``
run millions of times per fit, so they are only counted.

A few wrappers also read their call's arguments and result to count work
done (edges built, slack outputs changed, ...). Those observers bind the
arguments by name, so a later signature change shows up as an absent
statistic, not as a failed run. Names missing from the package are
recorded as absent as well.

Spans stay in memory until the run ends. :meth:`Tracer.remove` restores
every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "semistruct"

# Functions recorded as spans, by defining module.
SPANNED = {
    "cli": ("main",),
    "data_io": ("load_dataset", "save_dataset", "mask_labels",
                "synth_blobs", "synth_taxonomy_blobs", "synth_chains"),
    "core": ("validate_dataset",),
    "graph": ("build_knn_graph", "manifold_term"),
    "solver": ("fit", "initialize", "update_upsilon", "update_slack",
               "update_weights", "objective", "predict"),
    "evaluate": ("run_cv", "asl"),
}
# Methods of every output-space class, named ``spaces.<method>``.
SPACE_SPANNED = ("argmax_loss_augmented", "argmin_slack", "argmax_score")
SPACE_COUNTED = ("delta", "phi", "contains")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the span list
    run: str


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _observe_fit(a, state, stats):
    iters = state.iteration
    stats["solver.fit.iterations"] += iters
    stats["solver.fit.point_iters"] += iters * len(a["ds"].points)


def _observe_update_slack(a, new, stats):
    prev, points = a["state"].z, a["ds"].points
    unlabeled = [p.id for p in points if p.y is None]
    stats["solver.update_slack.updated"] += len(unlabeled)
    stats["solver.update_slack.changed"] += sum(new[i] != prev[i] for i in unlabeled)


def _observe_update_upsilon(a, ups, stats):
    z = a["state"].z
    stats["solver.update_upsilon.points"] += len(ups)
    stats["solver.update_upsilon.active"] += sum(u != zi for u, zi in zip(ups, z))


def _observe_build_knn_graph(a, g, stats):
    points = a["ds"].points
    n = len(points)
    d = points[0].x.shape[-1]
    stats["graph.build_knn_graph.edges"] += len(g.src)
    # the n x n x d difference tensor plus the n x n distance matrix
    stats["graph.build_knn_graph.bytes_computed"] += n * n * d * 8 + n * n * 8


def _observe_load_dataset(a, ds, stats):
    stats["data_io.load_dataset.records"] += len(ds.points)


OBSERVERS = {
    "solver.fit": _observe_fit,
    "solver.update_slack": _observe_update_slack,
    "solver.update_upsilon": _observe_update_upsilon,
    "graph.build_knn_graph": _observe_build_knn_graph,
    "data_io.load_dataset": _observe_load_dataset,
}
OBSERVED_STATS = {
    "solver.fit": ("solver.fit.iterations", "solver.fit.point_iters"),
    "solver.update_slack": ("solver.update_slack.updated",
                            "solver.update_slack.changed"),
    "solver.update_upsilon": ("solver.update_upsilon.points",
                              "solver.update_upsilon.active"),
    "graph.build_knn_graph": ("graph.build_knn_graph.edges",
                              "graph.build_knn_graph.bytes_computed"),
    "data_io.load_dataset": ("data_io.load_dataset.records",),
}

# What an observer may raise when the function it watches has changed shape.
_SHAPE_ERRORS = (AttributeError, KeyError, TypeError, IndexError, ValueError)


class Tracer:
    """Records spans and counts while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # calls of counted-only methods
        self.stats = Counter()  # work counts from the observers
        self.absent = set()  # names missing from the package, or stats unread
        self.run = ""  # run id stamped on new spans; set per CLI call
        self._stack = []
        self._undo = []

    # --- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run)
            if observer is not None:
                self._observe(name, observer, signature, args, kwargs, result)
            return result

        wrapper._tracer_wrapper = True
        return wrapper

    def _observe(self, name, observer, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observer(bound.arguments, result, self.stats)
        except _SHAPE_ERRORS:
            self.absent.update(OBSERVED_STATS[name])

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper._tracer_wrapper = True
        return wrapper

    # --- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for _, m in _package_modules()]
        for short, names in SPANNED.items():
            module = sys.modules.get(f"{PACKAGE}.{short}")
            for fname in names:
                name = f"{short}.{fname}"
                fn = getattr(module, fname, None)
                if not inspect.isfunction(fn):
                    self.absent.add(name)
                    continue
                wrapper = self._span_wrapper(name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, attr, wrapper)

        classes = {id(c): c for m in modules for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__.startswith(PACKAGE)
                   and hasattr(c, "argmax_score")}
        found = set()
        for cls in classes.values():
            for meth in SPACE_SPANNED + SPACE_COUNTED:
                fn = cls.__dict__.get(meth)
                if not inspect.isfunction(fn):
                    continue  # inherited: wrapped in the defining class
                make = self._span_wrapper if meth in SPACE_SPANNED else self._count_wrapper
                self._set(cls, meth, make(f"spaces.{meth}", fn))
                found.add(meth)
        self.absent.update(f"spaces.{m}" for m in SPACE_SPANNED + SPACE_COUNTED
                           if m not in found)
        return self

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # --- results ------------------------------------------------------------

    def by_name(self) -> dict:
        """``name -> (calls, self seconds)`` over every recorded span."""
        out = {}
        for s, own in zip(self.spans, self_times(self.spans)):
            calls, total = out.get(s.name, (0, 0.0))
            out[s.name] = (calls + 1, total + own)
        return out

    def root_seconds(self, run) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.run == run and s.parent is None)


def _package_modules():
    return [(n, m) for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def installed_wrappers() -> list:
    """Every tracer wrapper still bound in a ``semistruct`` namespace."""
    found = []
    for n, m in _package_modules():
        for attr, value in vars(m).items():
            if getattr(value, "_tracer_wrapper", False):
                found.append(f"{n}.{attr}")
            if inspect.isclass(value):
                for meth, fn in vars(value).items():
                    if getattr(fn, "_tracer_wrapper", False):
                        found.append(f"{n}.{attr}.{meth}")
    return found
