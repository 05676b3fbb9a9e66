"""Outside-in layer tracing for the benchmark's traced passes.

Each traced function is replaced, in every ``compelling`` module namespace
that binds it, by a wrapper that records a span.  Spans nest through a
stack: a span's self time is its duration minus the time of the spans it
caused.  A span whose parent has the same layer name is folded into the
parent, so recursion and calls within one layer count once.  Spans are kept
as in-memory totals and read out after the pass.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "compelling"

# (module, attribute, layer name, kind).  ``span`` times the call, ``count``
# only counts it, ``generator`` times each step and counts the yields.
TARGETS = (
    ("compelling.cli", "main", "cli", "span"),
    ("compelling.graphs", "load_graph", "graphs.load", "span"),
    ("compelling.graphs", "chromatic_number", "graphs.chromatic_number", "span"),
    ("compelling.graphs", "minimum_connected_dominating_set", "graphs.cds", "span"),
    ("compelling.properties", "min_property_size", "properties.min_size", "span"),
    ("compelling.properties", "eval_property_mask", "properties.eval", "count"),
    ("compelling.solver", "compelling_chromatic_number", "solver.chi", "span"),
    ("compelling.solver", "chi_bounds", "solver.bounds", "span"),
    ("compelling.solver", "_iter_canonical", "solver.enumerate", "generator"),
    ("compelling.solver", "_classes_from_masks", "solver.classes", "span"),
    ("compelling.solver", "_dom_compelled", "solver.verdict.dom", "span"),
    ("compelling.solver", "_tdom_compelled", "solver.verdict.tdom", "span"),
    ("compelling.solver", "_find_independent_committee", "solver.verdict.edge", "span"),
    ("compelling.solver", "_find_violating_committee", "solver.verdict.committee", "span"),
    ("compelling.solver", "is_compelling", "solver.check", "span"),
    # td3's copy of the total-domination kernel counts as the tdom verdict,
    # so the count stays put when the two copies are merged.
    ("compelling.td3", "_tdc_masks", "solver.verdict.tdom", "span"),
    ("compelling.td3", "has_tdc3", "td3.has_tdc3", "span"),
    ("compelling.td3", "chi_td_bruteforce", "td3.bruteforce", "span"),
    ("compelling.verify", "main_corpus", "verify.corpus", "span"),
    ("compelling.verify", "td3_corpus", "verify.corpus", "span"),
    ("compelling.verify", "named_families", "verify.corpus", "span"),
)

# has_tdc3 time is also split by graph order at these sizes.
TDC3_SIZES = (20, 40, 60)


class Tracer:
    """Span and count totals for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer name, time spent in child spans]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edge: defaultdict = defaultdict(float)  # (parent, child) -> time
        self.missing: list[str] = []
        self.suites: list[str] = []  # the verify.SUITES entries wrapped

    def _close(self, name: str, frame: list, dt: float) -> None:
        self.calls[name] += 1
        self.incl[name] += dt
        self.self_time[name] += dt - frame[1]
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            self.edge[(parent[0], name)] += dt

    def span(self, name: str, fn, after=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                self._close(name, frame, dt)
            if after is not None:
                after(self, args, result, dt)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function: each step is timed as a child of the
        span that consumes it, and every yield is counted as a coloring."""
        stack = self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            in_chi = bool(stack) and stack[-1][0] == "solver.chi"
            self.calls[name] += 1
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._step(name, perf_counter() - start)
                    return
                self._step(name, perf_counter() - start)
                counts["solver.colorings"] += 1
                if in_chi:
                    counts["solver.colorings_in_chi"] += 1
                yield item

        return wrapper

    def _step(self, name: str, dt: float) -> None:
        self.incl[name] += dt
        self.self_time[name] += dt
        if self.stack:
            self.stack[-1][1] += dt


def _count_witness(tracer: Tracer, args, result, dt: float) -> None:
    if result.value is not None:
        tracer.counts["solver.witnesses"] += 1


def _tdc3_by_size(tracer: Tracer, args, result, dt: float) -> None:
    n = args[0].n
    if n in TDC3_SIZES:
        tracer.incl[f"td3.has_tdc3.n{n}"] += dt


_AFTER = {"solver.chi": _count_witness, "td3.has_tdc3": _tdc3_by_size}


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` under every name that binds it in
    a package module."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every target; names that no longer exist go to ``tracer.missing``."""
    for module_name, attr, layer, kind in TARGETS:
        mod = importlib.import_module(module_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        if kind == "span":
            wrapper = tracer.span(layer, fn, _AFTER.get(layer))
        elif kind == "count":
            wrapper = tracer.count(layer, fn)
        else:
            wrapper = tracer.generator(layer, fn)
        _rebind(fn, wrapper)

    closed_forms = importlib.import_module("compelling.closed_forms")
    for attr, fn in list(vars(closed_forms).items()):
        if (
            callable(fn)
            and not attr.startswith("_")
            and getattr(fn, "__module__", "") == closed_forms.__name__
        ):
            _rebind(fn, tracer.span("closed_forms", fn))

    verify = importlib.import_module("compelling.verify")
    suites = getattr(verify, "SUITES", None)
    if suites is None:
        tracer.missing.append("compelling.verify.SUITES")
        return
    for suite, fn in list(suites.items()):
        wrapper = tracer.span(f"verify.suite.{suite}", fn)
        suites[suite] = wrapper
        _rebind(fn, wrapper)
        tracer.suites.append(suite)
