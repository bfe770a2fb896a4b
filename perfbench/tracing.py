"""Spans and counters recorded from outside the package.

The benchmark never edits ``src/``.  It swaps each traced public function
for a wrapper at every module attribute that holds it (for example both
``contagion.experiments.sample_gnp`` and ``contagion.sample_gnp``), so the
package's own calls go through the wrapper too, and restores the originals
afterwards.  Spans are kept in memory; self times are worked out once the
round is over.

All times come from a :class:`Clock` that leaves out the intervals spent in
output checks, so checks that run inside a wrapper cost no measured time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

# Span name -> (module that defines the function, function name).
SPANS = {
    "experiments.run_experiment": ("contagion.experiments", "run_experiment"),
    "experiments.render_output": ("contagion.experiments", "render_output"),
    "graph.sample_gnp": ("contagion.graph", "sample_gnp"),
    "graph.is_connected": ("contagion.graph", "is_connected"),
    "graph.connected_components": ("contagion.graph", "connected_components"),
    "graph.save_edge_list": ("contagion.graph", "save_edge_list"),
    "graph.load_edge_list": ("contagion.graph", "load_edge_list"),
    "percolation.percolate": ("contagion.percolation", "percolate"),
    "percolation.validate_result": ("contagion.percolation", "validate_result"),
    "construct.construct_contagious": ("contagion.construct", "construct_contagious"),
    "construct.search_minimal_tuple": ("contagion.construct", "search_minimal_tuple"),
    "exact.min_contagious_exact": ("contagion.exact", "min_contagious_exact"),
}

COUNTERS = (
    "graph.edges_sampled",
    "graph.edge_list_bytes",
    "percolation.rounds",
    "percolation.activations",
    "construct.seeds_returned",
    "construct.fallback_calls",
    "construct.search_found",
    "construct.search_hit_rate",
    "construct.search_percolations",
    "exact.nodes_explored",
    "exact.percolations",
)


class Clock:
    """perf_counter with the paused intervals taken out."""

    def __init__(self):
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start


def _sites(original, name: str) -> list:
    """Every package module whose attribute ``name`` is ``original``."""
    return [
        mod
        for mod_name, mod in list(sys.modules.items())
        if (mod_name == "contagion" or mod_name.startswith("contagion."))
        and getattr(mod, name, None) is original
    ]


class Patches:
    """Wrap package functions at all their import sites; undo on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, name: str, make_wrapper) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in _sites(original, name):
            self._undo.append((mod, name, original))
            setattr(mod, name, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()


class Tracer:
    """Spans of the functions in SPANS plus work counters at the same places."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts = {name: 0 for name in COUNTERS if name != "construct.search_hit_rate"}
        self.search_calls = 0

    def install(self, patches: Patches) -> None:
        for span, (module_name, name) in SPANS.items():
            patches.wrap(module_name, name, functools.partial(self._wrapper, span))

    def _wrapper(self, span: str, original):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(span)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(self.clock.now())
            self.ends.append(0.0)
            self._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock.now()
                self._stack.pop()
            self._count(span, idx, args, kwargs, result)
            return result

        return traced

    def _under(self, idx: int, span: str) -> bool:
        parent = self.parents[idx]
        while parent != -1:
            if self.names[parent] == span:
                return True
            parent = self.parents[parent]
        return False

    def _count(self, span: str, idx: int, args, kwargs, result) -> None:
        c = self.counts
        if span == "graph.sample_gnp":
            c["graph.edges_sampled"] += result.edge_count
        elif span == "graph.save_edge_list":
            c["graph.edge_list_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
        elif span == "graph.load_edge_list":
            c["graph.edge_list_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])
        elif span == "percolation.percolate":
            c["percolation.rounds"] += result.tau
            c["percolation.activations"] += result.active_count - len(result.seeds)
            if self._under(idx, "construct.search_minimal_tuple"):
                c["construct.search_percolations"] += 1
            if self._under(idx, "exact.min_contagious_exact"):
                c["exact.percolations"] += 1
        elif span == "construct.construct_contagious":
            seeds, trace = result
            c["construct.seeds_returned"] += len(seeds)
            c["construct.fallback_calls"] += int(trace.fallback_used)
        elif span == "construct.search_minimal_tuple":
            self.search_calls += 1
            if result is not None:
                c["construct.search_found"] += 1
                c["construct.seeds_returned"] += len(result[0])
        elif span == "exact.min_contagious_exact":
            c["exact.nodes_explored"] += result.nodes_explored

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-span self time and calls, then the counters, with units."""
        self_time = {span: 0.0 for span in SPANS}
        calls = {span: 0 for span in SPANS}
        for idx, span in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            self_time[span] += dur
            calls[span] += 1
            parent = self.parents[idx]
            if parent != -1:
                self_time[self.names[parent]] -= dur
        out: dict[str, tuple[float, str]] = {}
        for span in SPANS:
            out[f"{span}.self_s"] = (self_time[span], "s")
            out[f"{span}.calls"] = (calls[span], "count")
        for name in COUNTERS:
            if name == "construct.search_hit_rate":
                found = self.counts["construct.search_found"]
                out[name] = (found / self.search_calls if self.search_calls else 0.0, "ratio")
            else:
                unit = "bytes" if name == "graph.edge_list_bytes" else "count"
                out[name] = (self.counts[name], unit)
        return out

    def span_table(self) -> dict:
        """The raw spans, for the per-run result file."""
        index = {span: i for i, span in enumerate(SPANS)}
        return {
            "names": list(SPANS),
            "span": [index[n] for n in self.names],
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
        }
