"""Span tracer that wraps vconn's layer functions from outside the library.

Each target is a function or method named by module and qualified name.
Installing the tracer replaces the original object with a wrapper in every
``vconn`` module namespace that binds it (modules import functions by name,
so ``vconn.articulation._scc_ids`` and ``vconn.connectivity._scc_ids`` are
separate bindings of one object), and on the class for methods.  Removing
it restores every binding to the original object.

A span records name, start, end, parent span and request (the top-level
call it belongs to).  Spans are kept in memory; ``write_spans`` writes them
out once the run ends.  Per name the tracer sums calls, inclusive time and
self time (inclusive time minus the inclusive time of direct child spans).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass

# (metric prefix, module, qualified name).  The prefix drops a leading
# underscore from the module name because metric names start with a letter.
TARGETS = (
    ("articulation.strong_articulation_points", "vconn.articulation", "strong_articulation_points"),
    ("articulation.is_2vertex_connected", "vconn.articulation", "is_2vertex_connected"),
    ("dominators.dominator_tree", "vconn.dominators", "dominator_tree"),
    ("connectivity._scc_ids", "vconn.connectivity", "_scc_ids"),
    ("graph.induced_subgraph", "vconn.graph", "induced_subgraph"),
    ("graph.DiGraph", "vconn.graph", "DiGraph.__init__"),
    ("graph.read_edge_list", "vconn.graph", "read_edge_list"),
    ("twovcc.two_vccs_split", "vconn.twovcc", "two_vccs_split"),
    ("kvcc._global_min_cut", "vconn.kvcc", "_global_min_cut"),
    ("kvcc._min_st_vertex_cut", "vconn.kvcc", "_min_st_vertex_cut"),
    ("flow.FlowNetwork", "vconn._flow", "FlowNetwork.__init__"),
    ("flow.max_flow", "vconn._flow", "FlowNetwork.max_flow"),
    ("sparsify._edge_set_is_2vc", "vconn.sparsify", "_edge_set_is_2vc"),
    ("sparsify.approx_2vcss", "vconn.sparsify", "approx_2vcss"),
    ("sparsify.approx_mscss", "vconn.sparsify", "approx_mscss"),
    ("sparsify.coarsen", "vconn.sparsify", "coarsen"),
    ("cli._load_graph", "vconn.cli", "_load_graph"),
)

ARCS = "flow.arcs"  # arcs of the network, read as len(net.to) // 2 when max_flow runs


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _vconn_modules():
    return [m for name, m in list(sys.modules.items()) if name == "vconn" or name.startswith("vconn.")]


class Tracer:
    """Wraps ``targets`` while installed; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = {}
        self.counters: dict[str, int] = {ARCS: 0}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span index, child time]
        self._request = -1

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for prefix, module_name, qualname in self.targets:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(prefix, original)
            if owner_name:
                self._rebind(owner, attr, wrapper)
            else:
                for mod in _vconn_modules():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one top-level call; the spans inside carry its index."""
        index = len(self.spans)
        self.spans.append(None)
        self._request = index
        self._stack.append([index, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, index)
            self._request = -1

    def _wrap(self, name: str, func):
        stats = self.stats.setdefault(name, LayerStats())
        spans = self.spans
        stack = self._stack
        counters = self.counters
        count_arcs = name == "flow.max_flow"
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count_arcs:
                counters[ARCS] += len(args[0].to) // 2
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                spans[index] = (name, start, end, parent[0] if parent else -1, self._request)

        return wrapper

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
