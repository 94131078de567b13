"""Per-layer tracing from outside the program.

The tracer replaces module attributes of ``cliquebounds`` with timing
wrappers for the duration of one traced pass and restores them afterwards;
nothing in the program's source changes. A function imported by name into
several modules (``from .weights import all_weights``) is replaced wherever
that same function object is bound, so every call site is seen.

Each wrapped call is one span (id, parent id, name, start ns, end ns). Spans
stay in memory and are written when the run ends. A span's self time is its
duration minus the durations of its direct child spans. Span times are the
main thread's processor time, read from the given clock (the speed
sampler's, which leaves out its own handler), so time the hypervisor steals
from a shared vCPU is not charged to a layer.
``reachable_within`` is only counted: it is the inner step of the weight
search and a span per call would dominate the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from typing import Callable

# (layer, module, attribute). "GraphSource.graphs" is a generator method:
# each next() on it is one span, so its self time is the source's own work.
SPANNED = [
    ("graph", "graph", "parse_graph6"),
    ("graph", "graph", "write_graph6"),
    ("graph", "graph", "induced_subgraph"),
    ("enumeration", "enumeration", "enumerate_graphs"),
    ("enumeration", "enumeration", "canonical_graph"),
    ("weights", "weights", "all_weights"),
    ("weights", "weights", "longest_path_through_edge"),
    ("weights", "weights", "longest_cycle_through_edge"),
    ("weights", "weights", "block_decomposition"),
    ("cliques", "cliques", "clique_census"),
    ("cliques", "cliques", "count_cliques"),
    ("cliques", "cliques", "count_all_cliques"),
    ("bounds", "bounds", "local_vertex_bound"),
    ("bounds", "bounds", "local_vertex_total_bound"),
    ("bounds", "bounds", "local_edge_path_bound"),
    ("bounds", "bounds", "local_edge_cycle_bound"),
    ("bounds", "bounds", "wood_bound"),
    ("bounds", "bounds", "wood_total_bound"),
    ("bounds", "bounds", "cc_path_bound"),
    ("bounds", "bounds", "cc_cycle_bound"),
    ("bounds", "bounds", "equals_count"),
    ("bounds", "bounds", "make_report"),
    ("bounds", "bounds", "compare_local_vs_classical"),
    ("certificates", "certificates", "vertex_equality_certificate"),
    ("certificates", "certificates", "vertex_core_certificate"),
    ("certificates", "certificates", "edge_equality_certificate"),
    ("certificates", "certificates", "cycle_equality_certificate"),
    ("certificates", "certificates", "cross_validate"),
    ("certificates", "certificates", "conjecture_verdict"),
    ("certificates", "certificates", "is_disjoint_clique_union"),
    ("certificates", "certificates", "is_clique_union_with_isolated"),
    ("certificates", "certificates", "is_block_forest_of_kr"),
    ("search", "search", "GraphSource.graphs"),
    ("search", "search", "sweep_worker"),
    ("search", "search", "evaluate_kind"),
    ("search", "search", "run_sweep"),
    ("search", "search", "findings_to_jsonl"),
    ("search", "search", "summary_to_json"),
    ("search", "search", "rows_to_csv"),
    ("cli", "cli", "main"),
    ("cli", "cli", "cmd_analyze"),
    ("cli", "cli", "cmd_verify"),
    ("cli", "cli", "cmd_search"),
    ("cli", "cli", "build_analyze_report"),
    ("cli", "cli", "reports_for_t"),
]
COUNTED = [("weights", "weights", "reachable_within")]

# Constructions of an EqualityCertificate, the base of builds_per_eval.
CERTIFICATE_BUILDERS = (
    "certificates.vertex_equality_certificate",
    "certificates.vertex_core_certificate",
    "certificates.edge_equality_certificate",
    "certificates.cycle_equality_certificate",
)
SEARCH_OUTPUT = ("search.findings_to_jsonl", "search.summary_to_json", "search.rows_to_csv")


def _label(layer: str, attr: str) -> str:
    return f"{layer}.{'source' if attr == 'GraphSource.graphs' else attr}"


class Tracer:
    """Wraps the layer functions of an imported ``cliquebounds`` while active."""

    def __init__(self, clock_ns: Callable[[], int]) -> None:
        self._clock = clock_ns
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.spans = array("q")  # flat (id, parent, name, start_ns, end_ns)
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _register(self, label: str) -> int:
        self.names.append(label)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        return len(self.names) - 1

    def _enter(self) -> list[int]:
        self._next_id += 1
        frame = [self._next_id, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, i: int, frame: list[int], start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        dur = end - start
        self.calls[i] += 1
        self.total_ns[i] += dur
        self.self_ns[i] += dur - frame[1]
        parent = 0
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        self.spans.extend((frame[0], parent, i, start, end))

    def _span(self, i: int, fn):
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i, frame, start, clock())

        return traced

    def _span_iter(self, i: int, method):
        clock = self._clock

        @functools.wraps(method)
        def traced(obj, *args, **kwargs):
            it = method(obj, *args, **kwargs)
            while True:
                frame = self._enter()
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(i, frame, start, clock())
                yield item

        return traced

    def _count(self, i: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cliquebounds" or mod_name.startswith("cliquebounds.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for layer, module, attr in table:
                label = _label(layer, attr)
                mod = sys.modules.get(f"cliquebounds.{module}")
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, fn_name, None) if owner is not None else None
                if fn is None:
                    self.absent.append(label)
                    continue
                i = self._register(label)
                if kind == "count":
                    self._replace_everywhere(fn, self._count(i, fn))
                elif owner_name:
                    self._patches.append((owner, fn_name, fn))
                    setattr(owner, fn_name, self._span_iter(i, fn))
                else:
                    self._replace_everywhere(fn, self._span(i, fn))
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def table(self) -> dict[str, dict]:
        out = {label: {"calls": c, "self_s": s / 1e9, "total_s": t / 1e9}
               for label, c, s, t in zip(self.names, self.calls, self.self_ns, self.total_ns)}
        for label in self.absent:
            out[label] = "absent"
        return out

    def metrics(self, graphs: int, graph_t: int, evals: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; any metric whose function is absent is left out."""
        tab = {k: v for k, v in self.table().items() if v != "absent"}
        out: dict[str, tuple[float, str]] = {}

        def put(name: str, fn: str, field: str) -> None:
            if fn in tab:
                out[name] = (tab[fn][field], "count" if field == "calls" else "s")

        def ratio(name: str, nums: tuple[str, ...], base: int) -> None:
            if all(fn in tab for fn in nums):
                out[name] = (sum(tab[fn]["calls"] for fn in nums) / base if base else 0.0, "ratio")

        def layer_self(layer: str, fns) -> None:
            present = [fn for fn in fns if fn in tab]
            if present:
                out[f"{layer}.self_s"] = (sum(tab[fn]["self_s"] for fn in present), "s")

        for fn in ("graph.parse_graph6", "graph.write_graph6", "graph.induced_subgraph",
                   "enumeration.canonical_graph", "weights.all_weights", "weights.longest_path_through_edge",
                   "weights.longest_cycle_through_edge", "weights.block_decomposition", "cliques.clique_census",
                   "cliques.count_cliques", "bounds.compare_local_vs_classical", "certificates.cross_validate",
                   "certificates.conjecture_verdict", "search.sweep_worker"):
            put(f"{fn}.calls", fn, "calls")
            put(f"{fn}.self_s", fn, "self_s")
        for fn in ("certificates.vertex_equality_certificate", "certificates.edge_equality_certificate",
                   "certificates.cycle_equality_certificate", "weights.reachable_within"):
            put(f"{fn}.calls", fn, "calls")
        for fn in ("enumeration.enumerate_graphs", "search.evaluate_kind", "search.source", "search.run_sweep",
                   "cli.build_analyze_report", "cli.reports_for_t", "cli.cmd_analyze"):
            put(f"{fn}.self_s", fn, "self_s")
        if "enumeration.canonical_graph" in tab:
            candidates = tab["enumeration.canonical_graph"]["calls"]
            out["enumeration.accept_ratio"] = (graphs / candidates if candidates else 0.0, "ratio")
        layer_self("bounds", [fn for fn in tab if fn.startswith("bounds.")])
        layer_self("certificates", [fn for fn in tab if fn.startswith("certificates.")])
        layer_self("search.output", SEARCH_OUTPUT)
        ratio("certificates.builds_per_eval", CERTIFICATE_BUILDERS, evals)
        ratio("graph.write_graph6.calls_per_graph", ("graph.write_graph6",), graphs)
        ratio("graph.parse_graph6.calls_per_graph", ("graph.parse_graph6",), graphs)
        ratio("cliques.count_cliques.calls_per_graph_t", ("cliques.count_cliques",), graph_t)
        out["trace.graphs"] = (graphs, "count")
        out["trace.graph_t_pairs"] = (graph_t, "count")
        out["trace.evals"] = (evals, "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, stem: str, extra: dict) -> None:
        """Write the span array and the aggregate table under ``stem``."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        with open(stem + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        meta = {
            "spans_file": os.path.basename(stem) + ".spans",
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "span_itemsize": self.spans.itemsize,
            "byteorder": sys.byteorder,
            "names": self.names,
            "table": self.table(),
            **extra,
        }
        with open(stem + ".json", "w", encoding="ascii") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")
