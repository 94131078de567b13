"""Structural equality certificates for the localized bounds.

Each bound comes with a characterization of the graphs attaining it:

* vertex bound: delete vertices of degree < t-1, every component of what
  remains must be a clique;
* edge/path bound: delete edges whose longest path is too short to carry a
  K_t, every component of what remains must be a clique;
* cycle bound (conjectured): delete edges whose longest cycle is shorter
  than t, what remains must be a block forest.

This module is the only place where a certificate is built or a
characterization verdict decided. Certificates are always computed
independently of the equality flags so the "if and only if" claims are
tested empirically rather than assumed; a discrepancy between the two is a
first-class outcome, not an error. A certificate holds only what was
checked: its outcome, evidence and the view it ran on, plus the clique order
a classical check asks for. It holds no order t, so one certificate serves
every order with the same reduced graph; its description is formatted from
the order on render (``to_json_dict(t)``).

A view is a graph and a vertex mask ``keep``: the vertex certificates keep
the degree-threshold set or the (t-1)-core of g, the edge and cycle
certificates keep every vertex of g minus the short edges. The
characterizations that ask for a disjoint union of cliques are decided on
the view (``_first_non_clique_component``): every kept vertex must have the
same closed neighbourhood within ``keep`` as each of its kept neighbours,
and the evidence is the first component, by smallest member, where one does
not. The reduced graph itself, the view relabelled 0..k-1 in ascending
order, is built only when read (``reduced``, for ``analyze`` or a core
discrepancy's graph6), and encoded as graph6 at most once
(``reduced_graph6``). ``cross_validate`` reads the core's degrees from the
view too. The materialising builders, which relabel the reduced graph and
search its components, are the oracle (``oracles.py``).

``OrderCertificates`` serves the certificate of every per-order bound kind
from one table. Each local certificate depends on t only through its
reduced graph, and the reduced graphs of one graph are nested in t, so each
reduced graph's key comes from a t-free table (the degrees, the core numbers
of one core decomposition, the sorted p(e) and c(e)), built on the first
request for its kind, and a builder (``vertex_equality_certificate`` and its
three siblings, each a per-t function) runs only on an unseen key; every
order with a seen key gets that same certificate. The vertex-core builder
reads its keep set from the same core numbers, so no order peels the core
again. The three classical
certificates (``classical_certificate``) check g itself and are built once
per graph. Every other structure check, a given component or block being a
clique (on exactly r vertices), is one loop, ``_first_non_clique``. A block
is a vertex mask, as ``weights.block_decomposition`` returns it: the cycle
certificate and ``is_block_forest`` (and its K_r form) read those masks
directly, and the cycle certificate's evidence is the first block, in the
order the DFS closes them, that is not a clique.

Every characterization verdict follows one rule, ``conjecture_verdict``:
equality against certificate in a report that was already evaluated (see
``search.evaluate_graph``), exempt below the order from which the paper
claims it (``VERDICT_KINDS``). It counts nothing and builds no certificate.
The vertex side is judged on the (t-1)-core, where the threshold deletion
reaches its fixed point: one deletion round can drop surviving degrees below
the threshold again, and the characterization is only meaningful once the
graph is stable under the reduction. ``cross_validate`` makes that core
report from the local_vertex report, which keeps the unreduced pair, and
the vertex-core certificate the caller passes in. The core needs no
recount: every K_t lies inside the (t-1)-core, because each of its vertices
has t-1 neighbours in it, so the core's K_t count is g's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

from .bounds import (
    KIND_CC_CYCLE, KIND_CC_PATH, KIND_LOCAL_EDGE_CYCLE, KIND_LOCAL_EDGE_PATH, KIND_LOCAL_VERTEX, KIND_WOOD, BoundReport,
    classical_cycle_r, classical_path_r, make_report,
)
from .graph import (
    Graph, connected_components, delete_edges, induced_subgraph, is_clique, iter_bits, reachable_within, write_graph6,
)
from .weights import WeightMap, block_decomposition

VERDICT_BOTH_HOLD = "both-hold"
VERDICT_BOTH_FAIL = "both-fail"
VERDICT_DISCREPANCY = "discrepancy"
VERDICT_EXEMPT = "exempt"

# The kinds with a characterization verdict, in finding order, each with the
# order from which the paper claims it; local_vertex is judged on its core report.
VERDICT_KINDS = {KIND_LOCAL_VERTEX: 2, KIND_LOCAL_EDGE_PATH: 3, KIND_LOCAL_EDGE_CYCLE: 3}

# The description of each certificate name: d = t - 1, t the order, r the
# clique order a classical check asks for.
_DESCRIPTIONS = {
    "vertex": "components of induced subgraph on degree >= {d} vertices",
    "vertex-core": "components of the {d}-core",
    "edge": "components after deleting edges with p(e)+1 < {t}",
    "cycle": "block structure after deleting edges with c(e) < {t}",
    "wood": "disjoint union of cliques on {r} vertices",
    "cc_path": "disjoint union of cliques on {r} vertices plus isolated vertices",
    "cc_cycle": "block forest with every block a clique on {r} vertices",
}


@dataclass
class EqualityCertificate:
    """Outcome of one structural extremality check; it holds no order t.

    The check of one reduced graph serves every order with that graph, so
    its description is formatted from the order on render. The check runs on
    a view, ``graph`` restricted to the vertex mask ``keep``; the reduced
    graph itself is built only when read.
    """

    kind: str
    holds: bool
    evidence: int | None  # offending component/block as a vertex bitmask, original ids
    graph: Graph  # the graph the check ran on, before the vertex restriction
    keep: int  # the vertices the check kept, as a bitmask of graph's ids
    size: int | None = None  # the clique order a classical check asks for

    @cached_property
    def reduced(self) -> Graph:
        """``graph`` induced on ``keep``, relabelled 0..k-1 in ascending order."""
        if self.keep == self.graph.vertex_mask():
            return self.graph
        return induced_subgraph(self.graph, self.keep)[0]

    @cached_property
    def reduced_graph6(self) -> str:
        return write_graph6(self.reduced)

    def to_json_dict(self, t: int) -> dict:
        return {
            "kind": self.kind,
            "holds": self.holds,
            "evidence": sorted(iter_bits(self.evidence)) if self.evidence is not None else None,
            "reduced_graph6": self.reduced_graph6,
            "description": _DESCRIPTIONS[self.kind].format(d=t - 1, t=t, r=self.size),
        }


def x_set(g: Graph, t: int) -> int:
    """Vertices with degree >= t-1 (the only ones that can lie in a K_t)."""
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    mask = 0
    for v in range(g.n):
        if g.degree(v) >= t - 1:
            mask |= 1 << v
    return mask


def x_core(g: Graph, t: int) -> int:
    """Fixed point of the degree-threshold deletion: the (t-1)-core, as a bitmask.

    The per-t oracle of ``core_numbers``: x_core(g, t) is {v : core(v) >= t - 1}.
    """
    surviving = g.vertex_mask()
    while True:
        dropped = 0
        for v in iter_bits(surviving):
            if (g.adj[v] & surviving).bit_count() < t - 1:
                dropped |= 1 << v
        if not dropped:
            return surviving
        surviving &= ~dropped


def core_numbers(g: Graph) -> list[int]:
    """The core number of every vertex: the largest k whose k-core holds it.

    One peeling pass (Batagelj and Zaversnik, "An O(m) algorithm for cores
    decomposition of networks", 2003): remove a vertex of least remaining
    degree at a time; its core number is the largest such degree seen so far.
    With at most 64 vertices a scan for the least degree replaces their
    bucket queue.
    """
    core = [0] * g.n
    alive = g.vertex_mask()
    k = 0
    while alive:
        d, v = min(((g.adj[v] & alive).bit_count(), v) for v in iter_bits(alive))
        k = max(k, d)
        core[v] = k
        alive &= ~(1 << v)
    return core


def z_set(g: Graph, weights: WeightMap, t: int) -> list[tuple[int, int]]:
    """Edges with p(e) + 1 < t; no K_t can contain them."""
    if t < 2:
        raise ValueError(f"clique order must be >= 2, got {t}")
    return [e for e, p in weights.p.items() if p + 1 < t]


def w_set(g: Graph, weights: WeightMap, t: int) -> list[tuple[int, int]]:
    """Edges with c(e) < t; no K_t can contain them."""
    if t < 2:
        raise ValueError(f"clique order must be >= 2, got {t}")
    return [e for e, c in weights.c.items() if c < t]


def _first_non_clique(g: Graph, masks: Iterable[int], size: int | None = None) -> int | None:
    """The first vertex mask that is not a clique of g (on exactly ``size`` vertices, if given), or None."""
    for mask in masks:
        if (size is not None and mask.bit_count() != size) or not is_clique(g, mask):
            return mask
    return None


def _first_non_clique_component(adj: Sequence[int], keep: int) -> int | None:
    """The first component, by smallest member, of the graph ``adj`` induces
    on ``keep`` that is not a clique, as a vertex mask, or None.

    A component is a clique exactly when each of its members has the same
    closed neighbourhood within ``keep``: then that neighbourhood is the
    component. So each component is checked from its smallest member, and
    searched in full only when it fails.
    """
    rest = keep
    while rest:
        low = rest & -rest
        closed = adj[low.bit_length() - 1] & keep | low
        others = closed ^ low
        while others:
            bit = others & -others
            others ^= bit
            if adj[bit.bit_length() - 1] & keep | bit != closed:
                return reachable_within(adj, low, keep) | low
        rest &= ~closed
    return None


def _clique_components_certificate(g: Graph, keep: int, kind: str) -> EqualityCertificate:
    evidence = _first_non_clique_component(g.adj, keep)
    return EqualityCertificate(kind, evidence is None, evidence, g, keep)


def vertex_equality_certificate(g: Graph, t: int) -> EqualityCertificate:
    """Every component of the graph induced on the degree-threshold set is a clique."""
    return _clique_components_certificate(g, x_set(g, t), "vertex")


def vertex_core_certificate(g: Graph, t: int, core: Sequence[int] | None = None) -> EqualityCertificate:
    """Same check on the (t-1)-core, where the reduction is stable.

    The core is read from g's core numbers, {v : core(v) >= t - 1}: from
    ``core`` when given, else from a fresh decomposition.
    """
    core = core_numbers(g) if core is None else core
    keep = sum(1 << v for v, k in enumerate(core) if k >= t - 1)
    return _clique_components_certificate(g, keep, "vertex-core")


def edge_equality_certificate(g: Graph, weights: WeightMap, t: int) -> EqualityCertificate:
    """Every component after deleting short-path edges is a clique (vertices kept)."""
    stripped = delete_edges(g, z_set(g, weights, t))
    return _clique_components_certificate(stripped, stripped.vertex_mask(), "edge")


def cycle_equality_certificate(g: Graph, weights: WeightMap, t: int) -> EqualityCertificate:
    """The graph minus short-cycle edges is a block forest.

    Every block of the stripped graph must be a clique; the evidence is the
    first that is not. When no edge is that short the stripped graph equals
    g, whose blocks ``weights`` already holds.
    """
    short = w_set(g, weights, t)
    stripped = delete_edges(g, short)
    evidence = _first_non_clique(stripped, block_decomposition(stripped) if short else weights.blocks)
    return EqualityCertificate("cycle", evidence is None, evidence, stripped, stripped.vertex_mask())


def classical_certificate(g: Graph, weights: WeightMap, kind: str) -> EqualityCertificate:
    """The certificate of one classical kind: a check of g itself, the same at every order."""
    full = g.vertex_mask()
    if kind == KIND_WOOD:
        size = g.max_degree() + 1
        return EqualityCertificate("wood", is_disjoint_clique_union(g, size), None, g, full, size)
    if kind == KIND_CC_PATH:
        r = classical_path_r(weights, g.m)
        return EqualityCertificate("cc_path", is_clique_union_with_isolated(g, r), None, g, full, r)
    if kind == KIND_CC_CYCLE:
        r = classical_cycle_r(weights)
        return EqualityCertificate("cc_cycle", is_block_forest_of_kr(g, r, weights.blocks), None, g, full, r)
    raise ValueError(f"unknown classical bound kind {kind!r}")


class OrderCertificates:
    """Every certificate of one graph, each built once per reduced graph.

    A reduced graph drops the vertices or edges whose value in a t-free
    table is below a threshold: x_set(g, t) keeps degree >= t - 1, x_core(g, t)
    core number >= t - 1, z_set strips p(e) < t - 1 and w_set c(e) < t. So the
    dropped sets are nested in t, and the number of dropped items, one
    bisection of the sorted table, identifies the reduced graph. A table is
    sorted on the first request for its kind, so a kind never requested
    costs nothing. A classical certificate checks g itself: its table is
    empty, so its one key is built on first request. A builder runs only on
    an unseen key; every order with that key gets the same certificate.
    """

    def __init__(self, g: Graph, weights: WeightMap) -> None:
        core = cache(lambda: core_numbers(g))  # one decomposition: the table and every keep set
        # kind: (t-free values, threshold offset, lowest order, builder of order t)
        self._rows: dict[str, tuple[Callable[[], Iterable[int]], int, int, Callable[[int], EqualityCertificate]]]
        self._rows = {
            KIND_LOCAL_VERTEX: (g.degrees, -1, 1, lambda t: vertex_equality_certificate(g, t)),
            "vertex-core": (core, -1, 1, lambda t: vertex_core_certificate(g, t, core())),
            KIND_LOCAL_EDGE_PATH: (weights.p.values, -1, 2, lambda t: edge_equality_certificate(g, weights, t)),
            KIND_LOCAL_EDGE_CYCLE: (weights.c.values, 0, 2, lambda t: cycle_equality_certificate(g, weights, t)),
        }
        for kind, lowest in ((KIND_WOOD, 1), (KIND_CC_PATH, 2), (KIND_CC_CYCLE, 2)):
            self._rows[kind] = (tuple, 0, lowest, lambda t, kind=kind: classical_certificate(g, weights, kind))
        self._tables: dict[str, list[int]] = {}
        self._built: dict[tuple[str, int], EqualityCertificate] = {}

    def of(self, kind: str, t: int) -> EqualityCertificate:
        """The certificate of a per-order bound kind at order t."""
        values, offset, lowest, build = self._rows[kind]
        if t < lowest:
            raise ValueError(f"clique order must be >= {lowest}, got {t}")
        table = self._tables.get(kind)
        if table is None:
            table = self._tables[kind] = sorted(values())
        key = bisect_left(table, t + offset)
        cert = self._built.get((kind, key))
        if cert is None:
            cert = self._built[kind, key] = build(t)
        return cert


def cross_validate(vertex: BoundReport, core_cert: EqualityCertificate) -> BoundReport:
    """The local_vertex report of one graph at one order, tested on its (t-1)-core.

    ``vertex`` is the local_vertex report already evaluated at that order,
    ``core_cert`` the graph's vertex-core certificate there. The core's
    local_vertex bound, (1/t) * sum C(d(v), t-1) over its vertices, is read
    from the certificate's view: d(v) is v's degree within the kept set.
    """
    t, adj, keep = vertex.t, core_cert.graph.adj, core_cert.keep
    # each degree and t - 1 are >= 0, and math.comb gives C(d, t - 1) = 0 for d < t - 1
    comb, b, total, rest = math.comb, t - 1, 0, keep
    while rest:
        low = rest & -rest
        total += comb((adj[low.bit_length() - 1] & keep).bit_count(), b)
        rest ^= low
    return make_report(KIND_LOCAL_VERTEX, t, vertex.count, Fraction(total, t), core_cert)


def conjecture_verdict(report: BoundReport) -> str:
    """Equality versus certificate of an evaluated report of a ``VERDICT_KINDS`` kind.

    Below the order from which the paper claims the characterization (t = 2
    for the vertex core, t = 3 for the edge-path one and the cycle
    conjecture) the verdict is "exempt".
    """
    if report.t < VERDICT_KINDS[report.kind]:
        return VERDICT_EXEMPT
    if report.equality != report.certificate.holds:
        return VERDICT_DISCREPANCY
    return VERDICT_BOTH_HOLD if report.equality else VERDICT_BOTH_FAIL


def is_disjoint_clique_union(g: Graph, size: int) -> bool:
    """True iff every component is a clique on exactly ``size`` vertices."""
    return _first_non_clique(g, connected_components(g), size) is None


def is_clique_union_with_isolated(g: Graph, size: int) -> bool:
    """True iff every component is either K_size or an isolated vertex."""
    return _first_non_clique(g, (comp for comp in connected_components(g) if comp.bit_count() > 1), size) is None


def is_block_forest_of_kr(g: Graph, r: int, blocks: list[int]) -> bool:
    """True iff every block of g, as vertex masks, is a clique on exactly r vertices (isolated vertices allowed)."""
    return _first_non_clique(g, blocks, r) is None


def is_block_forest(g: Graph, blocks: list[int]) -> bool:
    """True iff every block of g, as vertex masks, induces a clique."""
    return _first_non_clique(g, blocks) is None
