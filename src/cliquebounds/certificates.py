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
first-class outcome, not an error. Each certificate keeps the graph it was
checked on and encodes it as graph6 only when rendered.

``OrderCertificates`` serves the certificate of every per-order bound kind
from one table. Each local certificate depends on t only through its
reduced graph, and the reduced graphs of one graph are nested in t, so each
reduced graph's key comes from a t-free table (the degrees, the core numbers
of one core decomposition, the sorted p(e) and c(e)), built on the first
request for its kind, and a builder (``vertex_equality_certificate`` and its
three siblings, which stay the per-t oracle) runs only on an unseen key. The
three classical certificates (``classical_certificate``) check g itself and
are built once per graph. Every structure check, a component or a block
being a clique (on exactly r vertices), is one loop, ``_first_non_clique``.

``conjecture_verdict`` and ``cross_validate`` decide the verdicts from
reports that were already evaluated (see ``search.evaluate_graph``); they
count nothing and build no certificate: the caller passes the vertex-core
certificate in. The edge-path and cycle verdicts follow one rule,
``conjecture_verdict``: equality against certificate. For the vertex side
the threshold deletion is iterated to its fixed point (the (t-1)-core)
before the equality/certificate pair is compared: one deletion round can
drop surviving degrees below the threshold again, and the characterization
is only meaningful once the graph is stable under the reduction; the
report itself carries the unreduced pair. The core needs no recount: every
K_t lies inside the (t-1)-core, because each of its vertices has t-1
neighbours in it, so the core's K_t count is g's.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .bounds import (
    KIND_CC_CYCLE, KIND_CC_PATH, KIND_LOCAL_EDGE_CYCLE, KIND_LOCAL_EDGE_PATH, KIND_LOCAL_VERTEX, KIND_WOOD, BoundReport,
    classical_cycle_r, classical_path_r, equals_count, local_vertex_bound,
)
from .graph import Graph, connected_components, delete_edges, induced_subgraph, is_clique, iter_bits, write_graph6
from .weights import BlockDecomposition, WeightMap, block_decomposition, block_vertex_sets

VERDICT_BOTH_HOLD = "both-hold"
VERDICT_BOTH_FAIL = "both-fail"
VERDICT_DISCREPANCY = "discrepancy"
VERDICT_EXEMPT = "exempt"

# The kinds whose verdict is their report's conjecture_verdict, in finding
# order; the local_vertex verdict, from cross_validate, comes first.
VERDICT_KINDS = (KIND_LOCAL_EDGE_PATH, KIND_LOCAL_EDGE_CYCLE)


@dataclass
class EqualityCertificate:
    """Outcome of one structural extremality check."""

    kind: str
    holds: bool
    evidence: int | None  # offending component/block as a vertex bitmask, original ids
    reduced: Graph  # the graph the check ran on
    description: str
    reduced_graph6: str | None = field(default=None, compare=False)  # when the caller has it already

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "holds": self.holds,
            "evidence": sorted(iter_bits(self.evidence)) if self.evidence is not None else None,
            "reduced_graph6": self.reduced_graph6 if self.reduced_graph6 is not None else write_graph6(self.reduced),
            "description": self.description,
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


_DESCRIPTIONS = {
    "vertex": "components of induced subgraph on degree >= {d} vertices",
    "vertex-core": "components of the {d}-core",
    "edge": "components after deleting edges with p(e)+1 < {t}",
    "cycle": "block structure after deleting edges with c(e) < {t}",
}


def _describe(kind: str, t: int) -> str:
    return _DESCRIPTIONS[kind].format(d=t - 1, t=t)


def _first_non_clique(g: Graph, masks: Iterable[int], size: int | None = None) -> int | None:
    """The first vertex mask that is not a clique of g (on exactly ``size`` vertices, if given), or None."""
    for mask in masks:
        if (size is not None and mask.bit_count() != size) or not is_clique(g, mask):
            return mask
    return None


def _clique_components_certificate(
    reduced: Graph, id_map: tuple[int, ...] | None, kind: str, description: str
) -> EqualityCertificate:
    evidence = _first_non_clique(reduced, connected_components(reduced))
    if evidence is not None and id_map is not None:
        evidence = sum(1 << id_map[i] for i in iter_bits(evidence))
    return EqualityCertificate(kind, evidence is None, evidence, reduced, description)


def vertex_equality_certificate(g: Graph, t: int) -> EqualityCertificate:
    """Every component of the graph induced on the degree-threshold set is a clique."""
    keep = x_set(g, t)
    reduced, id_map = induced_subgraph(g, keep)
    return _clique_components_certificate(reduced, id_map, "vertex", _describe("vertex", t))


def vertex_core_certificate(g: Graph, t: int) -> EqualityCertificate:
    """Same check on the (t-1)-core, where the reduction is stable."""
    keep = x_core(g, t)
    reduced, id_map = induced_subgraph(g, keep)
    return _clique_components_certificate(reduced, id_map, "vertex-core", _describe("vertex-core", t))


def edge_equality_certificate(g: Graph, weights: WeightMap, t: int) -> EqualityCertificate:
    """Every component after deleting short-path edges is a clique (vertices kept)."""
    stripped = delete_edges(g, z_set(g, weights, t))
    return _clique_components_certificate(stripped, None, "edge", _describe("edge", t))


def cycle_equality_certificate(g: Graph, weights: WeightMap, t: int) -> EqualityCertificate:
    """The graph minus short-cycle edges is a block forest.

    When no edge is that short the stripped graph equals g, whose blocks
    ``weights`` already holds.
    """
    short = w_set(g, weights, t)
    stripped = delete_edges(g, short)
    decomp = block_decomposition(stripped) if short else weights.blocks
    evidence = _first_non_clique(stripped, block_vertex_sets(decomp))
    return EqualityCertificate("cycle", evidence is None, evidence, stripped, _describe("cycle", t))


def classical_certificate(g: Graph, weights: WeightMap, kind: str, graph6: str | None = None) -> EqualityCertificate:
    """The certificate of one classical kind: a check of g itself, the same at every order.

    ``graph6``, if given, is g's graph6.
    """
    if kind == KIND_WOOD:
        size = g.max_degree() + 1
        return EqualityCertificate(
            "wood", is_disjoint_clique_union(g, size), None, g, f"disjoint union of cliques on {size} vertices", graph6
        )
    if kind == KIND_CC_PATH:
        r = classical_path_r(weights, g.m)
        return EqualityCertificate(
            "cc_path", is_clique_union_with_isolated(g, r), None, g,
            f"disjoint union of cliques on {r} vertices plus isolated vertices", graph6,
        )
    if kind == KIND_CC_CYCLE:
        r = classical_cycle_r(weights)
        return EqualityCertificate(
            "cc_cycle", is_block_forest_of_kr(g, r, weights.blocks), None, g,
            f"block forest with every block a clique on {r} vertices", graph6,
        )
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
    an unseen key; an order whose key was seen gets that certificate with its
    own description.
    """

    def __init__(self, g: Graph, weights: WeightMap, graph6: str | None = None) -> None:
        # kind: (certificate name, t-free values, threshold offset, lowest order, builder of order t)
        self._rows: dict[str, tuple[str, Callable[[], Iterable[int]], int, int, Callable[[int], EqualityCertificate]]]
        self._rows = {
            KIND_LOCAL_VERTEX: ("vertex", g.degrees, -1, 1, lambda t: vertex_equality_certificate(g, t)),
            "vertex-core": ("vertex-core", lambda: core_numbers(g), -1, 1, lambda t: vertex_core_certificate(g, t)),
            KIND_LOCAL_EDGE_PATH: (
                "edge", weights.p.values, -1, 2, lambda t: edge_equality_certificate(g, weights, t)
            ),
            KIND_LOCAL_EDGE_CYCLE: (
                "cycle", weights.c.values, 0, 2, lambda t: cycle_equality_certificate(g, weights, t)
            ),
        }
        for kind, name, lowest in ((KIND_WOOD, "wood", 1), (KIND_CC_PATH, "cc_path", 2), (KIND_CC_CYCLE, "cc_cycle", 2)):
            self._rows[kind] = (name, tuple, 0, lowest, lambda t, kind=kind: classical_certificate(g, weights, kind, graph6))
        self._tables: dict[str, list[int]] = {}
        self._built: dict[tuple[str, int], EqualityCertificate] = {}

    def of(self, kind: str, t: int) -> EqualityCertificate:
        """The certificate of a per-order bound kind at order t."""
        name, values, offset, lowest, build = self._rows[kind]
        if t < lowest:
            raise ValueError(f"clique order must be >= {lowest}, got {t}")
        table = self._tables.get(kind)
        if table is None:
            table = self._tables[kind] = sorted(values())
        key = bisect_left(table, t + offset)
        cert = self._built.get((kind, key))
        if cert is None:
            cert = self._built[kind, key] = build(t)
        elif name in _DESCRIPTIONS:
            cert = EqualityCertificate(name, cert.holds, cert.evidence, cert.reduced, _describe(name, t))
        return cert

    def vertex_core(self, t: int) -> EqualityCertificate:
        return self.of("vertex-core", t)


def _verdict(equality: bool, certificate: bool) -> str:
    if equality and certificate:
        return VERDICT_BOTH_HOLD
    if not equality and not certificate:
        return VERDICT_BOTH_FAIL
    return VERDICT_DISCREPANCY


@dataclass
class CrossValidation:
    """The vertex characterization at one t, tested on the (t-1)-core.

    The paper claims it for t >= 2, so below that the verdict is "exempt".
    """

    vertex_core: Graph
    vertex_core_bound: Fraction
    vertex_core_equality: bool
    vertex_core_certificate: bool
    vertex_verdict: str


def cross_validate(vertex: BoundReport, core_cert: EqualityCertificate) -> CrossValidation:
    """Test the vertex characterization on one graph at one clique order.

    ``vertex`` is the local_vertex report already evaluated at that order,
    ``core_cert`` the graph's vertex-core certificate there.
    """
    core_bound = local_vertex_bound(core_cert.reduced, vertex.t)
    core_equality = equals_count(vertex.count, core_bound)
    verdict = _verdict(core_equality, core_cert.holds) if vertex.t >= 2 else VERDICT_EXEMPT
    return CrossValidation(core_cert.reduced, core_bound, core_equality, core_cert.holds, verdict)


def conjecture_verdict(report: BoundReport) -> str:
    """Equality versus the certificate of an evaluated edge-path or cycle report.

    The paper claims the edge-path characterization for t >= 3 and
    conjectures the cycle one there; below t = 3 the verdict is "exempt".
    """
    return _verdict(report.equality, report.certificate.holds) if report.t >= 3 else VERDICT_EXEMPT


def is_disjoint_clique_union(g: Graph, size: int) -> bool:
    """True iff every component is a clique on exactly ``size`` vertices."""
    return _first_non_clique(g, connected_components(g), size) is None


def is_clique_union_with_isolated(g: Graph, size: int) -> bool:
    """True iff every component is either K_size or an isolated vertex."""
    return _first_non_clique(g, (comp for comp in connected_components(g) if comp.bit_count() > 1), size) is None


def is_block_forest_of_kr(g: Graph, r: int, decomp: BlockDecomposition) -> bool:
    """True iff every block of g's decomposition is a clique on exactly r vertices (isolated vertices allowed)."""
    return _first_non_clique(g, block_vertex_sets(decomp), r) is None
