"""Slow, independent reference implementations used to cross-check the fast paths.

These deliberately share no code with the production counters: cliques are
found by testing every vertex subset, and path/cycle weights come from a
subset dynamic program over (vertex set, endpoint) states. Both are exported
so the CLI can run the same cross-checks the test suite runs, but they are
capped well below the production limits. The canonical-labeling oracle shares
only the vertex refinement, which defines the canonical form; it tries every
order the refinement allows, with no pruning. The local certificate oracles
share only the threshold sets, which define the reduced graphs: they build
each reduced graph, relabelled, and test its components one by one. The
cycle rules reference finds each chord's neighbours on the cycle through
successor and predecessor maps and each crossover's indices by search; it
shares only ``_crossover``, which has tests of its own.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial, prod

from .certificates import EqualityCertificate, x_core, x_set, z_set
from .cliques import CliqueCounts
from .enumeration import _refined_classes
from .graph import Graph, connected_components, delete_edges, induced_subgraph, is_clique, iter_bits
from .weights import Bounds, CapExceededError, WeightMap, _crossover, block_decomposition

NAIVE_CLIQUE_CAP = 10
DP_WEIGHT_CAP = 15
PRODUCT_CANONICAL_CAP = 40_320  # vertex orders tried; 8!, so it covers every graph on n <= 8


def _check_cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise CapExceededError(f"{what} oracle supports n <= {cap}, got n={g.n}")


def naive_count_cliques(g: Graph, t: int) -> CliqueCounts:
    """Count K_t by testing all C(n, t) vertex subsets for completeness."""
    _check_cap(g, NAIVE_CLIQUE_CAP, "subset clique")
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    per_vertex = [0] * g.n
    per_edge = {e: 0 for e in g.edges()}
    total = 0
    for subset in combinations(range(g.n), t):
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            total += 1
            for v in subset:
                per_vertex[v] += 1
            for u, v in combinations(subset, 2):
                per_edge[(u, v)] += 1
    return CliqueCounts(t, total, tuple(per_vertex), per_edge)


def naive_count_all_cliques(g: Graph) -> int:
    return sum(naive_count_cliques(g, t).total for t in range(1, g.n + 1))


def _end_table(g: Graph) -> list[int]:
    """ends[S] = bitmask of vertices a such that some simple path with vertex
    set exactly S ends at a."""
    n = g.n
    ends = [0] * (1 << n)
    for v in range(n):
        ends[1 << v] = 1 << v
    for s in range(1, 1 << n):
        reach = ends[s]
        if not reach:
            continue
        for a in iter_bits(reach):
            for b in iter_bits(g.adj[a] & ~s):
                ends[s | (1 << b)] |= 1 << b
    return ends


def _best_subpath_table(ends: list[int], n: int, a: int) -> list[int]:
    """h[S] = max |T| over T subseteq S with a path on vertex set T ending at a."""
    size = 1 << n
    h = [0] * size
    abit = 1 << a
    for s in range(size):
        if not s & abit:
            continue
        best = s.bit_count() if (ends[s] & abit) else 0
        for i in iter_bits(s & ~abit):
            prev = h[s ^ (1 << i)]
            if prev > best:
                best = prev
        h[s] = best
    return h


def _start_table(adj: list[int], n: int, u: int) -> list[int]:
    """frm[S] = endpoint bitmask over simple paths starting at u with vertex set S."""
    frm = [0] * (1 << n)
    frm[1 << u] = 1 << u
    for s in range(1 << n):
        reach = frm[s]
        if not reach:
            continue
        for a in iter_bits(reach):
            for b in iter_bits(adj[a] & ~s):
                frm[s | (1 << b)] |= 1 << b
    return frm


def _p_from_tables(g: Graph, ends: list[int], h_v: list[int], u: int, v: int) -> int:
    """p(uv): a u-arm on vertex set S joined by uv to the longest v-arm outside S."""
    full = g.vertex_mask()
    ubit, vbit = 1 << u, 1 << v
    best = 1
    for s in range(1 << g.n):
        if not s & ubit or s & vbit:
            continue
        if not (ends[s] & ubit):
            continue
        other = h_v[full & ~s]
        if other:
            cand = s.bit_count() + other - 1
            if cand > best:
                best = cand
    return best


def _c_from_start_table(frm: list[int], n: int, v: int) -> int:
    """c(uv): 1 + the longest u-v path of length >= 2, or 2 if none exists."""
    # A u-v path of length >= 2 never uses the edge uv itself, so the start
    # table of the unmodified graph suffices; |S| = 2 is exactly the edge.
    vbit = 1 << v
    best = 0
    for s in range(1 << n):
        if frm[s] & vbit and s.bit_count() >= 3:
            length = s.bit_count() - 1
            if length > best:
                best = length
    return best + 1 if best else 2


def dp_all_weights(g: Graph) -> WeightMap:
    """Oracle WeightMap from the subset DP, sharing tables across edges."""
    _check_cap(g, DP_WEIGHT_CAP, "weight map")
    ends = _end_table(g)
    h_tables = {v: _best_subpath_table(ends, g.n, v) for v in range(g.n)}
    start_tables: dict[int, list[int]] = {}
    adj = list(g.adj)
    p = {}
    c = {}
    for u, v in g.edges():
        p[(u, v)] = _p_from_tables(g, ends, h_tables[v], u, v)
        if u not in start_tables:
            start_tables[u] = _start_table(adj, g.n, u)
        c[(u, v)] = _c_from_start_table(start_tables[u], g.n, v)
    longest_path = max(p.values(), default=0)
    circumference = max((x for x in c.values() if x >= 3), default=0)
    # The blocks are not what this oracle checks; tests compare them with networkx.
    return WeightMap(p, c, longest_path, circumference, block_decomposition(g))


def reference_cycle_rules(adj: list[int], p: Bounds, c: Bounds, cycle: list[int], queue: list[list[int]]) -> None:
    """Oracle ``weights._cycle_rules``: the same raises of p and c, and the same
    crossovers queued in the same order, with each chord's neighbours on the
    cycle looked up in maps and each orientation taken from a tuple."""
    length = len(cycle)
    mask = 0
    for x in cycle:
        mask |= 1 << x
    ring = cycle + cycle[:1]
    succ = dict(zip(cycle, ring[1:]))
    pred = dict(zip(ring[1:], cycle))
    reverse = cycle[::-1]
    for x in cycle:
        sx, px = succ[x], pred[x]
        # each chord once, from its lower end
        chords = adj[x] & mask & ~((1 << sx) | (1 << px)) & ~((1 << x) - 1)
        while chords:
            low = chords & -chords
            chords ^= low
            y = low.bit_length() - 1
            if p[x, y] < length - 1:
                p[x, y] = length - 1
            for order, a, b in ((cycle, sx, succ[y]), (reverse, px, pred[y])):
                if not adj[a] >> b & 1:
                    continue
                key = (a, b) if a < b else (b, a)
                if c[x, y] < length or c[key] < length:
                    c[x, y] = max(c[x, y], length)
                    c[key] = max(c[key], length)
                    queue.append(_crossover(order, order.index(x), order.index(y)))


def product_canonical_graph(g: Graph) -> Graph:
    """Oracle ``canonical_graph``: the least upper-triangle bit string in graph6
    column order over the full product of permutations within each refined
    class, then g relabeled by that order."""
    n = g.n
    if n <= 1:
        return g
    classes = _refined_classes(g)
    orders = prod(factorial(len(c)) for c in classes)
    if orders > PRODUCT_CANONICAL_CAP:
        raise CapExceededError(
            f"canonical labeling oracle tries at most {PRODUCT_CANONICAL_CAP} vertex orders, "
            f"got {orders} (n={n})"
        )
    adj = g.adj
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best_val: int | None = None
    best_order: list[int] = []
    for groups in product(*(permutations(c) for c in classes)):
        order = [v for group in groups for v in group]
        val = 0
        for i, j in pairs:
            val = (val << 1) | ((adj[order[i]] >> order[j]) & 1)
        if best_val is None or val < best_val:
            best_val, best_order = val, order
    rows = tuple(
        sum(1 << j for j in range(n) if (adj[best_order[i]] >> best_order[j]) & 1) for i in range(n)
    )
    return Graph._raw(n, rows, g.m)


def _materialised_certificate(reduced: Graph, id_map: tuple[int, ...] | None, kind: str) -> EqualityCertificate:
    evidence = next((comp for comp in connected_components(reduced) if not is_clique(reduced, comp)), None)
    if evidence is not None and id_map is not None:
        evidence = sum(1 << id_map[i] for i in iter_bits(evidence))
    return EqualityCertificate(kind, evidence is None, evidence, reduced, reduced.vertex_mask())


def materialised_vertex_certificate(g: Graph, t: int) -> EqualityCertificate:
    """Oracle ``vertex_equality_certificate``: the components of the graph
    induced on the degree-threshold set, built and relabelled."""
    return _materialised_certificate(*induced_subgraph(g, x_set(g, t)), "vertex")


def materialised_vertex_core_certificate(g: Graph, t: int) -> EqualityCertificate:
    """Oracle ``vertex_core_certificate``: the components of the (t-1)-core, built and relabelled."""
    return _materialised_certificate(*induced_subgraph(g, x_core(g, t)), "vertex-core")


def materialised_edge_certificate(g: Graph, weights: WeightMap, t: int) -> EqualityCertificate:
    """Oracle ``edge_equality_certificate``: the components of g minus its short-path edges."""
    return _materialised_certificate(delete_edges(g, z_set(g, weights, t)), None, "edge")
