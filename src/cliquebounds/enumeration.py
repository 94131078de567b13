"""Non-isomorphic graph enumeration, canonical labeling, and random models.

The canonical form is the lexicographically smallest upper-triangle adjacency
bit string (graph6 column order) over the vertex orders compatible with an
iterated neighbor-color refinement, which starts from the degree partition
and ranks colors lexicographically. The refinement is isomorphism-invariant,
so the restricted minimum still labels isomorphism classes uniquely. The
minimum is found by a depth-first search over positions: placing a vertex
fixes one graph6 column, so a prefix already greater than the best one is
dropped, and of two twins (vertices whose swap is an automorphism) only one
is tried at a position.

Built-in enumeration grows graphs one vertex at a time (canonical deletion,
B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
An extension of a parent class by a new vertex is kept only when the new
vertex has maximum degree and lies in the last refined class; every class
has such an extension, because deleting a vertex of its last class leaves a
parent. The survivors are labeled and deduplicated by canonical form.
Anything beyond the small-n cap should come from an external enumerator as a
graph6 stream.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .graph import Graph, GraphError, check_vertex_count, iter_bits, write_graph6
from .weights import CapExceededError

CANONICAL_CAP = 10
ENUMERATION_CAP = 8


def _refined_classes(g: Graph) -> list[list[int]]:
    """Vertex classes under iterated (color, sorted neighbor colors) refinement.

    Colors are ranked lexicographically, starting from the degrees, so each
    class refines one degree class and the last class has maximum degree.
    """
    n = g.n
    neighbours = [list(iter_bits(row)) for row in g.adj]
    colors = [len(nbrs) for nbrs in neighbours]
    nclasses = len(set(colors))
    while nclasses < n:
        # Flat (color, *sorted neighbor colors) tuples order as the nested ones.
        sigs = [(colors[v], *sorted([colors[u] for u in neighbours[v]])) for v in range(n)]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [ranking[sig] for sig in sigs]
        if len(ranking) == nclasses:
            break
        nclasses = len(ranking)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    return [classes[color] for color in sorted(classes)]


def _canonical_order(adj: tuple[int, ...], classes: list[list[int]]) -> tuple[list[int], int]:
    """The vertex order that relabels ``adj`` to its canonical form, and the
    number of search leaves reached.

    A depth-first search fills positions 0..n-1 from the refined classes in
    order. Placing a vertex at position k fixes graph6 column k, so a branch
    whose columns so far exceed the best order's is dropped. Among the
    candidates for one position, v is skipped when an already-tried t is its
    twin (equal neighbourhoods apart from each other): swapping t and v is an
    automorphism fixing the placed prefix, so v's subtree repeats t's strings.
    """
    n = len(adj)
    pool: list[int] = []  # pool[k]: mask of the class that fills position k
    for c in classes:
        pool += [sum(1 << v for v in c)] * len(c)
    unset = 1 << n  # above every column value
    best = [unset] * n
    order = [0] * n
    best_order = order
    leaves = 0

    def place(k: int, free: int) -> None:
        nonlocal best_order, leaves
        if k == n:
            # Every column is <= the best's, and a smaller one reset those
            # after it: this order is the best so far, or ties it.
            leaves += 1
            best_order = order[:]
            return
        tried: list[tuple[int, int]] = []
        for v in iter_bits(pool[k] & free):
            row = adj[v]
            if any(trow & ~(1 << v) == row & ~(1 << t) for t, trow in tried):
                continue
            tried.append((v, row))
            col = 0
            for u in order[:k]:
                col = (col << 1) | ((adj[u] >> v) & 1)
            if col > best[k]:
                continue
            if col < best[k]:
                best[k] = col
                best[k + 1:] = [unset] * (n - 1 - k)
            order[k] = v
            place(k + 1, free & ~(1 << v))

    place(0, (1 << n) - 1)
    return best_order, leaves


def canonical_graph(g: Graph, classes: list[list[int]] | None = None) -> Graph:
    """The canonically relabeled copy of g.

    ``classes`` is ``_refined_classes(g)`` when the caller has computed it
    already. Twins keep the search small: K10 and the empty graph on 10
    vertices reach one search leaf, K5,5 two. Regular graphs on 10 vertices
    without twins are the slowest seen, with a few thousand leaves (the
    Petersen graph up to 4,601, random 3- and 4-regular graphs up to 8,336,
    about 0.1 s). Pruning by the automorphisms the search finds would remove
    most of those leaves.
    """
    if g.n > CANONICAL_CAP:
        raise CapExceededError(f"canonical labeling supports n <= {CANONICAL_CAP}, got n={g.n}")
    n = g.n
    if n <= 1:
        return g
    adj = g.adj
    best_order, _ = _canonical_order(adj, _refined_classes(g) if classes is None else classes)
    rows = []
    for i in range(n):
        row = 0
        src = adj[best_order[i]]
        for j in range(n):
            if (src >> best_order[j]) & 1:
                row |= 1 << j
        rows.append(row)
    return Graph._raw(n, tuple(rows), g.m)


def canonical_form(g: Graph) -> str:
    """Canonical label: graph6 of the canonically relabeled graph.

    Two graphs have equal labels iff they are isomorphic.
    """
    return write_graph6(canonical_graph(g))


def _check_order(n: int) -> None:
    if n < 0:
        raise GraphError(f"vertex count must be >= 0, got {n}")
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"built-in enumeration supports n <= {ENUMERATION_CAP}; "
            "for larger n, stream graph6 lines from an external enumerator"
        )


def enumerate_graphs(n: int, parents: list[Graph] | None = None) -> list[Graph]:
    """One canonical representative per isomorphism class on n vertices.

    Returned in ascending canonical-graph6 order. Each class on n vertices
    extends a class on n - 1 vertices by one vertex: ``parents`` are those
    classes as this function returns them, and they are enumerated first when
    omitted. For n beyond the built-in cap, pipe graph6 output from an
    external enumerator instead.
    """
    _check_order(n)
    if n <= 1:
        return [Graph(n, [0] * n)]
    if parents is None:
        parents = enumerate_graphs(n - 1)
    level: dict[tuple[int, ...], Graph] = {}  # keyed by canonical adjacency rows
    newbit = 1 << (n - 1)
    for g in parents:
        if g.n != n - 1:
            raise ValueError(f"parents of {n}-vertex graphs have {n - 1} vertices, got {g.n}")
        degrees = g.degrees()
        top = max(degrees)
        top_mask = sum(1 << v for v in range(n - 1) if degrees[v] == top)
        for subset in range(newbit):
            d = subset.bit_count()
            # The new vertex must have maximum degree: no old vertex may end
            # with more than d neighbours.
            if d < top or (d == top and subset & top_mask):
                continue
            rows = list(g.adj)
            for v in iter_bits(subset):
                rows[v] |= newbit
            rows.append(subset)
            candidate = Graph._raw(n, tuple(rows), g.m + d)
            classes = _refined_classes(candidate)
            if classes[-1][-1] != n - 1:  # the new vertex must be in the last class
                continue
            canon = canonical_graph(candidate, classes)
            level.setdefault(canon.adj, canon)
    return sorted(level.values(), key=write_graph6)


def enumerate_levels(ns: Iterable[int]) -> Iterator[list[Graph]]:
    """``enumerate_graphs(n)`` for each n in ``ns``, in that order, building
    each level once from the level below it. Every n is checked first."""
    ns = tuple(ns)
    for n in ns:
        _check_order(n)
    levels = [enumerate_graphs(0)]  # levels[k]: the classes on k vertices
    for n in ns:
        while len(levels) <= n:
            levels.append(enumerate_graphs(len(levels), levels[-1]))
        yield levels[n]


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), reproducible for a fixed seed."""
    check_vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    m = sum(r.bit_count() for r in rows) // 2
    return Graph._raw(n, tuple(rows), m)


def random_regular(n: int, d: int, seed: int, max_tries: int = 10000) -> Graph:
    """Random d-regular graph via the pairing model, retried until simple."""
    check_vertex_count(n)
    if d < 0 or d >= n:
        raise ValueError(f"degree {d} infeasible for n={n}")
    if (n * d) % 2:
        raise ValueError(f"degree sequence infeasible: n*d = {n * d} is odd")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(max_tries):
        rng.shuffle(stubs)
        rows = [0] * n
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (rows[u] >> v) & 1:
                ok = False
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if ok:
            return Graph._raw(n, tuple(rows), n * d // 2)
    raise ValueError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def random_graph(model: str, n: int, params: dict, seed: int) -> Graph:
    """Dispatch for the supported random models: ``gnp`` and ``regular``."""
    if model == "gnp":
        return random_gnp(n, float(params["p"]), seed)
    if model == "regular":
        return random_regular(n, int(params["d"]), seed)
    raise ValueError(f"unknown random model {model!r} (expected 'gnp' or 'regular')")
