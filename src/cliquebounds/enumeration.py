"""Non-isomorphic graph enumeration, canonical labeling, and random models.

The canonical form is the lexicographically smallest upper-triangle adjacency
bit string over vertex permutations, restricted to permutations compatible
with an iterated neighbor-color refinement (which starts from the degree
partition). The refinement is isomorphism-invariant, so the restricted
minimum still labels isomorphism classes uniquely while pruning most of the
factorial search. Built-in exhaustive enumeration grows graphs one vertex at
a time and dedupes by canonical form; anything beyond the small-n cap should
come from an external enumerator as a graph6 stream.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from typing import Iterable, Iterator

from .graph import Graph, GraphError, check_vertex_count, iter_bits, write_graph6
from .weights import CapExceededError

CANONICAL_CAP = 10
ENUMERATION_CAP = 8


def _refined_classes(g: Graph) -> list[list[int]]:
    """Vertex classes under iterated (color, sorted neighbor colors) refinement."""
    n = g.n
    colors = [g.degree(v) for v in range(n)]
    nclasses = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(g.adj[v]))))
            for v in range(n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_colors = [ranking[sigs[v]] for v in range(n)]
        new_nclasses = len(ranking)
        if new_nclasses == nclasses:
            colors = new_colors
            break
        colors, nclasses = new_colors, new_nclasses
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    return [classes[color] for color in sorted(classes)]


def _pair_order(n: int) -> list[tuple[int, int]]:
    # Upper triangle in graph6 column order, so the minimal bit string and the
    # minimal graph6 data section coincide.
    return [(i, j) for j in range(1, n) for i in range(j)]


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g."""
    if g.n > CANONICAL_CAP:
        raise CapExceededError(f"canonical labeling supports n <= {CANONICAL_CAP}, got n={g.n}")
    n = g.n
    if n <= 1:
        return g
    adj = g.adj
    pairs = _pair_order(n)
    best_val: int | None = None
    best_order: tuple[int, ...] | None = None
    class_perms = [permutations(c) for c in _refined_classes(g)]
    for groups in product(*class_perms):
        order = [v for group in groups for v in group]
        val = 0
        for i, j in pairs:
            val = (val << 1) | ((adj[order[i]] >> order[j]) & 1)
        if best_val is None or val < best_val:
            best_val = val
            best_order = tuple(order)
    assert best_order is not None
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
        for subset in range(newbit):
            rows = list(g.adj)
            for v in iter_bits(subset):
                rows[v] |= newbit
            rows.append(subset)
            canon = canonical_graph(Graph._raw(n, tuple(rows), g.m + subset.bit_count()))
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
