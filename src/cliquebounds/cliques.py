"""Exact clique counting: totals, per-vertex, and per-edge tallies.

The main counter extends cliques by ascending vertex id with bitset
intersections, so each K_t is visited exactly once as an increasing tuple.
Counts are plain Python ints and therefore never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, induced_subgraph


@dataclass
class CliqueCounts:
    """Counts of K_t subgraphs: total, through each vertex, through each edge."""

    t: int
    total: int
    per_vertex: tuple[int, ...]
    per_edge: dict[tuple[int, int], int]


def count_cliques(g: Graph, t: int) -> CliqueCounts:
    """Count the K_t subgraphs of g exactly.

    t=1 counts vertices; t > n yields zero everywhere.
    """
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    per_edge = {e: 0 for e in g.edges()}
    if t == 1:
        return CliqueCounts(1, g.n, tuple([1] * g.n), per_edge)
    per_vertex = [0] * g.n
    total = 0
    adj = g.adj
    members: list[int] = []

    def extend(cand: int, need: int) -> None:
        nonlocal total
        if need == 0:
            total += 1
            for v in members:
                per_vertex[v] += 1
            for i, u in enumerate(members):
                for w in members[i + 1 :]:
                    per_edge[(u, w)] += 1
            return
        while cand.bit_count() >= need:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            members.append(v)
            extend(cand & adj[v], need - 1)
            members.pop()

    extend(g.vertex_mask(), t)
    return CliqueCounts(t, total, tuple(per_vertex), per_edge)


def clique_census(g: Graph) -> dict[int, int]:
    """The K_t count for every order t = 1..n, from a single clique-tree pass."""
    totals = [0] * (g.n + 1)
    adj = g.adj

    def grow(cand: int, size: int) -> None:
        totals[size] += 1
        while cand:
            low = cand & -cand
            cand ^= low
            grow(cand & adj[low.bit_length() - 1], size + 1)

    grow(g.vertex_mask(), 0)
    return {t: totals[t] for t in range(1, g.n + 1)}


def count_all_cliques(g: Graph) -> int:
    """Number of non-empty cliques of any order (sum of K_t counts over t >= 1)."""
    return sum(clique_census(g).values())


def cliques_through_vertex(g: Graph, x: int, t: int) -> int:
    """Number of K_t containing vertex x, via K_{t-1} counting in G[N(x)]."""
    if not (0 <= x < g.n):
        raise GraphError(f"vertex {x} not in graph")
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    if t == 1:
        return 1
    sub, _ = induced_subgraph(g, g.adj[x])
    return count_cliques(sub, t - 1).total


def common_neighbors(g: Graph, e: tuple[int, int]) -> int:
    """w(e): the number of common neighbors of the endpoints of edge e."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    return (g.adj[u] & g.adj[v]).bit_count()
