"""Immutable bitset-backed simple graphs with graph6 and edge-list I/O.

Vertices are integers 0..n-1 and every neighbourhood is a single Python int
used as a bitmask, so set algebra on vertex sets is plain integer arithmetic.
The hard cap of 64 vertices keeps one adjacency row inside a machine word on
CPython and keeps the exact path/clique searches downstream honest.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64
GRAPH6_MAX = 62


class GraphError(ValueError):
    """Invalid graph construction or serialization input."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_vertex_count(n: int) -> None:
    if n < 0 or n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")


class Graph:
    """A labeled simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adj: Sequence[int]):
        check_vertex_count(n)
        if len(adj) != n:
            raise GraphError(f"adjacency has {len(adj)} rows for {n} vertices")
        full = (1 << n) - 1
        deg_sum = 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"adjacency row {v} references vertices >= {n}")
            if (row >> v) & 1:
                raise GraphError(f"self-loop at vertex {v}")
            deg_sum += row.bit_count()
        for v in range(n):
            for u in iter_bits(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = tuple(adj)
        self.m = deg_sum // 2

    @classmethod
    def _raw(cls, n: int, adj: tuple[int, ...], m: int) -> "Graph":
        # Fast path for internal call sites that construct valid adjacency.
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g.m = m
        return g

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in iter_bits(rest):
                out.append((u, u + 1 + off))
        return out

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (u, v) pairs.

    Duplicate pairs (in either orientation) collapse to a single edge;
    self-loops and out-of-range ids are rejected with the offending position.
    """
    check_vertex_count(n)
    rows = [0] * n
    for pos, (u, v) in enumerate(edges):
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge {pos}: endpoint ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"edge {pos}: self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    m = sum(r.bit_count() for r in rows) // 2
    return Graph._raw(n, tuple(rows), m)


def parse_edge_list_text(text: str) -> Graph:
    """Parse the plain text format: first line ``n m``, then m lines ``u v``."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"line 1: expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"line 1: expected integers 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise GraphError(f"declared {m} edges but found {len(lines) - 1} edge lines")
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"line {i}: expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"line {i}: expected integers, got {ln!r}") from None
    return from_edge_list(n, edges)


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _graph6_bits(g: Graph) -> list[int]:
    # Upper triangle in column order: (0,1), (0,2), (1,2), (0,3), ...
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    return bits


def check_graph6_order(n: int) -> None:
    if not 0 <= n <= GRAPH6_MAX:
        raise GraphError(f"graph6 short form supports n in 0..{GRAPH6_MAX}, got {n}")


def write_graph6(g: Graph) -> str:
    """Encode in graph6 short form (n <= 62)."""
    check_graph6_order(g.n)
    out = [chr(g.n + 63)]
    bits = _graph6_bits(g)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 short-form line (n <= 62)."""
    line = text.strip()
    if not line:
        raise GraphError("empty graph6 input")
    if line.startswith(">>graph6<<"):
        line = line[10:]
        if not line:
            raise GraphError("no graph after the >>graph6<< header")
    first = ord(line[0])
    if first == 126:
        raise GraphError("byte 0: graph6 long form (n > 62) is not supported")
    n = first - 63
    if not (0 <= n <= GRAPH6_MAX):
        raise GraphError(f"byte 0: invalid vertex-count character {line[0]!r}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(line) - 1 != nbytes:
        raise GraphError(
            f"byte {len(line)}: expected {nbytes} data characters for n={n}, got {len(line) - 1}"
        )
    bits = []
    for k, ch in enumerate(line[1:], start=1):
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise GraphError(f"byte {k}: invalid graph6 character {ch!r}")
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    for extra in bits[nbits:]:
        if extra:
            raise GraphError(f"byte {len(line) - 1}: nonzero padding bits")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    m = sum(r.bit_count() for r in rows) // 2
    return Graph._raw(n, tuple(rows), m)


def induced_subgraph(g: Graph, vertices: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on a vertex bitmask.

    Vertices are relabeled 0..k-1 in ascending original order; the returned
    map sends new id i to its original id.
    """
    if vertices & ~g.vertex_mask():
        raise GraphError("vertex set contains ids outside the graph")
    keep = list(iter_bits(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for u in iter_bits(g.adj[v] & vertices):
            row |= 1 << pos[u]
        rows.append(row)
    m = sum(r.bit_count() for r in rows) // 2
    return Graph._raw(len(keep), tuple(rows), m), tuple(keep)


def delete_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """Remove listed edges, keeping all vertices."""
    rows = list(g.adj)
    for u, v in edges:
        if not g.has_edge(u, v):
            raise GraphError(f"edge ({u},{v}) not in graph")
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    m = sum(r.bit_count() for r in rows) // 2
    return Graph._raw(g.n, tuple(rows), m)


def connected_components(g: Graph) -> list[int]:
    """Vertex bitmasks of the components, ordered by smallest member."""
    rest = g.vertex_mask()
    comps = []
    while rest:
        low = rest & -rest
        comp = reachable_within(g.adj, low, rest) | low
        comps.append(comp)
        rest &= ~comp
    return comps


def is_clique(g: Graph, vertices: int) -> bool:
    """True iff every pair in the vertex bitmask is adjacent (|S| <= 1 is a clique)."""
    if vertices & ~g.vertex_mask():
        raise GraphError("vertex set contains ids outside the graph")
    for v in iter_bits(vertices):
        if (g.adj[v] & vertices) != vertices ^ (1 << v):
            return False
    return True


def reachable_within(adj: Sequence[int], sources: int, allowed: int) -> int:
    """Vertices of ``allowed`` reachable from ``sources`` using only allowed vertices."""
    # The weight searches use a table form (``weights.reachable_within``);
    # here the frontier's bits are walked inline, since a generator per wave
    # costs more than the wave itself.
    seen = 0
    frontier = sources
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen
