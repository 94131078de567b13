"""Per-edge path and cycle weights, plus block (biconnected) structure.

p(e) is the number of edges on a longest simple path whose edge set contains
e; c(e) is the length of a longest cycle through e, with c(e) = 2 when e lies
on no cycle. Both are exact: a two-sided DFS enumerates path arms on either
side of the edge, pruned by the current best and a reachability upper bound.
No heuristic fallback exists above the vertex cap; bounds computed from
underestimated weights would be unsound, so we fail loudly instead.

Two rules of Vandegriend and Culberson ("The G(n,m) phase transition is not
hard for the Hamiltonian cycle problem", JAIR 9, 1998) sharpen the bound and
order the search. They change only which branches are tried, and when, so
every weight stays exact:

- Dead ends. An inner vertex of a path has two neighbours on it. The cycle
  search (``_longest_cycle``) peels, until none is left, every reachable
  vertex but v with fewer than two neighbours among the reachable ones and
  the tip, and counts only the rest. The path search (``_longest_path``)
  counts such vertices: each can only end an arm, so all but one per open
  arm come off its reachability bound.
- Scarcity order (Warnsdorff's rule). The cycle search steps first into the
  neighbour with the fewest neighbours left, the likeliest to be cut off, so
  a long cycle is found early and prunes the rest.

Each search node is a few table lookups (``neighbourhood_tables``). The
first search of a graph splits its vertex ids into a low and a high half of
w = ceil(n/2) ids and stores, for every subset b of a half, ``one[b]``, the
vertices with a neighbour in b, and ``two[b]``, those with two. A set S
then splits into a = S & (2^w - 1) and b = S >> w:

- a reachability wave from a frontier F is one[F's low part] | one[F's
  high part], within the allowed vertices not yet seen;
- the vertices with two neighbours in S are two_lo[a] | two_hi[b] |
  (one_lo[a] & one_hi[b]), two in one half or one in each;
- so the dead ends are the reachable vertices outside that set for S =
  reach | tips, and a peel round drops every vertex of the region but the
  tip and v outside it for S = region, round after round until none drops,
  the same fixpoint as a one-vertex-at-a-time worklist.

A half holds at most TABLE_BITS = 12 ids (2^12 entries per table); above
24 vertices, which only a raised cap admits, each half is split again the
same way.

``all_weights`` runs the same searches as the per-edge functions, with five
shortcuts that cannot change a result:

- Block restriction. A cycle lies inside one biconnected block (Hopcroft and
  Tarjan), so a bridge, a block of 2 vertices, has c(e) = 2 without a search,
  and every other cycle search runs on its block's vertices. A block is a
  vertex mask (``block_decomposition``), and its edges are g's edges between
  its vertices, since two blocks share at most one vertex. A path search
  runs on its component.
- Witnessed incumbents. Each search returns the vertex sequence of its best
  path or cycle. A cycle of length L shows c >= L and p >= L - 1 for every
  edge on it (drop another of its edges); a path of length L shows p >= L
  for every edge on it. A later search starts from its edge's bound and
  prunes only what cannot beat it, so it returns the true maximum whenever
  that is larger, and otherwise the bound, which a concrete path attains
  (or, for a bound of the closure rule below, one the theorem proves).
- Exchange-argument witnesses. Each witness yields more concrete paths and
  cycles (``_expand``): paths through the chords of a cycle, crossover
  cycles through two chords (the switch in the proof of Ore's theorem,
  O. Ore, 1960) and rotated paths through an edge from an end (L. Posa,
  1976). Their bounds are witnessed too, so they only let more searches be
  skipped. A derived witness is queued only when it has just raised a
  bound, and no bound exceeds n, so the expansion ends.
- Ceiling skip. No search runs once the bound equals the ceiling: the
  block's vertex count for c(e), the component's vertex count minus 1 for
  p(e).
- Closure rule. Before any search, each block B with at least 3 vertices
  gets its (|B|+1)-closure: two non-adjacent vertices whose degrees in
  G[B] sum to at least |B| + 1 are joined, repeatedly. If it ends complete,
  G[B] is Hamiltonian-connected (O. Ore, "Hamiltonian connected graphs",
  1963; J. A. Bondy and V. Chvatal, "A method in graph theory", Discrete
  Math. 15, 1976): a Hamiltonian u-v path closes with each edge uv into a
  Hamiltonian cycle, so c(e) = |B| and p(e) >= |B| - 1 on every edge of B.
  These are the only bounds not witnessed by a concrete path or cycle in
  hand: the theorem proves them, and c(e) equals its ceiling. So the
  ceiling skip runs no cycle search in B, and no path search either when B
  is its whole component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphError, connected_components, iter_bits

DEFAULT_EXACT_CAP = 20
# Vertex ids per half of the neighbourhood tables, at most: 2^12 entries per table.
TABLE_BITS = 12

# The low half's mask and width, then its ``one`` table, the high half's,
# and the two ``two`` tables (see ``neighbourhood_tables``).
Tables = tuple[int, int, Sequence[int], Sequence[int], Sequence[int], Sequence[int]]


class CapExceededError(GraphError):
    """Graph too large for an exact search; no silent approximation is made."""


@dataclass
class WeightMap:
    """Per-edge path/cycle weights, the global extremes, and the blocks."""

    p: dict[tuple[int, int], int]
    c: dict[tuple[int, int], int]
    longest_path: int
    circumference: int
    blocks: list[int]  # vertex masks, from ``block_decomposition``


def _check_cap(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise CapExceededError(
            f"{what} needs exact search; n={g.n} exceeds cap {cap} (raise the cap explicitly to proceed)"
        )


def _check_edge(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    return (u, v) if u < v else (v, u)


def neighbourhood_tables(rows: Sequence[int]) -> Tables:
    """Tables of which vertices have one, or two, neighbours in a vertex set.

    ``rows`` are the adjacency rows of a run of vertex ids, lowest first.
    The run splits into a low half of ``width`` ids and a high half. For
    every subset b of a half, as bits from the half's first id, ``one[b]``
    holds the vertices with at least one neighbour in b, and ``two[b]`` those
    with at least two. A half of more than TABLE_BITS ids, in graphs above
    2 * TABLE_BITS vertices, is split again in the same way.
    """
    width = (len(rows) + 1) // 2
    one_lo, two_lo = _one_two(rows[:width])
    one_hi, two_hi = _one_two(rows[width:])
    return (1 << width) - 1, width, one_lo, one_hi, two_lo, two_hi


def _one_two(rows: Sequence[int]) -> tuple[Sequence[int], Sequence[int]]:
    """The ``one`` and ``two`` tables of one half: each entry extends the
    entry of b without its lowest vertex by that vertex's row."""
    if len(rows) > TABLE_BITS:
        tables = neighbourhood_tables(rows)
        return _Wide(tables, False), _Wide(tables, True)
    size = 1 << len(rows)
    one = [0] * size
    two = [0] * size
    for b in range(1, size):
        low = b & -b
        rest = b ^ low
        row = rows[low.bit_length() - 1]
        one[b] = one[rest] | row
        two[b] = two[rest] | (one[rest] & row)
    return one, two


class _Wide:
    """The ``one`` table, or with ``twice`` the ``two`` table, of a run of
    more than TABLE_BITS ids, looked up in the tables of its two halves."""

    __slots__ = ("tables", "twice")

    def __init__(self, tables: Tables, twice: bool) -> None:
        self.tables = tables
        self.twice = twice

    def __getitem__(self, b: int) -> int:
        if self.twice:
            return _covered_twice(self.tables, b)
        mask, width, one_lo, one_hi, _, _ = self.tables
        return one_lo[b & mask] | one_hi[b >> width]


def reachable_within(tables: Tables, sources: int, allowed: int) -> int:
    """Vertices of ``allowed`` reachable from ``sources`` using only allowed vertices.

    The table form of ``graph.reachable_within``, which the certificates
    keep: each wave is one lookup per half of the frontier. It is the one
    step of every node of the weight searches.
    """
    mask, width, one_lo, one_hi, _, _ = tables
    seen = 0
    frontier = sources
    while frontier:
        frontier = (one_lo[frontier & mask] | one_hi[frontier >> width]) & allowed & ~seen
        seen |= frontier
    return seen


def _covered_twice(tables: Tables, s: int) -> int:
    """The vertices with at least two neighbours in ``s``: two in one half
    of ``s``, or one in each half."""
    mask, width, one_lo, one_hi, two_lo, two_hi = tables
    a = s & mask
    b = s >> width
    return two_lo[a] | two_hi[b] | (one_lo[a] & one_hi[b])


def _dead_ends(tables: Tables, reach: int, tips: int) -> int:
    """Vertices of ``reach`` with fewer than two neighbours in ``reach | tips``.

    Such a vertex cannot be an inner vertex of a path arm grown from the
    tips through ``reach``; it can only end an arm.
    """
    return (reach & ~_covered_twice(tables, reach | tips)).bit_count()


def _longest_path(
    adj: Sequence[int], tables: Tables, u: int, v: int, allowed: int, best: int
) -> tuple[int, list[int] | None]:
    """Longest simple path through edge uv inside ``allowed``, if longer than ``best``.

    Returns the best length and the vertex sequence of a path of that length,
    or ``None`` for the sequence when no path beats the given ``best``.
    """
    vbit = 1 << v
    left = [u]  # the u-arm, from u outwards
    right = [v]  # the v-arm, from v outwards
    witness: list[int] | None = None

    def arm_v(end: int, free: int, length: int) -> None:
        nonlocal best, witness
        if length > best:
            best = length
            witness = left[::-1] + right
        cand = adj[end] & free
        if not cand:
            return
        reach = reachable_within(tables, 1 << end, free)
        room = length + reach.bit_count() - best
        # Only one dead end can lie on the one arm still open: at its end.
        if room <= 0 or room <= _dead_ends(tables, reach, 1 << end) - 1:
            return
        while cand:
            low = cand & -cand
            right.append(low.bit_length() - 1)
            arm_v(right[-1], free ^ low, length + 1)
            right.pop()
            cand ^= low

    def arm_u(end: int, free: int, length: int) -> None:
        # Every completion adds one edge per new vertex, and new vertices must
        # be reachable from the current u-arm tip or from v through free ones.
        tips = (1 << end) | vbit
        reach = reachable_within(tables, tips, free)
        room = length + 1 + reach.bit_count() - best
        # Both arms are open, so two dead ends can count: one at each end.
        if room <= 0 or room <= _dead_ends(tables, reach, tips) - 2:
            return
        arm_v(v, free, length + 1)
        cand = adj[end] & free
        while cand:
            low = cand & -cand
            left.append(low.bit_length() - 1)
            arm_u(left[-1], free ^ low, length + 1)
            left.pop()
            cand ^= low

    arm_u(u, allowed & ~(1 << u) & ~vbit, 0)
    return best, witness


def _peel(tables: Tables, region: int, keep: int) -> int:
    """Drop from ``region``, until none is left, every vertex outside ``keep``
    with fewer than two neighbours in what remains of it.

    Each round drops all such vertices at once. A dropped vertex lies in no
    subset of ``region`` whose vertices outside ``keep`` all have two
    neighbours in it, so the rounds end at the largest such subset, as a
    one-vertex-at-a-time worklist does.
    """
    while True:
        drop = region & ~keep & ~_covered_twice(tables, region)
        if not drop:
            return region
        region ^= drop


def _longest_cycle(
    adj: Sequence[int], tables: Tables, u: int, v: int, allowed: int, best: int
) -> tuple[int, list[int] | None]:
    """Longest u-v path other than the edge uv inside ``allowed``, if longer than ``best``.

    The path closes into a cycle with uv. Returns the best path length and
    the vertex sequence u..v of a path of that length, or ``None`` for the
    sequence when no path beats the given ``best``.
    """
    vbit = 1 << v
    trail = [u]
    witness: list[int] | None = None

    def walk(end: int, free: int, length: int) -> None:
        nonlocal best, witness
        if end == v:
            if length > best:
                best = length
                witness = trail[:]
            return
        reach = reachable_within(tables, 1 << end, free)
        if not reach & vbit or length + reach.bit_count() <= best:
            return
        # An inner vertex of the end..v path has two neighbours on it, so
        # peel every vertex but v with fewer than two in the region left.
        region = _peel(tables, reach | (1 << end), (1 << end) | vbit)
        if length + region.bit_count() - 1 <= best:
            return
        # Scarce neighbours first (Warnsdorff): they are the likeliest to be
        # cut off, and a long path found early prunes the rest.
        cand = adj[end] & region
        steps = []
        while cand:
            low = cand & -cand
            x = low.bit_length() - 1
            steps.append(((adj[x] & region).bit_count(), x))
            cand ^= low
        steps.sort()
        for _, x in steps:
            trail.append(x)
            walk(x, free ^ (1 << x), length + 1)
            trail.pop()

    # Leaving u by any edge but uv means the path never uses uv: u is spent.
    free = allowed & ~(1 << u)
    cand = adj[u] & free & ~vbit
    while cand:
        low = cand & -cand
        trail.append(low.bit_length() - 1)
        walk(trail[-1], free ^ low, 1)
        trail.pop()
        cand ^= low
    return best, witness


def longest_path_through_edge(g: Graph, e: tuple[int, int], cap: int = DEFAULT_EXACT_CAP) -> int:
    """p(e): edges on the longest simple path containing e (>= 1, the edge itself)."""
    u, v = _check_edge(g, e)
    _check_cap(g, cap, "longest path through an edge")
    return _longest_path(g.adj, neighbourhood_tables(g.adj), u, v, g.vertex_mask(), 1)[0]


def longest_cycle_through_edge(g: Graph, e: tuple[int, int], cap: int = DEFAULT_EXACT_CAP) -> int:
    """c(e): length of the longest cycle through e, or 2 when e lies on no cycle."""
    u, v = _check_edge(g, e)
    _check_cap(g, cap, "longest cycle through an edge")
    # A best path length of 1 stands for "no u-v path besides uv", so c = 2.
    return _longest_cycle(g.adj, neighbourhood_tables(g.adj), u, v, g.vertex_mask(), 1)[0] + 1


Bounds = dict[tuple[int, int], int]


def _raise_along(bounds: Bounds, seq: list[int], length: int) -> None:
    """Raise the bound of every edge between consecutive vertices of ``seq`` to ``length``."""
    for x, y in zip(seq, seq[1:]):
        key = (x, y) if x < y else (y, x)
        if bounds[key] < length:
            bounds[key] = length


def _crossover(cycle: list[int], i: int, j: int) -> list[int]:
    """The cycle c_i c_j c_{j-1} ... c_{i+1} c_{j+1} ... c_{i-1} of the same length.

    It exists when c_i c_j is a chord of ``cycle`` and c_{i+1} c_{j+1} is an
    edge (indices mod the length), and it uses both: the switch in the proof
    of Ore's theorem. For the other orientation, pass the reversed cycle.
    """
    rot = cycle[i:] + cycle[:i]
    k = (j - i) % len(cycle)
    return rot[:1] + rot[k:0:-1] + rot[k + 1 :]


def _rotation(path: list[int], i: int) -> list[int]:
    """The path x_0 ... x_i x_k x_{k-1} ... x_{i+1}, of the same length.

    It exists when x_i x_k is an edge, and it uses that edge: Posa's
    rotation with x_0 fixed. For the other end, pass the reversed path.
    """
    return path[: i + 1] + path[:i:-1]


def _expand(adj: Sequence[int], p: Bounds, c: Bounds, witness: list[int], closed: bool) -> None:
    """Raise p and c from a witnessed path, or cycle if ``closed``, and from
    the witnesses the exchange rules derive from it.

    Every raised bound is attained by a concrete path or cycle:
    - A cycle of length L gives c >= L and p >= L - 1 on its edges, and
      p >= L - 1 on each chord c_i c_j (the path c_{j-1} ... c_i c_j ... c_{i-1}).
    - A chord and a crossing edge give a crossover cycle on the same vertices
      (``_crossover``); it raises c on its two new edges.
    - A path of length k gives p >= k on its edges. An edge from an end to an
      inner vertex gives a rotated path (``_rotation``) that raises p on that
      edge.
    A derived witness differs from its parent only in edges its rule has
    just raised, so only the root's own edges are raised here. It is queued
    only if it raised a bound, and the bounds are at most n, so the queue
    ends.
    """
    if closed:
        ring = witness + witness[:1]
        _raise_along(c, ring, len(witness))
        _raise_along(p, ring, len(witness) - 1)
        rules = _cycle_rules
    else:
        _raise_along(p, witness, len(witness) - 1)
        rules = _path_rules
    queue = [witness]
    for seq in queue:  # grows while it is walked
        rules(adj, p, c, seq, queue)


def _cycle_rules(adj: Sequence[int], p: Bounds, c: Bounds, cycle: list[int], queue: list[list[int]]) -> None:
    """The chord and crossover rules on ``cycle``, of length L, at positions
    taken mod L: each chord c_i c_j gets p >= L - 1, and when c_{i+1} c_{j+1}
    is an edge, both get c >= L and a crossover that raised either is
    queued. The other orientation adds nothing: its crossing edge
    c_{i-1} c_{j-1} is itself a chord, whose crossing edge c_i c_j gives the
    same crossover cycle."""
    length = len(cycle)
    mask = 0
    position = {}
    for i, x in enumerate(cycle):
        mask |= 1 << x
        position[x] = i
    ring = cycle + cycle[:1]
    for i, x in enumerate(cycle):
        sx = ring[i + 1]
        # each chord once, from its lower end
        chords = adj[x] & mask & ~((1 << sx) | (1 << cycle[i - 1])) & ~((1 << x) - 1)
        while chords:
            low = chords & -chords
            chords ^= low
            y = low.bit_length() - 1
            xy = (x, y)
            if p[xy] < length - 1:
                p[xy] = length - 1
            j = position[y]
            sy = ring[j + 1]
            if adj[sx] >> sy & 1:
                key = (sx, sy) if sx < sy else (sy, sx)
                if c[xy] < length or c[key] < length:
                    c[xy] = max(c[xy], length)
                    c[key] = max(c[key], length)
                    queue.append(_crossover(cycle, i, j))


def _path_rules(adj: Sequence[int], p: Bounds, c: Bounds, path: list[int], queue: list[list[int]]) -> None:
    length = len(path) - 1
    mask = 0
    for x in path:
        mask |= 1 << x
    for order in (path, path[::-1]):
        end = order[-1]
        inner = adj[end] & mask & ~(1 << order[-2])
        while inner:
            low = inner & -inner
            inner ^= low
            x = low.bit_length() - 1
            key = (x, end) if x < end else (end, x)
            if p[key] < length:
                p[key] = length
                queue.append(_rotation(order, order.index(x)))


def _closure_is_complete(adj: Sequence[int], mask: int) -> bool:
    """True iff the (k+1)-closure of the graph induced on ``mask``, with k vertices, is complete.

    The closure joins two non-adjacent vertices whose degrees, counted in
    the graph built so far, sum to at least k + 1, until no such pair is
    left; it is the same whatever order the joins are made in. When it ends
    complete, the induced graph is Hamiltonian-connected (Bondy and Chvatal,
    1976).
    """
    k = mask.bit_count()
    rows = {x: adj[x] & mask for x in iter_bits(mask)}
    joined = True
    while joined:
        joined = False
        for x in rows:
            # each non-adjacent pair once per pass, from its lower end
            for y in iter_bits(mask & ~rows[x] & ~((2 << x) - 1)):
                if rows[x].bit_count() + rows[y].bit_count() > k:
                    rows[x] |= 1 << y
                    rows[y] |= 1 << x
                    joined = True
    return all(row | 1 << x == mask for x, row in rows.items())


def all_weights(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> WeightMap:
    """p(e) and c(e) for every edge, the global longest path and circumference, and the blocks."""
    _check_cap(g, cap, "weight computation")
    adj = g.adj
    edges = g.edges()
    # Lower bounds, each witnessed by a concrete path or cycle (or by e itself),
    # or proven by the closure theorem.
    p = dict.fromkeys(edges, 1)
    c = dict.fromkeys(edges, 2)
    component = {}
    for mask in connected_components(g):
        for x in iter_bits(mask):
            component[x] = mask
    block = {}
    blocks = block_decomposition(g)
    for mask in blocks:
        size = mask.bit_count()
        if size > 2:  # a bridge, a block of 2 vertices, lies on no cycle: c = 2
            hamiltonian_connected = _closure_is_complete(adj, mask)
            # the block's edges, each from its lower end
            for x in iter_bits(mask):
                for y in iter_bits(adj[x] & mask & ~((2 << x) - 1)):
                    block[x, y] = mask
                    if hamiltonian_connected:
                        # a Hamiltonian u-v path closes with uv into a Hamiltonian cycle
                        c[x, y] = size
                        p[x, y] = size - 1

    tables = None  # built for the first search; blocks the closure settles need none
    for e in edges:
        u, v = e
        mask = block.get(e)
        if mask is not None and c[e] < mask.bit_count():
            tables = tables or neighbourhood_tables(adj)
            cyc = _longest_cycle(adj, tables, u, v, mask, c[e] - 1)[1]
            if cyc is not None:
                _expand(adj, p, c, cyc, True)
        if p[e] < component[u].bit_count() - 1:
            tables = tables or neighbourhood_tables(adj)
            path = _longest_path(adj, tables, u, v, component[u], p[e])[1]
            if path is not None:
                _expand(adj, p, c, path, False)
    longest_path = max(p.values(), default=0)
    circumference = max((length for length in c.values() if length >= 3), default=0)
    return WeightMap(p, c, longest_path, circumference, blocks)


def block_decomposition(g: Graph) -> list[int]:
    """Biconnected components (blocks) as vertex masks, in the order the DFS closes them.

    One Hopcroft-Tarjan DFS over a vertex stack: when a child w of u has
    low[w] >= disc[u], the vertices on the stack down to w, with u, form a
    block. The edge to u's parent is not skipped: it lowers low[u] at most to
    disc[parent], which leaves the parent's test as it was. Two blocks share
    at most one vertex, so a block's edges are g's edges between its
    vertices. Bridges appear as two-vertex blocks; isolated vertices yield
    no block.
    """
    disc = [0] * g.n  # discovery times from 1; 0 is unvisited
    low = [0] * g.n
    stack: list[int] = []  # visited vertices in no closed block yet; a root is never pushed
    blocks: list[int] = []
    counter = 0

    def dfs(u: int) -> None:
        nonlocal counter
        counter += 1
        disc[u] = low[u] = counter
        for w in iter_bits(g.adj[u]):
            if not disc[w]:
                stack.append(w)
                dfs(w)
                low[u] = min(low[u], low[w])
                if low[w] >= disc[u]:
                    mask = 1 << u
                    while True:
                        x = stack.pop()
                        mask |= 1 << x
                        if x == w:
                            break
                    blocks.append(mask)
            else:  # an ancestor, or a finished descendant, which lowers nothing
                low[u] = min(low[u], disc[w])

    for root in range(g.n):
        if not disc[root]:
            dfs(root)
    return blocks


def articulation_points(blocks: list[int]) -> int:
    """The vertices that lie in two or more of ``blocks``, as a mask: the cut vertices."""
    once = twice = 0
    for mask in blocks:
        twice |= once & mask
        once |= mask
    return twice
