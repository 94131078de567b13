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

They cut the tail on sparse G(n, p) above the default cap. All weights of
G(22, 0.3, 1) took 46 s and 24.8M reachability walks without them, and take
under 0.01 s and 123 walks with them; G(24, 0.2, 1) went from 15.8 s to 0.4 s
(processor time, Python 3.11 on a 2-vCPU VM).

``all_weights`` runs the same searches as the per-edge functions, with four
shortcuts that cannot change a result:

- Block restriction. A cycle lies inside one biconnected block (Hopcroft and
  Tarjan), so a bridge has c(e) = 2 without a search, and every other cycle
  search runs on its block's vertices. A path search runs on its component.
- Witnessed incumbents. Each search returns the vertex sequence of its best
  path or cycle. A cycle of length L shows c >= L and p >= L - 1 for every
  edge on it (drop another of its edges); a path of length L shows p >= L
  for every edge on it. A later search starts from its edge's bound and
  prunes only what cannot beat it, so it returns the true maximum whenever
  that is larger, and otherwise the bound, which a concrete path attains.
- Exchange-argument witnesses. Each witness yields more concrete paths and
  cycles (``_expand``): paths through the chords of a cycle, crossover
  cycles through two chords (the switch in the proof of Ore's theorem,
  O. Ore, 1960) and rotated paths through an edge from an end (L. Posa,
  1976). Their bounds are witnessed too, so they only let more searches be
  skipped.
- Ceiling skip. No search runs once the bound equals the ceiling: the
  block's vertex count for c(e), the component's vertex count minus 1 for
  p(e).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphError, connected_components, iter_bits, reachable_within

DEFAULT_EXACT_CAP = 20
# Witnesses derived by the exchange rules from one search's witness, at most.
WITNESS_CAP = 200


class CapExceededError(GraphError):
    """Graph too large for an exact search; no silent approximation is made."""


@dataclass
class WeightMap:
    """Per-edge path/cycle weights, the global extremes, and the blocks."""

    p: dict[tuple[int, int], int]
    c: dict[tuple[int, int], int]
    longest_path: int
    circumference: int
    blocks: BlockDecomposition


@dataclass
class BlockDecomposition:
    blocks: list[tuple[tuple[int, int], ...]]
    articulation_points: int


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


def _dead_ends(adj: Sequence[int], reach: int, tips: int) -> int:
    """Vertices of ``reach`` with fewer than two neighbours in ``reach | tips``.

    Such a vertex cannot be an inner vertex of a path arm grown from the
    tips through ``reach``; it can only end an arm.
    """
    pool = reach | tips
    dead = 0
    while reach:
        low = reach & -reach
        reach ^= low
        nb = adj[low.bit_length() - 1] & pool
        if not nb & (nb - 1):
            dead += 1
    return dead


def _longest_path(adj: Sequence[int], u: int, v: int, allowed: int, best: int) -> tuple[int, list[int] | None]:
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
        reach = reachable_within(adj, 1 << end, free)
        room = length + reach.bit_count() - best
        # Only one dead end can lie on the one arm still open: at its end.
        if room <= 0 or room <= _dead_ends(adj, reach, 1 << end) - 1:
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
        reach = reachable_within(adj, tips, free)
        room = length + 1 + reach.bit_count() - best
        # Both arms are open, so two dead ends can count: one at each end.
        if room <= 0 or room <= _dead_ends(adj, reach, tips) - 2:
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


def _peel(adj: Sequence[int], region: int, keep: int) -> int:
    """Drop from ``region``, until none is left, every vertex outside ``keep``
    with fewer than two neighbours in what remains of it."""
    todo = region & ~keep
    while todo:
        low = todo & -todo
        todo ^= low
        nb = adj[low.bit_length() - 1] & region
        if not nb & (nb - 1):
            region ^= low
            todo |= nb & ~keep  # its one neighbour may now fall below two
    return region


def _longest_cycle(adj: Sequence[int], u: int, v: int, allowed: int, best: int) -> tuple[int, list[int] | None]:
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
        reach = reachable_within(adj, 1 << end, free)
        if not reach & vbit or length + reach.bit_count() <= best:
            return
        # An inner vertex of the end..v path has two neighbours on it, so
        # peel every vertex but v with fewer than two in the region left.
        region = _peel(adj, reach | (1 << end), (1 << end) | vbit)
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
    return _longest_path(g.adj, u, v, g.vertex_mask(), 1)[0]


def longest_cycle_through_edge(g: Graph, e: tuple[int, int], cap: int = DEFAULT_EXACT_CAP) -> int:
    """c(e): length of the longest cycle through e, or 2 when e lies on no cycle."""
    u, v = _check_edge(g, e)
    _check_cap(g, cap, "longest cycle through an edge")
    # A best path length of 1 stands for "no u-v path besides uv", so c = 2.
    return _longest_cycle(g.adj, u, v, g.vertex_mask(), 1)[0] + 1


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
    the witnesses the exchange rules derive from it, at most WITNESS_CAP.

    Every raised bound is attained by a concrete path or cycle:
    - A cycle of length L gives c >= L and p >= L - 1 on its edges, and
      p >= L - 1 on each chord c_i c_j (the path c_{j-1} ... c_i c_j ... c_{i-1}).
    - A chord and a crossing edge give a crossover cycle on the same vertices
      (``_crossover``); it raises c on its two new edges.
    - A path of length k gives p >= k on its edges. An edge from an end to an
      inner vertex gives a rotated path (``_rotation``) that raises p on that
      edge.
    A derived witness differs from its parent only in edges its rule has
    just raised, so only the root's own edges are raised here. It is expanded
    in turn only if it raised a bound, so the expansion ends even without the
    cap.
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
                    if len(queue) <= WITNESS_CAP:
                        queue.append(_crossover(order, order.index(x), order.index(y)))


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
                if len(queue) <= WITNESS_CAP:
                    queue.append(_rotation(order, order.index(x)))


def all_weights(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> WeightMap:
    """p(e) and c(e) for every edge, the global longest path and circumference, and the blocks."""
    _check_cap(g, cap, "weight computation")
    adj = g.adj
    edges = g.edges()
    # Lower bounds, each witnessed by a concrete path or cycle (or by e itself).
    p = dict.fromkeys(edges, 1)
    c = dict.fromkeys(edges, 2)
    component = {}
    for mask in connected_components(g):
        for x in iter_bits(mask):
            component[x] = mask
    block = {}
    decomp = block_decomposition(g)
    for edge_set, mask in zip(decomp.blocks, block_vertex_sets(decomp)):
        if len(edge_set) > 1:  # a bridge lies on no cycle: c = 2
            for edge in edge_set:
                block[edge] = mask

    for e in edges:
        u, v = e
        mask = block.get(e)
        if mask is not None and c[e] < mask.bit_count():
            cyc = _longest_cycle(adj, u, v, mask, c[e] - 1)[1]
            if cyc is not None:
                _expand(adj, p, c, cyc, True)
        if p[e] < component[u].bit_count() - 1:
            path = _longest_path(adj, u, v, component[u], p[e])[1]
            if path is not None:
                _expand(adj, p, c, path, False)
    longest_path = max(p.values(), default=0)
    circumference = max((length for length in c.values() if length >= 3), default=0)
    return WeightMap(p, c, longest_path, circumference, decomp)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components as edge sets, plus the articulation points.

    Bridges appear as two-vertex blocks; isolated vertices yield no block.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    stack: list[tuple[int, int]] = []
    blocks: list[tuple[tuple[int, int], ...]] = []
    art = 0
    counter = 0

    def dfs(u: int, parent: int) -> None:
        nonlocal counter, art
        counter += 1
        disc[u] = low[u] = counter
        children = 0
        for w in iter_bits(g.adj[u]):
            if disc[w] == -1:
                children += 1
                tree_edge = (min(u, w), max(u, w))
                stack.append(tree_edge)
                dfs(w, u)
                low[u] = min(low[u], low[w])
                if low[w] >= disc[u]:
                    if parent != -1:
                        art |= 1 << u
                    block = []
                    while True:
                        edge = stack.pop()
                        block.append(edge)
                        if edge == tree_edge:
                            break
                    blocks.append(tuple(sorted(block)))
            elif w != parent and disc[w] < disc[u]:
                stack.append((min(u, w), max(u, w)))
                low[u] = min(low[u], disc[w])
        if parent == -1 and children > 1:
            art |= 1 << u

    for root in range(n):
        if disc[root] == -1:
            dfs(root, -1)
    return BlockDecomposition(blocks, art)


def block_vertex_sets(decomp: BlockDecomposition) -> list[int]:
    out = []
    for block in decomp.blocks:
        mask = 0
        for u, v in block:
            mask |= (1 << u) | (1 << v)
        out.append(mask)
    return out

