"""Path/cycle weights against the subset-DP oracle, plus block structure."""

import hashlib
import random
from itertools import combinations

import pytest

import cliquebounds.weights as kernel
from cliquebounds import (
    CapExceededError,
    all_weights,
    block_decomposition,
    delete_edges,
    from_edge_list,
    is_block_forest,
    longest_cycle_through_edge,
    longest_path_through_edge,
)
from cliquebounds.enumeration import random_gnp
from cliquebounds.graph import GraphError, connected_components, induced_subgraph, parse_graph6, reachable_within
from cliquebounds.oracles import dp_all_weights, reference_cycle_rules
from cliquebounds.weights import _crossover, _expand, _longest_cycle, _longest_path, _rotation, articulation_points


def K(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


PAW = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
STAR = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


class TestPathWeight:
    def test_path_end_edge_spans_whole_path(self):
        assert longest_path_through_edge(path(4), (0, 1)) == 3

    def test_star_edges(self):
        assert all(longest_path_through_edge(STAR, e) == 2 for e in STAR.edges())

    def test_complete_graph(self):
        assert all(longest_path_through_edge(K(4), e) == 3 for e in K(4).edges())

    def test_cycle(self):
        assert all(longest_path_through_edge(cycle(6), e) == 5 for e in cycle(6).edges())

    def test_single_edge(self):
        assert longest_path_through_edge(from_edge_list(2, [(0, 1)]), (0, 1)) == 1

    def test_non_edge_rejected(self):
        with pytest.raises(GraphError):
            longest_path_through_edge(path(3), (0, 2))

    def test_cap_error_is_loud(self):
        big = from_edge_list(21, [(i, i + 1) for i in range(20)])
        with pytest.raises(CapExceededError):
            longest_path_through_edge(big, (0, 1))
        assert longest_path_through_edge(big, (0, 1), cap=21) == 20
        with pytest.raises(CapExceededError):
            all_weights(big)
        w = all_weights(big, cap=21)
        assert set(w.p.values()) == {20} and set(w.c.values()) == {2}
        assert w.longest_path == 20 and w.circumference == 0


class TestCycleWeight:
    def test_tree_edges_have_no_cycle(self):
        for e in path(5).edges():
            assert longest_cycle_through_edge(path(5), e) == 2

    def test_c4(self):
        assert all(longest_cycle_through_edge(cycle(4), e) == 4 for e in cycle(4).edges())

    def test_k4(self):
        assert all(longest_cycle_through_edge(K(4), e) == 4 for e in K(4).edges())

    def test_paw_pendant_vs_triangle(self):
        w = all_weights(PAW)
        assert w.c[(0, 3)] == 2
        assert w.c[(0, 1)] == w.c[(0, 2)] == w.c[(1, 2)] == 3


class TestWeightMap:
    def test_k4(self):
        w = all_weights(K(4))
        assert set(w.p.values()) == {3}
        assert set(w.c.values()) == {4}
        assert w.longest_path == 3 and w.circumference == 4

    def test_p4(self):
        w = all_weights(path(4))
        assert set(w.p.values()) == {3}
        assert set(w.c.values()) == {2}
        assert w.longest_path == 3 and w.circumference == 0

    def test_paw(self):
        w = all_weights(PAW)
        assert set(w.p.values()) == {3}
        assert w.circumference == 3

    def test_edgeless(self):
        for n in (0, 1, 2, 3, 5):
            w = all_weights(from_edge_list(n, []))
            assert w.p == {} and w.c == {}
            assert w.longest_path == 0 and w.circumference == 0

    def test_weight_ranges(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            for e, p in w.p.items():
                assert 1 <= p <= g.n - 1
                c = w.c[e]
                assert c == 2 or 3 <= c <= g.n
                if c >= 3:
                    assert c <= p + 1

    def test_oracle_agreement_exhaustive_small(self, corpus):
        for n in range(2, 6):
            for g in corpus[n]:
                fast = all_weights(g)
                slow = dp_all_weights(g)
                assert fast.p == slow.p and fast.c == slow.c

    def test_monotone_under_edge_deletion(self):
        for seed in range(25):
            g = random_gnp(7, 0.5, seed)
            edges = g.edges()
            if len(edges) < 2:
                continue
            removed = edges[seed % len(edges)]
            sub = delete_edges(g, [removed])
            w_full = all_weights(g)
            w_sub = all_weights(sub)
            for e in sub.edges():
                assert w_sub.p[e] <= w_full.p[e]

    def test_path_free_characterization(self, corpus6):
        # no path with r edges exists iff every p(e) is at most r-1
        for g in corpus6:
            w = all_weights(g)
            if g.m == 0:
                assert w.longest_path == 0
                continue
            r = w.longest_path
            assert max(w.p.values()) == r
            oracle = dp_all_weights(g)
            assert oracle.longest_path == r


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return from_edge_list(offset, edges)


def with_edges(g, extra):
    return from_edge_list(g.n, g.edges() + list(extra))


def per_edge_weights(g):
    """p and c from one unseeded search per edge and quantity."""
    p = {e: longest_path_through_edge(g, e) for e in g.edges()}
    c = {e: longest_cycle_through_edge(g, e) for e in g.edges()}
    return p, c


class TestWeightKernel:
    """The block restriction, shared incumbents and ceiling skip of all_weights."""

    def test_unequal_components_use_their_own_ceiling(self):
        # P5 + K3 + an isolated vertex: the p-ceiling is 4 and 2, never n - 1 = 8
        g = disjoint_union(path(5), K(3), from_edge_list(1, []))
        w = all_weights(g)
        assert w.p == {e: 4 if e[1] < 5 else 2 for e in g.edges()}
        assert w.c == {e: 2 if e[1] < 5 else 3 for e in g.edges()}
        assert w.longest_path == 4 and w.circumference == 3
        assert (w.p, w.c) == per_edge_weights(g)

    def test_k4_and_triangle_joined_by_a_bridge(self):
        g = with_edges(disjoint_union(K(4), K(3)), [(3, 4)])
        w = all_weights(g)
        assert set(w.p.values()) == {6}
        assert w.c[(3, 4)] == 2
        assert all(w.c[e] == 4 for e in K(4).edges())
        assert w.c[(4, 5)] == w.c[(4, 6)] == w.c[(5, 6)] == 3
        assert w.longest_path == 6 and w.circumference == 4
        assert (w.p, w.c) == per_edge_weights(g)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete(self, n):
        w = all_weights(K(n))
        assert set(w.p.values()) == {n - 1}
        assert set(w.c.values()) == {n if n >= 3 else 2}

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle(self, n):
        w = all_weights(cycle(n))
        assert set(w.p.values()) == {n - 1}
        assert set(w.c.values()) == {n}

    def test_unseeded_per_edge_calls_agree(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            assert (w.p, w.c) == per_edge_weights(g), g


def oracle_corpus():
    """Seeded graphs on 10..12 vertices, with and without cut structure."""
    out = []
    for n in (10, 11, 12):
        for p in (0.2, 0.3, 0.5):
            out.extend(random_gnp(n, p, seed) for seed in range(3))
        # two dense pieces joined by a bridge, plus an isolated vertex
        a, b = random_gnp(5, 0.7, seed=n), random_gnp(n - 6, 0.7, seed=n + 1)
        out.append(with_edges(disjoint_union(a, b, from_edge_list(1, [])), [(4, 5)]))
        # three cycles sharing one vertex: every block is a cycle
        spokes = [(0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (0, n - 1)]
        rims = [(1, 2), (2, 3), (4, 5), (5, 6)] + [(i, i + 1) for i in range(7, n - 1)]
        out.append(from_edge_list(n, spokes + rims))
    return out


def test_oracle_agreement_up_to_twelve_vertices():
    graphs = oracle_corpus()
    # the corpus has bridges, cut vertices, several components and isolated vertices
    assert any(2 in all_weights(g).c.values() for g in graphs)
    assert any(articulation_points(block_decomposition(g)) for g in graphs)
    assert any(len(connected_components(g)) > 1 for g in graphs)
    assert any(0 in g.degrees() for g in graphs)
    for g in graphs:
        fast = all_weights(g)
        slow = dp_all_weights(g)
        assert fast == slow, g


class TestBlocks:
    def test_two_triangles_sharing_a_vertex(self):
        bowtie = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        blocks = block_decomposition(bowtie)
        assert blocks == [0b00111, 0b11001]
        assert articulation_points(blocks) == 0b1

    def test_path_blocks_are_bridges(self):
        blocks = block_decomposition(path(3))
        assert blocks == [0b110, 0b011]  # closed deepest first
        assert articulation_points(blocks) == 0b010

    def test_k4_single_block(self):
        blocks = block_decomposition(K(4))
        assert blocks == [0b1111]
        assert articulation_points(blocks) == 0

    def test_isolated_vertices_have_no_block(self):
        assert block_decomposition(from_edge_list(3, [])) == []

    def test_blocks_partition_edges(self, corpus6):
        for g in corpus6:
            masks = block_decomposition(g)
            seen = [e for mask in masks for e in g.edges() if mask >> e[0] & mask >> e[1] & 1]
            assert sorted(seen) == g.edges()
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    assert (masks[i] & masks[j]).bit_count() <= 1

    def test_block_forest_examples(self):
        for h, expected in ((path(5), True), (cycle(4), False), (from_edge_list(2, []), True)):
            assert is_block_forest(h, block_decomposition(h)) == expected
        # K4 and K3 joined by a bridge
        g = from_edge_list(
            8,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)],
        )
        assert is_block_forest(g, block_decomposition(g))


# ---------------------------------------------------------------- exchange rules


PETERSEN = from_edge_list(
    10,
    [(i, (i + 1) % 5) for i in range(5)]  # outer 5-cycle
    + [(i, i + 5) for i in range(5)]  # spokes
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],  # inner pentagram
)
K33 = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)])  # C6 plus its long diagonals


def wheel(k):
    """Hub 0 and rim 1..k; the cycle 0, 1, ..., k is Hamiltonian."""
    return from_edge_list(k + 1, [(0, i) for i in range(1, k + 1)] + [(i, i + 1) for i in range(1, k)] + [(k, 1)])


def complete_minus_matching(n):
    """K_n without the edges (0, 1), (2, 3), ...; for 4 | n, the cycle 0, 2, 1, 3, 4, 6, 5, 7, ... is Hamiltonian."""
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n) if not (i % 2 == 0 and j == i + 1)])


def assert_path(g, seq, length, through):
    """``seq`` is a simple path of g with ``length`` edges that uses the edge ``through``."""
    assert len(seq) == len(set(seq)) == length + 1, seq
    steps = list(zip(seq, seq[1:]))
    assert all(g.adj[x] >> y & 1 for x, y in steps), seq
    assert through in steps or through[::-1] in steps, (seq, through)


def assert_cycle(g, seq, length, through):
    """``seq`` is a cycle of g of ``length`` that uses every edge in ``through``."""
    assert len(seq) == len(set(seq)) == length >= 3, seq
    steps = list(zip(seq, seq[1:] + seq[:1]))
    assert all(g.adj[x] >> y & 1 for x, y in steps), seq
    for e in through:
        assert e in steps or e[::-1] in steps, (seq, e)


def fresh_bounds(g):
    return dict.fromkeys(g.edges(), 1), dict.fromkeys(g.edges(), 2)


def expanded(g, witness, closed):
    p, c = fresh_bounds(g)
    _expand(g.adj, p, c, witness, closed)
    return p, c


def chords(g, cyc):
    """(i, j) with i < j for every chord c_i c_j of the cycle ``cyc``."""
    L = len(cyc)
    return [(i, j) for i in range(L) for j in range(i + 2, L) if (i, j) != (0, L - 1) and g.adj[cyc[i]] >> cyc[j] & 1]


def crossovers(g, cyc):
    """(cycle in the orientation used, i, j) for every chord with a crossing edge."""
    L = len(cyc)
    out = []
    for order in (cyc, cyc[::-1]):
        for i, j in chords(g, order):
            if g.adj[order[(i + 1) % L]] >> order[(j + 1) % L] & 1:
                out.append((order, i, j))
    return out


def hamiltonian_graphs():
    yield K33, list(range(6))
    for k in (3, 5, 8):
        yield wheel(k), list(range(k + 1))
    for n in (8, 12):
        yield complete_minus_matching(n), [v for i in range(0, n, 4) for v in (i, i + 2, i + 1, i + 3)]
    yield K(6), list(range(6))


class TestExchangeRules:
    """Each rule's witness is a real path or cycle of the stated length, edge by edge."""

    def test_hamiltonian_fixtures(self):
        for g, cyc in hamiltonian_graphs():
            assert_cycle(g, cyc, g.n, [])

    def test_chord_paths(self):
        # the chord c_i c_j lies on c_{j-1} ... c_{i+1} c_i c_j c_{j+1} ... c_{i-1}
        for g, cyc in hamiltonian_graphs():
            L = len(cyc)
            p, _ = expanded(g, cyc, True)
            for i, j in chords(g, cyc):
                rot = cyc[i:] + cyc[:i]
                k = j - i
                assert_path(g, rot[k - 1 :: -1] + rot[k:], L - 1, (cyc[i], cyc[j]))
                assert p[min(cyc[i], cyc[j]), max(cyc[i], cyc[j])] >= L - 1

    def test_chord_at_the_wrap_around(self):
        # K33's cycle 0..5: the chords (0, 3) and (2, 5) touch index 0 and index L - 1
        assert (0, 3) in chords(K33, list(range(6))) and (2, 5) in chords(K33, list(range(6)))

    def test_k4_with_pendant_edges_matches_the_oracle(self):
        g = from_edge_list(6, K(4).edges() + [(0, 4), (3, 5)])
        assert all_weights(g) == dp_all_weights(g)

    def test_crossover_cycles(self):
        for g, cyc in hamiltonian_graphs():
            L = len(cyc)
            found = crossovers(g, cyc)
            assert found, g
            for order, i, j in found:
                new = (order[(i + 1) % L], order[(j + 1) % L])
                assert_cycle(g, _crossover(order, i, j), L, [(order[i], order[j]), new])

    def test_crossover_wrap_around(self):
        cyc = list(range(6))
        # partner c_{j+1} = c_0: the chord (2, 5) crosses the edge (3, 0)
        assert_cycle(K33, _crossover(cyc, 2, 5), 6, [(2, 5), (3, 0)])
        # chord at i = 0, in the reversed orientation, whose c_{i+1} is c_{L-1} = 5
        rev = cyc[::-1]
        assert_cycle(K33, _crossover(rev, rev.index(3), rev.index(0)), 6, [(3, 0), (2, 5)])

    def test_crossovers_reach_the_ceiling_on_every_chord(self):
        for g, cyc in hamiltonian_graphs():
            p, c = expanded(g, cyc, True)
            assert set(c.values()) == {g.n}, g
            assert set(p.values()) == {g.n - 1}, g

    def test_rotations_at_both_ends(self):
        # the path 0-1-2-3-4-5 with chords from both ends to inner vertices
        g = from_edge_list(6, [(i, i + 1) for i in range(5)] + [(5, 1), (5, 2), (0, 3), (0, 4)])
        path = list(range(6))
        for order in (path, path[::-1]):
            end = order[-1]
            inner = [i for i in range(len(order) - 2) if g.adj[end] >> order[i] & 1]
            assert len(inner) == 2
            for i in inner:
                assert_path(g, _rotation(order, i), 5, (order[i], end))
        p, c = expanded(g, path, False)
        assert all(p[e] == 5 for e in [(1, 5), (2, 5), (0, 3), (0, 4)])
        oracle = dp_all_weights(g)
        assert all(p[e] <= oracle.p[e] and c[e] <= oracle.c[e] for e in g.edges())

    def test_rotation_next_to_the_end(self):
        # x_k adjacent to x_0 (i = 0): the rotation is the path reversed after x_0
        path = [0, 1, 2, 3]
        assert _rotation(path, 0) == [0, 3, 2, 1]
        assert _rotation(path, 1) == [0, 1, 3, 2]

    def test_five_cycle_matches_the_oracle(self):
        g = with_edges(path(5), [(0, 4)])
        assert all_weights(g) == dp_all_weights(g)

    def test_petersen_never_gets_a_hamiltonian_cycle(self):
        g = PETERSEN
        full = g.vertex_mask()
        oracle = dp_all_weights(g)
        assert oracle.circumference == 9 and oracle.longest_path == 9
        p, c = fresh_bounds(g)
        for u, v in g.edges():
            _, cyc = _longest_cycle(g.adj, kernel.neighbourhood_tables(g.adj), u, v, full, 1)
            _expand(g.adj, p, c, cyc, True)
            _, walk = _longest_path(g.adj, kernel.neighbourhood_tables(g.adj), u, v, full, 1)
            _expand(g.adj, p, c, walk, False)
            assert max(c.values()) <= 9
        assert p == oracle.p and c == oracle.c
        assert all_weights(g) == oracle

    def test_derived_bounds_never_exceed_the_oracle(self):
        for seed in range(20):
            g = random_gnp(9, 0.5, seed)
            oracle = dp_all_weights(g)
            full = g.vertex_mask()
            for u, v in g.edges()[:4]:
                for search, closed in ((_longest_cycle, True), (_longest_path, False)):
                    _, seq = search(g.adj, kernel.neighbourhood_tables(g.adj), u, v, full, 1)
                    if seq is None:
                        continue
                    p, c = expanded(g, seq, closed)
                    assert all(p[e] <= oracle.p[e] and c[e] <= oracle.c[e] for e in p), g


def weights_match_the_oracle(n: int, density: float, seed: int) -> None:
    g = random_gnp(n, density, seed)
    fast, slow = all_weights(g), dp_all_weights(g)
    assert (fast.p, fast.c, fast.longest_path, fast.circumference) == (
        slow.p, slow.c, slow.longest_path, slow.circumference
    )


def test_all_weights_matches_the_oracle_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(2, 9), st.floats(0.2, 0.8), st.integers(0, 2**32 - 1))
    def check(n, density, seed):
        weights_match_the_oracle(n, density, seed)

    check()


def test_all_weights_matches_the_oracle_on_sparse_random_graphs():
    """Sparse graphs have degree-2 vertices and dead ends, where the searches peel."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(2, 11), st.floats(0.1, 0.35), st.integers(0, 2**32 - 1))
    def check(n, density, seed):
        weights_match_the_oracle(n, density, seed)

    check()


def dense_corpus():
    """40 dense graphs, where most searches are skipped."""
    return [random_gnp(n, density, seed) for n in range(10, 14) for density in (0.5, 0.7) for seed in range(5)]


def count_calls(monkeypatch, **functions):
    """Patch each named kernel function to count its calls under the given key; returns the live counts."""
    calls = dict.fromkeys(functions, 0)

    def counted(key, function):
        def wrapper(*args):
            calls[key] += 1
            return function(*args)

        return wrapper

    for key, name in functions.items():
        monkeypatch.setattr(kernel, name, counted(key, getattr(kernel, name)))
    return calls


def test_exchange_rules_keep_the_searches_few(monkeypatch):
    """A guard on the number of kernel searches and rules calls over a fixed dense corpus.

    As shipped, 27 of the 40 graphs below are settled by the closure rule
    without a search, and the kernel runs 39 cycle and 11 path searches and
    130 cycle rules calls. With the closure rule off, so that the counts
    measure the other rules, it runs 68 cycle and 11 path searches (74
    cycle searches before the scarcity order, which finds other witnesses)
    and 658 rules calls. Without crossovers they take 455 cycle searches;
    without rotations, 28 path searches; without the chord rule, 62. The
    kernel of witnessed incumbents alone took 566 and 34.
    """
    with monkeypatch.context() as m:
        calls = count_calls(m, rules="_cycle_rules")
        for g in dense_corpus():
            all_weights(g)
    assert calls["rules"] <= 150, calls
    monkeypatch.setattr(kernel, "_closure_is_complete", lambda adj, mask: False)
    calls = count_calls(monkeypatch, cycle="_longest_cycle", path="_longest_path", rules="_cycle_rules")
    for g in dense_corpus():
        all_weights(g)
    assert calls["cycle"] <= 100, calls
    assert calls["path"] <= 20, calls


def test_each_derived_witness_has_raised_a_bound():
    """One rules call queues no more witnesses than the total by which it
    raised p and c, and lowers no bound. ``_expand`` ends only because of
    this: each queued witness needs a raise, and the bounds are at most n.
    A witness path or cycle is planted on random vertices in random order,
    with random other edges and random p and c."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(st.booleans(), st.integers(3, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def check(closed, size, density, seed):
        rng = random.Random(seed)
        n = size + rng.randint(0, 3)
        seq = rng.sample(range(n), size)
        steps = zip(seq, seq[1:] + seq[:1] if closed else seq[1:])
        edges = {tuple(sorted(step)) for step in steps}
        edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < density}
        g = from_edge_list(n, sorted(edges))
        p = {e: rng.randint(1, n) for e in g.edges()}
        c = {e: rng.randint(2, n + 1) for e in g.edges()}
        before = {e: (p[e], c[e]) for e in g.edges()}
        queue = [seq]
        (kernel._cycle_rules if closed else kernel._path_rules)(g.adj, p, c, seq, queue)
        assert all(p[e] >= before[e][0] and c[e] >= before[e][1] for e in g.edges()), (g.edges(), seq)
        raised = sum(p[e] - before[e][0] + c[e] - before[e][1] for e in g.edges())
        assert len(queue) - 1 <= raised, (g.edges(), seq)

    check()


def planted_cycle(length, density, seed):
    """A cycle of ``length`` planted on random vertices in random order, with
    random chords and other edges, and random p and c: (g, cycle, p, c, rng)."""
    rng = random.Random(seed)
    n = length + rng.randint(0, 3)
    cyc = rng.sample(range(n), length)
    edges = {tuple(sorted((x, y))) for x, y in zip(cyc, cyc[1:] + cyc[:1])}
    edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < density}
    g = from_edge_list(n, sorted(edges))
    p = {e: rng.randint(1, n) for e in g.edges()}
    c = {e: rng.randint(2, n + 1) for e in g.edges()}
    return g, cyc, p, c, rng


def test_cycle_rules_match_the_reference():
    """``_cycle_rules`` against the reference rules on a planted cycle. p, c
    and the queue must come out equal, the crossovers in the same order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(3, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def check(length, density, seed):
        g, cyc, p, c, _ = planted_cycle(length, density, seed)
        queue = [cyc]
        want_p, want_c, want_queue = dict(p), dict(c), list(queue)
        reference_cycle_rules(g.adj, want_p, want_c, cyc, want_queue)
        kernel._cycle_rules(g.adj, p, c, cyc, queue)
        assert (p, c, queue) == (want_p, want_c, want_queue), (g.edges(), cyc)

    check()


def test_cycle_rules_ignore_the_start_and_direction_of_the_cycle():
    """One ``_cycle_rules`` call raises p and c alike on a planted cycle, on
    the cycle reversed and on a rotation of it. The crossovers are tried in
    one direction only; the other direction's pairs of a chord and a
    crossing edge are the same pairs, so no raise may depend on it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(3, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def check(length, density, seed):
        g, cyc, p, c, rng = planted_cycle(length, density, seed)
        shift = rng.randrange(1, length)
        raised = []
        for order in (cyc, cyc[::-1], cyc[shift:] + cyc[:shift]):
            bounds = dict(p), dict(c)
            kernel._cycle_rules(g.adj, *bounds, order, [order])
            raised.append(bounds)
        assert raised[0] == raised[1] == raised[2], (g.edges(), cyc, shift)

    check()


def test_pruning_rules_keep_the_kernel_nodes_few(monkeypatch):
    """A guard on the number of kernel nodes, one reachability step each.

    G(22, 0.3, 1) is one Hamiltonian block: its cycle searches must find a
    Hamiltonian cycle and take 123 walks; with neighbours tried in index
    order instead of scarcity order, 1,486. G(20, 0.2, 1) has degree-2
    vertices, and its searches must prove that nothing longer exists: 14,475
    walks; without degree peeling in the cycle search 68,248, without the
    dead-end count of the path search 150,866 (36,250 without it in
    ``arm_u`` alone). The kernel before these rules took 206,391. Each
    graph must count a node: a kernel that bypassed the counted step would
    read 0 and pass the bounds.
    """
    calls = 0
    walk = kernel.reachable_within

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(kernel, "reachable_within", counted)
    all_weights(random_gnp(22, 0.3, 1), cap=22)
    assert 0 < calls <= 250, calls
    calls = 0
    all_weights(random_gnp(20, 0.2, 1))
    assert 0 < calls <= 20_000, calls


# ---------------------------------------------------------------- closure rule


def reference_closure_is_complete(g, mask):
    """The (k+1)-closure of g[mask], k vertices, joined one pair at a time:
    any non-adjacent pair whose degrees in the graph built so far sum to at
    least k + 1, until none is left. True iff it ends complete."""
    sub, _ = induced_subgraph(g, mask)
    k = sub.n
    edges = set(sub.edges())
    while True:
        degree = [sum(x in e for e in edges) for x in range(k)]
        pair = next(((x, y) for x, y in combinations(range(k), 2)
                     if (x, y) not in edges and degree[x] + degree[y] >= k + 1), None)
        if pair is None:
            return len(edges) == k * (k - 1) // 2
        edges.add(pair)


def closure_blocks(g):
    """The vertex masks of g's blocks with at least 3 vertices."""
    return [mask for mask in block_decomposition(g) if mask.bit_count() > 2]


def dense_gnp(ns, densities=(0.55, 0.7, 0.85), seeds=range(3)):
    return [random_gnp(n, density, seed) for n in ns for density in densities for seed in seeds]


# Each catches one way of getting the closure wrong:
CLOSURE_CASES = [
    # the diamond K4 - e: a threshold of k instead of k + 1 joins its two
    # degree-2 vertices, and its diagonal would get c = 4 instead of 3
    ("C^", False),
    # a diamond on 1..4 and the pendant edge 0-2: counted in the whole graph,
    # vertex 2 has degree 3, which would join it to vertex 1
    ("DR[", False),
    # joined only after a second pass: (0, 2) and (1, 3) first, which lifts
    # the degrees of 0 and 1 to 4 each, then (0, 1)
    ("EL~w", True),
]


class TestClosureRule:
    """A block whose (|B|+1)-closure is complete is Hamiltonian-connected, so all_weights settles it without a search."""

    @pytest.mark.parametrize("graph6, complete", CLOSURE_CASES)
    def test_cases(self, graph6, complete):
        g = parse_graph6(graph6)
        mask = max(closure_blocks(g), key=int.bit_count)
        assert kernel._closure_is_complete(g.adj, mask) == reference_closure_is_complete(g, mask) == complete
        assert all_weights(g) == dp_all_weights(g)

    def test_closure_matches_the_reference_on_every_block(self, corpus):
        graphs = [g for n in range(3, 8) for g in corpus[n]] + dense_gnp(range(8, 13))
        complete = 0
        for g in graphs:
            for mask in closure_blocks(g):
                fast = kernel._closure_is_complete(g.adj, mask)
                assert fast == reference_closure_is_complete(g, mask), (g, mask)
                complete += fast
        assert complete > 400

    def test_matches_the_oracle_on_every_graph_up_to_seven_vertices(self, corpus, monkeypatch):
        settled = 0
        closure = kernel._closure_is_complete

        def counted(adj, mask):
            nonlocal settled
            complete = closure(adj, mask)
            settled += complete
            return complete

        monkeypatch.setattr(kernel, "_closure_is_complete", counted)
        for n in range(1, 8):
            for g in corpus[n]:
                assert all_weights(g) == dp_all_weights(g), g
        assert settled == 402

    def test_matches_the_oracle_on_dense_random_graphs(self):
        graphs = dense_gnp(range(8, 13))
        assert sum(kernel._closure_is_complete(g.adj, g.vertex_mask()) for g in graphs) > len(graphs) // 2
        for g in graphs:
            assert all_weights(g) == dp_all_weights(g), g

    def test_matches_the_per_edge_searches_on_larger_dense_graphs(self):
        graphs = dense_gnp(range(13, 17), densities=(0.5, 0.7, 0.9))
        assert sum(kernel._closure_is_complete(g.adj, g.vertex_mask()) for g in graphs) > len(graphs) // 2
        for g in graphs:
            w = all_weights(g)
            assert (w.p, w.c) == per_edge_weights(g), g

    def test_hamiltonian_connected_graphs_run_no_search(self, corpus, monkeypatch):
        """Every graph that is one block with a complete closure: the complete
        graphs, EL~w, whose closure takes two passes, and every such graph on
        up to 7 vertices and of the dense random graphs."""
        graphs = [K(n) for n in range(3, 9)] + [parse_graph6("EL~w")]
        graphs += [g for g in [g for n in range(3, 8) for g in corpus[n]] + dense_gnp(range(8, 17))
                   if closure_blocks(g) == [g.vertex_mask()] and reference_closure_is_complete(g, g.vertex_mask())]
        assert len(graphs) > 100
        calls = count_calls(monkeypatch, cycle="_longest_cycle", path="_longest_path")
        for g in graphs:
            w = all_weights(g)
            assert set(w.c.values()) == {g.n} and set(w.p.values()) == {g.n - 1}, g
        assert calls == {"cycle": 0, "path": 0}


# ---------------------------------------------------------- neighbourhood tables


def random_adjacency(n, density, rng):
    adj = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def reference_covered_twice(adj, s):
    return sum(1 << x for x in range(len(adj)) if (adj[x] & s).bit_count() >= 2)


def reference_dead_ends(adj, reach, tips):
    return sum(1 for x in range(len(adj)) if reach >> x & 1 and (adj[x] & (reach | tips)).bit_count() < 2)


def reference_peel(adj, region, keep):
    """One vertex at a time: drop any vertex outside ``keep`` with fewer than
    two neighbours in the region left, until none is left."""
    while True:
        low = next((1 << x for x in range(len(adj))
                    if (region & ~keep) >> x & 1 and (adj[x] & region).bit_count() < 2), 0)
        if not low:
            return region
        region ^= low


# Around each table width (n = 2 * w - 1, 2 * w, 2 * w + 1) up to the 12-bit
# cap at n = 24, and above it, where a half is split again.
TABLE_SIZES = [0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 40, 64]


@pytest.mark.parametrize("n", TABLE_SIZES)
def test_table_helpers_match_the_direct_references(n):
    """Reach, covered-twice, dead-end and peel steps from the tables against
    ``graph.reachable_within`` and per-vertex loops, on random adjacencies
    of every density and random vertex sets."""
    rng = random.Random(n)
    assert (n > 2 * kernel.TABLE_BITS) == any(isinstance(t, kernel._Wide) for t in kernel.neighbourhood_tables([0] * n))
    for density in (0.05, 0.15, 0.3, 0.6, 0.9):
        adj = random_adjacency(n, density, rng)
        tables = kernel.neighbourhood_tables(adj)
        for _ in range(25):
            a, b, c = (rng.getrandbits(n) for _ in range(3))
            assert kernel.reachable_within(tables, a & ~b, b) == reachable_within(adj, a & ~b, b)
            assert kernel._covered_twice(tables, a) == reference_covered_twice(adj, a)
            assert kernel._dead_ends(tables, a & ~c, c) == reference_dead_ends(adj, a & ~c, c)
            keep = a & c & -(a & c)  # a tip, as the cycle search keeps, or none
            assert kernel._peel(tables, a, keep) == reference_peel(adj, a, keep)
            assert kernel._peel(tables, a, a & c) == reference_peel(adj, a, a & c)


def relabelled(n, edges, seed):
    """The graph on ``edges`` with vertex x renamed order[x], shuffled across
    both table halves, and the renaming ``order``."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return from_edge_list(n, [(order[u], order[v]) for u, v in edges]), order


def random_tree_edges(n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(v), v) for v in range(1, n)]


def tree_path_weights(g):
    """p(e) in a tree: the height of u's side of e, that of v's side, plus one."""
    def height(x, parent):
        return max((height(y, x) + 1 for y in range(g.n) if g.adj[x] >> y & 1 and y != parent), default=0)

    return {(u, v): height(u, v) + height(v, u) + 1 for u, v in g.edges()}


class TestLargeGraphs:
    """all_weights above 2 * TABLE_BITS vertices, with the cap raised, where
    each table half is split again, on graphs whose weights are known."""

    @pytest.mark.parametrize("n", [30, 35, 40])
    def test_long_cycle(self, n):
        g, _ = relabelled(n, [(i, (i + 1) % n) for i in range(n)], n)
        w = all_weights(g, cap=n)
        assert set(w.p.values()) == {n - 1} and set(w.c.values()) == {n}
        assert (w.longest_path, w.circumference) == (n - 1, n)

    @pytest.mark.parametrize("n", [30, 35, 40])
    def test_tree(self, n):
        g, _ = relabelled(n, random_tree_edges(n, n), n + 1)
        w = all_weights(g, cap=n)
        assert w.p == tree_path_weights(g)
        assert set(w.c.values()) == {2} and w.circumference == 0

    @pytest.mark.parametrize("k", [15, 17, 19])
    def test_chain_of_triangles(self, k):
        """Triangles x_{i-1} y_i x_i for i = 1..k, on 2k + 1 vertices: every
        edge lies on a triangle and only there, so c = 3. The path x_0 y_1 x_1
        ... y_k x_k has all 2k edges but the x_{i-1} x_i; a longest path
        through x_{i-1} x_i misses y_i, unless it ends there: 2k - 1, or
        2(k - i) + 2 from y_i rightwards, or 2(i - 1) + 2 leftwards to it."""
        n = 2 * k + 1
        x = [2 * i for i in range(k + 1)]
        y = [None] + [2 * i - 1 for i in range(1, k + 1)]
        edges, p = [], {}
        for i in range(1, k + 1):
            edges += [(x[i - 1], y[i]), (y[i], x[i]), (x[i - 1], x[i])]
            p[x[i - 1], y[i]] = p[y[i], x[i]] = 2 * k
            p[x[i - 1], x[i]] = max(2 * k - 1, 2 * (k - i) + 2, 2 * (i - 1) + 2)
        g, order = relabelled(n, edges, k)
        w = all_weights(g, cap=n)
        assert w.p == {tuple(sorted((order[u], order[v]))): length for (u, v), length in p.items()}
        assert set(w.c.values()) == {3} and len(w.blocks) == k


# sha256 of repr((sorted(p.items()), sorted(c.items()))) of all_weights, recorded
# with the bit-by-bit kernel that the neighbourhood tables replaced.
TAIL_SHA256 = {
    (23, 2): "f07f537b9cf75540971f0325d4619950dba26c4635af62db5d107a29592b752c",
    (24, 3): "3d8a178797c518905d527f88dcb1ea6ba39e274ccbbef803e0422da3dcf11258",
}


@pytest.mark.slow
@pytest.mark.parametrize("n, seed", sorted(TAIL_SHA256))
def test_tail_graphs_at_the_cap(n, seed):
    """Sparse G(n, 0.2) graphs at cap n whose searches must prove that no
    longer path exists: the slowest known inputs of the kernel (a few seconds
    each; run with ``-m slow``)."""
    w = all_weights(random_gnp(n, 0.2, seed), cap=n)
    digest = hashlib.sha256(repr((sorted(w.p.items()), sorted(w.c.items()))).encode("ascii")).hexdigest()
    assert digest == TAIL_SHA256[n, seed]


@pytest.mark.slow
@pytest.mark.parametrize("n", (14, 15))
def test_all_weights_matches_the_oracle_at_the_oracle_cap(n):
    """Sparse G(n, 0.3) at the subset-DP oracle's cap, the orders of the
    ``analyze-sparse`` benchmark, where long paths defeat the prune and the
    kernel is slowest (about 3 s for n = 14 and 9 s for n = 15; run with
    ``-m slow``)."""
    for seed in range(15):
        weights_match_the_oracle(n, 0.3, seed)
