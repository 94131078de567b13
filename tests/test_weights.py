"""Path/cycle weights against the subset-DP oracle, plus block structure."""

import pytest

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
from cliquebounds.graph import GraphError, connected_components
from cliquebounds.oracles import dp_all_weights
from cliquebounds.weights import block_vertex_sets


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
    assert any(block_decomposition(g).articulation_points for g in graphs)
    assert any(len(connected_components(g)) > 1 for g in graphs)
    assert any(0 in g.degrees() for g in graphs)
    for g in graphs:
        fast = all_weights(g)
        slow = dp_all_weights(g)
        assert fast == slow, g


class TestBlocks:
    def test_two_triangles_sharing_a_vertex(self):
        bowtie = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        decomp = block_decomposition(bowtie)
        assert len(decomp.blocks) == 2
        assert decomp.articulation_points == 0b1

    def test_path_blocks_are_bridges(self):
        decomp = block_decomposition(path(3))
        assert sorted(decomp.blocks) == [((0, 1),), ((1, 2),)]
        assert decomp.articulation_points == 0b010

    def test_k4_single_block(self):
        decomp = block_decomposition(K(4))
        assert len(decomp.blocks) == 1
        assert decomp.articulation_points == 0

    def test_isolated_vertices_have_no_block(self):
        assert block_decomposition(from_edge_list(3, [])).blocks == []

    def test_blocks_partition_edges(self, corpus6):
        for g in corpus6:
            decomp = block_decomposition(g)
            seen = []
            for block in decomp.blocks:
                seen.extend(block)
            assert sorted(seen) == g.edges()
            masks = block_vertex_sets(decomp)
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
