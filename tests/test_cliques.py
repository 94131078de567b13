"""Clique counting against the naive subset oracle and the paper-style identities."""

import math

import pytest

from cliquebounds import (
    clique_census,
    cliques_through_vertex,
    common_neighbors,
    count_all_cliques,
    count_cliques,
    from_edge_list,
    induced_subgraph,
)
from cliquebounds.bounds import binom
from cliquebounds.graph import GraphError
from cliquebounds.enumeration import random_gnp
from cliquebounds.oracles import naive_count_all_cliques, naive_count_cliques


def K(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


PAW = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])
STAR = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
C4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
DIAMOND = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])


def test_k4_triangles():
    counts = count_cliques(K(4), 3)
    assert counts.total == 4
    assert counts.per_vertex == (3, 3, 3, 3)
    assert all(v == 2 for v in counts.per_edge.values())


def test_p3_has_no_triangle():
    assert count_cliques(P3, 3).total == 0


def test_paw_per_vertex():
    counts = count_cliques(PAW, 3)
    assert counts.total == 1
    assert counts.per_vertex == (1, 1, 1, 0)


def test_order_one_counts_vertices():
    counts = count_cliques(PAW, 1)
    assert counts.total == 4
    assert counts.per_vertex == (1, 1, 1, 1)
    assert all(v == 0 for v in counts.per_edge.values())


def test_order_above_n_is_zero():
    assert count_cliques(P3, 7).total == 0


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        count_cliques(P3, 0)


@pytest.mark.parametrize("g,expected", [(K(3), 7), (P3, 5), (K(4), 15)])
def test_count_all_cliques(g, expected):
    assert count_all_cliques(g) == expected


def test_cliques_through_vertex_examples():
    assert cliques_through_vertex(K(4), 2, 3) == 3
    assert cliques_through_vertex(STAR, 0, 2) == 3
    assert cliques_through_vertex(P3, 1, 3) == 0
    assert cliques_through_vertex(P3, 1, 1) == 1


def test_common_neighbors_examples():
    assert all(common_neighbors(K(4), e) == 2 for e in K(4).edges())
    assert all(common_neighbors(C4, e) == 0 for e in C4.edges())
    assert common_neighbors(DIAMOND, (1, 3)) == 2  # the chord
    with pytest.raises(GraphError):
        common_neighbors(C4, (0, 2))


def test_census_matches_direct_counts():
    for seed in range(10):
        g = random_gnp(8, 0.5, seed)
        census = clique_census(g)
        for t in range(1, g.n + 1):
            direct = count_cliques(g, t)
            assert census[t] == direct.total


def test_double_counting_invariants():
    for seed in range(20):
        g = random_gnp(9, 0.4, 100 + seed)
        for t in range(1, g.n + 1):
            counts = count_cliques(g, t)
            assert sum(counts.per_vertex) == t * counts.total
            if t >= 2:
                assert sum(counts.per_edge.values()) == math.comb(t, 2) * counts.total


def test_per_edge_bounded_by_common_neighbors():
    for seed in range(20):
        g = random_gnp(8, 0.6, 200 + seed)
        for t in range(2, g.n + 1):
            counts = count_cliques(g, t)
            for e, through in counts.per_edge.items():
                assert through <= binom(common_neighbors(g, e), t - 2)


def test_oracle_agreement_random():
    for seed in range(15):
        g = random_gnp(9, 0.5, 300 + seed)
        for t in range(1, g.n + 1):
            fast = count_cliques(g, t)
            slow = naive_count_cliques(g, t)
            assert fast.total == slow.total
            assert fast.per_vertex == slow.per_vertex
            assert fast.per_edge == slow.per_edge
    g = random_gnp(7, 0.5, 999)
    assert count_all_cliques(g) == naive_count_all_cliques(g)


def test_neighborhood_identity_exhaustive(corpus6):
    # K_t through x equals the K_{t-1} count inside the neighborhood of x,
    # with both sides computed by different code paths.
    for g in corpus6:
        censuses = {t: count_cliques(g, t) for t in range(2, g.n + 1)}
        for x in range(g.n):
            for t in range(2, g.n + 1):
                via_neighborhood = cliques_through_vertex(g, x, t)
                assert via_neighborhood == censuses[t].per_vertex[x]


def test_neighborhood_identity_random_n8():
    for seed in range(100):
        g = random_gnp(8, 0.5, 400 + seed)
        for x in range(g.n):
            sub, _ = induced_subgraph(g, g.adj[x])
            for t in range(2, g.n + 1):
                assert cliques_through_vertex(g, x, t) == count_cliques(g, t).per_vertex[x]
                assert cliques_through_vertex(g, x, t) == count_cliques(sub, t - 1).total
