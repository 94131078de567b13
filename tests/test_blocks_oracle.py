"""block_decomposition against networkx, on every graph of the Read-Wilson
atlas and on seeded G(n, p) beyond it.

One decomposition feeds the weights, the blocks section of ``analyze``,
``is_block_forest`` and the cc_cycle certificate, so it gets an independent
oracle. networkx is a test-only dependency; the runtime stays stdlib-only.

networkx's DFS starts from each vertex in turn and visits neighbours in
insertion order, ascending here, so it closes the blocks in the order
``block_decomposition`` does; that order picks the cycle certificate's
evidence, so the blocks are compared as lists.
"""

import pytest

from cliquebounds import block_decomposition, connected_components, from_edge_list, random_gnp
from cliquebounds.weights import articulation_points

nx = pytest.importorskip("networkx")


def assert_blocks_match_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    blocks = block_decomposition(g)
    assert blocks == [sum(1 << v for v in block) for block in nx.biconnected_components(h)], g.edges()
    points = articulation_points(blocks)
    assert {v for v in range(g.n) if points >> v & 1} == set(nx.articulation_points(h)), g.edges()
    # each edge lies in exactly one block: the blocks' edges partition g's
    for u, v in g.edges():
        assert sum(mask >> u & mask >> v & 1 for mask in blocks) == 1, (g.edges(), (u, v))


def test_blocks_and_articulation_points_match_networkx():
    graphs = nx.graph_atlas_g()
    assert len(graphs) == 1253
    for h in graphs:
        assert_blocks_match_networkx(from_edge_list(h.number_of_nodes(), h.edges()))


def test_blocks_match_networkx_beyond_the_atlas():
    """Sparse to dense G(n, p), n = 8..30: many have several components, and
    isolated vertices, bridges and cut vertices."""
    graphs = [random_gnp(n, p, seed) for n in range(8, 31) for p in (0.05, 0.12, 0.25, 0.5) for seed in range(4)]
    assert sum(len(connected_components(g)) > 1 for g in graphs) > 50
    assert sum(0 in g.degrees() for g in graphs) > 50
    assert sum(any(mask.bit_count() > 2 for mask in block_decomposition(g)) for g in graphs) > 100
    for g in graphs:
        assert_blocks_match_networkx(g)
