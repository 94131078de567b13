"""block_decomposition against networkx on every graph of the Read-Wilson atlas.

One decomposition feeds the weights, the blocks section of ``analyze``,
``is_block_forest`` and the cc_cycle certificate, so it gets an independent
oracle. networkx is a test-only dependency; the runtime stays stdlib-only.
"""

import pytest

from cliquebounds import block_decomposition, from_edge_list

nx = pytest.importorskip("networkx")


def test_blocks_and_articulation_points_match_networkx():
    graphs = nx.graph_atlas_g()
    assert len(graphs) == 1253
    for h in graphs:
        g = from_edge_list(h.number_of_nodes(), h.edges())
        decomp = block_decomposition(g)
        ours = sorted(tuple(block) for block in decomp.blocks)
        theirs = sorted(
            tuple(sorted((min(u, v), max(u, v)) for u, v in block)) for block in nx.biconnected_component_edges(h)
        )
        assert ours == theirs, h.edges()
        points = {v for v in range(g.n) if (decomp.articulation_points >> v) & 1}
        assert points == set(nx.articulation_points(h)), h.edges()
