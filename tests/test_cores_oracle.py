"""core_numbers against networkx on every graph of the Read-Wilson atlas.

One core decomposition gives the (t-1)-core of every order t, the key of the
vertex-core certificate, so it gets an independent oracle and is checked
against the per-t fixed point ``x_core``. networkx is a test-only
dependency; the runtime stays stdlib-only.
"""

import pytest

from cliquebounds import core_numbers, from_edge_list, x_core

nx = pytest.importorskip("networkx")


def test_core_numbers_match_networkx_and_x_core():
    graphs = nx.graph_atlas_g()
    assert len(graphs) == 1253
    for h in graphs:
        g = from_edge_list(h.number_of_nodes(), h.edges())
        core = core_numbers(g)
        assert dict(enumerate(core)) == nx.core_number(h), h.edges()
        for t in range(1, g.n + 2):
            assert sum(1 << v for v in range(g.n) if core[v] >= t - 1) == x_core(g, t), (h.edges(), t)
