"""Metamorphic tests of the whole evaluation: relabelling a graph changes nothing.

For a vertex permutation pi, ``evaluate_graph(pi(g))`` must give g's census,
p(e) and c(e) carried through pi, and at every order the same bounds,
equality flags, certificate outcomes, verdicts, core report and dominance
record. Each certificate's reduced graph is pi of g's, up to isomorphism,
and its evidence is a vertex set of its own graph that fails the check.
A fast path that depends on the order of the vertex ids breaks one of
these on some labelling.
"""

import functools
import random

import pytest

from cliquebounds import (
    block_decomposition,
    canonical_form,
    connected_components,
    from_edge_list,
    induced_subgraph,
    is_clique,
    random_gnp,
    x_core,
    x_set,
)
from cliquebounds.bounds import PER_ORDER_KINDS
from cliquebounds.graph import iter_bits
from cliquebounds.search import evaluate_graph
from cliquebounds.weights import block_vertex_sets


_canonical_form = functools.lru_cache(maxsize=256)(canonical_form)  # the orders of one graph share reduced graphs


def relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _edge(perm, e):
    u, v = perm[e[0]], perm[e[1]]
    return (u, v) if u < v else (v, u)


def _failing_parts(g, cert, t):
    """The parts of the checked graph that the certificate's check may name,
    in g's vertex ids: the components of the kept vertices, of the graph
    minus the short edges, or the blocks of the latter."""
    keep = {"vertex": x_set, "vertex-core": x_core}.get(cert.kind)
    if keep is not None:
        reduced, id_map = induced_subgraph(g, keep(g, t))
        return [sum(1 << id_map[v] for v in iter_bits(comp)) for comp in connected_components(reduced)]
    if cert.kind == "cycle":
        return block_vertex_sets(block_decomposition(cert.reduced))
    return connected_components(cert.reduced)


def _certificate_view(g, cert, t):
    """What a certificate must keep under relabelling: its outcome and the
    isomorphism class of its reduced graph. Its evidence, in g's ids, must be
    a part of the checked graph that fails the check."""
    if cert.evidence is not None:
        assert not cert.holds and cert.evidence in _failing_parts(g, cert, t), cert
        assert not is_clique(cert.reduced if cert.reduced.n == g.n else g, cert.evidence), cert
    return cert.kind, cert.holds, cert.evidence is None, _canonical_form(cert.reduced), cert.description


def _order_view(g, order):
    t = order.t
    reports = {
        kind: (r.count, r.bound, r.slack, r.equality, _certificate_view(g, r.certificate, t))
        for kind, r in order.reports.items()
    }
    core = None if order.core is None else (order.core.bound, order.core.equality,
                                            _certificate_view(g, order.core.certificate, t))
    return t, order.count, reports, core, order.verdicts, order.dominance


def assert_relabelling_invariant(g, perm, ts):
    h = relabel(g, perm)
    mine, theirs = evaluate_graph(g, ts, PER_ORDER_KINDS), evaluate_graph(h, ts, PER_ORDER_KINDS)
    assert theirs.census == mine.census
    for name in ("p", "c"):
        assert getattr(theirs.weights, name) == {_edge(perm, e): w for e, w in getattr(mine.weights, name).items()}
    assert (theirs.weights.longest_path, theirs.weights.circumference) == (
        mine.weights.longest_path, mine.weights.circumference
    )
    for a, b in zip(mine.orders, theirs.orders, strict=True):
        assert _order_view(g, a) == _order_view(h, b), (a.t, perm)


def test_relabelling_every_graph_up_to_six_vertices(corpus6):
    rng = random.Random(20)
    for g in corpus6:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert_relabelling_invariant(g, perm, range(1, 7))


def test_relabelling_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 10), st.floats(0.1, 0.8), st.integers(0, 2**32 - 1), st.data())
    def check(n, density, seed, data):
        g = random_gnp(n, density, seed)
        perm = data.draw(st.permutations(range(n)))
        assert_relabelling_invariant(g, perm, range(1, g.max_degree() + 2))

    check()
