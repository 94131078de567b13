"""Metamorphic tests of the whole evaluation: relabelling a graph changes
nothing, and a disjoint union evaluates as its two parts.

For a vertex permutation pi, ``evaluate_graph(pi(g))`` must give g's census,
p(e) and c(e) carried through pi, and at every order the same bounds,
equality flags, certificate outcomes, verdicts, core report and dominance
record. Each certificate's reduced graph is pi of g's, up to isomorphism,
and its evidence is a vertex set of its own graph that fails the check.
A fast path that depends on the order of the vertex ids breaks one of
these on some labelling.

For g and h, with h's vertices numbered after g's, the union's K_t counts
and its three local bounds are the sums of the parts' (each is a sum over
vertices or edges), p(e) and c(e) are each part's, and a local certificate
holds exactly when it holds on both parts. Its evidence is g's when g fails
the check, and h's, shifted, otherwise, because components and blocks are
found in order of their smallest vertex. A certificate pass that mixes the
parts, or picks another failing part, breaks one of these on some pair.
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
from cliquebounds.bounds import KIND_LOCAL_EDGE_CYCLE, KIND_LOCAL_EDGE_PATH, KIND_LOCAL_VERTEX, PER_ORDER_KINDS
from cliquebounds.graph import iter_bits
from cliquebounds.search import evaluate_graph


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
        return block_decomposition(cert.reduced)
    return connected_components(cert.reduced)


def _certificate_view(g, cert, t):
    """What a certificate must keep under relabelling: its outcome and the
    isomorphism class of its reduced graph. Its evidence, in g's ids, must be
    a part of the checked graph that fails the check."""
    if cert.evidence is not None:
        assert not cert.holds and cert.evidence in _failing_parts(g, cert, t), cert
        assert not is_clique(cert.reduced if cert.reduced.n == g.n else g, cert.evidence), cert
    return cert.kind, cert.holds, cert.evidence is None, _canonical_form(cert.reduced), cert.to_json_dict(t)["description"]


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


LOCAL_KINDS = (KIND_LOCAL_VERTEX, KIND_LOCAL_EDGE_PATH, KIND_LOCAL_EDGE_CYCLE)


def disjoint_union(g, h):
    return from_edge_list(g.n + h.n, [*g.edges(), *((u + g.n, v + g.n) for u, v in h.edges())])


def _local_certificates(order):
    """The vertex, vertex-core, edge and cycle certificates of one order."""
    certs = {kind: order.reports[kind].certificate for kind in LOCAL_KINDS if kind in order.reports}
    return {**certs, "vertex-core": order.core.certificate}


def assert_union_is_the_sum_of_its_parts(g, h, ts):
    u = disjoint_union(g, h)
    mine, theirs, union = (evaluate_graph(x, ts, PER_ORDER_KINDS) for x in (g, h, u))
    for t in range(1, u.n + 1):
        assert union.census.get(t, 0) == mine.census.get(t, 0) + theirs.census.get(t, 0), t
    for name in ("p", "c"):
        weights = getattr(union.weights, name)
        assert {e: weights[e] for e in g.edges()} == getattr(mine.weights, name)
        assert {e: weights[e[0] + g.n, e[1] + g.n] for e in h.edges()} == getattr(theirs.weights, name)
    for a, b, ab in zip(mine.orders, theirs.orders, union.orders, strict=True):
        for kind in LOCAL_KINDS:
            if kind in ab.reports:
                assert ab.reports[kind].bound == a.reports[kind].bound + b.reports[kind].bound, (kind, ab.t)
        ca, cb = _local_certificates(a), _local_certificates(b)
        for kind, cert in _local_certificates(ab).items():
            assert cert.holds == (ca[kind].holds and cb[kind].holds), (kind, ab.t)
            shifted = None if cb[kind].evidence is None else cb[kind].evidence << g.n
            assert cert.evidence == (ca[kind].evidence if ca[kind].evidence is not None else shifted), (kind, ab.t)


def test_disjoint_union_of_small_graphs(corpus6):
    rng = random.Random(21)
    for _ in range(150):
        g, h = rng.choice(corpus6), rng.choice(corpus6)
        assert_union_is_the_sum_of_its_parts(g, h, range(1, 8))


def test_disjoint_union_of_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part = st.builds(random_gnp, st.integers(1, 8), st.floats(0.1, 0.8), st.integers(0, 2**32 - 1))
    # dense enough that its blocks are mostly settled by the closure rule, without a search
    dense = st.builds(random_gnp, st.integers(3, 8), st.floats(0.7, 1.0), st.integers(0, 2**32 - 1))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(part, part, dense)
    def check(g, h, d):
        assert_union_is_the_sum_of_its_parts(g, h, range(1, max(g.max_degree(), h.max_degree()) + 2))
        assert_union_is_the_sum_of_its_parts(d, h, range(1, max(d.max_degree(), h.max_degree()) + 2))

    check()
