"""Equality certificates, threshold sets, reductions, and cross-validation."""

from fractions import Fraction
from functools import partial

import pytest

from cliquebounds import (
    all_weights,
    count_cliques,
    cross_validate,
    cycle_equality_certificate,
    delete_edges,
    edge_equality_certificate,
    equals_count,
    from_edge_list,
    induced_subgraph,
    local_vertex_bound,
    vertex_equality_certificate,
    w_set,
    x_core,
    x_set,
    z_set,
)
from cliquebounds.bounds import (
    KIND_LOCAL_EDGE_CYCLE,
    KIND_LOCAL_EDGE_PATH,
    KIND_LOCAL_VERTEX,
    KIND_WOOD,
    PER_ORDER_KINDS,
    binom,
    local_edge_path_bound,
    order_bounds,
)
from cliquebounds.certificates import (
    VERDICT_BOTH_FAIL,
    VERDICT_BOTH_HOLD,
    VERDICT_DISCREPANCY,
    VERDICT_EXEMPT,
    OrderCertificates,
    conjecture_verdict,
    is_block_forest_of_kr,
    is_clique_union_with_isolated,
    is_disjoint_clique_union,
    vertex_core_certificate,
)
from cliquebounds.graph import connected_components, is_clique
from cliquebounds.search import evaluate_graph, evaluate_kind
from cliquebounds.weights import block_decomposition


def K(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


STAR = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
PAW = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
TWO_K4 = from_edge_list(
    8, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
)


class TestThresholdSets:
    def test_x_set_star(self):
        assert x_set(STAR, 3) == 0b0001

    def test_x_set_complete(self):
        assert x_set(K(4), 3) == 0b1111

    def test_x_set_order_one_keeps_everything(self):
        assert x_set(PAW, 1) == 0b1111

    def test_x_core_iterates_to_fixed_point(self):
        # path on 5: one threshold pass keeps the middle three, the core is empty
        p5 = path(5)
        assert x_set(p5, 3) == 0b01110
        assert x_core(p5, 3) == 0

    def test_z_set_examples(self):
        p4 = path(4)
        w = all_weights(p4)
        assert sorted(z_set(p4, w, 5)) == p4.edges()
        k4 = K(4)
        wk = all_weights(k4)
        assert z_set(k4, wk, 3) == []
        assert w_set(k4, wk, 3) == []

    def test_w_set_tree(self):
        tree = path(5)
        w = all_weights(tree)
        assert sorted(w_set(tree, w, 3)) == tree.edges()

    def test_threshold_edges_carry_no_clique(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            for t in range(2, g.n + 1):
                census = count_cliques(g, t)
                for e in z_set(g, w, t):
                    assert census.per_edge[e] == 0
                for e in w_set(g, w, t):
                    assert census.per_edge[e] == 0


class TestVertexCertificate:
    def test_disjoint_cliques_hold(self):
        cert = vertex_equality_certificate(TWO_K4, 3)
        assert cert.holds and cert.evidence is None

    def test_p3_single_step_holds_at_t3(self):
        # only the middle vertex survives one threshold pass; a K1 is a clique
        cert = vertex_equality_certificate(path(3), 3)
        assert cert.holds
        assert cert.reduced.n == 1

    def test_c5_fails_with_cycle_evidence(self):
        cert = vertex_equality_certificate(cycle(5), 3)
        assert not cert.holds
        assert cert.evidence == 0b11111

    def test_evidence_is_a_genuine_non_clique_component(self, corpus6):
        for g in corpus6:
            for t in range(2, g.n + 1):
                cert = vertex_equality_certificate(g, t)
                if cert.holds:
                    assert cert.evidence is None
                    continue
                reduced = cert.reduced
                keep = x_set(g, t)
                sub, mapping = induced_subgraph(g, keep)
                assert sub == reduced
                # evidence maps back to a component of the reduced graph
                local = 0
                for i, orig in enumerate(mapping):
                    if (cert.evidence >> orig) & 1:
                        local |= 1 << i
                assert local in connected_components(reduced)
                assert not is_clique(reduced, local)


class TestEdgeCertificate:
    def test_k4_plus_isolated_holds(self):
        g = from_edge_list(6, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        cert = edge_equality_certificate(g, all_weights(g), 3)
        assert cert.holds

    def test_paw_fails(self):
        cert = edge_equality_certificate(PAW, all_weights(PAW), 3)
        assert not cert.holds

    def test_p4_at_high_order_holds(self):
        p4 = path(4)
        cert = edge_equality_certificate(p4, all_weights(p4), 5)
        assert cert.holds
        assert cert.reduced.m == 0


class TestCycleCertificate:
    def test_two_cliques_sharing_a_vertex(self):
        g = from_edge_list(
            7,
            [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)],
        )
        cert = cycle_equality_certificate(g, all_weights(g), 3)
        assert cert.holds

    def test_c4_fails(self):
        c4 = cycle(4)
        cert = cycle_equality_certificate(c4, all_weights(c4), 3)
        assert not cert.holds
        assert cert.evidence == 0b1111

    def test_tree_holds(self):
        tree = STAR
        cert = cycle_equality_certificate(tree, all_weights(tree), 3)
        assert cert.holds


class TestReductionLemmas:
    def test_low_degree_vertices_contribute_nothing(self, corpus6):
        for g in corpus6:
            for t in range(1, g.n + 1):
                keep = x_set(g, t)
                sub, _ = induced_subgraph(g, keep)
                assert count_cliques(g, t).total == count_cliques(sub, t).total
                full_sum = sum(binom(d, t - 1) for d in g.degrees())
                kept_sum = sum(binom(g.degree(v), t - 1) for v in range(g.n) if (keep >> v) & 1)
                assert full_sum == kept_sum
                core, _ = induced_subgraph(g, x_core(g, t))
                assert count_cliques(core, t).total == count_cliques(g, t).total

    def test_short_path_edges_contribute_nothing(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            for t in range(2, g.n + 1):
                dead = z_set(g, w, t)
                stripped = delete_edges(g, dead)
                assert count_cliques(stripped, t).total == count_cliques(g, t).total
                # surviving edges keep their exact weight: maximal paths avoid dead edges
                w2 = all_weights(stripped)
                for e in stripped.edges():
                    if e not in dict.fromkeys(dead):
                        assert w2.p[e] == w.p[e]
                assert local_edge_path_bound(g, w, t) == local_edge_path_bound(stripped, w2, t)

    def test_clique_components_are_tight(self, corpus6):
        for g in corpus6:
            if not all(is_clique(g, comp) for comp in connected_components(g)):
                continue
            for t in range(1, g.n + 1):
                assert equals_count(count_cliques(g, t).total, local_vertex_bound(g, t))


def cross_validate_at(g, t):
    """The local_vertex report, its core report from cross_validate, and the
    verdicts of that core report and of the local_edge_path report at order
    t, with an independent count."""
    w = all_weights(g)
    count = count_cliques(g, t).total
    bounds = order_bounds(g, w, [t])[t]
    certificates = OrderCertificates(g, w)
    vertex = evaluate_kind(certificates, count, t, KIND_LOCAL_VERTEX, bounds[KIND_LOCAL_VERTEX])
    edge = evaluate_kind(certificates, count, t, KIND_LOCAL_EDGE_PATH, bounds[KIND_LOCAL_EDGE_PATH])
    core = cross_validate(vertex, vertex_core_certificate(g, t))
    return vertex, core, conjecture_verdict(core), conjecture_verdict(edge)


def test_order_certificates_reject_orders_below_each_kind():
    g = K(4)
    certificates = OrderCertificates(g, all_weights(g))
    checks = [(partial(certificates.of, kind), 1 if kind in (KIND_LOCAL_VERTEX, KIND_WOOD) else 2) for kind in PER_ORDER_KINDS]
    for build, lowest in [*checks, (partial(certificates.of, "vertex-core"), 1)]:
        build(lowest)  # a seen key must not serve an order its builder rejects
        with pytest.raises(ValueError, match=f"got {lowest - 1}"):
            build(lowest - 1)


def test_orders_sharing_a_reduced_graph_share_one_certificate(corpus6):
    """``of`` hands every order with the same reduced graph, as the per-t
    threshold functions give it, the same object, and each reduced graph its
    own; a classical certificate is one object at every order."""
    for g in corpus6:
        w = all_weights(g)
        certificates = OrderCertificates(g, w)
        keys = {
            KIND_LOCAL_VERTEX: partial(x_set, g),
            "vertex-core": partial(x_core, g),
            KIND_LOCAL_EDGE_PATH: lambda t: frozenset(z_set(g, w, t)),
            KIND_LOCAL_EDGE_CYCLE: lambda t: frozenset(w_set(g, w, t)),
        }
        for kind in [*PER_ORDER_KINDS, "vertex-core"]:
            key = keys.get(kind, lambda t: None)
            ts = range(1 if kind in (KIND_LOCAL_VERTEX, KIND_WOOD, "vertex-core") else 2, 8)
            for t1 in ts:
                for t2 in ts:
                    same = key(t1) == key(t2)
                    assert (certificates.of(kind, t1) is certificates.of(kind, t2)) == same, (kind, t1, t2)


class TestCrossValidation:
    def test_k4_both_hold(self):
        _, _, vertex_verdict, edge_verdict = cross_validate_at(K(4), 3)
        assert vertex_verdict == VERDICT_BOTH_HOLD
        assert edge_verdict == VERDICT_BOTH_HOLD

    def test_p3_order_two_vertex_discrepancy(self):
        vertex, _, vertex_verdict, edge_verdict = cross_validate_at(path(3), 2)
        assert vertex.equality is True
        assert vertex.certificate.holds is False
        assert vertex_verdict == VERDICT_DISCREPANCY
        assert edge_verdict == VERDICT_EXEMPT

    def test_c5_both_fail(self):
        _, _, vertex_verdict, edge_verdict = cross_validate_at(cycle(5), 3)
        assert vertex_verdict == VERDICT_BOTH_FAIL
        assert edge_verdict == VERDICT_BOTH_FAIL

    def test_unreduced_pair_reported_alongside(self):
        # bound 1/3 > count 0 while the one-pass certificate holds; the core
        # comparison resolves the mismatch
        p3 = path(3)
        vertex, core, vertex_verdict, _ = cross_validate_at(p3, 3)
        assert local_vertex_bound(p3, 3) == Fraction(1, 3)
        assert vertex.equality is False
        assert vertex.certificate.holds is True
        assert core.kind == KIND_LOCAL_VERTEX and (core.t, core.count, core.bound, core.slack) == (3, 0, 0, 0)
        assert core.equality is True and core.certificate.holds is True and core.certificate.kind == "vertex-core"
        assert vertex_verdict == VERDICT_BOTH_HOLD

    def test_vertex_verdict_is_exempt_below_order_two(self):
        order = evaluate_graph(path(3), [1], (KIND_LOCAL_VERTEX,)).orders[0]
        assert order.core.equality is True and order.core.certificate.holds is False
        assert order.verdicts == {KIND_LOCAL_VERTEX: VERDICT_EXEMPT}

    def test_vanishing_orders_are_both_hold(self):
        _, _, vertex_verdict, edge_verdict = cross_validate_at(K(3), 5)
        assert vertex_verdict == VERDICT_BOTH_HOLD
        assert edge_verdict == VERDICT_BOTH_HOLD

    def test_core_certificate_matches_core_components(self, corpus6):
        for g in corpus6:
            for t in range(2, g.n + 1):
                cert = vertex_core_certificate(g, t)
                core, _ = induced_subgraph(g, x_core(g, t))
                expected = all(is_clique(core, comp) for comp in connected_components(core))
                assert cert.holds == expected


class TestStructurePredicates:
    def test_disjoint_clique_union(self):
        assert is_disjoint_clique_union(TWO_K4, 4)
        assert not is_disjoint_clique_union(TWO_K4, 3)
        assert not is_disjoint_clique_union(PAW, 4)
        assert is_disjoint_clique_union(from_edge_list(3, []), 1)

    def test_clique_union_with_isolated(self):
        g = from_edge_list(6, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert is_clique_union_with_isolated(g, 4)
        assert not is_clique_union_with_isolated(g, 3)

    def test_block_forest_of_kr(self):
        g = from_edge_list(
            7,
            [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
        )
        assert is_block_forest_of_kr(g, 4, block_decomposition(g))
        assert not is_block_forest_of_kr(g, 3, block_decomposition(g))
        assert not is_block_forest_of_kr(PAW, 3, block_decomposition(PAW))  # the pendant bridge is a K2 block
