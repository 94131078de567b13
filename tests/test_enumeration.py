"""Canonical labeling, exhaustive enumeration, and random graph models."""

from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cliquebounds import (
    CapExceededError,
    Graph,
    GraphError,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    enumerate_levels,
    from_edge_list,
    random_gnp,
    random_graph,
    random_regular,
    write_graph6,
)
from cliquebounds.enumeration import _canonical_order, _refined_classes
from cliquebounds.graph import iter_bits
from cliquebounds.oracles import PRODUCT_CANONICAL_CAP, product_canonical_graph


def relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def graph_and_permutation(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    npairs = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1)) if npairs else 0
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    g = from_edge_list(n, [pairs[k] for k in range(npairs) if (bits >> k) & 1])
    perm = draw(st.permutations(range(n)))
    return g, list(perm)


class TestCanonicalForm:
    def test_relabelings_collide(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = from_edge_list(3, [(0, 1), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_different_graphs_differ(self):
        p3 = from_edge_list(3, [(0, 1), (1, 2)])
        k3 = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
        assert canonical_form(p3) != canonical_form(k3)

    @given(graph_and_permutation())
    @settings(max_examples=150)
    def test_invariant_under_relabeling(self, data):
        g, perm = data
        assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_three_edge_graphs_on_four_vertices(self):
        from itertools import combinations

        pairs = list(combinations(range(4), 2))
        labels = {
            canonical_form(from_edge_list(4, list(combo))) for combo in combinations(pairs, 3)
        }
        assert len(labels) == 3  # path, triangle plus isolated, star

    def test_canonical_graph_is_its_own_form(self):
        g = from_edge_list(5, [(0, 2), (2, 4), (4, 1), (1, 3)])
        cg = canonical_graph(g)
        assert write_graph6(cg) == canonical_form(g)
        assert canonical_form(cg) == canonical_form(g)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            canonical_form(Graph(11, [0] * 11))


def extensions(g):
    """Every one-vertex extension of g: the new vertex n - 1 joined to each subset."""
    n = g.n + 1
    newbit = 1 << (n - 1)
    for subset in range(newbit):
        rows = list(g.adj)
        for v in iter_bits(subset):
            rows[v] |= newbit
        yield Graph(n, rows + [subset])


@st.composite
def graphs_up_to_10(draw):
    """A uniform random graph, or a blow-up of one into twin cliques and independent sets."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=10))
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        return from_edge_list(n, [e for e in pairs if draw(st.booleans())])
    k = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k))
    assume(sum(sizes) <= 10)
    base = [(i, j) for j in range(1, k) for i in range(j) if draw(st.booleans())]
    parts, start = [], 0
    for size in sizes:
        parts.append(range(start, start + size))
        start += size
    edges = [(u, v) for i, j in base for u in parts[i] for v in parts[j]]
    for part in parts:
        if draw(st.booleans()):  # a clique of twins, else an independent set of them
            edges += [(u, v) for u in part for v in part if u < v]
    return from_edge_list(start, edges)


class TestCanonicalSearch:
    """The pruned search against the full product of class permutations."""

    def test_every_extension_up_to_seven_vertices_matches_the_oracle(self):
        checked = 0
        for level in enumerate_levels(range(1, 7)):
            for parent in level:
                for g in extensions(parent):
                    assert canonical_graph(g).adj == product_canonical_graph(g).adj, write_graph6(g)
                    checked += 1
        assert checked == 11_290

    @given(graphs_up_to_10())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs_match_the_oracle(self, g):
        assume(prod(factorial(len(c)) for c in _refined_classes(g)) <= PRODUCT_CANONICAL_CAP)
        assert canonical_graph(g).adj == product_canonical_graph(g).adj

    def test_oracle_refuses_more_orders_than_its_cap(self):
        with pytest.raises(CapExceededError, match="vertex orders"):
            product_canonical_graph(Graph(9, [0] * 9))

    def test_twins_keep_the_search_small_at_the_cap(self):
        # K5,5 comes first: without the twin rule it alone reaches 28,800 leaves.
        k55 = from_edge_list(10, [(i, j) for i in range(5) for j in range(5, 10)])
        k10 = from_edge_list(10, [(i, j) for j in range(10) for i in range(j)])
        for g, leaves in ((k55, 2), (k10, 1), (Graph(10, [0] * 10), 1)):
            order, reached = _canonical_order(g.adj, _refined_classes(g))
            assert reached == leaves
            assert sorted(order) == list(range(10))


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,count", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]
    )
    def test_class_counts(self, n, count):
        assert len(enumerate_graphs(n)) == count

    def test_representatives_are_canonical_and_unique(self):
        graphs = enumerate_graphs(5)
        forms = [write_graph6(g) for g in graphs]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        for g in graphs:
            assert write_graph6(canonical_graph(g)) == write_graph6(g)

    def test_deterministic_order(self):
        assert [write_graph6(g) for g in enumerate_graphs(4)] == [
            write_graph6(g) for g in enumerate_graphs(4)
        ]

    def test_over_cap_suggests_external_enumerator(self):
        with pytest.raises(CapExceededError, match="external enumerator"):
            enumerate_graphs(9)


class TestAtlas:
    def test_classes_match_the_graph_atlas(self):
        nx = pytest.importorskip("networkx")

        def invariant(h):
            return sorted(zip((d for _, d in h.degree()), nx.triangles(h).values()))

        atlas: dict[int, dict[str, list]] = {}  # n -> invariant -> atlas graphs
        for h in nx.graph_atlas_g():
            bucket = atlas.setdefault(h.number_of_nodes(), {})
            bucket.setdefault(repr(invariant(h)), []).append(h)
        for n, level in enumerate(enumerate_levels(range(8))):
            unmatched = atlas[n]
            for g in level:
                h = nx.Graph()
                h.add_nodes_from(range(g.n))
                h.add_edges_from(g.edges())
                bucket = unmatched.get(repr(invariant(h)), [])
                matches = [i for i, a in enumerate(bucket) if nx.is_isomorphic(h, a)]
                assert len(matches) == 1, write_graph6(g)
                bucket.pop(matches[0])
            assert not any(unmatched.values()), f"atlas classes on {n} vertices not enumerated"


def forms(graphs):
    return [write_graph6(g) for g in graphs]


class TestLevels:
    def test_levels_match_per_n_enumeration_in_request_order(self):
        ns = (4, 2, 4, 0, 5, 1)
        assert [forms(level) for level in enumerate_levels(ns)] == [forms(enumerate_graphs(n)) for n in ns]

    def test_given_parents_give_the_same_level(self):
        assert forms(enumerate_graphs(5, enumerate_graphs(4))) == forms(enumerate_graphs(5))

    def test_parents_of_the_wrong_order_are_rejected(self):
        with pytest.raises(ValueError, match="parents"):
            enumerate_graphs(5, enumerate_graphs(3))

    def test_each_level_is_built_once(self, monkeypatch):
        import cliquebounds.enumeration as enumeration

        calls = []
        original = enumeration.canonical_graph
        monkeypatch.setattr(
            enumeration, "canonical_graph", lambda g, classes=None: calls.append(g.n) or original(g, classes)
        )
        assert [len(level) for level in enumerate_levels(range(1, 6))] == [1, 2, 4, 11, 34]
        # Level k labels only the one-vertex extensions of level k - 1 whose new
        # vertex is in the last refined class; building a level twice, or
        # labelling all 1 * 2 + 2 * 4 + 4 * 8 + 11 * 16 = 218, would show here.
        assert len(calls) == 87 < 218

    def test_every_order_is_checked_before_any_level_is_built(self, monkeypatch):
        import cliquebounds.enumeration as enumeration

        monkeypatch.setattr(enumeration, "canonical_graph", None)  # any build would fail with TypeError
        with pytest.raises(CapExceededError, match="external enumerator"):
            next(enumerate_levels([3, 9]))
        with pytest.raises(GraphError):
            next(enumerate_levels([3, -1]))


class TestRandomModels:
    def test_extreme_probabilities(self):
        assert random_gnp(5, 1.0, 3).m == 10
        assert random_gnp(5, 0.0, 3).m == 0

    def test_seed_reproducibility(self):
        assert random_gnp(9, 0.5, 42) == random_gnp(9, 0.5, 42)
        assert random_regular(8, 3, 7) == random_regular(8, 3, 7)

    def test_regular_sampler_is_simple_and_regular(self):
        for seed in range(5):
            g = random_regular(8, 3, seed)
            assert g.degrees() == (3,) * 8

    def test_infeasible_degree_sequence(self):
        with pytest.raises(ValueError, match="infeasible"):
            random_regular(5, 3, 0)
        with pytest.raises(ValueError, match="infeasible"):
            random_regular(4, 4, 0)

    @pytest.mark.parametrize("n", [-2, -1, 65])
    def test_vertex_count_out_of_range(self, n):
        with pytest.raises(GraphError, match=f"vertex count {n} outside"):
            random_gnp(n, 0.5, 1)
        with pytest.raises(GraphError, match=f"vertex count {n} outside"):
            random_regular(n, 2, 1)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            random_gnp(4, 1.5, 0)

    def test_dispatch(self):
        assert random_graph("gnp", 5, {"p": 1.0}, 0).m == 10
        assert random_graph("regular", 6, {"d": 2}, 0).degrees() == (2,) * 6
        with pytest.raises(ValueError, match="unknown random model"):
            random_graph("smallworld", 5, {}, 0)
