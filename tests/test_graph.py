"""Graph construction, bit-exact graph6 round trips, and basic operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquebounds import (
    Graph,
    GraphError,
    connected_components,
    delete_edges,
    delete_vertex,
    from_edge_list,
    induced_subgraph,
    is_clique,
    parse_edge_list_text,
    parse_graph6,
    to_edge_list_text,
    write_graph6,
)
from cliquebounds.graph import iter_bits, mask_of


def K(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def random_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    npairs = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1)) if npairs else 0
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = [pairs[k] for k in range(npairs) if (bits >> k) & 1]
    return from_edge_list(n, edges)


class TestConstruction:
    def test_complete_graph(self):
        g = K(4)
        assert g.n == 4 and g.m == 6
        assert g.degrees() == (3, 3, 3, 3)

    def test_path_degrees(self):
        g = path(3)
        assert g.degrees() == (1, 2, 1)
        assert g.m == 2

    def test_isolated_vertex(self):
        g = from_edge_list(1, [])
        assert g.n == 1 and g.m == 0

    def test_duplicate_pairs_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected_with_position(self):
        with pytest.raises(GraphError, match="edge 1.*self-loop"):
            from_edge_list(3, [(0, 1), (2, 2)])

    def test_out_of_range_rejected_with_position(self):
        with pytest.raises(GraphError, match="edge 0"):
            from_edge_list(2, [(0, 5)])

    def test_vertex_cap(self):
        with pytest.raises(GraphError, match="0..64"):
            from_edge_list(65, [])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError, match="asymmetric"):
            Graph(2, [0b10, 0b00])

    @given(random_graphs())
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.m


class TestGraph6:
    @pytest.mark.parametrize(
        "text,n,m",
        [("C~", 4, 6), ("Bw", 3, 3), ("Bg", 3, 2), ("@", 1, 0), ("?", 0, 0)],
    )
    def test_known_encodings(self, text, n, m):
        g = parse_graph6(text)
        assert (g.n, g.m) == (n, m)
        assert write_graph6(g) == text

    def test_k4_decodes_complete(self):
        assert parse_graph6("C~") == K(4)

    def test_p3_bit_packing(self):
        # edges 01 and 12: upper-triangle bits 101, padded to 101000 -> 'g'
        assert write_graph6(path(3)) == "Bg"

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<C~") == K(4)

    def test_bare_header_rejected(self):
        with pytest.raises(GraphError, match="no graph after"):
            parse_graph6(">>graph6<<")

    def test_bad_character_names_offset(self):
        with pytest.raises(GraphError, match="byte 1: invalid graph6 character"):
            parse_graph6("C\x01")

    def test_wrong_length(self):
        with pytest.raises(GraphError, match="expected 1 data characters"):
            parse_graph6("C~~")

    def test_long_form_rejected(self):
        with pytest.raises(GraphError, match="long form"):
            parse_graph6("~??~" + "?" * 20)

    def test_write_over_cap(self):
        with pytest.raises(GraphError, match="n <= 62"):
            write_graph6(Graph(63, [0] * 63))

    @given(random_graphs())
    @settings(max_examples=200)
    def test_round_trip(self, g):
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_large(self):
        g = from_edge_list(62, [(i, (i + 7) % 62) for i in range(62)])
        assert parse_graph6(write_graph6(g)) == g


class TestEdgeListText:
    def test_round_trip(self):
        g = K(4)
        assert parse_edge_list_text(to_edge_list_text(g)) == g

    def test_error_names_line(self):
        with pytest.raises(GraphError, match="line 3"):
            parse_edge_list_text("3 2\n0 1\n1 x\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphError, match="declared 3"):
            parse_edge_list_text("3 3\n0 1\n1 2\n")


class TestOperations:
    def test_induced_k4_to_k3(self):
        sub, mapping = induced_subgraph(K(4), 0b0111)
        assert sub == K(3)
        assert mapping == (0, 1, 2)

    def test_induced_endpoints_of_path(self):
        sub, _ = induced_subgraph(path(3), 0b101)
        assert sub.n == 2 and sub.m == 0

    def test_induced_c5_minus_vertex_is_p4(self):
        sub, mapping = induced_subgraph(cycle(5), 0b11110)
        assert sub.n == 4 and sub.m == 3
        # relabel map preserves ascending order of the surviving vertices
        assert mapping == (1, 2, 3, 4)
        assert sorted(sub.degrees()) == [1, 1, 2, 2]

    def test_delete_vertex(self):
        assert delete_vertex(K(4), 3) == K(3)
        with pytest.raises(GraphError):
            delete_vertex(K(4), 9)

    def test_delete_edges_keeps_vertices(self):
        paw = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        g = delete_edges(paw, [(0, 3)])
        assert g.n == 4 and g.m == 3
        assert g.degree(3) == 0

    def test_delete_no_edges_is_identity(self):
        p3 = path(3)
        assert delete_edges(p3, []) == p3

    def test_delete_missing_edge_errors(self):
        with pytest.raises(GraphError, match="not in graph"):
            delete_edges(path(3), [(0, 2)])

    def test_components_examples(self):
        g = from_edge_list(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
        comps = connected_components(g)
        assert [c.bit_count() for c in comps] == [3, 4]
        assert connected_components(from_edge_list(3, [])) == [1, 2, 4]
        assert len(connected_components(cycle(5))) == 1

    @given(random_graphs(max_n=9))
    def test_components_partition(self, g):
        comps = connected_components(g)
        union = 0
        for comp in comps:
            assert union & comp == 0  # disjoint
            union |= comp
            for v in iter_bits(comp):
                # no edges leave the component
                assert g.adj[v] & ~comp == 0
            # internally connected: BFS from the smallest member covers it
            if comp:
                start = comp & -comp
                seen = start
                frontier = start
                while frontier:
                    nxt = 0
                    for v in iter_bits(frontier):
                        nxt |= g.adj[v]
                    frontier = nxt & comp & ~seen
                    seen |= frontier
                assert seen == comp
        assert union == g.vertex_mask()

    def test_is_clique(self):
        assert is_clique(K(4), 0b1111)
        assert not is_clique(path(3), 0b111)
        assert is_clique(path(3), 0b100)
        assert is_clique(path(3), 0)

    def test_mask_of(self):
        assert mask_of([0, 2, 5]) == 0b100101


# Text that reaches the parsers' deeper checks: graph6 characters, and
# edge-list lines of numbers, some out of range or not numbers at all.
GRAPH6_TEXT = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=127), max_size=40)
EDGE_LIST_TOKENS = st.one_of(st.integers(-3, 70).map(str), st.sampled_from(["", "x", "1.5", "10" * 12, "-0", "٣"]))
EDGE_LIST_TEXT = st.lists(st.lists(EDGE_LIST_TOKENS, max_size=3).map(" ".join), max_size=8).map("\n".join)


class TestParserFuzz:
    """Malformed input gives a GraphError, never another exception."""

    @given(st.one_of(st.text(), GRAPH6_TEXT))
    @settings(max_examples=400)
    def test_parse_graph6_raises_only_graph_error(self, text):
        for line in (text, ">>graph6<<" + text):
            try:
                parse_graph6(line)
            except GraphError:
                pass

    @given(st.one_of(st.text(), EDGE_LIST_TEXT))
    @settings(max_examples=400)
    def test_parse_edge_list_text_raises_only_graph_error(self, text):
        try:
            parse_edge_list_text(text)
        except GraphError:
            pass
