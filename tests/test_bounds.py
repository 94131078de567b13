"""Exact rational bound formulas, dominance, and the binomial identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquebounds import (
    all_weights,
    binom,
    cc_cycle_bound,
    cc_path_bound,
    clique_census,
    compare_local_vs_classical,
    count_all_cliques,
    equals_count,
    from_edge_list,
    local_edge_cycle_bound,
    local_edge_path_bound,
    local_vertex_bound,
    local_vertex_total_bound,
    order_bounds,
    random_gnp,
    wood_bound,
    wood_total_bound,
)
from cliquebounds.bounds import (
    KIND_CC_CYCLE,
    KIND_CC_PATH,
    KIND_LOCAL_EDGE_CYCLE,
    KIND_LOCAL_EDGE_PATH,
    KIND_LOCAL_VERTEX,
    KIND_WOOD,
    PER_ORDER_KINDS,
    classical_cycle_r,
    classical_path_r,
    make_report,
)


def K(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


PAW = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def dominance(g, t, w=None):
    """The dominance record of (g, t), read from its bound table."""
    w = all_weights(g) if w is None else w
    return compare_local_vs_classical(g, w, t, order_bounds(g, w, [t])[t])


def test_binom_vanishes_outside_range():
    assert binom(3, -1) == 0
    assert binom(3, 4) == 0
    assert binom(0, 0) == 1
    assert binom(5, 2) == 10


class TestClassicalBounds:
    def test_wood_values(self):
        assert wood_bound(4, 3, 3) == 4
        assert wood_bound(5, 2, 3) == Fraction(5, 3)
        assert wood_bound(9, 4, 1) == 9

    def test_wood_closed_forms_agree(self):
        for n in range(1, 10):
            for d in range(0, 9):
                for t in range(1, 10):
                    assert wood_bound(n, d, t) == Fraction(n * binom(d, t - 1), t)

    def test_wood_total_values(self):
        assert wood_total_bound(3, 2) == 7
        assert wood_total_bound(4, 3) == 15
        assert wood_total_bound(1, 0) == 1

    def test_cc_path_values(self):
        assert cc_path_bound(6, 4, 3) == 4
        assert cc_path_bound(17, 5, 2) == 17
        assert cc_path_bound(3, 3, 3) == 1

    def test_cc_cycle_values(self):
        assert cc_cycle_bound(6, 4, 3) == 4
        assert cc_cycle_bound(12, 4, 3) == 8  # two disjoint K4: bound meets count 8
        assert cc_cycle_bound(10, 6, 2) == 10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            wood_bound(3, -1, 2)
        with pytest.raises(ValueError):
            cc_path_bound(3, 1, 2)
        with pytest.raises(ValueError):
            cc_path_bound(3, 4, 1)


class TestLocalizedBounds:
    def test_local_vertex_values(self):
        assert local_vertex_bound(K(4), 3) == 4
        assert local_vertex_bound(path(3), 3) == Fraction(1, 3)
        assert local_vertex_bound(PAW, 3) == Fraction(5, 3)

    def test_local_vertex_t2_is_edge_count(self, corpus6):
        for g in corpus6:
            assert local_vertex_bound(g, 2) == g.m

    def test_local_vertex_total_values(self):
        assert local_vertex_total_bound(K(3)) == 7
        assert local_vertex_total_bound(from_edge_list(1, [])) == 1
        assert local_vertex_total_bound(path(3)) == Fraction(16, 3)
        assert count_all_cliques(path(3)) == 5 <= Fraction(16, 3)

    def test_local_edge_values(self):
        k4 = K(4)
        w = all_weights(k4)
        assert local_edge_path_bound(k4, w, 3) == 4
        assert local_edge_cycle_bound(k4, w, 3) == 4
        p4 = path(4)
        wp = all_weights(p4)
        assert local_edge_path_bound(p4, wp, 3) == 2
        assert local_edge_cycle_bound(p4, wp, 3) == 0

    def test_all_localized_bounds_collapse_to_m_at_t2(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            assert local_vertex_bound(g, 2) == g.m
            assert local_edge_path_bound(g, w, 2) == g.m
            assert local_edge_cycle_bound(g, w, 2) == g.m
            if g.m > 0:
                assert cc_path_bound(g.m, w.longest_path + 1, 2) == g.m


def test_binomial_shift_identity_exact():
    # (1/t) C(d-1, t-1) split into the three degree-weighted pieces
    for d in range(2, 41):
        for t in range(2, d + 1):
            lhs = Fraction(binom(d - 1, t - 1), t)
            base = Fraction(binom(d, t - 1), 1)
            rhs = base / t - base / d + base / (t * d)
            assert lhs == rhs
            assert lhs == Fraction((d - t + 1) * binom(d, t - 1), t * d)


class TestSoundness:
    def test_counts_never_exceed_bounds(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            census = clique_census(g)
            for t in range(1, g.n + 1):
                count = census[t]
                assert count <= local_vertex_bound(g, t), (g, t)
                if t >= 2:
                    assert count <= local_edge_path_bound(g, w, t), (g, t)
                    # conjectured bound; a failure here would be a discovery
                    assert count <= local_edge_cycle_bound(g, w, t), (g, t)

    def test_total_chain(self, corpus6):
        for g in corpus6:
            total = count_all_cliques(g)
            local = local_vertex_total_bound(g)
            classical = wood_total_bound(g.n, g.max_degree())
            assert total <= local <= classical


class TestDominance:
    def test_regular_graph_pair_is_tight(self):
        c5 = cycle(5)
        rec = dominance(c5, 3)
        assert rec.local_vertex == rec.wood == Fraction(5, 3)

    def test_paw_strictly_below_wood(self):
        rec = dominance(PAW, 3)
        assert rec.local_vertex == Fraction(5, 3)
        assert rec.wood == 4
        assert rec.ok

    def test_k4_equal_on_both_pairs(self):
        rec = dominance(K(4), 3)
        assert rec.local_vertex == rec.wood == 4
        assert rec.local_edge == rec.cc_path == 4

    def test_dominance_sweep(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            for t in range(2, g.n + 1):
                rec = dominance(g, t, w)
                assert rec.ok, (g, t)

    def test_record_fields_are_the_bound_formulas(self, corpus6):
        for g in corpus6:
            w = all_weights(g)
            for t in range(2, g.n + 1):
                rec = dominance(g, t, w)
                assert rec.local_vertex == local_vertex_bound(g, t), (g, t)
                assert rec.wood == wood_bound(g.n, g.max_degree(), t), (g, t)
                assert rec.vertex_slack == rec.wood - rec.local_vertex
                if g.m == 0:
                    assert rec.path_r is rec.local_edge is rec.cc_path is rec.edge_slack is None
                    continue
                assert rec.path_r == w.longest_path + 1
                assert rec.local_edge == local_edge_path_bound(g, w, t), (g, t)
                assert rec.cc_path == cc_path_bound(g.m, w.longest_path + 1, t), (g, t)
                assert rec.edge_slack == rec.cc_path - rec.local_edge

    def test_edgeless_graph_skips_edge_pair(self):
        g = from_edge_list(3, [])
        rec = dominance(g, 2)
        assert rec.edge_ok and rec.cc_path is None


def test_equality_is_cross_multiplied():
    assert equals_count(4, Fraction(4, 1))
    assert not equals_count(0, Fraction(1, 3))
    assert equals_count(0, Fraction(0, 3))
    report = make_report("local_vertex", 3, 1, Fraction(5, 3))
    assert not report.equality
    assert report.slack == Fraction(2, 3)


def test_report_json_uses_integer_rationals():
    report = make_report("local_vertex", 3, 1, Fraction(5, 3))
    d = report.to_json_dict()
    assert d["bound"] == {"num": 5, "den": 3, "decimal": pytest.approx(5 / 3)}
    assert d["slack"]["num"] == 2 and d["slack"]["den"] == 3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 12), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_order_bounds_and_slacks_match_the_per_t_functions(n, density, seed):
    """Beyond the exhaustive corpus: on G(n, p) with n <= 12, at every order
    t = 1..n + 2 (past max degree + 1 every binomial vanishes), each table
    entry equals its per-t function, a report's integer slack terms are
    bound - count for counts below, at and above the bound, and the dominance
    flags agree with the ``Fraction`` comparisons."""
    g = random_gnp(n, density, seed)
    w = all_weights(g)
    tables = order_bounds(g, w, range(1, n + 3))
    assert list(tables) == list(range(1, n + 3))
    for t, table in tables.items():
        expected = {KIND_LOCAL_VERTEX: local_vertex_bound(g, t), KIND_WOOD: wood_bound(g.n, g.max_degree(), t)}
        if t >= 2:
            expected[KIND_LOCAL_EDGE_PATH] = local_edge_path_bound(g, w, t)
            expected[KIND_LOCAL_EDGE_CYCLE] = local_edge_cycle_bound(g, w, t)
            expected[KIND_CC_PATH] = cc_path_bound(g.m, classical_path_r(w, g.m), t)
            expected[KIND_CC_CYCLE] = cc_cycle_bound(g.m, classical_cycle_r(w), t)
        assert list(table) == [kind for kind in PER_ORDER_KINDS if kind in expected]
        assert table == expected, (n, density, seed, t)
        for kind, bound in table.items():
            assert type(bound) is Fraction
            floor = bound.numerator // bound.denominator
            for count in sorted({0, max(floor - 1, 0), floor, floor + 1, floor + 2}):
                report = make_report(kind, t, count, bound)
                num, den = report.slack_terms()
                assert (num, den) == ((bound - count).numerator, (bound - count).denominator) and den > 0
                assert report.slack == Fraction(num, den) == bound - count
                assert report.equality == (bound == count)
        if t >= 2:
            rec = compare_local_vs_classical(g, w, t, table)
            assert rec.vertex_ok == (table[KIND_LOCAL_VERTEX] <= table[KIND_WOOD])
            assert rec.vertex_slack == table[KIND_WOOD] - table[KIND_LOCAL_VERTEX]
            if g.m:
                assert rec.edge_ok == (table[KIND_LOCAL_EDGE_PATH] <= table[KIND_CC_PATH])
                assert rec.edge_slack == table[KIND_CC_PATH] - table[KIND_LOCAL_EDGE_PATH]
            assert list(rec.to_json_dict()) == [
                "t", "max_degree", "local_vertex", "wood", "vertex_ok", "vertex_slack",
                "path_r", "local_edge", "cc_path", "edge_ok", "edge_slack",
            ]


def test_dominance_flags_cross_multiply_both_ways():
    """A record whose localized bound exceeds its classical one is flagged,
    and its slack reads negative; equal bounds are not flagged."""
    g = K(4)
    w = all_weights(g)
    table = order_bounds(g, w, [3])[3]
    assert table[KIND_LOCAL_VERTEX] == table[KIND_WOOD] and dominance(g, 3).vertex_ok
    table[KIND_LOCAL_VERTEX] += Fraction(1, 7)
    table[KIND_LOCAL_EDGE_PATH] = table[KIND_CC_PATH] + Fraction(1, 9)
    rec = compare_local_vs_classical(g, w, 3, table)
    assert not rec.vertex_ok and not rec.edge_ok and not rec.ok
    assert rec.vertex_slack == Fraction(-1, 7) and rec.edge_slack == Fraction(-1, 9)
