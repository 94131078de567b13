"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``); a failing
criterion fails its test. All equality decisions are exact integer or
rational comparisons; nothing here goes through floating point.
"""

import hashlib
import json
import time
from fractions import Fraction
import pytest

from cliquebounds import (
    GraphSource,
    SearchConfig,
    all_weights,
    canonical_form,
    cc_path_bound,
    clique_census,
    compare_local_vs_classical,
    count_all_cliques,
    count_cliques,
    enumerate_graphs,
    equals_count,
    from_edge_list,
    local_vertex_total_bound,
    order_bounds,
    parse_graph6,
    replay_finding,
    run_sweep,
    wood_bound,
    write_graph6,
)
from cliquebounds.bounds import (
    DEFAULT_SWEEP_KINDS,
    KIND_LOCAL_EDGE_CYCLE,
    KIND_LOCAL_EDGE_PATH,
    KIND_LOCAL_VERTEX,
    binom,
)
from cliquebounds.certificates import (
    is_clique_union_with_isolated,
    is_disjoint_clique_union,
)
from cliquebounds.cli import build_analyze_report, main
from cliquebounds.enumeration import random_gnp
from cliquebounds.oracles import dp_all_weights, naive_count_cliques
from cliquebounds.search import (
    CATEGORY_CHAR_DISCREPANCY,
    CATEGORY_CONJECTURE_VIOLATION,
    CATEGORY_EQUALITY_INSTANCE,
    Finding,
    findings_to_jsonl,
    summary_to_json,
)

T_MAX = 7

# sha256 of the outputs of `search --exhaustive 8 --t 2:8 --parallelism 2`,
# recorded at commit d1c7201; the bounds and slacks became integer rows after it.
EXHAUSTIVE_8_SHA256 = {
    "findings.jsonl": "f5328076fab3721fe6c932891737921c7fe1efaa3c2d0e25808fee7fa66fb814",
    "summary.json": "b4a57d49dcb0b0c9eb06a173dc42fd98a5853eb165c76370fd3e6d885bff3137",
    "rows.csv": "420d673c7294ccb417482b0c19eacbb5a88864024e2cf979dea52399aeb69c3d",
}


@pytest.fixture(scope="module")
def analyzed(corpus):
    """(graph, census, weights) for every class with n <= 7."""
    out = []
    for n in range(1, 8):
        for g in corpus[n]:
            out.append((g, clique_census(g), all_weights(g)))
    return out


@pytest.fixture(scope="module")
def sweep():
    source = GraphSource.exhaustive(tuple(range(1, 8)))
    config = SearchConfig(t_min=1, t_max=T_MAX, kinds=DEFAULT_SWEEP_KINDS)
    return run_sweep(source, config)


def test_criterion_1_vertex_bound_soundness():
    # Exact integer check t*N <= sum C(d(v), t-1) over the full corpus,
    # timed end to end including enumeration.
    start = time.monotonic()
    classes = 0
    violations = 0
    for n in range(1, 8):
        graphs = enumerate_graphs(n)
        if n == 7:
            assert len(graphs) == 1044
        for g in graphs:
            classes += 1
            census = clique_census(g)
            degree_sums = {t: sum(binom(d, t - 1) for d in g.degrees()) for t in range(1, n + 1)}
            for t in range(1, n + 1):
                if t * census[t] > degree_sums[t]:
                    violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 120.0, f"single-threaded sweep took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: vertex bound sound on {classes} classes, 0 violations, {elapsed:.1f}s")


def test_criterion_2_edge_bound_soundness(analyzed):
    violations = 0
    for g, census, weights in analyzed:
        for t in range(2, g.n + 1):
            lhs = binom(t, 2) * census[t]
            rhs = sum(binom(p - 1, t - 2) for p in weights.p.values())
            if lhs > rhs:
                violations += 1
    assert violations == 0
    print(f"\n[criterion 2] PASS: edge bound sound with exact p(e), 0 violations")


def test_criterion_3_equality_characterizations(sweep):
    disc = [f for f in sweep.findings if f.category == CATEGORY_CHAR_DISCREPANCY]
    vertex_disc = [f for f in disc if f.kind == KIND_LOCAL_VERTEX]
    edge_disc = [f for f in disc if f.kind == KIND_LOCAL_EDGE_PATH]
    high_order = [f for f in disc if f.t >= 3 and f.kind in (KIND_LOCAL_VERTEX, KIND_LOCAL_EDGE_PATH)]
    assert high_order == [], f"iff broke for t >= 3: {high_order[:3]}"
    t2_vertex = [f for f in vertex_disc if f.t == 2]
    assert t2_vertex, "the order-2 vertex sweep must surface the documented discrepancies"
    smallest = min(t2_vertex, key=lambda f: (f.n, f.graph6))
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert canonical_form(parse_graph6(smallest.graph6)) == canonical_form(p3)
    assert [f for f in edge_disc if f.t == 2] == []
    print(
        f"\n[criterion 3] PASS: iff exact for t >= 3; {len(t2_vertex)} vertex discrepancies at t=2 "
        f"(smallest witness {smallest.graph6} ~ P3); edge sweep clean at t=2"
    )


def test_criterion_4_dominance_and_classical_characterizations(analyzed):
    dominance_failures = 0
    wood_mismatches = []
    cc_mismatches = []
    for g, census, weights in analyzed:
        d = g.max_degree()
        for t in range(2, T_MAX + 1):
            rec = compare_local_vs_classical(g, weights, t, order_bounds(g, weights, [t])[t])
            if not rec.ok:
                dominance_failures += 1
            count = census[t] if t <= g.n else 0
            # classical equality characterizations hold on the strict-inequality
            # range t >= 3 (at t = 2 every regular graph is tight for Wood)
            if 3 <= t <= d + 1:
                if equals_count(count, wood_bound(g.n, d, t)) != is_disjoint_clique_union(g, d + 1):
                    wood_mismatches.append((write_graph6(g), t))
            if g.m > 0:
                r = weights.longest_path + 1
                if 3 <= t <= r:
                    if equals_count(count, cc_path_bound(g.m, r, t)) != is_clique_union_with_isolated(g, r):
                        cc_mismatches.append((write_graph6(g), t))
    assert dominance_failures == 0
    assert wood_mismatches == [], wood_mismatches[:3]
    assert cc_mismatches == [], cc_mismatches[:3]
    print(
        "\n[criterion 4] PASS: localized bounds dominated by classical bounds everywhere; "
        "classical equality exactly on clique unions (t >= 3)"
    )


def test_criterion_5_conjecture_sweep(sweep):
    violations = [f for f in sweep.findings if f.category == CATEGORY_CONJECTURE_VIOLATION]
    for f in violations:
        assert replay_finding(f), f"conjecture counterexample does not replay: {f}"
    cycle_disc = [
        f
        for f in sweep.findings
        if f.category == CATEGORY_CHAR_DISCREPANCY and f.kind == KIND_LOCAL_EDGE_CYCLE
    ]
    for f in cycle_disc:
        assert replay_finding(f), f"conjecture iff mismatch does not replay: {f}"
    print(
        f"\n[criterion 5] PASS: {len(violations)} conjecture violations, "
        f"{len(cycle_disc)} equality/certificate mismatches at t >= 3 (all replayable)"
    )


def test_criterion_6_oracle_equivalence(corpus):
    # clique counter vs the subset oracle on 200 seeded random graphs
    checked = 0
    for i in range(200):
        n = 5 + (i % 6)  # 5..10
        p = (0.2, 0.5, 0.8)[i % 3]
        g = random_gnp(n, p, 10_000 + i)
        for t in range(1, n + 1):
            fast = count_cliques(g, t)
            slow = naive_count_cliques(g, t)
            assert (fast.total, fast.per_vertex, fast.per_edge) == (
                slow.total,
                slow.per_vertex,
                slow.per_edge,
            )
        checked += 1
    assert checked == 200
    # two-sided DFS weights vs the subset DP on the full corpus plus random graphs
    for n in range(1, 8):
        for g in corpus[n]:
            fast = all_weights(g)
            slow = dp_all_weights(g)
            assert fast.p == slow.p and fast.c == slow.c
    for i in range(100):
        g = random_gnp(9 if i % 2 else 8, (0.25, 0.5, 0.7)[i % 3], 20_000 + i)
        fast = all_weights(g)
        slow = dp_all_weights(g)
        assert fast.p == slow.p and fast.c == slow.c
    print("\n[criterion 6] PASS: clique and weight oracles agree exactly (200 + 1252 + 100 graphs)")


def test_criterion_7_worked_fixed_points():
    report = build_analyze_report(parse_graph6("C~"), [3])
    assert report["n"] == 4
    for rep in report["reports"]:
        assert rep["count"] == 4
        assert rep["bound"] == {"num": 4, "den": 1, "decimal": 4.0}
        assert rep["equality"] is True
        assert rep["certificate"]["holds"] is True
    k3 = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert local_vertex_total_bound(k3) == Fraction(7, 1)
    assert count_all_cliques(k3) == 7
    identity_checks = 0
    for d in range(2, 41):
        for t in range(2, d + 1):
            base = Fraction(binom(d, t - 1))
            lhs = Fraction(binom(d - 1, t - 1), t)
            assert lhs == base / t - base / d + base / (t * d)
            assert lhs == Fraction(d - t + 1, t * d) * base
            identity_checks += 1
    print(
        f"\n[criterion 7] PASS: K4 fixed point exact; K3 all-orders bound 7 = count; "
        f"binomial identity exact at {identity_checks} (t, d) pairs"
    )


def test_criterion_8_enumeration_counts(corpus):
    expected = {4: 11, 5: 34, 6: 156}
    for n, classes in expected.items():
        assert len(corpus[n]) == classes
    # independent labeled-graph oracle: canonicalize every labeled graph
    for n, classes in expected.items():
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        labels = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
            labels.add(canonical_form(from_edge_list(n, edges)))
        assert len(labels) == classes
    print("\n[criterion 8] PASS: 11 / 34 / 156 classes for n = 4 / 5 / 6, matching the labeled oracle")


def test_criterion_9_determinism(sweep, corpus):
    source = GraphSource.exhaustive(tuple(range(1, 8)))
    config = SearchConfig(t_min=1, t_max=T_MAX, kinds=DEFAULT_SWEEP_KINDS, parallelism=8)
    parallel = run_sweep(source, config)
    assert findings_to_jsonl(parallel.findings) == findings_to_jsonl(sweep.findings)
    assert summary_to_json(parallel.summary) == summary_to_json(sweep.summary)
    for n in range(1, 8):
        for g in corpus[n]:
            line = write_graph6(g)
            assert write_graph6(parse_graph6(line)) == line
    print("\n[criterion 9] PASS: sweep byte-identical at parallelism 1 and 8; graph6 round-trip exact")


@pytest.mark.slow
def test_exhaustive_sweep_at_eight_vertices(capsys, tmp_path):
    """`search --exhaustive 8 --t 2:8` at parallelism 2 (about 15 s; run with ``-m slow``).

    It finds no violation. Its 12,324 discrepancies are all local_vertex at
    t = 2, the documented handshake case, and beside them it keeps the 700
    equality instances that the default cap of 100 per (n, t) lets through
    for t = 2..8. Nothing else is found, at t >= 3 in particular. The
    findings, summary and CSV are byte-identical to the recorded ones.
    """
    findings_path, summary_path, csv_path = (tmp_path / name for name in ("findings.jsonl", "summary.json", "rows.csv"))
    code = main(["search", "--exhaustive", "8", "--t", "2:8", "--parallelism", "2",
                 "--findings", str(findings_path), "--summary", str(summary_path), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["graphs"] == 12346 and summary["cap_errors"] == []
    # every evaluation streamed through the pool is one CSV row, after the header
    evaluations = sum(ks["evaluations"] for by_kind in summary["by_nt"].values() for ks in by_kind.values())
    assert csv_path.read_text().count("\n") == 1 + evaluations
    findings = [Finding.from_json_dict(json.loads(line)) for line in findings_path.read_text().splitlines()]
    discrepancies = [f for f in findings if f.category == CATEGORY_CHAR_DISCREPANCY]
    equalities = [f for f in findings if f.category == CATEGORY_EQUALITY_INSTANCE]
    assert len(discrepancies) == 12324 and {(f.kind, f.t) for f in discrepancies} == {(KIND_LOCAL_VERTEX, 2)}
    assert len(equalities) == 700 and sorted({f.t for f in equalities}) == list(range(2, 9))
    assert len(findings) == len(discrepancies) + len(equalities)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (findings_path, summary_path, csv_path)}
    assert digests == EXHAUSTIVE_8_SHA256
    with capsys.disabled():
        print("\n[n = 8] PASS: 12,346 graphs, no violation, 12,324 local_vertex discrepancies at t = 2, "
              "700 equality instances, nothing else")
