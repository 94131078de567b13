"""Sweep harness: finding generation, replayability, determinism, sources."""

import csv
import functools
import io
import json
import math
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquebounds.certificates as certificates
from cliquebounds import (
    Finding,
    GraphSource,
    SearchConfig,
    all_weights,
    block_decomposition,
    canonical_form,
    connected_components,
    count_cliques,
    cross_validate,
    cycle_equality_certificate,
    edge_equality_certificate,
    enumerate_graphs,
    from_edge_list,
    is_clique,
    parse_graph6,
    random_gnp,
    replay_finding,
    run_sweep,
    vertex_equality_certificate,
    w_set,
    write_graph6,
    x_core,
    x_set,
    z_set,
)
from cliquebounds.bounds import (
    DEFAULT_SWEEP_KINDS,
    KIND_CC_CYCLE,
    KIND_CC_PATH,
    KIND_LOCAL_EDGE_CYCLE,
    KIND_LOCAL_EDGE_PATH,
    KIND_LOCAL_VERTEX,
    KIND_WOOD,
    PER_ORDER_KINDS,
    cc_cycle_bound,
    cc_path_bound,
    classical_cycle_r,
    classical_path_r,
    compare_local_vs_classical,
    local_edge_cycle_bound,
    local_edge_path_bound,
    local_vertex_bound,
    make_report,
    wood_bound,
)
from cliquebounds.bounds import BoundReport, DominanceRecord
from cliquebounds.certificates import VERDICT_KINDS, classical_certificate, conjecture_verdict, vertex_core_certificate
from cliquebounds.cli import _parse_kinds
from cliquebounds.graph import GraphError
from cliquebounds.search import (
    CATEGORY_BOUND_VIOLATION,
    CATEGORY_CHAR_DISCREPANCY,
    CATEGORY_CONJECTURE_VIOLATION,
    CATEGORY_EQUALITY_INSTANCE,
    CATEGORY_MIN_SLACK,
    CSV_COLUMNS,
    csv_rows,
    dump_json,
    evaluate_graph,
    findings_to_jsonl,
    summary_to_json,
)


@pytest.fixture(scope="module")
def small_sweep():
    source = GraphSource.exhaustive((1, 2, 3, 4, 5))
    config = SearchConfig(t_min=1, t_max=5, kinds=DEFAULT_SWEEP_KINDS)
    return run_sweep(source, config)


def test_no_violations_on_small_graphs(small_sweep):
    cats = {f.category for f in small_sweep.findings}
    assert CATEGORY_BOUND_VIOLATION not in cats
    assert CATEGORY_CONJECTURE_VIOLATION not in cats


def test_discrepancies_only_for_vertex_bound_at_order_two(small_sweep):
    disc = [f for f in small_sweep.findings if f.category == CATEGORY_CHAR_DISCREPANCY]
    assert disc, "the order-2 vertex sweep must surface discrepancies"
    assert all(f.kind == KIND_LOCAL_VERTEX and f.t == 2 for f in disc)
    smallest = min(disc, key=lambda f: (f.n, f.graph6))
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert canonical_form(parse_graph6(smallest.graph6)) == canonical_form(p3)


def test_all_findings_replay(small_sweep):
    for finding in small_sweep.findings:
        assert replay_finding(finding), finding


def test_replay_rejects_tampered_witness(small_sweep):
    finding = next(f for f in small_sweep.findings if f.category == CATEGORY_EQUALITY_INSTANCE)
    assert not replay_finding(finding._replace(count=finding.count + 1))
    assert not replay_finding(finding._replace(graph6="garbage"))
    assert not replay_finding(finding._replace(kind="bogus"))
    assert not replay_finding(finding._replace(t=0))


@pytest.mark.parametrize("t_min, t_max, message", [
    (0, None, "t_min must be >= 1, got 0"),
    (-2, 3, "t_min must be >= 1, got -2"),
    (5, 3, "t_max must be >= t_min = 5, got 3"),
])
def test_search_config_rejects_an_empty_order_range(t_min, t_max, message):
    """An order range that evaluates nothing is an error, not a clean empty run."""
    with pytest.raises(ValueError, match=message):
        SearchConfig(t_min=t_min, t_max=t_max)
    SearchConfig(t_min=3, t_max=3)


def test_replay_propagates_a_fault_of_the_program(small_sweep, monkeypatch):
    """Only a malformed finding reads as "does not replay"; a bug in the
    evaluation is raised, not mistaken for a finding that fails to reproduce."""
    import cliquebounds.search as search

    def broken(*args):
        raise TypeError("planted")

    monkeypatch.setattr(search, "evaluate_graph", broken)
    with pytest.raises(TypeError, match="planted"):
        replay_finding(small_sweep.findings[0])


def test_unknown_kind_is_rejected_not_skipped():
    with pytest.raises(ValueError, match="unknown per-order bound kind 'bogus'"):
        SearchConfig(kinds=("local_vertex", "bogus"))
    with pytest.raises(ValueError, match="unknown per-order bound kind 'bogus'"):
        evaluate_graph(parse_graph6("C~"), [3], ("bogus",))
    with pytest.raises(ValueError, match="'bogus'"):
        evaluate_graph(parse_graph6("C~"), [1], ("local_vertex", "bogus"))


@pytest.fixture(scope="module")
def min_slack_sweep():
    source = GraphSource.exhaustive((1, 2, 3, 4, 5))
    config = SearchConfig(t_min=1, t_max=5, kinds=DEFAULT_SWEEP_KINDS, emit_min_slack=True)
    return run_sweep(source, config)


@functools.cache
def _graphs(n):
    return enumerate_graphs(n)


def _all_components_cliques(g):
    return all(is_clique(g, comp) for comp in connected_components(g))


def _swap_witness(f):
    """Another graph with f's n and m on which f cannot hold, found without the sweep.

    Count findings need a different K_t count; a t = 2 vertex discrepancy
    needs a graph whose components are all cliques, where none can occur.
    """
    for h in _graphs(f.n):
        if h.m != f.m or write_graph6(h) == f.graph6:
            continue
        if f.category == CATEGORY_CHAR_DISCREPANCY:
            if _all_components_cliques(h):
                return write_graph6(h)
        elif count_cliques(h, f.t).total != f.count:
            return write_graph6(h)
    return None


SWAPPED_CATEGORY = {
    CATEGORY_EQUALITY_INSTANCE: CATEGORY_MIN_SLACK,
    CATEGORY_MIN_SLACK: CATEGORY_EQUALITY_INSTANCE,
    CATEGORY_CHAR_DISCREPANCY: CATEGORY_MIN_SLACK,
}


@pytest.mark.parametrize("category", sorted(SWAPPED_CATEGORY))
def test_replay_rejects_tampered_findings(min_slack_sweep, category):
    findings = [f for f in min_slack_sweep.findings if f.category == category]
    assert findings
    for f in findings:
        assert not replay_finding(f._replace(count=f.count + 1)), f
        assert not replay_finding(f._replace(bound_num=f.bound_num + 1)), f
        assert not replay_finding(f._replace(category=SWAPPED_CATEGORY[category])), f
    swaps = [(f, w) for f in findings if (w := _swap_witness(f)) is not None]
    assert swaps
    for f, witness in swaps:
        assert not replay_finding(f._replace(graph6=witness)), (f, witness)


def test_parallel_determinism(small_sweep):
    source = GraphSource.exhaustive((1, 2, 3, 4, 5))
    config = SearchConfig(t_min=1, t_max=5, kinds=DEFAULT_SWEEP_KINDS, parallelism=4)
    parallel = run_sweep(source, config)
    assert findings_to_jsonl(parallel.findings) == findings_to_jsonl(small_sweep.findings)
    assert summary_to_json(parallel.summary) == summary_to_json(small_sweep.summary)


def test_equality_cap():
    source = GraphSource.exhaustive((5,))
    config = SearchConfig(t_min=2, t_max=2, kinds=(KIND_LOCAL_VERTEX,), equality_cap=3)
    result = run_sweep(source, config)
    eq = [f for f in result.findings if f.category == CATEGORY_EQUALITY_INSTANCE]
    assert len(eq) == 3
    # the summary still counts every equality instance
    total = sum(
        ks["equalities"] for stats in result.summary["by_nt"].values() for ks in stats.values()
    )
    assert total == 34  # handshake makes every n=5 graph tight at t=2


def test_summary_shape(small_sweep):
    summary = small_sweep.summary
    assert summary["graphs"] == 1 + 2 + 4 + 11 + 34
    assert summary["graphs_per_n"] == {"1": 1, "2": 2, "3": 4, "4": 11, "5": 34}
    assert summary["cap_errors"] == []
    key = "n=4,t=3"
    assert key in summary["by_nt"]
    assert summary["by_nt"][key][KIND_LOCAL_VERTEX]["evaluations"] == 11


def test_min_slack_emission():
    source = GraphSource.exhaustive((4,))
    config = SearchConfig(
        t_min=3, t_max=3, kinds=(KIND_LOCAL_VERTEX,), emit_min_slack=True
    )
    result = run_sweep(source, config)
    ms = [f for f in result.findings if f.category == CATEGORY_MIN_SLACK]
    assert len(ms) == 1
    assert replay_finding(ms[0])
    assert result.summary["min_positive_slack"]


def test_graph6_file_source(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(">>graph6<<C~\nBw\n\nBg\n")
    with path.open(encoding="ascii") as fh:
        pairs = list(GraphSource.graph6_lines(fh).graphs())
    assert [line for line, _ in pairs] == ["C~", "Bw", "Bg"]
    assert all(g == parse_graph6(line) for line, g in pairs)


def test_source_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C~\nBw\nE??*\n")
    with path.open(encoding="ascii") as fh, pytest.raises(GraphError, match="line 3"):
        list(GraphSource.graph6_lines(fh).graphs())


def test_source_filters():
    """Both filters act alike on every kind of source."""
    lines = [write_graph6(g) for g in enumerate_graphs(4)]
    makers = (
        functools.partial(GraphSource.exhaustive, (4,)),
        functools.partial(GraphSource.graph6_lines, lines),
        functools.partial(GraphSource.random, functools.partial(random_gnp, 4, 0.5), 40, 3),
    )
    for make in makers:
        everything = list(make().graphs())
        assert all(line == write_graph6(g) for line, g in everything)
        connected = [(line, g) for line, g in everything if len(connected_components(g)) == 1]
        sparse = [(line, g) for line, g in everything if g.m <= 3]
        assert [] != connected != everything and [] != sparse != everything
        assert list(make(connected_only=True).graphs()) == connected
        assert list(make(max_edges=3).graphs()) == sparse
        both = list(make(connected_only=True, max_edges=3).graphs())
        assert both == [pair for pair in connected if pair in sparse] != []
    assert len(list(GraphSource.exhaustive((4,), connected_only=True).graphs())) == 6  # connected classes


def test_random_source_reproducible():
    """Draw i is made at seed + i, and each ``graphs()`` draws the stream afresh."""
    seeds = []

    def sample(seed):
        seeds.append(seed)
        return random_gnp(6, 0.5, seed)

    source = GraphSource.random(sample, 5, 11)
    pairs = list(source.graphs())
    assert seeds == [11, 12, 13, 14, 15]
    assert pairs == [(write_graph6(random_gnp(6, 0.5, s)), random_gnp(6, 0.5, s)) for s in seeds]
    assert list(source.graphs()) == pairs and seeds[5:] == seeds[:5]


def test_exhaustive_source_restarts():
    source = GraphSource.exhaustive((3, 4))
    first = list(source.graphs())
    assert len(first) == 4 + 11 and list(source.graphs()) == first


def test_stop_on_first_flag_does_not_change_clean_runs(small_sweep):
    source = GraphSource.exhaustive((1, 2, 3, 4, 5))
    config = SearchConfig(t_min=1, t_max=5, kinds=DEFAULT_SWEEP_KINDS, stop_on_first=True)
    result = run_sweep(source, config)
    assert findings_to_jsonl(result.findings) == findings_to_jsonl(small_sweep.findings)


def lower_the_cycle_bound(monkeypatch) -> None:
    """Lower the cycle bound by one on every graph with 3 or more edges, so that
    C~ (K4) and Bw (K3) violate it; no real graph violates a bound."""
    import cliquebounds.search as search

    real = search.order_bounds

    def lowered(g, w, ts):
        tables = real(g, w, ts)
        if g.m >= 3:
            for table in tables.values():
                table[KIND_LOCAL_EDGE_CYCLE] -= 1
        return tables

    monkeypatch.setattr(search, "order_bounds", lowered)


@pytest.mark.parametrize("broken", ["dominance", "cycle bound"])
def test_stop_on_first_stops_after_the_first_violating_graph(monkeypatch, broken):
    # No real graph violates a bound, so break one on the graphs with 3 or more edges.
    from dataclasses import replace

    import cliquebounds.search as search

    if broken == "dominance":
        real = search.compare_local_vs_classical
        monkeypatch.setattr(search, "compare_local_vs_classical",
                            lambda g, w, t, bounds: replace(real(g, w, t, bounds), vertex_ok=g.m < 3))
        category = CATEGORY_BOUND_VIOLATION
    else:
        lower_the_cycle_bound(monkeypatch)
        category = CATEGORY_CONJECTURE_VIOLATION
    source = GraphSource.graph6_lines(("Bg", "C~", "Bw", "C~"))
    for stop, graphs in ((False, 4), (True, 2)):
        result = run_sweep(source, SearchConfig(t_min=3, t_max=3, stop_on_first=stop))
        assert result.summary["graphs"] == graphs
        assert [f.graph6 for f in result.findings if f.category == category] == ["C~", "Bw", "C~"][: graphs - 1]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_malformed_line_is_raised_after_the_records_before_it(monkeypatch, parallelism):
    """Every record before a malformed line is merged, rows included, and then
    its GraphError is raised, also where a pool reads the whole source first;
    a stop at a violation before that line raises nothing."""
    lower_the_cycle_bound(monkeypatch)
    source = GraphSource.graph6_lines(("Bg", "C~", "E??*", "Bw"))
    rows = []
    with pytest.raises(GraphError, match="line 3"):
        run_sweep(source, SearchConfig(t_min=3, t_max=3, parallelism=parallelism), rows.append)
    assert [f.graph6 for f in rows] == ["Bg"] * 4 + ["C~"] * 4
    result = run_sweep(source, SearchConfig(t_min=3, t_max=3, parallelism=parallelism, stop_on_first=True))
    assert result.summary["graphs"] == 2
    assert [f.graph6 for f in result.findings if f.category == CATEGORY_CONJECTURE_VIOLATION] == ["C~"]


class ChunkedThreadPool(ThreadPoolExecutor):
    """A thread pool whose ``map`` hands out chunks of ``chunksize`` items, as
    a process pool does. Every chunk after the first waits until the pool is
    shut down, after its pending futures were cancelled: no chunk runs ahead
    of the merge, whatever the timing."""

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers)
        self.released = threading.Event()
        self.futures = []

    def map(self, fn, iterable, chunksize=1):
        items = list(iterable)

        def run(k, chunk):
            if k:
                assert self.released.wait(timeout=60), "the pool was never shut down"
            return [fn(item) for item in chunk]

        self.futures = [self.submit(run, i // chunksize, items[i:i + chunksize])
                        for i in range(0, len(items), chunksize)]
        return (record for future in self.futures for record in future.result())

    def shutdown(self, wait=True, *, cancel_futures=False):
        super().shutdown(wait=False, cancel_futures=cancel_futures)
        self.released.set()
        super().shutdown(wait=wait)


def test_a_stop_at_a_violation_cancels_the_chunks_not_started(monkeypatch):
    """A pool that stops at the first violating graph evaluates the chunk it
    merged and at most one more chunk per worker, not the whole stream."""
    import cliquebounds.search as search

    lower_the_cycle_bound(monkeypatch)
    real_worker = search.sweep_worker
    evaluated = []
    pools = []

    def counted_worker(item, config):
        evaluated.append(item[0])
        return real_worker(item, config)

    monkeypatch.setattr(search, "sweep_worker", counted_worker)
    monkeypatch.setattr(search, "ProcessPoolExecutor", lambda width: pools.append(ChunkedThreadPool(width)) or pools[-1])
    source = GraphSource.graph6_lines(["C~"] + ["Bw"] * 400)
    result = run_sweep(source, SearchConfig(t_min=3, t_max=3, parallelism=2, stop_on_first=True))
    assert result.summary["graphs"] == 1
    assert [f.graph6 for f in result.findings if f.category == CATEGORY_CONJECTURE_VIOLATION] == ["C~"]
    (pool,) = pools
    assert len(pool.futures) == 26  # 401 graphs in chunks of 16
    assert sum(f.cancelled() for f in pool.futures) >= 26 - 1 - 2
    assert 16 <= len(evaluated) <= (1 + 2) * 16


def test_rows_csv_columns():
    kinds = _parse_kinds("all")
    buf = io.StringIO()
    run_sweep(GraphSource.exhaustive((1, 2, 3, 4, 5)), SearchConfig(t_min=1, t_max=5, kinds=kinds),
              csv_rows(buf))
    text = buf.getvalue()
    assert text.splitlines()[0].split(",") == CSV_COLUMNS
    table = list(csv.DictReader(io.StringIO(text)))
    rows = {(r["graph6"], int(r["t"]), r["kind"]): r for r in table}
    assert len(rows) == len(table)
    expected = {}
    for line in {key[0] for key in rows}:
        for order in evaluate_graph(parse_graph6(line), range(1, 6), kinds).orders:
            for kind, r in order.reports.items():
                expected[line, order.t, kind] = {
                    "count": str(r.count), "bound_num": str(r.bound.numerator), "bound_den": str(r.bound.denominator),
                    "equality": str(r.equality), "certificate": str(r.certificate.holds),
                }
    assert len({key[0] for key in rows}) == 1 + 2 + 4 + 11 + 34
    assert all(line == write_graph6(parse_graph6(line)) for line, _, _ in rows)
    assert rows.keys() == expected.keys()
    for key, want in expected.items():
        assert {k: rows[key][k] for k in want} == want, key


def test_finding_round_trips_through_json(small_sweep):
    f = small_sweep.findings[0]
    assert Finding.from_json_dict(f.to_json_dict()) == f
    assert pickle.loads(pickle.dumps(f)) == f  # as it crosses the process pool
    with pytest.raises(AttributeError):
        f.count = f.count + 1


def test_cap_errors_are_counted_not_skipped():
    line = write_graph6(from_edge_list(8, [(i, i + 1) for i in range(7)]))
    source = GraphSource.graph6_lines((line, "C~"))
    config = SearchConfig(t_min=2, t_max=3, kinds=(KIND_LOCAL_EDGE_CYCLE,), weight_cap=7)
    result = run_sweep(source, config)
    assert len(result.summary["cap_errors"]) == 1
    assert result.summary["graphs"] == 2


def test_dominance_violation_is_reported_and_replays(monkeypatch):
    # Dominance never fails on real graphs, so break the comparison to drive that path.
    from dataclasses import replace

    import cliquebounds.search as search

    real = search.compare_local_vs_classical
    monkeypatch.setattr(
        search, "compare_local_vs_classical", lambda g, w, t, bounds: replace(real(g, w, t, bounds), vertex_ok=False)
    )
    result = run_sweep(GraphSource.graph6_lines(("C~",)), SearchConfig(t_min=3, t_max=3))
    dom = [f for f in result.findings if f.kind == "dominance_vertex"]
    assert len(dom) == 1 and dom[0].category == CATEGORY_BOUND_VIOLATION
    assert replay_finding(dom[0])
    assert not replay_finding(dom[0]._replace(bound_num=dom[0].bound_num + 1))


def test_evaluate_graph_matches_the_per_t_functions(corpus):
    """Every report, core report, verdict and dominance record of
    ``evaluate_graph``, over every graph with n <= 7 at t = 1..7 and all six
    per-order kinds, equals what the per-t bound functions and certificate
    builders give."""
    for g in (g for level in corpus.values() for g in level):
        w = all_weights(g)
        assert w.blocks == block_decomposition(g)  # the cycle certificate's blocks when nothing is stripped
        classical = {kind: classical_certificate(g, w, kind) for kind in (KIND_WOOD, KIND_CC_PATH, KIND_CC_CYCLE)}
        for order in evaluate_graph(g, range(1, 8), PER_ORDER_KINDS).orders:
            t = order.t
            count = count_cliques(g, t).total if t <= g.n else 0
            expected = {
                KIND_LOCAL_VERTEX: (local_vertex_bound(g, t), vertex_equality_certificate(g, t)),
                KIND_WOOD: (wood_bound(g.n, g.max_degree(), t), classical[KIND_WOOD]),
            }
            if t >= 2:
                expected[KIND_LOCAL_EDGE_PATH] = (local_edge_path_bound(g, w, t), edge_equality_certificate(g, w, t))
                expected[KIND_LOCAL_EDGE_CYCLE] = (local_edge_cycle_bound(g, w, t), cycle_equality_certificate(g, w, t))
                expected[KIND_CC_PATH] = (cc_path_bound(g.m, classical_path_r(w, g.m), t), classical[KIND_CC_PATH])
                expected[KIND_CC_CYCLE] = (cc_cycle_bound(g.m, classical_cycle_r(w), t), classical[KIND_CC_CYCLE])
            reports = {kind: make_report(kind, t, count, *expected[kind]) for kind in PER_ORDER_KINDS if kind in expected}
            assert order.count == count
            assert list(order.reports.items()) == list(reports.items()), (write_graph6(g), t)
            core = cross_validate(reports[KIND_LOCAL_VERTEX], vertex_core_certificate(g, t))
            assert order.core == core
            judged = {**reports, KIND_LOCAL_VERTEX: core}
            verdicts = [(kind, conjecture_verdict(judged[kind])) for kind in VERDICT_KINDS if kind in reports]
            assert list(order.verdicts.items()) == verdicts
            bounds = {kind: r.bound for kind, r in reports.items()}
            assert order.dominance == (compare_local_vs_classical(g, w, t, bounds) if t >= 2 else None)


def test_each_certificate_is_built_once_per_reduced_graph(monkeypatch):
    """A guard on the certificate builds of ``evaluate_graph`` over a fixed corpus.

    Each builder is counted with its reduced graph's key from the per-t
    threshold functions; no key may be built twice for one graph, and the
    cycle certificate decomposes a graph only when an edge was stripped from
    it (otherwise the blocks of ``all_weights`` serve). Over the 36 graphs
    below, 253 (graph, t) pairs take 359 builds, where one build per
    certificate and order took 940.
    """
    builds, decomposed = [], []

    def counted(name, builder, key):
        def wrapper(*args):
            builds.append((name, key(*args)))
            return builder(*args)

        return wrapper

    decompose = certificates.block_decomposition
    monkeypatch.setattr(certificates, "block_decomposition", lambda h: decomposed.append(h) or decompose(h))
    for name, builder, key in (
        ("vertex", "vertex_equality_certificate", x_set),
        ("core", "vertex_core_certificate", lambda g, t, core: x_core(g, t)),
        ("edge", "edge_equality_certificate", lambda g, w, t: frozenset(z_set(g, w, t))),
        ("cycle", "cycle_equality_certificate", lambda g, w, t: frozenset(w_set(g, w, t))),
    ):
        monkeypatch.setattr(certificates, builder, counted(name, getattr(certificates, builder), key))
    total_builds = pairs = per_order = 0
    for n in (8, 10, 12):
        for p in (0.3, 0.5, 0.7):
            for seed in range(4):
                g = random_gnp(n, p, seed)
                builds.clear()
                decomposed.clear()
                ts = range(1, g.max_degree() + 2)
                evaluate_graph(g, ts, PER_ORDER_KINDS)
                pairs += len(ts)
                per_order += sum(4 if t >= 2 else 2 for t in ts)
                assert len(builds) == len(set(builds)), write_graph6(g)
                stripped = [key for name, key in builds if name == "cycle" and key]
                assert len(decomposed) == len(stripped) and all(h.m < g.m for h in decomposed), write_graph6(g)
                total_builds += len(builds)
    assert (pairs, total_builds, per_order) == (253, 359, 940)


def test_an_edge_only_sweep_evaluates_nothing_of_the_vertex_side(monkeypatch):
    """A sweep of local_edge_path alone builds no vertex or vertex-core
    certificate and cross-validates nothing; with local_vertex requested
    too, the same counters see both."""
    import cliquebounds.search as search

    calls = []
    for module, name in ((certificates, "vertex_equality_certificate"), (certificates, "vertex_core_certificate"),
                         (search, "cross_validate")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    source = GraphSource.exhaustive((1, 2, 3, 4, 5, 6))
    result = run_sweep(source, SearchConfig(t_min=2, t_max=6, kinds=(KIND_LOCAL_EDGE_PATH,)))
    assert result.summary["graphs"] == 208 and result.findings
    assert calls == []
    run_sweep(source, SearchConfig(t_min=2, t_max=6, kinds=(KIND_LOCAL_EDGE_PATH, KIND_LOCAL_VERTEX)))
    assert {"vertex_equality_certificate", "vertex_core_certificate", "cross_validate"} == set(calls)


def test_a_sweep_renders_no_certificate(monkeypatch):
    """A finding reads a certificate's outcome, never its rendering: a sweep
    of every kind, with vertex discrepancies among its findings, formats no
    certificate description."""
    def render(cert, t):
        raise AssertionError("a sweep rendered a certificate")

    monkeypatch.setattr(certificates.EqualityCertificate, "to_json_dict", render)
    result = run_sweep(GraphSource.exhaustive((1, 2, 3, 4)),
                       SearchConfig(t_min=1, t_max=4, kinds=PER_ORDER_KINDS))
    assert any(f.category == CATEGORY_CHAR_DISCREPANCY and f.kind == KIND_LOCAL_VERTEX for f in result.findings)


def test_a_sweep_builds_no_slack(monkeypatch):
    """A finding reads a report's slack as integer terms: a sweep of every
    per-order kind, with vertex discrepancies among its findings, builds no
    slack ``Fraction``, of a report or of a dominance record."""
    def build(self):
        raise AssertionError("a sweep built a slack")

    monkeypatch.setattr(BoundReport, "slack", property(build))
    monkeypatch.setattr(DominanceRecord, "vertex_slack", property(build))
    monkeypatch.setattr(DominanceRecord, "edge_slack", property(build))
    result = run_sweep(GraphSource.exhaustive((1, 2, 3, 4, 5)),
                       SearchConfig(t_min=1, t_max=5, kinds=PER_ORDER_KINDS, emit_min_slack=True))
    assert any(f.category == CATEGORY_CHAR_DISCREPANCY and f.kind == KIND_LOCAL_VERTEX for f in result.findings)
    assert any(f.category == CATEGORY_MIN_SLACK for f in result.findings)


def test_each_verdict_is_decided_once_per_graph_and_order(monkeypatch):
    """Over every graph with n <= 6 at the default kinds and orders, the
    vertex, edge-path and cycle verdicts are decided once per evaluation of
    their kind, and the vertex-core check runs once per (graph, t) where
    local_vertex is evaluated: one local_vertex verdict, from the core report,
    per (graph, t)."""
    from collections import Counter

    import cliquebounds.search as search

    verdicts, crosses = Counter(), []
    real_verdict, real_cross = certificates.conjecture_verdict, certificates.cross_validate

    def verdict(report):
        verdicts[report.kind] += 1
        return real_verdict(report)

    def cross(*args):
        crosses.append(args[0].t)
        return real_cross(*args)

    for module in (certificates, search):
        monkeypatch.setattr(module, "conjecture_verdict", verdict)
        monkeypatch.setattr(module, "cross_validate", cross)
    rows = []
    run_sweep(GraphSource.exhaustive((1, 2, 3, 4, 5, 6)), SearchConfig(), rows.append)
    evaluated = Counter(f.kind for f in rows)
    assert evaluated[KIND_LOCAL_EDGE_PATH] > 0 and evaluated[KIND_LOCAL_EDGE_CYCLE] > 0
    assert verdicts == {kind: evaluated[kind] for kind in VERDICT_KINDS}
    assert len(crosses) == evaluated[KIND_LOCAL_VERTEX] > 0


def test_edge_and_cycle_discrepancies_come_from_one_rule(monkeypatch):
    # Both characterizations hold on every small graph, so flip their certificates to drive the path.
    from dataclasses import replace

    for name in ("edge_equality_certificate", "cycle_equality_certificate"):
        real = getattr(certificates, name)
        monkeypatch.setattr(certificates, name, lambda *args, real=real: replace(real(*args), holds=False))
    for kinds in ((KIND_LOCAL_EDGE_CYCLE, KIND_LOCAL_EDGE_PATH), (KIND_LOCAL_EDGE_PATH, KIND_LOCAL_EDGE_CYCLE)):
        result = run_sweep(GraphSource.graph6_lines(("C~",)), SearchConfig(t_min=2, t_max=3, kinds=kinds))
        found = [(f.t, f.kind, f.detail) for f in result.findings if f.category == CATEGORY_CHAR_DISCREPANCY]
        assert found == [  # exempt at t = 2, then edge before cycle whatever the request order
            (3, KIND_LOCAL_EDGE_PATH, "equality True vs certificate False"),
            (3, KIND_LOCAL_EDGE_CYCLE, "equality True vs block-forest certificate False"),
        ]
        assert all(replay_finding(f) for f in result.findings)


JSON_TEXT = st.text(st.sampled_from('a"\\/\x00\x08\x1f\x7f\n\t\u00e9\u20ac\U0001f600') | st.characters())
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**100), 2**100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -(2**70), 0.1, -0.0, math.nan, math.inf, -math.inf, True, False, None,
    {"b": {}, "a": [], "c": (), "\u00e9\"\\\n": [[{}], {"x": [True, 1, None]}], "B": 1e300},
])
def test_dump_json_matches_json_dumps_on_edge_cases(obj):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {1: 2}}, {1, 2}, {"a": [{1, 2}]}, {"a": Fraction(1, 2)}])
def test_dump_json_rejects_a_non_str_key_and_an_unknown_type(obj):
    with pytest.raises(TypeError):
        dump_json(obj)
