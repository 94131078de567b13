"""Command-line surface: analyze, verify, search, enumerate, oracle.

Exit codes: 0 clean, 1 findings of a requested severity, 2 usage or parse
error, 3 internal invariant breach (a proven theorem bound violated, or a
fast/oracle mismatch). Machine output never rounds rationals; the human
format renders them as "num/den (~ decimal)".
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from fractions import Fraction
from typing import Iterator

from .bounds import (
    BOUND_KINDS,
    DEFAULT_SWEEP_KINDS,
    KIND_LOCAL_EDGE_PATH,
    KIND_LOCAL_VERTEX,
    KIND_LOCAL_VERTEX_TOTAL,
    KIND_WOOD_TOTAL,
    PER_ORDER_KINDS,
    format_fraction,
    local_vertex_total_bound,
    make_report,
    wood_total_bound,
)
from .certificates import VERDICT_EXEMPT, is_block_forest
from .cliques import count_all_cliques, count_cliques
from .enumeration import enumerate_graphs
from .graph import Graph, GraphError, iter_bits, parse_edge_list_text, parse_graph6, write_graph6
from .oracles import NAIVE_CLIQUE_CAP, dp_all_weights, naive_count_all_cliques, naive_count_cliques
from .search import (
    CATEGORIES,
    CATEGORY_BOUND_VIOLATION,
    GraphSource,
    OrderEvaluation,
    SearchConfig,
    WorkerError,
    csv_rows,
    dump_json,
    evaluate_graph,
    findings_to_jsonl,
    order_range,
    run_sweep,
    summary_to_json,
)
from .weights import (
    DEFAULT_EXACT_CAP,
    CapExceededError,
    all_weights,
    articulation_points,
    longest_cycle_through_edge,
    longest_path_through_edge,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

def load_single_graph(spec: str, edge_list: bool) -> Graph:
    """Resolve an input argument: '-' for stdin, an existing path, or a graph6 literal."""
    if spec == "-":
        text = sys.stdin.read()
    elif os.path.exists(spec):
        # a non-ASCII byte reads as a lone surrogate, which parse_graph6 rejects with its position
        with open(spec, "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
    elif edge_list:
        raise GraphError(f"edge-list input must be a file or '-', got literal {spec!r}")
    else:
        return parse_graph6(spec)
    if edge_list:
        return parse_edge_list_text(text)
    for line in text.splitlines():
        if line.strip():
            return parse_graph6(line)
    raise GraphError("no graph found in input")


def parse_t_range(raw: str | None) -> tuple[int, int | None]:
    """Parse 'MIN:MAX' or a single order; the default is 2 up to each graph's max degree + 1 (None)."""
    if raw is None:
        return 2, None
    lo_s, sep, hi_s = raw.partition(":")
    try:
        lo, hi = int(lo_s), int(hi_s if sep else lo_s)
    except ValueError:
        raise ValueError(f"--t expects an order or MIN:MAX, both integers, got {raw!r}") from None
    if lo < 1:
        raise ValueError(f"--t orders must be >= 1, got {raw!r}")
    if hi < lo:
        raise ValueError(f"--t MAX must be >= MIN, got {raw!r}")
    return lo, hi


def _edge_key(e: tuple[int, int]) -> str:
    return f"{e[0]}-{e[1]}"


def reports_for_t(order: OrderEvaluation) -> list[dict]:
    """The JSON reports of every kind evaluated at one order."""
    return [r.to_json_dict() for r in order.reports.values()]


def cross_validation_for_t(order: OrderEvaluation) -> dict:
    """The characterization section of one order: the local_vertex pair, unreduced
    and on the (t-1)-core, and the local_edge_path pair, each with its verdict.

    The edge section is null and exempt where local_edge_path is undefined (t = 1).
    """
    vertex, core, edge = order.reports[KIND_LOCAL_VERTEX], order.core, order.reports.get(KIND_LOCAL_EDGE_PATH)
    return {
        "t": order.t,
        "vertex": {
            "equality": vertex.equality,
            "certificate": vertex.certificate.holds,
            "core_equality": core.equality,
            "core_certificate": core.certificate.holds,
            "core_graph6": core.certificate.reduced_graph6,
            "verdict": order.verdicts[KIND_LOCAL_VERTEX],
        },
        "edge": {
            "equality": None if edge is None else edge.equality,
            "certificate": None if edge is None else edge.certificate.holds,
            "verdict": order.verdicts.get(KIND_LOCAL_EDGE_PATH, VERDICT_EXEMPT),
        },
    }


def build_analyze_report(g: Graph, ts: list[int], weight_cap: int = DEFAULT_EXACT_CAP) -> dict:
    graph6 = write_graph6(g)
    evaluation = evaluate_graph(g, ts, PER_ORDER_KINDS, weight_cap)
    weights = evaluation.weights
    edges = g.edges()
    all_count = sum(evaluation.census.values())
    totals = [
        make_report(KIND_LOCAL_VERTEX_TOTAL, None, all_count, local_vertex_total_bound(g)),
        make_report(KIND_WOOD_TOTAL, None, all_count, wood_total_bound(g.n, g.max_degree())),
    ]
    return {
        "graph6": graph6,
        "n": g.n,
        "m": g.m,
        "degrees": list(g.degrees()),
        "weights": {
            "p": {_edge_key(e): w for e, w in weights.p.items()},
            "c": {_edge_key(e): w for e, w in weights.c.items()},
            "longest_path": weights.longest_path,
            "circumference": weights.circumference,
        },
        "blocks": {
            # each block's edges are g's edges between its vertices, in g's edge order
            "blocks": [[_edge_key(e) for e in edges if mask >> e[0] & mask >> e[1] & 1] for mask in weights.blocks],
            "articulation_points": list(iter_bits(articulation_points(weights.blocks))),
            "is_block_forest": is_block_forest(g, weights.blocks),
        },
        "t_values": ts,
        "reports": [r for order in evaluation.orders for r in reports_for_t(order)],
        "cross_validation": [cross_validation_for_t(order) for order in evaluation.orders],
        "dominance": [order.dominance.to_json_dict() for order in evaluation.orders if order.dominance is not None],
        "totals": [r.to_json_dict() for r in totals],
    }


def render_human_report(report: dict) -> str:
    lines = [
        f"graph {report['graph6']}  n={report['n']} m={report['m']} degrees={report['degrees']}",
        f"longest path {report['weights']['longest_path']}, circumference {report['weights']['circumference']}",
        f"p(e): {report['weights']['p']}",
        f"c(e): {report['weights']['c']}",
        f"blocks: {report['blocks']['blocks']} articulation={report['blocks']['articulation_points']} block_forest={report['blocks']['is_block_forest']}",
        "",
    ]

    def frac(d: dict) -> str:
        return format_fraction(Fraction(d["num"], d["den"]))

    for rep in report["reports"]:
        cert = rep["certificate"]
        cert_txt = "-" if cert is None else ("holds" if cert["holds"] else "fails")
        lines.append(
            f"t={rep['t']} {rep['kind']:<28} count={rep['count']:<4} bound={frac(rep['bound']):<18} "
            f"slack={frac(rep['slack']):<18} equality={str(rep['equality']):<5} certificate={cert_txt}"
        )
    lines.append("")
    for tot in report["totals"]:
        lines.append(
            f"all-orders {tot['kind']:<24} count={tot['count']:<5} bound={frac(tot['bound']):<18} equality={tot['equality']}"
        )
    lines.append("")
    for cv in report["cross_validation"]:
        lines.append(
            f"t={cv['t']} cross-validation: vertex={cv['vertex']['verdict']} (core {cv['vertex']['core_graph6']}), "
            f"edge={cv['edge']['verdict']}"
        )
    for dom in report["dominance"]:
        lines.append(
            f"t={dom['t']} dominance: local_vertex<=wood {dom['vertex_ok']}, local_edge<=cc_path {dom['edge_ok']}"
        )
    return "\n".join(lines) + "\n"


def _parse_kinds(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return tuple(k for k in BOUND_KINDS if k in PER_ORDER_KINDS)
    kinds = tuple(k.strip() for k in raw.split(",") if k.strip())
    if not kinds:
        raise ValueError(f"--kinds names no bound kind, got {raw!r}")
    for k in kinds:
        if k not in PER_ORDER_KINDS:
            raise ValueError(f"unknown bound kind {k!r} (per-order kinds: {', '.join(PER_ORDER_KINDS)})")
    return kinds


def _write_outputs(args, result) -> None:
    if args.findings:
        with open(args.findings, "w", encoding="ascii") as fh:
            fh.write(findings_to_jsonl(result.findings))
    if args.summary:
        with open(args.summary, "w", encoding="ascii") as fh:
            fh.write(summary_to_json(result.summary))


def _parse_fail_on(raw: str) -> set[str]:
    fail_on = {c.strip() for c in raw.split(",") if c.strip()}
    unknown = sorted(fail_on - set(CATEGORIES))
    if unknown:
        raise ValueError(f"--fail-on: unknown finding category {unknown[0]!r} (categories: {', '.join(CATEGORIES)})")
    return fail_on


def _sweep_exit_code(fail_on: set[str], result) -> int:
    if any(f.category == CATEGORY_BOUND_VIOLATION for f in result.findings):
        return EXIT_INTERNAL
    if result.summary["cap_errors"] or any(f.category in fail_on for f in result.findings):
        return EXIT_FINDINGS
    return EXIT_OK


def _print_sweep_human(result) -> None:
    from collections import Counter

    counts = Counter(f.category for f in result.findings)
    print(f"graphs analyzed: {result.summary['graphs']}")
    for cat in sorted(counts):
        print(f"{cat}: {counts[cat]}")
    if result.summary["cap_errors"]:
        print(f"cap errors: {len(result.summary['cap_errors'])}")
    for f in result.findings:
        if f.category != "EQUALITY_INSTANCE":
            print(
                f"  {f.category} {f.graph6} t={f.t} {f.kind} count={f.count} "
                f"bound={f.bound_num}/{f.bound_den} {f.detail}"
            )


def cmd_analyze(args) -> int:
    if args.weight_cap < 0:  # a usage error, not a graph too large for the cap
        raise ValueError(f"weight cap must be >= 0, got {args.weight_cap}")
    g = load_single_graph(args.graph, args.edge_list)
    t_min, t_max = parse_t_range(args.t)
    report = build_analyze_report(g, list(order_range(g, t_min, t_max)), args.weight_cap)
    if args.format == "json":
        print(dump_json(report))
    else:
        print(render_human_report(report), end="")
    return EXIT_OK


def _sweep(args, source: GraphSource, **options) -> int:
    """Run a verify/search sweep, write and print its outputs; returns the exit code."""
    t_min, t_max = parse_t_range(args.t)
    fail_on = _parse_fail_on(args.fail_on)
    config = SearchConfig(
        t_min=t_min,
        t_max=t_max,
        kinds=_parse_kinds(args.kinds),
        parallelism=args.parallelism,
        equality_cap=args.equality_cap,
        weight_cap=args.weight_cap,
        **options,
    )
    # The CSV is opened before the first graph is read, and takes each row as it is merged.
    with open(args.csv, "w", encoding="ascii", newline="") if args.csv else contextlib.nullcontext() as fh:
        result = run_sweep(source, config, None if fh is None else csv_rows(fh))
    _write_outputs(args, result)
    if args.format == "jsonl":
        sys.stdout.write(findings_to_jsonl(result.findings))
    elif args.format == "json":
        print(dump_json({"findings": [f.to_json_dict() for f in result.findings], "summary": result.summary}))
    else:
        _print_sweep_human(result)
    return _sweep_exit_code(fail_on, result)


def _file_lines(path: str) -> Iterator[str]:
    """The lines of a file, opened on the first read, so a usage error is reported before a missing file.

    A non-ASCII byte reads as a lone surrogate, as on stdin, so ``parse_graph6``
    rejects its line by number after the lines before it are swept.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        yield from fh


def cmd_verify(args) -> int:
    # streamed: the sweep reads one line at a time
    lines = sys.stdin if args.input == "-" else _file_lines(args.input)
    return _sweep(args, GraphSource(kind="graph6_lines", lines=lines))


def cmd_search(args) -> int:
    if args.random:
        params = {}
        if args.random == "gnp":
            params["p"] = args.p
        else:
            params["d"] = args.d
        source = GraphSource(
            kind="random",
            model=args.random,
            n=args.n,
            count=args.count,
            seed=args.seed,
            params=params,
            connected_only=args.connected_only,
            max_edges=args.max_edges,
        )
    else:
        try:
            ns = tuple(int(x) for x in args.exhaustive.split(","))
        except ValueError:
            raise ValueError(
                f"--exhaustive expects comma-separated vertex counts, got {args.exhaustive!r}"
            ) from None
        source = GraphSource(
            kind="exhaustive", ns=ns, connected_only=args.connected_only, max_edges=args.max_edges
        )
    return _sweep(args, source, stop_on_first=args.stop_on_first, emit_min_slack=args.min_slack)


def cmd_enumerate(args) -> int:
    for g in enumerate_graphs(args.n):
        print(write_graph6(g))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = load_single_graph(args.graph, args.edge_list)
    mismatches = 0
    if args.mode == "cliques":
        if g.n > NAIVE_CLIQUE_CAP:
            raise CapExceededError(f"clique oracle supports n <= {NAIVE_CLIQUE_CAP}, got n={g.n}")
        print(f"{'t':>3} {'fast':>8} {'oracle':>8}")
        for t in range(1, g.n + 1):
            fast = count_cliques(g, t)
            slow = naive_count_cliques(g, t)
            ok = fast.total == slow.total and fast.per_vertex == slow.per_vertex and fast.per_edge == slow.per_edge
            if not ok:
                mismatches += 1
            print(f"{t:>3} {fast.total:>8} {slow.total:>8} {'' if ok else ' MISMATCH'}")
        fast_all = count_all_cliques(g)
        slow_all = naive_count_all_cliques(g)
        if fast_all != slow_all:
            mismatches += 1
        print(f"all {fast_all:>8} {slow_all:>8}{'' if fast_all == slow_all else ' MISMATCH'}")
    else:
        dp = dp_all_weights(g)  # one subset-DP table set for every edge; it enforces the oracle's cap
        print(f"{'edge':>7} {'p fast':>7} {'p dp':>7} {'c fast':>7} {'c dp':>7}")
        for e in g.edges():
            pf = longest_path_through_edge(g, e)
            cf = longest_cycle_through_edge(g, e)
            ok = pf == dp.p[e] and cf == dp.c[e]
            if not ok:
                mismatches += 1
            print(f"{_edge_key(e):>7} {pf:>7} {dp.p[e]:>7} {cf:>7} {dp.c[e]:>7}{'' if ok else ' MISMATCH'}")
        # The kernel every sweep and analyze call runs, with all its shortcuts.
        kernel = all_weights(g)
        wrong = [e for e in g.edges() if (kernel.p[e], kernel.c[e]) != (dp.p[e], dp.c[e])]
        mismatches += len(wrong)
        print(f"all_weights: {g.m - len(wrong)} of {g.m} edges agree"
              + "".join(f" MISMATCH {_edge_key(e)}" for e in wrong))
    if mismatches:
        print(f"{mismatches} mismatch(es): fast path disagrees with the oracle", file=sys.stderr)
        return EXIT_INTERNAL
    print("fast and oracle agree")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquebounds",
        description="Localized clique bounds: exact verification and counterexample search on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_graph(p):
        p.add_argument("graph", help="graph6 literal, file path, or '-' for stdin")
        p.add_argument("--edge-list", action="store_true", help="input is 'n m' edge-list text")

    p_analyze = sub.add_parser("analyze", help="full report for a single graph")
    add_common_graph(p_analyze)
    p_analyze.add_argument("--t", help="clique orders MIN:MAX (default 2..max degree + 1)")
    p_analyze.add_argument("--format", choices=("human", "json"), default="human")
    p_analyze.add_argument("--weight-cap", type=int, default=DEFAULT_EXACT_CAP)
    p_analyze.set_defaults(func=cmd_analyze)

    def add_sweep_flags(p):
        p.add_argument("--t", help="clique orders MIN:MAX (default 2..max degree + 1 per graph)")
        p.add_argument("--kinds", default=",".join(DEFAULT_SWEEP_KINDS),
                       help="comma-separated bound kinds, or 'all'")
        p.add_argument("--parallelism", type=int, default=1, help="worker processes")
        p.add_argument("--equality-cap", type=int, default=100,
                       help="max EQUALITY_INSTANCE findings per (n,t)")
        p.add_argument("--weight-cap", type=int, default=DEFAULT_EXACT_CAP)
        p.add_argument("--findings", help="write findings as JSON lines to this path")
        p.add_argument("--summary", help="write the summary JSON to this path")
        p.add_argument("--csv", help="write the per-evaluation slack table as CSV to this path")
        p.add_argument("--format", choices=("human", "json", "jsonl"), default="human")
        p.add_argument("--fail-on", default="",
                       help="comma-separated finding categories that set exit code 1")

    p_verify = sub.add_parser("verify", help="sweep a graph6 stream against the bounds")
    p_verify.add_argument("input", help="graph6 file path or '-' for stdin")
    add_sweep_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="search graph families for findings")
    src = p_search.add_mutually_exclusive_group(required=True)
    src.add_argument("--exhaustive", help="comma-separated vertex counts, e.g. 4,5,6")
    src.add_argument("--random", choices=("gnp", "regular"), help="random model")
    p_search.add_argument("--n", type=int, default=8, help="vertices for the random model")
    p_search.add_argument("--count", type=int, default=100, help="number of random graphs")
    p_search.add_argument("--p", type=float, default=0.5, help="edge probability for gnp")
    p_search.add_argument("--d", type=int, default=3, help="degree for the regular model")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--connected-only", action="store_true")
    p_search.add_argument("--max-edges", type=int)
    p_search.add_argument("--stop-on-first", action="store_true",
                          help="stop at the first bound/conjecture violation")
    p_search.add_argument("--min-slack", action="store_true",
                          help="emit MIN_SLACK findings per (n,t,kind)")
    add_sweep_flags(p_search)
    p_search.set_defaults(func=cmd_search)

    p_enum = sub.add_parser("enumerate", help="print one graph6 line per isomorphism class")
    p_enum.add_argument("n", type=int)
    p_enum.set_defaults(func=cmd_enumerate)

    p_oracle = sub.add_parser("oracle", help="cross-check fast algorithms against naive oracles")
    add_common_graph(p_oracle)
    p_oracle.add_argument("--mode", choices=("cliques", "pweights"), default="cliques")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WorkerError as exc:  # a fault of the program on one graph, not of the input
        print(f"{exc.traceback}error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
