"""Per-graph evaluation and the sweep harness: stream graphs, emit findings.

``evaluate_graph`` is the one place where a graph's counts, bounds,
certificates and verdicts are gathered. Its t-free work is done once per
graph: one clique census gives every K_t count, ``bounds.order_bounds``
every order's bound table, and ``certificates.OrderCertificates`` builds
every certificate once per distinct reduced graph, one object for every
order that shares that graph. Per requested order t it pairs each requested
kind's bound with that kind's certificate through ``evaluate_kind``, tests
the local_vertex report on the (t-1)-core (``cross_validate``, the order's
``core`` report), asks ``certificates.conjecture_verdict`` for the verdict
of each characterization among those reports, once each (the local_vertex
one from the core report), and ``bounds`` for the dominance record of the
table. Nothing is evaluated that was not requested. ``analyze`` renders that
result, ``sweep_worker`` builds each finding from it once, and
``replay_finding`` re-evaluates a witness through ``sweep_worker`` and looks
for the finding among the ones it builds. A sweep renders no certificate: a
finding reads only a certificate's outcome, and a vertex discrepancy its
core's graph6.

Workers see one graph at a time (parsed once by the source, with its graph6
line, which doubles as the witness string) and return its findings.
``run_sweep`` has one loop that merges the workers' records in stream order,
mapped in process at parallelism 1 and through a process pool otherwise, so
the output is identical for any parallelism width. Every finding can be
replayed from its witness alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator

from .bounds import (
    DEFAULT_SWEEP_KINDS,
    KIND_LOCAL_EDGE_CYCLE,
    KIND_LOCAL_VERTEX,
    PER_ORDER_KINDS,
    BoundReport,
    DominanceRecord,
    compare_local_vs_classical,
    make_report,
    order_bounds,
)
from .certificates import (
    VERDICT_DISCREPANCY,
    VERDICT_KINDS,
    OrderCertificates,
    conjecture_verdict,
    cross_validate,
)
from .cliques import clique_census
from .enumeration import enumerate_levels, random_graph
from .graph import Graph, GraphError, connected_components, parse_graph6, write_graph6
from .weights import DEFAULT_EXACT_CAP, CapExceededError, WeightMap, all_weights

CATEGORY_BOUND_VIOLATION = "BOUND_VIOLATION"
CATEGORY_CONJECTURE_VIOLATION = "CONJECTURE_VIOLATION"
CATEGORY_CHAR_DISCREPANCY = "CHAR_DISCREPANCY"
CATEGORY_EQUALITY_INSTANCE = "EQUALITY_INSTANCE"
CATEGORY_MIN_SLACK = "MIN_SLACK"
CATEGORIES = (CATEGORY_BOUND_VIOLATION, CATEGORY_CONJECTURE_VIOLATION, CATEGORY_CHAR_DISCREPANCY,
              CATEGORY_EQUALITY_INSTANCE, CATEGORY_MIN_SLACK)

# pseudo-kinds for dominance violations (always checked, never requested)
KIND_DOMINANCE_VERTEX = "dominance_vertex"
KIND_DOMINANCE_EDGE = "dominance_edge"
DOMINANCE_KINDS = (KIND_DOMINANCE_VERTEX, KIND_DOMINANCE_EDGE)


@dataclass(frozen=True)
class SearchConfig:
    t_min: int = 2
    t_max: int | None = None  # None: per-graph max degree + 1
    kinds: tuple[str, ...] = DEFAULT_SWEEP_KINDS
    parallelism: int = 1
    equality_cap: int = 100
    stop_on_first: bool = False
    weight_cap: int = DEFAULT_EXACT_CAP
    emit_min_slack: bool = False
    collect_rows: bool = False

    def __post_init__(self) -> None:
        if self.t_min < 1:
            raise ValueError(f"t_min must be >= 1, got {self.t_min}")
        if self.t_max is not None and self.t_max < self.t_min:
            raise ValueError(f"t_max must be >= t_min = {self.t_min}, got {self.t_max}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.equality_cap < 0:
            raise ValueError(f"equality cap must be >= 0, got {self.equality_cap}")
        if self.weight_cap < 0:
            raise ValueError(f"weight cap must be >= 0, got {self.weight_cap}")


@dataclass(frozen=True)
class GraphSource:
    """A stream of graphs: exhaustive small-n, graph6 lines, or a random model."""

    kind: str  # "exhaustive" | "graph6_lines" | "random"
    ns: tuple[int, ...] = ()
    lines: Iterable[str] = ()  # graph6 lines, read once, one at a time
    model: str = "gnp"
    n: int = 0
    count: int = 0
    seed: int = 0
    params: dict = field(default_factory=dict)
    connected_only: bool = False
    max_edges: int | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.max_edges is not None and self.max_edges < 0:
            raise ValueError(f"max edges must be >= 0, got {self.max_edges}")

    def _accept(self, g: Graph) -> bool:
        if self.max_edges is not None and g.m > self.max_edges:
            return False
        if self.connected_only and len(connected_components(g)) != 1:
            return False
        return True

    def graphs(self) -> Iterator[tuple[str, Graph]]:
        """Yield (graph6, graph) pairs, already validated and filtered."""
        if self.kind == "exhaustive":
            for level in enumerate_levels(self.ns):
                for g in level:
                    if self._accept(g):
                        yield write_graph6(g), g
        elif self.kind == "graph6_lines":
            for lineno, raw in enumerate(self.lines, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    g = parse_graph6(line)
                except GraphError as exc:
                    raise GraphError(f"line {lineno}: {exc}") from None
                if self._accept(g):
                    yield line.removeprefix(">>graph6<<"), g
        elif self.kind == "random":
            for i in range(self.count):
                g = random_graph(self.model, self.n, self.params, self.seed + i)
                if self._accept(g):
                    yield write_graph6(g), g
        else:
            raise ValueError(f"unknown graph source kind {self.kind!r}")


@dataclass(frozen=True)
class Finding:
    """One replayable search result, anchored to its graph6 witness."""

    category: str
    graph6: str
    n: int
    m: int
    t: int
    kind: str
    count: int
    bound_num: int
    bound_den: int
    slack_num: int
    slack_den: int
    certificate: bool | None
    detail: str

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # every field is a plain value: asdict's deep copy is 30x slower

    @classmethod
    def from_json_dict(cls, d: dict) -> "Finding":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


def order_range(g: Graph, t_min: int, t_max: int | None) -> range:
    """The orders t_min..t_max; without t_max, up to g's max degree + 1."""
    return range(t_min, (t_max if t_max is not None else max(g.max_degree() + 1, t_min)) + 1)


def evaluate_kind(certificates: OrderCertificates, count: int, t: int, kind: str, bound: Fraction) -> BoundReport:
    """One per-order kind's report: its bound, taken from the ``order_bounds``
    table of (g, t), against the count, with g's certificate of that kind."""
    return make_report(kind, t, count, bound, certificates.of(kind, t))


@dataclass
class OrderEvaluation:
    """Everything derived for one graph at one clique order t."""

    t: int
    count: int
    reports: dict[str, BoundReport]  # the evaluated kinds defined at t, in request order
    core: BoundReport | None  # the local_vertex report on the (t-1)-core, when local_vertex was evaluated
    verdicts: dict[str, str]  # the verdict of each evaluated VERDICT_KINDS kind, in that order
    dominance: DominanceRecord | None  # for t >= 2


@dataclass
class GraphEvaluation:
    weights: WeightMap
    census: dict[int, int]  # K_t count per order t = 1..n
    orders: list[OrderEvaluation]


def evaluate_graph(
    g: Graph, ts: Iterable[int], kinds: tuple[str, ...], weight_cap: int = DEFAULT_EXACT_CAP
) -> GraphEvaluation:
    """Evaluate the given kinds at every order in ``ts``, each item exactly
    once: a kind requested twice is evaluated once, at its first position."""
    unknown = [kind for kind in kinds if kind not in PER_ORDER_KINDS]
    if unknown:
        raise ValueError(f"unknown per-order bound kind {unknown[0]!r}")
    kinds = tuple(dict.fromkeys(kinds))
    weights = all_weights(g, weight_cap)
    census = clique_census(g)
    certificates = OrderCertificates(g, weights)
    ts = list(ts)
    tables = order_bounds(g, weights, ts)
    orders = []
    for t in ts:
        count = census.get(t, 0)
        bounds = tables[t]
        reports = {kind: evaluate_kind(certificates, count, t, kind, bounds[kind]) for kind in kinds if kind in bounds}
        vertex = reports.get(KIND_LOCAL_VERTEX)
        core = None if vertex is None else cross_validate(vertex, certificates.of("vertex-core", t))
        verdicts = {
            kind: conjecture_verdict(core if kind == KIND_LOCAL_VERTEX else reports[kind])
            for kind in VERDICT_KINDS if kind in reports
        }
        dominance = compare_local_vs_classical(g, weights, t, bounds) if t >= 2 else None
        orders.append(OrderEvaluation(t, count, reports, core, verdicts, dominance))
    return GraphEvaluation(weights, census, orders)


def sweep_worker(item: tuple[str, Graph], config: SearchConfig) -> dict:
    """Analyze one (graph6, graph) pair of a source; returns a record of its
    findings in stream order, before any cap: the evaluations t-major in
    ``config.kinds`` order, each kind once, then the characterization
    discrepancies, then the dominance violations. An evaluation is a
    violation, an EQUALITY_INSTANCE or a MIN_SLACK candidate by the sign of
    its report's slack."""
    line, g = item
    record: dict = {"graph6": line, "n": g.n, "error": None, "findings": []}
    try:
        evaluation = evaluate_graph(g, order_range(g, config.t_min, config.t_max), config.kinds, config.weight_cap)
    except CapExceededError as exc:
        record["error"] = str(exc)
        return record

    def finding(category, t, kind, count, bound, slack, certificate, detail) -> Finding:
        return Finding(category, line, g.n, g.m, t, kind, count, bound.numerator, bound.denominator,
                       slack.numerator, slack.denominator, certificate, detail)

    evals, discrepancies, violations = [], [], []
    for order in evaluation.orders:
        t, count, reports = order.t, order.count, order.reports
        for kind, r in reports.items():
            if r.slack < 0:
                category = CATEGORY_CONJECTURE_VIOLATION if kind == KIND_LOCAL_EDGE_CYCLE else CATEGORY_BOUND_VIOLATION
                detail = f"count exceeds bound by {-r.slack}"
            elif r.equality:
                category, detail = CATEGORY_EQUALITY_INSTANCE, "bound attained exactly"
            else:
                category, detail = CATEGORY_MIN_SLACK, "smallest positive slack for this (n,t,kind)"
            evals.append(finding(category, t, kind, count, r.bound, r.slack, r.certificate.holds, detail))
        for kind, verdict in order.verdicts.items():
            if verdict != VERDICT_DISCREPANCY:
                continue
            r = order.core if kind == KIND_LOCAL_VERTEX else reports[kind]
            cert = r.certificate.holds
            if kind == KIND_LOCAL_VERTEX:
                detail = f"core equality {r.equality} vs core certificate {cert} (core {r.certificate.reduced_graph6})"
            else:
                forest = "block-forest " if kind == KIND_LOCAL_EDGE_CYCLE else ""
                detail = f"equality {r.equality} vs {forest}certificate {cert}"
            discrepancies.append(finding(CATEGORY_CHAR_DISCREPANCY, t, kind, count, r.bound, r.slack, cert, detail))
        dom = order.dominance
        pairs = []
        if dom is not None and not dom.vertex_ok:
            pairs.append((KIND_DOMINANCE_VERTEX, dom.local_vertex, dom.wood))
        if dom is not None and not dom.edge_ok:
            pairs.append((KIND_DOMINANCE_EDGE, dom.local_edge, dom.cc_path))
        for kind, local, classical in pairs:
            detail = f"localized bound {local} exceeds classical bound {classical}"
            violations.append(finding(CATEGORY_BOUND_VIOLATION, t, kind, 0, classical, classical - local, None, detail))
    record["findings"] = evals + discrepancies + violations
    return record


@dataclass
class SweepResult:
    findings: list[Finding]
    summary: dict
    rows: list[Finding]  # the evaluation findings, when rows are collected


def run_sweep(source: GraphSource, config: SearchConfig) -> SweepResult:
    """Drive the sweep over a graph source.

    Output (findings, summary, rows) is deterministic: results are merged in
    stream order regardless of the parallelism width.
    """
    findings: list[Finding] = []
    rows: list[Finding] = []
    equality_seen: dict[tuple[int, int], int] = {}
    min_slack: dict[tuple[int, int, str], Finding] = {}
    stats_nt: dict[tuple[int, int], dict] = {}
    graphs_per_n: dict[int, int] = {}
    cap_errors: list[str] = []
    worker = partial(sweep_worker, config=config)
    with ProcessPoolExecutor(config.parallelism) if config.parallelism > 1 else contextlib.nullcontext() as pool:
        records = map(worker, source.graphs()) if pool is None else pool.map(worker, source.graphs(), chunksize=16)
        for record in records:
            n = record["n"]
            graphs_per_n[n] = graphs_per_n.get(n, 0) + 1
            if record["error"] is not None:
                cap_errors.append(f"{record['graph6']}: {record['error']}")
                continue
            for f in record["findings"]:
                if f.kind in DOMINANCE_KINDS:
                    findings.append(f)
                    continue
                key = (n, f.t)
                ks = stats_nt.setdefault(key, {}).setdefault(
                    f.kind, {"evaluations": 0, "equalities": 0, "violations": 0, "discrepancies": 0}
                )
                if f.category == CATEGORY_CHAR_DISCREPANCY:
                    ks["discrepancies"] += 1
                    findings.append(f)
                    continue
                ks["evaluations"] += 1
                if config.collect_rows:
                    rows.append(f)
                if f.category == CATEGORY_EQUALITY_INSTANCE:
                    ks["equalities"] += 1
                    seen = equality_seen.get(key, 0)
                    if seen < config.equality_cap:
                        equality_seen[key] = seen + 1
                        findings.append(f)
                elif f.category == CATEGORY_MIN_SLACK:
                    cur = min_slack.get((n, f.t, f.kind))
                    if cur is None or f.slack_num * cur.slack_den < cur.slack_num * f.slack_den:
                        min_slack[(n, f.t, f.kind)] = f
                else:
                    ks["violations"] += 1
                    findings.append(f)
            violations = (CATEGORY_BOUND_VIOLATION, CATEGORY_CONJECTURE_VIOLATION)
            if config.stop_on_first and any(f.category in violations for f in record["findings"]):
                break

    if config.emit_min_slack:
        findings.extend(min_slack[key] for key in sorted(min_slack))

    summary = {
        "graphs": sum(graphs_per_n.values()),
        "graphs_per_n": {str(n): graphs_per_n[n] for n in sorted(graphs_per_n)},
        "cap_errors": cap_errors,
        "by_nt": {
            f"n={n},t={t}": {
                kind: dict(ks) for kind, ks in sorted(stats_nt[(n, t)].items())
            }
            for (n, t) in sorted(stats_nt)
        },
        "min_positive_slack": {
            f"n={n},t={t},kind={kind}": {"slack_num": f.slack_num, "slack_den": f.slack_den, "graph6": f.graph6}
            for (n, t, kind), f in sorted(min_slack.items())
        },
    }
    return SweepResult(findings, summary, rows)


def replay_finding(finding: Finding, weight_cap: int = DEFAULT_EXACT_CAP) -> bool:
    """Re-evaluate a finding's witness at its order, as the sweep does, and
    confirm that the sweep builds this finding field for field."""
    kinds = () if finding.kind in DOMINANCE_KINDS else (finding.kind,)
    try:
        config = SearchConfig(t_min=finding.t, t_max=finding.t, kinds=kinds, weight_cap=weight_cap)
        record = sweep_worker((finding.graph6, parse_graph6(finding.graph6)), config)
    except ValueError:  # a malformed witness, order or kind
        return False
    return finding in record["findings"]


def findings_to_jsonl(findings: list[Finding]) -> str:
    return "".join(json.dumps(f.to_json_dict(), sort_keys=True) + "\n" for f in findings)


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


CSV_COLUMNS = ["graph6", "n", "m", "t", "kind", "count", "bound_num", "bound_den", "equality", "certificate"]


def rows_to_csv(rows: list[Finding]) -> str:
    """The evaluation findings as CSV; an evaluation is an equality exactly when its slack is 0."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        (f.graph6, f.n, f.m, f.t, f.kind, f.count, f.bound_num, f.bound_den, f.category == CATEGORY_EQUALITY_INSTANCE,
         f.certificate)
        for f in rows
    )
    return buf.getvalue()
