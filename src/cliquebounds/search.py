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
``replay_finding`` re-evaluates a witness as ``sweep_worker`` does and looks
for the finding among the ones it builds. A sweep renders no certificate: a
finding reads only a certificate's outcome, and a vertex discrepancy its
core's graph6. Nor does it build a slack: a finding reads its report's slack
as integer terms.

Workers see one graph at a time (built or parsed once by a ``GraphSource``
with its graph6 line, the witness string) and return its findings.
``run_sweep`` has one loop that merges the workers' records in stream order,
mapped in process at parallelism 1 and through a process pool otherwise, so
the output is identical for any parallelism width; it hands each evaluation
finding to a row sink (``csv_rows``) as it merges it. Every finding can be
replayed from its witness alone.
"""

from __future__ import annotations

import contextlib
import csv
import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

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
from .enumeration import enumerate_levels
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

# The widest pool a sweep starts; the pool forks every worker at once. A
# constant, not the host's processor count, so that no outcome depends on the host.
MAX_PARALLELISM = 64


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

    def __post_init__(self) -> None:
        if self.t_min < 1:
            raise ValueError(f"t_min must be >= 1, got {self.t_min}")
        if self.t_max is not None and self.t_max < self.t_min:
            raise ValueError(f"t_max must be >= t_min = {self.t_min}, got {self.t_max}")
        if not 1 <= self.parallelism <= MAX_PARALLELISM:
            raise ValueError(f"--parallelism must be in 1..{MAX_PARALLELISM}, got {self.parallelism}")
        if self.equality_cap < 0:
            raise ValueError(f"equality cap must be >= 0, got {self.equality_cap}")
        if self.weight_cap < 0:
            raise ValueError(f"weight cap must be >= 0, got {self.weight_cap}")
        unknown = [kind for kind in self.kinds if kind not in PER_ORDER_KINDS]
        if unknown:
            raise ValueError(f"unknown per-order bound kind {unknown[0]!r}")


@dataclass(frozen=True)
class GraphSource:
    """A stream of (graph6, graph) pairs, which ``pairs`` starts afresh on each
    call, and the two filters ``graphs`` applies to it."""

    pairs: Callable[[], Iterator[tuple[str, Graph]]]
    connected_only: bool = False
    max_edges: int | None = None

    def __post_init__(self) -> None:
        if self.max_edges is not None and self.max_edges < 0:
            raise ValueError(f"max edges must be >= 0, got {self.max_edges}")

    @classmethod
    def exhaustive(cls, ns: Iterable[int], **filters) -> "GraphSource":
        """Every isomorphism class on n vertices, for each n in ``ns`` in turn."""
        ns = tuple(ns)
        return cls(lambda: ((write_graph6(g), g) for level in enumerate_levels(ns) for g in level), **filters)

    @classmethod
    def graph6_lines(cls, lines: Iterable[str], **filters) -> "GraphSource":
        """Parse graph6 lines as they are read; a witness drops a ``>>graph6<<`` prefix."""

        def pairs() -> Iterator[tuple[str, Graph]]:
            for lineno, raw in enumerate(lines, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    g = parse_graph6(line)
                except GraphError as exc:
                    raise GraphError(f"line {lineno}: {exc}") from None
                yield line.removeprefix(">>graph6<<"), g

        return cls(pairs, **filters)

    @classmethod
    def random(cls, sample: Callable[[int], Graph], count: int, seed: int, **filters) -> "GraphSource":
        """``count`` graphs, ``sample(seed)``, ``sample(seed + 1)``, ..."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return cls(lambda: ((write_graph6(g), g) for g in map(sample, range(seed, seed + count))), **filters)

    def graphs(self) -> Iterator[tuple[str, Graph]]:
        """Yield the pairs whose graph passes both filters."""
        for line, g in self.pairs():
            if self.max_edges is not None and g.m > self.max_edges:
                continue
            if self.connected_only and len(connected_components(g)) != 1:
                continue
            yield line, g


class Finding(NamedTuple):
    """One replayable search result, anchored to its graph6 witness.

    A named tuple: built, pickled across the pool and unpickled several times
    faster than a frozen dataclass, and as immutable.
    """

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
        return self._asdict()

    @classmethod
    def from_json_dict(cls, d: dict) -> "Finding":
        return cls(*(d[k] for k in cls._fields))


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


class WorkerError(Exception):
    """A sweep worker failed on one graph: a fault of the program, since a
    ``SearchConfig`` and a parsed graph are valid input. The message is the
    graph6 and the exception; ``traceback`` is the worker's formatted one."""

    def __init__(self, graph6: str, failure: str, traceback_text: str) -> None:
        super().__init__(f"{graph6}: {failure}")
        self.traceback = traceback_text


def sweep_worker(item: tuple[str, Graph], config: SearchConfig) -> dict:
    """Analyze one (graph6, graph) pair of a source; returns a record of its
    findings (``_graph_findings``), of its cap error, or of any other
    exception as its type and message (``failure``) and its traceback. A
    record crosses the process pool whole, so a failure loses none of the
    records before it."""
    line, g = item
    record: dict = {"graph6": line, "n": g.n, "error": None, "failure": None, "findings": []}
    try:
        record["findings"] = _graph_findings(line, g, config)
    except CapExceededError as exc:
        record["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - the merge reports it with its graph
        record["failure"] = (f"{type(exc).__name__}: {exc}", traceback.format_exc())
    return record


def _graph_findings(line: str, g: Graph, config: SearchConfig) -> list[Finding]:
    """The findings of one graph in stream order, before any cap: the
    evaluations t-major in ``config.kinds`` order, each kind once, then the
    characterization discrepancies, then the dominance violations. An
    evaluation is a violation, an EQUALITY_INSTANCE or a MIN_SLACK candidate
    by the sign of its report's slack, read as integers
    (``BoundReport.slack_terms``)."""
    evaluation = evaluate_graph(g, order_range(g, config.t_min, config.t_max), config.kinds, config.weight_cap)

    def finding(category, t, kind, count, bound, slack_num, slack_den, certificate, detail) -> Finding:
        return Finding(category, line, g.n, g.m, t, kind, count, bound.numerator, bound.denominator,
                       slack_num, slack_den, certificate, detail)

    evals, discrepancies, violations = [], [], []
    for order in evaluation.orders:
        t, count, reports = order.t, order.count, order.reports
        for kind, r in reports.items():
            slack_num, slack_den = r.slack_terms()
            if slack_num < 0:
                category = CATEGORY_CONJECTURE_VIOLATION if kind == KIND_LOCAL_EDGE_CYCLE else CATEGORY_BOUND_VIOLATION
                detail = f"count exceeds bound by {-r.slack}"
            elif r.equality:
                category, detail = CATEGORY_EQUALITY_INSTANCE, "bound attained exactly"
            else:
                category, detail = CATEGORY_MIN_SLACK, "smallest positive slack for this (n,t,kind)"
            evals.append(finding(category, t, kind, count, r.bound, slack_num, slack_den, r.certificate.holds, detail))
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
            discrepancies.append(
                finding(CATEGORY_CHAR_DISCREPANCY, t, kind, count, r.bound, *r.slack_terms(), cert, detail)
            )
        dom = order.dominance
        pairs = []
        if dom is not None and not dom.vertex_ok:
            pairs.append((KIND_DOMINANCE_VERTEX, dom.local_vertex, dom.wood, dom.vertex_slack))
        if dom is not None and not dom.edge_ok:
            pairs.append((KIND_DOMINANCE_EDGE, dom.local_edge, dom.cc_path, dom.edge_slack))
        for kind, local, classical, slack in pairs:
            detail = f"localized bound {local} exceeds classical bound {classical}"
            violations.append(finding(CATEGORY_BOUND_VIOLATION, t, kind, 0, classical, slack.numerator,
                                      slack.denominator, None, detail))
    return evals + discrepancies + violations


def _until_error(graphs: Iterator[tuple[str, Graph]], errors: list[GraphError]) -> Iterator[tuple[str, Graph]]:
    """The source's graphs up to its first malformed one, whose ``GraphError``
    is appended to ``errors`` instead of raised: a pool that reads the whole
    source before the first record is merged still gets the graphs before it."""
    try:
        yield from graphs
    except GraphError as exc:
        errors.append(exc)


@dataclass
class SweepResult:
    findings: list[Finding]
    summary: dict


def run_sweep(
    source: GraphSource, config: SearchConfig, rows: Callable[[Finding], object] | None = None
) -> SweepResult:
    """Drive the sweep over a graph source.

    Each evaluation finding goes to ``rows``, when given, as its record is
    merged. A malformed line ends the source: every record before it is
    merged, and then its ``GraphError`` is raised, at any parallelism, unless
    ``stop_on_first`` stopped the sweep first. That stop cancels every chunk
    the pool has not started. So does a worker's failure on a graph, which
    ends the sweep with a ``WorkerError`` naming that graph once every record
    before it is merged. Output (findings, summary, rows) is
    deterministic: results are merged in stream order regardless of the
    parallelism width.
    """
    findings: list[Finding] = []
    equality_seen: dict[tuple[int, int], int] = {}
    min_slack: dict[tuple[int, int, str], Finding] = {}
    stats_nt: dict[tuple[int, int], dict] = {}
    graphs_per_n: dict[int, int] = {}
    cap_errors: list[str] = []
    worker = partial(sweep_worker, config=config)
    malformed: list[GraphError] = []
    graphs = _until_error(source.graphs(), malformed)
    with ProcessPoolExecutor(config.parallelism) if config.parallelism > 1 else contextlib.nullcontext() as pool:
        records = map(worker, graphs) if pool is None else pool.map(worker, graphs, chunksize=16)
        for record in records:
            if record["failure"] is not None:
                if pool is not None:  # as at a stop: no chunk after this one is worth waiting for
                    pool.shutdown(cancel_futures=True)
                raise WorkerError(record["graph6"], *record["failure"])
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
                by_kind = stats_nt.get(key)
                if by_kind is None:
                    by_kind = stats_nt[key] = {}
                ks = by_kind.get(f.kind)
                if ks is None:
                    ks = by_kind[f.kind] = {"evaluations": 0, "equalities": 0, "violations": 0, "discrepancies": 0}
                if f.category == CATEGORY_CHAR_DISCREPANCY:
                    ks["discrepancies"] += 1
                    findings.append(f)
                    continue
                ks["evaluations"] += 1
                if rows is not None:
                    rows(f)
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
                if pool is not None:  # the pool's exit would wait for every chunk the map submitted
                    pool.shutdown(cancel_futures=True)
                break
        else:
            if malformed:
                raise malformed[0]

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
    return SweepResult(findings, summary)


def replay_finding(finding: Finding, weight_cap: int = DEFAULT_EXACT_CAP) -> bool:
    """Re-evaluate a finding's witness at its order, as the sweep does, and
    confirm that the sweep builds this finding field for field."""
    kinds = () if finding.kind in DOMINANCE_KINDS else (finding.kind,)
    try:
        config = SearchConfig(t_min=finding.t, t_max=finding.t, kinds=kinds, weight_cap=weight_cap)
        findings = _graph_findings(finding.graph6, parse_graph6(finding.graph6), config)
    except (ValueError, CapExceededError):  # a malformed witness, order or kind; a witness over the cap
        return False
    return finding in findings


def findings_to_jsonl(findings: list[Finding]) -> str:
    return "".join(json.dumps(f.to_json_dict(), sort_keys=True) + "\n" for f in findings)


def summary_to_json(summary: dict) -> str:
    return dump_json(summary) + "\n"


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, without
    the pure-Python encoder that ``json`` falls back to whenever it indents.

    It writes dicts with ``str`` keys, lists and tuples, ``str``, ``int``,
    ``float``, ``bool`` and ``None``, each tested by its exact type; any other
    key or value raises ``TypeError``."""
    return _dump_json(obj, "\n")


_INFINITY = float("inf")


def _dump_json(o, newline: str) -> str:
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if kind is float:
        if o != o:
            return "NaN"
        if o == _INFINITY:
            return "Infinity"
        if o == -_INFINITY:
            return "-Infinity"
        return float.__repr__(o)
    inner = newline + "  "
    if kind is dict:
        if not o:
            return "{}"
        items = []
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_dump_json(o[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_dump_json(v, inner) for v in o]) + newline + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


CSV_COLUMNS = ["graph6", "n", "m", "t", "kind", "count", "bound_num", "bound_den", "equality", "certificate"]


def csv_rows(fh: TextIO) -> Callable[[Finding], None]:
    """Write the CSV header to ``fh`` and return the row sink of ``run_sweep``
    that writes each evaluation finding after it; an evaluation is an
    equality exactly when its slack is 0."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writerow = writer.writerow

    def row(f: Finding) -> None:
        writerow((f.graph6, f.n, f.m, f.t, f.kind, f.count, f.bound_num, f.bound_den,
                  f.category == CATEGORY_EQUALITY_INSTANCE, f.certificate))

    return row
