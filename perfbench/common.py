"""Shared pieces of the benchmark: paths, workload constants, output digests
and the recorded-expectation files.

Each random workload runs a fixed corpus of seeded random graphs, generated
by ``record.py`` from the benchmark's own seeded RNG, whose exact outputs
were recorded with it; the program only ever sees graph6 lines.
``--seed`` and the pass number set the order in which the program sees the
corpus. The corpus is fixed because the cost of one graph is heavy-tailed (a
few graphs cost 50 to 100 times the median), so a fresh sample per seed
would move throughput by more than any bound worth having. The order still matters to the
program: it decides which equality instances the per-(n, t) cap keeps and
which graphs share a chunk in the parallel ``verify``. One order in three or
four leaves a heavy graph in a late chunk, and a ``verify`` worker idle while
the other finishes it, so each pass of a run takes a new order and the run's
figures cover several orders.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
OUT = os.path.join(HERE, "out")

EXHAUSTIVE_NS = "1,2,3,4,5,6,7"
EXHAUSTIVE_T = "1:7"
EQUALITY_CAP = 100  # the sweep's default --equality-cap


def use_source_tree() -> bool:
    """Import cliquebounds from the checkout's ``src``; False when it is missing."""
    if not os.path.isdir(os.path.join(SRC, "cliquebounds")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


# ---------------------------------------------------------------- inputs


def seed_order(size: int, seed: int, k: int) -> list[int]:
    """The corpus indices in the order pass ``k`` of a run with this seed feeds them."""
    order = list(range(size))
    random.Random(f"perfbench-{seed}-{k}").shuffle(order)
    return order


# ---------------------------------------------------------------- digests


def _h(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_item(row: dict) -> str:
    """One slack-table row: graph6, t, kind, count, bound num/den, equality, certificate."""
    return "|".join(
        str(row[k]) for k in ("graph6", "t", "kind", "count", "bound_num", "bound_den", "equality", "certificate")
    )


def finding_item(f: dict) -> str:
    """One finding: category, graph6, t, kind, count, bound num/den."""
    return "|".join(str(f[k]) for k in ("category", "graph6", "t", "kind", "count", "bound_num", "bound_den"))


def stream_digest(items) -> str:
    return _h("\n".join(items))


def analyze_digest(report: dict) -> str:
    """p(e), c(e), and every per-(t, kind) count, bound, equality and certificate."""
    w = report["weights"]
    items = [f"p {e} {v}" for e, v in sorted(w["p"].items())]
    items += [f"c {e} {v}" for e, v in sorted(w["c"].items())]
    for r in report["reports"]:
        cert = r["certificate"]
        items.append(
            f"r {r['t']} {r['kind']} {r['count']} {r['bound']['num']}/{r['bound']['den']} "
            f"{r['equality']} {None if cert is None else cert['holds']}"
        )
    return stream_digest(items)


def read_sweep_outputs(csv_path: str, findings_path: str, summary_path: str):
    """(rows, findings, summary) as written by ``verify``/``search``."""
    with open(csv_path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    with open(findings_path, encoding="ascii") as fh:
        findings = [json.loads(line) for line in fh if line.strip()]
    with open(summary_path, encoding="ascii") as fh:
        summary = json.load(fh)
    return rows, findings, summary


def sweep_digests(rows: list[dict], findings: list[dict]) -> dict:
    """Digest of the slack table and of the findings stream, in stream order.

    The CSV renders booleans as ``True``/``False``; findings JSON uses ints
    and strings only in the digested fields, so both sides digest alike.
    """
    per_graph: list[str] = []
    graphs: list[str] = []
    cur: list[str] = []
    for row in rows:
        if not graphs or row["graph6"] != graphs[-1]:
            if graphs:
                per_graph.append(stream_digest(cur))
            graphs.append(row["graph6"])
            cur = []
        cur.append(row_item(row))
    if graphs:
        per_graph.append(stream_digest(cur))
    return {
        "rows": stream_digest(per_graph),
        "findings": stream_digest(_h(finding_item(f)) for f in findings),
        "graphs_with_rows": graphs,
    }


def expected_sweep_digests(lines: list[str], records: dict) -> dict:
    """What ``verify`` must print for these corpus graphs, in this order.

    Per graph the record holds the digest of its rows and its findings in
    output order, recorded with no equality cap; the cap of EQUALITY_CAP
    EQUALITY_INSTANCE findings per (n, t) is applied here in stream order.
    """
    per_graph = []
    finding_digests = []
    seen: dict[tuple[int, int], int] = {}
    for line in lines:
        rec = records[line]
        per_graph.append(rec["rows"])
        for category, t, digest in rec["findings"]:
            if category == "EQUALITY_INSTANCE":
                key = (rec["n"], t)
                if seen.get(key, 0) >= EQUALITY_CAP:
                    continue
                seen[key] = seen.get(key, 0) + 1
            finding_digests.append(digest)
    return {"rows": stream_digest(per_graph), "findings": stream_digest(finding_digests)}


# ---------------------------------------------------------------- records


def data_path(name: str) -> str:
    return os.path.join(DATA, f"{name}.json")


def load_data(name: str) -> dict:
    with open(data_path(name), encoding="ascii") as fh:
        return json.load(fh)
