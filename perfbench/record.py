"""Record the exact outputs that the benchmark's correctness gate compares against.

Run once from the repository root on the commit whose outputs are the
reference (they must never change: every count and bound is exact):

    python3 perfbench/record.py

It writes ``perfbench/data/<workload>.json`` for every workload. For the two
random workloads it generates the fixed graph corpus and stores, per graph, the digests of what
the program printed for it plus the input-profile facts (edges, bridges,
edges whose p(e) reaches n - 1). The exhaustive input is fixed, so its
record is the digest of the whole sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

if not common.use_source_tree():
    raise SystemExit("error: run from the repository root, next to src/cliquebounds")
from cliquebounds.cli import main as cli_main  # noqa: E402
from cliquebounds.graph import Graph, parse_graph6, write_graph6  # noqa: E402
from cliquebounds.weights import all_weights  # noqa: E402


DENSE_NS = (10, 11, 12, 13)
DENSE_PS = (0.5, 0.7)
SPARSE_NS = (14, 15)
SPARSE_P = 0.3

# Corpora: generated from these fixed seeds; --seed only reorders them.
DENSE_CORPUS_SEED = 1
DENSE_CORPUS_SIZE = 400
SPARSE_CORPUS_SEED = 2
SPARSE_CORPUS_SIZE = 110


def gnp_corpus(seed: int, size: int, ns: tuple[int, ...], ps: tuple[float, ...]) -> list[str]:
    """``size`` distinct G(n, p) graphs, n and p drawn uniformly from ``ns``/``ps``."""
    rng = random.Random(seed)
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < size:
        n, p = rng.choice(ns), rng.choice(ps)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        line = write_graph6(Graph(n, rows))
        if line not in seen:
            seen.add(line)
            out.append(line)
    return out


def _edge_facts(line: str) -> tuple[int, int, int, int]:
    """(n, m, bridges, edges with p(e) = n - 1)."""
    g = parse_graph6(line)
    w = all_weights(g)
    return g.n, g.m, sum(c == 2 for c in w.c.values()), sum(p == g.n - 1 for p in w.p.values())


def _sweep(argv: list[str], tmp: str):
    paths = [os.path.join(tmp, name) for name in ("slack.csv", "findings.jsonl", "summary.json")]
    argv = argv + ["--csv", paths[0], "--findings", paths[1], "--summary", paths[2]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"reference run exited {code}: {argv}")
    return common.read_sweep_outputs(*paths)


def record_exhaustive(tmp: str) -> dict:
    rows, findings, summary = _sweep(
        ["search", "--exhaustive", common.EXHAUSTIVE_NS, "--t", common.EXHAUSTIVE_T, "--min-slack",
         "--parallelism", "1"],
        tmp,
    )
    digests = common.sweep_digests(rows, findings)
    graphs = digests.pop("graphs_with_rows")
    return {
        "graphs": summary["graphs"],
        "rows_count": len(rows),
        "findings_count": len(findings),
        "digests": digests,
        "profile_facts": [_edge_facts(line) for line in graphs],
    }


def record_dense(tmp: str) -> dict:
    lines = gnp_corpus(DENSE_CORPUS_SEED, DENSE_CORPUS_SIZE, DENSE_NS, DENSE_PS)
    path = os.path.join(tmp, "corpus.g6")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
    rows, findings, _ = _sweep(["verify", path, "--equality-cap", str(10**9), "--parallelism", "2"], tmp)
    rows_by_graph: dict[str, list[str]] = {}
    for row in rows:
        rows_by_graph.setdefault(row["graph6"], []).append(common.row_item(row))
    findings_by_graph: dict[str, list] = {}
    for f in findings:
        findings_by_graph.setdefault(f["graph6"], []).append(
            [f["category"], f["t"], common.stream_digest([common.finding_item(f)])]
        )
    corpus = []
    for line in lines:
        n, m, bridges, ceiling = _edge_facts(line)
        corpus.append(
            {"graph6": line, "n": n, "m": m, "bridges": bridges, "ceiling": ceiling,
             "rows": common.stream_digest(rows_by_graph[line]), "findings": findings_by_graph.get(line, [])}
        )
    return {"corpus": corpus}


def record_sparse(tmp: str) -> dict:
    lines = gnp_corpus(SPARSE_CORPUS_SEED, SPARSE_CORPUS_SIZE, SPARSE_NS, (SPARSE_P,))
    corpus = []
    for line in lines:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["analyze", line, "--format", "json"])
        if code != 0:
            raise SystemExit(f"reference analyze exited {code} on {line}")
        report = json.loads(buf.getvalue())
        n = report["n"]
        corpus.append(
            {"graph6": line, "n": n, "m": report["m"],
             "bridges": sum(c == 2 for c in report["weights"]["c"].values()),
             "ceiling": sum(p == n - 1 for p in report["weights"]["p"].values()),
             "digest": common.analyze_digest(report)}
        )
    return {"corpus": corpus}


RECORDERS = {
    "exhaustive-n7": record_exhaustive,
    "verify-dense-p2": record_dense,
    "analyze-sparse": record_sparse,
}


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.makedirs(common.DATA, exist_ok=True)
    os.makedirs(common.OUT, exist_ok=True)
    for name in RECORDERS:
        tmp = tempfile.mkdtemp(prefix="record-", dir=common.OUT)
        try:
            record = RECORDERS[name](tmp)
        finally:
            shutil.rmtree(tmp)
        with open(common.data_path(name), "w", encoding="ascii") as fh:
            json.dump(record, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {os.path.relpath(common.data_path(name))}")


if __name__ == "__main__":
    main()
