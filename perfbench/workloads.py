"""The three workloads. Each prepares its input from the seed, warms up, and
runs passes over that input through ``cliquebounds.cli.main`` in-process. A
pass is one whole sweep command for the two sweeps, and one ``analyze`` call
per corpus graph for ``analyze-sparse``. Every output is checked against the
recorded digest outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time
from dataclasses import dataclass

import common
from speed import stolen_seconds


@dataclass
class Unit:
    """One timed call of ``cli.main``: a sweep command or one ``analyze``."""

    start: float  # perf_counter() around cli.main
    end: float
    cpu: float  # processor seconds of this thread and of the child processes it reaped
    stolen: float  # seconds stolen from each vCPU by the hypervisor meanwhile
    graphs: int  # graphs attempted
    failed: int  # graphs with a cap error, an exception, or no output record
    correct: bool  # output digest equals the recorded one
    digest: str  # output digest, to compare passes over the same input
    graph_t: int = 0  # (graph, t) pairs evaluated
    evals: int = 0  # (graph, t, kind) evaluations

    @property
    def wall(self) -> float:
        return self.end - self.start


def cpu_seconds() -> float:
    """Processor time of this thread plus that of every child process reaped so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def _call(cli, argv: list[str]) -> tuple[int | None, float, float, float, float, str]:
    """(exit code or None on an exception, start, end, processor s, stolen s, stdout) of one run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        stolen = stolen_seconds()
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a counted failure, not a benchmark abort
            code = None
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu
        stolen = stolen_seconds() - stolen
    return code, start, end, cpu, stolen, buf.getvalue()


def _facts(rec: dict) -> tuple[int, int, int, int]:
    return rec["n"], rec["m"], rec["bridges"], rec["ceiling"]


class _Sweep:
    """A sweep command whose findings, CSV and summary go to files."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.outputs = [os.path.join(tmp, f) for f in ("slack.csv", "findings.jsonl", "summary.json")]

    def _sweep(self, cli, argv: list[str], lines: list[str] | None, expected: dict) -> Unit:
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)
        argv = argv + ["--csv", self.outputs[0], "--findings", self.outputs[1], "--summary", self.outputs[2]]
        code, start, end, cpu, stolen, _ = _call(cli, argv)
        graphs = len(self.facts) if lines is None else len(lines)
        if code != 0 or not all(os.path.exists(p) for p in self.outputs):
            return Unit(start, end, cpu, stolen, graphs, graphs, False, "")
        rows, findings, summary = common.read_sweep_outputs(*self.outputs)
        got = common.sweep_digests(rows, findings)
        with_rows = set(got["graphs_with_rows"])
        if lines is None:
            failed = max(0, graphs - len(with_rows))
        else:
            failed = sum(line not in with_rows for line in lines)
        failed = max(failed, len(summary["cap_errors"]))
        correct = got["rows"] == expected["rows"] and got["findings"] == expected["findings"]
        return Unit(
            start, end, cpu, stolen, graphs, failed, correct, got["rows"] + got["findings"],
            graph_t=len({(r["graph6"], r["t"]) for r in rows}), evals=len(rows),
        )


class ExhaustiveN7(_Sweep):
    """Every graph on up to 7 vertices; the input does not depend on the seed."""

    name = "exhaustive-n7"
    unit_name = "search command"
    workers = 1

    def prepare(self, seed: int) -> None:
        self.record = common.load_data(self.name)
        self.facts = [tuple(f) for f in self.record["profile_facts"]]

    def _argv(self, ns: str, t: str) -> list[str]:
        return ["search", "--exhaustive", ns, "--t", t, "--min-slack", "--parallelism", "1"]

    def warm_up(self, cli) -> None:
        _call(cli, self._argv("1,2,3,4", "1:4"))

    def run_pass(self, cli, k: int, serial: bool = False) -> list[Unit]:
        argv = self._argv(common.EXHAUSTIVE_NS, common.EXHAUSTIVE_T)
        return [self._sweep(cli, argv, None, self.record["digests"])]


class VerifyDenseP2(_Sweep):
    """``verify`` of a graph6 file of dense G(n, p) graphs at parallelism 2."""

    name = "verify-dense-p2"
    unit_name = "verify command"
    workers = 2
    warm_up_graphs = 8

    def prepare(self, seed: int) -> None:
        corpus = common.load_data(self.name)["corpus"]
        self.seed = seed
        self.lines = [rec["graph6"] for rec in corpus]
        self.records = {rec["graph6"]: rec for rec in corpus}
        self.warm_up_lines = self.lines[: self.warm_up_graphs]
        self.facts = [_facts(rec) for rec in corpus]
        self.inputs: dict[int, tuple[str, list[str], dict]] = {}
        self._input(0)

    def _input(self, k: int) -> tuple[str, list[str], dict]:
        """Pass ``k``'s graph6 file, its lines and the digests ``verify`` must print for it."""
        if k not in self.inputs:
            lines = [self.lines[i] for i in common.seed_order(len(self.lines), self.seed, k)]
            expected = common.expected_sweep_digests(lines, self.records)
            self.inputs[k] = (self._write(f"input-{k}.g6", lines), lines, expected)
        return self.inputs[k]

    def _write(self, name: str, lines: list[str]) -> str:
        path = os.path.join(self.tmp, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(line + "\n" for line in lines))
        return path

    def warm_up(self, cli) -> None:
        # The same graphs for every seed, so set-up cost does not depend on it.
        # Serial: every command starts its own pool, so there is none to warm.
        lines = self.warm_up_lines
        path = self._write("warm-up.g6", lines)
        self._sweep(cli, ["verify", path, "--parallelism", "1"], lines,
                    common.expected_sweep_digests(lines, self.records))

    def run_pass(self, cli, k: int, serial: bool = False) -> list[Unit]:
        path, lines, expected = self._input(k)
        argv = ["verify", path, "--parallelism", "1" if serial else str(self.workers)]
        return [self._sweep(cli, argv, lines, expected)]


class AnalyzeSparse:
    """One ``analyze --format json`` call per sparse G(n, 0.3) graph."""

    name = "analyze-sparse"
    unit_name = "analyze call"
    workers = 1
    warm_up_graphs = ("C~", "Ds_", "IheA@GUAo")  # K4, a 5-vertex graph, the Petersen graph

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.corpus = common.load_data(self.name)["corpus"]
        self.facts = [_facts(rec) for rec in self.corpus]

    def warm_up(self, cli) -> None:
        for line in self.warm_up_graphs:
            _call(cli, ["analyze", line, "--format", "json"])

    def _analyze(self, cli, rec: dict) -> Unit:
        code, start, end, cpu, stolen, out = _call(cli, ["analyze", rec["graph6"], "--format", "json"])
        if code != 0:
            return Unit(start, end, cpu, stolen, 1, 1, False, "")
        report = json.loads(out)
        digest = common.analyze_digest(report)
        return Unit(
            start, end, cpu, stolen, 1, 0, digest == rec["digest"], digest,
            graph_t=len(report["t_values"]), evals=sum(r["t"] is not None for r in report["reports"]),
        )

    def run_pass(self, cli, k: int, serial: bool = False) -> list[Unit]:
        order = common.seed_order(len(self.corpus), self.seed, k)
        return [self._analyze(cli, self.corpus[i]) for i in order]


WORKLOADS = {w.name: w for w in (ExhaustiveN7, VerifyDenseP2, AnalyzeSparse)}
