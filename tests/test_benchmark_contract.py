"""Every per-layer metric that BENCHMARK.json declares must stay in a traced result.

The tracer wraps program functions by module attribute and leaves out the
metrics of a function that no longer exists, so deleting or renaming a
traced function makes the benchmark's result incomplete. This test runs the
tracer's metric assembly on an empty trace and checks the declared names.
"""

import importlib.util
import json
import os
import time

import cliquebounds.cli  # the tracer wraps the modules this import loads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_per_layer_metric_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = _load_tracer().Tracer(time.thread_time_ns)
    with tracer:
        pass
    produced = tracer.metrics(graphs=1, graph_t=1, evals=1, overhead_s=0.0)
    missing = [name for name in declared if name not in produced]
    assert missing == [], f"absent functions: {tracer.absent}"


def test_traced_builders_and_verdicts_are_called(capsys):
    """A refactor that calls a traced function through a reference the tracer
    cannot patch (one captured at import or in a default argument) leaves its
    count at 0; analyze of the Petersen graph calls each of them."""
    tracer = _load_tracer().Tracer(time.thread_time_ns)
    with tracer:
        assert cliquebounds.cli.main(["analyze", "IheA@GUAo", "--format", "json"]) == 0
    capsys.readouterr()
    table = tracer.table()
    names = [f"certificates.{fn}" for fn in (
        "vertex_equality_certificate", "vertex_core_certificate", "edge_equality_certificate",
        "cycle_equality_certificate", "cross_validate", "conjecture_verdict",
    )] + ["search.evaluate_kind"]
    uncalled = [name for name in names if table[name] == "absent" or table[name]["calls"] == 0]
    assert uncalled == []
