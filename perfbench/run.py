"""cliquebounds benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload exhaustive-n7 --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it repeats whole passes over the workload's input, each
in a new order drawn from the seed, while the next pass would still end
within ``--seconds``. It reports the end-to-end metrics at the reference
machine speed (see ``speed.py``): in processor time for serial work, in wall
time for the parallel ``verify``. With ``--trace 1`` it runs untraced passes
for half of ``--seconds``, then one serial pass under the layer tracer, and
reports the per-layer metrics and the tracing overhead. Every output is checked against the digest recorded for
its input (see ``record.py``). Informational lines start with ``#``; the last
line of stdout is the JSON result. Exit status is 0 when every output was
correct, 1 when one was not, and 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402
from speed import REFERENCE_S, SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, cpu_seconds  # noqa: E402

SETUP_REPEATS = 5


def run_context() -> dict:
    """Interpreter, cores and load, read-only, so a noisy set of runs shows."""
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = " ".join(fh.read().split()[:3])
    except OSError:
        load = "unavailable"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "loadavg": load}


def fresh_import():
    """Import the program again in this process, so that each warm-up starts cold."""
    for name in [m for m in sys.modules if m == "cliquebounds" or m.startswith("cliquebounds.")]:
        del sys.modules[name]
    return importlib.import_module("cliquebounds.cli")


def import_in_new_interpreter() -> None:
    """Start a new interpreter that imports the program and exits."""
    path = os.pathsep.join(p for p in (common.SRC, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import cliquebounds.cli"], env=dict(os.environ, PYTHONPATH=path),
                   check=True, timeout=60)


def setup(workload, seed: int) -> tuple[object, list[float], list[float]]:
    """Import in a new interpreter, input preparation and warm-up, repeated.

    Returns the last in-process import and each repetition's time: processor
    seconds (this thread and the new interpreter) at the reference speed, and
    wall seconds as measured.
    """
    spans = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            cli = fresh_import()
            cpu = cpu_seconds()
            start = time.perf_counter()
            import_in_new_interpreter()
            workload.prepare(seed)
            workload.warm_up(cli)
            spans.append((start, time.perf_counter(), cpu_seconds() - cpu))
    return cli, [sampler.scaled(a, b, c) for a, b, c in spans], [b - a for a, b, _ in spans]


def _wall(units: list) -> float:
    return sum(u.wall for u in units)


def run_passes(one_pass, seconds: float) -> list[list]:
    """``one_pass(k)`` for k = 0, 1, ... until the next pass would end past ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        if time.perf_counter() - start + _wall(passes[-1]) > seconds:
            return passes


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(workload) -> float:
    """Peak resident set of this process plus, for parallel work, its largest worker, MiB.

    Serial work starts no process; the set-up's import interpreter is not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workload.workers > 1 else 0
    return (own + children) / 1024.0


def unit_seconds(workload, sampler: SpeedSampler, unit) -> float:
    """A unit's time at the reference speed.

    Processor time for serial work; wall time for parallel work, so that
    workers left idle by the pool count.
    """
    if workload.workers > 1:
        return sampler.scaled_wall(unit.start, unit.end, unit.stolen, workload.workers)
    return sampler.scaled(unit.start, unit.end, unit.cpu)


def timed(workload, cli, seconds: float) -> tuple[list, dict, list[str]]:
    with SpeedSampler() as sampler:
        passes = run_passes(lambda k: workload.run_pass(cli, k), seconds)
    scaled = [[unit_seconds(workload, sampler, u) for u in units] for units in passes]
    latencies = [t for times in scaled for t in times]
    rates = [sum(u.graphs for u in units) / sum(times) for units, times in zip(passes, scaled)]
    metrics = {
        "graphs_per_s": (statistics.median(rates), "graphs/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_p90_ms": (p90(latencies) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MiB"),
    }
    raw = [u.wall for units in passes for u in units]
    loop_cpu = [s[2] for s in sampler.samples]
    notes = [
        f"samples: graphs_per_s over {len(passes)} pass(es) of {len(workload.facts)} graphs; "
        f"latency over {len(latencies)} {workload.unit_name}(s)",
        "pass walls as measured (s): " + ", ".join(f"{_wall(units):.4f}" for units in passes),
        f"as measured: graphs_per_s {statistics.median(sum(u.graphs for u in p) / _wall(p) for p in passes):.4f}, "
        f"latency p50 {statistics.median(raw) * 1000.0:.4f} ms, p90 {p90(raw) * 1000.0:.4f} ms",
        f"speed samples: {len(loop_cpu)}, calibration loop median {statistics.median(loop_cpu) * 1000.0:.4f} ms "
        f"(range {min(loop_cpu) * 1000.0:.4f}..{max(loop_cpu) * 1000.0:.4f}), reference "
        f"{REFERENCE_S * 1000.0:.4f} ms",
        "stolen per vCPU per pass (s): " + ", ".join(f"{sum(u.stolen for u in p):.2f}" for p in passes),
    ]
    if workload.workers > 1:
        notes.append("worker utilisation per pass (processor s / workers / wall s): "
                     + ", ".join(f"{sum(u.cpu for u in p) / workload.workers / _wall(p):.3f}" for p in passes))
    return [u for units in passes for u in units], metrics, notes


def traced(workload, cli, seconds: float) -> tuple[list, dict, list[str]]:
    """Untraced passes, then one serial traced pass, all over the input of pass 0."""
    notes = []
    reference = []
    if workload.workers > 1:
        reference.append(workload.run_pass(cli, 0))
        notes.append(f"parallel untraced pass: digest {_digest(reference[0])}")
    with SpeedSampler() as sampler:
        plain = run_passes(lambda k: workload.run_pass(cli, 0, serial=True), seconds / 2)
        with Tracer(sampler.clock_ns) as tracer:
            traced_pass = workload.run_pass(cli, 0, serial=True)

    plain_cpu = [sum(sampler.scaled(u.start, u.end, u.cpu) for u in units) for units in plain]
    traced_cpu = sum(sampler.scaled(u.start, u.end, u.cpu) for u in traced_pass)
    digest = _digest(traced_pass)
    if any(_digest(units) != digest for units in reference + plain):
        traced_pass[0].correct = False
        notes.append("the serial traced pass printed other output than an untraced pass of the same input")
    metrics = tracer.metrics(
        graphs=sum(u.graphs for u in traced_pass),
        graph_t=sum(u.graph_t for u in traced_pass),
        evals=sum(u.evals for u in traced_pass),
        overhead_s=traced_cpu - statistics.median(plain_cpu),
    )
    notes.append(f"processor time at reference speed: traced pass {traced_cpu:.4f} s; untraced serial passes (s): "
                 + ", ".join(f"{c:.4f}" for c in plain_cpu) + f"; digest {digest}")
    for label, entry in tracer.table().items():
        notes.append(f"layer {label}: " + ("absent" if entry == "absent" else f"calls={entry['calls']}"))
    tracer.write(os.path.join(common.OUT, f"trace-{workload.name}"),
                 {"workload": workload.name, "metrics": {k: v[0] for k, v in metrics.items()}})
    return [u for units in reference + plain + [traced_pass] for u in units], metrics, notes


def _digest(units: list) -> str:
    return common.stream_digest(u.digest for u in units)


def input_profile(facts: list) -> str:
    """Graph count, n and m ranges, density, and the edge shares the weight kernels care about."""
    ns = [f[0] for f in facts]
    ms = [f[1] for f in facts]
    edges = sum(ms)
    density = statistics.mean(f[1] / (f[0] * (f[0] - 1) / 2) for f in facts if f[0] > 1)
    return (
        f"graphs={len(facts)} n={min(ns)}..{max(ns)} m={min(ms)}..{max(ms)} density={density:.4f} "
        f"bridge_share={sum(f[2] for f in facts) / edges:.4f} "
        f"ceiling_share={sum(f[3] for f in facts) / edges:.4f} (of {edges} edges; "
        "bridge: c(e) = 2, ceiling: p(e) = n - 1)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not common.use_source_tree():
        print("error: no program source at src/cliquebounds; run from the repository root", file=sys.stderr)
        return 2
    if not os.path.exists(common.data_path(args.workload)):
        print(f"error: no recorded outputs at {common.data_path(args.workload)}", file=sys.stderr)
        return 2

    context = [f"context at start: {run_context()}"]
    os.makedirs(common.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.OUT)
    try:
        workload = WORKLOADS[args.workload](tmp)
        cli, setup_times, setup_raw = setup(workload, args.seed)
        measure = traced if args.trace else timed
        units, metrics, notes = measure(workload, cli, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    context.append(f"context at end: {run_context()}")

    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    attempted = sum(u.graphs for u in units)
    failed = sum(u.failed for u in units)
    correct = all(u.correct for u in units)
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        *context,
        "setup samples (s, at reference speed): " + ", ".join(f"{t:.4f}" for t in setup_times),
        "setup samples (s, as measured): " + ", ".join(f"{t:.4f}" for t in setup_raw),
        f"input profile: {input_profile(workload.facts)}",
        *notes,
        f"failure_ratio: {failed}/{attempted} = {failed / attempted:.6f}",
    ]
    for line in lines:
        print(f"# {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
