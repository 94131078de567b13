"""Run every workload over several seeds and record the medians and spreads.

    python3 perfbench/baseline.py --label "<commit>"

It writes ``perfbench/baseline.json``. Each run is a separate
``perfbench/run.py`` process, exactly as the benchmark is driven, with
``run_seconds`` from BENCHMARK.json and seeds 1..RUNS, for every workload;
one more run per workload is traced. For each end-to-end metric it records the
median, the quartiles and the spread (interquartile range over median), and
for each traced per-layer metric its value. The run context (Python, cores,
load average) is recorded at the start and end of each workload's set, so a
noisy set can be told apart.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402
from run import run_context  # noqa: E402

RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return {"seed": seed, "notes": [ln[2:] for ln in lines[:-1]], "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    """Median, quartiles (as statistics.quantiles gives them) and spread = IQR / median."""
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (values[0], values[0])
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    args = parser.parse_args()
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {"label": args.label, "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        entry = {"context_start": run_context()}
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry["context_end"] = run_context()
        entry["correct"] = all(r["result"]["correct"] for r in runs)
        entry["attempted"] = sum(r["result"]["attempted"] for r in runs)
        entry["failed"] = sum(r["result"]["failed"] for r in runs)
        entry["end_to_end"] = {
            m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            for m in bench["end_to_end"]
        }
        entry["notes"] = {r["seed"]: r["notes"] for r in runs}
        traced = run_once(name, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["trace_notes"] = traced["notes"]
        record["workloads"][name] = entry
        print(f"{name}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']} "
              + " ".join(f"{k}={v['median']:.4g} (spread {v['spread']:.3f})" for k, v in entry["end_to_end"].items()),
              flush=True)
    with open(os.path.join(common.HERE, "baseline.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
