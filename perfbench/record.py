"""Run the benchmark on several seeds and record the result as BENCH_<name>.json.

Usage, from the root of a checkout:

    python3 perfbench/record.py --out perfbench/BENCH_seed.json \
        --seeds 21,22,23 [--trace-seeds 11,12]

Every workload is recorded. Each (workload, seed) pair is one untraced
run of run.py with the run_seconds of BENCHMARK.json; each trace seed
adds one traced run per workload. For every metric the file keeps the
values of every run, their median and quartiles, and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, elapsed_s=round(time.monotonic() - t0, 1))
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}, "
          f"{result['elapsed_s']} s", flush=True)
    return result


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        entry = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
                 "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / entry["median"] if entry["median"] else 0.0)
        out[name] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated")
    parser.add_argument("--trace-seeds", default="", help="comma-separated")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    trace_seeds = [int(s) for s in args.trace_seeds.split(",") if s]
    doc = {
        "run_seconds": seconds,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        plain = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = [run_once(workload, s, seconds, 1) for s in trace_seeds]
        entry = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "elapsed_s": [r["elapsed_s"] for r in plain + traced],
            "end_to_end": summarize(plain),
        }
        if traced:
            entry["trace_seeds"] = trace_seeds
            entry["per_layer"] = summarize(traced)
        doc["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{workload:<13} {name:<12} median {m['median']:<11.5g} "
                  f"spread {m.get('spread', 0.0):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
