"""Benchmark of the diracbound CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One parent process runs CLI commands one at a time, each in a fresh
interpreter (a closed loop with one client), from the package sources
under src/. It checks every output with the oracle in oracle.py and
prints a human-readable report, then one JSON result as the last line.

--trace 0 measures the end-to-end metrics: setup_s, command_s,
items_per_s and peak_rss_mb (fail_ratio is carried by the result's
attempted and failed counts and printed in the report).

Timings are scaled to a reference host speed. The CPU speed of a shared
virtual machine drifts by up to half over phases of 5 to 30 seconds,
which moves a 20-second run's median by as much as the program changes
it should detect. A fixed probe (sorting a list of floats, then
allocating a large zeroed buffer) is timed in the parent between
consecutive children; each child's durations are multiplied by
PROBE_REF_S over the mean of the probes on either side of it. Of the
probes tried, this one tracked the commands' slowdowns most closely
(log-log slope about 0.9) and cut the spread of 20-second medians from
0.15-0.25 to about 0.05. The probe never runs the program, so a change
to the program moves the scaled figures exactly as it moves the raw
ones. The report prints the raw medians beside them.
--trace 1 measures the per-layer metrics: an -X importtime breakdown of
startup, a tracer self-check against cProfile, then untraced and traced
passes over the same commands for spans, counts and the overhead ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0
MIB = 1024.0   # ru_maxrss is in KiB on Linux
PROBE_FLOATS = 100_000
PROBE_BYTES = 16 << 20
# probe time in the fast phase of a 2-vCPU x86-64 VM with CPython 3.11
PROBE_REF_S = 0.017
# Children run OpenBLAS on one thread. verify's einsum contractions call
# multi-threaded dgemm; with the default two threads on a 2-vCPU host the
# command waited on the second vCPU, whose load the probe cannot see: it
# ran about 35% slower and its 10-run spread reached 0.28-0.41.
BLAS_THREADS = "1"

# Per-layer metrics of the traced run: (name, unit). A ".calls" or
# ".self_s" name reads the traced function of the same prefix.
PER_LAYER = [
    ("startup.numpy_import_s", "s"),
    ("startup.scipy_import_s", "s"),
    ("startup.diracbound_import_s", "s"),
    ("profile.make_profile.calls", "count"),
    ("profile.make_profile.self_s", "s"),
    ("profile.traceless.calls", "count"),
    ("catalog.realize.calls", "count"),
    ("catalog.realize.self_s", "s"),
    ("bounds.best_bound.self_s", "s"),
    ("bounds.theorem31_bound.self_s", "s"),
    ("bounds.optimize_minimax.calls", "count"),
    ("bounds.optimize_minimax.self_s", "s"),
    ("bounds.minimax_bound_at_t.calls", "count"),
    ("optimize.golden_max.self_s", "s"),
    ("optimize.golden_min.calls", "count"),
    ("warp.warp_extremals.calls", "count"),
    ("warp.cache_hit_ratio", "1"),
    ("warp.integrate_warp.calls", "count"),
    ("warp.integrate_warp.self_s", "s"),
    ("warp.extremal_data.self_s", "s"),
    ("warp.write_track_csv.self_s", "s"),
    ("clifford.build_rep.self_s", "s"),
    ("clifford.run_identity_batch.self_s", "s"),
    ("clifford.input_bytes_computed", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
] + [(f"{layer}.errors", "count") for layer in
     ("profile", "catalog", "bounds", "optimize", "warp", "clifford", "cli")] + [
    ("trace.overhead_ratio", "1"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no package sources, wrong package)."""


class Probe:
    """Times a fixed sort and allocation: the host's current speed."""

    def __init__(self):
        rng = random.Random(0)
        self.data = [rng.random() for _ in range(PROBE_FLOATS)]

    def __call__(self):
        t0 = time.perf_counter()
        sorted(self.data)
        bytearray(PROBE_BYTES)
        return time.perf_counter() - t0


@dataclass
class ChildResult:
    rc: int
    t_spawn: float
    wall_s: float
    rss_mib: float
    cpu_s: float        # the child's user plus system CPU time
    stdout: str
    stderr: str
    report: dict | None
    scale: float        # PROBE_REF_S over the probe time around the child

    @property
    def import_s(self):
        return self.report["imported"] - self.t_spawn

    @property
    def main_s(self):
        return self.report["main_end"] - self.report["main_start"]


@dataclass
class Sample:
    cmd: workloads.Command
    res: ChildResult
    problems: list
    output_bytes: int


class Children:
    """Spawns benchmark children one at a time and reaps them with wait4."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OPENBLAS_NUM_THREADS=BLAS_THREADS)
        self.started = 0
        self.probe = Probe()
        self.last_probe = None   # the probe after one child is the next one's before

    def run(self, mode, argv=(), trace_out=None, python_args=()):
        n = self.started
        self.started += 1
        report = self.work / f"report_{n}.json"
        out, err = self.work / f"stdout_{n}", self.work / f"stderr_{n}"
        cmd = [sys.executable, *python_args, str(HERE / "child.py"), str(report),
               mode, *([str(trace_out)] if trace_out else []), "--", *argv]
        before = self.last_probe or self.probe()
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.monotonic()
        self.last_probe = self.probe()
        scale = PROBE_REF_S / ((before + self.last_probe) / 2.0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            rep = json.loads(report.read_text())
        except (OSError, ValueError):
            rep = None
        res = ChildResult(proc.returncode, t0, t1 - t0, usage.ru_maxrss / MIB,
                          usage.ru_utime + usage.ru_stime,
                          out.read_text(errors="replace"),
                          err.read_text(errors="replace"), rep, scale)
        for path in (report, out, err):
            path.unlink(missing_ok=True)
        return res


class Bench:
    def __init__(self, workload, seed, seconds, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.children = Children(work)
        self.schemas = oracle.Schemas(SRC / "diracbound" / "schemas")
        self.attempted = 0
        self.failures = []
        self.lines = []

    # --- bookkeeping ----------------------------------------------------

    def fail(self, what, problems):
        self.failures.append(f"{what}: {'; '.join(problems[:3])}")

    def setup_child(self, mode="setup"):
        """One fresh interpreter importing diracbound.cli."""
        self.attempted += 1
        res = self.children.run(mode)
        if res.rc != 0 or res.report is None:
            self.fail("setup", [f"exit {res.rc}", res.stderr.strip()[-300:]])
            return None
        module = Path(res.report["module_file"]).resolve()
        if SRC.resolve() not in module.parents:
            raise BenchError(f"children import diracbound from {module}, "
                             f"not from {SRC}")
        return res

    def command(self, cmd, mode="run", trace_out=None):
        self.attempted += 1
        if cmd.out_file is not None:
            cmd.out_file.unlink(missing_ok=True)
        res = self.children.run(mode, cmd.argv, trace_out)
        out_text = None
        if cmd.out_file is not None and cmd.out_file.exists():
            out_text = cmd.out_file.read_text()
        if res.report is None or "main_end" not in res.report:
            problems = [f"exit {res.rc} without a report: {res.stderr.strip()[-300:]}"]
        else:
            try:
                problems = cmd.check(self.schemas, res.rc, res.stdout, out_text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unparseable output: {exc!r}"]
        if problems:
            self.fail(" ".join(cmd.argv), problems)
        size = len(res.stdout.encode()) + (len(out_text.encode()) if out_text else 0)
        return Sample(cmd, res, problems, size)

    def cycle(self, index):
        return workloads.cycle_commands(self.workload, self.seed, index, self.work)

    def warm_up(self):
        """Compile bytecode and fill the page cache before timing."""
        res = self.setup_child("warmup")
        if res is not None:
            self.lines.append(f"openblas threads in children: "
                              f"{res.report['openblas_threads']}")

    # --- untraced run -----------------------------------------------------

    def run_untraced(self):
        self.warm_up()
        setups = [r for r in (self.setup_child() for _ in range(SETUP_SAMPLES))
                  if r is not None]
        cycles = []
        deadline = time.monotonic() + self.seconds
        while not cycles or time.monotonic() < deadline:
            cycles.append([self.command(cmd) for cmd in self.cycle(len(cycles))])
        samples = [s for cycle in cycles for s in cycle]
        rss = [s.res.rss_mib for s in samples]
        metrics = {
            "setup_s": (median([r.import_s * r.scale for r in setups]), "s"),
            "command_s": (median([s.res.wall_s * s.res.scale for s in samples]), "s"),
            "items_per_s": (items_per_s(cycles), "1/s"),
            "peak_rss_mb": (median(rss), "MiB"),
        }
        self.lines += [
            f"{len(samples)} commands in {len(cycles)} cycles; host scale median "
            f"{median([s.res.scale for s in samples]):.3f}",
            timing_line("setup_s", [r.import_s * r.scale for r in setups]),
            timing_line("setup_s raw", [r.import_s for r in setups]),
            timing_line("command_s", [s.res.wall_s * s.res.scale for s in samples]),
            timing_line("command_s raw", [s.res.wall_s for s in samples]),
            f"items_per_s raw {items_per_s(cycles, scaled=False):.6g} 1/s",
            f"child CPU time / wall time: median "
            f"{median([s.res.cpu_s / s.res.wall_s for s in samples]):.3f}",
            f"peak_rss_mb   median {median(rss):.2f} MiB, max {max(rss):.2f} MiB, "
            f"n = {len(rss)}",
        ]
        return metrics

    # --- traced run -------------------------------------------------------

    def importtime(self):
        """Median startup split from python -X importtime, in seconds."""
        runs = []
        for _ in range(IMPORTTIME_SAMPLES):
            self.attempted += 1
            res = self.children.run("setup", python_args=("-X", "importtime"))
            if res.rc != 0:
                self.fail("importtime", [f"exit {res.rc}"])
                continue
            runs.append({key: value * res.scale for key, value in
                         parse_importtime(res.stderr).items()})
        return {key: median([r[key] for r in runs]) for key in
                ("numpy", "scipy", "diracbound")}

    def self_check(self):
        """Traced counts must equal cProfile's ncalls and repeat exactly."""
        cmd = workloads.selfcheck_command()
        counts, mismatches = [], 0
        for _ in range(2):
            sample = self.command(cmd, mode="selfcheck",
                                  trace_out=self.work / "selfcheck_trace.json")
            rep = sample.res.report
            if rep is None or "mismatches" not in rep:
                continue
            if rep["mismatches"]:
                mismatches += len(rep["mismatches"])
                self.fail("tracer self-check", rep["mismatches"])
            counts.append(rep["calls"])
        if len(counts) == 2 and counts[0] != counts[1]:
            self.fail("tracer self-check", ["call counts differ between two runs"])
        if counts:
            c = counts[0]
            per = (c.get("bounds.minimax_bound_at_t", 0)
                   / max(c.get("bounds.optimize_minimax", 0), 1))
            self.lines.append(
                f"self-check: {len(counts)} runs, {mismatches} counts differ from "
                f"cProfile; minimax_bound_at_t calls per optimize_minimax call "
                f"= {per:g}")

    def traced_cycle(self, cmds):
        """Run one traced pass; aggregate calls, self time and errors."""
        calls, self_ns, errors = {}, {}, {}
        hits = misses = out_bytes = in_bytes = 0
        items = main_s = 0.0
        trace_out = self.work / "trace.json"
        for cmd in cmds:
            trace_out.unlink(missing_ok=True)
            sample = self.command(cmd, mode="trace", trace_out=trace_out)
            out_bytes += sample.output_bytes
            if cmd.verify_shape:
                n, trials = cmd.verify_shape
                # S (n, n), T (n, n, n) and Y (n,) float64 per trial
                in_bytes += 8 * trials * (n * n + n ** 3 + n)
            if sample.problems or not trace_out.exists():
                continue
            items += cmd.items
            main_s += sample.res.main_s * sample.res.scale
            doc = json.loads(trace_out.read_text())
            for name, value in doc["calls"].items():
                calls[name] = calls.get(name, 0) + value
            for name, value in doc["errors"].items():
                errors[name] = errors.get(name, 0) + value
            for name, value in span_self_ns(doc).items():
                self_ns[name] = self_ns.get(name, 0) + value * sample.res.scale
            h, m = doc["cache_info"].get("warp.warp_extremals", (0, 0))
            hits, misses = hits + h, misses + m
        return {"calls": calls, "self_ns": self_ns, "errors": errors,
                "hits": hits, "misses": misses, "output_bytes": out_bytes,
                "input_bytes": in_bytes, "items": items, "main_s": main_s}

    def run_traced(self):
        deadline = time.monotonic() + self.seconds
        self.warm_up()
        startup = self.importtime()
        self.self_check()
        cmds = self.cycle(0)
        plain, traced = [], []
        while not traced or time.monotonic() < deadline:
            plain += [self.command(cmd) for cmd in cmds]
            traced.append(self.traced_cycle(cmds))
        if any(t["calls"] != traced[0]["calls"] for t in traced):
            self.fail("tracer", ["call counts differ between traced passes"])
        timed = [s for s in plain if not s.problems]
        plain_rate = (sum(s.cmd.items for s in timed)
                      / max(sum(s.res.main_s * s.res.scale for s in timed), 1e-12))
        traced_rate = (sum(t["items"] for t in traced)
                       / max(sum(t["main_s"] for t in traced), 1e-12))
        first = traced[0]
        self_s = {name: median([t["self_ns"].get(name, 0) for t in traced]) / 1e9
                  for name in set().union(*(t["self_ns"] for t in traced))}
        lookups = first["hits"] + first["misses"]
        values = {
            "startup.numpy_import_s": startup["numpy"],
            "startup.scipy_import_s": startup["scipy"],
            "startup.diracbound_import_s": startup["diracbound"],
            "warp.cache_hit_ratio": first["hits"] / lookups if lookups else 0.0,
            "clifford.input_bytes_computed": first["input_bytes"],
            "cli.output_bytes": first["output_bytes"],
            "trace.overhead_ratio": traced_rate / plain_rate if plain_rate else 0.0,
        }
        metrics = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".errors"):
                layer = name.split(".")[0]
                value = sum(v for k, v in first["errors"].items()
                            if k.startswith(layer + "."))
            elif name.endswith(".calls"):
                value = first["calls"].get(name.removesuffix(".calls"), 0)
            else:
                value = self_s.get(name.removesuffix(".self_s"), 0.0)
            metrics[name] = (value, unit)
        self.lines.append(f"{len(traced)} untraced and {len(traced)} traced "
                          f"passes over {len(cmds)} commands; warp cache "
                          f"{first['hits']} hits, {first['misses']} misses")
        self.lines.append("spanned function               calls      self_s")
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            self.lines.append(f"  {name:<28} {first['calls'].get(name, 0):>7} "
                              f"{value:>11.6f}")
        return metrics


# --- helpers ---------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def items_per_s(cycles, scaled=True):
    """Items per second inside cli.main, over a median cycle.

    Each position of the cycle (the same command kind in every cycle)
    contributes its median main time, so one command caught in a slow
    phase of the host does not move the rate.
    """
    items = main_s = 0.0
    for position in zip(*cycles):
        timed = [s for s in position if not s.problems]
        if not timed:
            continue
        items += timed[0].cmd.items
        main_s += median([s.res.main_s * (s.res.scale if scaled else 1.0)
                          for s in timed])
    return items / main_s if main_s > 0 else 0.0


def timing_line(name, values):
    """Median, the highest percentile with ten samples beyond it, and n."""
    xs = sorted(values)
    n = len(xs)
    if n >= 11:
        k = n - 11
        tail = f"p{100.0 * (k + 1) / n:.0f} {xs[k]:.4f} s"
    else:
        tail = "no percentile has ten samples beyond it"
    return f"{name:<15} median {median(xs):.4f} s, {tail}, n = {n}"


def span_self_ns(doc):
    """Self time per spanned function: span minus its direct child spans."""
    fids, parents, starts, ends = doc["spans"]
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0] * len(fids)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[i]
    out = {}
    for i, fid in enumerate(fids):
        name = doc["names"][fid]
        out[name] = out.get(name, 0) + durations[i] - covered[i]
    return out


def parse_importtime(stderr):
    """Seconds spent importing numpy, scipy and the rest of diracbound.

    -X importtime prints a module after everything it imported, indented
    one level deeper per nesting level. numpy and scipy are whole
    subtrees; diracbound is its subtrees minus the numpy and scipy
    subtrees nested in them, so the three numbers do not overlap.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue    # the header line
        depth = len(name) - len(name.lstrip())
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))

    def root(pkg, name):
        return name == pkg or name.startswith(pkg + ".")

    # walk from the last line: parents come before their children
    total = {"numpy": 0.0, "scipy": 0.0, "diracbound": 0.0, "nested": 0.0}
    stack = []      # (depth, package root the entry sits in, or None)
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = stack[-1][1] if stack else None
        here = next((p for p in ("numpy", "scipy", "diracbound") if root(p, name)),
                    None)
        if here is not None and inside != here:
            total[here] += cumulative
            if inside == "diracbound":
                total["nested"] += cumulative
        stack.append((depth, here or inside))
    total["diracbound"] -= total.pop("nested")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diracbound" / "cli.py").is_file():
        print(f"error: no package sources at {SRC / 'diracbound'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in bench.lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<36} {failed / max(bench.attempted, 1):>14.6g} 1 "
          f"({failed} of {bench.attempted} operations)")
    for failure in bench.failures[:10]:
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
