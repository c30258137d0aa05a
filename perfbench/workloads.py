"""Seeded command lists for the four benchmark workloads.

A workload is a cycle of CLI commands, rebuilt from (workload, seed,
cycle index) alone, so the same seed always gives the same argv and the
same generated JSON documents. Each command carries the number of items
it completes (sweep rows, verify trials, or 1 for a one-shot command)
and the oracle check that judges its output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("sweep-bounds", "sweep-warp", "verify-dim8", "cli-oneshot")

SWEEP_ROWS = 2000
WARP_ROWS = 200
VERIFY_TRIALS = 2000
BOUND_FORMS = ("table", "json", "csv")


@dataclass
class Command:
    argv: list[str]
    items: int
    check: Callable[..., list[str]]
    out_file: Path | None = None
    verify_shape: tuple[int, int] | None = None   # (dim, trials) for verify


def _sweep(argv, param, start, stop, steps, check):
    argv = ["sweep", *argv, "--param", param,
            "--from", repr(start), "--to", repr(stop), "--steps", str(steps)]
    return Command(argv, steps, partial(check, start=start, stop=stop, steps=steps))


def _sweep_bounds(seed):
    rng = random.Random(f"sweep-bounds:{seed}")
    # Endpoint jitter is small so that the mix of row kinds (sign of R,
    # theorem31 applicable or not) and hence the per-row cost stays the
    # same across seeds.
    radius = _sweep(["--example", "s2r-x-hyperbolic", "--kaehler-dim", "2"],
                    "radius", rng.uniform(0.50, 0.55), rng.uniform(1.95, 2.00),
                    SWEEP_ROWS, oracle.check_sweep_radius)
    surface = _sweep(["--example", "m7-sigma"], "surface_scalar",
                     rng.uniform(-8.0, -7.5), rng.uniform(11.5, 12.0),
                     SWEEP_ROWS, oracle.check_sweep_surface)
    return [radius, surface]


def _sweep_warp(seed):
    rng = random.Random(f"sweep-warp:{seed}")
    return [_sweep(["--example", "m7-sigma"], "f0",
                   rng.uniform(0.05, 0.10), rng.uniform(0.90, 0.95),
                   WARP_ROWS, oracle.check_sweep_f0)]


def _verify(seed, cycle):
    vseed = random.Random(f"verify-dim8:{seed}:{cycle}").randrange(2**31)
    argv = ["verify", "--dim", "8", "--trials", str(VERIFY_TRIALS),
            "--seed", str(vseed), "--json"]
    return [Command(argv, VERIFY_TRIALS,
                    partial(oracle.check_verify, dim=8, trials=VERIFY_TRIALS,
                            seed=vseed),
                    verify_shape=(8, VERIFY_TRIALS))]


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _cli_oneshot(seed, cycle, work):
    rng = random.Random(f"cli-oneshot:{seed}:{cycle}")
    cmds = []
    # Each example appears once per cycle; its output form rotates with
    # the cycle, so three cycles cover every example in every form.
    for j, (name, curvature) in enumerate(oracle.EXAMPLES.items()):
        form = BOUND_FORMS[(cycle + j) % len(BOUND_FORMS)]
        argv = ["bound", "--example", name]
        if form != "table":
            argv.append(f"--{form}")
        cmds.append(Command(argv, 1, partial(oracle.check_bound, form=form,
                                             expect=curvature())))

    s, f0 = rng.uniform(2.0, 12.0), rng.uniform(0.15, 0.85)
    spec = _write_json(work / f"spec_{cycle}.json", {"product": [
        {"surface": {"scalar": s}}, {"warped": {"n": 5, "f0": f0}}]})
    expect = oracle.product(oracle.surface(s), oracle.warped(f0))
    cmds.append(Command(["bound", "--spec", str(spec), "--json"], 1,
                        partial(oracle.check_bound, form="json", expect=expect)))

    n = rng.randint(3, 8)
    eigs = sorted(rng.uniform(0.2, 3.0) for _ in range(n))
    prof = {"n": n, "scalar": sum(eigs), "kappa0": eigs[0],
            "ric_norm_sq_min": sum(e * e for e in eigs)}
    if cycle % 2 == 0:
        prof["eigenvalues"] = eigs
    path = _write_json(work / f"profile_{cycle}.json", prof)
    expect = oracle.Curvature(n, prof["scalar"], prof["kappa0"],
                              prof["ric_norm_sq_min"])
    cmds.append(Command(["bound", "--profile", str(path), "--json"], 1,
                        partial(oracle.check_bound, form="json", expect=expect,
                                given=prof)))

    as_json = cycle % 2 == 0
    cmds.append(Command(["catalog-list"] + (["--json"] if as_json else []), 1,
                        partial(oracle.check_catalog, as_json=as_json)))

    f0 = rng.uniform(0.15, 0.85)
    track = work / f"track_{cycle}.csv"
    cmds.append(Command(["ode", "--f0", repr(f0), "--out", str(track)], 1,
                        partial(oracle.check_ode, f0=f0), out_file=track))
    return cmds


def cycle_commands(workload, seed, cycle, work):
    """Commands of one cycle; work is the directory for generated inputs."""
    if workload == "sweep-bounds":
        return _sweep_bounds(seed)
    if workload == "sweep-warp":
        return _sweep_warp(seed)
    if workload == "verify-dim8":
        return _verify(seed, cycle)
    if workload == "cli-oneshot":
        return _cli_oneshot(seed, cycle, work)
    raise ValueError(f"unknown workload '{workload}'; known: {', '.join(WORKLOADS)}")


def selfcheck_command():
    """Small fixed command for the tracer self-check: a few rows with a
    warm warp cache, interior mini-max optima and theorem31 applicable."""
    return _sweep(["--example", "m7-sigma"], "surface_scalar", 9.0, 12.0, 4,
                  oracle.check_sweep_surface)
