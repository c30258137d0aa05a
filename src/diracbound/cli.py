"""Command line front end.

Subcommands: bound (evaluate every lower bound on one profile), sweep
(one-parameter family to CSV), ode (warp trajectory dump plus summary),
verify (Clifford identity batches), catalog-list (named examples).
Output is deterministic: identical invocations produce byte-identical
bytes. CSV cells carry 17 significant digits so 64-bit floats round
trip; tables round to 6 decimals for reading.

Exit codes: 0 success, 1 input or validation error, 2 no bound with
any information (every method inapplicable or vacuous), 3 identity
residual above tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds, clifford, warp
from .bounds import (best_bound, friedrich_bound, kaehler_bound,
                     optimize_minimax_block, theorem31_bound)
from .catalog import (EXAMPLES, Product, Sphere, Surface, Warped, named_example,
                      realize, spec_from_dict, spec_to_dict)
from .errors import DiracBoundError
from .profile import profile_from_dict, profile_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_BOUND = 2
EXIT_RESIDUAL = 3

MAX_SWEEP_STEPS = 10**6
SWEEP_COLUMNS = ("friedrich", "kaehler", "theorem31", "minimax_numeric")
RESIDUAL_TOL = 1e-12


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt17(x):
    return format(float(x), ".17g")


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _load_profile(args):
    if args.profile:
        return profile_from_dict(_load_json(args.profile))
    if args.spec:
        return realize(spec_from_dict(_load_json(args.spec)), args.tol)
    return realize(named_example(args.example), args.tol)


# --- bound -----------------------------------------------------------------

def _note(report):
    if report.reason:
        return report.reason
    opt = report.optimizer
    if opt is not None and opt.t_star is not None:
        return f"t* = {opt.t_star:.6f}"
    if opt is not None and opt.s0 is not None:
        return f"s0 = {opt.s0:.6f}"
    return ""


def _bound_table(profile, best):
    lines = [f"profile: n = {profile.n}, R = {profile.scalar:.6f}, "
             f"kappa0 = {profile.kappa0:.6f}, "
             f"|Ric|^2_min = {profile.ric_norm_sq_min:.6f}"]
    lines.append(f"{'method':<16} {'value':>12}  {'strict':<7} "
                 f"{'applicable':<11} note")
    for r in best.subreports:
        value = f"{r.value:.6f}" if r.value is not None else "-"
        lines.append(f"{r.method.value:<16} {value:>12}  "
                     f"{'yes' if r.strict else 'no':<7} "
                     f"{'yes' if r.applicable else 'no':<11} {_note(r)}".rstrip())
    value = f"{best.value:.6f}" if best.value is not None else "-"
    lines.append(f"{'best':<16} {value:>12}  via {best.method.value}")
    return "\n".join(lines) + "\n"


def _report_dict(report):
    d = {
        "method": report.method.value,
        "value": report.value,
        "strict": report.strict,
        "applicable": report.applicable,
        "reason": report.reason,
    }
    if report.optimizer is not None:
        d["optimizer"] = {
            "t_star": report.optimizer.t_star,
            "s0": report.optimizer.s0,
            "f_s0": report.optimizer.f_s0,
        }
    return d


def _bound_json(profile, best):
    doc = {
        "schema": "diracbound/bound_report_set/v1",
        "profile": profile_to_dict(profile),
        "reports": [_report_dict(r) for r in best.subreports],
        "best": _report_dict(best),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _bound_csv(best):
    lines = ["method,value,strict,applicable,note"]
    for r in best.subreports:
        value = _fmt17(r.value) if r.value is not None else ""
        lines.append(f"{r.method.value},{value},"
                     f"{'yes' if r.strict else 'no'},"
                     f"{'yes' if r.applicable else 'no'},{_note(r)}")
    value = _fmt17(best.value) if best.value is not None else ""
    lines.append(f"best,{value},{'yes' if best.strict else 'no'},yes,"
                 f"{best.method.value}")
    return "\n".join(lines) + "\n"


def cmd_bound(args):
    profile = _load_profile(args)
    best = best_bound(profile, args.kaehler_dim)
    if args.json:
        _emit(_bound_json(profile, best), args.out)
    elif args.csv:
        _emit(_bound_csv(best), args.out)
    else:
        _emit(_bound_table(profile, best), args.out)
    if not best.applicable or not best.value or best.value <= 0.0:
        return EXIT_NO_BOUND
    return EXIT_OK


# --- sweep -----------------------------------------------------------------

_SWEEP_NODE = {"radius": Sphere, "surface_scalar": Surface, "f0": Warped}


def _binding_sites(spec, node_cls):
    if isinstance(spec, Product):
        return sum(_binding_sites(f, node_cls) for f in spec.factors)
    return int(isinstance(spec, node_cls))


def _bind(spec, param, value):
    if isinstance(spec, Product):
        return Product(tuple(_bind(f, param, value) for f in spec.factors))
    if param == "radius" and isinstance(spec, Sphere):
        return Sphere(value)
    if param == "surface_scalar" and isinstance(spec, Surface):
        return Surface(value)
    if param == "f0" and isinstance(spec, Warped):
        return Warped(spec.n, value)
    return spec


def _sweep_cells(profile, selected, kaehler_dim):
    """Closed-form cells of one row; the minimax column is filled per block."""
    cells = {}
    if "friedrich" in selected:
        cells["friedrich"] = friedrich_bound(profile).value
    if "kaehler" in selected and kaehler_dim is not None:
        cells["kaehler"] = kaehler_bound(profile, kaehler_dim).value
    if "theorem31" in selected:
        report = theorem31_bound(profile)
        if report.applicable:
            cells["theorem31"] = report.value
    return cells


def _sweep_block(spec, args, selected, params):
    """CSV rows for one block of parameter values."""
    profiles = [realize(_bind(spec, args.param, float(v)), args.tol) for v in params]
    rows = [_sweep_cells(p, selected, args.kaehler_dim) for p in profiles]
    if "minimax_numeric" in selected:
        values, _ = optimize_minimax_block(
            [p.n for p in profiles], [p.scalar for p in profiles],
            [p.kappa0 for p in profiles],
            [p.traceless_norm_sq_min for p in profiles])
        for cells, value in zip(rows, values):
            cells["minimax_numeric"] = value
    lines = []
    for value, cells in zip(params, rows):
        row = [_fmt17(value)]
        row += [_fmt17(cells[c]) if c in cells else "" for c in SWEEP_COLUMNS]
        row.append(_fmt17(max(cells.values())) if cells else "")
        lines.append(",".join(row))
    return lines


def cmd_sweep(args):
    if args.spec:
        spec = spec_from_dict(_load_json(args.spec))
    else:
        spec = named_example(args.example)
    for flag, value in (("--from", args.start), ("--to", args.stop),
                        ("--to minus --from", args.stop - args.start)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not args.start < args.stop:
        raise ValueError(f"--from must be below --to, got {args.start} and {args.stop}")
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"--steps must lie in [2, {MAX_SWEEP_STEPS}], got {args.steps}")
    selected = tuple(args.bounds.split(","))
    for name in selected:
        if name not in SWEEP_COLUMNS:
            raise ValueError(f"unknown bound column '{name}'; "
                             f"known: {', '.join(SWEEP_COLUMNS)}")
    sites = _binding_sites(spec, _SWEEP_NODE[args.param])
    if sites != 1:
        raise ValueError(f"parameter '{args.param}' must bind to exactly one "
                         f"factor of the spec; found {sites}")

    lines = ["param," + ",".join(SWEEP_COLUMNS) + ",best"]
    params = np.linspace(args.start, args.stop, args.steps)
    for lo in range(0, len(params), bounds.MINIMAX_BLOCK):
        lines += _sweep_block(spec, args, selected,
                              params[lo:lo + bounds.MINIMAX_BLOCK])
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- ode -------------------------------------------------------------------

def cmd_ode(args):
    traj = warp.integrate_warp(args.n, args.f0, args.tol)
    track = warp.curvature_track(traj)
    ext = warp.extremal_data(track)
    warp.write_track_csv(args.out, traj, track)
    summary = {
        "schema": "diracbound/ode_summary/v1",
        "n": traj.n,
        "f0": traj.f0,
        "tol": args.tol,
        "period": traj.period,
        "energy": traj.energy,
        "energy_drift": warp.energy_drift(traj),
        "scalar": warp.WARP_SCALAR,
        "kappa0": ext.kappa0,
        "ric_norm_sq_min": ext.ric_norm_sq_min,
        "f_min": float(np.min(traj.F)),
        "f_max": float(np.max(traj.F)),
        "samples": len(traj.tau),
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# --- verify ----------------------------------------------------------------

def cmd_verify(args):
    summary = clifford.run_identity_batch(args.dim, args.trials, args.seed)
    worst = max(summary.trace_residual_full, summary.trace_residual_traceless,
                summary.lemma_residual)
    ok = worst <= args.tol
    if args.json:
        doc = {
            "schema": "diracbound/verify_summary/v1",
            "n": summary.n,
            "trials": summary.trials,
            "seed": summary.seed,
            "tolerance": args.tol,
            "trace_residual_full": summary.trace_residual_full,
            "trace_residual_traceless": summary.trace_residual_traceless,
            "lemma_residual": summary.lemma_residual,
            "max_residual": worst,
            "ok": ok,
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(
            f"n = {summary.n}, trials = {summary.trials}, seed = {summary.seed}\n"
            f"trace identity residual (full)       {summary.trace_residual_full:.3e}\n"
            f"trace identity residual (traceless)  {summary.trace_residual_traceless:.3e}\n"
            f"commutator identity residual         {summary.lemma_residual:.3e}\n"
            f"max residual {worst:.3e} "
            f"{'<=' if ok else '>'} tolerance {args.tol:.3e}: "
            f"{'ok' if ok else 'BREACH'}\n")
    return EXIT_OK if ok else EXIT_RESIDUAL


# --- catalog-list ----------------------------------------------------------

def cmd_catalog_list(args):
    if args.json:
        doc = {
            "schema": "diracbound/catalog_list/v1",
            "examples": [
                {"name": name, "description": desc, "spec": spec_to_dict(spec)}
                for name, (spec, desc) in EXAMPLES.items()
            ],
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        width = max(len(name) for name in EXAMPLES)
        for name, (_, desc) in EXAMPLES.items():
            sys.stdout.write(f"{name:<{width}}  {desc}\n")
    return EXIT_OK


# --- parser ----------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="diracbound",
                     description="Lower bounds for Dirac eigenvalues from "
                                 "pointwise Ricci data.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("bound", help="evaluate every bound on one profile")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--profile", metavar="PATH", help="curvature profile JSON")
    src.add_argument("--spec", metavar="PATH", help="manifold spec JSON")
    src.add_argument("--example", metavar="NAME", help="named example")
    p.add_argument("--kaehler-dim", type=int, metavar="M",
                   help="complex dimension for the Kaehler bound")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p.add_argument("--tol", type=float, default=1e-10, metavar="TOL",
                   help="warp integration tolerance (default 1e-10)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="one-parameter bound family to CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", metavar="PATH", help="manifold spec JSON")
    src.add_argument("--example", metavar="NAME", help="named example")
    p.add_argument("--param", required=True,
                   choices=("radius", "surface_scalar", "f0"),
                   help="which spec field to sweep")
    p.add_argument("--from", dest="start", type=float, required=True,
                   metavar="A", help="first parameter value")
    p.add_argument("--to", dest="stop", type=float, required=True,
                   metavar="B", help="last parameter value")
    p.add_argument("--steps", type=int, required=True, metavar="K",
                   help="number of grid points, endpoints included")
    p.add_argument("--bounds", default=",".join(SWEEP_COLUMNS), metavar="LIST",
                   help="comma-separated method columns to fill "
                        "(default: all)")
    p.add_argument("--kaehler-dim", type=int, metavar="M",
                   help="complex dimension for the kaehler column")
    p.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p.add_argument("--tol", type=float, default=1e-10, metavar="TOL",
                   help="warp integration tolerance (default 1e-10)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ode", help="integrate the warp orbit, dump CSV track")
    p.add_argument("--n", type=int, default=5, metavar="N",
                   help="fiber exponent dimension (default 5)")
    p.add_argument("--f0", type=float, required=True, metavar="F0",
                   help="starting value F(0)")
    p.add_argument("--tol", type=float, default=1e-10, metavar="TOL",
                   help="integration tolerance (default 1e-10)")
    p.add_argument("--out", metavar="PATH", required=True,
                   help="CSV path for the sampled track")
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("verify", help="run the Clifford identity batches")
    p.add_argument("--dim", type=int, required=True, metavar="N",
                   help="frame dimension, 2 to 8")
    p.add_argument("--trials", type=int, default=1000, metavar="K",
                   help="instances per identity (default 1000)")
    p.add_argument("--seed", type=int, default=0, metavar="SEED",
                   help="root seed for the instance streams (default 0)")
    p.add_argument("--tol", type=float, default=RESIDUAL_TOL, metavar="TOL",
                   help="residual tolerance (default 1e-12)")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog-list", help="list the named examples")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_catalog_list)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (DiracBoundError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
