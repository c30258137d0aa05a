"""Command line front end.

Subcommands: bound (evaluate every lower bound on one profile), sweep
(one-parameter family to CSV), ode (warp trajectory dump plus summary),
verify (Clifford identity batches), catalog-list (named examples);
`main` builds only the parser of the subcommand it runs. Output is
deterministic: identical invocations produce byte-identical bytes. CSV
cells carry 17 significant digits so 64-bit floats round trip; tables
round to 6 decimals for reading.

`sweep` computes its rows as arrays, a block of SWEEP_BLOCK rows at a
time, and writes each block to a temporary file as it is done; the file
is moved onto --out, or copied to stdout, only when every row is, so a
sweep that fails leaves no output and memory does not grow with --steps.
A block and a single row run the same rule tables (see catalog and
profile): realize_columns flags the rows that break a rule, and realize,
on a block of one, raises the first rule that the row breaks. So the
message of a failing sweep comes from realize and the report functions,
run on the first row and on the first flagged row of each block; a row
that the columns flag and that they accept is an internal fault.

Exit codes: 0 success, 1 input or validation error (among them an
`ode --tol` that the quadrature's node cap cannot reach, which only an
orbit that nears F = 0 meets), 2 no bound with
any information (every method inapplicable or vacuous), 3 identity
residual above tolerance, 4 an internal cross-check failed (theorem
3.1's closed form against f(s0), or the `ode` orbit's energy drift):
a fault of the computation, not of the input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import locale  # noqa: F401  (argparse's gettext imports it on the first message)
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import clifford, warp
from .bounds import (best_bound, friedrich_block, kaehler_block, kaehler_bound,
                     theorem31_block, theorem31_bound)
from .catalog import (EXAMPLES, Product, Sphere, Surface, Warped, leaves,
                      named_example, realize, realize_columns, spec_from_dict,
                      spec_to_dict)
from .errors import CrossCheckFailed, DiracBoundError
from .profile import profile_from_dict, profile_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_BOUND = 2
EXIT_RESIDUAL = 3
EXIT_INTERNAL = 4

MAX_SWEEP_STEPS = 10**6
SWEEP_BLOCK = 512  # rows realized, bounded and written at a time
SWEEP_COLUMNS = ("friedrich", "kaehler", "theorem31", "minimax_numeric")
# --param name -> (spec kind, dataclass field) that a sweep rebinds
SWEEP_PARAMS = {"radius": (Sphere, "radius"), "surface_scalar": (Surface, "scalar"),
                "f0": (Warped, "f0")}
RESIDUAL_TOL = 1e-12
_COMPAT_TOL_HELP = ("kept for compatibility: checked to be finite and positive, "
                    "but changes no value, because warped factors are computed "
                    "in closed form; only the ode command integrates "
                    "(default 1e-10)")
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1.

    argparse reads an argument that looks like a negative number as a
    value, not an option; its own pattern has no exponent form, so
    `--from -1e-3` would fail. The wider pattern reaches every
    subcommand, because add_parser builds subparsers of this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
    except RecursionError:
        raise ValueError("JSON document nests too deeply to parse") from None


def _load_spec(args):
    if args.spec:
        return spec_from_dict(_load_json(args.spec))
    return named_example(args.example)


def _load_profile(args):
    if args.profile:
        return profile_from_dict(_load_json(args.profile))
    return realize(_load_spec(args))


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


def _bound_rows(best):
    """(method, value, strict, applicable, note) rows, flags as yes/no, best last."""
    yes = {True: "yes", False: "no"}
    rows = [(r.method.value, r.value, yes[r.strict], yes[r.applicable], _note(r))
            for r in best.subreports]
    return rows + [("best", best.value, yes[best.strict], "yes", best.method.value)]


def _bound_table(profile, rows):
    lines = [f"profile: n = {profile.n}, R = {profile.scalar:.6f}, "
             f"kappa0 = {profile.kappa0:.6f}, |Ric|^2_min = {profile.ric_norm_sq_min:.6f}",
             f"{'method':<16} {'value':>12}  {'strict':<7} {'applicable':<11} note"]
    for method, value, strict, applicable, note in rows:
        value = f"{value:.6f}" if value is not None else "-"
        flags = "via" if method == "best" else f"{strict:<7} {applicable:<11}"
        lines.append(f"{method:<16} {value:>12}  {flags} {note}".rstrip())
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
        d["optimizer"] = asdict(report.optimizer)
    return d


def _bound_json(profile, best):
    doc = {
        "schema": "diracbound/bound_report_set/v1",
        "profile": profile_to_dict(profile),
        "reports": [_report_dict(r) for r in best.subreports],
        "best": _report_dict(best),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _bound_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("method", "value", "strict", "applicable", "note"))
    for method, value, strict, applicable, note in rows:
        value = _fmt17(value) if value is not None else ""
        writer.writerow((method, value, strict, applicable, note))
    return buf.getvalue()


def cmd_bound(args):
    profile = _load_profile(args)
    best = best_bound(profile, args.kaehler_dim)
    if args.json:
        _emit(_bound_json(profile, best), args.out)
    elif args.csv:
        _emit(_bound_csv(_bound_rows(best)), args.out)
    else:
        _emit(_bound_table(profile, _bound_rows(best)), args.out)
    if not best.applicable or not best.value or best.value <= 0.0:
        return EXIT_NO_BOUND
    return EXIT_OK


# --- sweep -----------------------------------------------------------------

def _sweep_grid(start, stop, steps, lo, hi):
    """Entries lo to hi - 1 of np.linspace(start, stop, steps), computed
    as linspace computes them, without the other entries."""
    start, stop = np.float64(start), np.float64(stop)
    delta, div = stop - start, steps - 1
    grid = np.arange(lo, hi, dtype=float)
    step = delta / div
    grid = grid / div * delta if step == 0 else grid * step
    grid += start
    if hi == steps:
        grid[-1] = stop
    return grid


def _bound_cells(profile, selected, kaehler_dim):
    """(cells, failed): name -> (values, applicable or None) of the
    selected bound columns, and the rows where theorem31's cross-check
    fails; the minimax_numeric column is one of theorem31_block's."""
    n, R = profile.n, profile.scalar
    kappa0, t0 = profile.kappa0, profile.traceless_norm_sq_min
    cells, failed = {}, False
    if "friedrich" in selected:
        cells["friedrich"] = friedrich_block(n, R), None
    if "kaehler" in selected and kaehler_dim is not None:
        cells["kaehler"] = kaehler_block(n, R, kaehler_dim), None
    if "theorem31" in selected or "minimax_numeric" in selected:
        th = theorem31_block(n, R, kappa0, t0)
        failed = th.failed
    if "theorem31" in selected:
        cells["theorem31"] = th.value, th.applicable
    if "minimax_numeric" in selected:
        cells["minimax_numeric"] = th.minimax, None
    return cells, failed


# the line format of each pattern of filled cells (param, SWEEP_COLUMNS,
# best): bit i of the index is set where cell i is filled
_CELLS = len(SWEEP_COLUMNS) + 2
_LINE_FORMATS = tuple(",".join("%.17g" if code >> i & 1 else "" for i in range(_CELLS))
                      + "\n" for code in range(2**_CELLS))


def _csv_block(params, cells):
    """CSV text of a block: the parameter, the SWEEP_COLUMNS cells (empty
    where a column is not selected or not applicable) and the best of the
    filled cells, the first of equal ones. One % writes the whole block:
    each row takes the line format of its filled cells, which are passed
    in row-major order."""
    rows = len(params)
    table, filled = np.zeros((rows, _CELLS)), np.zeros((rows, _CELLS), bool)
    table[:, 0], filled[:, 0] = params, True
    best, any_filled = table[:, -1], filled[:, -1]
    for i, name in enumerate(SWEEP_COLUMNS, 1):
        if name not in cells:
            continue
        values, applicable = cells[name]
        if applicable is None:
            applicable = np.ones(rows, bool)
        table[:, i], filled[:, i] = values, applicable
        take = applicable & (~any_filled | (values > best))
        best[:] = np.where(take, values, best)
        any_filled |= applicable
    codes = filled @ (1 << np.arange(_CELLS))
    return "".join(map(_LINE_FORMATS.__getitem__, codes.tolist())) \
        % tuple(table[filled].tolist())


def _with_param(spec, cls, name, value):
    """The spec with field `name` of every `cls` leaf set to value."""
    if isinstance(spec, Product):
        return Product(tuple(_with_param(f, cls, name, value) for f in spec.factors))
    return replace(spec, **{name: value}) if isinstance(spec, cls) else spec


def _check_row(spec, value, args, selected):
    """Realize the row at value and run the selected report functions that
    can raise; raise their exception with the parameter value added."""
    try:
        profile = realize(_with_param(spec, *SWEEP_PARAMS[args.param], value))
        if "kaehler" in selected and args.kaehler_dim is not None:
            kaehler_bound(profile, args.kaehler_dim)
        if "theorem31" in selected or "minimax_numeric" in selected:
            theorem31_bound(profile)
    except DiracBoundError as exc:
        exc.args = (f"{exc} (at {args.param} = {value!r})",)
        raise


def _sweep_block(spec, realize_block, params, args, selected):
    """CSV text of one block of parameter values; the first row that the
    column code flags, or whose theorem31 cross-check fails (with
    theorem31 or minimax_numeric selected), raises through _check_row."""
    profile, flagged = realize_block(params)
    with np.errstate(all="ignore"):   # flagged rows hold unchecked values
        cells, failed = _bound_cells(profile, selected, args.kaehler_dim)
    bad = np.flatnonzero(flagged | failed)
    if bad.size:
        value = float(params[bad[0]])
        _check_row(spec, value, args, selected)
        raise CrossCheckFailed(
            "internal cross-check failed: the column code rejects a row that "
            f"realize accepts (at {args.param} = {value!r})")
    return _csv_block(params, cells)


def _write_whole(out_path, write):
    """Run write(file) on a temporary file, then move that onto out_path
    or copy it to stdout; if write raises, nothing is written anywhere."""
    if not out_path:
        with tempfile.TemporaryFile("w+", newline="\n") as fh:
            write(fh)
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
        return
    tmp = f"{out_path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "x", newline="\n") as fh:
            write(fh)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_sweep(args):
    spec = _load_spec(args)
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
    cls, name = SWEEP_PARAMS[args.param]
    sites = sum(isinstance(leaf, cls) for leaf in leaves(spec))
    if sites != 1:
        raise ValueError(f"parameter '{args.param}' must bind to exactly one "
                         f"factor of the spec; found {sites}")
    # a fixed factor, the tree or --kaehler-dim fails every row or none
    first = _sweep_grid(args.start, args.stop, args.steps, 0, 1)
    _check_row(spec, float(first[0]), args, selected)
    realize_block = realize_columns(spec, cls, name)

    def write(fh):
        fh.write("param," + ",".join(SWEEP_COLUMNS) + ",best\n")
        for lo in range(0, args.steps, SWEEP_BLOCK):
            params = _sweep_grid(args.start, args.stop, args.steps,
                                 lo, min(lo + SWEEP_BLOCK, args.steps))
            fh.write(_sweep_block(spec, realize_block, params, args, selected))

    _write_whole(args.out, write)
    return EXIT_OK


# --- ode -------------------------------------------------------------------

def cmd_ode(args):
    try:
        traj = warp.integrate_warp(args.f0, args.tol)
    except CrossCheckFailed:
        raise
    except ArithmeticError as exc:      # the node cap leaves the tail above tol
        raise ArithmeticError(f"{exc}; a larger --tol accepts it") from None
    track = warp.curvature_track(traj)
    ext = warp.warp_extremals(traj.f0)
    warp.write_track_csv(args.out, traj, track)
    summary = {
        "schema": "diracbound/ode_summary/v1",
        "n": 5,
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
        doc = {"schema": "diracbound/verify_summary/v1", **asdict(summary),
               "tolerance": args.tol, "max_residual": worst, "ok": ok}
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

def _bound_args(p):
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
                   help=_COMPAT_TOL_HELP)
    p.set_defaults(func=cmd_bound)


def _sweep_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", metavar="PATH", help="manifold spec JSON")
    src.add_argument("--example", metavar="NAME", help="named example")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS,
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
                   help=_COMPAT_TOL_HELP)
    p.set_defaults(func=cmd_sweep)


def _ode_args(p):
    p.add_argument("--f0", type=float, required=True, metavar="F0",
                   help="starting value F(0)")
    p.add_argument("--tol", type=float, default=1e-10, metavar="TOL",
                   help="relative accuracy of the orbit (default 1e-10)")
    p.add_argument("--out", metavar="PATH", required=True,
                   help="CSV path for the sampled track")
    p.set_defaults(func=cmd_ode)


def _verify_args(p):
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


def _catalog_list_args(p):
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_catalog_list)


COMMANDS = {"bound": ("evaluate every bound on one profile", _bound_args),
            "sweep": ("one-parameter bound family to CSV", _sweep_args),
            "ode": ("sample one warp orbit, dump CSV track", _ode_args),
            "verify": ("run the Clifford identity batches", _verify_args),
            "catalog-list": ("list the named examples", _catalog_list_args)}


def build_parser(command=None):
    """The CLI's parser, with only `command`'s subparser if it names one,
    else with all; no parser's bytes depend on which others are built."""
    parser = _Parser(prog="diracbound",
                     description="Lower bounds for Dirac eigenvalues from "
                                 "pointwise Ricci data.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, add_arguments) in COMMANDS.items():
        if command not in COMMANDS or command == name:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if "tol" in vars(args):
            warp.check_tol(args.tol)
        return args.func(args)
    except CrossCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DiracBoundError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
