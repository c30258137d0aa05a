"""Command line front end.

Subcommands: bound (evaluate every lower bound on one profile), sweep
(one-parameter family to CSV), ode (warp trajectory dump plus summary),
verify (Clifford identity batches), catalog-list (named examples);
`main` parses a command's arguments with that command's parser alone,
and builds the full parser only to report no command, help or an
unrecognized argument. Output is deterministic: identical invocations
produce byte-identical bytes. CSV cells carry 17 significant digits so
64-bit floats round trip; tables round to 6 decimals for reading.

Every --out file is written whole by _write_whole, the package's only
writer: to a temporary file beside it, renamed onto it once complete.
`bound` and `sweep` write stdout through it too.
`sweep` computes and writes its rows a block of SWEEP_BLOCK at a time;
without --out they are spooled, in memory up to SPOOL_BYTES and on disk
beyond, and copied to stdout once every row is, so a failing sweep
prints nothing and memory does not grow with --steps. A block records
the rules that its rows break (realize_columns', then the Kaehler rule
and theorem 3.1's cross-check; see profile), and its first row that
breaks one raises the first of them that it breaks, as realize and the
report functions would on that row alone, with the parameter value added.

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import clifford, warp
from .bounds import best_block, best_bound, bound_columns
from .catalog import (EXAMPLES, Sphere, Surface, Warped, named_example, realize,
                      realize_columns, spec_from_dict, spec_to_dict)
from .errors import CrossCheckFailed, DiracBoundError, MalformedDocument, ParameterRange
from .profile import profile_from_dict, profile_to_dict, raise_first

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_BOUND = 2
EXIT_RESIDUAL = 3
EXIT_INTERNAL = 4

MAX_SWEEP_STEPS = 10**6
SWEEP_BLOCK = 512  # rows realized, bounded and written at a time
SPOOL_BYTES = 1 << 20  # stdout text held in memory before it spills to disk
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
    command's parser: main builds a command's own parser of this class,
    and add_parser builds the full parser's subparsers of it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_whole(out_path, write):
    """Run write(file) on a temporary file, then move that onto out_path;
    if out_path is None, on a file spooled in memory up to SPOOL_BYTES
    (on disk beyond), then copy that to stdout. If write raises, nothing
    is written anywhere."""
    if out_path is None:
        with tempfile.SpooledTemporaryFile(SPOOL_BYTES, "w+", newline="\n") as fh:
            write(fh)
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
        return
    tmp = f"{out_path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "x", newline="\n") as fh:
            write(fh)
        os.replace(tmp, out_path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the path given
            raise OSError(exc.errno, exc.strerror, out_path) from None
        raise


def _load_json(path):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedDocument("JSON document nests too deeply to parse") from None


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
        value = "%.17g" % value if value is not None else ""
        writer.writerow((method, value, strict, applicable, note))
    return buf.getvalue()


def cmd_bound(args):
    profile = _load_profile(args)
    best = best_bound(profile, args.kaehler_dim)
    if args.json:
        text = _bound_json(profile, best)
    elif args.csv:
        text = _bound_csv(_bound_rows(best))
    else:
        text = _bound_table(profile, _bound_rows(best))
    _write_whole(args.out or None, lambda fh: fh.write(text))   # an empty --out is stdout
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


# the line format of each pattern of filled cells (param, SWEEP_COLUMNS,
# best): bit i of the index is set where cell i is filled
_CELLS = len(SWEEP_COLUMNS) + 2
_LINE_FORMATS = tuple(",".join("%.17g" if code >> i & 1 else "" for i in range(_CELLS))
                      + "\n" for code in range(2**_CELLS))


def _csv_block(params, cells):
    """CSV text of a block: the parameter, the SWEEP_COLUMNS cells (empty
    where a column is not selected or not applicable) and the best of the
    filled cells, as bounds.best_block picks it. One % writes the whole
    block: each row takes the line format of its filled cells, which are
    passed in row-major order."""
    rows = len(params)
    table, filled = np.zeros((rows, _CELLS)), np.zeros((rows, _CELLS), bool)
    table[:, 0], filled[:, 0] = params, True
    columns = []
    for i, name in enumerate(SWEEP_COLUMNS, 1):
        if name in cells:
            columns.append(cells[name])
            table[:, i], filled[:, i] = columns[-1]
    best, index = best_block(columns)
    table[:, -1], filled[:, -1] = best, index >= 0
    codes = filled @ (1 << np.arange(_CELLS))
    return "".join(map(_LINE_FORMATS.__getitem__, codes.tolist())) \
        % tuple(table[filled].tolist())


def _sweep_block(realize_block, params, args, selected):
    """CSV text of one block of parameter values. Its first row that
    breaks a rule the block records (realize_columns', then bound_columns')
    raises the first it breaks, with the parameter value added."""
    profile, failures = realize_block(params)
    cells, more = bound_columns(profile, selected, args.kaehler_dim)
    raise_first(failures + more, lambda row: f" (at {args.param} = {float(params[row])!r})")
    return _csv_block(params, cells)


def cmd_sweep(args):
    spec = _load_spec(args)
    for flag, value in (("--from", args.start), ("--to", args.stop),
                        ("--to minus --from", args.stop - args.start)):
        if not math.isfinite(value):
            raise ParameterRange(f"{flag} must be finite, got {value}")
    if not args.start < args.stop:
        raise ParameterRange(f"--from must be below --to, got {args.start} and {args.stop}")
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ParameterRange(f"--steps must lie in [2, {MAX_SWEEP_STEPS}], got {args.steps}")
    selected = tuple(args.bounds.split(","))
    for name in selected:
        if name not in SWEEP_COLUMNS:
            raise ParameterRange(f"unknown bound column '{name}'; "
                                 f"known: {', '.join(SWEEP_COLUMNS)}")
    realize_block = realize_columns(spec, *SWEEP_PARAMS[args.param])

    def block(lo):
        params = _sweep_grid(args.start, args.stop, args.steps,
                             lo, min(lo + SWEEP_BLOCK, args.steps))
        return _sweep_block(realize_block, params, args, selected)

    first = block(0)   # before --out is opened, so a failing first row wins

    def write(fh):
        fh.write("param," + ",".join(SWEEP_COLUMNS) + ",best\n")
        fh.write(first)
        for lo in range(SWEEP_BLOCK, args.steps, SWEEP_BLOCK):
            fh.write(block(lo))

    _write_whole(args.out or None, write)   # an empty --out is stdout, as for bound
    return EXIT_OK


# --- ode -------------------------------------------------------------------

def cmd_ode(args):
    try:
        traj = warp.integrate_warp(args.f0, args.tol)
    except ArithmeticError as exc:
        if type(exc) is not ArithmeticError:   # only the node cap raises a bare one
            raise
        raise ArithmeticError(f"{exc}; a larger --tol accepts it") from None
    track = warp.curvature_track(traj)
    ext = warp.warp_extremals(traj.f0)
    # one period, 17 significant digits per cell, one % for all rows
    rows = np.column_stack((traj.tau, traj.F, traj.Fp, track.kappa1, track.kappa2))
    text = "tau,F,Fp,kappa1,kappa2\n" + ("%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(rows)) \
        % tuple(rows.ravel().tolist())
    _write_whole(args.out, lambda fh: fh.write(text))   # --out is required, "" too
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


def build_parser():
    """The CLI's full parser, with every command's subparser."""
    parser = _Parser(prog="diracbound",
                     description="Lower bounds for Dirac eigenvalues from "
                                 "pointwise Ricci data.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv):
    """argv parsed by the named command's own parser: the parser, and the
    call, that the full parser's subparser action would make. The full
    parser runs only where argv names no command, or leaves arguments
    over, which it reports as unrecognized."""
    if argv and argv[0] in COMMANDS:
        _, add_arguments = COMMANDS[argv[0]]
        parser = _Parser(prog=f"diracbound {argv[0]}")
        add_arguments(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
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
