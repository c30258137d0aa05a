"""Command line front end.

Subcommands: bound (evaluate every lower bound on one profile), sweep
(one-parameter family to CSV), ode (warp trajectory dump plus summary),
verify (Clifford identity batches), catalog-list (named examples).
Every command's flags are declared once, in COMMANDS. `main` reads a
well-formed command line (a command, then each of its flags at most
once, spelled out, with a valid value) from that table alone, with
_scan; for any other command line it builds the full argparse parser,
which reads it as before and alone writes help, usage and errors.
Output is deterministic: identical invocations produce byte-identical
bytes. CSV cells carry 17 significant digits so 64-bit floats round
trip; tables round to 6 decimals for reading.

Every --out file is written whole by _write_whole, the package's only
writer: to a temporary file beside it, renamed onto it once complete.
`bound` and `sweep` write stdout through it too.
`ode` formats its track's first half period, rows 0 to 2048 of 4097,
with one %, and writes the second half from that text in mirror order,
with Fp's sign flipped; only the second half's tau is formatted anew.
`sweep` computes and writes its rows a block of SWEEP_BLOCK at a time;
without --out they are spooled, in memory up to SPOOL_BYTES and on disk
beyond, and copied to stdout once every row is, so a failing sweep
prints nothing and memory does not grow with --steps. A block records
the rules that its rows break (realize_columns', then the Kaehler rule
and theorem 3.1's cross-check; see profile), and its first row that
breaks one raises the first of them that it breaks, as realize and the
report functions would on that row alone, with the parameter value added.

Exit codes: 0 success, 1 bad input, any DiracBoundError or OSError (the
ParameterRange of an `ode --tol` that the quadrature's node cap cannot
reach among them, which only an orbit that nears F = 0 meets), 2 no bound
with any information (every method inapplicable or vacuous), 3 identity
residual above tolerance, 4 a fault of the computation, not of the input:
an internal cross-check failed (theorem 3.1's closed form against f(s0),
or the `ode` orbit's energy drift), or any other exception, on one line.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
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
SWEEP_BLOCK = 4096  # rows realized, bounded and written at a time
SPOOL_BYTES = 1 << 20  # stdout text held in memory before it spills to disk
SWEEP_COLUMNS = ("friedrich", "kaehler", "theorem31", "minimax_numeric")
# --param name -> (spec kind, dataclass field) that a sweep rebinds
SWEEP_PARAMS = {"radius": (Sphere, "radius"), "surface_scalar": (Surface, "scalar"),
                "f0": (Warped, "f0")}
RESIDUAL_TOL = 1e-12
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1.

    argparse reads an argument that looks like a negative number as a
    value, not an option; its own pattern has no exponent form, so
    `--from -1e-3` would fail. The wider pattern reaches every
    command's parser, since add_parser builds the full parser's
    subparsers of this class, and _scan reads values with it too.
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
    opened = False
    try:
        with open(tmp, "x", newline="\n") as fh:
            opened = True
            write(fh)
        os.replace(tmp, out_path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the path given
            raise OSError(exc.errno, exc.strerror, out_path) from None
        if isinstance(exc, ValueError) and not opened:   # a NUL byte in the path
            raise OSError(errno.EINVAL, str(exc), out_path) from None
        raise


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:   # undecodable bytes, or an int past Python's digit limit
        raise MalformedDocument(f"cannot read {path}: {exc}") from None
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
    if not best.value or best.value <= 0.0:
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

def _track_csv(traj, track):
    """CSV text of one period, 17 significant digits per cell. Rows
    mid + 1 to the end mirror rows mid - 1 to 0 bit for bit, with Fp
    negated as 0.0 - Fp (see warp.integrate_warp; curvature_track is
    elementwise in F and Fp^2). So one % formats rows 0 to mid, split into
    their tau, F, Fp and kappa cells, and the mirrored rows reuse those
    cells' text: only their tau is formatted."""
    mid = len(traj.tau) // 2
    rows = np.column_stack((traj.tau, traj.F, traj.Fp, track.kappa1, track.kappa2))
    cells = (("%.17g,\t%.17g,\t%.17g\t,%.17g,%.17g\n\t" * (mid + 1))
             % tuple(rows[:mid + 1].ravel().tolist())).split("\t")
    mirror = [""] * (4 * mid)
    mirror[0::4] = (("%.17g,\t" * mid) % tuple(traj.tau[mid + 1:].tolist())).split("\t")[:-1]
    mirror[1::4] = cells[4 * mid - 3::-4]   # F of rows mid - 1 to 0
    # the text of 0.0 - Fp: -x becomes x, x becomes -x, and 0 and -0 become 0
    mirror[2::4] = [fp[1:] if fp[0] == "-" else "-" + fp if fp != "0" else fp
                    for fp in cells[4 * mid - 2::-4]]
    mirror[3::4] = cells[4 * mid - 1::-4]   # kappa1 and kappa2
    return "".join(["tau,F,Fp,kappa1,kappa2\n", *cells, *mirror])


def cmd_ode(args):
    traj = warp.integrate_warp(args.f0, args.tol)
    track = warp.curvature_track(traj)
    ext = warp.warp_extremals(traj.f0)
    text = _track_csv(traj, track)
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

# Each command's flags in help order: groups of (required, exclusive,
# ((flag, add_argument kwargs), ...)). An exclusive group is a mutually
# exclusive group, which required makes one of its flags required; the
# flags of any other group go on the command's parser itself.
_JSON = ("--json", {"action": "store_true", "help": "machine output"})
_OUT = ("--out", {"metavar": "PATH", "help": "write here instead of stdout"})
_SPEC = ("--spec", {"metavar": "PATH", "help": "manifold spec JSON"})
_EXAMPLE = ("--example", {"metavar": "NAME", "help": "named example"})
_COMPAT_TOL = ("--tol", {"type": float, "default": 1e-10, "metavar": "TOL",
                         "help": "kept for compatibility: checked to be finite and "
                                 "positive, but changes no value, because warped "
                                 "factors are computed in closed form; only the ode "
                                 "command integrates (default 1e-10)"})
_BOUND = (
    (True, True, (("--profile", {"metavar": "PATH", "help": "curvature profile JSON"}),
                  _SPEC, _EXAMPLE)),
    (False, False, (("--kaehler-dim", {"type": int, "metavar": "M",
                                       "help": "complex dimension for the Kaehler bound"}),)),
    (False, True, (_JSON, ("--csv", {"action": "store_true", "help": "CSV output"}))),
    (False, False, (_OUT, _COMPAT_TOL)))
_SWEEP = (
    (True, True, (_SPEC, _EXAMPLE)),
    (False, False, (
        ("--param", {"required": True, "choices": SWEEP_PARAMS,
                     "help": "which spec field to sweep"}),
        ("--from", {"dest": "start", "type": float, "required": True, "metavar": "A",
                    "help": "first parameter value"}),
        ("--to", {"dest": "stop", "type": float, "required": True, "metavar": "B",
                  "help": "last parameter value"}),
        ("--steps", {"type": int, "required": True, "metavar": "K",
                     "help": "number of grid points, endpoints included"}),
        ("--bounds", {"default": ",".join(SWEEP_COLUMNS), "metavar": "LIST",
                      "help": "comma-separated method columns to fill (default: all)"}),
        ("--kaehler-dim", {"type": int, "metavar": "M",
                           "help": "complex dimension for the kaehler column"}),
        _OUT, _COMPAT_TOL)))
_ODE = ((False, False, (
    ("--f0", {"type": float, "required": True, "metavar": "F0",
              "help": "starting value F(0)"}),
    ("--tol", {"type": float, "default": 1e-10, "metavar": "TOL",
               "help": "relative accuracy of the orbit (default 1e-10)"}),
    ("--out", {"metavar": "PATH", "required": True,
               "help": "CSV path for the sampled track"}))),)
_VERIFY = ((False, False, (
    ("--dim", {"type": int, "required": True, "metavar": "N",
               "help": "frame dimension, 2 to 8"}),
    ("--trials", {"type": int, "default": 1000, "metavar": "K",
                  "help": "instances per identity (default 1000)"}),
    ("--seed", {"type": int, "default": 0, "metavar": "SEED",
                "help": "root seed for the instance streams (default 0)"}),
    ("--tol", {"type": float, "default": RESIDUAL_TOL, "metavar": "TOL",
               "help": "residual tolerance (default 1e-12)"}),
    _JSON)),)

COMMANDS = {"bound": ("evaluate every bound on one profile", cmd_bound, _BOUND),
            "sweep": ("one-parameter bound family to CSV", cmd_sweep, _SWEEP),
            "ode": ("sample one warp orbit, dump CSV track", cmd_ode, _ODE),
            "verify": ("run the Clifford identity batches", cmd_verify, _VERIFY),
            "catalog-list": ("list the named examples", cmd_catalog_list,
                             ((False, False, (_JSON,)),))}


def build_parser():
    """The CLI's full parser, with every command's subparser."""
    parser = _Parser(prog="diracbound",
                     description="Lower bounds for Dirac eigenvalues from "
                                 "pointwise Ricci data.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, func, groups) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for required, exclusive, flags in groups:
            group = (command.add_mutually_exclusive_group(required=required)
                     if exclusive else command)
            for flag, kwargs in flags:
                group.add_argument(flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def _scan(argv):
    """argv read from COMMANDS alone, as build_parser().parse_args reads
    it, where argv is a command and then exact flags of that command, each
    once, with a value after each flag that takes one: a token that does
    not start with - or that is a _NEGATIVE_NUMBER, of the flag's type
    and among its choices; every required flag and group given, and no
    two flags of an exclusive group. None for any other argv: help,
    abbreviations, --flag=value, repeats, --, bad values, missing or
    unknown flags. Those are argparse's to read, or to report."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, groups = COMMANDS[argv[0]]
    table = {flag: kwargs for _, _, flags in groups for flag, kwargs in flags}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = table.get(flag)
        if kwargs is None or flag in given:
            return None
        if "action" in kwargs:   # store_true
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or (value.startswith("-") and not _NEGATIVE_NUMBER.match(value)):
            return None
        try:
            given[flag] = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and given[flag] not in kwargs["choices"]:
            return None
    args = argparse.Namespace(command=argv[0], func=func)
    for required, exclusive, flags in groups:
        present = sum(flag in given for flag, _ in flags)
        if exclusive and present > 1 or required and not present:
            return None
        for flag, kwargs in flags:
            if kwargs.get("required") and flag not in given:
                return None
            default = False if "action" in kwargs else kwargs.get("default")
            setattr(args, kwargs.get("dest", flag[2:].replace("-", "_")),
                    given.get(flag, default))
    return args


def _parse(argv):
    """argv read by _scan, or, where _scan declines it, by the full parser,
    which alone writes help, usage and errors."""
    return _scan(argv) or build_parser().parse_args(argv)


def main(argv=None):
    # hasattr, not isinstance(arg, os.PathLike): that ABC check costs a fresh
    # process about 12 us, under 1% of a 200-row sweep's time in main
    argv = [os.fspath(arg) if hasattr(arg, "__fspath__") else arg
            for arg in (sys.argv[1:] if argv is None else argv)]
    for arg in argv:
        if not isinstance(arg, str):   # bytes, int, None: a caller's fault, not a traceback
            print(f"error: argument {arg!r} ({type(arg).__name__}) is not a str or a path",
                  file=sys.stderr)
            return EXIT_USAGE
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
    except (DiracBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # a fault of the program: one line, never a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
