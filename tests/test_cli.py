"""End-to-end CLI behavior: formats, exit codes, determinism."""

import ast
import contextlib
import csv
import errno
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbound import bounds, cli, curvature_track, integrate_warp
from diracbound.errors import MalformedDocument, ParameterRange

ROOT = Path(__file__).resolve().parents[1]


def test_bound_example_table(run_cli):
    proc = run_cli("bound", "--example", "t2xs2", "--kaehler-dim", "2", expect=0)
    for needle in ("0.666667", "0.707107", "1.000000", "via kaehler"):
        assert needle in proc.stdout


def test_bound_profile_json(run_cli, schema_validator, tmp_path):
    doc = {"n": 4, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0,
           "eigenvalues": [0, 0, 1, 1]}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("bound", "--profile", str(path), "--kaehler-dim", "2",
                   "--json", expect=0)
    out = json.loads(proc.stdout)
    schema_validator("bound_report_set.v1", out)
    assert out["best"]["method"] == "kaehler"
    assert out["best"]["value"] == pytest.approx(1.0)
    assert len(out["reports"]) == 5


def test_bound_spec_file(run_cli, tmp_path):
    spec = {"product": [{"einstein": {"n": 2, "scalar": 0.0}},
                        {"sphere": {"radius": 1.0}}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("bound", "--spec", str(path), expect=0)
    assert "0.707107" in proc.stdout


def test_bound_csv_round_trips(run_cli):
    proc = run_cli("bound", "--example", "t2xs2", "--csv", expect=0)
    lines = proc.stdout.splitlines()
    assert lines[0] == "method,value,strict,applicable,note"
    values = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    assert float(values["theorem31"]) == pytest.approx(2**-0.5, rel=1e-15)
    assert values["zero_scalar"] == ""  # inapplicable cell stays empty
    assert float(values["best"]) == float(values["theorem31"])


def test_bound_csv_quotes_cells_with_commas(run_cli, tmp_path):
    # theorem31's reason "... max(R/(n-1), -R) fails" holds a comma
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"surface": {"scalar": -2}}))
    proc = run_cli("bound", "--spec", str(path), "--csv", expect=2)
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert [len(row) for row in rows] == [5] * 6
    assert "max(R/(n-1), -R)" in dict((r[0], r[4]) for r in rows)["theorem31"]


def test_bound_malformed_json_exits_1(run_cli, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    proc = run_cli("bound", "--profile", str(path), expect=1)
    assert "JSON" in proc.stderr


@pytest.mark.parametrize("source", ["--spec", "--profile"])
def test_undecodable_input_names_the_file(capsys, tmp_path, source):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    assert cli.main(["bound", source, str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and "can't decode" in err


def test_bound_diagnostic_names_field(run_cli, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 4, "scalar": 2.0, "kappa0": 0.0}))
    proc = run_cli("bound", "--profile", str(path), expect=1)
    assert "ric_norm_sq_min" in proc.stderr


@pytest.mark.parametrize("literal,name", [
    ("NaN", "scalar"), ("Infinity", "ric_norm_sq_min"),
    pytest.param("1" + "0" * 400, "scalar", id="int-beyond-floats-scalar")])
def test_bound_non_finite_profile_exits_1(run_cli, tmp_path, literal, name):
    # json accepts these literals (the last one as an int that float()
    # cannot convert); the profile must still reject them
    path = tmp_path / "profile.json"
    doc = {"n": 4, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0}
    doc[name] = literal
    path.write_text(json.dumps(doc).replace(f'"{literal}"', literal))
    proc = run_cli("bound", "--profile", str(path), expect=1)
    assert f"'{name}' must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_bound_far_zero_scalar_profile_exits_0(capsys, tmp_path):
    # |kappa0| = 1e100 beside |Ric|^2 = 1: theorem31's cross-check read
    # "closed form 0.0 vs f(s0) nan" and the command exited 4
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"n": 2, "scalar": 0, "kappa0": -1e100,
                                "ric_norm_sq_min": 1}))
    assert cli.main(["bound", "--profile", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = {r["method"]: r["value"] for r in doc["reports"]}
    assert values["theorem31"] == pytest.approx(values["zero_scalar"], rel=1e-9)
    assert doc["best"]["value"] == pytest.approx(2.5e-101, rel=1e-9)


def test_bound_round_off_scalar_profile_reports_no_strict_bound(capsys, tmp_path):
    # R, kappa0 and |Ric|^2 all of order round-off: R = -1e-17 is not zero
    # at the profile's own scale, so the zero-scalar bound does not apply
    path = tmp_path / "round-off.json"
    path.write_text(json.dumps({"n": 2, "scalar": -1.0364355780741957e-17,
                                "kappa0": -8.14712369817478e-18,
                                "ric_norm_sq_min": 7.129174266132629e-35}))
    assert cli.main(["bound", "--csv", "--profile", str(path)]) == cli.EXIT_NO_BOUND
    rows = {line.split(",")[0]: line.split(",")[1:4]
            for line in capsys.readouterr().out.splitlines()}
    assert rows["zero_scalar"] == ["", "no", "no"]
    assert rows["best"] == ["0", "no", "yes"]


@pytest.mark.parametrize("fmt", [(), ("--json",), ("--csv",)])
@pytest.mark.parametrize("kappa0", [-1.7e308, -np.finfo(float).max])
def test_bound_profile_beyond_2_to_1023_prints_no_nan(capsys, tmp_path, kappa0, fmt):
    # the mini-max kernel scaled such rows by 2^1024 = inf and printed nan
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"n": 2, "scalar": 0, "kappa0": kappa0,
                                "ric_norm_sq_min": 1}))
    assert cli.main(["bound", "--profile", str(path), *fmt]) == 0
    captured = capsys.readouterr()
    assert "nan" not in captured.out.lower() and captured.err == ""


@pytest.mark.parametrize("eigs", [[1e160, -1e160], [1.3e154, -1.3e154]])
def test_bound_eigenvalue_squares_beyond_float_range_exit_1(capsys, tmp_path, eigs):
    # each square overflows, or only their sum does (fsum raised OverflowError)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"n": 2, "scalar": 0, "kappa0": min(eigs),
                                "ric_norm_sq_min": 1, "eigenvalues": eigs}))
    assert cli.main(["bound", "--profile", str(path)]) == 1
    captured = capsys.readouterr()
    assert "sum of squared eigenvalues = inf does not match" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("ode", "--f0", "0.5", "--out", "{tmp}/t.csv"),
    ("bound", "--example", "m7-sigma"),
    ("bound", "--example", "t2xs2"),
    ("sweep", "--example", "m7-sigma", "--param", "f0",
     "--from", "0.1", "--to", "0.5", "--steps", "3"),
    ("bound", "--profile", "{tmp}/profile.json"),
    ("verify", "--dim", "4", "--trials", "10"),
])
def test_non_finite_tolerance_exits_1(run_cli, tmp_path, argv):
    # a NaN tolerance once made the ODE solver loop forever
    (tmp_path / "profile.json").write_text(json.dumps(
        {"n": 4, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = run_cli(*argv, "--tol", "nan", expect=1, timeout=60)
    assert "tolerance must be finite and positive" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["bound", "--profile", "{tmp}/profile.json"],
    ["verify", "--dim", "4", "--trials", "10"],
])
def test_negative_tolerance_exits_1(capsys, tmp_path, argv):
    # --tol is checked once after parsing, not where a command uses it
    (tmp_path / "profile.json").write_text(json.dumps(
        {"n": 4, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli.main(argv + ["--tol", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "tolerance must be finite and positive" in out.err


def test_verify_trials_cap_exits_1(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the batch must be refused before it allocates")

    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    monkeypatch.setattr(np, "empty", forbidden)
    assert cli.main(["verify", "--dim", "8", "--trials", str(10**12)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "trials must be at most" in out.err


def test_verify_negative_seed_exits_1_naming_seed(capsys):
    assert cli.main(["verify", "--dim", "4", "--trials", "10", "--seed", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: seed must be non-negative, got -1\n"


def test_bound_unknown_example_exits_1(run_cli):
    proc = run_cli("bound", "--example", "nope", expect=1)
    assert "unknown example" in proc.stderr


def test_bound_without_information_exits_2(run_cli, tmp_path):
    # hyperbolic surface: every bound is vacuous or inapplicable
    path = tmp_path / "h2.json"
    path.write_text(json.dumps({"n": 2, "scalar": -2.0, "kappa0": -1.0,
                                "ric_norm_sq_min": 2.0,
                                "eigenvalues": [-1, -1]}))
    run_cli("bound", "--profile", str(path), expect=2)


def test_bound_output_file(run_cli, tmp_path):
    out = tmp_path / "report.json"
    run_cli("bound", "--example", "t2xs2", "--json", "--out", str(out), expect=0)
    assert json.loads(out.read_text())["best"]["method"] == "theorem31"


# a command of each kind that writes --out, without the option
WRITERS = [["bound", "--example", "t2xs2"],
           ["sweep", "--example", "m7-sigma", "--param", "f0",
            "--from", "0.1", "--to", "0.9", "--steps", "3"],
           ["ode", "--f0", "0.3"]]


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_failed_rename_leaves_the_out_file(capsys, monkeypatch, tmp_path, argv):
    target = tmp_path / "out.csv"
    target.write_bytes(b"kept\n")

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    assert cli.main([*argv, "--out", str(target)]) == 1
    assert target.read_bytes() == b"kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{target}'\n"


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_write_errors_name_the_out_path(capsys, tmp_path, argv):
    # a missing directory fails the temporary file, a directory the rename;
    # either way the message names --out, not the temporary file
    (tmp_path / "dir").mkdir()
    for target in (tmp_path / "missing" / "x.csv", tmp_path / "dir"):
        errors = []
        for _ in range(2):
            assert cli.main([*argv, "--out", str(target)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: [Errno ")
        assert errors[0].endswith(f": '{target}'\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir"]


def test_empty_out(capsys, monkeypatch, tmp_path):
    # an empty --out is stdout for bound and sweep; ode's --out is the
    # required track path, so an empty one is a path that cannot be written
    monkeypatch.chdir(tmp_path)
    for argv in WRITERS[:2]:
        assert cli.main(argv) == 0
        plain = capsys.readouterr()
        assert cli.main([*argv, "--out", ""]) == 0
        assert capsys.readouterr() == plain
    assert cli.main([*WRITERS[2], "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
      "--from", "1e-300", "--to", "1", "--steps", "3"],
     "sphere radius must lie in [1e-75, 1e75], got 1e-300 (at radius = 1e-300)"),
    (["sweep", "--example", "m7-sigma", "--param", "surface_scalar",
      "--from", "-8", "--to", "12", "--steps", "9", "--kaehler-dim", "2"],
     "complex dimension 2 needs n = 4, profile has n = 7 (at surface_scalar = -8.0)"),
], ids=["row", "kaehler"])
def test_sweep_first_row_error_comes_before_the_out_path(capsys, tmp_path, argv, message):
    # the first block is computed before --out is opened, and an error
    # that the block code raises keeps the row's (at ...) suffix
    for target in (tmp_path / "missing" / "x.csv", tmp_path / "x.csv"):
        assert cli.main([*argv, "--out", str(target)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.rglob("*")) == []


def test_sweep_stdout_is_spooled(capsys, monkeypatch, tmp_path):
    """stdout text is held in memory up to SPOOL_BYTES and spills to a
    temporary file beyond; on both sides it equals the --out file, and a
    sweep that fails in a later block prints nothing."""
    spills = []

    def counted(*args, **kwargs):
        spills.append(args)
        return make_file(*args, **kwargs)

    make_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    monkeypatch.setattr(cli, "SPOOL_BYTES", 300)
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 1)
    argv = ["sweep", "--example", "s2r-x-hyperbolic", "--param", "radius", "--from", "1"]
    for steps, spilled in (("2", 0), ("40", 1)):
        spills.clear()
        assert cli.main([*argv, "--to", "1.5", "--steps", steps]) == 0
        out = capsys.readouterr().out
        assert (len(out) > cli.SPOOL_BYTES, len(spills)) == (spilled, spilled)
        assert cli.main([*argv, "--to", "1.5", "--steps", steps,
                         "--out", str(tmp_path / "x.csv")]) == 0
        assert (tmp_path / "x.csv").read_text() == out
    # the first row out of range is the seventh, or the twenty-second
    for steps, value, spilled in (("11", "1.2e+75", 0), ("41", "1.05e+75", 1)):
        spills.clear()
        assert cli.main([*argv, "--to", "2e75", "--steps", steps]) == 1
        assert capsys.readouterr() == ("", "error: sphere radius must lie in "
                                       f"[1e-75, 1e75], got {value} (at radius = {value})\n")
        assert len(spills) == spilled


def test_only_cli_writes_files():
    # every --out file goes through cli._write_whole; no other module of
    # the package opens or writes a file
    calls = {}
    for path in sorted((ROOT / "src" / "diracbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("open", "write_text", "write_bytes"):
                    calls.setdefault(path.name, []).append(name)
    assert calls == {"cli.py": ["open"]}


def test_bound_json_deterministic(run_cli):
    args = ("bound", "--example", "s2r-x-hyperbolic", "--json")
    assert run_cli(*args, expect=0).stdout == run_cli(*args, expect=0).stdout


def test_sweep_csv_shape(run_cli, tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
            "--from", "0.9", "--to", "1.0", "--steps", "2",
            "--kaehler-dim", "2", "--out", str(out), expect=0)
    lines = out.read_text().splitlines()
    assert lines[0] == "param,friedrich,kaehler,theorem31,minimax_numeric,best"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.9
    assert float(first[3]) > 0.0


def test_sweep_restricted_columns(run_cli):
    proc = run_cli("sweep", "--example", "t2xs2", "--param", "radius",
                   "--from", "1.0", "--to", "2.0", "--steps", "2",
                   "--bounds", "friedrich", expect=0)
    row = proc.stdout.splitlines()[1].split(",")
    assert row[1] != "" and row[2] == "" and row[3] == "" and row[4] == ""
    assert row[5] == row[1]  # best falls back to the only column


def test_sweep_kaehler_column_empty_without_dim(run_cli):
    proc = run_cli("sweep", "--example", "t2xs2", "--param", "radius",
                   "--from", "1.0", "--to", "2.0", "--steps", "2", expect=0)
    assert proc.stdout.splitlines()[1].split(",")[2] == ""


def test_sweep_deterministic_bytes(run_cli):
    args = ("sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
            "--from", "0.5", "--to", "1.5", "--steps", "7", "--kaehler-dim", "2")
    assert run_cli(*args, expect=0).stdout == run_cli(*args, expect=0).stdout


@pytest.mark.parametrize("extra", [
    ("--from", "2.0", "--to", "1.0", "--steps", "5"),   # reversed range
    ("--from", "1.0", "--to", "2.0", "--steps", "1"),   # too few steps
    ("--from", "1.0", "--to", "2.0", "--steps", "5", "--bounds", "bogus"),
])
def test_sweep_validation_exits_1(run_cli, extra):
    run_cli("sweep", "--example", "t2xs2", "--param", "radius", *extra, expect=1)


@pytest.mark.parametrize("span,flag", [
    (("--from", "1", "--to", "inf"), "--to"),
    (("--from", "nan", "--to", "2"), "--from"),
    (("--from=-inf", "--to", "2"), "--from"),
    (("--from=-1e308", "--to", "1e308"), "--to minus --from"),
])
def test_sweep_rejects_non_finite_endpoints(run_cli, span, flag):
    proc = run_cli("sweep", "--example", "t2xs2", "--param", "radius", *span,
                   "--steps", "3", expect=1)
    assert f"{flag} must be finite" in proc.stderr
    assert proc.stdout == "" and "Warning" not in proc.stderr


@pytest.mark.parametrize("extra", [
    ("--from", "nan", "--to", "2", "--steps", "3"),
    ("--from", "2.0", "--to", "1.0", "--steps", "5"),
    ("--from", "1.0", "--to", "2.0", "--steps", "1"),
    ("--from", "1.0", "--to", "2.0", "--steps", "5", "--bounds", "bogus"),
], ids=["finite", "order", "steps", "bounds"])
def test_sweep_flag_checks_raise_parameter_range(extra):
    args = cli._parse(["sweep", "--example", "t2xs2", "--param", "radius", *extra])
    with pytest.raises(ParameterRange):
        args.func(args)


@pytest.mark.parametrize("text,message", [
    ("{", "is not valid JSON"), ("[" * 100000, "nests too deeply to parse")],
    ids=["invalid", "deep"])
def test_unparsable_json_raises_malformed_document(tmp_path, text, message):
    path = tmp_path / "document.json"
    path.write_text(text)
    with pytest.raises(MalformedDocument, match=message):
        cli._load_json(path)


def test_negative_exponent_values_are_not_options(capsys):
    argv = ["sweep", "--example", "m7-sigma", "--param", "surface_scalar",
            "--to", "1", "--steps", "2"]
    assert cli.main(argv + ["--from", "-1e-3"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(argv + ["--from=-1e-3"]) == 0
    assert capsys.readouterr().out == spaced
    assert spaced.splitlines()[1].startswith("-0.001,")
    parser = cli.build_parser()
    for text, value in (("-1e-3", -1e-3), ("-1.5E+2", -150.0), ("-.5", -0.5)):
        assert parser.parse_args(["ode", "--f0", text, "--out", "x"]).f0 == value
        assert parser.parse_args(["bound", "--example", "t2xs2",
                                  "--tol", text]).tol == value
        assert parser.parse_args(["verify", "--dim", "4", "--tol", text]).tol == value


def test_sweep_negative_scalar_cells_are_not_negative_zero(run_cli):
    proc = run_cli("sweep", "--example", "m7-sigma", "--param", "surface_scalar",
                   "--from", "-8", "--to", "0", "--steps", "41", expect=0)
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 41
    # the param column is negative here; no bound cell may print -0
    assert not [cell for row in rows for cell in row[1:] if cell.startswith("-0")]


def test_sweep_rows_independent_of_block_size(capsys, monkeypatch):
    """Same bytes at any block size; theorem31_block runs once per block,
    for the theorem31 and minimax_numeric columns both: the first block
    is the first row's check."""
    argv = ["sweep", "--example", "m7-sigma", "--param", "surface_scalar",
            "--from", "-8", "--to", "12", "--steps", "150"]
    real, calls = bounds.theorem31_block, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "theorem31_block", counted)
    outputs = []
    for size in (1, 7, cli.SWEEP_BLOCK):
        monkeypatch.setattr(cli, "SWEEP_BLOCK", size)
        calls.clear()
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert len(calls) == -(-150 // size)
    assert outputs[0].count("\n") == 151
    assert outputs[0] == outputs[1] == outputs[2]


def _csv_reference(params, cells):
    """_csv_block one cell at a time, each through "%.17g"."""
    lines = []
    for r, param in enumerate(params.tolist()):
        row, best = ["%.17g" % param], None
        for name in cli.SWEEP_COLUMNS:
            values, applicable = cells.get(name, (None, None))
            if values is None or (applicable is not True and not applicable[r]):
                row.append("")
                continue
            value = float(values[r])
            row.append("%.17g" % value)
            if best is None or value > best:
                best = value
        row.append("" if best is None else "%.17g" % best)
        lines.append(",".join(row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("selected", [
    names for size in range(len(cli.SWEEP_COLUMNS) + 1)
    for names in itertools.combinations(cli.SWEEP_COLUMNS, size)])
def test_csv_block_matches_per_cell_format(selected):
    rng = np.random.default_rng(len(selected))
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308,
               0.1, 1.0 / 3.0, -2.5, 1e22]
    rows = 40
    params = np.concatenate((special, rng.normal(size=rows - len(special))))
    cells = {}
    for name in selected:
        values = rng.permutation(np.concatenate((special, rng.normal(
            scale=10.0, size=rows - len(special)))))
        values[rng.random(rows) < 0.2] = -0.0   # ties with 0 keep the first
        applicable = True if name == "friedrich" else rng.random(rows) < 0.7
        cells[name] = values, applicable
    assert cli._csv_block(params, cells) == _csv_reference(params, cells)


def test_bound_and_sweep_pick_one_best(capsys, tmp_path):
    # friedrich lies 1 ulp below theorem31 here; bound's best row and the
    # sweep's first row must print the same value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"product": [
        {"einstein": {"n": 2, "scalar": 0.9999999999999273}}, {"surface": {"scalar": 2.0}}]}))
    assert cli.main(["bound", "--csv", "--spec", str(path)]) == 0
    best = capsys.readouterr().out.splitlines()[-1].split(",")
    assert cli.main(["sweep", "--spec", str(path), "--param", "surface_scalar",
                     "--from", "2.0", "--to", "3.0", "--steps", "2"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert best[:2] == ["best", row[-1]] and best[-1] == "theorem31"
    assert row[-1] == row[3]    # the theorem31 column


def test_sweep_radius_outside_float_range_exits_1(run_cli):
    # 1e-200 squares to 0.0, which once ended in a bare "float division by zero"
    proc = run_cli("sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
                   "--from", "1e-200", "--to", "1", "--steps", "2", expect=1)
    assert "sphere radius" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_sweep_binding_must_be_unique(run_cli):
    proc = run_cli("sweep", "--example", "t2xs2", "--param", "f0",
                   "--from", "0.1", "--to", "0.5", "--steps", "3", expect=1)
    assert "exactly one" in proc.stderr


def test_ode_summary_and_track(run_cli, schema_validator, tmp_path):
    out = tmp_path / "track.csv"
    proc = run_cli("ode", "--f0", "0.3", "--out", str(out), expect=0)
    summary = json.loads(proc.stdout)
    schema_validator("ode_summary.v1", summary)
    assert summary["energy_drift"] < 1e-8
    assert summary["scalar"] == pytest.approx(3.2)
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,F,Fp,kappa1,kappa2"
    assert len(lines) == 1 + summary["samples"]


def test_track_csv_deterministic(capsys, tmp_path):
    traj = integrate_warp(0.3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert cli.main(["ode", "--f0", "0.3", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "tau,F,Fp,kappa1,kappa2"
    assert len(lines) == 1 + len(traj.tau)
    # 17 significant digits round-trip
    tau1 = float(lines[1].split(",")[0])
    assert tau1 == traj.tau[0]


def test_track_csv_bytes_match_the_per_cell_format(capsys, tmp_path):
    traj = integrate_warp(0.3)
    track = curvature_track(traj)
    path = tmp_path / "t.csv"
    assert cli.main(["ode", "--f0", "0.3", "--out", str(path)]) == 0
    rows = zip(traj.tau, traj.F, traj.Fp, track.kappa1, track.kappa2)
    expected = "tau,F,Fp,kappa1,kappa2\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


def test_ode_constant_orbit(run_cli, tmp_path):
    out = tmp_path / "flat.csv"
    proc = run_cli("ode", "--f0", "1.0", "--out", str(out), expect=0)
    summary = json.loads(proc.stdout)
    assert summary["f_min"] == summary["f_max"] == 1.0
    rows = out.read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "1" for row in rows)


def test_ode_rejects_other_dimensions(run_cli, tmp_path):
    # the curvature formulas are those of n = 5, and ode has no --n
    for n in (4, 5, 7, 10**12, 10**16):
        proc = run_cli("ode", "--n", str(n), "--f0", "0.3",
                       "--out", str(tmp_path / "y.csv"), expect=1)
        assert "unrecognized arguments: --n" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_ode_refuses_a_tail_above_tol(run_cli, tmp_path):
    # at f0 = 1e-100 the node cap leaves a Fourier tail of 8.3e-10
    out = tmp_path / "t.csv"
    proc = run_cli("ode", "--f0", "1e-100", "--out", str(out), expect=1)
    assert "did not converge" in proc.stderr
    assert "tail 8.26e-10" in proc.stderr and "tol = 1e-10" in proc.stderr
    assert "--tol" in proc.stderr
    assert not list(tmp_path.iterdir())
    run_cli("ode", "--f0", "1e-100", "--tol", "1e-9", "--out", str(out), expect=0)
    assert out.exists()


def test_ode_near_the_equilibrium(run_cli, tmp_path):
    # small orbits around F = 1 reach the default --tol; outside the
    # constant band |f0 - 1| <= 1e-12 they have the period pi sqrt(5)
    for f0 in ("0.99999999", "1.0000000001"):
        out = tmp_path / "t.csv"
        proc = run_cli("ode", "--f0", f0, "--out", str(out), expect=0)
        summary = json.loads(proc.stdout)
        assert summary["period"] == pytest.approx(math.pi * math.sqrt(5.0), rel=1e-15)
        assert summary["f_min"] < 1.0 < summary["f_max"]


def test_verify_ok(run_cli, schema_validator):
    proc = run_cli("verify", "--dim", "4", "--trials", "200", "--seed", "42",
                   "--json", expect=0)
    doc = json.loads(proc.stdout)
    schema_validator("verify_summary.v1", doc)
    assert doc["ok"] is True
    assert doc["max_residual"] <= 1e-12


@settings(max_examples=25)
@given(st.integers(2, 8), st.integers(1, 300), st.integers(2**32, 2**300),
       st.one_of(st.floats(1e-17, 1e-11), st.sampled_from([1e-30, 1e-12])))
def test_verify_json_in_process(schema_validator, dim, trials, seed, tol):
    argv = ["verify", "--dim", str(dim), "--trials", str(trials),
            "--seed", str(seed), "--tol", repr(tol), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    doc = json.loads(out.getvalue())
    schema_validator("verify_summary.v1", doc)
    assert (doc["n"], doc["trials"], doc["seed"], doc["tolerance"]) == (dim, trials, seed, tol)
    assert doc["max_residual"] == max(doc["trace_residual_full"],
                                      doc["trace_residual_traceless"],
                                      doc["lemma_residual"])
    assert code in (0, 3)
    assert (code == 0) == doc["ok"] == (doc["max_residual"] <= tol)


def test_verify_text_output(run_cli):
    proc = run_cli("verify", "--dim", "7", "--trials", "100", "--seed", "7",
                   expect=0)
    assert "ok" in proc.stdout


def test_verify_residual_breach_exits_3(run_cli):
    # an impossible tolerance turns round-off into a reported breach
    proc = run_cli("verify", "--dim", "4", "--trials", "20", "--seed", "1",
                   "--tol", "1e-30", expect=3)
    assert "BREACH" in proc.stdout


def test_verify_bad_dimension_exits_1(run_cli):
    proc = run_cli("verify", "--dim", "9", expect=1)
    assert "2 <= n <= 8" in proc.stderr


def test_catalog_list(run_cli, schema_validator):
    proc = run_cli("catalog-list", expect=0)
    for name in ("t2xs2", "warp5", "m7-negative-scalar"):
        assert name in proc.stdout
    doc = json.loads(run_cli("catalog-list", "--json", expect=0).stdout)
    schema_validator("catalog_list.v1", doc)
    assert len(doc["examples"]) == 6


def test_usage_errors_exit_1(run_cli):
    run_cli(expect=1)                                   # no subcommand
    run_cli("bound", expect=1)                          # no input source
    run_cli("bound", "--example", "t2xs2", "--bogus", expect=1)
    run_cli("frobnicate", expect=1)


@pytest.mark.parametrize("name", [
    "profile.v1", "manifold_spec.v1", "bound_report_set.v1",
    "ode_summary.v1", "verify_summary.v1", "catalog_list.v1",
])
def test_shipped_schema_is_well_formed(name):
    import jsonschema

    import diracbound as db

    jsonschema.Draft202012Validator.check_schema(db.load_schema(name))


def test_cli_bytes_match_golden_file():
    # scripts/cli_golden.py recorded these outputs; a refactor must keep them
    spec = importlib.util.spec_from_file_location(
        "cli_golden", ROOT / "scripts" / "cli_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    recorded = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    assert [case["argv"] for case in recorded] == [list(a) for a in golden.invocations()]
    for case in recorded:
        assert golden.capture(case["argv"]) == case, case["argv"]


_MODULE_PROBE = """
import contextlib, io, json, sys
import diracbound.cli as cli
loaded = set(sys.modules)
new = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    new[argv[0]] = [code, sorted(set(sys.modules) - loaded)]
print(json.dumps({"scipy": sorted(m for m in loaded if m.split(".")[0] == "scipy"),
                  "new": new}))
"""


def test_cli_imports_no_scipy_and_main_imports_nothing(tmp_path):
    # every module a command needs is imported with diracbound.cli, so
    # none of the import cost lands inside main
    argvs = [
        ["bound", "--example", "warp5", "--csv"],
        ["sweep", "--example", "m7-sigma", "--param", "f0",
         "--from", "0.1", "--to", "0.9", "--steps", "3"],
        ["ode", "--f0", "0.3", "--out", str(tmp_path / "track.csv")],
        ["verify", "--dim", "4", "--trials", "10"],
        ["catalog-list", "--json"],
    ]
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(proc.stdout)
    assert report["scipy"] == []
    assert report["new"] == {argv[0]: [0, []] for argv in argvs}


def test_main_builds_only_the_invoked_subparser(monkeypatch, tmp_path):
    """The work, not the time: parsers built per run of main. A command
    builds exactly one, its own; no arguments, help, an unknown command
    and an unrecognized argument build the full parser, which is the
    top-level parser and all five subparsers."""
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    every = ["diracbound"] + [f"diracbound {name}" for name in cli.COMMANDS]
    runs = [(["bound", "--example", "t2xs2"], 0, ["diracbound bound"]),
            (["sweep", "--example", "m7-sigma", "--param", "f0",
              "--from", "0.1", "--to", "0.9", "--steps", "3"], 0, ["diracbound sweep"]),
            (["ode", "--f0", "0.3", "--out", str(tmp_path / "t.csv")], 0,
             ["diracbound ode"]),
            (["verify", "--dim", "4", "--trials", "10"], 0, ["diracbound verify"]),
            (["catalog-list"], 0, ["diracbound catalog-list"]),
            (["bound", "-h"], 0, ["diracbound bound"]),
            (["bound"], 1, ["diracbound bound"]),
            ([], 1, every), (["-h"], 0, every), (["frobnicate"], 1, every),
            (["bound", "--example", "t2xs2", "--bogus"], 1, ["diracbound bound", *every])]
    for argv, code, progs in runs:
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == code, argv
        assert built == progs, argv
    built.clear()
    cli.build_parser()
    assert built == every


@pytest.mark.parametrize("argv", [
    ["bound", "--example", "t2xs2", "--json", "--kaehler-dim", "2"],
    ["bound", "--exam", "t2xs2", "--tol=-1e-3"],
    ["sweep", "--example", "m7-sigma", "--param", "surface_scalar",
     "--from", "-1e-3", "--to", "1", "--steps", "2", "--bounds", "friedrich"],
    ["ode", "--f0=0.3", "--out", "x.csv"],
    ["verify", "--dim", "8", "--seed", "7", "--json"],
    ["catalog-list"],
])
def test_command_parser_reads_argv_as_the_full_parser_does(argv):
    assert cli._parse(argv) == cli.build_parser().parse_args(argv)
