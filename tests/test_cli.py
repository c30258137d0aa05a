"""End-to-end CLI behavior: formats, exit codes, determinism."""

import json

import pytest

from diracbound import bounds, cli


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


def test_bound_malformed_json_exits_1(run_cli, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    proc = run_cli("bound", "--profile", str(path), expect=1)
    assert "JSON" in proc.stderr


def test_bound_diagnostic_names_field(run_cli, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 4, "scalar": 2.0, "kappa0": 0.0}))
    proc = run_cli("bound", "--profile", str(path), expect=1)
    assert "ric_norm_sq_min" in proc.stderr


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


def test_sweep_negative_scalar_cells_are_not_negative_zero(run_cli):
    proc = run_cli("sweep", "--example", "m7-sigma", "--param", "surface_scalar",
                   "--from", "-8", "--to", "0", "--steps", "41", expect=0)
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 41
    # the param column is negative here; no bound cell may print -0
    assert not [cell for row in rows for cell in row[1:] if cell.startswith("-0")]


def test_sweep_rows_independent_of_block_size(capsys, monkeypatch):
    argv = ["sweep", "--example", "m7-sigma", "--param", "surface_scalar",
            "--from", "-8", "--to", "12", "--steps", "150"]
    outputs = []
    for size in (1, 7, bounds.MINIMAX_BLOCK):
        monkeypatch.setattr(bounds, "MINIMAX_BLOCK", size)
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].count("\n") == 151
    assert outputs[0] == outputs[1] == outputs[2]


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


def test_ode_constant_orbit(run_cli, tmp_path):
    out = tmp_path / "flat.csv"
    proc = run_cli("ode", "--f0", "1.0", "--out", str(out), expect=0)
    summary = json.loads(proc.stdout)
    assert summary["f_min"] == summary["f_max"] == 1.0
    rows = out.read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "1" for row in rows)


def test_ode_rejects_other_dimensions(run_cli, tmp_path):
    run_cli("ode", "--n", "4", "--f0", "0.3",
            "--out", str(tmp_path / "x.csv"), expect=1)
    proc = run_cli("ode", "--n", "7", "--f0", "0.3",
                   "--out", str(tmp_path / "y.csv"), expect=1)
    assert "n = 5" in proc.stderr


def test_verify_ok(run_cli, schema_validator):
    proc = run_cli("verify", "--dim", "4", "--trials", "200", "--seed", "42",
                   "--json", expect=0)
    doc = json.loads(proc.stdout)
    schema_validator("verify_summary.v1", doc)
    assert doc["ok"] is True
    assert doc["max_residual"] <= 1e-12


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
