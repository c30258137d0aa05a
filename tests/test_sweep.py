"""The column-form sweep: row-by-row equivalence, failures, streaming."""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sweep_oracle import oracle_sweep

from diracbound import (Einstein, InconsistentProfile, Product, Sphere,
                        Surface, Warped, bounds, catalog, cli, make_profile,
                        optimize_minimax, realize, spec_from_dict, spec_to_dict,
                        warp)
from diracbound.errors import CrossCheckFailed


def _sweep(spec, param, start, stop, steps, extra=()):
    """(stdout, None) of cmd_sweep run in-process, or (stdout, exception)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        args = cli.build_parser().parse_args(
            ["sweep", "--spec", str(path), "--param", param, f"--from={start!r}",
             f"--to={stop!r}", "--steps", str(steps), *extra])
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                cli.cmd_sweep(args)
        except Exception as exc:  # noqa: BLE001 (compared with the oracle's)
            return out.getvalue(), exc
    return out.getvalue(), None


# --- row-by-row oracle ------------------------------------------------------

_VARIED = {"radius": Sphere(1.0), "surface_scalar": Surface(0.0), "f0": Warped(5, 0.5)}
_RANGES = {
    "radius": st.floats(1e-3, 5.0) | st.sampled_from([1e-76, 1e-75, 1e75]),
    "surface_scalar": st.floats(-50.0, 50.0),
    "f0": st.floats(0.01, 1.2),
}


def _fixed_leaves(param):
    kinds = [st.builds(Einstein, st.integers(2, 6), st.floats(-20.0, 20.0))]
    if param != "radius":
        kinds.append(st.builds(Sphere, st.floats(0.2, 5.0)))
    if param != "surface_scalar":
        kinds.append(st.builds(Surface, st.floats(-20.0, 20.0)))
    if param != "f0":
        kinds.append(st.builds(Warped, st.just(5), st.floats(0.05, 1.0)))
    return st.one_of(kinds)


@st.composite
def _tree(draw, items):
    """A random tree of nested two- and three-factor products over items."""
    if len(items) == 1:
        return items[0]
    cuts = sorted(draw(st.sets(st.integers(1, len(items) - 1), min_size=1,
                               max_size=min(2, len(items) - 1))))
    bounds_ = [0, *cuts, len(items)]
    return Product(tuple(draw(_tree(items[lo:hi]))
                         for lo, hi in zip(bounds_, bounds_[1:])))


@st.composite
def _sweeps(draw):
    param = draw(st.sampled_from(sorted(_VARIED)))
    fixed = draw(st.lists(_fixed_leaves(param), max_size=3))
    if param != "f0":   # at most one warped factor
        warped = [leaf for leaf in fixed if isinstance(leaf, Warped)]
        fixed = [leaf for leaf in fixed if not isinstance(leaf, Warped)] + warped[:1]
    items = draw(st.permutations([*fixed, _VARIED[param]]))
    spec = draw(_tree(items))
    start = draw(_RANGES[param])
    stop = start + draw(st.floats(1e-6, 10.0))
    assume(start < stop)
    steps = draw(st.integers(2, 12))
    selected = draw(st.lists(st.sampled_from(cli.SWEEP_COLUMNS), min_size=1,
                             unique=True))
    n = sum(getattr(leaf, "n", 2) for leaf in catalog.leaves(spec))
    kaehler = draw(st.sampled_from([None, n // 2, n // 2 + 1]))
    extra = ["--bounds", ",".join(selected)]
    if kaehler is not None:
        extra += ["--kaehler-dim", str(kaehler)]
    return spec, param, start, stop, steps, selected, kaehler, extra


@settings(max_examples=150)
@given(_sweeps())
def test_columns_match_row_by_row_oracle(case):
    spec, param, start, stop, steps, selected, kaehler, extra = case
    text, exc, value = oracle_sweep(spec, param, start, stop, steps,
                                    selected, kaehler)
    out, err = _sweep(spec, param, start, stop, steps, extra)
    if exc is None:
        assert err is None, err
        assert out == text
        return
    assert out == ""
    assert type(err) is type(exc), (err, exc)
    assert f"(at {param} = {value!r})" in str(err)
    if not isinstance(exc, CrossCheckFailed):
        assert str(exc) in str(err)


def test_pinned_nested_product_matches_oracle_over_blocks():
    # Einstein factors in a nested product, with rows in two blocks
    spec = Product((Product((Einstein(3, -1.5), Sphere(1.0))), Surface(-2.0)))
    text, exc, _ = oracle_sweep(spec, "radius", 0.3, 3.0, cli.SWEEP_BLOCK + 50)
    assert exc is None
    assert _sweep(spec, "radius", 0.3, 3.0, cli.SWEEP_BLOCK + 50) == (text, None)


def test_sweep_bytes_independent_of_sweep_block(capsys, monkeypatch):
    argv = ["sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
            "--from", "0.3", "--to", "3", "--steps", "150", "--kaehler-dim", "2"]
    outputs, block = [], cli.SWEEP_BLOCK
    for size in (1, 7, block):
        monkeypatch.setattr(cli, "SWEEP_BLOCK", size)
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].count("\n") == 151
    assert outputs[0] == outputs[1] == outputs[2]
    # over several blocks, the last of them partial: the bytes of blocks of 512
    for steps, flags in ((2 * block + 3, ["--example", "s2r-x-hyperbolic", "--param", "radius",
                                          "--from", "0.3", "--to", "3", "--kaehler-dim", "2"]),
                         (block + 3, ["--example", "m7-sigma", "--param", "f0",
                                      "--from", "0.2", "--to", "0.8"])):
        outputs = []
        for size in (512, block):
            monkeypatch.setattr(cli, "SWEEP_BLOCK", size)
            assert cli.main(["sweep", *flags, "--steps", str(steps)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].count("\n") == steps + 1
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("start,stop,steps", [
    (0.52, 1.97, 2000), (-7.8, 11.7, 5000), (1e-320, 2e-320, 3000), (0.0, 5e-324, 3)])
def test_sweep_grid_is_linspace_by_blocks(start, stop, steps):
    grid = np.concatenate([
        cli._sweep_grid(start, stop, steps, lo, min(lo + 777, steps))
        for lo in range(0, steps, 777)])
    assert grid.tobytes() == np.linspace(start, stop, steps).tobytes()


# --- failures ---------------------------------------------------------------

def _radius_argv(*extra):
    return ["sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
            "--from", "9.99e74", "--to", "1.0001e75", "--steps", "5000", *extra]


def test_sweep_leaving_radius_range_in_last_rows_writes_nothing(capsys, tmp_path):
    grid = np.linspace(9.99e74, 1.0001e75, 5000)
    first = int(np.argmax(grid > 1e75))
    assert cli.SWEEP_BLOCK < first < 5000 - 1   # fails in a later block
    assert cli.main(_radius_argv()) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "sphere radius must lie in" in out.err
    assert f"(at radius = {float(grid[first])!r})" in out.err

    target = tmp_path / "sweep.csv"
    assert cli.main(_radius_argv("--out", str(target))) == 1
    assert not target.exists()
    target.write_text("kept\n")
    assert cli.main(_radius_argv("--out", str(target))) == 1
    assert target.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_sweep_failing_inside_the_first_block_writes_nothing(capsys, monkeypatch, tmp_path):
    """A first failing row past 512 but inside the first block raises before
    the sweep writes anything, with the stderr of a sweep in blocks of 512."""
    argv = _radius_argv()
    argv[argv.index("--steps") + 1] = "1100"
    grid = np.linspace(9.99e74, 1.0001e75, 1100)
    first = int(np.argmax(grid > 1e75))
    assert 512 < first < cli.SWEEP_BLOCK   # fails in the first block
    real, writes, errors = cli._write_whole, [], []

    def counted(out_path, write):
        writes.append(size)
        return real(out_path, write)

    monkeypatch.setattr(cli, "_write_whole", counted)
    for size in (512, cli.SWEEP_BLOCK):
        monkeypatch.setattr(cli, "SWEEP_BLOCK", size)
        for extra in ((), ("--out", str(tmp_path / "sweep.csv"))):
            assert cli.main([*argv, *extra]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            errors.append(out.err)
            assert list(tmp_path.iterdir()) == []
    assert writes == [512, 512]   # only blocks of 512 reach the writer
    assert len(set(errors)) == 1
    assert "sphere radius must lie in" in errors[0]
    assert f"(at radius = {float(grid[first])!r})" in errors[0]


def test_sweep_out_file_replaced_only_when_complete(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    target.write_text("old\n")
    argv = ["sweep", "--example", "m7-sigma", "--param", "surface_scalar",
            "--from", "-8", "--to", "12", "--steps", "9"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert cli.main([*argv, "--out", str(target)]) == 0
    assert target.read_text() == stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_make_profile_rejects_scalar_whose_square_overflows():
    with pytest.raises(InconsistentProfile, match="'scalar' = 1e\\+155 is too large"):
        make_profile(64, 1e155, 1e155 / 64, 1e155 * (1e155 / 64))
    # scalars just below the overflow are still accepted
    for scalar in (1.3e154, -1.3e154):
        assert make_profile(2, scalar, scalar / 2, scalar * scalar / 2).scalar == scalar


def test_bound_spec_with_overflowing_scalar_exits_1(run_cli, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"product": [{"einstein": {"n": 64, "scalar": 1e155}},
                                            {"surface": {"scalar": 1}}]}))
    proc = run_cli("bound", "--spec", str(path), expect=1)
    assert "'scalar' = 1e+155 is too large" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_sweep_row_with_overflowing_scalar_names_the_row():
    # each factor is valid; the product's scalar 2e154 squares past the range
    spec = Product((Einstein(2, 1e154), Surface(0.0)))
    out, err = _sweep(spec, "surface_scalar", 1e150, 1e154, 2,
                      ("--bounds", "friedrich"))
    assert out == "" and isinstance(err, InconsistentProfile)
    assert "'scalar' = 2e+154 is too large" in str(err)
    assert "(at surface_scalar = 1e+154)" in str(err)


def test_bound_on_curvature_beyond_1e77_exits_0(tmp_path, capsys):
    # A is of order 1e300 here, and A^2 overflows unless the row is scaled
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"product": [{"einstein": {"n": 2, "scalar": 1}},
                                            {"surface": {"scalar": 1e150}}]}))
    assert cli.main(["bound", "--spec", str(path), "--json"]) == 0
    reports = {r["method"]: r["value"] for r in json.loads(capsys.readouterr().out)["reports"]}
    assert reports["theorem31"] == pytest.approx(reports["minimax_numeric"], rel=1e-9)


def test_radius_sweep_from_1e_minus_75_exits_0(capsys):
    argv = ["sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
            "--from", "1e-75", "--to", "1e-74", "--steps", "4"]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.count("\n") == 5
    first = out.out.splitlines()[1].split(",")
    assert float(first[3]) == pytest.approx(float(first[4]), rel=1e-9)


# --- exit code 4 ------------------------------------------------------------

def _disagree(value, f_s0):
    return np.zeros(np.shape(value), bool)


def test_bound_cross_check_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "_closed_forms_agree", _disagree)
    assert cli.main(["bound", "--example", "t2xs2"]) == cli.EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "internal cross-check failed: closed form 0.7071067811865476" in out.err


def test_sweep_cross_check_failure_exits_4_and_names_the_row(capsys, monkeypatch):
    # the fault depends on the value, not on the row's place in a block,
    # so the row check sees it as the column code does
    def disagree_late(value, f_s0):
        return ~(np.asarray(value) < 0.6)

    monkeypatch.setattr(bounds, "_closed_forms_agree", disagree_late)
    argv = ["sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
            "--from", "0.5", "--to", "1.5", "--steps", "9"]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "internal cross-check failed" in out.err
    assert "(at radius = 0.875)" in out.err


_BIG_N = 10**308   # a JSON integer that is a float; two of them sum past floats


@pytest.mark.parametrize("spec,argv,code,message", [
    ({"product": [{"sphere": {"radius": 1.0}}, {"surface": {"scalar": -2.0}}]},
     ["--param", "radius", "--from", "0.5", "--to", "1.001e75", "--steps", "1500"],
     cli.EXIT_USAGE, "sphere radius must lie in [1e-75, 1e75], got 1.0003322214809872e+75 "
                     "(at radius = 1.0003322214809872e+75)"),   # row 1498
    ({"product": [{"sphere": {"radius": 1.0}}, {"surface": {"scalar": -2.0}}]},
     ["--param", "radius", "--from", "0.5", "--to", "1e76", "--steps", "5",
      "--kaehler-dim", "3"],
     cli.EXIT_USAGE, "complex dimension 3 needs n = 6, profile has n = 4 (at radius = 0.5)"),
    ({"product": [{"einstein": {"n": 2, "scalar": -339535793094.0}},
                  {"surface": {"scalar": 1.0}}]},
     ["--param", "surface_scalar", "--from", "-2", "--to", "2", "--steps", "2001"],
     cli.EXIT_INTERNAL, "(at surface_scalar = 0.014000000000000234)"),
    ({"product": [{"einstein": {"n": _BIG_N, "scalar": 1.0}},
                  {"einstein": {"n": _BIG_N, "scalar": 1.0}}, {"surface": {"scalar": 1.0}}]},
     ["--param", "surface_scalar", "--from", "0", "--to", "1", "--steps", "3"],
     cli.EXIT_USAGE, f"einstein field 'n' must be at most 1000000, got {_BIG_N} "
                     "(at surface_scalar = 0.0)"),
    # the Kaehler rule breaks every row, so it wins over a later cross-check
    ({"product": [{"einstein": {"n": 2, "scalar": -339535793094.0}},
                  {"surface": {"scalar": 1.0}}]},
     ["--param", "surface_scalar", "--from", "-2", "--to", "2", "--steps", "2001",
      "--kaehler-dim", "3"],
     cli.EXIT_USAGE, "complex dimension 3 needs n = 6, profile has n = 4 "
                     "(at surface_scalar = -2.0)"),
    # and a realize rule of the same row wins over the Kaehler rule
    ({"product": [{"einstein": {"n": _BIG_N, "scalar": 1.0}},
                  {"einstein": {"n": _BIG_N, "scalar": 1.0}}, {"surface": {"scalar": 1.0}}]},
     ["--param", "surface_scalar", "--from", "0", "--to", "1", "--steps", "3",
      "--kaehler-dim", "2"],
     cli.EXIT_USAGE, f"einstein field 'n' must be at most 1000000, got {_BIG_N} "
                     "(at surface_scalar = 0.0)"),
], ids=["later-block", "kaehler-dim", "cross-check", "n-beyond-floats",
        "kaehler-dim-before-cross-check", "n-beyond-floats-before-kaehler-dim"])
def test_failing_sweep_is_reported_from_its_block(capsys, monkeypatch, tmp_path,
                                                  spec, argv, code, message):
    # the block's own record of broken rules names the row and the rule:
    # no row is realized or bounded again to find the message
    def forbidden(*args, **kwargs):
        raise AssertionError("a failing row was computed a second time")

    for module, name in ((cli, "realize"), (catalog, "realize"),
                         (bounds, "kaehler_bound"), (bounds, "theorem31_bound"),
                         (bounds, "optimize_minimax"), (bounds, "best_bound")):
        monkeypatch.setattr(module, name, forbidden)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["sweep", "--spec", str(path), *argv]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.endswith(message + "\n")


def test_minimax_column_exits_4_where_theorem31_fails(capsys, tmp_path):
    # the mini-max column is theorem 3.1's value where that applies, so a
    # row whose cross-check fails fails without the theorem31 column too
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"product": [
        {"einstein": {"n": 2, "scalar": -339535793094.0}}, {"surface": {"scalar": 1.0}}]}))
    errors = []
    for columns in ("friedrich,minimax_numeric", "friedrich,theorem31"):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--spec", str(spec), "--param", "surface_scalar",
                "--from", "1", "--to", "2", "--steps", "2", "--bounds", columns,
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_INTERNAL
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert "internal cross-check failed: closed form" in errors[0]
    assert "(at surface_scalar = 1.0)" in errors[0]
    assert cli.main(["bound", "--spec", str(spec)]) == cli.EXIT_INTERNAL
    with pytest.raises(CrossCheckFailed):
        optimize_minimax(realize(spec_from_dict(json.loads(spec.read_text()))))


def test_ode_energy_drift_failure_exits_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(warp, "ENERGY_DRIFT_RTOL", -1.0)
    assert cli.main(["ode", "--f0", "0.3", "--out", str(tmp_path / "t.csv")]) == 4
    out = capsys.readouterr()
    assert out.out == "" and "energy drift" in out.err
    with pytest.raises(CrossCheckFailed):
        warp.integrate_warp(0.3)
    assert issubclass(CrossCheckFailed, ArithmeticError)


@pytest.mark.parametrize("fault", [ZeroDivisionError, KeyError, ValueError])
@pytest.mark.parametrize("argv,module,name,good_calls,opened", [
    (["bound", "--example", "t2xs2"], bounds, "theorem31_block", 0, False),
    # the first block succeeds, and the second fails once --out's temporary file is open
    (["sweep", "--example", "m7-sigma", "--param", "f0", "--from", "0.2", "--to", "0.8",
      "--steps", str(cli.SWEEP_BLOCK + 2)], bounds, "theorem31_block", 1, True),
    (["ode", "--f0", "0.3"], warp, "curvature_track", 0, False),
], ids=["bound", "sweep", "ode"])
def test_a_fault_of_the_program_exits_4_on_one_line(capsys, monkeypatch, tmp_path, fault,
                                                   argv, module, name, good_calls, opened):
    real, calls, files = getattr(module, name), [], []

    def faulty(*args):
        calls.append(args)
        if len(calls) > good_calls:
            files.extend(path.suffix for path in tmp_path.iterdir())
            raise fault("boom")
        return real(*args)

    monkeypatch.setattr(module, name, faulty)
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal error: {fault.__name__}: {fault('boom')}\n"
    assert len(calls) == good_calls + 1 and files == [".tmp"] * opened
    assert list(tmp_path.iterdir()) == []


# --- memory -----------------------------------------------------------------

def _traced_peak(steps, tmp_path):
    argv = ["sweep", "--example", "m7-sigma", "--param", "surface_scalar",
            "--from", "-7.8", "--to", "11.7", "--steps", str(steps),
            "--bounds", "friedrich,theorem31",
            "--out", str(tmp_path / f"sweep{steps}.csv")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_steps(tmp_path):
    small = _traced_peak(2000, tmp_path)
    large = _traced_peak(10**5, tmp_path)
    assert (tmp_path / "sweep100000.csv").read_text().count("\n") == 10**5 + 1
    # the rows of one block are held, not the sweep: well under 4 MiB more
    assert large - small < 4 * 2**20, (small, large)
