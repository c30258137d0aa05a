"""Regenerate the golden CLI outputs of the test suite.

Runs `diracbound.cli.main` in-process on a fixed list of invocations
(`bound` on every named example in table, CSV and JSON form, plus
t2xs2 with a Kaehler dimension; `catalog-list` with and without
`--json`; one short `sweep` per sweepable parameter; m7-sigma's `bound`
and f0 `sweep` again with `--tol 1e-3`, which must change no byte) and
records the exit code and stdout of each. Long sweeps, which span many
blocks of rows, are recorded as the sha256 and line count of their
stdout: a 2000-row `radius` and a 2000-row `surface_scalar` sweep whose
grids hold values where the C library's pow(x, 2) and the correctly
rounded x * x differ in the last bit on some builds, so the file holds
squares taken as products; a 200-row `f0` sweep, a `--bounds` subset
and two nested-product specs. Failing invocations record their stderr
too: sweeps that fail at the first row, in a later block or where f0
leaves (0, 1], a Kaehler dimension that does not match n, and a spec
with two warped factors; `bound` on a product whose scalars cancel is
recorded with them.
`bound` is recorded on one document per validity rule: `--profile`
documents with a NaN field, kappa0 above R/n, |Ric|^2 below R^2/n, a
scalar whose square overflows, eigenvalue lists of the wrong length,
sum, minimum and squared sum, and n = 10^12, above MAX_EINSTEIN_DIM;
`--spec` documents with an Einstein factor of n = 1 and of n above
MAX_EINSTEIN_DIM, a warped factor of n = 6 and of f0 = 0, a sphere
radius below 1e-75, a product of valid surfaces whose summed scalar
squares past the float range, and products nested 33 deep, one past
MAX_SPEC_DEPTH, and 3000 deep, past what json.loads parses.
`verify` is recorded in JSON at n = 8 with 2000 and with 10 trials and
at n = 4 with 200, and in text at n = 7 with 100, all at one-word
seeds; then at seeds of several 32-bit words: n = 8 with 257 trials
(a last chunk of one trial) at 2^32, two words, n = 5 with 300 at
2^128 + 1, five words, past SeedSequence's four-word pool, and in text
at n = 6 with 50 at a 40-digit seed.
Last come the inputs that theorem 3.1's degeneracy guard once got wrong
when it read A unscaled: `bound` on an Einstein factor, two surfaces
and a sphere whose traceless residue passed it, a 600-row sphere
`radius` sweep (recorded by its sha256) that met such a residue, and,
as CSV, a sphere times a surface at curvature 1e-8, which it refused.
Then argparse's own bytes, at COLUMNS=80, where it wraps help and
usage: no arguments, `-h` and each subcommand's `-h`, an unknown
command, `bound` with no input source or with both `--json` and
`--csv`, `verify --dim x`, a misspelt `sweep --param`, and an argument
that no parser knows, which the top-level parser reports. Then `ode`
with `--n` 4, 7, 10^12 and 10^16, an option it does not have (its
curvature formulas are those of n = 5), with `--out` pointing into the
temporary directory. Then the mini-max column, which reads theorem
3.1's closed form, at its edges: `bound --csv` on a profile whose kappa0
lies above R/n within the profile's slack, on a surface of scalar
-5e-324 (R/n underflows) and on a profile whose |kappa0| = 1e300 dwarfs
|Ric|^2 = 1, a two-row `sweep --bounds friedrich,minimax_numeric`
whose first row fails theorem 3.1's cross-check, `bound --csv` on a
profile whose |kappa0| = 1e278 dwarfs R = 1e-44, and, on a surface of
scalar 31.4 times a five-dimensional Einstein factor of scalar 78.5
(an Einstein product: all seven Ricci eigenvalues are 15.7), `bound
--csv` and a two-row `surface_scalar` sweep from 31.4. Then the warp
turning points: `ode` at f0 = 0.3 and at f0 = 1.3 (above the
equilibrium, so re-based at the orbit's minimum), at f0 = 0.99999999
(where V's divided differences come from its Taylor series at F = 1),
at f0 = 1e-10 (where the nodes are clustered at F_min) and at f0 =
1e-100, which exits 1 with the Fourier tail that the node cap leaves
and writes no track; the `--out` track of each run that writes one is
recorded as its sha256 and line count beside the summary. Then two
300-row m7-sigma `f0` sweeps recorded by their sha256, one over
[1e-9, 1e-3] and one over [0.999, 1], which ends on the constant
orbit. Last, `bound --csv` on a profile whose scalar, kappa0 and
|Ric|^2 are all round-off of order 1e-17, the zero-scalar bound's
relative zero test.
tests/test_cli.py compares a fresh run with the recorded file byte for
byte, so a refactor that changes any of these bytes fails there. Write
the file with

    python scripts/cli_golden.py > tests/cli_golden.json

and review the diff before committing it.
"""

import contextlib
import hashlib
import io
import json
import sys
import os
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diracbound import EXAMPLES, cli  # noqa: E402

SWEEPS = (
    ("--example", "s2r-x-hyperbolic", "--param", "radius",
     "--from", "0.5", "--to", "1.5", "--steps", "9", "--kaehler-dim", "2"),
    ("--example", "m7-sigma", "--param", "surface_scalar",
     "--from", "-8", "--to", "12", "--steps", "9"),
    ("--example", "m7-sigma", "--param", "f0",
     "--from", "0.05", "--to", "1", "--steps", "9"),
)
# --tol is checked, but warped factors are exact: these match the defaults
LOOSE_TOL = ("--tol", "1e-3")


def _deep_spec(depth):
    """JSON text of products nested depth deep; json.dumps recurses too far
    to write the deepest."""
    leaf = '{"surface": {"scalar": 1.0}}'
    return '{"product": [' * depth + leaf + (", " + leaf + "]}") * depth


# spec and profile documents passed by name: capture() writes each to a
# file, as JSON text if it is a string and through json.dumps otherwise
DOCUMENTS = {
    "<nested-sphere>": {"product": [
        {"product": [{"einstein": {"n": 4, "scalar": -2.0}},
                     {"sphere": {"radius": 1.0}}]},
        {"surface": {"scalar": -2.0}}]},
    "<nested-warped>": {"product": [
        {"surface": {"scalar": 4.0}},
        {"product": [{"einstein": {"n": 2, "scalar": 1.0}},
                     {"warped": {"n": 5, "f0": 0.3}}]}]},
    "<two-warped>": {"product": [
        {"surface": {"scalar": 1.0}}, {"warped": {"n": 5, "f0": 0.3}},
        {"warped": {"n": 5, "f0": 0.5}}]},
    "<cancelling>": {"product": [{"einstein": {"n": 7, "scalar": 1e5}},
                                 {"surface": {"scalar": -1e5}}]},
    "<einstein-n-1>": {"einstein": {"n": 1, "scalar": 1.0}},
    "<einstein-n-over-cap>": {"einstein": {"n": 10**6 + 1, "scalar": 1.0}},
    "<warped-n-6>": {"warped": {"n": 6, "f0": 0.3}},
    "<warped-f0-0>": {"warped": {"n": 5, "f0": 0.0}},
    "<sphere-1e-76>": {"sphere": {"radius": 1e-76}},
    "<overflowing-product>": {"product": [{"surface": {"scalar": 1e154}},
                                          {"surface": {"scalar": 1e154}}]},
    "<products-33-deep>": _deep_spec(33),
    "<products-3000-deep>": _deep_spec(3000),
    "<einstein-3-residue>": {"einstein": {"n": 3, "scalar": 60.12505021455109}},
    "<surface-residue>": {"surface": {"scalar": 16.107421932223275}},
    "<sphere-residue>": {"sphere": {"radius": 0.15392320534223705}},
    "<surface-7e79>": {"surface": {"scalar": 7.395659432387313e+79}},
    "<unit-sphere>": {"sphere": {"radius": 1.0}},
    "<sphere-x-surface-1e-8>": {"product": [{"sphere": {"radius": 10000.0}},
                                            {"surface": {"scalar": -1e-8}}]},
}
_T2XS2 = {"n": 4, "scalar": 2.0, "kappa0": 0.0, "ric_norm_sq_min": 2.0}
DOCUMENTS.update({
    "<nan-field>": {**_T2XS2, "kappa0": float("nan")},
    "<kappa0-above-mean>": {**_T2XS2, "kappa0": 0.6},
    "<cauchy-schwarz>": {**_T2XS2, "ric_norm_sq_min": 0.9},
    "<square-overflows>": {**_T2XS2, "scalar": 1e155, "ric_norm_sq_min": 1e300},
    "<eigenvalue-count>": {**_T2XS2, "eigenvalues": [0.0, 1.0, 1.0]},
    "<eigenvalue-sum>": {**_T2XS2, "eigenvalues": [0.0, 0.5, 0.5, 0.5]},
    "<eigenvalue-min>": {**_T2XS2, "eigenvalues": [0.1, 0.4, 0.5, 1.0]},
    "<eigenvalue-squares>": {**_T2XS2, "eigenvalues": [0.0, 0.0, 0.5, 1.5]},
    "<n-over-cap>": {"n": 10**12, "scalar": 1e6, "kappa0": 1e-75, "ric_norm_sq_min": 5},
    "<kappa0-above-tiny-mean>": {"n": 2, "scalar": -1e-20, "kappa0": 1e-13,
                                 "ric_norm_sq_min": 5e-41},
    "<kappa0-dwarfs-ric>": {"n": 2, "scalar": 0, "kappa0": -1e300, "ric_norm_sq_min": 1},
    "<surface-subnormal>": {"surface": {"scalar": -5e-324}},
    "<einstein-x-surface-f-s0-cancels>": {"product": [
        {"einstein": {"n": 2, "scalar": -339535793094.0}}, {"surface": {"scalar": 1.0}}]},
    "<kappa0-dwarfs-tiny-scalar>": {"n": 5, "scalar": 1e-44, "kappa0": -1e278,
                                    "ric_norm_sq_min": 2e-89},
    "<einstein-product>": {"product": [{"surface": {"scalar": 31.4}},
                                       {"einstein": {"n": 5, "scalar": 78.5}}]},
})
# one failing document per validity rule
PROFILE_FAILURES = ("<nan-field>", "<kappa0-above-mean>", "<cauchy-schwarz>",
                    "<square-overflows>", "<eigenvalue-count>", "<eigenvalue-sum>",
                    "<eigenvalue-min>", "<eigenvalue-squares>", "<n-over-cap>")
SPEC_FAILURES = ("<einstein-n-1>", "<einstein-n-over-cap>", "<warped-n-6>",
                 "<warped-f0-0>", "<sphere-1e-76>", "<overflowing-product>",
                 "<products-33-deep>", "<products-3000-deep>")
# recorded as {'sha256', 'lines'} of stdout instead of stdout itself
LONG_SWEEPS = (
    ("--example", "s2r-x-hyperbolic", "--param", "radius",
     "--from", "0.52", "--to", "1.97", "--steps", "2000", "--kaehler-dim", "2"),
    ("--example", "m7-sigma", "--param", "surface_scalar",
     "--from", "-7.8", "--to", "11.7", "--steps", "2000"),
    ("--example", "m7-sigma", "--param", "f0",
     "--from", "0.05", "--to", "0.95", "--steps", "200"),
    ("--example", "m7-sigma", "--param", "surface_scalar",
     "--from", "-7.8", "--to", "11.7", "--steps", "300",
     "--bounds", "friedrich,minimax_numeric"),
    ("--spec", "<nested-sphere>", "--param", "radius",
     "--from", "0.3", "--to", "3", "--steps", "300", "--kaehler-dim", "4"),
    ("--spec", "<nested-warped>", "--param", "f0",
     "--from", "0.02", "--to", "1", "--steps", "150"),
)
# Einstein data whose traceless residue once passed theorem 3.1's
# degeneracy guard, and t2xs2-like data at curvature 1e-8, which the
# guard once refused; the guard reads A in the row's units
RESIDUE_SWEEP = ("--spec", "<unit-sphere>", "--param", "radius",
                 "--from", "0.1", "--to", "2", "--steps", "600")
SCALED_GUARD = (
    *(("bound", "--spec", doc) for doc in (
        "<einstein-3-residue>", "<surface-residue>", "<sphere-residue>",
        "<surface-7e79>")),
    ("sweep", *RESIDUE_SWEEP),
    ("bound", "--spec", "<sphere-x-surface-1e-8>", "--csv"),
)

# inputs that fail, and a product whose scalars cancel (it realizes since
# realized eigenvalue lists are no longer checked against the sums)
FAILURES = (
    ("sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
     "--from", "1e-76", "--to", "1", "--steps", "5"),
    ("sweep", "--example", "s2r-x-hyperbolic", "--param", "radius",
     "--from", "9.8e74", "--to", "1.001e75", "--steps", "1000"),
    ("sweep", "--example", "m7-sigma", "--param", "f0",
     "--from", "0.5", "--to", "1.5", "--steps", "5"),
    ("sweep", "--example", "m7-sigma", "--param", "surface_scalar",
     "--from", "-8", "--to", "12", "--steps", "9", "--kaehler-dim", "2"),
    ("sweep", "--spec", "<two-warped>", "--param", "surface_scalar",
     "--from", "-1", "--to", "1", "--steps", "3"),
    ("bound", "--spec", "<cancelling>"),
    *(("bound", "--profile", doc) for doc in PROFILE_FAILURES),
    *(("bound", "--spec", doc) for doc in SPEC_FAILURES),
)
# ode has no --n; capture() points --out into its temporary directory
TRACK = "<track.csv>"
ODE_FAILURES = tuple(("ode", "--n", str(n), "--f0", "0.3", "--out", TRACK)
                     for n in (4, 7, 10**12, 10**16))
# the mini-max column at its edges: kappa0 above R/n (within the profile's
# slack, or where R/n underflows), |kappa0| far above |Ric|^2, a row
# whose theorem31 cross-check fails, with theorem31 left out of the sweep,
# |kappa0| = 1e278 far above a tiny R, and an Einstein product (all seven
# Ricci eigenvalues 15.7), as a bound and as the first row of a sweep
MINIMAX_EDGES = (
    ("bound", "--profile", "<kappa0-above-tiny-mean>", "--csv"),
    ("bound", "--spec", "<surface-subnormal>", "--csv"),
    ("bound", "--profile", "<kappa0-dwarfs-ric>", "--csv"),
    ("sweep", "--spec", "<einstein-x-surface-f-s0-cancels>", "--param", "surface_scalar",
     "--from", "1", "--to", "2", "--steps", "2", "--bounds", "friedrich,minimax_numeric"),
    ("bound", "--profile", "<kappa0-dwarfs-tiny-scalar>", "--csv"),
    ("bound", "--spec", "<einstein-product>", "--csv"),
    ("sweep", "--spec", "<einstein-product>", "--param", "surface_scalar",
     "--from", "31.4", "--to", "31.5", "--steps", "2"),
)
# the warp turning points: ode runs with their track, and f0 sweeps near
# both ends of (0, 1]
ODE_RUNS = tuple(("ode", "--f0", f0, "--out", TRACK)
                 for f0 in ("0.3", "1.3", "0.99999999", "1e-10", "1e-100"))
WARP_SWEEPS = (
    ("--example", "m7-sigma", "--param", "f0",
     "--from", "1e-9", "--to", "1e-3", "--steps", "300"),
    ("--example", "m7-sigma", "--param", "f0",
     "--from", "0.999", "--to", "1", "--steps", "300"),
)
# round-off-sized data: R, kappa0 and |Ric|^2 of order 1e-17 and 1e-35
DOCUMENTS["<round-off-scalar>"] = {"n": 2, "scalar": -1.0364355780741957e-17,
                                   "kappa0": -8.14712369817478e-18,
                                   "ric_norm_sq_min": 7.129174266132629e-35}
ZERO_SCALAR_EDGES = (("bound", "--csv", "--profile", "<round-off-scalar>"),)
# help and usage errors; each subcommand's -h, in the parser's order
PARSER = (
    (), ("-h",),
    *((command, "-h") for command in ("bound", "sweep", "ode", "verify", "catalog-list")),
    ("frobnicate",),
    ("bound",),
    ("bound", "--example", "t2xs2", "--json", "--csv"),
    ("verify", "--dim", "x"),
    ("sweep", "--example", "m7-sigma", "--param", "radiu",
     "--from", "0", "--to", "1", "--steps", "3"),
    ("bound", "--example", "t2xs2", "--bogus"),
)
VERIFIES = (
    ("--dim", "8", "--trials", "2000", "--seed", "7", "--json"),
    ("--dim", "4", "--trials", "200", "--seed", "42", "--json"),
    ("--dim", "7", "--trials", "100", "--seed", "7"),
    ("--dim", "8", "--trials", "10", "--seed", "7", "--json"),
    ("--dim", "8", "--trials", "257", "--seed", str(2**32), "--json"),
    ("--dim", "5", "--trials", "300", "--seed", str(2**128 + 1), "--json"),
    ("--dim", "6", "--trials", "50", "--seed", "1234567890123456789012345678901234567890"),
)


def invocations():
    """Every captured argv, in file order."""
    runs = []
    for name in EXAMPLES:
        for fmt in ((), ("--csv",), ("--json",)):
            runs.append(("bound", "--example", name, *fmt))
    for fmt in ((), ("--csv",), ("--json",)):
        runs.append(("bound", "--example", "t2xs2", "--kaehler-dim", "2", *fmt))
    runs += [("catalog-list",), ("catalog-list", "--json")]
    runs += [("sweep", *argv) for argv in SWEEPS]
    for fmt in ((), ("--csv",)):
        runs.append(("bound", "--example", "m7-sigma", *fmt, *LOOSE_TOL))
    runs.append(("sweep", *SWEEPS[2], *LOOSE_TOL))
    runs += [("sweep", *argv) for argv in LONG_SWEEPS]
    runs += [("verify", *argv) for argv in VERIFIES]
    return runs + [*FAILURES, *SCALED_GUARD, *PARSER, *ODE_FAILURES, *MINIMAX_EDGES,
                   *ODE_RUNS, *(("sweep", *argv) for argv in WARP_SWEEPS),
                   *ZERO_SCALAR_EDGES]


def capture(argv):
    """{'argv', 'exit', 'stdout'} of one in-process run of the CLI; for a
    long sweep, {'argv', 'exit', 'sha256', 'lines'}; plus 'stderr' where
    the exit code is not 0, and 'out', the {'sha256', 'lines'} of the
    `--out` track, where the run wrote one."""
    out, err = io.StringIO(), io.StringIO()
    track = None
    with tempfile.TemporaryDirectory() as tmp:
        real = []
        for arg in argv:
            if arg in DOCUMENTS:
                doc = DOCUMENTS[arg]
                path = Path(tmp) / "document.json"
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
                arg = str(path)
            elif arg == TRACK:
                track = Path(tmp) / "track.csv"
                arg = str(track)
            real.append(arg)
        # argparse wraps help and usage at the terminal width
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code = cli.main(real)
        written = track.read_bytes() if track and track.exists() else None
    text = out.getvalue()
    if tuple(argv[1:]) in (*LONG_SWEEPS, RESIDUE_SWEEP, *WARP_SWEEPS):
        case = {"argv": list(argv), "exit": code, **_digest(text.encode())}
    else:
        case = {"argv": list(argv), "exit": code, "stdout": text}
    if code:
        case["stderr"] = err.getvalue()
    if written is not None:
        case["out"] = _digest(written)
    return case


def _digest(data):
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": data.count(b"\n")}


def captures():
    return [capture(argv) for argv in invocations()]


def main():
    sys.stdout.write(json.dumps(captures(), indent=1) + "\n")


if __name__ == "__main__":
    main()
