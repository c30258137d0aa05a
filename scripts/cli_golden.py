"""Regenerate the golden CLI outputs of the test suite.

Runs `diracbound.cli.main` in-process on a fixed list of invocations
(`bound` on every named example in table, CSV and JSON form, plus
t2xs2 with a Kaehler dimension; `catalog-list` with and without
`--json`; one short `sweep` per sweepable parameter; m7-sigma's `bound`
and f0 `sweep` again with `--tol 1e-3`, which must change no byte) and
records the exit code and stdout of each. tests/test_cli.py compares
a fresh run with the recorded file byte for byte, so a refactor that
changes any of these bytes fails there. Write the file with

    python scripts/cli_golden.py > tests/cli_golden.json

and review the diff before committing it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

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
    return runs


def capture(argv):
    """{'argv', 'exit', 'stdout'} of one in-process run of the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def captures():
    return [capture(argv) for argv in invocations()]


def main():
    sys.stdout.write(json.dumps(captures(), indent=1) + "\n")


if __name__ == "__main__":
    main()
