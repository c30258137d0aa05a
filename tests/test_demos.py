"""Smoke run of each narrative script in demos/ and of the README example."""

import contextlib
import io
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_example():
    """The README's python block runs and prints what its comments say."""
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    expected = [c.strip() for c in re.findall(r"^print\(.*#(.*)$", code, re.M)]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 2
    for line, comment in zip(printed, expected):
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (line, comment)
        else:
            assert line == comment
