"""Golden CLI output: every README example, byte for byte, and the
default route of ``compute`` for an integer server count at a load of 1e7.

Each case runs ``cli.main`` in a temporary working directory and compares
its stdout, and any SVG file it writes, with the files under
``tests/golden/``. Those files hold the output of the code before the
sweep, grid and verify modules were consolidated (CHANGES.md names each
file rewritten since), so a refactor that changes one byte of what a
user sees fails here.

A golden file changes only when its case is rewritten from the current
code, on purpose and in a commit of its own:

    PYTHONPATH=src python tests/test_golden.py staff_real [more cases]
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hw_staffing.cli import main

GOLDEN = Path(__file__).parent / "golden"

_LEFT = ["sweep", "--regime", "inverse", "--beta", "0.1", "--from", "0.02", "--to", "50",
         "--points", "200", "--log-x"]
_RIGHT = ["sweep", "--regime", "inverse", "--beta", "3", "--from", "9.5", "--to", "500",
          "--points", "200"]

# name -> (argv, SVG file the command writes, or None)
CASES = {
    "compute_all": (["compute", "--s", "110", "--a", "100", "--method", "all"], None),
    "compute_auto_1e7": (["compute", "--s", "10003162", "--a", "1e7"], None),
    "staff_integer": (["staff", "--a", "4", "--epsilon", "0.5", "--mode", "integer"], None),
    "staff_beta": (["staff", "--a", "100", "--epsilon", "0.2", "--mode", "beta"], None),
    "staff_real": (["staff", "--a", "100", "--epsilon", "0.2", "--mode", "real"], None),
    "sweep_hw": (["sweep", "--regime", "hw", "--beta", "1", "--from", "1", "--to", "10000",
                  "--points", "40", "--log-x"], None),
    "sweep_hw_svg": (["sweep", "--regime", "hw", "--beta", "1", "--from", "1", "--to", "10000",
                      "--points", "40", "--log-x", "--format", "svg", "--out", "hw.svg"],
                     "hw.svg"),
    "sweep_left_csv": (_LEFT, None),
    "sweep_right_csv": (_RIGHT, None),
    "sweep_left_svg": (_LEFT + ["--format", "svg", "--out", "left.svg"], "left.svg"),
    "sweep_right_svg": (_RIGHT + ["--format", "svg", "--out", "right.svg"], "right.svg"),
    "verify_all": (["verify", "--suite", "all"], None),
    "simulate": (["simulate", "--n", "5", "--lambda", "4", "--mu", "1", "--seed", "42",
                  "--arrivals", "1000000"], None),
}


def run_case(name, workdir: Path):
    """Exit code, stdout, and the written SVG's bytes (or None) of one case."""
    argv, svg = CASES[name]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), (workdir / svg).read_bytes() if svg else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, stdout, svg = run_case(name, tmp_path)
    assert code == 0
    assert stdout.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
    if svg is not None:
        assert svg == (GOLDEN / CASES[name][1]).read_bytes()


def _rewrite(names):
    """Rewrite the golden files of the named cases from run_case."""
    if not names:
        raise SystemExit(f"usage: test_golden.py CASE [CASE ...]; cases: {sorted(CASES)}")
    for name in names:
        if name not in CASES:
            raise SystemExit(f"unknown case {name!r}; expected one of {sorted(CASES)}")
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, svg = run_case(name, Path(tmp))
        if code != 0:
            raise SystemExit(f"case {name!r} exited with {code}")
        (GOLDEN / f"{name}.txt").write_bytes(stdout.encode("utf-8"))
        if svg is not None:
            (GOLDEN / CASES[name][1]).write_bytes(svg)
        print(f"rewrote {name}")


if __name__ == "__main__":
    _rewrite(sys.argv[1:])
