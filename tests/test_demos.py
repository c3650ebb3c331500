"""Smoke test: the demos run to completion against the package."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_delay_probabilities.py",
    "02_staffing.py",
    "03_limit_monotonicity.py",
    "04_proof_objects.py",
    "05_simulation.py",
    "06_figures.py",
]


def run_demo(demo, cwd):
    # run from an empty directory: 06_figures writes its SVGs there; the
    # package comes from PYTHONPATH, which conftest.py points at src
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_figures_demo_draws_the_cli_figures(tmp_path):
    # 06_figures says the CLI commands it prints draw the same figures;
    # tests/golden holds what those commands write
    result = run_demo("06_figures.py", tmp_path)
    assert result.returncode == 0, result.stderr
    golden = ROOT / "tests" / "golden"
    for name, cli_name in (("inverse_beta_0.1.svg", "left.svg"), ("inverse_beta_3.svg", "right.svg")):
        assert (tmp_path / name).read_bytes() == (golden / cli_name).read_bytes(), name
