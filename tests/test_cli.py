"""End-to-end CLI behaviour: output, files, exit codes, determinism."""

import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from hw_staffing import numerics
from hw_staffing.cli import main

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_integer_point_defaults_to_recurrence(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--s", "2", "--a", "1")
        assert code == 0
        method, value, bound = out.split()
        assert method == "recurrence"
        assert float(value) == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert float(bound) > 0.0

    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--s", "110", "--a", "100", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split()[0] for line in lines] == ["recurrence", "quadrature", "gamma"]
        values = [float(line.split()[1]) for line in lines]
        for v in values:
            assert v == pytest.approx(oracles.C_110_100, rel=1e-10)

    def test_fractional_servers_defaults_to_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--s", "5.5", "--a", "4")
        assert code == 0
        assert out.split()[0] == "gamma"
        assert float(out.split()[1]) == pytest.approx(oracles.C_55_4, rel=1e-10)

    def test_instability_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--s", "1", "--a", "1")
        assert code == 2
        assert "0 < a < s" in err

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)
        code, _, err = run_cli(
            capsys, "compute", "--s", "10.5", "--a", "9", "--method", "quadrature"
        )
        assert code == 3
        assert "numerical error" in err
        assert "integrand evaluations" in err

    def test_recurrence_requires_integer_servers(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--s", "2.5", "--a", "1", "--method", "recurrence")
        assert code == 2

    def test_deterministic_stdout(self, capsys):
        _, first, _ = run_cli(capsys, "compute", "--s", "20", "--a", "17", "--method", "all")
        _, second, _ = run_cli(capsys, "compute", "--s", "20", "--a", "17", "--method", "all")
        assert first == second

    def test_environment_not_read(self, capsys, monkeypatch):
        # the arguments alone decide the output: a variable naming a
        # quadrature config file, even a missing one, changes nothing
        _, usual, _ = run_cli(capsys, "compute", "--s", "2", "--a", "1")
        monkeypatch.setenv("HW_STAFFING_CONFIG", "/nonexistent/x.cfg")
        code, out, err = run_cli(capsys, "compute", "--s", "2", "--a", "1")
        assert (code, out, err) == (0, usual, "")


class TestStaff:
    def test_integer_mode(self, capsys):
        code, out, _ = run_cli(capsys, "staff", "--a", "4", "--epsilon", "0.5", "--mode", "integer")
        assert code == 0
        assert out == "n = 6\n"

    def test_real_mode(self, capsys):
        code, out, _ = run_cli(capsys, "staff", "--a", "4", "--epsilon", "0.55411255411255411", "--mode", "real")
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(5.0, abs=1e-6)

    def test_beta_mode_with_load(self, capsys):
        code, out, _ = run_cli(
            capsys, "staff", "--a", "100", "--epsilon", "0.22336127479826073", "--mode", "beta"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert float(lines[0].split("=")[1]) == pytest.approx(1.0, abs=1e-8)
        assert float(lines[1].split("=")[1]) == pytest.approx(110.0, abs=1e-6)

    def test_beta_mode_without_load(self, capsys):
        code, out, _ = run_cli(capsys, "staff", "--epsilon", "0.5", "--mode", "beta")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_epsilon_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "staff", "--epsilon", "1", "--mode", "beta")
        assert code == 2

    def test_missing_load_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "staff", "--epsilon", "0.5", "--mode", "integer")
        assert code == 2


class TestSweep:
    def test_hw_csv_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--regime", "hw", "--beta", "1",
            "--from", "1", "--to", "10000", "--points", "40", "--log-x",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,s,c,c_star,gap,error"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 40
        cs = [float(r[2]) for r in rows]
        gaps = [float(r[4]) for r in rows]
        assert all(b < a for a, b in zip(cs, cs[1:]))
        assert all(g > 0.0 for g in gaps)
        assert all(r[5] == "" for r in rows)

    def test_csv_round_trips_doubles(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--regime", "hw", "--beta", "2",
            "--from", "1", "--to", "100", "--points", "5", "--log-x",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        a = float(row[0])
        # 17 significant digits reproduce the binary double exactly
        assert f"{a:.17g}" == row[0]

    def test_files_byte_stable(self, tmp_path, capsys):
        args = [
            "sweep", "--regime", "inverse", "--beta", "3",
            "--from", "9.5", "--to", "500", "--points", "50",
            "--format", "both",
        ]
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        assert (out1.with_suffix(".csv")).read_bytes() == (out2.with_suffix(".csv")).read_bytes()
        assert (out1.with_suffix(".svg")).read_bytes() == (out2.with_suffix(".svg")).read_bytes()

    def test_svg_is_valid_svg_11(self, tmp_path, capsys):
        path = tmp_path / "figure.svg"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--regime", "inverse", "--beta", "0.1",
            "--from", "0.02", "--to", "50", "--points", "200", "--log-x",
            "--format", "svg", "--out", str(path),
        )
        assert code == 0
        root = ET.parse(path).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 1
        texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
        assert any("beta = 0.1" in (t or "") for t in texts)

    def test_inverse_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--regime", "inverse", "--beta", "3",
            "--from", "9.5", "--to", "500", "--points", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,a,c,error"
        for line in lines[1:]:
            s, a, c, err = line.split(",")
            assert float(a) == pytest.approx(float(s) - 3.0 * math.sqrt(float(s)), rel=1e-12)
            assert 0.0 < float(c) < 1.0
            assert err == ""

    def test_from_clamped_up_to_validity(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--regime", "inverse", "--beta", "3",
            "--from", "5", "--to", "20", "--points", "4",
        )
        assert code == 0
        assert "clamped" in err
        first = out.strip().splitlines()[1].split(",")
        assert float(first[0]) >= 9.0

    def test_svg_to_stdout_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--regime", "hw", "--beta", "1", "--format", "svg"
        )
        assert code == 2
        assert err == "error: svg output cannot go to stdout; give --out PATH\n"

    def test_nonpositive_svg_size_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--regime", "hw", "--beta", "1", "--format", "svg",
            "--out", str(tmp_path / "f.svg"), "--svg-width", "0",
        )
        assert code == 2
        assert err == "error: svg dimensions must be positive, got 0x480\n"

    def test_every_row_failing_is_numerical_error(self, capsys, monkeypatch):
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-30)
        code, _, err = run_cli(
            capsys,
            "sweep", "--regime", "hw", "--beta", "1",
            "--from", "1", "--to", "10", "--points", "3",
        )
        assert code == 3
        assert "every sweep row failed" in err
        assert "integrand evaluations" in err  # the first row's cause

    def test_default_grids_complete(self, capsys):
        for beta in ("0.1", "3"):
            code, out, _ = run_cli(capsys, "sweep", "--regime", "inverse", "--beta", beta)
            assert code == 0
            lines = out.strip().splitlines()
            assert len(lines) == 201
            assert all(line.endswith(",") for line in lines[1:])  # empty error column

    def test_hw_loads_past_1e30_complete(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--regime", "hw", "--beta", "1",
            "--from", "1e30", "--to", "1e40", "--points", "3", "--log-x",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.endswith(",") for line in lines[1:])  # empty error column


class TestVerify:
    def test_order_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "order")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "11/11 properties passed"

    def test_identities_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert "FAIL" not in out

    def test_monotonicity_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "monotonicity")
        assert code == 0
        assert "FAIL" not in out
        assert "min decrement margin" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        # break one identity: the rewrite check must then fail with exit 1
        monkeypatch.setattr("hw_staffing.proof_kit.tail_y_via_h", lambda y, a: 0.5)
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert "FAIL tail-rewrite" in out


class TestSimulate:
    def test_reports_estimate_and_analytic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "5", "--lambda", "4", "--mu", "1",
            "--seed", "42", "--arrivals", "20000",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p_wait = ")
        assert lines[1].startswith("analytic = ")
        analytic = float(lines[1].split("=")[1])
        assert analytic == pytest.approx(0.5541125541125541, rel=1e-12)

    def test_deterministic_bytes(self, capsys):
        args = ["simulate", "--n", "2", "--lambda", "1", "--mu", "1", "--seed", "9",
                "--arrivals", "5000"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_unstable_config_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "2", "--lambda", "3", "--mu", "1")
        assert code == 2
        assert "unstable" in err


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "hw_staffing.cli", "compute", "--s", "2", "--a", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.split()[0] == "recurrence"

    def test_usage_error_is_exit_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "hw_staffing.cli", "sweep", "--regime", "bogus", "--beta", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
