"""End-to-end CLI behaviour: output, files, exit codes, determinism."""

import functools
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from hw_staffing import cli, erlang, halfin_whitt, numerics
from hw_staffing.cli import main
from hw_staffing.errors import DomainError, NumericalError
from hw_staffing.svg import polyline_chart

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_integer_point_defaults_to_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--s", "2", "--a", "1")
        assert code == 0
        method, value, bound = out.split()
        assert method == "gamma"
        assert float(value) == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert float(bound) > 0.0

    @pytest.mark.parametrize("s, a", [
        ("1000999", "999999"),  # the recurrence took these until auto had one route
        ("1001000", "1e6"),  # and the quadrature these
    ])
    def test_integer_point_takes_gamma_at_any_load(self, capsys, s, a):
        code, out, _ = run_cli(capsys, "compute", "--s", s, "--a", a)
        assert code == 0
        got, value, bound = out.split()
        assert got == "gamma"
        want = oracles.erlang_c_mpmath(int(s), float(a))
        assert abs(float(value) - want) <= float(bound) <= 1e-14 * want

    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--s", "110", "--a", "100", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split()[0] for line in lines] == ["recurrence", "quadrature", "gamma"]
        values = [float(line.split()[1]) for line in lines]
        for v in values:
            assert v == pytest.approx(oracles.C_110_100, rel=1e-10)

    @pytest.mark.parametrize("s, a", [
        ("1e12", "999999000000"),  # past the recurrence's 1e7-step ceiling
        ("1e16", "9999999000000000"),  # past 2**53
    ])
    def test_all_skips_a_refused_recurrence(self, capsys, s, a):
        with pytest.raises(DomainError) as refused:
            erlang.erlang_c_integer(float(s), float(a))
        code, out, err = run_cli(capsys, "compute", "--s", s, "--a", a, "--method", "all")
        assert (code, err) == (0, f"warning: recurrence skipped: {refused.value}\n")
        (quadrature, q, q_bound), (gamma, g, g_bound) = (line.split() for line in out.splitlines())
        assert (quadrature, gamma) == ("quadrature", "gamma")
        assert abs(float(q) - float(g)) <= float(q_bound) + float(g_bound)

    @pytest.mark.parametrize("s, a", [("5", "5"), ("1e16", "1e16"), ("5", "nan")])
    def test_all_at_an_unstable_integer_point_is_domain_error(self, capsys, s, a):
        code, out, err = run_cli(capsys, "compute", "--s", s, "--a", a, "--method", "all")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_fractional_servers_defaults_to_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--s", "5.5", "--a", "4")
        assert code == 0
        assert out.split()[0] == "gamma"
        assert float(out.split()[1]) == pytest.approx(oracles.C_55_4, rel=1e-10)

    def test_fractional_servers_past_the_gamma_range(self, capsys):
        # auto takes the gamma route, here within 1e-13 of the closed form;
        # it raised here until it took Temme's expansion above s = 1000
        code, out, err = run_cli(capsys, "compute", "--s", "2000000.5", "--a", "2e6")
        method, value, bound = out.split()
        assert (code, method, err) == (0, "gamma", "")
        assert float(value) == pytest.approx(0.99955704117930633, rel=1e-13)
        assert float(bound) < 1e-13

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

    def test_quadrature_far_past_overflow(self, capsys):
        # the peak overflowed into a bare ValueError; C is 0 to the last bit
        code, out, err = run_cli(
            capsys, "compute", "--s", "1e160", "--a", "1", "--method", "quadrature"
        )
        assert (code, out.split(), err) == (0, ["quadrature", "0", "0"], "")

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

    @pytest.mark.parametrize("mode", ["integer", "real", "beta"])
    def test_epsilon_below_the_normal_range(self, capsys, mode):
        code, out, err = run_cli(
            capsys, "staff", "--a", "1e4", "--epsilon", "1e-315", "--mode", mode
        )
        assert (code, out) == (2, "")
        assert "sys.float_info.min" in err

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

    @pytest.mark.parametrize("log_x", [False, True])
    def test_single_point_figure(self, tmp_path, capsys, log_x):
        # one point spans no range in x or y: the chart widens both about
        # it, so the point lands at the centre of the plot area, and each
        # run writes the same bytes
        args = ["sweep", "--regime", "hw", "--beta", "1", "--from", "7.5", "--points", "1",
                "--format", "svg"] + (["--log-x"] if log_x else [])
        paths = [tmp_path / "one.svg", tmp_path / "two.svg"]
        for path in paths:
            assert run_cli(capsys, *args, "--out", str(path))[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        root = ET.parse(paths[0]).getroot()
        svg = "{http://www.w3.org/2000/svg}"
        (polyline,) = root.findall(f".//{svg}polyline")
        x, y = map(float, polyline.get("points").split(","))
        frame = root.findall(f"{svg}rect")[-1]  # the plot area's border
        width, height = float(frame.get("width")), float(frame.get("height"))
        assert x == pytest.approx(float(frame.get("x")) + width / 2, abs=0.01)
        assert y == pytest.approx(float(frame.get("y")) + height / 2, abs=0.01)

    @pytest.mark.parametrize("load", ["1e17", "1.7e308"])
    def test_single_point_figure_at_large_loads(self, tmp_path, capsys, load):
        # past about 2**53, a -+ 0.5 rounds back to a: the chart widens the
        # flat x range by a quarter of a instead of dividing by zero, and
        # keeps its ends finite near the largest double
        path = tmp_path / "figure.svg"
        code, _, err = run_cli(capsys, "sweep", "--regime", "hw", "--beta", "1", "--from", load,
                               "--points", "1", "--format", "svg", "--out", str(path))
        assert code == 0, err
        root = ET.parse(path).getroot()
        svg = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{svg}svg" and root.get("version") == "1.1"
        (polyline,) = root.findall(f".//{svg}polyline")
        x, y = map(float, polyline.get("points").split(","))
        frame = root.findall(f"{svg}rect")[-1]
        left, top = float(frame.get("x")), float(frame.get("y"))
        assert left <= x <= left + float(frame.get("width"))
        assert top <= y <= top + float(frame.get("height"))
        if load == "1e17":
            assert x == pytest.approx(left + float(frame.get("width")) / 2, abs=0.01)

    @pytest.mark.parametrize("load", ["5e-324", "1e-323"])
    def test_single_point_log_figure_at_the_smallest_loads(self, tmp_path, capsys, load):
        # v/2 rounds to 0 at 5e-324, and the tick step under 1e-323 did:
        # ValueError and ZeroDivisionError, exit 1. The band is v/2 (or v)
        # to 2v, and the ticks step by the finest spacing of the doubles
        path = tmp_path / "figure.svg"
        code, _, err = run_cli(capsys, "sweep", "--regime", "hw", "--beta", "1", "--from", load,
                               "--points", "1", "--log-x", "--format", "svg", "--out", str(path))
        assert code == 0, err
        root = ET.parse(path).getroot()
        svg = "{http://www.w3.org/2000/svg}"
        (polyline,) = root.findall(f".//{svg}polyline")
        x, y = map(float, polyline.get("points").split(","))
        frame = root.findall(f"{svg}rect")[-1]
        left, top = float(frame.get("x")), float(frame.get("y"))
        assert left <= x <= left + float(frame.get("width"))
        assert top <= y <= top + float(frame.get("height"))
        ticks = [float(t.text) for t in root.findall(f"{svg}text")
                 if t.get("text-anchor") == "middle" and t.get("font-size") == "11"]
        assert len(ticks) >= 2 and min(ticks) > 0.0

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

    @pytest.mark.parametrize("fmt", ["csv", "svg", "both"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, fmt):
        # a missing directory raised FileNotFoundError with a traceback, exit 1
        out = tmp_path / "missing" / "f"
        code, _, err = run_cli(capsys, "sweep", "--regime", "hw", "--beta", "1",
                               "--points", "3", "--format", fmt, "--out", str(out))
        assert code == 2
        assert err.startswith("error: [Errno 2] No such file or directory") and str(out) in err
        assert "Traceback" not in err

    def test_svg_to_stdout_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--regime", "hw", "--beta", "1", "--format", "svg"
        )
        assert code == 2
        assert err == "error: svg output cannot go to stdout; give --out PATH\n"

    def test_every_row_failing_is_numerical_error(self, capsys, monkeypatch):
        def failing_gamma(s, d, a):  # the route both regimes' rows take
            raise NumericalError(f"stopped on purpose at s={s}", iterations=0)

        monkeypatch.setattr(halfin_whitt, "_gamma", failing_gamma)
        code, _, err = run_cli(
            capsys,
            "sweep", "--regime", "inverse", "--beta", "1",
            "--from", "2", "--to", "10", "--points", "3",
        )
        assert code == 3
        assert "every sweep row failed" in err
        assert "stopped on purpose at s=2" in err  # the first row's cause

    def test_default_grids_complete(self, capsys):
        for beta in ("0.1", "3"):
            code, out, _ = run_cli(capsys, "sweep", "--regime", "inverse", "--beta", beta)
            assert code == 0
            lines = out.strip().splitlines()
            assert len(lines) == 201
            assert all(line.endswith(",") for line in lines[1:])  # empty error column

    def test_hw_loads_to_1e308_complete(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--regime", "hw", "--beta", "1",
            "--from", "1", "--to", "1e308", "--points", "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [1.0, 5e307, 1e308]
        assert all(r[5] == "" for r in rows)

    # beyond each regime's default --to (1e4 and 500): one point ignores it
    @pytest.mark.parametrize("regime,x", [("hw", "7.5"), ("hw", "20000"), ("inverse", "600")])
    def test_single_point_is_the_from_bound(self, capsys, regime, x):
        code, out, _ = run_cli(
            capsys, "sweep", "--regime", regime, "--beta", "1", "--from", x, "--points", "1"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[0] == x  # a for hw rows, s for inverse rows

    @pytest.mark.parametrize("log_x", [[], ["--log-x"]])
    def test_infinite_bound_is_named(self, capsys, log_x):
        code, out, err = run_cli(
            capsys, "sweep", "--regime", "hw", "--beta", "1", "--to", "inf", *log_x
        )
        assert code == 2
        assert out == ""
        assert err == "error: grid bounds must be finite, got hi=inf\n"

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

    def test_zero_width_interval_gives_infinite_discrepancy(self, capsys):
        # no arrival of 64 waits at 50 servers and load 1, so every batch
        # reads 0 and the interval has no width; C(50, 1) is 1.2e-65
        code, out, err = run_cli(
            capsys, "simulate", "--n", "50", "--lambda", "1", "--mu", "1", "--arrivals", "64"
        )
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert lines[0] == "p_wait = 0 +/- 0 (95% CI, 32 batches)"
        assert float(lines[1].split("=")[1]) == pytest.approx(1.2342540755009953e-65, rel=1e-12)
        assert lines[2] == "standardized discrepancy = inf"

    def test_unstable_config_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "2", "--lambda", "3", "--mu", "1")
        assert code == 2
        assert "unstable" in err

    def test_server_count_past_the_double_range_rejected(self, capsys):
        # n*mu raised OverflowError, and the CLI printed a traceback
        n = "1" + "0" * 399
        code, out, err = run_cli(capsys, "simulate", "--n", n, "--lambda", "1", "--mu", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: server count must be a positive integer no larger than 1,000,000, got {n}\n")

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "5", "--lambda", "4", "--mu", "1", "--seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_warmup_option_gone(self, capsys):
        # replications start at stationarity, so there is no warm-up to set
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "5", "--lambda", "4", "--mu", "1", "--warmup", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --warmup 5" in capsys.readouterr().err


class TestParserReuse:
    SEQUENCE = [
        ["sweep", "--regime", "bogus", "--beta", "1"],  # a usage error: exit 2
        ["compute", "--s", "110", "--a", "100", "--method", "all"],
        ["sweep", "--regime", "hw", "--beta", "1", "--points", "5"],
        ["verify", "--suite", "all"],
    ]

    @staticmethod
    def _outcomes(capsys):
        outcomes = []
        for argv in TestParserReuse.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    def test_one_parser_prints_what_fresh_parsers_print(self, capsys, monkeypatch):
        built = []

        def build():
            built.append(cli.build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", functools.cache(build))
        reused = self._outcomes(capsys)
        assert len(built) == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser a call
        assert reused == self._outcomes(capsys)
        assert [code for code, _, _ in reused] == [2, 0, 0, 0]
        assert "invalid choice: 'bogus'" in reused[0][2]


class TestChart:
    @pytest.mark.parametrize("xs, ys", [([], []), ([1.0], [1.0, 2.0])])
    def test_data_of_unequal_or_no_length_is_domain_error(self, xs, ys):
        with pytest.raises(DomainError, match="equally sized, non-empty"):
            polyline_chart(xs, ys, title="t", x_label="x", y_label="y")

    def test_log_axis_needs_positive_x(self):
        with pytest.raises(DomainError, match="positive x data"):
            polyline_chart([0.0, 1.0], [0.5, 0.4], title="t", x_label="x", y_label="y",
                           log_x=True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_nonfinite_data_is_domain_error(self, bad, axis):
        # these raised ValueError or OverflowError from the scale and ticks
        xs, ys = [1.0, 2.0], [0.5, 0.4]
        (xs if axis == "x" else ys)[1] = bad
        with pytest.raises(DomainError, match="finite"):
            polyline_chart(xs, ys, title="t", x_label="x", y_label="y")

    def test_linear_span_of_the_finest_spacing(self):
        # span/5 rounded to 0, and log10(0) raised ValueError
        chart = polyline_chart([0.0, 5e-324], [0.5, 0.4], title="t", x_label="x", y_label="y")
        ticks = [line.rsplit(">", 2)[-2].split("<")[0] for line in chart.splitlines()
                 if 'text-anchor="middle" font-family="monospace" font-size="11"' in line]
        assert ticks == ["0", "4.94066e-324"]

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_span_past_the_largest_double_is_domain_error(self, axis):
        # max - min overflowed to inf: OverflowError from the tick step
        xs, ys = [1.0, 2.0], [0.5, 0.4]
        (xs if axis == "x" else ys)[:] = [-sys.float_info.max, sys.float_info.max]
        with pytest.raises(DomainError, match="largest double"):
            polyline_chart(xs, ys, title="t", x_label="x", y_label="y")

    def test_flat_series_keeps_its_half_unit_band(self):
        # where 0.5 widens the range, the band is v -+ 0.5, as it always was
        chart = polyline_chart([1.0, 2.0], [3.0, 3.0], title="t", x_label="x", y_label="y")
        ticks = [line.rsplit(">", 2)[-2].split("<")[0] for line in chart.splitlines()
                 if 'text-anchor="end"' in line]
        assert ticks == ["2.6", "2.8", "3", "3.2", "3.4"]


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "hw_staffing.cli", "compute", "--s", "2", "--a", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.split()[0] == "gamma"

    def test_usage_error_is_exit_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "hw_staffing.cli", "sweep", "--regime", "bogus", "--beta", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
