"""What each entry point loads, and the package's public surface.

The package loads its modules on first use. These tests pin, in fresh
interpreters, the ``hw_staffing`` modules that each entry leaves in
sys.modules, so a stray top-level import fails here without timing
anything; and they check that every public name still resolves.
"""

import subprocess
import sys

import pytest

import hw_staffing
from hw_staffing.cli import main

PACKAGE = {"hw_staffing", "hw_staffing.errors"}
CLI = PACKAGE | {"hw_staffing.cli", "hw_staffing.erlang", "hw_staffing.numerics"}

# The public names, as the package listed them when it imported every module.
PUBLIC = [
    "BracketError", "BracketedRoot", "DelayProbability", "DomainError", "Method",
    "NumericalError", "OrderReport", "SimConfig", "SimEstimate", "StaffingError",
    "SweepResult", "SweepRow", "beta_for_target", "birth_death_wait_prob",
    "bisect_monotone", "cdf_x", "check_stochastic_order", "default_load_grid",
    "density_g", "density_y", "erlang_b_integer", "erlang_c_gamma", "erlang_c_integer",
    "erlang_c_real", "erlang_c_slack", "h", "h_series", "hw_limit", "hw_sweep",
    "integrate_semi_infinite", "inverse_load", "inverse_sweep", "min_servers", "moment_y",
    "normal_cdf", "normal_pdf", "real_staffing_level", "simulate_mmn", "staffing",
    "tail_y", "tail_y_via_h",
]


def fresh(code: str) -> list[str]:
    """The lines a fresh interpreter prints after running code."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def loaded_after(code: str) -> set[str]:
    """The package's modules in sys.modules after code runs in a fresh interpreter."""
    report = "print(*(m for m in sys.modules if m.split('.')[0] == 'hw_staffing'))"
    return set(fresh(f"import sys\n{code}\n{report}")[-1].split())


class TestLoadedModules:
    def test_package_import_loads_at_most_errors(self):
        loaded = loaded_after("import hw_staffing")
        assert "hw_staffing" in loaded and loaded <= PACKAGE

    def test_cli_import_loads_erlang_and_numerics(self):
        assert loaded_after("from hw_staffing import cli") == CLI

    def test_min_servers_adds_halfin_whitt(self):
        code = "import hw_staffing; hw_staffing.min_servers(4.0, 0.5)"
        assert loaded_after(code) == PACKAGE | {
            "hw_staffing.erlang", "hw_staffing.numerics", "hw_staffing.halfin_whitt"}

    def test_simulation_needs_no_erlang_route(self):
        code = ("import hw_staffing; hw_staffing.simulate_mmn("
                "hw_staffing.SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=32, seed=0))")
        assert loaded_after(code) == PACKAGE | {"hw_staffing.mmn_oracle"}

    @pytest.mark.parametrize("argv, extra", [
        (["compute", "--s", "5", "--a", "4"], set()),
        (["staff", "--a", "100", "--epsilon", "0.2"], {"halfin_whitt"}),
        (["sweep", "--regime", "hw", "--beta", "1", "--points", "3"], {"halfin_whitt"}),
        (["verify", "--suite", "order"], {"halfin_whitt", "proof_kit", "verify"}),
        (["simulate", "--n", "2", "--lambda", "1", "--mu", "1", "--arrivals", "32"],
         {"mmn_oracle"}),
    ])
    def test_each_command_loads_only_its_modules(self, argv, extra):
        code = f"from hw_staffing import cli; cli.main({argv!r})"
        assert loaded_after(code) == CLI | {f"hw_staffing.{m}" for m in extra}


class TestPublicSurface:
    def test_all_lists_the_same_names_in_the_same_order(self):
        assert hw_staffing.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_modules_object(self, name):
        value = getattr(hw_staffing, name)
        assert value.__module__.startswith("hw_staffing.")
        assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_name(self):
        code = ("namespace = {}; exec('from hw_staffing import *', namespace); "
                "print(*sorted(set(namespace) - {'__builtins__'}))")
        assert fresh(code)[-1].split() == sorted(PUBLIC)

    def test_submodules_resolve_as_attributes(self):
        code = "import hw_staffing; print(hw_staffing.proof_kit.moment_y.__module__)"
        assert fresh(code) == ["hw_staffing.proof_kit"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            hw_staffing.bogus  # noqa: B018

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(hw_staffing))


class TestVerifySuiteName:
    def test_unknown_suite_is_exit_two(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown verify suite 'bogus'" in capsys.readouterr().err

    def test_help_names_every_suite(self, capsys):
        from hw_staffing.verify import SUITES

        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert all(suite in out for suite in SUITES)
