"""Command line front end: exit codes, reports, byte stability."""

import csv
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import aggdiff
from aggdiff import (DensityField, ModelParams, RadialGrid, RieszKernel,
                     SolverConfig, barenblatt_profile, build_kernel, derived_constants,
                     dichotomy_run, el_fixed_point, hls_sharp_constant,
                     read_field_csv, riesz_constant, write_field_csv)
from aggdiff.cli import _FIELDS, _REAL, DEFAULT_CONFIG, ConfigError, load_config, main
from aggdiff.riesz import _dense_matrix
from aggdiff.solver import diagnostics_to_csv
from oracles import hls_constant_beta_form


def run_cli(*argv):
    return main(list(argv))


SMALL = [
    "--set", "grid.n_cells=96",
    "--set", "grid.r_max=4.0",
    "--set", "experiment.n_random_fields=6",
    "--set", "experiment.t_fix=0.002",
    "--set", "experiment.fixed_point.tol=1e-8",
]


class TestConfig:
    def test_defaults_valid(self):
        cfg = load_config(None, [])
        assert cfg["model"]["d"] == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            load_config(None, ["model.bogus=3"])
        with pytest.raises(ConfigError,
                           match="unknown config field 'experiment.n_starts'"):
            load_config(None, ["experiment.n_starts=1"])

    @pytest.mark.parametrize("via", ["set", "file"])
    def test_removed_dt_min_is_unknown(self, tmp_path, capsys, via):
        # the collapse floor is the module constant solver._DT_MIN
        out = tmp_path / "out"
        if via == "set":
            argv = ["--set", "solver.dt_min=1e-10"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"solver": {"dt_min": 1e-10}}))
            argv = ["--config", str(path)]
        assert run_cli("simulate", *argv, "--out", str(out)) == 1
        assert "unknown config field 'solver.dt_min'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ratios", ["[0.5,0.5000001]", "[0.5,0.5]"])
    def test_ratios_sharing_a_csv_name_exit_1_before_any_output(
            self, tmp_path, capsys, ratios):
        out = tmp_path / "out"
        assert run_cli("dichotomy", *SMALL, "--set",
                       f"experiment.mass_ratios={ratios}", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "experiment.mass_ratios" in err and "Traceback" not in err
        assert not out.exists()

    def test_section_cannot_be_set_whole(self):
        with pytest.raises(ConfigError, match="config section 'solver'"):
            load_config(None, ['solver={"cfl": 0.5}'])

    @pytest.mark.parametrize("path", [row[0] for row in _FIELDS])
    def test_bool_rejected_for_every_field(self, path):
        with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
            load_config(None, [f"{path}=true"])

    @pytest.mark.parametrize("command, setting", [
        ("dichotomy", 'experiment.mass_ratios=["a"]'),
        ("dichotomy", "experiment.mass_ratios=[true]"),
        ("eps-study", "experiment.eps_list=[null]"),
    ])
    def test_bad_list_entry_exits_1_naming_field(self, tmp_path, capsys, command,
                                                  setting):
        assert run_cli(command, "--set", setting, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert setting.split("=")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting", [
        "experiment.mass_ratios=[0.5,Infinity]",
        "experiment.eps_list=[0.1,-Infinity]",
        "experiment.mass_ratios=[NaN]",
        pytest.param(f"grid.r_max={10 ** 400}", id="grid.r_max=10**400"),
        *(f"{row[0]}={value}" for row in _FIELDS if row[2] is _REAL
          for value in ("Infinity", "-Infinity", "NaN")),
    ])
    def test_non_finite_real_names_field(self, setting):
        with pytest.raises(ConfigError, match=re.escape(setting.split("=")[0])):
            load_config(None, [setting])

    @pytest.mark.parametrize("command", ["simulate", "extremal", "dichotomy"])
    def test_support_radius_inside_first_quadrature_node_exits_1(
            self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run_cli(command, "--set", "grid.n_cells=64", "--set",
                       "experiment.fixed_point.support_radius=1e-6",
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "experiment.fixed_point.support_radius" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, settings", [
        ("simulate", ["grid.r_max=1e300"]),
        ("simulate", ["grid.r_max=1e103"]),
        ("dichotomy", ["grid.r_max=1e300"]),
        ("extremal", ["grid.r_max=1e-300", "grid.n_cells=16"]),
    ])
    def test_r_max_out_of_range_exits_1_before_any_output(self, tmp_path, capsys,
                                                          command, settings):
        out = tmp_path / "out"
        args = [arg for setting in settings for arg in ("--set", setting)]
        assert run_cli(command, *args, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "config field 'grid.r_max'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, settings", [
        ("simulate", ["grid.n_cells=64", "grid.r_max=1e-104",
                      "experiment.fixed_point.support_radius=5e-105"]),
        # this bump fits at mass 1, not at the start's M*/2
        ("simulate", ["grid.n_cells=64", "grid.r_max=1e-102",
                      "experiment.fixed_point.support_radius=5e-103"]),
        ("verify", ["grid.n_cells=8", "grid.r_max=1e-106"]),
    ])
    def test_start_bump_density_overflow_exits_1_before_any_kernel(
            self, tmp_path, capsys, monkeypatch, command, settings):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        out = tmp_path / "out"
        args = [arg for setting in settings for arg in ("--set", setting)]
        assert run_cli(command, *args, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert ("config fields 'grid.r_max'/'experiment.fixed_point.support_radius'"
                in captured.err)
        assert "overflows" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_ratio_underflow_on_a_tiny_grid_exits_1_naming_r_max(self, tmp_path,
                                                                 capsys):
        # the random fields' M^(2s/d) ||u||_m^m underflows at r_max 1e-60
        out = tmp_path / "out"
        assert run_cli("verify", "--set", "grid.n_cells=8", "--set",
                       "grid.r_max=1e-60", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "config field 'grid.r_max'" in captured.err
        assert "underflows" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    def test_constants_ignores_an_out_of_range_r_max(self, tmp_path, capsys):
        # without --profile, constants builds no grid
        assert run_cli("constants", "--set", "grid.r_max=1e300",
                       "--out", str(tmp_path / "out")) == 0

    def test_non_finite_value_exits_1_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--set", "grid.r_max=Infinity",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "grid.r_max" in err and "Traceback" not in err
        assert not out.exists()

    def test_file_of_defaults_equals_no_file(self, tmp_path):
        path = tmp_path / "defaults.json"
        path.write_text(json.dumps(DEFAULT_CONFIG))
        assert load_config(str(path), []) == load_config(None, [])

    def test_type_error_names_field(self):
        with pytest.raises(ConfigError, match="solver.cfl"):
            load_config(None, ["solver.cfl=2.0"])

    @pytest.mark.parametrize("field, value", [
        ("cfl", "0"), ("cfl", "1.5"), ("cfl", "NaN"),
        ("t_end", "0"), ("t_end", "NaN"),
        ("blowup_factor", "1"), ("blowup_factor", "NaN"),
        ("output_every", "0"),
    ])
    def test_solver_range_exits_1_with_solver_config_rule(self, tmp_path, capsys,
                                                           field, value):
        with pytest.raises(ValueError) as rule:
            replace(SolverConfig(t_end=1.0), **{field: json.loads(value)})
        assert str(rule.value).startswith(f"{field} must ")
        code = run_cli("simulate", "--set", f"solver.{field}={value}",
                       "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert f"config field 'solver.{field}': {rule.value}" in err
        assert "Traceback" not in err

    def test_negative_epsilon_names_field(self):
        with pytest.raises(ConfigError, match="model.epsilon"):
            load_config(None, ["model.epsilon=-0.1"])

    @pytest.mark.parametrize("command, setting", [
        *((command, "model.epsilon=1e200") for command in
          ("simulate", "extremal", "dichotomy", "verify", "constants")),
        ("eps-study", "experiment.eps_list=[0.1,1e200]"),
    ])
    def test_epsilon_whose_square_overflows_exits_1_before_any_kernel(
            self, tmp_path, capsys, monkeypatch, command, setting):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        out = tmp_path / "out"
        assert run_cli(command, *SMALL, "--set", setting, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert f"config field '{setting.split('=')[0]}'" in captured.err
        assert "epsilon^2 overflows" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_json_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "model": {\n')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path), [])

    def test_file_merge_and_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"s": 1.3}, "seed": 7}))
        cfg = load_config(str(path), ["model.s=1.2"])
        assert cfg["model"]["s"] == 1.2
        assert cfg["seed"] == 7

    def test_coupled_domain_constraint(self):
        with pytest.raises(ConfigError, match="2 < 2s < d"):
            load_config(None, ["model.s=1.6"])  # 2s = 3.2 > d = 3
        with pytest.raises(ConfigError, match="model.d'/'model.s'.*2 < 2s < d"):
            load_config(None, ["model.d=4", "model.s=2.0"])  # 2s = d


    @pytest.mark.parametrize("command", ["extremal", "simulate", "dichotomy",
                                         "eps-study", "verify", "constants"])
    def test_kernel_alpha_rule_exits_1_before_any_kernel(self, tmp_path, command,
                                                        monkeypatch, capsys):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a bad (d, s) must fail before a kernel is built")

        monkeypatch.setattr(aggdiff.cli, "build_kernel", no_kernel)
        # 2 < 2s < d holds, but the kernel power alpha = d - 2s = 2.6 does not
        # lie in (0, 2)
        bad = ["--set", "model.d=5", "--set", "model.s=1.2",
               "--set", "grid.n_cells=16", "--out", str(tmp_path)]
        profile = ["--profile", str(tmp_path / "p.csv")] if command == "constants" else []
        assert run_cli(command, *bad, *profile) == 1
        err = capsys.readouterr().err
        assert "'model.d'/'model.s'" in err and "alpha=2.6" in err
        assert "Traceback" not in err
        if command == "constants":  # without a profile it builds no kernel
            assert run_cli(command, *bad) == 0

    @pytest.mark.parametrize("command, d, s", [("constants", 400, 150),
                                               ("dichotomy", 400, 199.5),
                                               ("constants", 172, 85.5),
                                               ("dichotomy", 172, 85.5)])
    def test_overflowing_constants_exit_1_before_any_output(self, tmp_path, capsys,
                                                            command, d, s):
        # 2 < 2s < d holds (and alpha = 1 at s = (d - 1)/2), but Gamma(d) is
        # past the double range from d = 172
        out = tmp_path / "out"
        assert run_cli(command, "--set", f"model.d={d}", "--set", f"model.s={s}",
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "'model.d'/'model.s'" in captured.err and "overflow" in captured.err
        assert "Traceback" not in captured.err

    def test_constants_at_the_last_finite_dimension_exit_0(self, tmp_path):
        # Gamma(171) is the last integer Gamma within the double range
        assert run_cli("constants", "--set", "model.d=171", "--set", "model.s=85",
                       "--out", str(tmp_path)) == 0
        res = json.loads((tmp_path / "report.json").read_text())["results"]
        assert all(math.isfinite(res[k]) and res[k] > 0.0
                   for k in ("c_ds", "C_hls", "M_star"))


class TestConstants:
    def test_report_matches_library(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("constants", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        res = report["results"]
        assert res["c_ds"] == pytest.approx(riesz_constant(3, 1.25), rel=1e-15)
        assert res["C_hls"] == pytest.approx(hls_sharp_constant(3, 1.25), rel=1e-15)
        assert res["C_star_upper"] == pytest.approx(
            hls_constant_beta_form(3, 1.25), rel=1e-15)
        assert res["M_star"] > 0
        assert "config_sha256" in report

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("constants", "--set", "model.s=zzz") == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_handler_looked_up_at_call_time(self, tmp_path, monkeypatch, capsys):
        # the benchmark tracer replaces cli.cmd_dichotomy on the module
        calls = []
        monkeypatch.setattr(aggdiff.cli, "cmd_dichotomy",
                            lambda cfg, profile: calls.append(profile) or 0)
        assert run_cli("dichotomy", *SMALL, "--set", "experiment.mass_ratios=[]",
                       "--out", str(tmp_path)) == 0
        assert calls == [None]


class TestExtremalAndProfileFlow:
    def test_extremal_then_constants_with_profile(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("extremal", *SMALL, "--set",
                       "experiment.mass_target=measured", "--out", str(out))
        assert code == 0
        profile = out / "profile_extremal.csv"
        sidecar = out / "profile_extremal.json"
        assert profile.exists() and sidecar.exists()
        meta = json.loads(sidecar.read_text())
        assert meta["el_residual"] <= 1e-2
        assert meta["lambda_bar"] < 0
        assert {"J_value", "lambda_bar", "el_residual", "multiplier_defect",
                "M_target"} <= set(meta)
        assert abs(meta["multiplier_defect"]) <= 1e-2

        out2 = tmp_path / "out2"
        code = run_cli("constants", "--profile", str(profile), "--out", str(out2))
        assert code == 0
        res = json.loads((out2 / "report.json").read_text())["results"]
        assert res["C_star_measured"] <= res["C_star_upper"] * 1.02
        assert res["M_star_measured"] >= res["M_star"] * 0.95

        # the CSV carries the grid, so the sidecar cannot change the result
        bare = tmp_path / "bare" / "profile.csv"
        bare.parent.mkdir()
        bare.write_bytes(profile.read_bytes())
        out3 = tmp_path / "out3"
        assert run_cli("constants", "--profile", str(bare), "--out", str(out3)) == 0
        bare_res = json.loads((out3 / "report.json").read_text())["results"]
        assert bare_res["C_star_measured"] == res["C_star_measured"]

    def test_measured_critical_mass_at_d_4(self, tmp_path, capsys):
        # M_c is 1.13 M* on 32 cells, outside the former bracket [M*, 1.1 M*]
        out = tmp_path / "out"
        assert run_cli("extremal", "--set", "model.d=4", "--set", "grid.n_cells=32",
                       "--set", 'experiment.mass_target="measured"',
                       "--out", str(out)) == 0
        meta = json.loads((out / "profile_extremal.json").read_text())
        M_star = derived_constants(ModelParams(d=4, s=1.25)).M_star
        assert 1.1 * M_star < meta["M_target"] < 1.2 * M_star

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        code = run_cli("extremal", *SMALL, "--set",
                       "experiment.fixed_point.max_iter=1",
                       "--set", "experiment.fixed_point.tol=1e-14",
                       "--out", str(tmp_path / "out"))
        assert code == 3

    def test_multiplier_budget_exhaustion_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(aggdiff.extremal, "_NEWTON_STEPS", 1)
        code = run_cli("extremal", *SMALL, "--out", str(tmp_path / "out"))
        assert code == 3
        assert "Newton steps" in capsys.readouterr().err


def run_probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this aggdiff."""
    src = os.path.dirname(os.path.dirname(aggdiff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


# Prints every loaded module named scipy or scipy.*.  No module of the
# package imports scipy; it serves only the tests' oracles.
SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")


def test_import_leaves_scipy_optimize_and_integrate_unloaded():
    probe = "import sys, aggdiff, aggdiff.cli; " + SCIPY_MODULES
    assert run_probe(probe) == "[]"


def test_import_leaves_multiprocessing_unloaded():
    # only `aggdiff dichotomy` forks workers, and it imports the pool itself
    probe = ("import sys, aggdiff, aggdiff.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'multiprocessing'))")
    assert run_probe(probe) == "[]"


def test_fft_operator_and_run_leave_scipy_unloaded():
    # the structured operator's FFTs are numpy.fft's
    probe = ("import sys, numpy as np, aggdiff as ad, aggdiff.cli; "
             "p = ad.ModelParams(d=3, s=1.25); g = ad.RadialGrid.uniform(576, 4.0); "
             "k = ad.build_kernel(g, p.s); "
             "assert isinstance(k._operator, ad.riesz._HankelToeplitzOperator); "
             "assert np.all(k.apply(np.ones(576)) > 0); "
             "out = ad.run(ad.barenblatt_profile(g, 20.0, 1.0, p.m), k, p, "
             "ad.SolverConfig(t_end=1e-4, scheme='explicit')); "
             "assert out.final_state.step_count > 0; " + SCIPY_MODULES)
    assert run_probe(probe) == "[]"


def test_implicit_run_leaves_scipy_linalg_unloaded():
    # importing scipy.linalg would cost ~4.6 MiB of resident memory; the
    # implicit stepper's tridiagonal solve needs none of it
    probe = ("import sys, aggdiff as ad, aggdiff.cli; "
             "p = ad.ModelParams(d=3, s=1.25); g = ad.RadialGrid.uniform(96, 3.0); "
             "out = ad.run(ad.barenblatt_profile(g, 20.0, 1.0, p.m), "
             "ad.build_kernel(g, p.s), p, "
             "ad.SolverConfig(t_end=1e-3, scheme='implicit')); "
             "F = [r.F for r in out.diagnostics]; "
             "assert out.final_state.step_count > 0 and F[-1] < F[0]; " + SCIPY_MODULES)
    assert run_probe(probe) == "[]"


def test_critical_mass_search_leaves_scipy_linalg_unloaded():
    # the mixing's least-squares solve is numpy.linalg's
    probe = ("import sys, aggdiff as ad, aggdiff.cli; "
             "p = ad.ModelParams(d=3, s=1.25); c = ad.derived_constants(p); "
             "g = ad.RadialGrid.uniform(96, 4.0); "
             "M_c, res = ad.find_critical_mass(g, ad.build_kernel(g, p.s), p, "
             "rel_tol=1e-3, support_radius_init=1.0); "
             "assert c.M_star < M_c < 1.08 * c.M_star and res.iterations > 1; "
             + SCIPY_MODULES)
    assert run_probe(probe) == "[]"


def test_general_dimension_kernel_and_search_leave_scipy_unloaded():
    # the d != 3 sphere average is a fixed tanh-sinh rule in numpy
    probe = ("import sys, aggdiff as ad, aggdiff.cli; "
             "p = ad.ModelParams(d=4, s=1.25); c = ad.derived_constants(p); "
             "g = ad.RadialGrid.uniform(32, 4.0, d=4); k = ad.build_kernel(g, p.s); "
             "M_c, res = ad.find_critical_mass(g, k, p, support_radius_init=1.0); "
             "assert c.M_star < M_c < 1.2 * c.M_star; " + SCIPY_MODULES)
    assert run_probe(probe) == "[]"


def test_kernel_builds_and_profiles_leave_numpy_polynomial_unloaded():
    # the Gauss-Legendre rules are tabulated: no leggauss, so no LAPACK
    # eigenvalue solve and no numpy.polynomial import
    probe = ("import sys, aggdiff as ad, aggdiff.cli; "
             "p = ad.ModelParams(d=3, s=1.25); "
             "dense = ad.build_kernel(ad.RadialGrid.uniform(256, 4.0), p.s); "
             "fft = ad.build_kernel(ad.RadialGrid.uniform(4096, 4.0), p.s); "
             "assert not isinstance(dense._operator, ad.riesz._HankelToeplitzOperator); "
             "assert isinstance(fft._operator, ad.riesz._HankelToeplitzOperator); "
             "g = ad.RadialGrid.uniform(96, 3.0); "
             "ad.barenblatt_profile(g, 20.0, 1.0, p.m); "
             "ad.hls_extremizer_profile(g, 1.0, 0.7, p.s); "
             "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    assert run_probe(probe) == "[]"


@pytest.fixture(scope="module")
def extremal_profile(tmp_path_factory):
    """Steady profile written by ``aggdiff extremal`` on the SMALL grid."""
    out = tmp_path_factory.mktemp("extremal")
    assert run_cli("extremal", *SMALL, "--out", str(out)) == 0
    return out / "profile_extremal.csv"


def kernel_must_not_be_built(*args, **kwargs):
    raise AssertionError("a bad profile must fail before the kernel is built")


class TestProfileHandoff:
    def test_csv_records_grid(self, extremal_profile):
        assert read_field_csv(extremal_profile).grid == RadialGrid.uniform(96, 4.0)
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        assert meta["d"] == 3 and not {"n_cells", "r_max"} & set(meta)

    def test_simulate_from_profile(self, tmp_path, extremal_profile, capsys):
        out = tmp_path / "out"
        code = run_cli("simulate", *SMALL, "--set", "solver.t_end=0.001",
                       "--profile", str(extremal_profile), "--out", str(out))
        assert code == 0
        res = json.loads((out / "report.json").read_text())["results"]
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        assert res["status"] == "completed"
        assert res["mass_initial"] == pytest.approx(meta["M_target"], rel=1e-9)

    def test_dichotomy_from_profile(self, tmp_path, extremal_profile, capsys):
        out = tmp_path / "out"
        code = run_cli("dichotomy", *SMALL, "--set", "experiment.mass_ratios=[1.5]",
                       "--set", "solver.blowup_factor=100",
                       "--profile", str(extremal_profile), "--out", str(out))
        assert code == 0
        res = json.loads((out / "report.json").read_text())["results"]
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        assert res["M_star"] == meta["M_target"]
        assert res["table"][0]["status"] == "blowup"

    @pytest.mark.parametrize("command, settings", [
        ("simulate", ["--set", "solver.t_end=0.001"]),
        ("dichotomy", ["--set", "experiment.mass_ratios=[1.5]",
                       "--set", "solver.blowup_factor=100"]),
    ])
    def test_profile_start_ignores_support_radius(self, tmp_path, extremal_profile,
                                                  capsys, command, settings):
        # the profile replaces the start bump, so its radius is not checked
        out = tmp_path / "out"
        assert run_cli(command, *SMALL, *settings, "--set",
                       "experiment.fixed_point.support_radius=1e-6",
                       "--profile", str(extremal_profile), "--out", str(out)) == 0
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("command, total_mass", [
        ("simulate", 1e120), ("simulate", 1e160), ("constants", 1e160),
        ("dichotomy", 1e120), ("dichotomy", 1e160)])
    def test_overflowing_profile_exits_1_naming_it(self, tmp_path, capsys, command,
                                                   total_mass):
        # a 64-cell bump whose D(u0) (1e120) or F(u0) = -inf (1e160) overflows;
        # constants reads the scale-invariant ratio J, undefined only at 1e160
        csv_path = tmp_path / "huge.csv"
        write_field_csv(barenblatt_profile(RadialGrid.uniform(64, 4.0), total_mass,
                                           1.0, 7.0 / 6.0), csv_path)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(command, "--set", "grid.n_cells=64",
                           "--set", "experiment.mass_ratios=[0.5]",
                           "--profile", str(csv_path), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert f"profile {csv_path}" in err and "Traceback" not in err
        assert not (out / "report.json").exists()
        if command == "dichotomy":  # the field and the ratio are still named
            assert "config field 'experiment.mass_ratios'" in err
            assert "at mass ratio 0.5" in err

    def test_profile_on_other_grid_is_config_error(self, tmp_path, extremal_profile,
                                                   capsys):
        for command in ("simulate", "dichotomy"):
            code = run_cli(command, *SMALL, "--set", "grid.r_max=4.5",
                           "--profile", str(extremal_profile), "--out", str(tmp_path))
            assert code == 1
            assert "does not match configured grid" in capsys.readouterr().err

    def test_profile_without_sidecar_goes_on_configured_grid(self, tmp_path,
                                                           extremal_profile, capsys):
        csv_path = tmp_path / "profile.csv"  # no JSON sidecar beside it
        csv_path.write_bytes(extremal_profile.read_bytes())
        out = tmp_path / "out"
        code = run_cli("simulate", *SMALL, "--set", "solver.t_end=0.001",
                       "--profile", str(csv_path), "--out", str(out))
        assert code == 0
        res = json.loads((out / "report.json").read_text())["results"]
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        assert res["mass_initial"] == pytest.approx(meta["M_target"], rel=1e-9)
        code = run_cli("simulate", *SMALL, "--set", "grid.r_max=4.5",
                       "--profile", str(csv_path), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert str(csv_path) in err and "does not match configured grid" in err

    @pytest.mark.parametrize("command", ["simulate", "dichotomy"])
    def test_missing_profile_is_config_error(self, tmp_path, command, monkeypatch,
                                             capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        missing = tmp_path / "nope.csv"
        code = run_cli(command, *SMALL, "--profile", str(missing),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "dichotomy"])
    def test_malformed_sidecar_is_config_error(self, tmp_path, extremal_profile,
                                               command, monkeypatch, capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        csv_path = tmp_path / "profile.csv"
        csv_path.write_bytes(extremal_profile.read_bytes())
        sidecar = csv_path.with_suffix(".json")
        sidecar.write_text(extremal_profile.with_suffix(".json").read_text()[:40])
        code = run_cli(command, *SMALL, "--profile", str(csv_path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert str(sidecar) in err and "Traceback" not in err

    def test_sidecar_dimension_mismatch_is_config_error(self, tmp_path,
                                                        extremal_profile, monkeypatch,
                                                        capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        csv_path = tmp_path / "profile.csv"
        csv_path.write_bytes(extremal_profile.read_bytes())
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        meta["d"] = 4  # the CSV's edges are then read as a grid in R^4
        csv_path.with_suffix(".json").write_text(json.dumps(meta))
        code = run_cli("simulate", *SMALL, "--profile", str(csv_path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "does not match configured grid" in capsys.readouterr().err

    def test_sidecar_order_mismatch_is_config_error(self, extremal_profile, tmp_path,
                                                    monkeypatch, capsys):
        # the profile is the s = 1.25 extremal
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        code = run_cli("dichotomy", *SMALL, "--set", "model.s=1.3",
                       "--profile", str(extremal_profile), "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "'s' = 1.25" in err and "'model.s' = 1.3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ['"abc"', "-5.0", "0", "true", "1e400", "NaN"])
    @pytest.mark.parametrize("command", ["constants", "simulate", "dichotomy"])
    def test_bad_sidecar_mass_exits_1_before_any_kernel(
            self, tmp_path, extremal_profile, monkeypatch, capsys, command, bad):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        csv_path = tmp_path / "profile.csv"
        csv_path.write_bytes(extremal_profile.read_bytes())
        sidecar = csv_path.with_suffix(".json")
        meta = extremal_profile.with_suffix(".json").read_text()
        meta, count = re.subn(r'"M_target": [^,\n]+', f'"M_target": {bad}', meta)
        assert count == 1
        sidecar.write_text(meta)
        out = tmp_path / "out"
        code = run_cli(command, *SMALL, "--profile", str(csv_path), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert f"profile sidecar {sidecar}: 'M_target'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["constants", "simulate", "dichotomy"])
    def test_infinite_outer_edge_exits_1_before_any_kernel(
            self, tmp_path, extremal_profile, monkeypatch, capsys, command):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        csv_path = tmp_path / "profile.csv"
        lines = extremal_profile.read_text().splitlines()
        r_center, _, value, _ = lines[-1].split(",")
        lines[-1] = ",".join([r_center, "inf", value, "inf"])
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run_cli(command, *SMALL, "--profile", str(csv_path), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert f"profile {csv_path}: r_edges must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_constants_rejects_a_sidecar_of_another_dimension(
            self, tmp_path, extremal_profile, monkeypatch, capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        csv_path = tmp_path / "profile.csv"
        csv_path.write_bytes(extremal_profile.read_bytes())
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        csv_path.with_suffix(".json").write_text(json.dumps({**meta, "d": 4}))
        code = run_cli("constants", "--profile", str(csv_path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert "'d' = 4" in err and "'model.d' = 3" in err
        assert "Traceback" not in err

    def test_profile_of_another_dimension_without_sidecar(self, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        csv_path = tmp_path / "profile.csv"
        grid = RadialGrid.uniform(96, 4.0, d=4)
        write_field_csv(DensityField(grid, np.exp(-grid.centers ** 2)), csv_path)
        code = run_cli("constants", "--profile", str(csv_path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert str(csv_path) in err and "d = 3 shell volumes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["constants", "simulate", "dichotomy"])
    def test_three_column_profile_is_config_error(self, tmp_path, extremal_profile,
                                                  command, monkeypatch, capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", kernel_must_not_be_built)
        csv_path = tmp_path / "profile.csv"  # the format before r_outer
        csv_path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in
                                    extremal_profile.read_text().splitlines()))
        code = run_cli(command, *SMALL, "--profile", str(csv_path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert str(csv_path) in err and "r_center,volume,value,r_outer" in err
        assert "Traceback" not in err


def nan_kernel(grid, s, epsilon=0.0):
    """The real kernel with one NaN entry, so the first step goes non-finite."""
    K = _dense_matrix(grid, s, epsilon).copy()
    K[0, -1] = np.nan
    return RieszKernel(grid, s, epsilon, K)


def asymmetric_matrix(grid, s, epsilon):
    """The real dense matrix with one entry off its mirror image."""
    K = _dense_matrix(grid, s, epsilon).copy()
    K[0, -1] *= 1.01
    return K


class TestFailedRun:
    def test_simulate_writes_report_then_exits_3(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", nan_kernel)
        out = tmp_path / "out"
        assert run_cli("simulate", *SMALL, "--out", str(out)) == 3
        res = json.loads((out / "report.json").read_text())["results"]
        assert (res["status"], res["reason"]) == ("failed", "non_finite")
        err = capsys.readouterr().err
        assert "runtime failure" in err and "Traceback" not in err

    def test_dichotomy_writes_report_then_exits_3(self, tmp_path, extremal_profile,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(aggdiff.cli, "build_kernel", nan_kernel)
        out = tmp_path / "out"
        code = run_cli("dichotomy", *SMALL, "--set", "experiment.mass_ratios=[0.5]",
                       "--profile", str(extremal_profile), "--out", str(out))
        assert code == 3
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["table"][0]["status"] == "failed"
        err = capsys.readouterr().err
        assert "runtime failure" in err and "Traceback" not in err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault, message", [
        ("raise", "injected failure at ratio 0.9"),
        ("kill", "terminated abruptly"),
    ])
    def test_dichotomy_worker_fault_keeps_earlier_csvs(self, tmp_path,
                                                       extremal_profile, monkeypatch,
                                                       capsys, fault, message):
        real_run = aggdiff.cli.dichotomy_run
        parent = os.getpid()
        out = tmp_path / "out"

        def fault_at_0p9(U, ratio, *args, **kwargs):
            if ratio == 0.9:
                if fault == "raise":
                    raise RuntimeError("injected failure at ratio 0.9")
                if os.getpid() == parent:
                    raise RuntimeError("the run must be in a worker")
                # die once the 0.5 result has arrived: its CSV is kept
                deadline = time.monotonic() + 60
                while (not (out / "diagnostics_ratio_0p5.csv").exists()
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
            return real_run(U, ratio, *args, **kwargs)

        def hung(signum, frame):
            raise TimeoutError("dichotomy still waiting for its workers after 60 s")

        monkeypatch.setattr(aggdiff.cli, "dichotomy_run", fault_at_0p9)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            code = run_cli("dichotomy", *SMALL,
                           "--set", "experiment.mass_ratios=[0.5,0.9,1.5]",
                           "--set", "experiment.t_end_diffusive_times=0.05",
                           "--set", "solver.blowup_factor=100",
                           "--profile", str(extremal_profile), "--out", str(out))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 3
        assert message in capsys.readouterr().err
        # what the serial loop left: the CSVs before the failure, no report
        assert sorted(p.name for p in out.iterdir()) == ["diagnostics_ratio_0p5.csv"]
        assert multiprocessing.active_children() == []

    def test_dichotomy_failure_starts_no_queued_ratio(self, tmp_path,
                                                     extremal_profile, monkeypatch,
                                                     capsys):
        ratios = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99]
        started = tmp_path / "started"
        started.mkdir()
        real_run = aggdiff.cli.dichotomy_run

        def marked_run(U, ratio, *args, **kwargs):
            (started / f"{ratio:g}").touch()
            return real_run(U, ratio, *args, **kwargs)

        def failing_csv(diagnostics, path):
            raise RuntimeError(f"injected failure writing {path.name}")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(aggdiff.cli, "dichotomy_run", marked_run)
        monkeypatch.setattr(aggdiff.cli, "diagnostics_to_csv", failing_csv)
        code = run_cli("dichotomy", *SMALL,
                       "--set", f"experiment.mass_ratios={json.dumps(ratios)}",
                       "--set", "experiment.t_end_diffusive_times=0.05",
                       "--profile", str(extremal_profile),
                       "--out", str(tmp_path / "out"))
        assert code == 3
        assert "injected failure writing diagnostics_ratio_0p5.csv" in (
            capsys.readouterr().err)
        # the runs already handed out finish; the failure cancels the rest
        assert "0.5" in {p.name for p in started.iterdir()}
        assert not (started / "0.99").exists()
        assert multiprocessing.active_children() == []

    def test_eps_study_writes_report_then_exits_3(self, tmp_path, monkeypatch,
                                                  capsys):
        # the study builds one kernel per epsilon inside the solver module
        monkeypatch.setattr(aggdiff.solver, "build_kernel", nan_kernel)
        out = tmp_path / "out"
        code = run_cli("eps-study", *SMALL, "--set", "experiment.eps_list=[0.2,0.1]",
                       "--out", str(out))
        assert code == 3
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["statuses"] == ["failed", "failed"]
        assert res["l1_distances"] is None and res["strictly_decreasing"] is False
        err = capsys.readouterr().err
        assert "runtime failure" in err and "Traceback" not in err


class TestSimulate:
    def test_diagnostics_written_and_byte_stable(self, tmp_path, capsys):
        out = tmp_path / "a"
        args = ["simulate", *SMALL, "--set", "solver.t_end=0.002",
                "--out", str(out)]
        assert run_cli(*args) == 0
        d1 = (out / "diagnostics_simulate.csv").read_bytes()
        r1 = (out / "report.json").read_bytes()
        assert run_cli(*args) == 0  # identical config and seed
        assert (out / "diagnostics_simulate.csv").read_bytes() == d1
        assert (out / "report.json").read_bytes() == r1
        header = d1.decode().splitlines()[0]
        assert header == "t,mass,lm_norm,linf_norm,m2,F,S,W,D,virial_rhs,dt"
        assert json.loads(r1)["results"]["status"] == "completed"

    def test_initial_energy_formed_once(self, tmp_path, monkeypatch, capsys):
        # the t = 0 row's F gives the report's T*: one energy_report per row
        calls = []
        for module in (aggdiff.energy, aggdiff.solver):
            monkeypatch.setattr(module, "energy_report", lambda *args, f=(
                module.energy_report): calls.append(1) or f(*args))
        out = tmp_path / "out"
        assert run_cli("simulate", *SMALL, "--set", "solver.t_end=1e-4",
                       "--set", "solver.output_every=100000", "--out", str(out)) == 0
        rows = (out / "diagnostics_simulate.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and len(calls) == 2


class TestDichotomy:
    def test_small_sweep_statuses(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "dichotomy", *SMALL,
            "--set", "experiment.mass_ratios=[0.5,1.5]",
            "--set", "experiment.mass_target=measured",
            "--set", "experiment.t_end_diffusive_times=0.2",
            # 96 cells saturate the peak near 500x its initial height,
            # so the blow-up trigger must sit below that
            "--set", "solver.blowup_factor=100",
            "--out", str(out),
        )
        assert code == 0
        table = json.loads((out / "report.json").read_text())["results"]["table"]
        by_ratio = {row["mass_ratio"]: row for row in table}
        assert by_ratio[0.5]["status"] == "completed"
        assert by_ratio[0.5]["F0"] > 0
        assert "ge_bound_lm_power_m" in by_ratio[0.5]
        assert by_ratio[1.5]["status"] == "blowup"
        assert by_ratio[1.5]["F0"] < 0
        assert by_ratio[1.5]["t_detect"] <= 1.5 * by_ratio[1.5]["blowup_time_upper_bound"]
        assert (out / "diagnostics_ratio_1p5.csv").exists()
        # the subcritical run is implicit: mass exact, F non-increasing
        with open(out / "diagnostics_ratio_0p5.csv", newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        assert max(abs(r["mass"] / rows[0]["mass"] - 1.0) for r in rows) <= 1e-12
        assert all(b["F"] <= a["F"] for a, b in zip(rows, rows[1:]))

    def test_forks_no_worker_while_a_second_thread_runs(self, tmp_path, capsys):
        # a thread other than the forking one may hold a lock the child needs
        counts, recording = [], [True]

        def before_fork():
            if recording[0]:
                counts.append(threading.active_count())

        os.register_at_fork(before=before_fork)  # a hook cannot be unregistered
        try:
            assert run_cli("dichotomy", *SMALL,
                           "--set", "experiment.t_end_diffusive_times=0.05",
                           "--set", "solver.blowup_factor=100",
                           "--out", str(tmp_path / "out")) == 0
        finally:
            recording[0] = False
        assert counts and counts == [1] * len(counts)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_workers_write_the_serial_loop_bytes(self, tmp_path, monkeypatch,
                                                 capsys, cores):
        settings = [*SMALL, "--set", "experiment.t_end_diffusive_times=0.2",
                    "--set", "solver.blowup_factor=100"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        out = tmp_path / "out"
        assert run_cli("dichotomy", *settings, "--out", str(out)) == 0
        assert multiprocessing.active_children() == []

        # one process, one ratio after another, on the same config
        cfg = load_config(None, settings[1::2])
        params = ModelParams(d=3, s=1.25)
        M_star = derived_constants(params).M_star
        grid = RadialGrid.uniform(96, 4.0)
        kernel = build_kernel(grid, params.s)
        U = el_fixed_point(grid, kernel, params, M_star, tol=1e-8, max_iter=500,
                           support_radius_init=1.0).U
        serial = tmp_path / "serial"
        serial.mkdir()
        table = []
        assert cfg["experiment"]["mass_ratios"] == [0.5, 0.9, 1.5, 2.0]
        for ratio in cfg["experiment"]["mass_ratios"]:
            entry, outcome = dichotomy_run(
                U, ratio, M_star, kernel, params, SolverConfig(**cfg["solver"]),
                diffusive_times=cfg["experiment"]["t_end_diffusive_times"])
            tag = f"ratio_{ratio:g}".replace(".", "p")
            diagnostics_to_csv(outcome.diagnostics, serial / f"diagnostics_{tag}.csv")
            table.append(entry)

        results = json.loads((out / "report.json").read_text())["results"]
        assert results == json.loads(json.dumps({"M_star": M_star, "table": table}))
        csvs = sorted(p.name for p in serial.iterdir())
        assert sorted(p.name for p in out.glob("diagnostics_*.csv")) == csvs
        assert len(csvs) == 4
        for name in csvs:
            assert (out / name).read_bytes() == (serial / name).read_bytes()

    def test_ratio_whose_energy_overflows_exits_1_naming_field(
            self, tmp_path, extremal_profile, capsys):
        # W overflows at 1e160 M*, so F(u0) = -inf and the chord time is 0
        out = tmp_path / "out"
        code = run_cli("dichotomy", *SMALL, "--set", "experiment.mass_ratios=[1e160]",
                       "--profile", str(extremal_profile), "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert "config field 'experiment.mass_ratios'" in captured.err
        assert "F(u0) = -inf" in captured.err and "Traceback" not in captured.err
        assert not (out / "report.json").exists()
        assert multiprocessing.active_children() == []

    def test_ratio_whose_dissipation_overflows_exits_1_naming_field(
            self, tmp_path, extremal_profile, capsys):
        # at 1e120 M* the start's D overflows while F(u0) is finite, so no
        # step can be taken; at 1e100 D is finite and the run stalls at step 0
        runs = {}
        for ratio in ("1e100", "1e120"):
            out = tmp_path / ratio
            code = run_cli("dichotomy", *SMALL, "--set",
                           f"experiment.mass_ratios=[{ratio}]",
                           "--profile", str(extremal_profile), "--out", str(out))
            runs[ratio] = code, out, capsys.readouterr().err
        code, out, err = runs["1e100"]
        assert code == 0 and err == ""
        table = json.loads((out / "report.json").read_text())["results"]["table"]
        assert table[0]["status"] == "stalled"
        code, out, err = runs["1e120"]
        assert code == 1
        assert "config field 'experiment.mass_ratios'" in err
        assert "D(u0) = inf" in err and "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_empty_ratio_list(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("dichotomy", *SMALL, "--set", "experiment.mass_ratios=[]",
                       "--set", "experiment.mass_target=measured",
                       "--out", str(out))
        assert code == 0
        table = json.loads((out / "report.json").read_text())["results"]["table"]
        assert table == []


class TestEpsStudy:
    def test_distances_reported_decreasing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("eps-study", *SMALL,
                       "--set", "experiment.eps_list=[0.2,0.1,0.05]",
                       "--out", str(out))
        assert code == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["strictly_decreasing"] is True
        assert res["statuses"] == ["completed"] * 3
        assert len(res["l1_distances"]) == 2

    def test_one_kernel_per_epsilon(self, tmp_path, monkeypatch, capsys):
        built = []
        for module in (aggdiff.cli, aggdiff.solver):
            monkeypatch.setattr(module, "build_kernel", lambda *args, f=(
                module.build_kernel), **kwargs: built.append(1) or f(*args, **kwargs))
        assert run_cli("eps-study", *SMALL, "--set", "experiment.eps_list=[0.2,0.1]",
                       "--out", str(tmp_path / "out")) == 0
        assert len(built) == 2


class TestVerify:
    def test_default_config_passes(self, tmp_path, capsys):
        assert run_cli("verify", "--out", str(tmp_path / "out")) == 0

    def test_corrupted_kernel_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(aggdiff.cli, "_dense_matrix", asymmetric_matrix)
        code = run_cli("verify", "--out", str(tmp_path / "out"))
        assert code == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        failed = [c["name"] for c in report["results"]["checks"] if not c["passed"]]
        assert "kernel_symmetry" in failed

    def test_zero_tolerance_fails(self, tmp_path, capsys):
        code = run_cli("verify", "--set", "experiment.tolerances.hls_ratio=0",
                       "--out", str(tmp_path / "out"))
        assert code == 2
