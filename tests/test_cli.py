"""Command line front end: exit codes, reports, byte stability."""

import json
import math

import numpy as np
import pytest

from aggdiff import hls_sharp_constant, riesz_constant, vhls_constant_upper
from aggdiff.cli import ConfigError, load_config, main


def run_cli(*argv):
    return main(list(argv))


SMALL = [
    "--set", "grid.n_cells=96",
    "--set", "grid.r_max=4.0",
    "--set", "experiment.n_random_fields=6",
    "--set", "experiment.n_starts=1",
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

    def test_type_error_names_field(self):
        with pytest.raises(ConfigError, match="solver.cfl"):
            load_config(None, ["solver.cfl=2.0"])

    def test_negative_epsilon_names_field(self):
        with pytest.raises(ConfigError, match="model.epsilon"):
            load_config(None, ["model.epsilon=-0.1"])

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

    def test_fault_must_be_known(self, tmp_path, capsys):
        assert load_config(None, ["experiment.fault=asymmetric_kernel"])
        assert load_config(None, ["experiment.fault=null"])
        code = run_cli("verify", "--set", "experiment.fault=asymetric_kernel",
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "experiment.fault" in capsys.readouterr().err

    def test_coupled_domain_constraint(self):
        with pytest.raises(ConfigError, match="2 < 2s < d"):
            load_config(None, ["model.s=1.6"])  # 2s = 3.2 > d = 3


class TestConstants:
    def test_report_matches_library(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("constants", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        res = report["results"]
        assert res["c_ds"] == pytest.approx(riesz_constant(3, 1.25), rel=1e-15)
        assert res["C_hls"] == pytest.approx(hls_sharp_constant(3, 1.25), rel=1e-15)
        assert res["C_star_upper"] == pytest.approx(vhls_constant_upper(3, 1.25),
                                                    rel=1e-15)
        assert res["M_star"] > 0
        assert "config_sha256" in report

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("constants", "--set", "model.s=zzz") == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1


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
        assert {"J_value", "lambda_bar", "el_residual", "M_target"} <= set(meta)

        out2 = tmp_path / "out2"
        code = run_cli("constants", "--profile", str(profile), "--out", str(out2))
        assert code == 0
        res = json.loads((out2 / "report.json").read_text())["results"]
        assert res["C_star_measured"] <= res["C_star_upper"] * 1.02
        assert res["M_star_measured"] >= res["M_star"] * 0.95

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        code = run_cli("extremal", *SMALL, "--set",
                       "experiment.fixed_point.max_iter=1",
                       "--set", "experiment.fixed_point.tol=1e-14",
                       "--out", str(tmp_path / "out"))
        assert code == 3


@pytest.fixture(scope="module")
def extremal_profile(tmp_path_factory):
    """Steady profile written by ``aggdiff extremal`` on the SMALL grid."""
    out = tmp_path_factory.mktemp("extremal")
    assert run_cli("extremal", *SMALL, "--out", str(out)) == 0
    return out / "profile_extremal.csv"


class TestProfileHandoff:
    def test_sidecar_records_grid(self, extremal_profile):
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        assert (meta["d"], meta["n_cells"], meta["r_max"]) == (3, 96, 4.0)

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

    def test_profile_on_other_grid_is_config_error(self, tmp_path, extremal_profile,
                                                   capsys):
        code = run_cli("simulate", *SMALL, "--set", "grid.r_max=4.5",
                       "--profile", str(extremal_profile), "--out", str(tmp_path))
        assert code == 1
        assert "does not match configured grid" in capsys.readouterr().err

    def test_sidecar_volume_mismatch_is_config_error(self, tmp_path, extremal_profile,
                                                     capsys):
        csv_path = tmp_path / "profile.csv"
        csv_path.write_bytes(extremal_profile.read_bytes())
        meta = json.loads(extremal_profile.with_suffix(".json").read_text())
        meta["r_max"] = 4.5
        csv_path.with_suffix(".json").write_text(json.dumps(meta))
        code = run_cli("simulate", *SMALL, "--profile", str(csv_path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "volumes do not match" in capsys.readouterr().err


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
        assert (out / "diagnostics_ratio_0p5.csv").exists()
        assert (out / "diagnostics_ratio_1p5.csv").exists()

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
        assert len(res["l1_distances"]) == 2


class TestVerify:
    def test_default_config_passes(self, tmp_path, capsys):
        assert run_cli("verify", "--out", str(tmp_path / "out")) == 0

    def test_corrupted_kernel_fails(self, tmp_path, capsys):
        code = run_cli("verify", "--set", "experiment.fault=asymmetric_kernel",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        failed = [c["name"] for c in report["results"]["checks"] if not c["passed"]]
        assert "kernel_symmetry" in failed

    def test_zero_tolerance_fails(self, tmp_path, capsys):
        code = run_cli("verify", "--set", "experiment.tolerances.hls_ratio=0",
                       "--out", str(tmp_path / "out"))
        assert code == 2
