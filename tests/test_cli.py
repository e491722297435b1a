import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import releq
from releq import maxent, oscillator, tls
from releq.bath import REGIMES
from releq.cli import MAX_HORIZON, MAX_SAMPLES, MODELS, ConfigError, ScenarioConfig, main, run


TLS_PARAMS = {"omega0": 1.0, "omegaL": 1.0, "W": 10.0, "beta_bath": 3.0, "Omega": 0.3}


def write_config(path, **overrides):
    config = {
        "model": "oscillator",
        "params": {"omega0": 1.0, "W": 10.0, "beta_bath": 3.0},
        "initial": [1.0, 0.0, 9.0],
        "regime": "non_markovian",
        "t_max": 1.0,
        "dt_out": 0.25,
        "tolerances": {"rel_tol": 1e-9, "abs_tol": 1e-12},
        "output_path": str(path.parent / "out.csv"),
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


class TestConfigValidation:
    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model"):
            ScenarioConfig.from_dict({"model": "spinchain", "output_path": "x.csv"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioConfig.from_dict({"model": "corr", "output_path": "x.csv", "mystery": 1})

    def test_missing_output_path(self):
        with pytest.raises(ConfigError, match="output_path"):
            ScenarioConfig.from_dict({"model": "corr", "params": {"W": 10, "beta_bath": 3}})

    def test_bad_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            ScenarioConfig.from_dict(
                {"model": "corr", "output_path": "x.csv", "regime": "quantum"}
            )

    def test_oscillator_needs_positive_horizon(self):
        with pytest.raises(ConfigError, match="t_max"):
            ScenarioConfig.from_dict(
                {
                    "model": "oscillator",
                    "params": {"W": 10, "beta_bath": 3},
                    "initial": [1, 0, 9],
                    "t_max": 0.0,
                    "dt_out": 0.1,
                    "output_path": "x.csv",
                }
            )

    def test_tls_needs_drive_amplitude(self):
        with pytest.raises(ConfigError, match="Omega"):
            ScenarioConfig.from_dict(
                {
                    "model": "tls",
                    "params": {"W": 10, "beta_bath": 3},
                    "initial": [0, 0, 0],
                    "t_max": 1.0,
                    "dt_out": 0.1,
                    "output_path": "x.csv",
                }
            )

    def test_exit_code_2_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "oscillator"}')
        assert main(["oscillator", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_code_2_on_model_mismatch(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path)
        assert main(["tls", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"initial": [1, 0, -1]}, ""),
            ({"initial": ["x", 0, 9]}, ""),
            ({"params": {"W": -1, "beta_bath": 3.0}}, ""),
            ({"initial": [1, 0, 0.5]}, ""),
            ({"model": "tls", "params": TLS_PARAMS, "initial": [0.4, 0.4, 0.0]}, ""),
            ({"model": "tls", "params": dict(TLS_PARAMS, omegaL=1.3), "initial": [0.0, 0.0, 0.0]}, ""),
            ({"t_max": float("nan")}, ""),
            ({"tolerances": {"rel_tol": 0.0}}, ""),
            ({"output_path": "missing-directory/out.csv"}, ""),
            ({"model": "maxent_solve", "operator_set": {"kind": "spin"}, "targets": [[0.3, 0.0]], "initial": []}, ""),
            ({"model": "corr", "t_max": 10.0, "dt_out": 1e-13, "initial": []}, "samples"),
            ({"t_max": 1e4, "dt_out": 1e-3}, "samples"),
            ({"model": "maxent_solve", "operator_set": {"kind": "fock", "dim": 4096}, "targets": [0.0, 1.0, 0.0], "initial": []}, "operator_set.dim"),
            ({"model": "maxent_solve", "operator_set": {"kind": "fock", "dim": 2.7}, "targets": [0.0, 1.0, 0.0], "initial": []}, "operator_set.dim must be an integer from 2 to 1024, got 2.7"),
            ({"model": "maxent_solve", "operator_set": {"kind": "fock", "dim": 1.5}, "targets": [0.0, 1.0, 0.0], "initial": []}, "operator_set.dim must be an integer from 2 to 1024, got 1.5"),
            ({"model": "maxent_solve", "operator_set": {"kind": "fock", "dim": 0}, "targets": [0.0, 1.0, 0.0], "initial": []}, "operator_set.dim must be an integer from 2 to 1024, got 0"),
            ({"model": "maxent_solve", "operator_set": {"kind": "fock", "dim": -3}, "targets": [0.0, 1.0, 0.0], "initial": []}, "operator_set.dim must be an integer from 2 to 1024, got -3"),
            ({"model": "maxent_solve", "operator_set": {"kind": "fock", "dim": True}, "targets": [0.0, 1.0, 0.0], "initial": []}, "operator_set.dim must be an integer from 2 to 1024, got True"),
            ({"model": "maxent_solve", "operator_set": {"kind": "fock", "dim": [4]}, "targets": [0.0, 1.0, 0.0], "initial": []}, "operator_set.dim must be an integer from 2 to 1024, got [4]"),
            ({"params": {"omega0": True, "W": 10.0, "beta_bath": 3.0}}, "params.omega0 must be a number, got True"),
            ({"dt_out": "0.5"}, "dt_out must be a number, got '0.5'"),
            ({"t_max": False}, "t_max must be a number, got False"),
            ({"tolerances": {"rel_tol": "1e-9"}}, "rel_tol must be a number, got '1e-9'"),
            ({"params": {"W": "10", "beta_bath": 3.0}}, "params.W must be a number, got '10'"),
            ({"initial": [True, 0.0, 9.0]}, "initial must be a number, got True"),
            ({"model": "tls", "params": dict(TLS_PARAMS, Omega=True), "initial": [0.0, 0.0, 0.0]}, "params.Omega must be a number, got True"),
            ({"model": "maxent_solve", "operator_set": {"kind": "spin"}, "targets": [0.0, [True, 0.0], 0.0], "initial": []}, "targets must be a number, got True"),
            ({"model": "maxent_solve", "operator_set": {"kind": "explicit", "operators": [[[[True, 0.0]]]], "pairing": [0]}, "targets": [0.5], "initial": []}, "an entry must be a number, got True"),
            ({"initial": 0.5}, "initial"),
            ({"params": "x"}, "params"),
            ({"model": "maxent_solve", "operator_set": 3, "targets": [0.0, 0.3, 0.0], "initial": []}, "operator_set"),
            ({"model": "maxent_solve", "operator_set": {"kind": "spin"}, "targets": 1, "initial": []}, "targets"),
            ({"t_max": 5e4, "dt_out": 0.1}, "t_max = 50000 is past 1000"),
            ({"model": "tls", "params": TLS_PARAMS, "initial": [0.0, 0.0, 0.0], "t_max": 1000.5}, "t_max"),
            ({"model": "corr", "t_max": 1000.5, "dt_out": 1.0, "initial": []}, "t_max"),
        ],
        ids=[
            "negative-n",
            "non-numeric-initial",
            "negative-W",
            "n-below-amplitude",
            "outside-bloch-ball",
            "detuned-drive",
            "nan-horizon",
            "zero-tolerance",
            "missing-output-directory",
            "target-count",
            "corr-sample-cap",
            "oscillator-sample-cap",
            "fock-dim-cap",
            "fock-dim-fraction",
            "fock-dim-below-two",
            "fock-dim-zero",
            "fock-dim-negative",
            "fock-dim-boolean",
            "fock-dim-list",
            "omega0-boolean",
            "dt-out-string",
            "t-max-boolean",
            "rel-tol-string",
            "W-string",
            "initial-boolean",
            "Omega-boolean",
            "target-boolean",
            "operator-entry-boolean",
            "initial-not-a-list",
            "params-not-an-object",
            "operator-set-not-an-object",
            "targets-not-a-list",
            "oscillator-horizon-cap",
            "tls-horizon-cap",
            "corr-horizon-cap",
        ],
    )
    def test_input_errors_exit_2_before_the_run(self, tmp_path, capsys, overrides, named):
        path = tmp_path / "cfg.json"
        config = write_config(path, **overrides)
        assert main([config["model"], "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert named in err
        assert not (tmp_path / "out.csv").exists()

    def test_sample_cap_admits_the_largest_grid(self):
        # A power-of-two step keeps t_max / dt_out exact inside the horizon cap.
        corr = {"model": "corr", "params": {"W": 10, "beta_bath": 3}, "output_path": "x.csv", "dt_out": 2.0**-10}
        largest = ScenarioConfig.from_dict(dict(corr, t_max=(MAX_SAMPLES - 1) * 2.0**-10))
        assert largest.inputs[1].size == MAX_SAMPLES
        with pytest.raises(ConfigError, match="samples"):
            ScenarioConfig.from_dict(dict(corr, t_max=MAX_SAMPLES * 2.0**-10))

    @pytest.mark.parametrize("model", ["oscillator", "tls", "corr"])
    def test_horizon_cap_admits_the_longest_table(self, model):
        raw = {
            "model": model,
            "params": TLS_PARAMS,
            "initial": [] if model == "corr" else [0.0, 0.0, 0.0] if model == "tls" else [1.0, 0.0, 9.0],
            "dt_out": 1.0,
            "output_path": "x.csv",
        }
        assert ScenarioConfig.from_dict(dict(raw, t_max=MAX_HORIZON)).t_max == MAX_HORIZON
        with pytest.raises(ConfigError, match="t_max"):
            ScenarioConfig.from_dict(dict(raw, t_max=math.nextafter(MAX_HORIZON, math.inf)))

    @pytest.mark.parametrize("model", ["oscillator", "tls"])
    def test_markovian_runs_past_the_horizon_cap(self, tmp_path, model):
        # An exact Markovian run builds no kernel table, so the cap leaves it be.
        path = tmp_path / "cfg.json"
        initial = [0.0, 0.0, 0.0] if model == "tls" else [1.0, 0.0, 9.0]
        write_config(path, model=model, params=TLS_PARAMS, initial=initial, t_max=5e4, dt_out=100.0)
        assert main([model, "--config", str(path)]) == 2
        assert not (tmp_path / "out.csv").exists()
        assert main([model, "--config", str(path), "--markovian"]) == 0
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 502


class TestOscillatorRuns:
    def test_csv_columns_and_metadata(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path)
        assert main(["oscillator", "--config", str(path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "t,re_a,im_a,n,S,beta"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 1.0 and first[3] == 9.0
        assert first[4] == pytest.approx(9 * math.log(9) - 8 * math.log(8), rel=1e-12)

        meta = json.loads((tmp_path / "out.meta.json").read_text())
        assert meta["version"]
        assert meta["wall_time_s"] > 0
        assert meta["config"]["model"] == "oscillator"
        assert meta["tolerances"]["rel_tol"] == 1e-9

    def test_identical_config_gives_byte_identical_csv(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path)
        assert main(["oscillator", "--config", str(path)]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert main(["oscillator", "--config", str(path)]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_metadata_echo_reruns_to_identical_output(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path)
        assert main(["oscillator", "--config", str(path)]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        echo = json.loads((tmp_path / "out.meta.json").read_text())["config"]
        echo["output_path"] = str(tmp_path / "rerun.csv")
        rerun = ScenarioConfig.from_dict(
            {k: v for k, v in echo.items() if v not in ({}, [])}
        )
        run(rerun)
        assert (tmp_path / "rerun.csv").read_bytes() == first

    def test_markovian_flag_overrides_regime(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path)
        assert main(["oscillator", "--config", str(path), "--markovian"]) == 0
        meta = json.loads((tmp_path / "out.meta.json").read_text())
        assert meta["config"]["regime"] == "markovian"

    def test_output_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path)
        target = tmp_path / "elsewhere.csv"
        assert main(["oscillator", "--config", str(path), "--output", str(target)]) == 0
        assert target.exists()


class TestOtherModels:
    def test_tls_run(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(
            path,
            model="tls",
            params={"omega0": 1.0, "omegaL": 1.0, "W": 10.0, "beta_bath": 3.0, "Omega": 0.3},
            initial=[0.0, 0.0, 0.0],
        )
        assert main(["tls", "--config", str(path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "t,sz,re_sp,im_sp,S,beta"
        first = [float(x) for x in lines[1].split(",")]
        assert first[4] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_tls_pure_initial_state_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path, model="tls", params=TLS_PARAMS, initial=[0.5, 0.0, 0.0])
        with pytest.warns(tls.BoundaryStateWarning, match="1 of 5 samples"):
            assert main(["tls", "--config", str(path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        first = [float(x) for x in lines[1].split(",")]
        assert first[4] == 0.0
        assert first[5] == -math.inf
        assert all(math.isfinite(float(x)) for line in lines[2:] for x in line.split(","))

    def test_corr_degenerate_horizon(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path, model="corr", t_max=0.0, initial=[])
        assert main(["corr", "--config", str(path)]) == 0
        assert (tmp_path / "out.csv").read_text() == "t,re_f,im_f,re_f_beta,im_f_beta\n"

    def test_corr_samples(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path, model="corr", t_max=1.0, dt_out=0.5, initial=[])
        assert main(["corr", "--config", str(path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "t,re_f,im_f,re_f_beta,im_f_beta"
        assert len(lines) == 4
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0, 0.0]

    def test_maxent_spin_solve(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(
            path,
            model="maxent_solve",
            operator_set={"kind": "spin"},
            targets=[[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]],
            initial=[],
        )
        assert main(["maxent_solve", "--config", str(path)]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "m,re_F,im_F,re_target,im_target"
        row = lines[2].split(",")
        assert int(row[0]) == 1
        assert float(row[1]) == pytest.approx(-math.log(4.0), rel=1e-15)
        meta = json.loads((tmp_path / "out.meta.json").read_text())
        assert meta["solution"]["entropy"] == pytest.approx(0.5004024235381879, abs=1e-9)
        assert meta["solution"]["residual"] <= 1e-10

    def test_maxent_explicit_operator_set(self, tmp_path):
        path = tmp_path / "cfg.json"
        sz = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
        write_config(
            path,
            model="maxent_solve",
            operator_set={"kind": "explicit", "operators": [sz], "pairing": [0]},
            targets=[[0.3, 0.0]],
            initial=[],
        )
        assert main(["maxent_solve", "--config", str(path)]) == 0
        row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(-2.0 * math.log(2.0), abs=1e-9)

    def test_infeasible_target_exits_3(self, tmp_path, capsys):
        # A pure spin state, and two states 1e-10 inside the boundary whose
        # closed-form start already meets tol but lies beyond the multiplier
        # bound: the spin state with F2 about -23.7 and the Fock-64 state
        # with n_eff = 1e-10.
        cases = [
            ({"kind": "spin"}, [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]]),
            ({"kind": "spin"}, [[0.0, 0.0], [0.4999999999, 0.0], [0.0, 0.0]]),
            ({"kind": "fock", "dim": 64}, [[1.0, 0.0], [1.0 + 1e-10, 0.0], [1.0, 0.0]]),
        ]
        path = tmp_path / "cfg.json"
        for operator_set, targets in cases:
            write_config(path, model="maxent_solve", operator_set=operator_set, targets=targets, initial=[])
            assert main(["maxent_solve", "--config", str(path)]) == 3, targets
            assert "numerical failure" in capsys.readouterr().err


class TestSweep:
    def test_sweep_runs_all_configs(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        write_config(
            sweep_dir / "a.json",
            t_max=0.5,
            output_path=str(tmp_path / "a.csv"),
        )
        write_config(
            sweep_dir / "b.json",
            model="corr",
            t_max=0.5,
            dt_out=0.25,
            initial=[],
            output_path=str(tmp_path / "b.csv"),
        )
        assert main(["--sweep", str(sweep_dir)]) == 0
        assert (tmp_path / "a.csv").exists()
        assert (tmp_path / "b.csv").exists()

    def test_sweep_with_model_filter_mismatch(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        write_config(sweep_dir / "a.json", output_path=str(tmp_path / "a.csv"))
        assert main(["tls", "--sweep", str(sweep_dir)]) == 2

    @pytest.mark.parametrize("failure, expected", [("config", 2), ("crash", 3)])
    def test_bad_file_does_not_stop_the_sweep(self, tmp_path, capsys, monkeypatch, failure, expected):
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        write_config(
            sweep_dir / "bad.json",
            initial=[1, 0, -1] if failure == "config" else [1, 0, 9],
            output_path=str(tmp_path / "bad.csv"),
        )
        write_config(
            sweep_dir / "good.json",
            model="corr",
            t_max=0.5,
            dt_out=0.25,
            initial=[],
            output_path=str(tmp_path / "good.csv"),
        )
        if failure == "crash":

            def crash(*args, **kwargs):
                raise RuntimeError("injected failure")

            monkeypatch.setattr(oscillator, "simulate", crash)
        assert main(["--sweep", str(sweep_dir)]) == expected
        assert (tmp_path / "good.csv").exists()
        err = capsys.readouterr().err
        assert str(sweep_dir / "bad.json") in err
        assert str(sweep_dir / "good.json") not in err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_sweep_matches_single_runs_in_file_name_order(self, tmp_path, capsys):
        spin = {"model": "maxent_solve", "operator_set": {"kind": "spin"}, "initial": []}
        good = {
            "d_osc": {"t_max": 0.5},
            "c_tls": {"model": "tls", "params": TLS_PARAMS, "initial": [0.2, 0.1, -0.1], "t_max": 0.5},
            "b_corr": {"model": "corr", "t_max": 0.5, "initial": []},
            "a_maxent": dict(spin, targets=[[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]]),
        }
        bad = {
            "z_config": {"initial": [1, 0, -1]},  # exit 2
            "e_infeasible": dict(spin, targets=[[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]]),  # exit 3
        }
        sweep_dir, out_dir, single_dir = (tmp_path / name for name in ("sweep", "out", "single"))
        for directory in (sweep_dir, out_dir, single_dir):
            directory.mkdir()
        for name, overrides in {**bad, **good}.items():
            write_config(sweep_dir / f"{name}.json", output_path=str(out_dir / f"{name}.csv"), **overrides)

        assert main(["--sweep", str(sweep_dir)]) == 3
        err = capsys.readouterr().err
        positions = [err.find(str(sweep_dir / f"{name}.json")) for name in sorted(bad)]
        assert 0 <= positions[0] < positions[1]
        for name, overrides in good.items():
            assert str(sweep_dir / f"{name}.json") not in err
            single = single_dir / f"{name}.csv"
            model = overrides.get("model", "oscillator")
            assert main([model, "--config", str(sweep_dir / f"{name}.json"), "--output", str(single)]) == 0
            assert (out_dir / f"{name}.csv").read_bytes() == single.read_bytes()

    def test_empty_sweep_dir(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        assert main(["--sweep", str(sweep_dir)]) == 2

    def test_missing_arguments(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err


# The README configurations, both regimes where they apply; any change to a
# number or its text shows here.  The non-Markovian transport digests are
# those of steps chosen by error control alone on the kernel table built
# from cubic Hermite pieces, the Markovian ones those of the exact
# propagation with the principal-value frequency shifts, both with the
# array formulas for the two-level S and beta; the
# maxent digest is that of the Newton solve with the exact Jacobian, started
# from the closed-form two-level multipliers of the targets.  They were
# taken on x86-64 with numpy 2.4.6, and no scipy code runs in these
# configurations; another libm or BLAS may move last bits.
_README_OSCILLATOR = {
    "model": "oscillator",
    "params": {"omega0": 1.0, "W": 10.0, "beta_bath": 3.0},
    "initial": [1.0, 0.0, 9.0],
    "t_max": 20.0,
    "dt_out": 0.01,
    "tolerances": {"rel_tol": 1e-9, "abs_tol": 1e-12},
}
_README_TLS = {
    "model": "tls",
    "params": {"omega0": 1.0, "omegaL": 1.0, "Omega": 5.0, "W": 10.0, "beta_bath": 3.0},
    "initial": [0.0, 0.0, 0.0],
    "t_max": 20.0,
    "dt_out": 0.01,
}
_WEAK_TLS = dict(_README_TLS, params=dict(_README_TLS["params"], Omega=0.3), initial=[0.2, 0.1, -0.1])
PINNED_CSV = [
    (dict(_README_OSCILLATOR, regime="non_markovian"), "997c5fa243767801fe234d4f12ba4be2f96d684e93ad492a4abc0e27f54ab2be"),
    (dict(_README_OSCILLATOR, regime="markovian"), "12a53ebd4ceec926b7e21119ab8c00a7321bc61326347fb7c2a5842dfb28c454"),
    (dict(_README_TLS, regime="non_markovian"), "e64c56c07ea18f38afac55c6c05d827fbb382b6ad076679f3851be99827b48df"),
    (dict(_README_TLS, regime="markovian"), "ee2197b3c1bb979404372030a32ead4db8eb825d1d5771d132648211133f3d08"),
    (dict(_WEAK_TLS, regime="non_markovian"), "b4cced0352c1e384c6ef9f9bc749024da24daf2c2fb8e2d2d2d86f5f1d186c60"),
    (dict(_WEAK_TLS, regime="markovian"), "3e55c825dc2cd6a14109ad6a10fb3b03955ac69732ad4d7feb9669b87c3f40a3"),
    (
        {"model": "corr", "params": {"omega0": 1.0, "W": 10.0, "beta_bath": 3.0}, "t_max": 10.0, "dt_out": 0.1},
        "a637aa0e6a4596d1b78a0d3feb64aca15581db58dfe60fd9547e4d55f773ff23",
    ),
    (
        {"model": "maxent_solve", "operator_set": {"kind": "spin"}, "targets": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]]},
        "63fe65cd62428ba71038b078bba8529fe28c9aa67032b5d445c9e433065c216c",
    ),
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "config, digest",
    PINNED_CSV,
    ids=["osc-nm", "osc-m", "tls-nm", "tls-m", "weak-tls-nm", "weak-tls-m", "corr", "maxent"],
)
def test_readme_csv_bytes_are_pinned(tmp_path, config, digest):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, output_path=str(tmp_path / "out.csv"))))
    assert main([config["model"], "--config", str(path)]) == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_readme_examples_run_and_are_pinned(tmp_path):
    # Every documented configuration is one whose CSV bytes are pinned above.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = [json.loads(block) for block in re.findall(r"^```json\n(.*?)^```$", readme, re.S | re.M)]
    assert [block["model"] for block in blocks] == list(MODELS)
    pinned = [config for config, _ in PINNED_CSV]
    for k, block in enumerate(blocks):
        block.pop("output_path")
        assert block in pinned, block
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(dict(block, output_path=str(tmp_path / f"{k}.csv"))))
        assert main([block["model"], "--config", str(path)]) == 0


def test_the_cli_imports_no_scipy(tmp_path):
    # scipy serves only the direct reference quadrature of the kernels, so
    # a run does not pay for importing it; the Markovian run computes the
    # frequency shifts too.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_README_OSCILLATOR, output_path=str(tmp_path / "out.csv"))))
    code = (
        "import sys, releq.cli; "
        f"assert releq.cli.main(['oscillator', '--config', {str(path)!r}, '--markovian']) == 0; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(releq.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    assert (tmp_path / "out.csv").exists()


# Right-hand-side evaluations of the README runs, counted the way the
# benchmark's tracer counts them: by wrapping the problem's ``rhs`` on its
# way into ``integrate``.  They depend only on the step control, so a change
# to it shows here as a count before it shows as a CSV digest.  A Markovian
# run is an exact propagation and integrates nothing, so its count is zero.
RHS_EVALUATIONS = [
    (dict(_README_OSCILLATOR, regime="non_markovian"), 6572),
    (dict(_README_OSCILLATOR, regime="markovian"), 0),
    (dict(_README_TLS, regime="non_markovian"), 4442),
    (dict(_README_TLS, regime="markovian"), 0),
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("config, evaluations", RHS_EVALUATIONS, ids=["osc-nm", "osc-m", "tls-nm", "tls-m"])
def test_readme_rhs_evaluations_are_pinned(tmp_path, monkeypatch, config, evaluations):
    module = oscillator if config["model"] == "oscillator" else tls
    integrate = module.integrate
    calls = []

    def counting_integrate(problem, sample_times):
        def rhs(t, y):
            calls.append(t)
            return problem.rhs(t, y)

        return integrate(dataclasses.replace(problem, rhs=rhs), sample_times)

    monkeypatch.setattr(module, "integrate", counting_integrate)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, output_path=str(tmp_path / "out.csv"))))
    assert main([config["model"], "--config", str(path)]) == 0
    assert len(calls) == evaluations


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("config, evaluations", RHS_EVALUATIONS, ids=["osc-nm", "osc-m", "tls-nm", "tls-m"])
def test_readme_step_statistics_count_the_pinned_evaluations(tmp_path, monkeypatch, config, evaluations):
    module = oscillator if config["model"] == "oscillator" else tls
    integrate = module.integrate
    trajectories = []

    def recording_integrate(problem, sample_times):
        trajectories.append(integrate(problem, sample_times))
        return trajectories[-1]

    monkeypatch.setattr(module, "integrate", recording_integrate)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, output_path=str(tmp_path / "out.csv"))))
    assert main([config["model"], "--config", str(path)]) == 0
    # One integration for a non-Markovian run, none for a Markovian one.
    assert len(trajectories) == (1 if evaluations else 0)
    assert sum(trajectory.stats.rhs_evals for trajectory in trajectories) == evaluations
    for trajectory in trajectories:
        stats = trajectory.stats
        # The formula by which the benchmark's tracer derives attempted steps.
        assert stats.rhs_evals == 6 * (stats.accepted + stats.rejected) + 2 == evaluations
        # Error control alone sets the step: a cap at 0.01 / omega0 would show here.
        assert 0.0 < stats.h_min <= stats.h_max
        assert stats.h_max > 0.01


# A Markovian run is the exact propagation of its constant-coefficient
# equations: it integrates nothing, and it does not read the oscillator's
# closed form, which acceptance criterion 7 compares it with.
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "config",
    [dict(_README_OSCILLATOR, regime="markovian"), dict(_README_TLS, regime="markovian")],
    ids=["osc-m", "tls-m"],
)
def test_markovian_readme_runs_integrate_nothing(tmp_path, monkeypatch, config):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Markovian run called the integrator or the closed form")

    for module in (oscillator, tls):
        monkeypatch.setattr(module, "integrate", forbidden)
    monkeypatch.setattr(oscillator, "closed_form_trajectory", forbidden)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, output_path=str(tmp_path / "out.csv"))))
    assert main([config["model"], "--config", str(path)]) == 0
    assert (tmp_path / "out.csv").read_text().count("\n") == 2002


# Eigendecompositions of a CLI max-ent solve without ``initial``: Newton starts
# from the closed-form multipliers of the targets, so on a wide Fock ladder or
# the spin set the start is the solution (one build_state in the solve, one in
# the CLI's rebuild); a narrow ladder needs a few steps for its truncation.
MAXENT_BUILDS = [
    (
        {"kind": "fock", "dim": 256},
        [0.2566560186502818 + 0.40218191069958376j, 1.0224499203400177, 0.2566560186502818 - 0.40218191069958376j],
        (2, 2),
    ),
    ({"kind": "spin"}, [0.0, 0.3, 0.0], (2, 2)),
    ({"kind": "fock", "dim": 32}, [0.5 - 0.3j, 2.4, 0.5 + 0.3j], (2, 5)),
]


@pytest.mark.parametrize("operator_set, targets, builds", MAXENT_BUILDS, ids=["fock-256", "spin", "fock-32"])
def test_cli_maxent_solve_starts_from_the_closed_form(tmp_path, monkeypatch, operator_set, targets, builds):
    ops = maxent.fock_operator_set(operator_set["dim"]) if operator_set["kind"] == "fock" else maxent.spin_operator_set()
    reference = maxent.solve_self_consistency(targets, ops)
    build_state = maxent.build_state
    calls = []

    def counting_build_state(F, ops):
        calls.append(F)
        return build_state(F, ops)

    monkeypatch.setattr(maxent, "build_state", counting_build_state)
    path = tmp_path / "cfg.json"
    pairs = [[complex(t).real, complex(t).imag] for t in targets]
    write_config(path, model="maxent_solve", operator_set=operator_set, targets=pairs, initial=[])
    assert main(["maxent_solve", "--config", str(path)]) == 0
    assert builds[0] <= len(calls) <= builds[1]
    rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    F = np.array([complex(float(row[1]), float(row[2])) for row in rows])
    assert np.max(np.abs(F - reference)) <= 1e-9
    assert json.loads((tmp_path / "out.meta.json").read_text())["solution"]["residual"] <= 1e-10


# Each example starts from a valid configuration of one model and applies up
# to three edits of a field, each to a plausible value or to one of the wrong
# type or range.
# Valid values are few, so the kernel tables and long-time limits are shared
# between examples, and t_max <= 0.5 and small Fock dimensions keep each run
# short.
_SZ = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
_BATH = {"W": 10.0, "beta_bath": 3.0}
_BASE = {
    "oscillator": {"params": _BATH, "initial": [1.0, 0.0, 9.0], "t_max": 0.5, "dt_out": 0.25},
    "tls": {"params": dict(_BATH, Omega=0.3), "initial": [0.0, 0.0, 0.0], "t_max": 0.5, "dt_out": 0.25},
    "corr": {"params": _BATH, "t_max": 0.5, "dt_out": 0.25},
    "maxent_solve": {"operator_set": {"kind": "spin"}, "targets": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]]},
}
_JUNK = ["x", None, [], {}, -1.0, 0.0, float("nan"), float("inf")]
_EDITS = {
    ("model",): list(MODELS),
    ("params",): [],
    ("params", "W"): [5.0],
    ("params", "beta_bath"): [1.0],
    ("params", "omega0"): [2.0],
    ("params", "Omega"): [5.0],
    ("params", "omegaL"): [1.3],
    ("initial",): [[0.4, 0.4, 0.0], [1.0, 0.0, 0.5], [0.2, 0.1, -0.1], [0.5, 0.0, 0.0], [1.0, 0.0], ["x", 0, 9]],
    ("regime",): list(REGIMES),
    ("t_max",): [0.1],
    ("dt_out",): [0.05, 1.0],
    ("tolerances",): [{"rel_tol": 1e-6}, {"abs_tol": 1.0}],
    ("operator_set",): [{"kind": "fock", "dim": 8}, {"kind": "explicit", "operators": [_SZ], "pairing": [0]}],
    ("operator_set", "dim"): [2, 8],
    ("operator_set", "pairing"): [[1], [0.0]],
    ("targets",): [
        [0.3],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.4999999999, 0.0], [0.0, 0.0]],
        [[0.1, 0.0], [0.3, 0.1], [0.0, 0.0]],
        [0.0, 0.2, 0.0],
    ],
}


@st.composite
def _edited_configs(draw):
    model = draw(st.sampled_from(MODELS))
    config = json.loads(json.dumps(dict(_BASE[model], model=model)))
    for path in draw(st.lists(st.sampled_from(list(_EDITS)), max_size=3, unique=True)):
        value = draw(st.sampled_from(_EDITS[path] + _JUNK))
        *parents, last = path
        owner = config
        for key in parents:
            owner = owner.get(key) if isinstance(owner, dict) else None
        if isinstance(owner, dict):
            owner[last] = copy.deepcopy(value)
    return model, config


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(case=_edited_configs(), markovian=st.booleans())
@settings(max_examples=50, deadline=None)
def test_any_config_exits_0_2_or_3(case, markovian):
    model, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(config, output_path=str(Path(tmp) / "out.csv"))))
        argv = [model, "--config", str(path)] + (["--markovian"] if markovian else [])
        assert main(argv) in (0, 2, 3)
