import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import releq
from releq import maxent, oscillator, tls, transport
from releq.bath import REGIMES
from releq.cli import MAX_HORIZON, MAX_SAMPLES, MAX_STEPS, MODELS, ConfigError, ScenarioConfig, main, run


TLS_PARAMS = {"omega0": 1.0, "omegaL": 1.0, "W": 10.0, "beta_bath": 3.0, "Omega": 0.3}


def _json_matrix(op) -> list:
    return [[[v.real, v.imag] for v in row] for row in np.asarray(op, dtype=complex)]


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

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, sweep):
        # json.loads raises RecursionError, not a ValueError, on such input.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        argv = ["--sweep", str(tmp_path)] if sweep else ["oscillator", "--config", str(path)]
        assert main(argv) == 2
        assert f"{path}: configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    def test_params_nested_too_deeply_to_record_exit_2_before_the_run(self, tmp_path, capsys, sweep):
        # json.loads takes 900 levels, but the sidecar's record of them
        # (dataclasses.asdict) would not, after the run had written its CSV.
        path = tmp_path / "deep.json"
        nested = json.loads("[" * 900 + "]" * 900)
        write_config(path, params={"omega0": 1.0, "W": 10.0, "beta_bath": 3.0, "note": nested})
        argv = ["--sweep", str(tmp_path)] if sweep else ["oscillator", "--config", str(path)]
        assert main(argv) == 2
        assert f"{path}: configuration error: the configuration is nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    @pytest.mark.parametrize("W, steps", [(1e5, "1.6e+07"), (1e300, "1.6e+302")])
    def test_a_run_past_the_step_cap_exits_2_at_once(self, tmp_path, capsys, W, steps, sweep):
        # t_max = dt_out = 10: the one interval starts before 15 / W and
        # takes 10 / (0.0625 / W) steps, a count no integer type holds at
        # W = 1e300.
        path = tmp_path / "cfg.json"
        write_config(path, params={"omega0": 1.0, "W": W, "beta_bath": 3.0}, t_max=10.0, dt_out=10.0)
        argv = ["--sweep", str(tmp_path)] if sweep else ["oscillator", "--config", str(path)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert f"{steps} kernel steps, more than {MAX_STEPS}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    @pytest.mark.parametrize(
        "model, W, beta, named, markovian",
        [
            ("oscillator", 1e7, 1e6, "W * beta_bath = 1e+13 is not below 1e+12", 0),
            ("oscillator", 10.0, 1e30, "W * beta_bath = 1e+31 is not below 1e+12", 0),
            ("tls", 10.0, 1e30, "W * beta_bath = 1e+31 is not below 1e+12", 0),
            ("corr", 10.0, 1e30, "W * beta_bath = 1e+31 is not below 1e+12", None),
            ("oscillator", 1e-300, 1e300, "beta_bath = 1e+300 is too large", 0),
            ("tls", 1e-300, 1e300, "beta_bath = 1e+300 is too large", 0),
        ],
        ids=["trigamma-pole", "cold", "tls-cold", "corr-cold", "beta-squared", "tls-beta-squared"],
    )
    def test_kernels_that_cannot_be_evaluated_exit_2(self, tmp_path, capsys, model, W, beta, named, markovian, sweep):
        # trigamma refuses its argument 1/(W beta) at t = 0 within 1e-12 of the
        # pole at 0, and beta**2 overflows past 1.3e154.  A Markovian run reads
        # only the long-time limits of the same bath; at W = 1e-300 the
        # golden-rule rate J(omega0) underflows, and it runs undamped.
        path = tmp_path / "cfg.json"
        initial = [] if model == "corr" else [0.0, 0.0, 0.0] if model == "tls" else [1.0, 0.0, 9.0]
        params = dict(TLS_PARAMS, W=W, beta_bath=beta)
        write_config(path, model=model, params=params, initial=initial, t_max=1e-4, dt_out=1e-6)
        argv = ["--sweep", str(tmp_path)] if sweep else [model, "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: configuration error: {named}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()
        if markovian is not None:
            assert main(argv + ["--markovian"]) == markovian
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    @pytest.mark.parametrize(
        "model, params",
        [
            ("oscillator", {"omega0": 1.0, "W": 1e300, "beta_bath": 3.0}),
            ("tls", dict(TLS_PARAMS, W=1e300)),
        ],
        ids=["oscillator-W", "tls-W"],
    )
    def test_a_markovian_run_whose_exponential_overflows_exits_3(self, tmp_path, capsys, model, params, sweep):
        path = tmp_path / "cfg.json"
        initial = [0.0, 0.0, 0.0] if model == "tls" else [1.0, 0.0, 1.5]
        write_config(path, model=model, params=params, initial=initial, regime="markovian", t_max=1.0, dt_out=0.1)
        argv = ["--sweep", str(tmp_path)] if sweep else [model, "--config", str(path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: numerical failure: the propagated state is not finite at t = 0.1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    @pytest.mark.parametrize("beta", [1e-160, 1e-300])
    def test_corr_kernels_that_are_not_finite_exit_3(self, tmp_path, capsys, beta, sweep):
        # Below W beta of about 1e-154 trigamma's argument 1 / (W beta)
        # overflows when squared, and f_beta is not finite from the first
        # step on; the non-Markovian oscillator on the same bath exits 3 too.
        path = tmp_path / "cfg.json"
        params = {"omega0": 1.0, "W": 10.0, "beta_bath": beta}
        write_config(path, model="corr", params=params, initial=[], t_max=1.0, dt_out=0.5)
        argv = ["--sweep", str(tmp_path)] if sweep else ["corr", "--config", str(path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: numerical failure: the kernels are not finite at t = 0.5" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()
        write_config(path, params=params)
        assert main(["oscillator", "--config", str(path)]) == 3

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
            (
                {
                    "model": "maxent_solve",
                    "operator_set": {
                        "kind": "explicit",
                        "operators": [_json_matrix(op) for op in (np.eye(3, k=2), np.eye(3, k=-2), np.diag([1.0, 0.0, -1.0]))],
                        "pairing": [True, False, 2],
                    },
                    "targets": [[0.1, 0.0], [0.1, 0.0], [0.2, 0.0]],
                    "initial": [],
                },
                "pairing must be a permutation of the operator indices",
            ),
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
            "pairing-boolean",
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
        # An exact Markovian run takes no kernel steps, so the cap leaves it be.
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
        transport._STEP_MAPS.clear()  # the rerun computes its step maps anew
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
            err = capsys.readouterr().err
            assert "numerical failure" in err
            assert "targets look infeasible (boundary or exterior of the moment region)" in err, err

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    def test_a_start_that_overflows_the_exponent_exits_3(self, tmp_path, capsys, sweep):
        path = tmp_path / "cfg.json"
        write_config(
            path,
            model="maxent_solve",
            operator_set={"kind": "fock", "dim": 16},
            targets=[[0.1, 0.0], 1.0, [0.1, 0.0]],
            initial=[[1e308, 0.0], [1e308, 0.0], [1e308, 0.0]],
        )
        argv = ["--sweep", str(tmp_path)] if sweep else ["maxent_solve", "--config", str(path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: numerical failure: the start multipliers exceed 20.0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
@pytest.mark.parametrize("blocked", ["csv", "sidecar"])
@pytest.mark.parametrize("kind", ["directory", "unwritable"])
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, kind, blocked, sweep):
    # A directory in place of the CSV or its sidecar is found before the run,
    # so nothing is written; a dangling link into a missing directory fails
    # only when the run opens it, and is reported with its path.
    out = tmp_path / "out.csv"
    target = out if blocked == "csv" else out.with_suffix(".meta.json")
    if kind == "directory":
        target.mkdir()
    else:
        target.symlink_to(tmp_path / "missing" / target.name)
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    corr = {"model": "corr", "t_max": 0.5, "dt_out": 0.25, "initial": []}
    write_config(sweep_dir / "a.json", output_path=str(out), **corr)
    if sweep:
        write_config(sweep_dir / "b.json", output_path=str(tmp_path / "good.csv"), **corr)
        assert main(["--sweep", str(sweep_dir)]) == 2
        assert (tmp_path / "good.csv").is_file()
    else:
        assert main(["corr", "--config", str(sweep_dir / "a.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "unexpected failure" not in err
    if kind == "directory":
        assert f"configuration error: output {target} is a directory" in err
        assert not out.is_file() and not out.with_suffix(".meta.json").is_file()
    else:
        assert f"{sweep_dir / 'a.json'}: cannot write {target}: " in err


# tracemalloc peak of ``run`` per output row.  The columns stay numpy arrays
# up to the writer, which formats one chunk of rows at a time in numpy
# (``csvtext.rows``, a few hundred bytes of temporaries per cell of the
# chunk): a Markovian oscillator holds its five columns (48 bytes a row)
# and the propagation's temporaries, a corr run the times and both kernels
# (40 bytes a row) and their step grid.  Holding every cell as a Python
# float in a list costs 32 bytes more a cell, which these bounds do not
# leave room for.
_BATH_PARAMS = {"omega0": 1.0, "W": 10.0, "beta_bath": 3.0}
RUN_MEMORY = [
    (
        {"model": "oscillator", "params": _BATH_PARAMS, "regime": "markovian", "initial": [1.0, 0.0, 1.5], "t_max": 200.0, "dt_out": 1e-3},
        128,
    ),
    ({"model": "corr", "params": _BATH_PARAMS, "t_max": 20.0, "dt_out": 1e-4}, 176),
]


@pytest.mark.parametrize("raw, bytes_per_row", RUN_MEMORY, ids=["osc-m", "corr"])
def test_run_memory_per_output_row(tmp_path, raw, bytes_per_row):
    config = ScenarioConfig.from_dict(dict(raw, output_path=str(tmp_path / "out.csv")))
    tracemalloc.start()
    try:
        run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = (tmp_path / "out.csv").read_bytes().count(b"\n") - 1
    assert rows == 200_001
    assert peak <= bytes_per_row * rows


# The README configurations, both regimes where they apply; any change to a
# number or its text shows here.  The non-Markovian transport digests are
# those of the sixth-order Magnus steps on kernels integrated on panels of
# up to 16 equal steps, by one Gauss-Legendre rule of at most 24 points per
# panel (at most 8 per step), with Taylor exponentials taken on the top
# rows, the Markovian ones those of the powers of the exact step map, the
# exponential of the augmented generator with the principal-value frequency
# shifts; both compose their step maps in blocks of 48 by one composer,
# and both use the array formulas for the two-level S and beta.
# Chunks, panels and blocks all start at fixed multiples of the run's step
# index, so no digest depends on the chunk length.  The corr digest is that
# of the same kernel integration on its own grid; the maxent digest is that
# of the Newton solve with the exact Jacobian, started from the closed-form
# two-level multipliers of the targets.  They were taken on x86-64 with
# numpy 2.4.6, and no scipy code runs in these configurations; another libm
# or BLAS may move last bits.
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
    (dict(_README_OSCILLATOR, regime="non_markovian"), "bf9aa73d21378d90022839b1a998c617e1b16630084bafb07fd9d7032dacc669"),
    (dict(_README_OSCILLATOR, regime="markovian"), "0e41780a87ba017d642b8f7eaaa83ba469b087a0ca4c649cb18a994bfd190450"),
    (dict(_README_TLS, regime="non_markovian"), "b50ed74d077cacf2e5d70f41694f1ae6281ca638f2b0295a25863b74823f726f"),
    (dict(_README_TLS, regime="markovian"), "b090b42a6774be6bcce8797e7a517d707ad4422d2a9a513fbf735bf767c8a2e0"),
    (dict(_WEAK_TLS, regime="non_markovian"), "75524a860bdfb2b4c40eb475e366320a2d001eae566f489faa0e9721fc9a54d2"),
    (dict(_WEAK_TLS, regime="markovian"), "03b0ce3494c1db86075243f2101744c3a46957ba4134d0591644ae55e239cf3e"),
    (
        {"model": "corr", "params": {"omega0": 1.0, "W": 10.0, "beta_bath": 3.0}, "t_max": 10.0, "dt_out": 0.1},
        "f03dbd5068811fe9c1cf820966d5fb7efe5f57f8a3a2497c08fb82b67be78ba3",
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


# Points at which the README runs evaluate the kernels' derivatives, counted
# by the ``kernel_points`` fixture.  A non-Markovian run integrates both
# kernels on panels of up to 16 Magnus steps of one width, with 24
# points on a panel of three steps or more, so a change to the step rule,
# the panels or their points shows here as a count before it shows as a CSV
# digest.  On this bath (W = 10) the step rule takes two steps of 0.005 per
# sample interval before t = 15 / W = 1.5 and one of 0.01 after: 300 steps
# in 19 panels, and 1850 in 117, since panels start at multiples of 16
# steps of the run and the first step of 0.01 is step 300: a panel of 4
# steps, 115 of 16 and one of 6.  That is 136 panels of 24 points, 3,264
# points.  The count moved from 17,200 when the kernels were integrated
# with 8 points on every step, and from 3,240 when the panels restarted
# at every change of the step width.  A Markovian run reads the long-time
# values and no kernel point.  A second run from another state on the bath
# and grid of the first composes its memoized step maps and takes none.
KERNEL_POINTS = [
    (dict(_README_OSCILLATOR, regime="non_markovian"), 3264),
    (dict(_README_OSCILLATOR, regime="markovian"), 0),
    (dict(_README_TLS, regime="non_markovian"), 3264),
    (dict(_README_TLS, regime="markovian"), 0),
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("config, points", KERNEL_POINTS, ids=["osc-nm", "osc-m", "tls-nm", "tls-m"])
def test_readme_kernel_points_are_pinned(tmp_path, kernel_points, config, points):
    path = tmp_path / "cfg.json"
    other = {"oscillator": [0.6, 0.2, 1.5], "tls": [0.2, 0.1, -0.1]}[config["model"]]
    for initial in (config["initial"], other):
        path.write_text(json.dumps(dict(config, initial=initial, output_path=str(tmp_path / "out.csv"))))
        assert main([config["model"], "--config", str(path)]) == 0
        assert kernel_points == [points]


# Acceptance criterion 7 compares the oscillator's closed form with its
# propagated runs, so no run may read the closed form.  A Markovian run is the
# exact propagation of its constant-coefficient equations and takes no Magnus
# step either.
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "config",
    [
        dict(_README_OSCILLATOR, regime="markovian"),
        dict(_README_TLS, regime="markovian"),
        dict(_README_OSCILLATOR, regime="non_markovian"),
        dict(_README_TLS, regime="non_markovian"),
    ],
    ids=["osc-m", "tls-m", "osc-nm", "tls-nm"],
)
def test_readme_runs_do_not_call_the_closed_form(tmp_path, monkeypatch, config):
    def forbidden(*args, **kwargs):
        raise AssertionError("a run called the closed form, or a Markovian run took Magnus steps")

    if config["regime"] == "markovian":
        monkeypatch.setattr(transport, "propagate_magnus", forbidden)
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


_A2 = np.linalg.matrix_power(np.diag(np.sqrt(np.arange(1.0, 4.0)), 1), 2)  # the squared ladder on 4 levels


@pytest.mark.parametrize(
    "operator_set, targets, dtype",
    [
        (*MAXENT_BUILDS[0][:2], np.float64),
        (*MAXENT_BUILDS[1][:2], np.float64),
        (
            {"kind": "explicit", "operators": [_json_matrix(op) for op in (_A2.T, np.diag(np.arange(4.0)), _A2)], "pairing": [2, 1, 0]},
            [0.05 - 0.02j, 1.2, 0.05 + 0.02j],
            np.complex128,
        ),
    ],
    ids=["fock-256", "spin", "explicit-a2"],
)
def test_maxent_runs_diagonalize_real_tridiagonal_matrices(tmp_path, monkeypatch, operator_set, targets, dtype):
    # One eigh per state built (the build counts are pinned above);
    # tridiagonal sets hand it real matrices, a set holding a**2 the
    # complex exponent.
    eigh, build_state = np.linalg.eigh, maxent.build_state
    matrices, states = [], []

    def recording_eigh(matrix):
        matrices.append(matrix)
        return eigh(matrix)

    def counting_build_state(F, ops):
        states.append(F)
        return build_state(F, ops)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(maxent, "build_state", counting_build_state)
    path = tmp_path / "cfg.json"
    pairs = [[complex(t).real, complex(t).imag] for t in targets]
    write_config(path, model="maxent_solve", operator_set=operator_set, targets=pairs, initial=[])
    assert main(["maxent_solve", "--config", str(path)]) == 0
    assert len(matrices) == len(states) >= 2
    assert {matrix.dtype for matrix in matrices} == {np.dtype(dtype)}


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
