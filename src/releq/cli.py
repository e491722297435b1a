"""Batch scenario runner.

Reads a JSON configuration, runs one of the four computation models
(oscillator, tls, corr, maxent_solve), and writes a CSV data file plus a
JSON metadata sidecar holding the effective configuration, tolerances,
wall time, and library version.  Floats are written in shortest
round-trip form, so identical configurations produce byte-identical CSV.

Exit codes: 0 success, 2 configuration error (found before the run
starts) or unwritable output, 3 numerical failure (during the run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, bath, csvtext, maxent, oscillator, tls
from .bath import REGIMES, BathParams, QuadratureError
from .transport import InvariantViolationError, PropagationError, check_tolerances, sample_times

__all__ = ["MAX_FOCK_DIM", "MAX_HORIZON", "MAX_SAMPLES", "MAX_STEPS", "MAX_W_BETA", "ConfigError", "ScenarioConfig", "run", "main"]

MODELS = ("oscillator", "tls", "corr", "maxent_solve")

_NUMERICAL_ERRORS = (
    QuadratureError,
    InvariantViolationError,
    PropagationError,
    maxent.MaxEntError,
)

# Raised while parsing by a value of the wrong type or outside its model's domain.
_INPUT_ERRORS = (TypeError, ValueError, OverflowError, InvariantViolationError)

# Largest inputs a run accepts: the number of output samples (t_max / dt_out),
# the t_max and the number of kernel steps (``bath.step_counts``, known
# before the first) of a run that integrates the kernels (corr and
# non-Markovian transport), and the dimension of a Fock operator set (three
# dim x dim complex matrices, one eigendecomposition per Newton step).
# Larger requests exit 2 instead of exhausting memory or running for minutes.
MAX_SAMPLES = 10**6
MAX_STEPS = 2 * 10**6
MAX_HORIZON = 1000.0
MAX_FOCK_DIM = 1024

# Largest W * beta_bath of a run that integrates the kernels.  The
# finite-temperature kernel reads trigamma at (1 - i t W) / (W beta), which
# lies within trigamma's 1e-12 pole tolerance of 0 near t = 0 from here on.
# Such runs, and those whose beta_bath**2 overflows, exit 2; Markovian runs
# read the long-time limits only and take any bath.
MAX_W_BETA = 1e12


class ConfigError(ValueError):
    """Configuration missing fields or holding out-of-range values."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description.

    ``initial`` is the model's moment list: ``[re_a, im_a, n]`` for the
    oscillator, ``[sz, re_sp, im_sp]`` for the two-level system.  The
    maxent_solve model ignores the time fields and instead uses
    ``operator_set`` (a named preset or explicit matrices) plus ``targets``.
    """

    model: str
    params: dict = field(default_factory=dict)
    initial: list = field(default_factory=list)
    regime: str = "non_markovian"
    t_max: float = 0.0
    dt_out: float = 0.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    output_path: str = ""
    operator_set: dict = field(default_factory=dict)
    targets: list = field(default_factory=list)

    @staticmethod
    def from_dict(raw: dict, regime_override: str | None = None, output_override: str | None = None) -> "ScenarioConfig":
        """Validate ``raw`` and build the model's inputs; any bad value raises ConfigError."""
        try:
            config = ScenarioConfig._parse(raw, regime_override, output_override)
            config.inputs  # built now, so that bad values are configuration errors
        except _INPUT_ERRORS as exc:
            raise ConfigError(str(exc)) from None
        try:
            config.record  # and so that the sidecar can record the run
        except RecursionError:
            raise ConfigError("the configuration is nested too deeply to record") from None
        return config

    @staticmethod
    def _parse(raw, regime_override, output_override) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        known = set(ScenarioConfig.__dataclass_fields__) | {"tolerances"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")

        model = raw.get("model")
        if model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
        regime = regime_override or raw.get("regime", "non_markovian")
        if regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}, got {regime!r}")

        tolerances = _field(raw, "tolerances", dict, "an object with rel_tol/abs_tol")
        rel_tol = _number(tolerances.get("rel_tol", raw.get("rel_tol", 1e-9)), "rel_tol")
        abs_tol = _number(tolerances.get("abs_tol", raw.get("abs_tol", 1e-12)), "abs_tol")

        output_path = output_override or raw.get("output_path", "")
        if not output_path:
            raise ConfigError("output_path is required (or pass --output)")
        if not Path(output_path).parent.is_dir():
            raise ConfigError(f"output directory {Path(output_path).parent} does not exist")
        for path in (Path(output_path), _sidecar_path(output_path)):
            if path.is_dir():
                raise ConfigError(f"output {path} is a directory")

        t_max = _number(raw.get("t_max", 0.0), "t_max")
        dt_out = _number(raw.get("dt_out", 0.0), "dt_out")
        if not (math.isfinite(t_max) and math.isfinite(dt_out)):
            raise ConfigError(f"t_max and dt_out must be finite, got {t_max} and {dt_out}")
        if model in ("oscillator", "tls"):
            if not 0 < dt_out <= t_max:
                raise ConfigError(f"{model} runs need 0 < dt_out <= t_max, got {dt_out} and {t_max}")
            check_tolerances(rel_tol, abs_tol)
        elif model == "corr":
            if t_max < 0 or (t_max > 0 and dt_out <= 0):
                raise ConfigError(f"corr runs need t_max >= 0 and dt_out > 0, got {t_max} and {dt_out}")
        if model != "maxent_solve" and t_max > 0 and not t_max / dt_out < MAX_SAMPLES:
            raise ConfigError(
                f"t_max / dt_out = {t_max / dt_out:.3g} asks for more than {MAX_SAMPLES} samples"
            )
        if ScenarioConfig._takes_steps(model, regime) and t_max > MAX_HORIZON:
            raise ConfigError(f"t_max = {t_max:.6g} is past {MAX_HORIZON:g}, the cap of corr and non-Markovian runs")

        return ScenarioConfig(
            model=model,
            params=_field(raw, "params", dict, "an object"),
            initial=_field(raw, "initial", list, "a list"),
            regime=regime,
            t_max=t_max,
            dt_out=dt_out,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            output_path=str(output_path),
            operator_set=_field(raw, "operator_set", dict, "an object"),
            targets=_field(raw, "targets", list, "a list"),
        )

    @staticmethod
    def _takes_steps(model: str, regime: str) -> bool:
        """Whether a run integrates the kernels on the steps of ``bath.step_chunks``."""
        return model == "corr" or (model != "maxent_solve" and regime == "non_markovian")

    @cached_property
    def record(self) -> dict:
        """The configuration as the sidecar records it."""
        return asdict(self)

    @cached_property
    def inputs(self) -> tuple:
        """The model's objects, built from the raw fields.

        ``(params, initial_state)`` for oscillator and tls, ``(bath, times)``
        for corr, ``(operator_set, targets, initial_multipliers)`` for
        maxent_solve.
        """
        if self.model == "maxent_solve":
            ops = _build_operator_set(self.operator_set)
            initial = _complex_pairs(self.initial, len(ops), "initial multipliers") if self.initial else None
            return ops, _complex_pairs(self.targets, len(ops), "targets"), initial
        for name in ("W", "beta_bath") + (("Omega",) if self.model == "tls" else ()):
            if name not in self.params:
                raise ConfigError(f"params.{name} is required for model {self.model}")
        bath_params = BathParams(
            W=_number(self.params["W"], "params.W"),
            beta=_number(self.params["beta_bath"], "params.beta_bath"),
            omega0=_number(self.params.get("omega0", 1.0), "params.omega0"),
        )
        times = sample_times(self.t_max, self.dt_out) if self.t_max > 0 else np.empty(0)
        if self._takes_steps(self.model, self.regime):
            steps = bath.step_counts(np.concatenate(([0.0], times)), bath_params.W).sum()
            if steps > MAX_STEPS:
                raise ConfigError(f"the run would take {steps:.6g} kernel steps, more than {MAX_STEPS}")
            W, beta = bath_params.W, bath_params.beta
            if not W * beta < MAX_W_BETA:
                raise ConfigError(
                    f"W * beta_bath = {W * beta:.6g} is not below {MAX_W_BETA:g}: the finite-temperature kernel "
                    "cannot be evaluated there (trigamma's argument comes within 1e-12 of its pole at 0)"
                )
            if not math.isfinite(beta * beta):
                raise ConfigError(f"beta_bath = {beta:.6g} is too large: beta_bath**2 overflows in the kernels")
        if self.model == "corr":
            return bath_params, times
        values = [_number(v, "initial") for v in self.initial]
        if len(values) != 3 or not all(map(math.isfinite, values)):
            names = "[re_a, im_a, n]" if self.model == "oscillator" else "[sz, re_sp, im_sp]"
            raise ConfigError(f"{self.model} initial must be three finite numbers {names}")
        if self.model == "oscillator":
            initial = oscillator.OscillatorState(mean_a=complex(values[0], values[1]), mean_n=values[2])
            oscillator.check_domain([0.0], [initial.mean_a], [initial.mean_n])
            return bath_params, initial
        params = tls.TlsParams(
            omega0=bath_params.omega0,
            omegaL=_number(self.params.get("omegaL", bath_params.omega0), "params.omegaL"),
            Omega=_number(self.params["Omega"], "params.Omega"),
            bath=bath_params,
        )
        params.require_resonance()
        initial = tls.TlsState(mean_sz=values[0], mean_sp=complex(values[1], values[2]))
        tls.check_domain([0.0], [initial.mean_sz], [initial.mean_sp])
        return params, initial


def _field(raw: dict, name: str, kind: type, description: str):
    """A copy of the object or list ``raw[name]`` (empty when absent)."""
    value = raw.get(name, kind())
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {description}, got {value!r}")
    return kind(value)


def _number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number; booleans and strings are not."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _sidecar_path(output_path: str) -> Path:
    return Path(output_path).with_suffix(".meta.json")


_CSV_CHUNK = 2048  # rows that _write_csv formats at a time


def _write_csv(path: str, header: str, columns) -> None:
    """Equal-length numpy columns as CSV rows under ``header``, a chunk of
    rows at a time: ints as their digits, floats in the shortest round-trip
    text that ``repr`` writes (``csvtext.rows``)."""
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            handle.write(csvtext.rows([column[start : start + _CSV_CHUNK] for column in columns]))


def _complex_pairs(values, size: int, name: str) -> np.ndarray:
    out = []
    for entry in values:
        re, im = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0.0)
        out.append(complex(_number(re, name), _number(im, name)))
    out = np.array(out, dtype=complex)
    if out.size != size or not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} must be {size} finite numbers or [re, im] pairs")
    return out


def _build_operator_set(spec: dict) -> maxent.RelevantOperatorSet:
    kind = spec.get("kind")
    if kind == "spin":
        return maxent.spin_operator_set()
    if kind == "fock":
        dim = spec.get("dim", 256)
        if type(dim) is not int or not 2 <= dim <= MAX_FOCK_DIM:
            raise ConfigError(f"operator_set.dim must be an integer from 2 to {MAX_FOCK_DIM}, got {dim!r}")
        return maxent.fock_operator_set(dim)
    if kind == "explicit":
        try:
            operators = tuple(
                np.array(
                    [
                        [complex(_number(cell[0], "an entry"), _number(cell[1], "an entry")) for cell in row]
                        for row in op
                    ],
                    dtype=complex,
                )
                for op in spec["operators"]
            )
            return maxent.RelevantOperatorSet(operators, tuple(spec["pairing"]))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ConfigError(f"bad explicit operator_set: {exc}") from None
    raise ConfigError(f"operator_set.kind must be spin, fock, or explicit, got {kind!r}")


def _run_transport(config: ScenarioConfig) -> tuple:
    params, initial = config.inputs
    model = oscillator if config.model == "oscillator" else tls
    run_data = model.simulate(initial, params, config.regime, t_max=config.t_max, dt_out=config.dt_out)
    return run_data.csv_header, run_data.csv_columns(), None


def _run_corr(config: ScenarioConfig) -> tuple:
    params, times = config.inputs
    f, f_beta = bath.correlator_samples(params, times)
    return "t,re_f,im_f,re_f_beta,im_f_beta", (times, f.real, f.imag, f_beta.real, f_beta.imag), None


def _closed_form_start(kind: str, targets: np.ndarray) -> np.ndarray | None:
    """Multipliers of the closed-form maximum-entropy state of ``targets``.

    The displaced thermal state for a ``fock`` set, the two-level state for
    ``spin``; None for an ``explicit`` set and for targets the closed form
    rejects (pure, degenerate or out-of-range states), which start at F = 0.
    """
    try:
        if kind == "fock":
            state = oscillator.OscillatorState(mean_a=complex(targets[2]), mean_n=float(targets[1].real))
            start = oscillator.multipliers(state)
        elif kind == "spin":
            start = tls.multipliers(tls.TlsState(mean_sz=float(targets[1].real), mean_sp=complex(targets[0])))
        else:
            return None
    except (ValueError, ArithmeticError):
        return None
    return np.array([start.F1, start.F2, start.F3], dtype=complex)


def _run_maxent(config: ScenarioConfig) -> tuple:
    ops, targets, initial = config.inputs
    if initial is None:
        initial = _closed_form_start(config.operator_set["kind"], targets)
    solution = maxent.solve_self_consistency(targets, ops, initial_F=initial)
    state = maxent.build_state(solution, ops)
    columns = (np.arange(solution.size), solution.real, solution.imag, targets.real, targets.imag)
    return "m,re_F,im_F,re_target,im_target", columns, {
        "phi": state.phi,
        "entropy": maxent.entropy(state, targets),
        "residual": float(np.max(np.abs(maxent.moments(state, ops) - targets))),
    }


def run(config: ScenarioConfig) -> dict:
    """Execute one scenario; returns the metadata written next to the CSV."""
    start = time.perf_counter()
    runner = {
        "oscillator": _run_transport,
        "tls": _run_transport,
        "corr": _run_corr,
        "maxent_solve": _run_maxent,
    }[config.model]
    header, columns, solution = runner(config)
    _write_csv(config.output_path, header, columns)
    metadata = {
        "config": config.record,
        "tolerances": {"rel_tol": config.rel_tol, "abs_tol": config.abs_tol},
        "wall_time_s": time.perf_counter() - start,
        "version": __version__,
    }
    if solution is not None:
        metadata["solution"] = solution
    _sidecar_path(config.output_path).write_text(json.dumps(metadata, indent=2) + "\n")
    return metadata


def _read_json(path: str):
    """The JSON value in the file at ``path``; nesting too deep to decode is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ConfigError("the JSON is nested too deeply to decode") from None


def _run_single(config_path: str, args) -> int:
    try:
        raw = _read_json(config_path)
        config = ScenarioConfig.from_dict(
            raw,
            regime_override="markovian" if args.markovian else None,
            output_override=args.output,
        )
        if args.model and config.model != args.model:
            raise ConfigError(
                f"config {config_path} declares model {config.model!r}, "
                f"command line asked for {args.model!r}"
            )
    except (ValueError, OSError) as exc:  # ConfigError, bad JSON, unreadable file
        print(f"{config_path}: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        run(config)
    except _NUMERICAL_ERRORS as exc:
        print(f"{config_path}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the CSV or its sidecar could not be written
        path = exc.filename or config.output_path
        print(f"{config_path}: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _sweep_one(config_path: str, args) -> int:
    """Run one sweep file; an unexpected failure is reported and counted as exit 3."""
    try:
        return _run_single(config_path, args)
    except Exception:
        print(f"{config_path}: unexpected failure\n{traceback.format_exc()}", end="", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="releq",
        description="Run oscillator, two-level, correlator, or maxent scenarios.",
    )
    parser.add_argument("model", nargs="?", choices=MODELS, help="model to run")
    parser.add_argument("--config", help="path to a JSON scenario configuration")
    parser.add_argument(
        "--markovian", action="store_true", help="force the markovian regime"
    )
    parser.add_argument("--output", help="override the CSV output path")
    parser.add_argument(
        "--sweep",
        metavar="DIR",
        help="run every *.json configuration in DIR, in file-name order",
    )
    args = parser.parse_args(argv)

    if args.sweep:
        configs = sorted(Path(args.sweep).glob("*.json"))
        if not configs:
            print(f"no *.json configurations in {args.sweep}", file=sys.stderr)
            return 2
        if args.output and len(configs) > 1:
            print("--output cannot be shared by a sweep", file=sys.stderr)
            return 2
        return max(_sweep_one(str(path), args) for path in configs)

    if not args.model or not args.config:
        parser.print_usage(sys.stderr)
        print("a model and --config are required unless --sweep is given", file=sys.stderr)
        return 2
    return _run_single(args.config, args)


if __name__ == "__main__":
    sys.exit(main())
