"""Seeded workload generation and the reference check for the releq benchmark.

Every scenario a run can use is a fixed entry of the pool stored in
``reference.json``, next to the outputs the program gave for it when the
pool was recorded (``make_reference.py``).  The seed only chooses entries
from the pool, so a run with any seed can be checked, and the program sees
nothing but the JSON configurations written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Headline bath of the relax workloads.
RELAX_BATH = {"omega0": 1.0, "W": 10.0, "beta_bath": 3.0}
RELAX_T_MAX = 20.0
RELAX_DT_OUT = 0.01
# Scenarios in one pass of a relax workload: this many of each model.
RELAX_PER_MODEL = 4

# One bath_sweep directory holds one configuration per slot.  The slots fix
# the shape of the work (model, regime, cutoff, horizon, Fock dimension), so
# the cost of a sweep hardly depends on the seed; the seed picks which
# recorded variant fills each slot (bath temperature, initial state, drive,
# maxent targets).
SWEEP_SLOTS = (
    {"model": "oscillator", "regime": "non_markovian", "W": 5.0, "t_max": 10.0},
    {"model": "oscillator", "regime": "non_markovian", "W": 10.0, "t_max": 10.0},
    {"model": "oscillator", "regime": "non_markovian", "W": 20.0, "t_max": 10.0},
    {"model": "oscillator", "regime": "markovian", "W": 10.0, "t_max": 10.0},
    {"model": "oscillator", "regime": "markovian", "W": 20.0, "t_max": 10.0},
    {"model": "tls", "regime": "non_markovian", "W": 5.0, "t_max": 10.0},
    {"model": "tls", "regime": "non_markovian", "W": 20.0, "t_max": 10.0},
    {"model": "tls", "regime": "markovian", "W": 5.0, "t_max": 10.0},
    # Beyond the 25-unit default table horizon: the kernel table is extended.
    {"model": "corr", "W": 10.0, "t_max": 40.0, "dt_out": 0.1},
    {"model": "corr", "W": 5.0, "t_max": 30.0, "dt_out": 0.1},
    {"model": "maxent_solve", "kind": "fock", "dim": 32},
    {"model": "maxent_solve", "kind": "fock", "dim": 64},
    {"model": "maxent_solve", "kind": "fock", "dim": 128},
    {"model": "maxent_solve", "kind": "fock", "dim": 256},
    {"model": "maxent_solve", "kind": "spin"},
)

# Tolerances of the output check.  State columns are held to the absolute
# 1e-6 of acceptance criterion 7; entropy and inverse temperature, which
# amplify state errors near the coherent boundary, to 1e-6 relative.
STATE_ATOL = 1e-6
DERIVED_RTOL = 1e-6
DERIVED_COLUMNS = ("S", "beta")
TIME_ATOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One CLI run: its pool entry, the config file and the expected output."""

    id: str
    model: str
    config_path: Path
    csv_path: Path
    expected: dict


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def write_config(config: dict, work: Path, name: str, csv_dir: Path | None = None) -> tuple[Path, Path]:
    """Write ``work/name.json``; its output goes to ``csv_dir`` (default
    ``work``).  A sweep keeps them apart, since it reads every ``*.json``."""
    csv_path = (csv_dir or work) / f"{name}.csv"
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(dict(config, output_path=str(csv_path))))
    return config_path, csv_path


def relax_scenarios(reference: dict, seed: int, regime: str, work: Path) -> list[Scenario]:
    """A pass of a relax workload: seeded oscillator and two-level states,
    alternating, all on the headline bath in ``regime``."""
    rng = random.Random(seed)
    picks = {
        model: rng.sample(reference["relax"][model], RELAX_PER_MODEL)
        for model in ("oscillator", "tls")
    }
    scenarios = []
    for pair in zip(picks["oscillator"], picks["tls"]):
        for entry in pair:
            config = dict(entry["config"], regime=regime)
            config_path, csv_path = write_config(config, work, entry["id"])
            scenarios.append(
                Scenario(entry["id"], config["model"], config_path, csv_path, entry["expected"][regime])
            )
    return scenarios


def sweep_scenarios(reference: dict, seed: int, sweep_dir: Path, csv_dir: Path) -> list[Scenario]:
    """A bath_sweep directory: one seeded variant per slot, each its own bath."""
    rng = random.Random(seed)
    scenarios = []
    for variants in reference["sweep"]:
        entry = rng.choice(variants)
        config_path, csv_path = write_config(entry["config"], sweep_dir, entry["id"], csv_dir)
        scenarios.append(
            Scenario(entry["id"], entry["config"]["model"], config_path, csv_path, entry["expected"])
        )
    return scenarios


# ---------------------------------------------------------------------------
# Reference records and the check against them.

_ROW_FRACTIONS = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)


def record_output(exit_code: int, csv_path: Path) -> dict:
    """What the check compares: exit code, header, row count and sample rows."""
    if exit_code != 0:
        return {"exit": exit_code}
    lines = csv_path.read_text().splitlines()
    header, body = lines[0], lines[1:]
    indices = sorted({round(f * (len(body) - 1)) for f in _ROW_FRACTIONS})
    return {
        "exit": 0,
        "header": header,
        "n_rows": len(body),
        "rows": [[k, [float(v) for v in body[k].split(",")]] for k in indices],
    }


def check_output(expected: dict, exit_code: int | None, csv_path: Path) -> str | None:
    """Compare one run with its reference; returns None or what differs.

    ``exit_code`` is None inside a sweep, where only the presence of the
    CSV tells a finished run from a failed one.
    """
    if expected["exit"] != 0:
        if exit_code == 0 or csv_path.exists():
            return f"expected exit {expected['exit']}, got a result"
        if exit_code is not None and exit_code != expected["exit"]:
            return f"expected exit {expected['exit']}, got {exit_code}"
        return None
    if exit_code not in (0, None):
        return f"expected exit 0, got {exit_code}"
    if not csv_path.exists():
        return "no CSV written"
    if not csv_path.with_suffix(".meta.json").exists():
        return "no metadata sidecar written"
    lines = csv_path.read_text().splitlines()
    if lines[0] != expected["header"]:
        return f"header {lines[0]!r} != {expected['header']!r}"
    if len(lines) - 1 != expected["n_rows"]:
        return f"{len(lines) - 1} rows, expected {expected['n_rows']}"
    columns = expected["header"].split(",")
    for index, ref_values in expected["rows"]:
        try:
            values = [float(v) for v in lines[index + 1].split(",")]
        except ValueError:
            return f"row {index} is not numeric"
        if len(values) != len(ref_values):
            return f"row {index} has {len(values)} columns, expected {len(ref_values)}"
        for name, value, ref in zip(columns, values, ref_values):
            if name == "t" or name == "m":
                limit = TIME_ATOL
            elif name in DERIVED_COLUMNS:
                limit = DERIVED_RTOL * max(1.0, abs(ref))
            else:
                limit = STATE_ATOL
            if not abs(value - ref) <= limit:
                return f"row {index} column {name}: {value!r} vs reference {ref!r}"
    return None
