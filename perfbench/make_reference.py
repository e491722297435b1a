"""Record the scenario pool and the program's outputs for it.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It draws every scenario a benchmark run can choose from a fixed seed, runs
each through ``releq.cli.main`` and writes ``perfbench/reference.json``.
A benchmark run only chooses among these entries, so its outputs can always
be checked against the recorded ones.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import releq.cli  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20141023
RELAX_POOL = 32  # entries per model
SWEEP_VARIANTS = 6  # entries per sweep slot
BETA_RANGE = (2.0, 9.0)


def _oscillator_initial(rng: random.Random) -> list:
    """|<a>| in [0, 2], n_eff in [0.5, 10]."""
    a = cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
    return [a.real, a.imag, rng.uniform(0.5, 10.0) + abs(a) ** 2]


def _bloch(rng: random.Random, radius: float) -> list:
    """A point at the given Bloch radius in a uniformly random direction."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [radius * x / norm for x in v]


def _tls_initial(rng: random.Random) -> list:
    """Uniform in the ball of Bloch radius 0.45."""
    return _bloch(rng, 0.45 * rng.random() ** (1.0 / 3.0))


def _run(config: dict, work: Path) -> dict:
    config_path, csv_path = workloads.write_config(config, work, "ref")
    csv_path.unlink(missing_ok=True)
    code = releq.cli.main([config["model"], "--config", str(config_path)])
    return workloads.record_output(code, csv_path)


def relax_pool(rng: random.Random, work: Path) -> dict:
    pool = {"oscillator": [], "tls": []}
    for model in pool:
        for k in range(RELAX_POOL):
            config = {
                "model": model,
                "params": dict(workloads.RELAX_BATH),
                "t_max": workloads.RELAX_T_MAX,
                "dt_out": workloads.RELAX_DT_OUT,
            }
            if model == "oscillator":
                config["initial"] = _oscillator_initial(rng)
            else:
                config["initial"] = _tls_initial(rng)
                config["params"]["Omega"] = rng.uniform(0.05, 0.5)
            expected = {
                regime: _run(dict(config, regime=regime), work)
                for regime in ("non_markovian", "markovian")
            }
            pool[model].append({"id": f"{model}-{k:02d}", "config": config, "expected": expected})
    return pool


def sweep_config(slot: dict, rng: random.Random) -> dict:
    model = slot["model"]
    if model == "maxent_solve":
        if slot["kind"] == "spin":
            sz, re_sp, im_sp = _bloch(rng, rng.uniform(0.05, 0.45))
            targets = [[re_sp, im_sp], sz, [re_sp, -im_sp]]
            operator_set = {"kind": "spin"}
        else:
            a = cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            n = rng.uniform(0.5, 2.0) + abs(a) ** 2
            targets = [[a.real, -a.imag], n, [a.real, a.imag]]
            operator_set = {"kind": "fock", "dim": slot["dim"]}
        return {"model": model, "operator_set": operator_set, "targets": targets}
    config = {
        "model": model,
        "params": {"omega0": 1.0, "W": slot["W"], "beta_bath": rng.uniform(*BETA_RANGE)},
        "t_max": slot["t_max"],
        "dt_out": slot.get("dt_out", 0.01),
    }
    if model == "oscillator":
        config["initial"] = _oscillator_initial(rng)
    elif model == "tls":
        config["initial"] = _tls_initial(rng)
        config["params"]["Omega"] = rng.uniform(0.05, 0.5)
    if "regime" in slot:
        config["regime"] = slot["regime"]
    return config


def sweep_pool(rng: random.Random, work: Path) -> list:
    pool = []
    for s, slot in enumerate(workloads.SWEEP_SLOTS):
        variants = []
        for v in range(SWEEP_VARIANTS):
            config = sweep_config(slot, rng)
            variants.append({"id": f"sweep-{s:02d}-{v}", "config": config, "expected": _run(config, work)})
        pool.append(variants)
    betas = [e["config"]["params"]["beta_bath"] for slot in pool for e in slot if "params" in e["config"]]
    if len(set(betas)) != len(betas):
        raise SystemExit("two sweep entries share a bath; change POOL_SEED")
    return pool


def main() -> int:
    rng = random.Random(POOL_SEED)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        reference = {
            "pool_seed": POOL_SEED,
            "relax": relax_pool(rng, work),
            "sweep": sweep_pool(rng, work),
        }
    failing = [
        (entry["id"], regime)
        for model in reference["relax"].values()
        for entry in model
        for regime, out in entry["expected"].items()
        if out["exit"] != 0
    ]
    if failing:
        raise SystemExit(f"relax pool entries fail at the reference commit: {failing}")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    codes = [e["expected"]["exit"] for slot in reference["sweep"] for e in slot]
    print(f"wrote {workloads.REFERENCE_PATH}; sweep exit codes: {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
