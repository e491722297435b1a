"""Tests of the benchmark itself (not part of the library's test suite):

    python3 -m pytest perfbench

The determinism tests run the traced benchmark twice per workload, about
two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import COUNTS, Tracer  # noqa: E402


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = _run(ROOT, workload, seed, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"BENCH_{workload}_seed{seed}_trace1.json").read_text())
    return result, record


# Counters each workload exists to exercise; a tracer that lost its wrap
# point would read 0 here.
EXERCISED = {
    "relax_nm": ("odeint.rhs_evals", "bath.kernel_lookups"),
    "relax_markov": ("odeint.rhs_evals", "bath.kernel_lookups"),
    "bath_sweep": ("bath.table_builds", "bath.markovian_limits_misses",
                   "specfun.trigamma_points", "maxent.build_state_calls"),
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_counts_repeat_exactly(workload):
    first_result, first = _traced(workload, 3)
    second_result, second = _traced(workload, 3)
    assert first_result["correct"] and second_result["correct"]
    assert set(first["counts"]) == set(COUNTS)
    assert first["counts"] == second["counts"]
    assert first["traced_outcomes"] == second["traced_outcomes"]
    assert first["absent_layers"] == []
    for name in EXERCISED[workload]:
        assert first["counts"][name] > 0, name


def _csv_from_reference(expected: dict, path: Path, bump: float) -> None:
    """A CSV whose sampled rows are the reference rows, the state column
    ``n`` of the last one moved by ``bump``."""
    rows = {index: list(values) for index, values in expected["rows"]}
    last = max(rows)
    column = expected["header"].split(",").index("n")
    rows[last][column] += bump
    filler = rows[0]
    lines = [expected["header"]]
    lines += [",".join(repr(v) for v in rows.get(k, filler)) for k in range(expected["n_rows"])]
    path.write_text("\n".join(lines) + "\n")
    path.with_suffix(".meta.json").write_text("{}")


def test_check_holds_state_columns_to_1e_6(tmp_path):
    expected = workloads.load_reference()["relax"]["oscillator"][0]["expected"]["non_markovian"]
    csv = tmp_path / "out.csv"
    _csv_from_reference(expected, csv, 5e-7)
    assert workloads.check_output(expected, 0, csv) is None
    _csv_from_reference(expected, csv, 5e-6)
    assert "column n" in workloads.check_output(expected, 0, csv)
    assert "expected exit 0" in workloads.check_output(expected, 3, csv)
    csv.unlink()
    assert workloads.check_output({"exit": 3}, None, csv) is None


def test_missing_wrap_point_is_reported_absent():
    tracer = Tracer()
    tracer.patch("releq.bath", "no_such_function", lambda f: f)
    tracer.patch("releq.no_such_module", "run", lambda f: f)
    assert tracer.absent == ["releq.bath.no_such_function", "releq.no_such_module.run"]
    tracer.uninstall()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "relax_nm", 1, 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_lists_what_run_reports():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [tuple(m) for m in run.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
