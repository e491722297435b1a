"""releq benchmark: drive the CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload relax_nm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of ``tracer.PER_LAYER`` and the tracing overhead.
Every scenario's output is checked against ``reference.json``.  A few
lines for people come first; the last line of standard output is the
result as one JSON object.  The full record, with the machine and library
versions, goes to ``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import COUNTS, PER_LAYER, Tracer, cache_misses, layer_metrics  # noqa: E402

WORKLOADS = ("relax_nm", "relax_markov", "bath_sweep")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenario_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 5
# Every child process must end before this many seconds into the run.
DEADLINE_S = 170
# Calibration time that defines a "reference second" (see calibrate()).
CALIBRATION_REF_S = 0.25


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


_START = perf_counter()


def _run_child(*args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "child.py"), *args]
    timeout = max(1.0, DEADLINE_S - (perf_counter() - _START))
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout)


def calibrate(parts: int = 1) -> float:
    """Time one of ``parts`` equal slices of a fixed mix of work that does
    not involve releq.

    The speed of this shared machine moves by tens of percent within a
    second and drifts over minutes, in CPU time as much as in wall time,
    and identical passes follow it.  A relax pass therefore runs one slice
    before each of its calls, and its times are scaled by
    ``CALIBRATION_REF_S / (sum of the slices)``: they are in reference
    seconds, and most of the drift cancels.  The mix resembles the
    program's: small-array numpy steps in a Python loop (the integrator),
    scalar float arithmetic (the thermodynamic post-pass) and vectorised
    complex arithmetic on long arrays (the kernel tables).  Timed work that
    cannot be interleaved with slices (an import, a sweep on two cores in
    another process) is reported unscaled: a calibration taken around it
    added more noise than it removed.
    """
    import numpy as np

    start = perf_counter()
    y = np.array([1.0 + 0j, 2.0 + 0j])
    a = np.array([[-0.1, 0.2j], [0.3, -0.1]])
    for _ in range(20000 // parts):
        y = y + 1e-3 * (a @ y)
    total = 0.0
    for i in range(600000 // parts):
        total += math.sqrt(i * 1.5)
    x = np.linspace(0.0, 1.0, 400000 // parts) * (1.0 + 1.0j)
    for _ in range(5):
        np.exp(-1j * x) / (0.1 - 1j * x) ** 2
    return perf_counter() - start


def measure_setup() -> list[float]:
    """Import time of ``releq.cli`` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = _run_child("import", str(SRC))
        if proc.returncode != 0:
            raise BenchError(f"importing releq.cli failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _remove_outputs(scenario: workloads.Scenario) -> None:
    scenario.csv_path.unlink(missing_ok=True)
    scenario.csv_path.with_suffix(".meta.json").unlink(missing_ok=True)


def _csv_size(scenario: workloads.Scenario) -> int:
    return scenario.csv_path.stat().st_size if scenario.csv_path.exists() else 0


def _merge_traces(traces: list[dict]) -> tuple[dict, dict]:
    stats, counts, misses = {}, {}, {}
    for trace in traces:
        for name, values in trace["stats"].items():
            merged = stats.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                merged[k] += values[k]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in trace["misses"].items():
            misses[name] = None if n is None else misses.get(name, 0) + n
    return {"stats": stats, "counts": counts}, misses


# ---------------------------------------------------------------------------
# Workloads.  A pass runs the workload's fixed scenario set once and returns
# its wall time, per-call times, per-scenario outcomes and, when traced, the
# layer records.


def relax_pass_runner(workload: str, seed: int, work: Path):
    regime = "non_markovian" if workload == "relax_nm" else "markovian"
    scenarios = workloads.relax_scenarios(workloads.load_reference(), seed, regime, work)
    sys.path.insert(0, str(SRC))
    import releq.cli

    if not Path(releq.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"releq was imported from {releq.cli.__file__}, not from {SRC}")

    def call(scenario):
        _remove_outputs(scenario)
        argv = [scenario.model, "--config", str(scenario.config_path)]
        start = perf_counter()
        try:
            code = releq.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed scenario, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        return code, elapsed, workloads.check_output(scenario.expected, code, scenario.csv_path)

    # A fixed bath pays for its kernel table and long-time limits once per
    # process, so one untimed run of each model warms them before timing.
    warmup = [(s.id, *call(s)[::2]) for s in scenarios[:2]]

    def run_pass(traced: bool) -> dict:
        tracer = Tracer() if traced else None
        if tracer:
            misses_before = cache_misses()
            tracer.install()
        calls, outcomes, csv_bytes, calibration = [], [], 0, 0.0
        try:
            for scenario in scenarios:
                calibration += calibrate(len(scenarios))
                code, elapsed, problem = call(scenario)
                calls.append(elapsed)
                outcomes.append((scenario.id, code, problem))
                csv_bytes += _csv_size(scenario)
        finally:
            if tracer:
                tracer.uninstall()
        result = {"wall": sum(calls), "calls": calls, "outcomes": outcomes,
                  "csv_bytes": csv_bytes, "calibration": calibration}
        if tracer:
            result["trace"] = tracer.collect()
            after = cache_misses()
            result["trace"]["misses"] = {
                k: None if after[k] is None else after[k] - misses_before[k] for k in after
            }
        return result

    return run_pass, warmup


def sweep_pass_runner(workload: str, seed: int, work: Path):
    sweep_dir, csv_dir = work / "sweep", work / "out"
    sweep_dir.mkdir()
    csv_dir.mkdir()
    scenarios = workloads.sweep_scenarios(workloads.load_reference(), seed, sweep_dir, csv_dir)
    expected_exit = max(s.expected["exit"] for s in scenarios)
    child_out = work / "child.json"

    def run_pass(traced: bool) -> dict:
        for scenario in scenarios:
            _remove_outputs(scenario)
        child_out.unlink(missing_ok=True)
        start = perf_counter()
        proc = _run_child("sweep", str(SRC), str(sweep_dir), str(child_out), "1" if traced else "0")
        elapsed = perf_counter() - start
        if proc.returncode != 0 or not child_out.exists():
            raise BenchError(f"the sweep process failed:\n{proc.stderr[-2000:]}")
        child = json.loads(child_out.read_text())
        outcomes = []
        for scenario in scenarios:
            problem = workloads.check_output(scenario.expected, None, scenario.csv_path)
            outcomes.append((scenario.id, 0 if scenario.csv_path.exists() else "no output", problem))
        if child["exit"] != expected_exit:
            outcomes.append(("sweep", child["exit"], f"sweep exit {child['exit']}, expected {expected_exit}"))
        result = {
            # Set-up (the import) excluded, as on the relax workloads.
            "wall": elapsed - child["import_s"],
            "calls": [child["main_s"]],
            "outcomes": outcomes,
            "csv_bytes": sum(_csv_size(s) for s in scenarios),
            "calibration": None,
        }
        if traced:
            result["trace"] = dict(child["trace"], misses=child["misses"])
        return result

    return run_pass, []


def run_passes(run_pass, seconds: float, trace: bool) -> list[dict]:
    """Closed loop: start another pass while it is expected to end in time.

    A traced run alternates untraced and traced passes, so that the
    tracing overhead is measured on the same machine state.
    """
    passes, durations = [], []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = perf_counter()
        result = run_pass(traced)
        durations.append(perf_counter() - began)
        passes.append(dict(result, traced=traced))
        enough = len(passes) >= (2 if trace else 1)
        if enough and perf_counter() - start + statistics.median(durations) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Environment record.


def _blas() -> dict:
    """OpenBLAS build and thread count of the numpy loaded in this process."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        out = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    out["threads"] = get_threads()
                    out["config"] = get_config().decode()
                    return out
    return {"library": None, "threads": None, "config": None}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    nproc = os.cpu_count() or 1
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "blas": _blas(),
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        # ThreadPoolExecutor's default size, which --sweep uses.
        "sweep_pool_size": min(32, nproc + 4),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def summarize(args, passes, warmup, setup) -> tuple[dict, dict]:
    outcomes = [o for p in passes for o in p["outcomes"] if o[0] != "sweep"]
    attempted = len(warmup) + len(outcomes)
    problems = [o for o in warmup + [o for p in passes for o in p["outcomes"]] if o[2]]
    nonzero = sum(1 for o in outcomes if o[1] != 0)
    timed = [p for p in passes if not p["traced"]]

    def scaled(p, value):
        return value if p["calibration"] is None else value * CALIBRATION_REF_S / p["calibration"]

    calls = [scaled(p, c) for p in timed for c in p["calls"]]
    info = {
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_calibration_s": [p["calibration"] for p in passes],
        "scenario_call_s": [c for p in timed for c in p["calls"]],
        "scenario_samples": len(calls),
        "setup_samples_s": setup,
        "fail_frac": nonzero / len(outcomes),
        "problems": problems,
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(scaled(p, p["wall"]) for p in timed),
            "scenario_p50_s": statistics.median(calls),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = dict(END_TO_END)
    else:
        traced = [p for p in passes if p["traced"]]
        merged, misses = _merge_traces([p["trace"] for p in traced])
        csv_bytes = sum(p["csv_bytes"] for p in traced)
        metrics = layer_metrics(merged, misses, csv_bytes, len(traced))
        metrics["trace.overhead_frac"] = (
            statistics.median(scaled(p, p["wall"]) for p in traced)
            / statistics.median(scaled(p, p["wall"]) for p in timed)
            - 1.0
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
        info["absent_layers"] = sorted({a for p in traced for a in p["trace"]["absent"]})
        info["counts"] = {name: metrics[name] for name in COUNTS}
        info["traced_outcomes"] = [[o[0], o[1]] for p in traced for o in p["outcomes"]]
        info["layer_stats"] = merged
        info["spans"] = [s for p in traced for s in p["trace"]["spans"]]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "releq" / "cli.py").is_file():
        print(f"perfbench: no releq sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(args.seed)
        setup = [] if args.trace else measure_setup()
        runner = sweep_pass_runner if args.workload == "bath_sweep" else relax_pass_runner
        run_pass, warmup = runner(args.workload, args.seed, work)
        passes = run_passes(run_pass, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result, info = summarize(args, passes, warmup, setup)
    record_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result, **info}
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{info['passes']} passes, {result['attempted']} scenario runs, {result['failed']} failed checks")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"  (scenario_p50_s over {info['scenario_samples']} calls; setup_s over {len(setup)} fresh imports)")
        if passes[0]["calibration"] is not None:
            print(f"  (pass times in reference seconds: scaled by {CALIBRATION_REF_S} s / calibration, "
                  f"median calibration {statistics.median(info['pass_calibration_s']):.3f} s)")
    else:
        print(f"  absent layers: {', '.join(info['absent_layers']) or 'none'}")
    print(f"  fail_frac = {info['fail_frac']:.6g} (non-zero exits / attempted)")
    for problem in info["problems"][:10]:
        print(f"  check failed: {problem[0]}: {problem[2]}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
