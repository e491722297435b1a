"""Outside-in layer tracer for releq.

The tracer replaces public functions of the releq modules, by name, at the
place where the calling module looks them up (``releq.oscillator.integrate``
rather than ``releq.odeint.integrate``), and restores them on
``uninstall``.  Nothing inside ``src/`` knows about it.

Every wrapped call pushes a frame on a per-thread stack, so the self time of
a layer (its time minus the time of the traced calls it made) is right also
inside the ``--sweep`` thread pool.  Per-call layers (right-hand sides,
kernel lookups, trigamma, eigendecompositions) are aggregated into count,
total and self time; coarse layers are also kept as spans.  A wrap point
that no longer exists is reported in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []
        self.absent = []

    # -- per-thread records -------------------------------------------------

    def _thread_state(self):
        try:
            return self._local.state
        except AttributeError:
            state = {"stack": [], "stats": {}, "counts": {}, "spans": []}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def count(self, name: str, n: int) -> None:
        counts = self._thread_state()["counts"]
        counts[name] = counts.get(name, 0) + n

    def timed(self, name, fn, span=False, keep=None):
        """Wrap ``fn`` so its calls are recorded under ``name``.

        ``keep``, if given, is called before ``fn`` and returns a predicate
        evaluated after it; a call for which the predicate is false is
        treated as if it had not been wrapped.
        """

        def wrapper(*args, **kwargs):
            state = self._thread_state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            decide = keep() if keep is not None else None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if decide is None or decide():
                    record = state["stats"].get(name)
                    if record is None:
                        record = state["stats"][name] = [0, 0.0, 0.0]
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[0]
                    if parent is not None:
                        parent[0] += elapsed
                    if span:
                        state["spans"].append(
                            (name, parent[1] if parent else None, threading.get_ident(), start, start + elapsed)
                        )
                elif parent is not None:
                    parent[0] += frame[0]

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, module: str, path: str, make) -> None:
        """Replace ``module.path`` (``path`` may be ``Class.method``) by
        ``make(original)``; record the target as absent if it is missing."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{path}")
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, include_main: bool = True) -> None:
        """Wrap every layer boundary the CLI paths cross.

        ``include_main`` is false inside a sweep, where ``cli.main`` only
        waits on the thread pool and its self time would be waiting.
        """
        if include_main:
            self.patch("releq.cli", "main", lambda f: self.timed("cli.main", f, span=True))
        self.patch("releq.cli", "run", lambda f: self.timed("cli.run", f, span=True))
        for model in ("oscillator", "tls"):
            module = f"releq.{model}"
            self.patch(module, "simulate", lambda f, m=model: self.timed(f"{m}.simulate", f, span=True))
            self.patch(module, "integrate", lambda f, m=model: self._integrate(m, f))
            self.patch(module, "kernel_pair", lambda f, m=model: self.timed(f"{m}.kernel_pair", f))
        self.patch("releq.bath", "correlator_samples", lambda f: self.timed("bath.correlator_samples", f, span=True))
        self.patch("releq.bath", "markovian_limits", self._markovian_limits)
        self.patch("releq.bath", "CorrelatorCache.__init__", lambda f: self.timed("bath.table_build", f, span=True))
        self.patch("releq.bath", "CorrelatorCache.ensure_horizon", self._ensure_horizon)
        self.patch("releq.bath", "trigamma", self._trigamma)
        self.patch("releq.maxent", "solve_self_consistency", lambda f: self.timed("maxent.solve", f, span=True))
        self.patch("releq.maxent", "build_state", lambda f: self.timed("maxent.build_state", f))
        self.patch("releq.maxent", "moments", lambda f: self.timed("maxent.moments", f))

    # -- wrappers with extra bookkeeping -------------------------------------

    def _integrate(self, model: str, integrate):
        """Time integrate and count the right-hand sides it evaluates, by
        handing it a copy of the problem whose ``rhs`` is wrapped."""
        timed = self.timed(f"{model}.integrate", integrate, span=True)
        rhs_name = f"{model}.rhs"

        def wrapper(problem, sample_times, *args, **kwargs):
            rhs = getattr(problem, "rhs", None)
            if dataclasses.is_dataclass(problem) and callable(rhs):
                try:
                    problem = dataclasses.replace(problem, rhs=self.timed(rhs_name, rhs))
                except TypeError:
                    pass
                else:
                    self.count("odeint.counted_calls", 1)
                    self.count("odeint.samples", int(np.size(sample_times)))
            return timed(problem, sample_times, *args, **kwargs)

        return wrapper

    def _markovian_limits(self, limits):
        """Record only the calls that miss the cache (the computations)."""
        info = getattr(limits, "cache_info", None)
        if info is None:
            return self.timed("bath.markovian_limits", limits, span=True)

        def keep():
            before = info().misses
            return lambda: info().misses != before

        return self.timed("bath.markovian_limits", limits, span=True, keep=keep)

    def _ensure_horizon(self, ensure_horizon):
        """A call that reaches past the table horizon rebuilds the table."""
        build = self.timed("bath.table_build", ensure_horizon, span=True)

        def wrapper(cache, t, *args, **kwargs):
            if t <= getattr(cache, "t_max", float("inf")):
                return ensure_horizon(cache, t, *args, **kwargs)
            return build(cache, t, *args, **kwargs)

        return wrapper

    def _trigamma(self, trigamma):
        timed = self.timed("specfun.trigamma", trigamma)

        def wrapper(z, *args, **kwargs):
            self.count("specfun.trigamma_points", int(np.size(z)))
            return timed(z, *args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------------

    def collect(self) -> dict:
        """Merged stats ``{name: [calls, total_s, self_s]}``, counts and spans."""
        stats, counts, spans = {}, {}, []
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (calls, total, self_time) in state["stats"].items():
                merged = stats.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += self_time
            for name, n in state["counts"].items():
                counts[name] = counts.get(name, 0) + n
            spans.extend(state["spans"])
        spans.sort(key=lambda s: s[3])
        return {"stats": stats, "counts": counts, "spans": spans, "absent": list(self.absent)}


def cache_misses() -> dict:
    """Misses of releq's shared caches, from their public ``cache_info()``."""
    import releq.bath

    out = {}
    for name in ("correlator_cache", "markovian_limits"):
        info = getattr(getattr(releq.bath, name, None), "cache_info", None)
        out[name] = info().misses if info is not None else None
    return out


# Per-layer metrics: name, unit, direction.  Values come from
# ``layer_metrics``; a layer whose wrap point is absent reads 0.
PER_LAYER = (
    ("bath.kernel_lookups", "count", "lower"),
    ("bath.kernel_lookup_s", "s", "lower"),
    ("bath.kernel_lookup_us", "us", "lower"),
    ("odeint.rhs_evals", "count", "lower"),
    ("odeint.steps_attempted", "count", "lower"),
    ("odeint.self_s", "s", "lower"),
    ("odeint.overhead_us_per_step", "us", "lower"),
    ("odeint.rhs_evals_per_sample", "evals/sample", "lower"),
    ("oscillator.self_s", "s", "lower"),
    ("tls.self_s", "s", "lower"),
    ("oscillator.rhs_self_s", "s", "lower"),
    ("tls.rhs_self_s", "s", "lower"),
    ("bath.table_builds", "count", "lower"),
    ("bath.table_build_s", "s", "lower"),
    ("bath.correlator_cache_misses", "count", "lower"),
    ("bath.markovian_limits_misses", "count", "lower"),
    ("bath.markovian_limits_s", "s", "lower"),
    ("specfun.trigamma_calls", "count", "lower"),
    ("specfun.trigamma_points", "count", "lower"),
    ("specfun.trigamma_ns_per_point", "ns", "lower"),
    ("maxent.solves", "count", "lower"),
    ("maxent.solve_s", "s", "lower"),
    ("maxent.build_state_calls", "count", "lower"),
    ("maxent.eigh_per_solve", "eigh/solve", "lower"),
    ("maxent.build_state_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

# Per-layer metrics that count work; they must repeat exactly on one seed.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(trace: dict, misses: dict, csv_bytes: int, passes: int) -> dict:
    """Per-pass layer metrics from the records of ``passes`` traced passes."""
    stats, counts = trace["stats"], trace["counts"]

    def get(name, field):
        return stats.get(name, (0, 0.0, 0.0))[field]

    def total(*names, field=1):
        return sum(get(n, field) for n in names)

    lookups = total("oscillator.kernel_pair", "tls.kernel_pair", field=0)
    lookup_s = total("oscillator.kernel_pair", "tls.kernel_pair", field=2)
    rhs_evals = total("oscillator.rhs", "tls.rhs", field=0)
    steps = (rhs_evals - 2 * counts.get("odeint.counted_calls", 0)) / 6
    odeint_self = total("oscillator.integrate", "tls.integrate", field=2)
    trigamma_points = counts.get("specfun.trigamma_points", 0)
    solves = get("maxent.solve", 0)
    build_calls = get("maxent.build_state", 0)
    per_pass = {
        "bath.kernel_lookups": lookups,
        "bath.kernel_lookup_s": lookup_s,
        "odeint.rhs_evals": rhs_evals,
        "odeint.steps_attempted": steps,
        "odeint.self_s": odeint_self,
        "oscillator.self_s": get("oscillator.simulate", 2),
        "tls.self_s": get("tls.simulate", 2),
        "oscillator.rhs_self_s": get("oscillator.rhs", 2),
        "tls.rhs_self_s": get("tls.rhs", 2),
        "bath.table_builds": get("bath.table_build", 0),
        "bath.table_build_s": get("bath.table_build", 1),
        "bath.correlator_cache_misses": misses.get("correlator_cache") or 0,
        "bath.markovian_limits_misses": misses.get("markovian_limits") or 0,
        "bath.markovian_limits_s": get("bath.markovian_limits", 1),
        "specfun.trigamma_calls": get("specfun.trigamma", 0),
        "specfun.trigamma_points": trigamma_points,
        "maxent.solves": solves,
        "maxent.solve_s": get("maxent.solve", 1),
        "maxent.build_state_calls": build_calls,
        "maxent.build_state_s": get("maxent.build_state", 1),
        "cli.self_s": total("cli.main", "cli.run", field=2),
        "cli.csv_bytes": csv_bytes,
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out["bath.kernel_lookup_us"] = _ratio(lookup_s, lookups, 1e6)
    out["odeint.overhead_us_per_step"] = _ratio(odeint_self, steps, 1e6)
    out["odeint.rhs_evals_per_sample"] = _ratio(rhs_evals, counts.get("odeint.samples", 0))
    out["specfun.trigamma_ns_per_point"] = _ratio(get("specfun.trigamma", 1), trigamma_points, 1e9)
    out["maxent.eigh_per_solve"] = _ratio(build_calls, solves)
    return out
