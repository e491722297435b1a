"""The propagators of ``releq.transport``.  Their one exponential of the
augmented generator against scipy's and mpmath's, with its exact last row.
The exact Markovian path: its runs against scipy's exponential at every
sample, its powers of one step map through the Magnus path's composer, and
the undamped runs of a bath whose rate underflows.  The Magnus path of the
non-Markovian regime: its runs against a tight DOP853 reference on a grid of
baths and drives, its memory, its refusal of non-finite steps, and states
that do not depend on the chunk length, on OpenBLAS's Sandybridge kernels
too."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oracles
from releq import oscillator, tls
from releq.bath import (
    _BLOCK,
    _STEP_CHUNK,
    BathParams,
    correlator_samples,
    markovian_limits,
    step_counts,
    step_kernels,
)
from releq.transport import (
    _THETA12,
    _THETA13,
    PropagationError,
    _augmented_expm,
    _compose,
    _magnus_exponents,
    _prefix_products,
    propagate_linear,
    propagate_magnus,
    sample_times,
)

EPS = np.finfo(float).eps

# The README bath, a slow one (omega0 = 0.01, rate 0.03, fixed point
# n = 100), one far above its cutoff and a hot wide one.
BATHS = [
    BathParams(W=10.0, beta=3.0, omega0=1.0),
    BathParams(W=10.0, beta=1.0, omega0=0.01),
    BathParams(W=1.0, beta=9.0, omega0=5.0),
    BathParams(W=20.0, beta=0.2, omega0=0.3),
]
BATH_IDS = ["readme", "slow", "above-cutoff", "hot"]


def generators(bath):
    """Top rows ``G = [A | b]`` of the Markovian generators of both models on
    ``bath``: the oscillator, and the two-level system undriven, weakly and
    strongly driven."""
    limits = markovian_limits(bath)
    f, f_beta = limits.f_inf, limits.f_beta_inf
    return [oscillator._linear_system(f, f_beta)] + [tls._linear_system(drive, f, f_beta) for drive in (0.0, 0.3, 5.0)]


def augmented(G):
    """The augmented matrix ``[[A, b], [0, 0]]`` with top rows ``G``."""
    matrix = np.zeros((4, 4))
    matrix[:3] = G
    return matrix


def norm1(matrix) -> float:
    return float(np.abs(matrix).sum(axis=0).max())


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_expm_matches_scipy(bath):
    # From ||M dt|| = 1e-3 up to dt = t_max = 1000, M the augmented
    # generator.  The exponential's own condition number grows as ||M dt||,
    # and scipy's result is off by up to 1e-14 ||M dt|| against a 40-digit
    # one, so the bound grows with it past 1.
    for G in generators(bath):
        M = augmented(G)
        for dt in np.geomspace(1e-3 / norm1(M), 1000.0, 25):
            reference = oracles.expm(M * dt)
            error = norm1(_augmented_expm(G[None] * dt)[0] - reference)
            assert error <= 1e-13 * max(1.0, norm1(M * dt)) * norm1(reference), (dt, error)


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_expm_is_accurate_to_its_conditioning(bath):
    for G in generators(bath):
        M = augmented(G)
        for scaled_norm in (1e-3, 1.0, 5.0, 30.0, 1000.0):
            dt = scaled_norm / norm1(M)
            reference = oracles.expm_mp(M * dt)
            error = norm1(_augmented_expm(G[None] * dt)[0] - reference)
            assert error <= 4.0 * EPS * max(1.0, scaled_norm) * norm1(reference), (dt, error)


def test_expm_of_small_augmented_generators_is_accurate():
    # The Taylor path, on random 4x4 matrices with a zero last row like the
    # Magnus exponents: 1-norms up to theta = 0.25, where the truncation is
    # below 2.5e-18.
    stack = np.random.default_rng(11).standard_normal((16, 4, 4))
    stack[:, 3] = 0.0
    stack *= (np.geomspace(1e-4, _THETA12, 16) / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
    for matrix in stack:
        assert norm1(matrix) <= _THETA12
        reference = oracles.expm_mp(matrix)
        error = norm1(_augmented_expm(matrix[None, :3])[0] - reference)
        assert error <= 4.0 * EPS * norm1(reference), (norm1(matrix), error)


def test_expm_of_zero_and_of_a_non_finite_matrix():
    # The exponential takes finite matrices; the Markovian propagator refuses
    # a generator that is not finite, as the Magnus path refuses an exponent.
    assert np.max(np.abs(_augmented_expm(np.zeros((1, 3, 4)))[0] - np.eye(4))) <= EPS
    with pytest.raises(PropagationError, match="not finite"):
        propagate_linear(np.full((3, 4), np.nan), np.ones(3), sample_times(1.0, 0.1))


def exact_states(G, y0, times):
    """Samples of ``y' = A y + b`` by scipy's exponential of the augmented
    matrix ``[[A, b], [0, 0]]`` with top rows ``G = [A | b]``, taken afresh
    at every sample time."""
    start = np.append(np.asarray(y0, dtype=float), 1.0)
    return np.array([(oracles.expm(augmented(G) * t) @ start)[:3] for t in times])


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_exact_oscillator_run_matches_integration(bath):
    limits = markovian_limits(bath)
    initial = oscillator.OscillatorState(1.0 - 0.5j, 9.0)
    run = oscillator.simulate(initial, bath, "markovian", t_max=20.0, dt_out=0.05)
    states = exact_states(
        oscillator._linear_system(limits.f_inf, limits.f_beta_inf),
        (initial.mean_a.real, initial.mean_a.imag, initial.mean_n),
        run.times,
    )
    scale = np.max(run.mean_n)  # the fixed point is n = 100 on the slow bath
    assert np.max(np.abs(states[:, 0] + 1j * states[:, 1] - run.mean_a)) <= 5e-12 * scale
    assert np.max(np.abs(states[:, 2] - run.mean_n)) <= 5e-12 * scale


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
@pytest.mark.parametrize("drive", [0.0, 0.3, 5.0])
def test_exact_two_level_run_matches_integration(bath, drive):
    limits = markovian_limits(bath)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tls.ValidityWarning)
        params = tls.TlsParams(bath.omega0, bath.omega0, drive, bath)
    initial = tls.TlsState(0.2, 0.1 - 0.1j)
    run = tls.simulate(initial, params, "markovian", t_max=20.0, dt_out=0.05)
    states = exact_states(
        tls._linear_system(drive, limits.f_inf, limits.f_beta_inf),
        (initial.mean_sz, initial.mean_sp.real, initial.mean_sp.imag),
        run.times,
    )
    assert np.max(np.abs(states[:, 0] - run.mean_sz)) <= 5e-12
    assert np.max(np.abs(states[:, 1] + 1j * states[:, 2] - run.mean_sp)) <= 5e-12


# Samples inside and at both ends of the first block of 48 powers, and
# through the blocks to the end.
LONG_RUN_SAMPLES = [0, 1, 47, 48, 49, 63, 64, 65, 1000, 4097, 10000, 33333, 99999, 100000]


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_long_run_matches_per_sample_exponentials(bath):
    # t_max 1000 at dt_out 0.01: 100,001 samples from powers of one step.
    limits = markovian_limits(bath)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tls.ValidityWarning)
        params = tls.TlsParams(bath.omega0, bath.omega0, 0.3 * bath.omega0, bath)
    osc = oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), bath, "markovian", 1000.0)
    two_level = tls.simulate(tls.TlsState(0.2, 0.1 - 0.1j), params, "markovian", 1000.0)
    cases = [
        (
            oscillator._linear_system(limits.f_inf, limits.f_beta_inf),
            np.column_stack([osc.mean_a.real, osc.mean_a.imag, osc.mean_n]),
        ),
        (
            tls._linear_system(params.Omega, limits.f_inf, limits.f_beta_inf),
            np.column_stack([two_level.mean_sz, two_level.mean_sp.real, two_level.mean_sp.imag]),
        ),
    ]
    times = osc.times
    assert times.size == 100_001
    for G, states in cases:
        A, b = G[:, :3], G[:, 3]
        fixed = -np.linalg.solve(A, b)
        offset = states[0] - fixed
        # Relative to the distance from the fixed point, which is 91 for the
        # slow bath's occupation.
        tolerance = 1e-12 * max(1.0, np.max(np.abs(offset)))
        for k in LONG_RUN_SAMPLES:
            expected = fixed + oracles.expm(A * times[k]) @ offset
            assert np.max(np.abs(states[k] - expected)) <= tolerance, k


def test_first_sample_is_the_initial_state():
    G = np.array([[-0.3, -2.0, 0.0, 0.0], [2.0, -0.3, 0.0, 0.0], [0.0, 0.0, -0.6, 0.1]])
    y0 = (0.1, -0.7, 9.0)
    states = propagate_linear(G, y0, sample_times(5.0, 0.1))
    assert states.shape == (51, 3)
    assert states[0].tolist() == list(y0)
    assert propagate_linear(G, y0, [0.0]).tolist() == [list(y0)]


def test_grid_must_be_uniform_from_zero():
    G = -np.eye(3, 4)
    with pytest.raises(ValueError, match="grid"):
        propagate_linear(G, np.ones(3), [0.0, 0.1, 0.25])
    with pytest.raises(ValueError, match="grid"):
        propagate_linear(G, np.ones(3), [0.1, 0.2])
    with pytest.raises(ValueError, match="grid"):
        propagate_linear(G, np.ones(3), [])


@pytest.mark.parametrize("samples", [2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2, 1001])
def test_linear_propagation_composes_copies_of_its_step_map(samples):
    # Sample k is the k-th power of one step map, taken from the prefix
    # products of one block and carried over the block ends by the Magnus
    # path's composer: the same bits as composing len(times) - 1 copies.
    G = generators(BATHS[0])[2]  # the weakly driven two-level system
    y0 = np.array([0.2, 0.1, -0.1])
    times = np.arange(samples) * 0.05
    states = propagate_linear(G, y0, times)
    copies = np.broadcast_to(_augmented_expm(G[None] * 0.05)[0], (samples - 1, 4, 4))
    path, _ = _compose(_prefix_products(copies), np.append(y0, 1.0))
    assert np.array_equal(states[1:], path[: samples - 1, :3])


def test_an_overflowing_generator_is_refused():
    G = np.column_stack([-2.0 * np.eye(3), np.ones(3)])
    with pytest.raises(PropagationError, match="G dt is not finite at dt = 1e\\+308"):
        propagate_linear(G, np.ones(3), [0.0, 1e308])


def test_a_bath_whose_rate_underflows_runs_undamped():
    # omega0 = 800 W: J(omega0) = 800 exp(-800) underflows to 0, so both
    # models keep only the principal-value shifts of their kernels and
    # rotate: the occupation stays 9 exactly, the amplitude turns at the
    # shift Im f_inf, and the two-level Bloch radius stays put.
    bath = BathParams(W=1.0, beta=1.0, omega0=800.0)
    limits = markovian_limits(bath)
    assert limits.f_inf.real == 0.0 and limits.f_beta_inf.real == 0.0
    run = oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), bath, "markovian", 1.0)
    assert run.times.size == 101 and np.all(run.mean_n == 9.0)
    assert np.max(np.abs(run.mean_a - np.exp(1j * limits.f_inf.imag * run.times))) <= 1e-14
    two_level = tls.simulate(tls.TlsState(0.1, 0.2j), tls.TlsParams(800.0, 800.0, 0.3, bath), "markovian", 1.0)
    radii = np.hypot(two_level.mean_sz, np.abs(two_level.mean_sp))
    assert np.max(np.abs(radii - radii[0])) <= 4.0 * EPS
    states = exact_states(tls._linear_system(0.3, limits.f_inf, limits.f_beta_inf), (0.1, 0.0, 0.2), two_level.times)
    assert np.max(np.abs(states[:, 0] - two_level.mean_sz)) <= 5e-12
    assert np.max(np.abs(states[:, 1] + 1j * states[:, 2] - two_level.mean_sp)) <= 5e-12


@pytest.mark.parametrize("t_max, dt_out", [(math.inf, 1.0), (math.inf, math.inf), (10.0, math.nan)])
def test_a_non_finite_horizon_or_step_is_refused(t_max, dt_out):
    bath = BATHS[0]
    tls_params = tls.TlsParams(1.0, 1.0, 0.3, bath)
    for regime in ("markovian", "non_markovian"):
        with pytest.raises(ValueError, match="t_max and dt_out must be finite"):
            oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), bath, regime, t_max=t_max, dt_out=dt_out)
        with pytest.raises(ValueError, match="t_max and dt_out must be finite"):
            tls.simulate(tls.TlsState(0.1, 0j), tls_params, regime, t_max=t_max, dt_out=dt_out)


def forbidden(*args, **kwargs):
    raise AssertionError("called")


def test_a_markovian_run_builds_no_kernel_table(monkeypatch):
    # Markovian runs read the long-time kernel values only: they integrate
    # no kernel, neither off the kernel stream nor through the corr samples.
    bath = BathParams(W=8.5, beta=2.2, omega0=0.9)
    for name in ("step_kernels", "correlator_samples"):
        monkeypatch.setattr(f"releq.bath.{name}", forbidden)
    oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), bath, "markovian", t_max=50.0, dt_out=0.5)
    tls.simulate(tls.TlsState(0.1, 0j), tls.TlsParams(0.9, 0.9, 0.3, bath), "markovian", t_max=50.0, dt_out=0.5)


def test_no_run_builds_a_kernel_table(monkeypatch):
    # Non-Markovian runs read the kernels on their own Magnus steps, not
    # through the corr samples, nor with the time integral of f that the
    # closed form reads.
    bath = BathParams(W=7.0, beta=1.5, omega0=1.3)

    def without_integral(params, times, integral=False):
        if integral:
            forbidden()
        return step_kernels(params, times)

    monkeypatch.setattr("releq.bath.correlator_samples", forbidden)
    monkeypatch.setattr("releq.bath.step_kernels", without_integral)
    oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), bath, "non_markovian", t_max=10.0, dt_out=0.5)
    tls.simulate(tls.TlsState(0.1, 0j), tls.TlsParams(1.3, 1.3, 0.3, bath), "non_markovian", t_max=10.0, dt_out=0.5)
    with pytest.raises(AssertionError, match="called"):
        oscillator.closed_form_trajectory(sample_times(10.0, 0.5), oscillator.OscillatorState(1.0 + 0j, 9.0), bath)


def test_samples_far_closer_than_the_steps_take_one_step_each():
    # dt_out / h = 1.6e-11 lies below the 1e-9 rounding margin of the step
    # count; each interval still takes one step, so every sample is set.
    assert step_counts(sample_times(1e-11, 1e-13), BATHS[0]).tolist() == [1] * 100
    run = oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), BATHS[0], "non_markovian", 1e-11, 1e-13)
    assert np.max(np.abs(run.mean_n - 9.0)) <= 1e-12


def test_runs_in_two_threads_on_two_baths_are_the_serial_runs():
    # Runs on two baths, interleaved by two threads, give every output a
    # serial run gives: a run's kernels are its own.
    baths = [BathParams(W=10.0, beta=3.0, omega0=1.0), BathParams(W=5.0, beta=2.0, omega0=1.0)]
    state = oscillator.OscillatorState(mean_a=0.6 + 0.2j, mean_n=1.5)

    def run(bath):
        columns = oscillator.simulate(state, bath, "non_markovian", t_max=3.0, dt_out=0.05).csv_columns()
        return b"".join(np.asarray(column).tobytes() for column in columns)

    serial = [run(bath) for bath in baths]
    outputs, errors = ([], []), []

    def alternate(k):
        try:
            for j in range(4):
                outputs[k].append(run(baths[(j + k) % 2]))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=alternate, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    for k in (0, 1):
        assert outputs[k] == [serial[(j + k) % 2] for j in range(4)]


def straddling_stack():
    """Top rows of 40 generators with 1-norms on both sides of theta = 0.25
    and of theta_13, so that the stack mixes the Taylor and the Pade path,
    and squarings on the latter."""
    rng = np.random.default_rng(7)
    top = rng.standard_normal((40, 3, 4)) * np.geomspace(1e-3, 50.0, 40)[:, None, None]
    norms = np.abs(top).sum(axis=1).max(axis=1)
    for theta in (_THETA12, _THETA13):
        assert np.any(norms <= theta) and np.any(norms > theta)
    return top


def test_expm_of_a_stack_is_the_expm_of_each_matrix():
    top = straddling_stack()
    assert np.array_equal(_augmented_expm(top), np.array([_augmented_expm(matrix[None])[0] for matrix in top]))


def test_every_exponential_has_an_exact_last_row():
    # The Pade path's solve gives (0, 0, 0, 1 - 2**-53), and a long run would
    # carry that drift in its constant.
    assert np.all(_augmented_expm(straddling_stack())[:, 3] == (0.0, 0.0, 0.0, 1.0))


def test_linear_systems_of_kernel_arrays_are_the_stacked_scalar_systems():
    # Each model gives one array, the generator's top rows G = [A | b]: its
    # views G[..., :3] and G[..., 3] are the A and b of every kernel pair.
    systems = [oscillator._linear_system] + [partial(tls._linear_system, drive) for drive in (0.0, 0.3, 5.0)]
    for shape in [(), (1,), (7,), (2, 3), (2, 2, 3)]:
        times = np.linspace(0.3, 9.9, math.prod(shape)).reshape(shape)
        f, f_beta = correlator_samples(BATHS[0], times)
        for system in systems:
            G = system(f, f_beta)
            assert G.shape == shape + (3, 4) and G.dtype == np.float64
            A, b = G[..., :3], G[..., 3]
            for index in np.ndindex(shape):
                G_k = system(complex(f[index]), complex(f_beta[index]))
                assert G_k.shape == (3, 4)
                assert np.array_equal(A[index], G_k[:, :3]) and np.array_equal(b[index], G_k[:, 3])


# The non-Markovian accuracy grid: cutoffs from 5 to 100 (beta = 3,
# omega0 = 1), the oscillator and the two-level system at a weak and a strong
# drive, against DOP853 at rtol 1e-12 on the state and the kernels.
# Dormand-Prince 5(4) at the default tolerances, the integrator these runs
# replaced, was off by up to 8.9e-8 on this grid, and the Magnus runs on the
# kernel table by up to 2.0e-8; on the integrated kernels they are off by at
# most 1.3e-9 (the strongly driven two-level system at W = 100) at dt_out
# 0.01 and 2.2e-10 at dt_out 0.5.  The reference differs from one at rtol
# 1e-13 by up to 1.6e-11.
GRID = [(W, model, drive) for W in (5.0, 10.0, 20.0, 50.0, 100.0) for model, drive in (("oscillator", 0.0), ("tls", 0.3), ("tls", 5.0))]


def magnus_run(model, bath, drive, dt_out):
    """Times and (3 components) states of a non-Markovian run to t = 20."""
    if model == "oscillator":
        run = oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), bath, "non_markovian", 20.0, dt_out)
        return run.times, np.column_stack([run.mean_a.real, run.mean_a.imag, run.mean_n])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tls.ValidityWarning)
        params = tls.TlsParams(bath.omega0, bath.omega0, drive, bath)
    run = tls.simulate(tls.TlsState(0.2, 0.1 - 0.1j), params, "non_markovian", 20.0, dt_out)
    return run.times, np.column_stack([run.mean_sz, run.mean_sp.real, run.mean_sp.imag])


@pytest.mark.parametrize("W, model, drive", GRID, ids=[f"W{W:g}-{model}-{drive:g}" for W, model, drive in GRID])
def test_magnus_runs_match_a_tight_reference(W, model, drive):
    bath = BathParams(W=W, beta=3.0, omega0=1.0)
    times, states = magnus_run(model, bath, drive, 0.01)
    y0 = states[0]
    reference = oracles.reference_transport(model, bath, y0, times, drive)
    assert np.all(np.max(np.abs(states - reference), axis=0) <= 5e-8)
    # Every 50th sample of the reference is a sample of the dt_out = 0.5 run.
    coarse_times, coarse = magnus_run(model, bath, drive, 0.5)
    assert np.allclose(coarse_times, times[::50], rtol=0.0, atol=1e-12)
    assert np.all(np.max(np.abs(coarse - reference[::50]), axis=0) <= 1e-8)


@pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1073, _STEP_CHUNK + _BLOCK + 1])
def test_blocked_composition_is_the_one_map_at_a_time_composition(steps):
    # Samples 1 / (16 W) apart take one step each, so the run composes
    # ``steps`` maps: within one block, at its edges, over many blocks with a
    # partial last one, and past a chunk.
    bath = BATHS[0]
    times = np.arange(steps + 1) * (0.0625 / bath.W)
    y0 = np.array([1.0, 0.0, 9.0])
    states = propagate_magnus(oscillator._linear_system, bath, y0, times)
    f, f_beta = (np.concatenate(column) for column in zip(*(chunk[4:] for chunk in step_kernels(bath, times))))
    maps = _augmented_expm(_magnus_exponents(oscillator._linear_system, f[:, :3], f_beta[:, :3], np.diff(times)))
    y = np.append(y0, 1.0)
    expected = [y0]
    for step_map in maps:
        y = step_map @ y
        expected.append(y[:3])
    assert states.shape == (steps + 1, 3)
    assert np.max(np.abs(states - np.array(expected))) <= 1e-13


def test_states_do_not_depend_on_the_chunk_length(fig_bath, monkeypatch):
    # Chunks, panels and composition blocks are all cut at fixed multiples
    # of the run's step index, so the README oscillator and two-level runs
    # have the same bits at every chunk length.  With the blocks restarted
    # at every chunk, their columns moved by up to 5.8e-15.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tls.ValidityWarning)
        drive = tls.TlsParams(1.0, 1.0, 5.0, fig_bath)

    def columns():
        runs = (
            oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), fig_bath, "non_markovian", 20.0, 0.01),
            tls.simulate(tls.TlsState(0.0, 0j), drive, "non_markovian", 20.0, 0.01),
        )
        return [np.asarray(column).tobytes() for run in runs for column in run.csv_columns()]

    expected = columns()
    for chunk in (512, 1024, 1536, 2048):
        monkeypatch.setattr("releq.bath._STEP_CHUNK", chunk)
        assert columns() == expected, chunk


def test_states_do_not_depend_on_the_chunk_length_on_the_sandybridge_kernels():
    # A chunk's last state is carried by the same BLAS product as the block
    # starts within it.  Read off a row of the batched product instead, it
    # differed in the last bit on OpenBLAS's Sandybridge and Prescott kernels,
    # and the test above failed there.  An OpenBLAS built without
    # DYNAMIC_ARCH ignores the setting and runs its default kernels.
    test = f"{__file__}::test_states_do_not_depend_on_the_chunk_length"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=Path(__file__).parent.parent,
        env=dict(os.environ, OPENBLAS_CORETYPE="Sandybridge"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-3000:]


def test_grading_keeps_a_wide_cutoff_close_to_the_tight_reference():
    # At W = 100 the steps grow as 0.02 t from t = 0.15 to t = 0.5.  The
    # strongly driven two-level system is off by 1.30e-9 with that grading
    # and by 1.12e-8 with steps of 0.01 from t = 0.15.
    bath = BathParams(W=100.0, beta=3.0, omega0=1.0)
    times, states = magnus_run("tls", bath, 5.0, 0.01)
    reference = oracles.reference_transport("tls", bath, states[0], times, 5.0)
    assert np.max(np.abs(states - reference)) <= 5e-9


def test_magnus_run_memory_is_bounded_by_the_chunk():
    # 100,001 samples and as many steps.  The run's output (states, complex
    # amplitude, entropy and beta) is about 6 MB, and the run peaks near
    # 8.0 MB, a chunk's kernels and prefix products included; a propagation forming
    # every step's exponential at once peaks near 210 MB.
    bath = BATHS[0]
    initial = oscillator.OscillatorState(1.0 + 0j, 9.0)
    tracemalloc.start()
    try:
        run = oscillator.simulate(initial, bath, "non_markovian", t_max=100.0, dt_out=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.times.size == 100_001
    assert peak <= 24e6, peak


def test_non_finite_magnus_steps_are_refused():
    times = sample_times(5.0, 0.1)

    def blowing_up(f, f_beta):  # y' = 1000 y: finite exponents, exp(5000) overflows
        return np.broadcast_to(1000.0 * np.eye(3, 4), np.shape(f) + (3, 4))

    def infinite(f, f_beta):  # A infinite, b finite
        G = oscillator._linear_system(f, f_beta)
        G[..., :3] *= np.inf
        return G

    with pytest.raises(PropagationError, match="state is not finite"):
        propagate_magnus(blowing_up, BATHS[0], np.ones(3), times)
    with pytest.raises(PropagationError, match="exponent is not finite at t = 0"):
        propagate_magnus(infinite, BATHS[0], np.ones(3), times)
