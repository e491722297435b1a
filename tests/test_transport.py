"""The exact Markovian path of ``releq.transport``: its matrix exponential
against scipy's and mpmath's, its runs against the integrator and against a
per-sample exponential, and its refusal of a singular A."""

import warnings

import numpy as np
import pytest

import oracles
from releq import oscillator, tls
from releq.bath import BathParams, markovian_limits
from releq.odeint import OdeProblem, integrate
from releq.transport import PropagationError, expm, propagate_linear, sample_times

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


def linear_systems(bath):
    """``(A, b)`` of both models on ``bath``: the oscillator, and the
    two-level system undriven, weakly and strongly driven."""
    limits = markovian_limits(bath)
    f, f_beta = limits.f_inf, limits.f_beta_inf
    systems = [oscillator._linear_system(f, f_beta)]
    systems += [tls._linear_system(drive, f, f_beta) for drive in (0.0, 0.3, 5.0)]
    return [(np.array(A), np.array(b)) for A, b in systems]


def norm1(matrix) -> float:
    return float(np.abs(matrix).sum(axis=0).max())


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_expm_matches_scipy(bath):
    # From ||A dt|| = 1e-3 up to dt = t_max = 1000.  The exponential's own
    # condition number grows as ||A dt||, and scipy's result is off by up to
    # 1e-14 ||A dt|| against a 40-digit one, so the bound grows with it past 1.
    for A, _ in linear_systems(bath):
        for dt in np.geomspace(1e-3 / norm1(A), 1000.0, 25):
            reference = oracles.expm(A * dt)
            error = norm1(expm(A * dt) - reference)
            assert error <= 1e-13 * max(1.0, norm1(A * dt)) * norm1(reference), (dt, error)


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_expm_is_accurate_to_its_conditioning(bath):
    for A, _ in linear_systems(bath):
        for scaled_norm in (1e-3, 1.0, 5.0, 30.0, 1000.0):
            dt = scaled_norm / norm1(A)
            reference = oracles.expm_mp(A * dt)
            error = norm1(expm(A * dt) - reference)
            assert error <= 4.0 * EPS * max(1.0, scaled_norm) * norm1(reference), (dt, error)


def test_expm_of_zero_and_of_a_non_finite_matrix():
    assert np.max(np.abs(expm(np.zeros((3, 3))) - np.eye(3))) <= EPS
    with pytest.raises(ValueError, match="finite"):
        expm(np.full((3, 3), np.nan))


def integrated(model_rates, y0, t_max, dt_out):
    """States of the model's RHS at constant kernels, integrated at rel_tol 1e-12."""
    times = sample_times(t_max, dt_out)
    problem = OdeProblem(
        rhs=model_rates,
        t_span=(0.0, float(times[-1])),
        y0=np.array(y0, dtype=complex),
        rel_tol=1e-12,
        abs_tol=1e-15,
    )
    return integrate(problem, times).states


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_exact_oscillator_run_matches_integration(bath):
    limits = markovian_limits(bath)
    initial = oscillator.OscillatorState(1.0 - 0.5j, 9.0)
    run = oscillator.simulate(initial, bath, "markovian", t_max=20.0, dt_out=0.05)
    states = integrated(
        lambda t, y: oscillator._rates(y[0], y[1].real, limits.f_inf, limits.f_beta_inf),
        (initial.mean_a, initial.mean_n),
        20.0,
        0.05,
    )
    scale = np.max(run.mean_n)  # the fixed point is n = 100 on the slow bath
    assert np.max(np.abs(states[:, 0] - run.mean_a)) <= 5e-12 * scale
    assert np.max(np.abs(states[:, 1].real - run.mean_n)) <= 5e-12 * scale


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
@pytest.mark.parametrize("drive", [0.0, 0.3, 5.0])
def test_exact_two_level_run_matches_integration(bath, drive):
    limits = markovian_limits(bath)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tls.ValidityWarning)
        params = tls.TlsParams(bath.omega0, bath.omega0, drive, bath)
    initial = tls.TlsState(0.2, 0.1 - 0.1j)
    run = tls.simulate(initial, params, "markovian", t_max=20.0, dt_out=0.05)
    states = integrated(
        lambda t, y: tls._rates(y[0].real, y[1], drive, limits.f_inf, limits.f_beta_inf),
        (initial.mean_sz, initial.mean_sp),
        20.0,
        0.05,
    )
    assert np.max(np.abs(states[:, 0].real - run.mean_sz)) <= 5e-12
    assert np.max(np.abs(states[:, 1] - run.mean_sp)) <= 5e-12


# Samples inside and at both ends of the first block of 64 powers, and
# through the blocks to the end.
LONG_RUN_SAMPLES = [0, 1, 63, 64, 65, 1000, 4097, 10000, 33333, 99999, 100000]


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
    for (A, b), states in cases:
        A, b = np.array(A), np.array(b)
        fixed = -np.linalg.solve(A, b)
        offset = states[0] - fixed
        # Relative to the distance from the fixed point, which is 91 for the
        # slow bath's occupation.
        tolerance = 1e-12 * max(1.0, np.max(np.abs(offset)))
        for k in LONG_RUN_SAMPLES:
            expected = fixed + oracles.expm(A * times[k]) @ offset
            assert np.max(np.abs(states[k] - expected)) <= tolerance, k


def test_first_sample_is_the_initial_state():
    A = np.array([[-0.3, -2.0, 0.0], [2.0, -0.3, 0.0], [0.0, 0.0, -0.6]])
    y0 = (0.1, -0.7, 9.0)
    states = propagate_linear(A, [0.0, 0.0, 0.1], y0, sample_times(5.0, 0.1))
    assert states.shape == (51, 3)
    assert states[0].tolist() == list(y0)


def test_grid_must_be_uniform_from_zero():
    A = -np.eye(3)
    with pytest.raises(ValueError, match="grid"):
        propagate_linear(A, np.zeros(3), np.ones(3), [0.0, 0.1, 0.25])
    with pytest.raises(ValueError, match="grid"):
        propagate_linear(A, np.zeros(3), np.ones(3), [0.1, 0.2])
    with pytest.raises(ValueError, match="grid"):
        propagate_linear(A, np.zeros(3), np.ones(3), [])


def test_singular_or_overflowing_A_is_refused():
    # A golden-rule rate Re f_inf = 0 leaves both models without a fixed point.
    with pytest.raises(PropagationError, match="singular"):
        propagate_linear(*oscillator._linear_system(2.0j, 3.0j), np.ones(3), sample_times(1.0, 0.1))
    with pytest.raises(PropagationError, match="singular"):
        propagate_linear(*tls._linear_system(0.3, 2.0j, 3.0j), np.ones(3), sample_times(1.0, 0.1))
    with pytest.raises(PropagationError, match="overflows"):
        propagate_linear(-2.0 * np.eye(3), np.ones(3), np.ones(3), [0.0, 1e308])


def test_a_bath_whose_rate_underflows_is_refused():
    # omega0 = 800 W: J(omega0) = 800 exp(-800) underflows to 0.
    bath = BathParams(W=1.0, beta=1.0, omega0=800.0)
    assert markovian_limits(bath).f_inf.real == 0.0
    with pytest.raises(PropagationError, match="singular"):
        oscillator.simulate(oscillator.OscillatorState(1.0 + 0j, 9.0), bath, "markovian", 1.0)
    with pytest.raises(PropagationError, match="singular"):
        tls.simulate(tls.TlsState(0.1, 0j), tls.TlsParams(800.0, 800.0, 0.3, bath), "markovian", 1.0)


@pytest.mark.parametrize("bath", BATHS, ids=BATH_IDS)
def test_every_accepted_bath_gives_an_invertible_A(bath):
    # det A = -8 r**3 for the oscillator and -2 r (r**2 + s**2 + 2 Omega**2)
    # for the two-level system, r and s the real and imaginary parts of the
    # damping kernel: both non-zero while the golden-rule rate is positive.
    assert markovian_limits(bath).f_inf.real > 0.0
    for A, _ in linear_systems(bath):
        assert abs(np.linalg.det(A)) > 0.0
