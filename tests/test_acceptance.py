"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Each criterion is a separate test with its
tolerance pinned here; nothing is deferred to later calibration.
"""

import cmath
import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    binary_entropy,
    corr_oracle_2d,
    project_moment_neutral,
    pv_frequency_shift,
    windowed_correlator_average,
)
from releq import maxent, oscillator, tls
from releq.bath import (
    BathParams,
    corr_f,
    corr_f_beta,
    markovian_limits,
)
from releq.specfun import trigamma

N_BE = 1.0 / math.expm1(3.0)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def first_sign_change_times(times, series, target, threshold=1e-4):
    """Times where series - target changes sign, ignoring the dead band."""
    crossings = []
    sign = 0
    for t, value in zip(times, series):
        deviation = value - target
        if abs(deviation) < threshold:
            continue
        current = 1 if deviation > 0 else -1
        if sign != 0 and current != sign:
            crossings.append(float(t))
        sign = current
    return crossings


def random_operator_set(rng, dim=4):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return maxent.RelevantOperatorSet((g, h, g.conj().T), (2, 1, 0))


def random_multipliers(rng, ops):
    F = np.zeros(len(ops), dtype=complex)
    for m, m_adj in enumerate(ops.pairing):
        if m_adj == m:
            F[m] = rng.uniform(-0.8, 0.8)
        elif m < m_adj:
            F[m] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            F[m_adj] = F[m].conjugate()
    return F


def escalated_fock_state(mult, start_dim=256):
    """Build the truncated state, doubling the ladder until the tail check passes."""
    dim = start_dim
    while True:
        ops = maxent.fock_operator_set(dim)
        state = maxent.build_state([mult.F1, mult.F2, mult.F3], ops)
        try:
            maxent.check_fock_tail(state.rho)
            return state
        except maxent.TruncationError:
            dim *= 2


def test_criterion_1_equilibrium_thermalization(fig_bath):
    with criterion(1, "oscillator markovian run thermalizes to the bath values"):
        run = oscillator.simulate(
            oscillator.OscillatorState(1.0 + 0j, 9.0), fig_bath, "markovian", t_max=8.0
        )
        t_check = 20.0 / markovian_limits(fig_bath).f_inf.real
        index = int(round(t_check / 0.01))
        assert abs(run.mean_n[index] - N_BE) <= 0.01 * N_BE
        assert abs(run.beta[index] - 3.0) <= 0.01 * 3.0


def test_criterion_2_non_markovian_oscillation(fig_bath):
    with criterion(2, "non-markovian beta(t) overshoots earlier and oscillates"):
        initial = oscillator.OscillatorState(1.0 + 0j, 9.0)
        markovian = oscillator.simulate(initial, fig_bath, "markovian", t_max=20.0)
        non_markovian = oscillator.simulate(initial, fig_bath, "non_markovian", t_max=20.0)
        crossings_nm = first_sign_change_times(non_markovian.times, non_markovian.beta, 3.0)
        crossings_m = first_sign_change_times(markovian.times, markovian.beta, 3.0)
        # The non-markovian curve crosses the bath value and changes sign
        # again afterwards; the markovian curve either never crosses inside
        # the horizon or does so strictly later.
        assert len(crossings_nm) >= 2
        assert not crossings_m or crossings_nm[0] < crossings_m[0]


def test_criterion_3_entropy_oracle_equivalence():
    with criterion(3, "oscillator entropy equals truncated-ladder von Neumann entropy"):
        rng = np.random.default_rng(3)
        n_eff_values = np.geomspace(0.01, 20.0, 50)
        worst = 0.0
        for n_eff in n_eff_values:
            amplitude = rng.uniform(0.0, 1.2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            state = oscillator.OscillatorState(
                mean_a=amplitude, mean_n=n_eff + abs(amplitude) ** 2
            )
            built = escalated_fock_state(oscillator.multipliers(state))
            worst = max(
                worst, abs(oscillator.entropy(state) - maxent.von_neumann(built.rho))
            )
        assert worst <= 1e-8


def test_criterion_4_tls_round_trip_and_entropy_identity():
    with criterion(4, "tls multiplier round trip and closed-form entropy identity"):
        ops = maxent.spin_operator_set()
        worst_moment = 0.0
        worst_entropy = 0.0
        for radius in np.linspace(0.0, 0.49, 10):
            for k in range(10):
                polar = math.pi * k / 9.0
                state = tls.TlsState(
                    mean_sz=radius * math.cos(polar),
                    mean_sp=radius * math.sin(polar) * cmath.exp(0.7j * k),
                )
                mult = tls.multipliers(state)
                built = maxent.build_state([mult.F1, mult.F2, mult.F3], ops)
                mom = maxent.moments(built, ops)
                worst_moment = max(
                    worst_moment,
                    abs(mom[0] - state.mean_sp),
                    abs(mom[1] - state.mean_sz),
                    abs(mom[2] - state.mean_sp.conjugate()),
                )
                worst_entropy = max(
                    worst_entropy,
                    abs(tls.entropy(state) - binary_entropy(0.5 + state.bloch_radius)),
                )
        assert worst_moment <= 1e-12
        assert worst_entropy <= 1e-12


def test_criterion_5_correlator_oracle(fig_bath):
    with criterion(5, "analytic kernels match the 2-D quadrature oracle"):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            oracle_f = corr_oracle_2d(t, fig_bath, finite_beta=False)
            oracle_fb = corr_oracle_2d(t, fig_bath, finite_beta=True)
            assert abs(corr_f(t, fig_bath) - oracle_f) <= 1e-6 * abs(oracle_f)
            assert abs(corr_f_beta(t, fig_bath) - oracle_fb) <= 1e-6 * abs(oracle_fb)
        cold = BathParams(W=10.0, beta=1e6, omega0=1.0)
        for t in (0.5, 1.0, 2.0):
            assert abs(corr_f_beta(t, cold) - corr_f(t, fig_bath)) <= 1e-5


def test_criterion_6_markovian_coefficients(fig_bath):
    with criterion(6, "long-time kernel values from averaging match the oracles"):
        golden_rate = math.pi * math.exp(-0.1)
        avg_f, avg_fb, _, _ = windowed_correlator_average(fig_bath)
        assert abs(avg_f.real - golden_rate) <= 1e-4
        assert abs(avg_fb.real - golden_rate / math.tanh(1.5)) <= 1e-4
        limits = markovian_limits(fig_bath)
        assert abs(limits.f_inf.imag - pv_frequency_shift(fig_bath, False)) <= 1e-4
        assert abs(limits.f_beta_inf.imag - pv_frequency_shift(fig_bath, True)) <= 1e-4


def test_criterion_7_closed_form_matches_integration(fig_bath):
    with criterion(7, "integrating-factor solution matches direct integration"):
        initial = oscillator.OscillatorState(1.0 + 0j, 9.0)
        for regime in ("markovian", "non_markovian"):
            run = oscillator.simulate(initial, fig_bath, regime, t_max=20.0)
            mean_a, mean_n = oscillator.closed_form_trajectory(
                run.times, initial, fig_bath, regime
            )
            assert np.max(np.abs(mean_a - run.mean_a)) <= 1e-6
            assert np.max(np.abs(mean_n - run.mean_n)) <= 1e-6


def test_criterion_8_tls_heating(fig_bath):
    with criterion(8, "driven system heats above the bath; undriven matches it"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tls.ValidityWarning)
            driven = tls.TlsParams(omega0=1.0, omegaL=1.0, Omega=5.0, bath=fig_bath)
        initial = tls.TlsState(0.0, 0j)
        period = 2.0 * math.pi / driven.Omega
        for regime in ("markovian", "non_markovian"):
            run = tls.simulate(initial, driven, regime, t_max=20.0, dt_out=0.005)
            window = run.times >= run.times[-1] - period
            steady_beta = float(np.mean(run.beta[window]))
            assert steady_beta < 3.0

        undriven = tls.TlsParams(omega0=1.0, omegaL=1.0, Omega=0.0, bath=fig_bath)
        run = tls.simulate(initial, undriven, "markovian", t_max=8.0)
        t_check = 20.0 / markovian_limits(fig_bath).f_inf.real
        index = int(round(t_check / 0.01))
        assert abs(run.beta[index] - 3.0) <= 1e-3 * 3.0


def test_criterion_9_evolution_operator_unitarity(fig_bath):
    with criterion(9, "free-evolution coefficients are unitary"):
        rng = np.random.default_rng(9)
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tls.ValidityWarning)
            for _ in range(1000):
                params = tls.TlsParams(
                    omega0=1.0,
                    omegaL=1.0 + rng.uniform(-2.0, 2.0),
                    Omega=rng.uniform(0.0, 4.0),
                    bath=fig_bath,
                )
                c, d, _ = tls.evolution_coeffs(
                    rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0), params
                )
                worst = max(worst, abs(abs(c) ** 2 + abs(d) ** 2 - 1.0))
        assert worst <= 1e-12


def test_criterion_10_maxent_engine():
    with criterion(10, "maxent inversion, gradient relations, and optimality"):
        rng = np.random.default_rng(10)

        # Generate-then-invert on random 4-dimensional instances.
        for _ in range(5):
            ops = random_operator_set(rng)
            F_true = random_multipliers(rng, ops)
            targets = maxent.moments(maxent.build_state(F_true, ops), ops)
            F_found = maxent.solve_self_consistency(targets, ops)
            assert np.max(np.abs(F_found - F_true)) <= 1e-6

        # Gradient relations by central finite differences.
        ops = random_operator_set(rng)
        F = random_multipliers(rng, ops)
        state = maxent.build_state(F, ops)
        mom = maxent.moments(state, ops)
        h = 1e-5

        def phi(F_vec):
            return maxent.build_state(F_vec, ops).phi

        up, down = F.copy(), F.copy()
        up[1] += h
        down[1] -= h
        assert abs((phi(up) - phi(down)) / (2 * h) + mom[1].real) <= 1e-6
        up, down = F.copy(), F.copy()
        up[0] += h
        up[2] += h
        down[0] -= h
        down[2] -= h
        assert abs((phi(up) - phi(down)) / (2 * h) + 2 * mom[0].real) <= 1e-6

        def entropy_at(targets_vec):
            F_sol = maxent.solve_self_consistency(targets_vec, ops, initial_F=F, tol=1e-12)
            return maxent.entropy(maxent.build_state(F_sol, ops), targets_vec)

        t_up, t_down = mom.copy(), mom.copy()
        t_up[1] += h
        t_down[1] -= h
        assert abs((entropy_at(t_up) - entropy_at(t_down)) / (2 * h) - F[1].real) <= 1e-6
        t_up, t_down = mom.copy(), mom.copy()
        t_up[0] += h
        t_up[2] += h
        t_down[0] -= h
        t_down[2] -= h
        assert abs((entropy_at(t_up) - entropy_at(t_down)) / (2 * h) - 2 * F[0].real) <= 1e-6

        # Maximum-entropy optimality under moment-preserving perturbations.
        for _ in range(20):
            dim = int(rng.integers(3, 5))
            ops = random_operator_set(rng, dim=dim)
            state = maxent.build_state(random_multipliers(rng, ops), ops)
            base = maxent.von_neumann(state.rho)
            lowest = np.linalg.eigvalsh(state.rho).min()
            for _ in range(100):
                raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                delta = project_moment_neutral(raw, ops.operators)
                norm = np.linalg.norm(delta, 2)
                if norm < 1e-12:
                    continue
                perturbed = state.rho + (0.45 * lowest / norm) * delta
                assert base >= maxent.von_neumann(perturbed) - 1e-9


def test_criterion_11_trigamma_identities():
    with criterion(11, "trigamma identities hold at full precision"):
        assert abs(trigamma(1.0) - math.pi**2 / 6) <= 1e-12
        assert abs(trigamma(0.5) - math.pi**2 / 2) <= 1e-12
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = complex(rng.uniform(0.01, 50.0), rng.uniform(-50.0, 50.0))
            value = trigamma(z)
            assert abs(value - trigamma(z + 1) - 1.0 / z**2) <= 1e-12 * abs(value)
            assert abs(trigamma(z.conjugate()) - value.conjugate()) <= 1e-12 * abs(value)
