import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import F_ORACLE_T1, binary_entropy
from releq import maxent
from releq.bath import BathParams, markovian_limits
from releq.oscillator import InvariantViolationError
from releq.tls import (
    BoundaryStateError,
    BoundaryStateWarning,
    ResonanceError,
    TlsParams,
    TlsState,
    ValidityWarning,
    check_domain,
    entropy,
    evolution_coeffs,
    inverse_temperature,
    multipliers,
    rhs,
    simulate,
)


def resonant_params(fig_bath, Omega=0.3):
    return TlsParams(omega0=1.0, omegaL=1.0, Omega=Omega, bath=fig_bath)


def admissible_grid(count_radius=10, count_angle=10):
    """Grid of states covering the open Bloch ball (100 points)."""
    states = []
    for radius in np.linspace(0.0, 0.49, count_radius):
        for k in range(count_angle):
            polar = math.pi * k / (count_angle - 1)
            phase = cmath.exp(0.7j * k)
            states.append(
                TlsState(
                    mean_sz=radius * math.cos(polar),
                    mean_sp=radius * math.sin(polar) * phase,
                )
            )
    return states


class TestParams:
    def test_strong_drive_warns(self, fig_bath):
        with pytest.warns(ValidityWarning) as record:
            TlsParams(omega0=1.0, omegaL=1.0, Omega=5.0, bath=fig_bath)
        assert record[0].filename == __file__

    def test_weak_drive_does_not_warn(self, fig_bath):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TlsParams(omega0=1.0, omegaL=1.0, Omega=0.4, bath=fig_bath)

    def test_detuned_transport_rejected(self, fig_bath):
        params = TlsParams(omega0=1.0, omegaL=1.3, Omega=0.1, bath=fig_bath)
        with pytest.raises(ResonanceError):
            rhs(0.0, TlsState(0.0, 0j), params, "non_markovian")


class TestRhs:
    def test_zero_state_zero_time(self, fig_bath):
        d_sz, d_sp = rhs(0.0, TlsState(0.0, 0j), resonant_params(fig_bath), "non_markovian")
        assert d_sz == 0.0
        assert d_sp == 0j

    def test_sz_derivative_is_real_float(self, fig_bath):
        d_sz, _ = rhs(1.0, TlsState(0.2, 0.1 + 0.3j), resonant_params(fig_bath), "non_markovian")
        assert isinstance(d_sz, float)

    def test_undriven_markovian_gibbs_fixed_point(self, fig_bath):
        sz_star = -math.tanh(1.5) / 2.0
        params = resonant_params(fig_bath, Omega=0.0)
        d_sz, d_sp = rhs(3.0, TlsState(sz_star, 0j), params, "markovian")
        assert abs(d_sz) < 1e-12
        assert d_sp == 0j

    def test_driven_scenario_assembled_from_kernel_oracle(self, fig_bath):
        with pytest.warns(ValidityWarning):
            params = resonant_params(fig_bath, Omega=5.0)
        d_sz, d_sp = rhs(1.0, TlsState(0.0, 0j), params, "non_markovian")
        assert d_sz == pytest.approx(-F_ORACLE_T1.real, rel=1e-7)
        assert d_sp == 0j


class TestMultipliers:
    def test_maximally_mixed(self):
        result = multipliers(TlsState(0.0, 0j))
        assert result.R == 2.0
        assert result.F1 == 0j and result.F2 == 0.0 and result.F3 == 0j

    def test_population_bias(self):
        result = multipliers(TlsState(0.3, 0j))
        assert result.F2 == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)
        assert result.F1 == 0j and result.F3 == 0j

    def test_round_trip_against_matrix_exponential(self):
        ops = maxent.spin_operator_set()
        worst = 0.0
        for state in admissible_grid():
            if state.bloch_radius >= 0.5 - 1e-12:
                continue
            result = multipliers(state)
            built = maxent.build_state([result.F1, result.F2, result.F3], ops)
            mom = maxent.moments(built, ops)
            worst = max(
                worst,
                abs(mom[0] - state.mean_sp),
                abs(mom[1] - state.mean_sz),
                abs(mom[2] - state.mean_sp.conjugate()),
            )
        assert worst <= 1e-12

    def test_boundary_raises(self):
        with pytest.raises(BoundaryStateError):
            multipliers(TlsState(0.5, 0j))


class TestEntropy:
    def test_maximally_mixed(self):
        assert entropy(TlsState(0.0, 0j)) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_population_bias_binary_entropy(self):
        assert entropy(TlsState(0.3, 0j)) == pytest.approx(binary_entropy(0.8), abs=1e-14)

    def test_binary_entropy_identity_on_grid(self):
        for state in admissible_grid():
            expected = binary_entropy(0.5 + state.bloch_radius)
            assert entropy(state) == pytest.approx(expected, abs=1e-12)

    def test_near_boundary_matches_von_neumann_oracle(self):
        state = TlsState(0.499, 0j)
        built = maxent.build_state(
            [0.0, multipliers(state).F2, 0.0], maxent.spin_operator_set()
        )
        assert entropy(state) == pytest.approx(maxent.von_neumann(built.rho), abs=1e-10)

    def test_boundary_returns_zero_with_warning(self):
        with pytest.warns(BoundaryStateWarning):
            assert entropy(TlsState(0.5, 0j)) == 0.0


class TestInverseTemperature:
    def test_gibbs_point_recovers_bath_temperature(self):
        sz_star = -math.tanh(1.5) / 2.0
        assert inverse_temperature(TlsState(sz_star, 0j), 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_population_inversion_gives_negative_temperature(self):
        assert inverse_temperature(TlsState(0.3, 0j), 1.0) == pytest.approx(
            -2.0 * math.log(2.0), rel=1e-14
        )

    def test_matches_entropy_derivative(self):
        state = TlsState(0.2, 0.1 - 0.15j)
        h = 1e-6
        gradient = (
            entropy(TlsState(state.mean_sz + h, state.mean_sp))
            - entropy(TlsState(state.mean_sz - h, state.mean_sp))
        ) / (2 * h)
        assert gradient == pytest.approx(multipliers(state).F2, abs=1e-6)


class TestEvolutionCoeffs:
    def test_identity_at_coincident_times(self, fig_bath):
        c, d, _ = evolution_coeffs(2.3, 2.3, resonant_params(fig_bath))
        assert c == 1.0 + 0j
        assert d == 0j

    def test_pi_pulse_on_resonance(self, fig_bath):
        params = resonant_params(fig_bath, Omega=0.3)
        c, d, k = evolution_coeffs(math.pi / 0.3, 0.0, params)
        assert k == pytest.approx(0.3, rel=1e-15)
        assert abs(c) < 1e-12
        assert abs(d) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rotation_limit(self, fig_bath):
        params = resonant_params(fig_bath, Omega=0.0)
        c, d, k = evolution_coeffs(1.7, 0.2, params)
        assert k == 0.0
        assert d == 0j
        assert c == pytest.approx(cmath.exp(-0.5j * 1.5), rel=1e-14)

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_unitarity(self, t, t_prime, drive, detuning):
        bath = BathParams(W=10.0, beta=3.0, omega0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            params = TlsParams(omega0=1.0, omegaL=1.0 + detuning, Omega=drive, bath=bath)
        c, d, _ = evolution_coeffs(t, t_prime, params)
        assert abs(c) ** 2 + abs(d) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestSimulate:
    def test_undriven_markovian_relaxes_to_gibbs(self, fig_bath):
        params = resonant_params(fig_bath, Omega=0.0)
        run = simulate(TlsState(0.0, 0j), params, "markovian", t_max=8.0)
        t_check = 20.0 / markovian_limits(fig_bath).f_inf.real
        index = int(round(t_check / 0.01))
        assert run.beta[index] == pytest.approx(3.0, rel=1e-3)
        assert run.mean_sz[-1] == pytest.approx(-math.tanh(1.5) / 2.0, rel=1e-6)

    def test_bloch_ball_preserved_in_driven_scenario(self, fig_bath):
        with pytest.warns(ValidityWarning):
            params = resonant_params(fig_bath, Omega=5.0)
        run = simulate(TlsState(0.0, 0j), params, "non_markovian", t_max=5.0)
        radius = np.hypot(np.abs(run.mean_sp), run.mean_sz)
        assert np.max(radius) <= 0.5 + 1e-9

    def test_leaving_the_ball_reports_the_radius_as_a_plain_float(self):
        with pytest.raises(InvariantViolationError, match=r"X = 0\.6 > 1/2 at t = 0\.5;"):
            check_domain(np.array([0.0, 0.5]), np.array([0.3, 0.6]), np.array([0j, 0j]))

    def test_entropy_and_beta_columns_consistent(self, fig_bath):
        params = resonant_params(fig_bath, Omega=0.2)
        run = simulate(TlsState(0.0, 0j), params, "markovian", t_max=0.4)
        k = 13
        state = TlsState(float(run.mean_sz[k]), complex(run.mean_sp[k]))
        assert run.entropy[k] == pytest.approx(entropy(state), rel=1e-12)
        assert run.beta[k] == pytest.approx(inverse_temperature(state, 1.0), rel=1e-12)
