import math

import numpy as np
import pytest

from oracles import F_BETA_ORACLE_T1, F_ORACLE_T1
from releq import maxent
from releq.bath import BathParams, QuadratureError, correlator_samples, markovian_limits
from releq.oscillator import (
    DegenerateStateError,
    DegenerateStateWarning,
    OscillatorState,
    closed_form_trajectory,
    entropy,
    inverse_temperature,
    multipliers,
    simulate,
    thermodynamic_series,
    _linear_system,
)

N_BE = 1.0 / math.expm1(3.0)


class TestState:
    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            OscillatorState(mean_a=0j, mean_n=-0.1)

    def test_incoherent_occupation(self):
        state = OscillatorState(mean_a=1.0 + 0j, mean_n=9.0)
        assert state.n_eff == pytest.approx(8.0, rel=1e-15)


def rhs(t, state, bath, regime):
    """(d<a>/dt, d<n>/dt) of ``state``, as ``A y + b``: the top rows
    ``[A | b]`` from ``_linear_system`` applied to ``(y, 1)``, at the kernel
    pair of ``regime``: the long-time values, or the integrated kernels at
    t."""
    if regime == "markovian":
        limits = markovian_limits(bath)
        G = _linear_system(limits.f_inf, limits.f_beta_inf)
    else:
        G = _linear_system(*correlator_samples(bath, t))
    d = G @ [state.mean_a.real, state.mean_a.imag, state.mean_n, 1.0]
    return complex(d[0], d[1]), float(d[2])


class TestRhs:
    def test_zero_state_zero_time(self, fig_bath):
        da, dn = rhs(0.0, OscillatorState(0j, 0.0), fig_bath, "non_markovian")
        assert da == 0j
        assert dn == 0.0

    def test_markovian_thermal_fixed_point(self, fig_bath):
        da, dn = rhs(5.0, OscillatorState(0j, N_BE), fig_bath, "markovian")
        assert da == 0j
        assert abs(dn) < 1e-12

    def test_assembled_from_kernel_oracle_values(self, fig_bath):
        da, dn = rhs(1.0, OscillatorState(1.0 + 0j, 9.0), fig_bath, "non_markovian")
        assert da == pytest.approx(-np.conj(F_ORACLE_T1), rel=1e-7)
        expected_dn = -2.0 * F_ORACLE_T1.real * 9.0 + (F_BETA_ORACLE_T1 - F_ORACLE_T1).real
        assert dn == pytest.approx(expected_dn, rel=1e-7)

    def test_unknown_regime_rejected(self, fig_bath):
        with pytest.raises(ValueError, match="regime"):
            simulate(OscillatorState(0j, 1.0), fig_bath, "adiabatic", t_max=1.0)


class TestMultipliers:
    def test_thermal_single_quantum(self):
        result = multipliers(OscillatorState(0j, 1.0))
        assert result.F2 == pytest.approx(math.log(2.0), rel=1e-14)
        assert result.F1 == 0j and result.F3 == 0j

    def test_displaced_state(self):
        result = multipliers(OscillatorState(1.0 + 0j, 9.0))
        assert result.F2 == pytest.approx(math.log(9.0 / 8.0), rel=1e-14)
        assert result.F1 == pytest.approx(-math.log(9.0 / 8.0), rel=1e-14)
        assert result.F3 == result.F1.conjugate()

    def test_matrix_oracle_round_trip(self):
        state = OscillatorState(1.0 + 0j, 9.0)
        mult = multipliers(state)
        ops = maxent.fock_operator_set(256)
        built = maxent.build_state([mult.F1, mult.F2, mult.F3], ops)
        mom = maxent.moments(built, ops)
        assert abs(mom[2] - state.mean_a) < 1e-8
        assert abs(mom[1] - state.mean_n) < 1e-8

    def test_degenerate_state_raises(self):
        with pytest.raises(DegenerateStateError):
            multipliers(OscillatorState(1.0 + 0j, 1.0))
        with pytest.raises(DegenerateStateError):
            inverse_temperature(OscillatorState(1.0 + 0j, 1.0 + 1e-15), 1.0)


class TestEntropyAndTemperature:
    def test_coherent_limit_is_zero_with_warning(self):
        with pytest.warns(DegenerateStateWarning):
            assert entropy(OscillatorState(1.0 + 0j, 1.0)) == 0.0

    def test_displaced_state_value(self):
        expected = 9.0 * math.log(9.0) - 8.0 * math.log(8.0)
        assert entropy(OscillatorState(1.0 + 0j, 9.0)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n_eff", [1e8, 1e12, 1e16])
    def test_large_occupation_keeps_its_digits(self, fig_bath, n_eff):
        # S = ln n + 1 + 1/(2n) - 1/(6n**2) + ..., so the three terms are
        # exact to 1e-17 here; (1 + n) ln(1 + n) - n ln n cancels, and at
        # n = 1e16 it reads 0.
        expected = math.log(n_eff) + 1.0 + 0.5 / n_eff
        assert entropy(OscillatorState(0j, n_eff)) == pytest.approx(expected, rel=2e-16)
        run = simulate(OscillatorState(0j, n_eff), fig_bath, "markovian", t_max=0.01, dt_out=0.01)
        assert run.entropy[0] == pytest.approx(expected, rel=2e-16)

    def test_subnormal_occupation_has_finite_entropy_and_temperature(self, fig_bath):
        # 1/n overflows below 2**-1024, where ln(1 + 1/n) = -ln n to rounding.
        n_eff = 1e-310
        run = simulate(OscillatorState(0j, n_eff), fig_bath, "markovian", t_max=0.01, dt_out=0.01)
        assert run.beta[0] == pytest.approx(-math.log(n_eff), rel=1e-15)
        assert run.entropy[0] == pytest.approx(n_eff * (1.0 - math.log(n_eff)), rel=1e-12)

    def test_against_fock_von_neumann(self):
        state = OscillatorState(0.6 - 0.2j, 4.0)
        mult = multipliers(state)
        built = maxent.build_state([mult.F1, mult.F2, mult.F3], maxent.fock_operator_set(256))
        assert entropy(state) == pytest.approx(maxent.von_neumann(built.rho), abs=1e-8)

    def test_bose_einstein_inverts_to_bath_temperature(self):
        assert inverse_temperature(OscillatorState(0j, N_BE), 1.0) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_displaced_state_temperature(self):
        assert inverse_temperature(OscillatorState(1.0 + 0j, 9.0), 1.0) == pytest.approx(
            math.log(9.0 / 8.0), rel=1e-14
        )

    def test_temperature_is_entropy_derivative(self):
        h = 1e-6
        state = OscillatorState(0.5 + 0.5j, 3.0)
        gradient = (
            entropy(OscillatorState(state.mean_a, state.mean_n + h))
            - entropy(OscillatorState(state.mean_a, state.mean_n - h))
        ) / (2 * h)
        assert gradient == pytest.approx(multipliers(state).F2, abs=1e-6)


class TestThermodynamicSeries:
    def test_matches_the_scalar_formulas(self):
        rng = np.random.default_rng(20141023)
        n_eff = np.concatenate([10.0 ** rng.uniform(-13.9, 16.0, size=2000), [1.1e-14, 1.0, 1e16]])
        mean_a = rng.standard_normal(n_eff.size) + 1j * rng.standard_normal(n_eff.size)
        mean_n = n_eff + np.abs(mean_a) ** 2
        omega0 = 1.7
        s_series, beta_series = thermodynamic_series(mean_a, mean_n, omega0)
        # One sample and a whole run take the same array formulas, bit for bit.
        for k in range(n_eff.size):
            state = OscillatorState(complex(mean_a[k]), float(mean_n[k]))
            assert s_series[k] == entropy(state)
            assert beta_series[k] == inverse_temperature(state, omega0)

    @pytest.mark.parametrize("regime", ["markovian", "non_markovian"])
    def test_run_columns_are_the_scalar_formulas(self, regime):
        # Every sample of a run, on the README bath and on one with
        # omega0 = 0.3, has the S and beta of its state exactly.
        for bath in (BathParams(W=10.0, beta=3.0, omega0=1.0), BathParams(W=20.0, beta=0.2, omega0=0.3)):
            for initial in (OscillatorState(1.0 - 0.5j, 9.0), OscillatorState(0.2j, 0.05)):
                run = simulate(initial, bath, regime, t_max=5.0, dt_out=0.05)
                for k in range(run.times.size):
                    state = OscillatorState(complex(run.mean_a[k]), float(run.mean_n[k]))
                    assert run.entropy[k] == entropy(state), (bath, initial, k)
                    assert run.beta[k] == inverse_temperature(state, bath.omega0), (bath, initial, k)


class TestClosedForm:
    def test_identity_at_time_zero(self, fig_bath):
        initial = OscillatorState(1.0 + 0j, 9.0)
        for regime in ("markovian", "non_markovian"):
            mean_a, mean_n = closed_form_trajectory([0.0], initial, fig_bath, regime)
            assert mean_a[0] == initial.mean_a
            assert mean_n[0] == pytest.approx(initial.mean_n, rel=1e-14)

    def test_markovian_long_time_fixed_point(self, fig_bath):
        mean_a, mean_n = closed_form_trajectory([50.0], OscillatorState(1.0 + 0j, 9.0), fig_bath, "markovian")
        assert abs(mean_a[0]) < 1e-12
        assert mean_n[0] == pytest.approx(N_BE, rel=1e-12)

    def test_matches_integrated_equations(self, fig_bath):
        initial = OscillatorState(1.0 + 0j, 9.0)
        run = simulate(initial, fig_bath, "non_markovian", t_max=2.0, dt_out=0.5)
        mean_a, mean_n = closed_form_trajectory(run.times, initial, fig_bath, "non_markovian")
        assert np.max(np.abs(mean_a - run.mean_a)) < 1e-6
        assert np.max(np.abs(mean_n - run.mean_n)) < 1e-6

    @pytest.mark.parametrize("W", [5.0, 10.0, 20.0, 50.0, 100.0])
    def test_matches_the_propagator_across_cutoffs(self, W):
        # The closed form is off the Magnus run by at most 7.5e-11 at every
        # cutoff: both integrate the kernels on the run's steps.
        bath = BathParams(W=W, beta=3.0, omega0=1.0)
        initial = OscillatorState(1.0 + 0j, 9.0)
        run = simulate(initial, bath, "non_markovian", t_max=20.0)
        mean_a, mean_n = closed_form_trajectory(run.times, initial, bath, "non_markovian")
        assert np.max(np.abs(mean_a - run.mean_a)) <= 1e-9
        assert np.max(np.abs(mean_n - run.mean_n)) <= 1e-9

    @pytest.mark.parametrize(
        "times",
        [[-0.5], [0.5, 0.5], [1.0, 0.5], [math.nan], [0.5, math.nan], [0.5, math.inf]],
        ids=["negative", "repeated", "decreasing", "nan", "nan after a time", "infinite"],
    )
    def test_negative_repeated_or_nan_times_rejected(self, fig_bath, times):
        with pytest.raises(ValueError, match="increasing"):
            closed_form_trajectory(times, OscillatorState(1.0 + 0j, 9.0), fig_bath)

    def test_non_finite_kernels_are_refused(self):
        # At W beta = 1e-159 trigamma's argument overflows when squared, so
        # f_beta is not finite from the first step on; the sample at t = 0
        # takes no step.  The solution was NaN there without an error.
        bath = BathParams(W=10.0, beta=1e-160, omega0=1.0)
        with pytest.raises(QuadratureError, match="not finite at t = 0.5$"):
            closed_form_trajectory([0.0, 0.5, 1.0], OscillatorState(1.0 + 0j, 9.0), bath)


class TestSimulate:
    def test_markovian_relaxation_to_bath_temperature(self, fig_bath):
        run = simulate(OscillatorState(1.0 + 0j, 9.0), fig_bath, "markovian", t_max=8.0)
        t_check = 20.0 / markovian_limits(fig_bath).f_inf.real
        index = int(round(t_check / 0.01))
        assert run.mean_n[index] == pytest.approx(N_BE, rel=0.01)
        assert run.beta[index] == pytest.approx(3.0, rel=0.01)

    def test_entropy_and_beta_columns_consistent(self, fig_bath):
        run = simulate(OscillatorState(1.0 + 0j, 9.0), fig_bath, "markovian", t_max=0.5)
        k = 17
        state = OscillatorState(complex(run.mean_a[k]), float(run.mean_n[k]))
        assert run.entropy[k] == pytest.approx(entropy(state), rel=1e-12)
        assert run.beta[k] == pytest.approx(inverse_temperature(state, 1.0), rel=1e-12)

    def test_positivity_of_incoherent_occupation_along_run(self, fig_bath):
        run = simulate(OscillatorState(1.0 + 0j, 9.0), fig_bath, "non_markovian", t_max=5.0)
        assert np.all(run.mean_n - np.abs(run.mean_a) ** 2 > 0.0)

    def test_bad_horizon_rejected(self, fig_bath):
        with pytest.raises(ValueError):
            simulate(OscillatorState(0j, 1.0), fig_bath, "markovian", t_max=0.0)
