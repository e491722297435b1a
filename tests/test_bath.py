import math
import sys
import threading

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from oracles import (
    F_BETA_ORACLE_T1,
    F_ORACLE_T1,
    corr_oracle_2d,
    pv_frequency_shift,
)
from releq.bath import (
    BathParams,
    CorrelatorCache,
    corr_f,
    corr_f_beta,
    correlator_cache,
    correlator_samples,
    coth,
    kernel_pair,
    markovian_limits,
    spectral_density,
    windowed_correlator_average,
)

F_AT_1 = F_ORACLE_T1
F_BETA_AT_1 = F_BETA_ORACLE_T1

ORACLE_TIMES = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


class TestBathParams:
    @pytest.mark.parametrize("bad", [dict(W=0.0), dict(beta=-1.0), dict(omega0=math.inf)])
    def test_positivity_and_finiteness(self, bad):
        fields = dict(W=10.0, beta=3.0, omega0=1.0)
        fields.update(bad)
        with pytest.raises(ValueError):
            BathParams(**fields)

    def test_unknown_spectral_model_rejected(self):
        with pytest.raises(ValueError, match="spectral_model"):
            BathParams(W=10.0, beta=3.0, omega0=1.0, spectral_model="drude")


class TestSpectralDensity:
    def test_zero_at_origin(self, fig_bath):
        assert spectral_density(0.0, fig_bath) == 0.0

    def test_at_cutoff(self, fig_bath):
        assert spectral_density(10.0, fig_bath) == pytest.approx(10.0 / math.e, rel=1e-15)

    def test_at_system_frequency(self, fig_bath):
        assert spectral_density(1.0, fig_bath) == pytest.approx(math.exp(-0.1), rel=1e-15)

    def test_negative_frequency_rejected(self, fig_bath):
        with pytest.raises(ValueError):
            spectral_density(-1.0, fig_bath)


class TestCorrelators:
    def test_zero_at_time_zero(self, fig_bath):
        assert corr_f(0.0, fig_bath) == 0j
        assert corr_f_beta(0.0, fig_bath) == 0j

    def test_frozen_values_at_t1(self, fig_bath):
        assert corr_f(1.0, fig_bath) == pytest.approx(F_AT_1, rel=1e-8)
        assert corr_f_beta(1.0, fig_bath) == pytest.approx(F_BETA_AT_1, rel=1e-8)

    def test_large_time_real_part_reaches_golden_rule_rate(self, fig_bath):
        value = corr_f(200.0, fig_bath)
        assert value.real == pytest.approx(math.pi * math.exp(-0.1), abs=1e-3)

    def test_negative_time_rejected(self, fig_bath):
        with pytest.raises(ValueError):
            corr_f(-0.5, fig_bath)

    def test_infinite_temperature_limit_matches_zero_temperature_kernel(self):
        cold = BathParams(W=10.0, beta=1e6, omega0=1.0)
        warm = BathParams(W=10.0, beta=3.0, omega0=1.0)
        for t in (0.5, 1.0, 2.0):
            assert corr_f_beta(t, cold) == pytest.approx(corr_f(t, warm), abs=1e-5)

    @pytest.mark.parametrize("t", ORACLE_TIMES)
    def test_against_two_dimensional_oracle(self, fig_bath, t):
        oracle_f = corr_oracle_2d(t, fig_bath, finite_beta=False)
        oracle_fb = corr_oracle_2d(t, fig_bath, finite_beta=True)
        assert abs(corr_f(t, fig_bath) - oracle_f) <= 1e-6 * abs(oracle_f)
        assert abs(corr_f_beta(t, fig_bath) - oracle_fb) <= 1e-6 * abs(oracle_fb)

    def test_detailed_balance_excess(self, fig_bath):
        cache = correlator_cache(fig_bath)
        times = np.linspace(0.01, 10.0, 200)
        excess = np.real(cache.f_beta(times) - cache.f(times))
        assert np.all(excess >= 0.0)

    def test_conjugated_fourier_kernel_gives_conjugate(self, fig_bath):
        # Flipping the sign of the Fourier kernel in the defining double
        # integral must conjugate the correlator.
        flipped = corr_oracle_2d(1.0, fig_bath, finite_beta=True, kernel_sign=-1)
        assert flipped == pytest.approx(corr_f_beta(1.0, fig_bath).conjugate(), rel=1e-6)


class TestCorrelatorCache:
    def test_matches_direct_quadrature(self, fig_bath):
        cache = correlator_cache(fig_bath)
        for t in (0.0037, 0.41, 1.7, 6.283, 19.99):
            assert abs(cache.f(t) - corr_f(t, fig_bath)) < 1e-8
            assert abs(cache.f_beta(t) - corr_f_beta(t, fig_bath)) < 1e-8

    def test_time_integral_antiderivative(self, fig_bath):
        cache = correlator_cache(fig_bath)
        h = 1e-4
        t = 2.5
        derivative = (cache.f_time_integral(t + h) - cache.f_time_integral(t - h)) / (2 * h)
        assert derivative == pytest.approx(cache.f(t), rel=1e-6)
        assert cache.f_time_integral(0.0) == 0j

    def test_auto_extension(self, fig_bath):
        cache = correlator_cache(fig_bath)
        value = cache.f(cache.t_max + 3.0)
        assert np.isfinite(value)
        assert cache.t_max >= 28.0

    def test_table_is_the_cubic_spline_bit_for_bit(self, fig_bath, rng):
        # Node values are the same in every table that covers them, but a
        # table's last node is held only by its last cubic, which reproduces
        # it to rounding.  So the reference splines take their node values
        # from the longer shared table.
        shared = correlator_cache(fig_bath)
        cache = CorrelatorCache(fig_bath, t_max=5.0)
        for horizon in (5.0, 7.0):  # the second extends the table to 10.5
            cache.ensure_horizon(horizon)
            grid = np.arange(round(cache.t_max / cache.step) + 1) * cache.step
            assert grid[-1] == cache.t_max < shared.t_max
            ref_f = CubicSpline(grid, shared.f(grid))
            ref_f_beta = CubicSpline(grid, shared.f_beta(grid))
            times = np.concatenate(
                ([0.0], grid, grid[:-1] + 0.5 * cache.step, rng.uniform(0.0, cache.t_max, 400), [cache.t_max])
            )
            assert cache.f(times).tobytes() == ref_f(times).tobytes()
            assert cache.f_beta(times).tobytes() == ref_f_beta(times).tobytes()
            expected = list(zip(ref_f(times).tolist(), ref_f_beta(times).tolist()))
            assert [cache.pair(t) for t in times] == expected
            for t, pair in list(zip(times, expected))[::50]:
                assert kernel_pair(t, fig_bath, "non_markovian", cache) == pair
                assert (cache.f(t), cache.f_beta(t)) == pair

    def test_extension_equals_a_fresh_build(self):
        params = BathParams(W=5.0, beta=2.0, omega0=1.0)
        cache = CorrelatorCache(params)
        old_table = cache._table
        cache.ensure_horizon(40.0)
        assert cache._table is not old_table
        assert cache.t_max == 60.0
        assert np.array_equal(cache._table, CorrelatorCache(params, t_max=60.0)._table)

    def test_kernel_pair_past_the_horizon_extends_the_table(self):
        params = BathParams(W=10.0, beta=3.0, omega0=2.0)
        cache = correlator_cache(params)
        t = cache.t_max + 1.0
        pair = kernel_pair(t, params, "non_markovian")
        assert cache.t_max >= 1.5 * t
        assert pair == cache.pair(t)

    def test_lookups_while_the_table_grows(self, fig_bath):
        # Lookups past the first horizon extend the table themselves.  Every
        # table gives the same values at times well inside it, so the longer
        # shared table supplies the expected ones.  Times near the first
        # horizon are left out: its last cubic ends there.
        shared = correlator_cache(fig_bath)
        cache = CorrelatorCache(fig_bath, t_max=2.0)
        times = np.concatenate((np.linspace(0.0, 1.9, 77), np.linspace(2.1, 2.6, 21)))
        expected_pairs = [shared.pair(t) for t in times]
        expected_f = shared.f(times)
        errors, mismatches, rounds = [], [], []

        def look():
            try:
                while True:
                    if [cache.pair(t) for t in times] != expected_pairs:
                        mismatches.append("pair")
                    if cache.f(times).tobytes() != expected_f.tobytes():
                        mismatches.append("f")
                    rounds.append(1)
                    if not grower.is_alive():
                        return
            except Exception as exc:
                errors.append(exc)

        def grow():
            for horizon in (3.0, 6.0, 12.0, 20.0):
                cache.ensure_horizon(horizon)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            grower = threading.Thread(target=grow)
            lookers = [threading.Thread(target=look) for _ in range(4)]
            grower.start()
            for thread in lookers:
                thread.start()
            for thread in [grower, *lookers]:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and mismatches == []
        assert len(rounds) >= 4
        assert cache.t_max >= 30.0


class TestMarkovianLimits:
    def test_real_parts_are_golden_rule_rates(self, fig_bath):
        limits = markovian_limits(fig_bath)
        assert limits.f_inf.real == pytest.approx(math.pi * math.exp(-0.1), rel=1e-12)
        assert limits.f_beta_inf.real == pytest.approx(
            math.pi * math.exp(-0.1) * coth(1.5), rel=1e-12
        )

    def test_windowed_average_recovers_real_parts(self, fig_bath):
        avg_f, avg_fb, err_f, err_fb = windowed_correlator_average(fig_bath)
        assert avg_f.real == pytest.approx(math.pi * math.exp(-0.1), abs=1e-4)
        assert avg_fb.real == pytest.approx(math.pi * math.exp(-0.1) * coth(1.5), abs=1e-4)
        assert err_f < 1e-4 and err_fb < 1e-4

    def test_imaginary_parts_match_principal_value_oracle(self, fig_bath):
        limits = markovian_limits(fig_bath)
        assert limits.f_inf.imag == pytest.approx(
            pv_frequency_shift(fig_bath, finite_beta=False), abs=1e-4
        )
        assert limits.f_beta_inf.imag == pytest.approx(
            pv_frequency_shift(fig_bath, finite_beta=True), abs=1e-4
        )

    def test_zero_temperature_shift_closed_form(self, fig_bath):
        # Independent closed form W - w0 exp(-w0/W) Ei(w0/W) for the
        # zero-temperature frequency shift.
        from scipy.special import expi

        closed = fig_bath.W - math.exp(-0.1) * expi(0.1)
        assert markovian_limits(fig_bath).f_inf.imag == pytest.approx(closed, abs=1e-4)


class TestSamplesAndCsv:
    def test_samples_and_dump(self, fig_bath):
        samples = correlator_samples(fig_bath, [0.0, 0.5, 1.0])
        assert samples[0].f == 0j and samples[0].f_beta == 0j
        assert samples[2].f == pytest.approx(F_AT_1, rel=1e-7)
