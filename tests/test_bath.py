import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from oracles import (
    F_BETA_ORACLE_T1,
    F_ORACLE_T1,
    corr_oracle_2d,
    cubic_hermite,
    pv_frequency_shift,
    reference_table,
    windowed_correlator_average,
)
from releq import bath
from releq.bath import (
    _TABLE_STEP,
    BathParams,
    CorrelatorCache,
    corr_f,
    corr_f_beta,
    corr_f_beta_integrand,
    corr_f_integrand,
    correlator_cache,
    correlator_samples,
    coth,
    markovian_limits,
    spectral_density,
    step_chunks,
    step_kernels,
)

F_AT_1 = F_ORACLE_T1
F_BETA_AT_1 = F_BETA_ORACLE_T1

ORACLE_TIMES = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)

# Baths of the frequency-shift checks: three cutoffs, each hot and cold, and
# a system frequency above the cutoff.
SHIFT_BATHS = [
    BathParams(W=W, beta=beta, omega0=omega0)
    for W, omega0 in ((5.0, 1.0), (10.0, 1.0), (20.0, 1.0), (1.0, 2.5))
    for beta in (0.2, 9.0)
] + [
    # Cold baths: the thermal part of the shift sits on w < 1/beta, far
    # below the pole.
    BathParams(W=5.0, beta=300.0, omega0=100.0),
    BathParams(W=10.0, beta=1e6, omega0=1.0),
]
SHIFT_IDS = [f"W{p.W:g}-beta{p.beta:g}-omega{p.omega0:g}" for p in SHIFT_BATHS]


class TestBathParams:
    @pytest.mark.parametrize("bad", [dict(W=0.0), dict(beta=-1.0), dict(omega0=math.inf)])
    def test_positivity_and_finiteness(self, bad):
        fields = dict(W=10.0, beta=3.0, omega0=1.0)
        fields.update(bad)
        with pytest.raises(ValueError):
            BathParams(**fields)


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

    def test_time_integral_against_quadrature_of_the_table(self, fig_bath):
        cache = correlator_cache(fig_bath)
        times = (0.0037, 0.41, 2.5, 6.283, 19.99)
        values = cache.f_time_integral(np.array(times))
        for t, value in zip(times, values):
            for part, got in (("real", value.real), ("imag", value.imag)):
                expected, _ = quad(lambda s: getattr(cache.f(s), part), 0.0, t, epsabs=0.0, epsrel=1e-13, limit=500)
                assert got == pytest.approx(expected, rel=1e-10)
            assert cache.f_time_integral(t) == value

    def test_auto_extension(self, fig_bath):
        cache = correlator_cache(fig_bath)
        t = cache.t_max + 3.0
        value = cache.f(t)
        assert np.isfinite(value)
        assert t < cache.t_max <= t + 2 * _TABLE_STEP

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_lookups_of_no_times(self, fig_bath, shape):
        cache = correlator_cache(fig_bath)
        for lookup in (cache.f, cache.f_beta, cache.f_time_integral):
            out = lookup(np.empty(shape))
            assert out.shape == shape and out.dtype == complex

    def test_table_is_the_cubic_hermite_interpolant(self, fig_bath, rng):
        # Node values are the same in every table that covers them, but a
        # table's last node is held only by its last cubic, which reproduces
        # it to rounding.  So the reference takes its node values from the
        # longer shared table, and its derivatives from the closed forms.
        shared = correlator_cache(fig_bath)
        shared.ensure_horizon(10.0)
        cache = CorrelatorCache(fig_bath, t_max=5.0)
        for horizon in (5.0, 7.0):  # each extends the table to one step past it
            cache.ensure_horizon(horizon)
            grid = np.arange(round(cache.t_max / _TABLE_STEP) + 1) * _TABLE_STEP
            assert grid[-1] == cache.t_max < shared.t_max
            times = np.concatenate(
                ([0.0], grid, grid[:-1] + 0.5 * _TABLE_STEP, rng.uniform(0.0, cache.t_max, 400), [cache.t_max])
            )
            f, f_beta = cache.f(times), cache.f_beta(times)
            for got, node_values, derivative in (
                (f, shared.f(grid), corr_f_integrand),
                (f_beta, shared.f_beta(grid), corr_f_beta_integrand),
            ):
                expected = cubic_hermite(grid, node_values, derivative(grid, fig_bath), times)
                # The power basis and the cardinal basis round differently.
                tolerance = 32 * np.finfo(float).eps * np.max(np.abs(expected))
                assert np.max(np.abs(got - expected)) <= tolerance
            pairs = list(zip(f.tolist(), f_beta.tolist()))
            assert [cache.pair(t) for t in times] == pairs
            for t, pair in list(zip(times, pairs))[::50]:
                assert (cache.f(t), cache.f_beta(t)) == pair

    def test_extension_equals_a_fresh_build(self):
        params = BathParams(W=5.0, beta=2.0, omega0=1.0)
        cache = CorrelatorCache(params, t_max=25.0)
        old_table = cache._table
        old_rows = old_table.copy()
        cache.ensure_horizon(40.0)
        assert cache._table is not old_table
        assert 40.0 < cache.t_max <= 40.0 + 2 * _TABLE_STEP
        assert np.array_equal(old_table, old_rows)
        assert cache._table[: len(old_rows)].tobytes() == old_rows.tobytes()
        assert np.array_equal(cache._table, CorrelatorCache(params, t_max=40.0 + _TABLE_STEP)._table)

    @pytest.mark.parametrize("t_max", [4.096, 4.097, 8.193])
    def test_fresh_build_is_the_whole_array_build(self, fig_bath, t_max):
        # Horizons on both sides of the first chunk boundary and past the second.
        table = CorrelatorCache(fig_bath, t_max=t_max)._table
        assert table.tobytes() == reference_table(fig_bath, t_max).tobytes()

    def test_extension_chain_is_the_whole_array_build(self):
        params = BathParams(W=20.0, beta=9.0, omega0=2.0)
        cache = CorrelatorCache(params, t_max=3.0)
        for horizon in (8.2, 30.0):
            cache.ensure_horizon(horizon)
            expected = reference_table(params, horizon + _TABLE_STEP)
            assert cache._table.tobytes() == expected.tobytes()

    def test_build_memory_stays_near_the_table(self):
        # numpy reports its buffers to tracemalloc.  A build holds the new
        # table, the old one it extends and chunk-sized temporaries only.
        params = BathParams(W=10.0, beta=3.0, omega0=1.0)
        slack = 8 * 2**20
        tracemalloc.start()
        try:
            cache = CorrelatorCache(params, t_max=100.0)
            _, peak = tracemalloc.get_traced_memory()
            assert peak <= cache._table.nbytes + slack
            old = cache._table.nbytes
            tracemalloc.reset_peak()
            cache.ensure_horizon(150.0)
            _, peak = tracemalloc.get_traced_memory()
            assert peak <= old + cache._table.nbytes + slack
        finally:
            tracemalloc.stop()

    def test_table_bytes_do_not_depend_on_the_chunk_length(self, monkeypatch):
        # numpy computes a product of two large arrays into a temporary
        # operand in place, swapping the operands when the temporary is the
        # right one, and a complex product's last bit depends on their
        # order.  1000 panels evaluate fewer points than numpy does that for,
        # 4096 and 7000 more, so a kernel whose bits followed it would make
        # the bytes follow the chunk length.
        params = BathParams(W=20.0, beta=9.0, omega0=2.0)
        horizon = 30.0 + _TABLE_STEP
        expected = None
        for chunk in (1000, 4096, 7000):
            monkeypatch.setattr(bath, "_PANEL_CHUNK", chunk)
            fresh = CorrelatorCache(params, t_max=horizon)
            extended = CorrelatorCache(params, t_max=3.0)
            for t in (8.2, 30.0):
                extended.ensure_horizon(t)
            expected = expected or fresh._table.tobytes()
            assert fresh._table.tobytes() == expected
            assert extended._table.tobytes() == expected

    def test_lookup_memory_is_one_kernels_columns(self, fig_bath):
        # A lookup of one kernel gathers that kernel's 8 columns of each row
        # (64 bytes a time); the row indices, offsets and their powers take
        # 40 bytes, the result 16, and the Horner temporaries 16 more.
        cache = correlator_cache(fig_bath)
        cache.ensure_horizon(10.0)
        times = np.linspace(0.0, 10.0, 10**6)
        for lookup in (cache.f, cache.f_beta):
            tracemalloc.start()
            try:
                lookup(times)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 144 * times.size

    def test_kernel_pair_past_the_horizon_extends_the_table(self):
        params = BathParams(W=10.0, beta=3.0, omega0=2.0)
        cache = correlator_cache(params)
        t = cache.t_max + 1.0
        pair = cache.pair(t)
        assert t < cache.t_max <= t + 2 * _TABLE_STEP
        assert pair == cache.pair(t)

    def test_lookups_while_the_table_grows(self, fig_bath):
        # Lookups past the first horizon extend the table themselves.  An
        # extension leaves the old rows as they were, so every table gives
        # the same values at times inside it and the longer shared table
        # supplies the expected ones.  The first horizon itself is left out:
        # its last cubic reproduces the node value there only to rounding.
        shared = correlator_cache(fig_bath)
        cache = CorrelatorCache(fig_bath, t_max=2.0)
        near = np.logspace(-12, -4, 5)
        times = np.concatenate((np.linspace(0.0, 2.6, 99), 2.0 - near, 2.0 + near))
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
        assert 20.0 < cache.t_max <= 20.0 + 2 * _TABLE_STEP


def quadpack_kernels(params, times) -> np.ndarray:
    """f and f_beta, shape (2, len(times)), at the increasing ``times`` by
    QUADPACK (scipy's ``quad_vec``, rel 1e-13) on the closed-form
    derivatives, integrated gap by gap from t = 0."""

    def derivatives(s):
        d_f, d_f_beta = corr_f_integrand(s, params), corr_f_beta_integrand(s, params)
        return np.array([d_f.real, d_f.imag, d_f_beta.real, d_f_beta.imag])

    out, total, previous = [], np.zeros(4), 0.0
    for t in times:
        total = total + quad_vec(derivatives, previous, t, epsabs=1e-15, epsrel=1e-13, norm="max", limit=400)[0]
        out.append(total[0::2] + 1j * total[1::2])
        previous = t
    return np.array(out).T


def run_kernels(params, times):
    """``step_kernels`` of every step of a run on ``times``, carried from
    chunk to chunk as the runs carry them: (starts, widths, f, f_beta)."""
    parts, carry = [], (0j, 0j)
    for _, _, starts, widths in step_chunks(times, params.W):
        f, f_beta = step_kernels(params, starts, widths, *carry)
        carry = (f[-1, 3], f_beta[-1, 3])
        parts.append((starts, widths, f, f_beta))
    return [np.concatenate(column) for column in zip(*parts)]


class TestStepKernels:
    @pytest.mark.parametrize("W", [5.0, 10.0, 20.0, 50.0, 100.0])
    def test_against_quadpack(self, W):
        # The first 40 steps, where the kernels rise on the scale 1/W, and
        # three late ones, of a README run (t_max 20, dt_out 0.01).  The
        # values are off by 3.6e-14 at W = 10 and 3.6e-13 at W = 100; the
        # kernel table is off by 5.8e-9 and 6.0e-4 at the same times.
        params = BathParams(W=W, beta=3.0, omega0=1.0)
        starts, widths, f, f_beta = run_kernels(params, np.arange(2001) * 0.01)
        steps = np.r_[0:40, len(starts) // 4, len(starts) // 2, len(starts) - 1]
        times = (starts[steps, None] + widths[steps, None] * bath._STEP_NODES).reshape(-1)
        reference = quadpack_kernels(params, times)
        error = max(np.max(np.abs(values[steps].reshape(-1) - expected)) for values, expected in zip((f, f_beta), reference))
        assert error <= 1e-11, error

    def test_chunks_give_the_bits_of_one_long_call(self, fig_bath, monkeypatch):
        # A README run's kernels at every step, and a corr grid's samples, do
        # not depend on how the steps are cut into chunks.
        times = np.arange(2001) * 0.01
        run, samples = run_kernels(fig_bath, times), correlator_samples(fig_bath, times)
        assert len(run[0]) == 2150 > bath._STEP_CHUNK
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(bath, "_STEP_CHUNK", chunk)
            for expected, values in zip(run + list(samples), run_kernels(fig_bath, times) + list(correlator_samples(fig_bath, times))):
                assert expected.tobytes() == values.tobytes(), chunk

    def test_corr_samples_against_quadpack_out_to_1000(self, fig_bath):
        # 100,090 steps, all but 240 of them 0.01 wide; the values are off
        # by at most 1.2e-13.
        times = np.array([0.0, 0.5, 1.5, 10.0, 100.0, 250.0, 500.0, 750.0, 1000.0])
        grid = np.linspace(0.0, 1000.0, 10001)
        f, f_beta = correlator_samples(fig_bath, grid)
        pick = np.searchsorted(grid, times)
        assert np.array_equal(grid[pick], times)
        reference = quadpack_kernels(fig_bath, times)
        assert np.max(np.abs(f[pick] - reference[0])) <= 1e-11
        assert np.max(np.abs(f_beta[pick] - reference[1])) <= 1e-11


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

    @pytest.mark.parametrize("params", SHIFT_BATHS, ids=SHIFT_IDS)
    def test_shifts_match_the_principal_value_oracle(self, params):
        limits = markovian_limits(params)
        for shift, error, finite_beta in (
            (limits.f_inf.imag, limits.f_inf_error, False),
            (limits.f_beta_inf.imag, limits.f_beta_inf_error, True),
        ):
            actual = abs(shift - pv_frequency_shift(params, finite_beta))
            assert actual <= 1e-9
            assert actual <= error

    @pytest.mark.parametrize("params", SHIFT_BATHS, ids=SHIFT_IDS)
    def test_zero_temperature_shift_closed_form(self, params):
        # Independent closed form W - w0 exp(-w0/W) Ei(w0/W) for the
        # zero-temperature frequency shift.
        from scipy.special import expi

        W, w0 = params.W, params.omega0
        closed = W - w0 * math.exp(-w0 / W) * expi(w0 / W)
        assert markovian_limits(params).f_inf.imag == pytest.approx(closed, rel=1e-12, abs=0.0)


class TestSamplesAndCsv:
    def test_samples_and_dump(self, fig_bath):
        f, f_beta = correlator_samples(fig_bath, [0.0, 0.5, 1.0])
        assert f.dtype == f_beta.dtype == complex and f.shape == f_beta.shape == (3,)
        assert f[0] == 0j and f_beta[0] == 0j
        assert np.max(np.abs(np.array([f[1], f_beta[1]]) - quadpack_kernels(fig_bath, [0.5])[:, 0])) <= 1e-11
        assert f[2] == pytest.approx(F_AT_1, rel=1e-7)
        assert f_beta[2] == pytest.approx(F_BETA_AT_1, rel=1e-7)
        # An empty grid gives two empty arrays; the corr CLI then writes
        # only the header (TestOtherModels.test_corr_degenerate_horizon).
        for values in correlator_samples(fig_bath, []):
            assert values.dtype == complex and values.shape == (0,)
