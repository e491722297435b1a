import math

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from oracles import (
    F_BETA_ORACLE_T1,
    F_ORACLE_T1,
    corr_oracle_2d,
    kernel_derivatives,
    pv_frequency_shift,
    windowed_correlator_average,
)
from releq import bath
from releq.bath import (
    BathParams,
    corr_f,
    corr_f_beta,
    correlator_samples,
    coth,
    markovian_limits,
    spectral_density,
    step_counts,
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
        for omega in (-1.0, math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError):
                spectral_density(omega, fig_bath)


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
        for kernel in (corr_f, corr_f_beta):
            with pytest.raises(ValueError, match="got nan"):
                kernel(math.nan, fig_bath)

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
        times = np.linspace(0.01, 10.0, 200)
        f, f_beta = correlator_samples(fig_bath, times)
        excess = np.real(f_beta - f)
        assert np.all(excess >= 0.0)

    def test_conjugated_fourier_kernel_gives_conjugate(self, fig_bath):
        # Flipping the sign of the Fourier kernel in the defining double
        # integral must conjugate the correlator.
        flipped = corr_oracle_2d(1.0, fig_bath, finite_beta=True, kernel_sign=-1)
        assert flipped == pytest.approx(corr_f_beta(1.0, fig_bath).conjugate(), rel=1e-6)


class TestCorrelatorCache:
    """The sampled kernels and the time integral of f.  The class keeps
    the name of the kernel table these tests read before the table went."""

    def test_matches_direct_quadrature(self, fig_bath):
        times = (0.0037, 0.41, 1.7, 6.283, 19.99)
        f, f_beta = correlator_samples(fig_bath, times)
        for t, value, value_beta in zip(times, f, f_beta):
            assert abs(value - corr_f(t, fig_bath)) < 1e-8
            assert abs(value_beta - corr_f_beta(t, fig_bath)) < 1e-8

    def test_time_integral_antiderivative(self, fig_bath):
        h = 1e-4
        t = 2.5
        f, _, integral = kernel_samples(fig_bath, [t - h, t, t + h])
        derivative = (integral[2] - integral[0]) / (2 * h)
        assert derivative == pytest.approx(f[1], rel=1e-6)
        assert kernel_samples(fig_bath, [0.0])[2] == 0j

    def test_time_integral_against_quadrature_of_the_table(self, fig_bath):
        # I(t) = integral_0^t (t - u) f'(u) du, by QUADPACK on the closed-form
        # derivative.  The values are off by at most 2e-15 relative.
        times = (0.0037, 0.41, 2.5, 6.283, 19.99)
        values = kernel_samples(fig_bath, times)[2]
        for t, value in zip(times, values):
            for part, got in (("real", value.real), ("imag", value.imag)):
                integrand = lambda u: getattr((t - u) * kernel_derivatives(u, fig_bath)[0], part)
                expected, _ = quad(integrand, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=500)
                assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "times",
        [[-0.5], [0.5, 0.5], [1.0, 0.5], [math.nan], [1.0, math.nan], [1.0, math.inf]],
        ids=["negative", "repeated", "decreasing", "nan", "nan after a time", "infinite"],
    )
    def test_negative_repeated_or_nan_times_rejected(self, fig_bath, times):
        with pytest.raises(ValueError, match="increasing"):
            correlator_samples(fig_bath, times)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_lookups_of_no_times(self, fig_bath, shape):
        for out in correlator_samples(fig_bath, np.empty(shape)):
            assert out.shape == shape and out.dtype == complex


def quadpack_kernels(params, times) -> np.ndarray:
    """f and f_beta, shape (2, len(times)), at the increasing ``times`` by
    QUADPACK (scipy's ``quad_vec``, rel 1e-13) on the closed-form
    derivatives of ``oracles.kernel_derivatives``, integrated gap by gap
    from t = 0."""

    def derivatives(s):
        d_f, d_f_beta = kernel_derivatives(s, params)
        return np.array([d_f.real, d_f.imag, d_f_beta.real, d_f_beta.imag])

    out, total, previous = [], np.zeros(4), 0.0
    for t in times:
        total = total + quad_vec(derivatives, previous, t, epsabs=1e-15, epsrel=1e-13, norm="max", limit=400)[0]
        out.append(total[0::2] + 1j * total[1::2])
        previous = t
    return np.array(out).T


def run_kernels(params, times, integral=False):
    """Every step of a run on ``times`` with its kernels, from the chunks of
    ``step_kernels``: (starts, widths, f, f_beta), and I last if ``integral``."""
    chunks = (chunk[2:] for chunk in step_kernels(params, times, integral))
    return [np.concatenate(column) for column in zip(*chunks)]


def kernel_samples(params, times):
    """f, f_beta and I, the integral of f from 0, at the increasing
    ``times``, shape (3, len(times)): the values of ``step_kernels`` with
    the integral at the ends of the gaps of 0 and ``times``."""
    grid = np.concatenate(([0.0], times))
    out = np.zeros((3, grid.size), dtype=complex)
    for gap, last, _, _, *values in step_kernels(params, grid, integral=True):
        out[:, gap[last] + 1] = [value[last, 3] for value in values]
    return out[:, 1:]


class TestStepKernels:
    @pytest.mark.parametrize("W", [5.0, 10.0, 20.0, 50.0, 100.0])
    def test_against_quadpack(self, W):
        # The first 40 steps, where the kernels rise on the scale 1/W, and
        # three late ones, of a README run (t_max 20, dt_out 0.01).  The
        # values are off by 2.0e-14 at W = 10 and 7.3e-14 at W = 100.
        params = BathParams(W=W, beta=3.0, omega0=1.0)
        starts, widths, f, f_beta = run_kernels(params, np.arange(2001) * 0.01)
        steps = np.r_[0:40, len(starts) // 4, len(starts) // 2, len(starts) - 1]
        times = (starts[steps, None] + widths[steps, None] * bath._STEP_NODES).reshape(-1)
        reference = quadpack_kernels(params, times)
        error = max(np.max(np.abs(values[steps].reshape(-1) - expected)) for values, expected in zip((f, f_beta), reference))
        assert error <= 1e-11, error

    def test_chunks_give_the_bits_of_one_long_call(self, fig_bath, monkeypatch):
        # A README run's kernels and the time integral of f at every step,
        # and a corr grid's samples, do not depend on how the steps are cut
        # into chunks.
        times = np.arange(2001) * 0.01
        run, samples = run_kernels(fig_bath, times, integral=True), correlator_samples(fig_bath, times)
        assert len(run[0]) == 2150 > bath._STEP_CHUNK
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(bath, "_STEP_CHUNK", chunk)
            again = run_kernels(fig_bath, times, integral=True) + list(correlator_samples(fig_bath, times))
            for expected, values in zip(run + list(samples), again):
                assert expected.tobytes() == values.tobytes(), chunk

    def test_panels_follow_a_fast_phase(self):
        # At omega0 = 200 a step of 0.01 turns exp(-i omega0 t) by 2, so the
        # panels hold 8 early steps and 4 late ones.  Panels of 16 steps
        # were off by 8.6e-7 here.
        params = BathParams(W=10.0, beta=3.0, omega0=200.0)
        starts, widths, f, f_beta = run_kernels(params, np.arange(201) * 0.01)
        steps = np.r_[0:20, len(starts) - 20 : len(starts)]
        times = (starts[steps, None] + widths[steps, None] * bath._STEP_NODES).reshape(-1)
        reference = quadpack_kernels(params, times)
        error = max(np.max(np.abs(values[steps].reshape(-1) - expected)) for values, expected in zip((f, f_beta), reference))
        assert error <= 1e-11, error

    @pytest.mark.parametrize("W", [5.0, 100.0])
    def test_steps_follow_a_fast_phase(self, W):
        # At omega0 = 400 a step of 0.01 turns exp(-i omega0 t) by 4; the
        # steps are capped at 2 / omega0.  Uncapped, the kernels at the
        # nodes were off by 1.8e-7 at W = 5 and 4.2e-9 at W = 100; capped,
        # by 1.8e-15 and 7.2e-14.
        params = BathParams(W=W, beta=3.0, omega0=400.0)
        starts, widths, f, f_beta = run_kernels(params, np.arange(201) * 0.01)
        assert np.max(widths) <= (1.0 + 1e-9) * 2.0 / params.omega0  # the ceiling's margin
        n = len(starts)
        steps = np.r_[0:20, n // 2 - 10 : n // 2 + 10, n - 20 : n]
        times = (starts[steps, None] + widths[steps, None] * bath._STEP_NODES).reshape(-1)
        reference = quadpack_kernels(params, times)
        error = max(np.max(np.abs(values[steps].reshape(-1) - expected)) for values, expected in zip((f, f_beta), reference))
        assert error <= 1e-11, error

    def test_geometric_samples_take_at_most_8_points_a_step(self, fig_bath, monkeypatch):
        # Each gap of a geometric grid has steps of its own width, so the
        # panels end at the gaps and many are short; a panel of k steps
        # takes min(24, 8 k) points.
        counted = [0]
        derivatives = bath._kernel_derivatives

        def counting(t, params):
            counted[0] += np.size(t)
            return derivatives(t, params)

        monkeypatch.setattr(bath, "_kernel_derivatives", counting)
        times = np.geomspace(1e-3, 20.0, 60)
        f, f_beta = correlator_samples(fig_bath, times)
        steps = step_counts(np.concatenate(([0.0], times)), fig_bath).sum()
        assert steps < counted[0] <= 8 * steps
        reference = quadpack_kernels(fig_bath, times)
        assert np.max(np.abs(f - reference[0])) <= 1e-11
        assert np.max(np.abs(f_beta - reference[1])) <= 1e-11

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


    @pytest.mark.parametrize(
        "times, message",
        [([0.0, math.nan, 1.0], "nan after 0"), ([math.nan, 1.0], "nan"), ([0.0, 1.0, 0.5], "0.5 after 1"), ([0.0, math.inf], "inf after 0")],
        ids=["nan", "nan first", "decreasing", "infinite"],
    )
    def test_step_counts_refuse_nan_infinite_or_decreasing_times(self, fig_bath, times, message):
        # A NaN or negative gap took no steps without a word, and an infinite
        # one stopped step_kernels at int(inf), an OverflowError.
        with pytest.raises(ValueError, match=f"got {message}$"):
            step_counts(times, fig_bath)


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
