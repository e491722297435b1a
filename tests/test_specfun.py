import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_derivatives, masked_trigamma, scalar_trigamma, trigamma_series
from releq.bath import BathParams
from releq.specfun import PoleError, arctanh_ratio, trigamma

# Oracle values frozen from a 50-digit mpmath computation, cross-checked by
# the direct-series oracle below.  The argument is (1 - i t W)/(W beta) at
# t = 1, W = 10, beta = 3.
Z_BATH = (1.0 - 10.0j) / 30.0
TRIGAMMA_Z_BATH = -7.43926852647015 + 2.3847071239633624j
ARCTANH_RATIO_049 = 4.688897806259786


class TestTrigamma:
    def test_at_one_is_zeta_two(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_half_integer_identity(self):
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2, rel=1e-12)

    def test_at_two_via_recurrence_identity(self):
        assert trigamma(2.0) == pytest.approx(math.pi**2 / 6 - 1.0, rel=1e-12)

    def test_bath_argument_against_frozen_oracle(self):
        assert trigamma(Z_BATH) == pytest.approx(TRIGAMMA_Z_BATH, rel=1e-12)
        assert trigamma(Z_BATH.conjugate()) == pytest.approx(
            TRIGAMMA_Z_BATH.conjugate(), rel=1e-12
        )

    def test_bath_argument_against_series_oracle(self):
        series = trigamma_series(Z_BATH)
        assert series == pytest.approx(TRIGAMMA_Z_BATH, rel=1e-13)
        assert trigamma(Z_BATH) == pytest.approx(series, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        zs = np.array([1.0 + 0j, 0.2 - 5j, Z_BATH, 30.0 + 2j]).reshape(2, 2)
        values = trigamma(zs)
        assert values.shape == zs.shape
        for z, v in zip(zs.ravel(), values.ravel()):
            assert v == pytest.approx(trigamma(complex(z)), rel=1e-15)

    @pytest.mark.parametrize("kind", ["table", "mixed"])
    def test_equals_the_masked_shifts_bit_for_bit(self, rng, kind):
        if kind == "table":
            # A kernel table's arguments (1 - i t W)/(W beta): every point
            # needs the same number of shifts.
            t = np.linspace(0.0, 25.0, 5001)
            z = (1.0 - 1j * t * 10.0) / (10.0 * 3.0)
        else:
            z = rng.uniform(0.01, 30.0, 2000) + 1j * rng.uniform(-50.0, 50.0, 2000)
        assert np.array_equal(trigamma(z), masked_trigamma(z))

    @pytest.mark.parametrize("W, beta", [(10.0, 3.0), (20.0, 9.0), (5.0, 2.0), (100.0, 50.0)])
    def test_kernel_table_arguments_against_mpmath(self, W, beta):
        # The arguments (1 - i t W)/(W beta) of a kernel table for t in
        # [0, 50]: the shifts and the tail leave a few ulps of rounding.
        import mpmath

        t = np.linspace(0.0, 50.0, 201)
        z = (1.0 - 1j * t * W) / (W * beta)
        values = trigamma(z)
        with mpmath.workdps(30):
            errors = [
                abs(mpmath.mpc(v.real, v.imag) / mpmath.psi(1, mpmath.mpc(p.real, p.imag)) - 1)
                for p, v in zip(z, values)
            ]
        assert max(errors) <= 1e-15

    @pytest.mark.parametrize("W, beta", [(10.0, 3.0), (20.0, 9.0), (5.0, 2.0), (100.0, 50.0)])
    def test_scalar_oracle_against_mpmath(self, W, beta):
        # The oracles' plain-complex trigamma, which the kernels' references
        # read, at the kernel arguments (1 - i t W)/(W beta) for t in
        # [0, 50] and at a few points left of the real axis's origin.
        import mpmath

        t = np.linspace(0.0, 50.0, 201)
        points = [complex(p) for p in (1.0 - 1j * t * W) / (W * beta)] + [-3.5 + 0.25j, -0.3 - 2j, 9.99 + 1e3j]
        with mpmath.workdps(30):
            errors = [abs(mpmath.mpc(scalar_trigamma(p)) / mpmath.psi(1, mpmath.mpc(p)) - 1) for p in points]
        assert max(errors) <= 2e-15
        assert scalar_trigamma(Z_BATH) == pytest.approx(trigamma_series(Z_BATH), rel=1e-13)

    def test_scalar_kernel_derivatives_at_zero(self):
        # At t = 0 the phase is 1 and the pole 1/(1/W)**2 = W**2.
        bath = BathParams(W=10.0, beta=3.0, omega0=1.0)
        d_f, d_f_beta = kernel_derivatives(0.0, bath)
        assert d_f == pytest.approx(100.0, rel=1e-15)
        assert d_f_beta == pytest.approx(2.0 * trigamma_series(1.0 / 30.0) / 9.0 - 100.0, rel=1e-13)

    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, re, im):
        z = complex(re, im)
        lhs = trigamma(z) - trigamma(z + 1)
        assert abs(lhs - 1.0 / z**2) <= 1e-12 * abs(trigamma(z))

    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_conjugation_symmetry(self, re, im):
        z = complex(re, im)
        assert trigamma(z.conjugate()) == pytest.approx(
            trigamma(z).conjugate(), rel=1e-12
        )

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0, 1e-13, -3.0 + 1e-13j])
    def test_pole_rejection(self, z):
        with pytest.raises(PoleError):
            trigamma(z)

    def test_near_pole_but_outside_tolerance_is_fine(self):
        value = trigamma(1e-6)
        assert value == pytest.approx(1e12, rel=1e-5)


class TestArctanhRatio:
    def test_limit_at_zero(self):
        assert arctanh_ratio(0.0) == 2.0

    def test_value_at_0_3(self):
        assert arctanh_ratio(0.3) == pytest.approx(math.log(2.0) / 0.3, rel=1e-14)

    def test_value_at_0_49_against_frozen_oracle(self):
        assert arctanh_ratio(0.49) == pytest.approx(ARCTANH_RATIO_049, rel=1e-14)

    @pytest.mark.parametrize("x", [9.9999e-5, 1.0001e-4])
    def test_both_branches_exact_at_switchover(self, x):
        import mpmath

        with mpmath.workdps(50):
            reference = float(mpmath.atanh(2 * mpmath.mpf(x)) / mpmath.mpf(x))
        assert arctanh_ratio(x) == pytest.approx(reference, abs=1e-14)

    @pytest.mark.parametrize("x", [-1e-9, 0.5, 0.7, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            arctanh_ratio(x)

    def test_arrays_match_scalar_calls(self):
        # Both sides of the series switch at 1e-4, and 0.
        x = np.array([[0.0, 1e-12, 3e-5, 9.9999e-5], [1e-4, 1.0001e-4, 0.3, 0.4999]])
        ratios = arctanh_ratio(x)
        assert ratios.shape == x.shape
        for index, value in np.ndenumerate(x):
            expected = arctanh_ratio(float(value))
            assert type(expected) is float and ratios[index] == expected

    def test_array_error_names_the_first_bad_value(self):
        with pytest.raises(ValueError, match=r"got 0\.7$"):
            arctanh_ratio(np.array([0.1, 0.7, -1.0, 0.2]))

    @given(st.floats(min_value=0.0, max_value=0.499))
    @settings(max_examples=100, deadline=None)
    def test_at_least_two(self, x):
        assert arctanh_ratio(x) >= 2.0

    @given(
        st.floats(min_value=0.0, max_value=0.4989),
        st.floats(min_value=1e-4, max_value=1e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_increasing(self, x, dx):
        assert arctanh_ratio(x + dx) > arctanh_ratio(x)
