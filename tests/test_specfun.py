import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import masked_trigamma, trigamma_series
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

    @pytest.mark.parametrize("x", [-1e-9, 0.5, 0.7])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            arctanh_ratio(x)

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
