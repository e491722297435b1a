import math

import numpy as np
import pytest

from releq import odeint
from releq.odeint import OdeError, OdeProblem, Trajectory, integrate


def exponential_problem(rel_tol, max_step=np.inf, span=(0.0, 1.0)):
    """Two decays, exp(-(t - t0)) and exp(-(t - t0) / 2)."""
    return OdeProblem(
        rhs=lambda t, y: (-y[0], -0.5 * y[1]),
        t_span=span,
        y0=np.array([1.0 + 0j, 1.0 + 0j]),
        rel_tol=rel_tol,
        abs_tol=rel_tol * 1e-3,
        max_step=max_step,
    )


def decays(times):
    """The solution of ``exponential_problem``, a row per time."""
    times = np.asarray(times, dtype=float)[..., None]
    return np.exp(-np.array([1.0, 0.5]) * times)


class TestProblemValidation:
    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError, match="t1 > t0"):
            exponential_problem(1e-9, span=(1.0, 0.0))

    def test_tolerance_range(self):
        with pytest.raises(ValueError, match="rel_tol"):
            exponential_problem(0.5)
        with pytest.raises(ValueError, match="rel_tol"):
            exponential_problem(0.0)

    def test_dimension_mismatch(self):
        # Every problem has two components; the message names the count.
        for components in (1, 3):
            with pytest.raises(ValueError, match=f"2 components, got {components}"):
                OdeProblem(
                    rhs=lambda t, y: y,
                    t_span=(0.0, 1.0),
                    y0=np.ones(components, dtype=complex),
                )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            OdeProblem(
                rhs=lambda t, y: y,
                t_span=(0.0, 1.0),
                y0=np.array([1.0, complex(0.0, bad)]),
            )

    @pytest.mark.parametrize("max_step", [math.nan, 0.0, -1.0, -math.inf])
    def test_max_step_must_be_positive(self, max_step):
        with pytest.raises(ValueError, match="max_step"):
            exponential_problem(1e-9, max_step=max_step)

    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))


class TestAccuracy:
    def test_exponential_decay(self):
        trajectory = integrate(exponential_problem(1e-9), [1.0])
        assert np.max(np.abs(trajectory.states[0] - decays(1.0))) < 1e-8

    def test_rotation_preserves_modulus(self):
        problem = OdeProblem(
            rhs=lambda t, y: (1j * y[0], -1j * y[1]),
            t_span=(0.0, math.pi),
            y0=np.array([1.0 + 0j, 1.0 + 0j]),
            rel_tol=1e-10,
            abs_tol=1e-13,
        )
        z = integrate(problem, [math.pi]).states[0]
        assert np.max(np.abs(z - (-1.0))) < 1e-8
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-8

    def test_constant_complex_damping(self):
        # Amplitude equations with the kernel frozen to a constant c and to
        # its conjugate.
        c = 0.7 + 0.4j
        problem = OdeProblem(
            rhs=lambda t, y: (-c * y[0], -c.conjugate() * y[1]),
            t_span=(0.0, 2.0),
            y0=np.array([1.0 + 0j, 0.5 + 0j]),
            rel_tol=1e-10,
            abs_tol=1e-13,
        )
        z = integrate(problem, [2.0]).states[0]
        assert z[0] == pytest.approx(np.exp(-2.0 * c), rel=1e-8)
        assert z[1] == pytest.approx(0.5 * np.exp(-2.0 * c.conjugate()), rel=1e-8)

    def test_dense_output_between_steps(self):
        problem = exponential_problem(1e-9, max_step=np.inf)
        times = np.linspace(0.05, 0.95, 19)
        trajectory = integrate(problem, times)
        assert np.max(np.abs(trajectory.states - decays(times))) < 1e-8

    def test_samples_just_past_the_end(self):
        # The check lets samples through up to 1e-12 past t1; the last step
        # fills them from its interpolant.
        times = np.array([0.5, 1.0 + 5e-13])
        for rel_tol in (1e-9, 1e-6):
            states = integrate(exponential_problem(rel_tol), times).states
            assert np.max(np.abs(states - decays(times))) < 1e3 * rel_tol
        # On this span the step clipped to t1 ends at t + h, one ulp below t1.
        times = np.array([-1.0, 0.05 + 5e-13])
        problem = exponential_problem(1e-6, max_step=0.25, span=(-1.96, 0.05))
        states = integrate(problem, times).states
        assert np.max(np.abs(states - decays(times + 1.96))) < 1e-3

    def test_sample_at_both_endpoints(self):
        trajectory = integrate(exponential_problem(1e-9), [0.0, 1.0])
        assert np.all(trajectory.states[0] == 1.0 + 0j)
        assert np.max(np.abs(trajectory.states[1] - decays(1.0))) < 1e-8


class TestProperties:
    def test_halving_tolerance_reduces_error(self):
        # Error control must be the binding constraint, so no max_step
        # caps the step.
        def error(rel_tol):
            states = integrate(exponential_problem(rel_tol, max_step=np.inf), [1.0]).states
            return np.max(np.abs(states[0] - decays(1.0)))

        assert error(1e-6) >= 2.0 * error(5e-7)

    def test_linearity_under_initial_scaling(self):
        def rhs(t, y):
            return np.array([(-0.3 + 1.1j) * y[0] + 0.2 * y[1], -0.5 * y[1]])

        y0 = np.array([1.0 + 0.5j, -0.3 + 0j])
        kwargs = dict(rhs=rhs, t_span=(0.0, 3.0), rel_tol=1e-10, abs_tol=1e-13)
        single = integrate(OdeProblem(y0=y0, **kwargs), [3.0]).states[0]
        double = integrate(OdeProblem(y0=2.0 * y0, **kwargs), [3.0]).states[0]
        assert np.max(np.abs(double - 2.0 * single)) < 1e-9

    def test_max_step_is_honored(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y[0], -0.5 * y[1]

        problem = OdeProblem(
            rhs=rhs,
            t_span=(0.0, 1.0),
            y0=np.array([1.0 + 0j, 1.0 + 0j]),
            rel_tol=1e-3,
            abs_tol=1e-6,
            max_step=0.01,
        )
        integrate(problem, [1.0])
        # 100 steps of 7 stages each, minus FSAL reuse.
        assert len(calls) >= 600


class TestFailures:
    def test_blowup_reports_last_good_time(self):
        def rhs(t, y):
            return y[0] * (abs(y[0]) ** 2) / max(1e-12, 1.0 - t), -0.5 * y[1]

        problem = OdeProblem(
            rhs=rhs,
            t_span=(0.0, 2.0),
            y0=np.array([1.0 + 0j, 1.0 + 0j]),
            rel_tol=1e-6,
            abs_tol=1e-9,
            max_step=np.inf,
        )
        with pytest.raises(OdeError) as excinfo:
            integrate(problem, [2.0])
        assert 0.0 <= excinfo.value.last_time <= 1.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("y0", [1.0, 0.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
    def test_non_finite_or_huge_derivative_at_the_start_fails_at_once(self, y0, bad):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (bad if t == 0.0 else -y[0]), -0.5 * y[1]

        problem = OdeProblem(rhs=rhs, t_span=(0.0, 1.0), y0=np.array([y0, y0]))
        with pytest.raises(OdeError) as excinfo:
            integrate(problem, [1.0])
        assert excinfo.value.last_time == 0.0
        assert len(calls) <= 2  # the derivative at t0 and the initial-step probe

    def test_step_that_is_not_finite_fails_at_once(self, monkeypatch):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y[0], -0.5 * y[1]

        monkeypatch.setattr(odeint, "_initial_step", lambda problem, f0: math.nan)
        monkeypatch.setattr(odeint, "_MAX_STEPS", 100)
        problem = OdeProblem(rhs=rhs, t_span=(0.0, 1.0), y0=np.array([1.0, 1.0]))
        with pytest.raises(OdeError, match="not finite"):
            integrate(problem, [1.0])
        assert calls == [0.0]

    def test_samples_outside_span_rejected(self):
        with pytest.raises(ValueError, match="within t_span"):
            integrate(exponential_problem(1e-9), [0.5, 1.5])

    def test_unsorted_samples_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            integrate(exponential_problem(1e-9), [0.5, 0.25])
