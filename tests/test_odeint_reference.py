"""``integrate`` against ``oracles.reference_integrate``, the same method run
step by step on numpy arrays: the states must agree bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from releq import odeint
from releq.odeint import OdeError, OdeProblem, integrate

from oracles import reference_integrate

# A damped linear system with complex coefficients, driven by a cosine and a
# short pulse at t = 1.5 that uncapped steps first overrun.
_COUPLING = np.array([[-0.3 + 1.1j, 0.2], [-0.1j, -0.5 + 0.3j]])
_DRIVE = np.array([0.1, 0.02j])


def linear_problem(max_step=0.01, rel_tol=1e-9, t_span=(0.0, 3.0), rhs_calls=None):
    def rhs(t, y):
        if rhs_calls is not None:
            rhs_calls.append(t)
        return _COUPLING @ y + (np.cos(2.0 * t) + 5.0 * np.exp(-(((t - 1.5) / 0.02) ** 2))) * _DRIVE

    return OdeProblem(
        rhs=rhs,
        t_span=t_span,
        y0=np.array([1.0 + 0.5j, -0.3 + 0j]),
        rel_tol=rel_tol,
        abs_tol=rel_tol * 1e-3,
        max_step=max_step,
    )


def assert_matches_reference(problem, times):
    trajectory = integrate(problem, times)
    assert np.array_equal(trajectory.states, reference_integrate(problem, times))
    return trajectory


def test_linear_problem():
    assert_matches_reference(linear_problem(), np.arange(301) * 0.01)


def test_uncapped_steps_with_rejections_and_many_samples_per_step():
    problem = linear_problem(max_step=np.inf, rel_tol=1e-6)
    trajectory = assert_matches_reference(problem, np.linspace(0.0, 3.0, 997))
    stats = trajectory.stats
    assert stats.rejected > 0
    assert stats.accepted < 997 / 4  # several samples inside one step


def test_samples_at_both_ends_and_on_a_step_end():
    calls = []
    problem = linear_problem(max_step=0.05, t_span=(0.0, 1.0), rhs_calls=calls)
    trajectory = integrate(problem, [0.0, 1.0])
    assert trajectory.stats.rejected == 0
    # Calls 0 and 1 start the run; the last of each step's 6 is at its end.
    step_end = calls[7::6][10]
    times = [0.0, 0.5 * step_end, step_end, 0.5 * (step_end + 1.0), 1.0]
    assert_matches_reference(problem, times)


def exponential_problem(span, max_step, rel_tol):
    return OdeProblem(
        rhs=lambda t, y: (-y[0], -0.5 * y[1]),
        t_span=span,
        y0=np.array([1.0 + 0j, 1.0 + 0j]),
        rel_tol=rel_tol,
        abs_tol=rel_tol * 1e-3,
        max_step=max_step,
    )


def assert_filled_and_matching(problem, times):
    """Both integrators fill every sample with the same bits.

    Each runs right after a freed buffer of its output's size was filled
    with 7+7j, which numpy's small-allocation cache hands to the output's
    ``np.empty``: a sample left unfilled reads 7+7j.
    """
    shape = (len(times), 2)
    np.full(shape, 7 + 7j)
    expected = reference_integrate(problem, times)
    np.full(shape, 7 + 7j)
    states = integrate(problem, times).states
    assert not np.any(expected == 7 + 7j)
    assert np.array_equal(states, expected)


@pytest.mark.parametrize(
    "span, max_step, rel_tol",
    [((0.0, 1.0), np.inf, 1e-9), ((0.0, 1.0), np.inf, 1e-6), ((-1.96, 0.05), 0.25, 1e-6)],
    ids=["reaches t1", "reaches t1 loosely", "clipped one ulp below t1"],
)
def test_samples_just_past_the_end(span, max_step, rel_tol):
    # The check lets samples through up to 1e-12 past t1; the last step
    # fills them from its interpolant.  On the third span the step clipped
    # to t1 ends at t + h, one ulp below t1.
    times = np.array([0.5 * (span[0] + span[1]), span[1] + 5e-13])
    assert_filled_and_matching(exponential_problem(span, max_step, rel_tol), times)


def test_last_step_that_rounds_up_to_the_end(monkeypatch):
    # A step that is not clipped, h < t1 - t, but whose end t + h rounds up
    # to t1 is the last one too.
    steps = []
    step = odeint._step

    def recording_step(rhs, t, h, y, f):
        steps.append((t, h))
        return step(rhs, t, h, y, f)

    monkeypatch.setattr(odeint, "_step", recording_step)
    cap = 0.01
    integrate(linear_problem(max_step=cap, t_span=(0.0, 1.0)), [1.0])
    # An accepted step of the cap whose end rounded up: t1 = t + cap then
    # lies more than the cap past t, and the step to it is not clipped.
    t = next(
        t for (t, h), (t_next, _) in zip(steps, steps[1:]) if h == cap and t_next == t + cap and t_next - t > cap
    )
    t1 = t + cap
    steps.clear()
    problem = linear_problem(max_step=cap, t_span=(0.0, t1))
    assert_filled_and_matching(problem, np.array([0.5 * t1, t + 0.5 * cap, t1, t1 + 5e-13]))
    last_t, last_h = steps[-1]
    assert last_t == t and last_h == cap < t1 - last_t and last_t + last_h >= t1


def test_dense_output_chunk_boundaries(monkeypatch):
    problem = linear_problem(max_step=np.inf, rel_tol=1e-7)
    many = np.linspace(0.0, 3.0, odeint._DENSE_CHUNK + 1000)
    assert_matches_reference(problem, many)
    # A small chunk: boundaries fall inside steps and between them.
    monkeypatch.setattr(odeint, "_DENSE_CHUNK", 7)
    assert_matches_reference(problem, np.linspace(0.0, 3.0, 101))
    assert_matches_reference(linear_problem(), np.arange(301) * 0.01)


def test_blowup_stops_at_the_same_time():
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
    with pytest.raises(OdeError) as ours:
        integrate(problem, [2.0])
    with pytest.raises(OdeError) as reference:
        reference_integrate(problem, [2.0])
    assert ours.value.last_time == reference.value.last_time


def test_stats_count_the_work():
    calls = []
    problem = linear_problem(max_step=np.inf, rel_tol=1e-6, rhs_calls=calls)
    stats = integrate(problem, np.linspace(0.0, 3.0, 31)).stats
    assert stats.rejected > 0
    assert stats.rhs_evals == len(calls) == 6 * (stats.accepted + stats.rejected) + 2
    assert 0.0 < stats.h_min < stats.h_max


def oscillator_like_problem():
    """Two components whose RHS returns ``(complex, float)``, as the
    oscillator's does: an amplitude and a real occupation."""

    def rhs(t, y):
        mean_a, mean_n = y
        drive = 0.3 * math.cos(2.0 * t)
        return (-0.2 + 1.0j) * mean_a + drive, -0.4 * mean_n.real + 0.5 * abs(mean_a) ** 2 + 0.1

    return OdeProblem(
        rhs=rhs,
        t_span=(0.0, 6.0),
        y0=np.array([0.8 - 0.4j, 1.5]),
        rel_tol=1e-7,
        abs_tol=1e-10,
    )


def test_rhs_returning_complex_and_float():
    trajectory = assert_matches_reference(oscillator_like_problem(), np.linspace(0.0, 6.0, 601))
    assert trajectory.stats.rejected > 0


def recording(problem, arguments):
    """``problem`` with an RHS that appends each ``y`` it receives."""
    rhs = problem.rhs

    def recorded(t, y):
        arguments.append(y)
        return rhs(t, y)

    return dataclasses.replace(problem, rhs=recorded)


@pytest.mark.parametrize(
    "problem",
    [linear_problem(max_step=np.inf, rel_tol=1e-6), oscillator_like_problem()],
    ids=["linear", "complex and float"],
)
def test_rhs_receives_a_tuple_of_complex(problem):
    # linear_problem's RHS returns a numpy array, so the stages come back as
    # numpy scalars and must still reach the RHS as Python complex.
    arguments = []
    stats = integrate(recording(problem, arguments), np.linspace(*problem.t_span, 31)).stats
    assert stats.rejected > 0
    assert len(arguments) == stats.rhs_evals
    for y in arguments:
        assert type(y) is tuple and len(y) == 2
        assert all(type(y_d) is complex for y_d in y)


def test_rhs_of_the_wrong_length_rejected():
    problem = OdeProblem(rhs=lambda t, y: y[:1], t_span=(0.0, 1.0), y0=np.ones(2))
    with pytest.raises(ValueError, match="shape"):
        integrate(problem, [1.0])
