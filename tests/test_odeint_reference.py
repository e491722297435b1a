"""What ``integrate`` hands the right-hand side."""

import dataclasses
import math

import numpy as np
import pytest

from releq.odeint import OdeProblem, integrate

# A damped linear system with complex coefficients, driven by a cosine and a
# short pulse at t = 1.5 that uncapped steps first overrun.
_COUPLING = np.array([[-0.3 + 1.1j, 0.2], [-0.1j, -0.5 + 0.3j]])
_DRIVE = np.array([0.1, 0.02j])


def linear_problem(rel_tol=1e-9, t_span=(0.0, 3.0)):
    def rhs(t, y):
        return _COUPLING @ y + (np.cos(2.0 * t) + 5.0 * np.exp(-(((t - 1.5) / 0.02) ** 2))) * _DRIVE

    return OdeProblem(
        rhs=rhs,
        t_span=t_span,
        y0=np.array([1.0 + 0.5j, -0.3 + 0j]),
        rel_tol=rel_tol,
        abs_tol=rel_tol * 1e-3,
    )


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


def recording(problem, arguments):
    """``problem`` with an RHS that appends each ``(t, y)`` it receives."""
    rhs = problem.rhs

    def recorded(t, y):
        arguments.append((t, y))
        return rhs(t, y)

    return dataclasses.replace(problem, rhs=recorded)


@pytest.mark.parametrize(
    "problem",
    [linear_problem(rel_tol=1e-6), oscillator_like_problem()],
    ids=["linear", "complex and float"],
)
def test_rhs_receives_a_tuple_of_complex(problem):
    # linear_problem's RHS returns a numpy array, so the stages come back as
    # numpy scalars and must still reach the RHS as Python complex.
    arguments = []
    integrate(recording(problem, arguments), np.linspace(*problem.t_span, 31))
    # Past the derivative at t0 and the initial-step probe, the stages are
    # called at non-decreasing times, except where a rejected step is tried
    # again from its start: some steps were rejected.
    times = [t for t, _ in arguments[2:]]
    assert np.any(np.diff(times) < 0)
    for _, y in arguments:
        assert type(y) is tuple and len(y) == 2
        assert all(type(y_d) is complex for y_d in y)


def test_rhs_of_the_wrong_length_rejected():
    problem = OdeProblem(rhs=lambda t, y: y[:1], t_span=(0.0, 1.0), y0=np.ones(2))
    with pytest.raises(ValueError, match="shape"):
        integrate(problem, [1.0])
