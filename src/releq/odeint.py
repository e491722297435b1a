"""Adaptive Runge-Kutta integration for small complex-valued ODE systems.

A Dormand-Prince 5(4) embedded pair drives the step-size control; requested
output times are filled in with the standard quartic interpolant, so the
integrator never has to land on them.  States are complex vectors
throughout, which keeps the transport equations in their natural variables
instead of splitting real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["OdeError", "OdeProblem", "Trajectory", "check_tolerances", "integrate"]

# Dormand-Prince 5(4) tableau.  The last row of _A doubles as the 5th-order
# propagation weights (FSAL: the 7th stage is the derivative at the accepted
# point and seeds the next step).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_B = _A[6]

# Difference between the 5th- and 4th-order weights; contracting the stages
# with it gives the local error estimate.
_E = np.array(
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

# Quartic interpolant coefficients for dense output inside an accepted step.
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 10_000_000


class OdeError(RuntimeError):
    """Integration failure; ``last_time`` is the last successfully reached t."""

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


def check_tolerances(rel_tol: float, abs_tol: float) -> None:
    """Raise ValueError unless both tolerances lie in (0, 1e-2]."""
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < tol <= 1e-2:
            raise ValueError(f"{name} must lie in (0, 1e-2], got {tol}")


@dataclass(frozen=True)
class OdeProblem:
    """An initial-value problem dy/dt = rhs(t, y) on a finite interval.

    ``max_step`` defaults to 0.01; widen it where pure error control is
    preferable.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple[float, float]
    y0: np.ndarray = field(repr=False)
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.01

    def __post_init__(self):
        t0, t1 = self.t_span
        if not t1 > t0:
            raise ValueError(f"t_span must satisfy t1 > t0, got {self.t_span}")
        check_tolerances(self.rel_tol, self.abs_tol)
        if self.max_step <= 0.0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        y0 = np.asarray(self.y0, dtype=complex).reshape(-1)
        if y0.size != self.dimension:
            raise ValueError(
                f"y0 has {y0.size} components, expected dimension {self.dimension}"
            )
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[k]`` is the state at ``sample_times[k]``."""

    sample_times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.sample_times, dtype=float)
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("sample_times must be strictly increasing")
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))


def _error_norm(err: np.ndarray, scale: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _initial_step(problem: OdeProblem, f0: np.ndarray) -> float:
    """Step-size guess from the local derivative magnitudes."""
    t0, t1 = problem.t_span
    y0 = problem.y0
    scale = problem.abs_tol + problem.rel_tol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1

    y1 = y0 + h0 * f0
    f1 = np.asarray(problem.rhs(t0 + h0, y1), dtype=complex)
    d2 = _error_norm(f1 - f0, scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, problem.max_step, t1 - t0)


def integrate(problem: OdeProblem, sample_times: Sequence[float]) -> Trajectory:
    """Integrate ``problem`` and return the solution at ``sample_times``.

    The requested times must be ascending and lie inside the problem's time
    span.  Local error per step is kept below
    ``rel_tol * |y| + abs_tol`` componentwise (in the RMS sense); output
    values between accepted steps come from the quartic interpolant of the
    accepted stages.

    Raises
    ------
    OdeError
        If the step size underflows (stiffness or blow-up); the exception
        carries the last successfully reached time.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        return Trajectory(times, np.empty((0, problem.dimension), dtype=complex))
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("sample_times must be strictly increasing")
    t0, t1 = problem.t_span
    if times[0] < t0 - 1e-12 or times[-1] > t1 + 1e-12:
        raise ValueError(f"sample_times must lie within t_span {problem.t_span}")

    out = np.empty((times.size, problem.dimension), dtype=complex)
    next_out = 0

    t = t0
    y = problem.y0.copy()
    f = np.asarray(problem.rhs(t, y), dtype=complex)
    while next_out < times.size and times[next_out] <= t:
        out[next_out] = y
        next_out += 1

    h = _initial_step(problem, f)
    K = np.empty((7, problem.dimension), dtype=complex)

    for _ in range(_MAX_STEPS):
        if next_out >= times.size or t >= t1:
            break
        h = min(h, problem.max_step, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise OdeError(f"step size underflow at t = {t:.6g}", t)

        K[0] = f
        for s in range(1, 6):
            K[s] = problem.rhs(t + _C[s] * h, y + h * (K[:s].T @ _A[s, :s]))
        y_new = y + h * (K[:6].T @ _B[:6])
        f_new = np.asarray(problem.rhs(t + h, y_new), dtype=complex)
        K[6] = f_new

        scale = problem.abs_tol + problem.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        norm = _error_norm(h * (K.T @ _E), scale)

        if norm <= 1.0:
            t_new = t + h
            while next_out < times.size and times[next_out] <= t_new + 1e-14:
                theta = (times[next_out] - t) / h
                powers = np.cumprod(np.full(4, theta))
                out[next_out] = y + h * ((K.T @ _P) @ powers)
                next_out += 1
            t, y, f = t_new, y_new, f_new
            factor = _MAX_FACTOR if norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * norm ** -0.2
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
    else:
        raise OdeError(f"step budget exhausted at t = {t:.6g}", t)

    return Trajectory(times, out)
