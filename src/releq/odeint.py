"""Adaptive Runge-Kutta integration for small complex-valued ODE systems.

A Dormand-Prince 5(4) embedded pair drives the step-size control; requested
output times are filled in with the standard quartic interpolant, so the
integrator never has to land on them.  States are complex vectors
throughout, which keeps the transport equations in their natural variables
instead of splitting real and imaginary parts.

The systems are a few components long, where a numpy call costs more than
its arithmetic.  So a step of a 2- or 3-component system combines its
stages in Python: each component is a left-to-right sum of ``complex``
products that starts from ``0j``, which equals numpy's matrix-vector
product (``K[:s].T @ _A[s, :s]``) bit for bit.  The numbers are those of
the earlier all-numpy step, and the CSV output with them.  Three kinds of
operation stay in numpy, because Python 3.11 has no fused multiply-add and
plain Python would change the last bits:

* complex ``abs`` (the error norm and the step's scale): numpy computes the
  modulus as ``hi * sqrt(fma(q, q, 1))``, unlike Python's ``abs``;
* the stage sums of systems with 1 or more than 3 components, which BLAS
  computes with fused multiply-adds (``zdotu``, ``zgemv``);
* the dense output, ``K.T @ _P`` and its product with the powers of theta,
  which numpy hands to BLAS (``zgemm``, ``zgemv``).  It is deferred and
  evaluated for many samples at once, in stacked products that give the
  same bits as one product per sample.

``tests/test_odeint_reference.py`` holds the all-numpy step as the
reference and checks these equalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Sequence

import numpy as np

__all__ = ["OdeError", "OdeProblem", "OdeStats", "Trajectory", "check_tolerances", "integrate"]

# Dormand-Prince 5(4) tableau, row s of _A holding the s weights of stage s.
# The last row doubles as the 5th-order propagation weights (FSAL: the 7th
# stage is the derivative at the accepted point and seeds the next step).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = _A[6]

# Difference between the 5th- and 4th-order weights; contracting the stages
# with it gives the local error estimate.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

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

    The step size is chosen by the error control alone unless ``max_step``
    caps it.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple[float, float]
    y0: np.ndarray = field(repr=False)
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf

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
class OdeStats:
    """Work of one ``integrate`` call.

    Each attempted step evaluates the right-hand side 6 times, and the
    start of a run twice more (the derivative at t0 and the initial-step
    probe), so ``rhs_evals == 6 * (accepted + rejected) + 2``.  ``h_min``
    and ``h_max`` are the extremes of the accepted steps, NaN if there was
    none.
    """

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float
    h_max: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[k]`` is the state at ``sample_times[k]``."""

    sample_times: np.ndarray
    states: np.ndarray
    stats: OdeStats | None = None

    def __post_init__(self):
        times = np.asarray(self.sample_times, dtype=float)
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("sample_times must be strictly increasing")
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))


def _error_norm(err: np.ndarray, scale: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _rms(moduli: list) -> float:
    """Root mean square of ``moduli``, summed in the order of numpy's ``mean``.

    numpy sums fewer than 8 values left to right and more of them pairwise.
    """
    if len(moduli) < 8:
        return math.sqrt(sum([m * m for m in moduli]) / len(moduli))
    return float(np.sqrt(np.mean(np.square(moduli))))


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


# Samples whose dense output waits for one batched evaluation.  The wait
# holds each covering step's state and stages as Python objects, about 1 kB
# a step, so a small chunk keeps a run's memory flat.
_DENSE_CHUNK = 256


def _dense_output(out: np.ndarray, stop: int, steps: list, owners: list, thetas: list) -> None:
    """Fill ``out[stop - len(thetas):stop]`` from the quartic interpolants.

    ``steps`` holds ``(h, y, stages)`` of accepted steps, ``owners[k]`` the
    step of sample k and ``thetas[k]`` its position in that step as a
    fraction of h.  The stacked products give the bits of the per-sample
    ``y + h * ((K.T @ _P) @ powers)``; ``np.einsum`` would not.
    """
    h, y, stages = (np.array(column) for column in zip(*steps))
    # K.T of a stage-major K, the operand layout of the per-sample product.
    interpolant = stages.swapaxes(1, 2).copy().swapaxes(1, 2) @ _P
    powers = np.cumprod(np.repeat(np.array(thetas)[:, None], 4, axis=1), axis=1)
    rows = np.array(owners)
    values = (interpolant[rows] @ powers[:, :, None])[:, :, 0]
    out[stop - len(thetas) : stop] = y[rows] + h[rows, None] * values


def _combine(stages: list, weights: tuple) -> list:
    """``K[:s].T @ weights`` from the stages by component (``stages[d][s]``):
    per component a left-to-right sum from 0j, as numpy gives it for 2 or 3
    components."""
    return [sum(map(mul, k_d, weights), 0j) for k_d in stages]


def _numpy_combine(stages: list, weights: tuple) -> list:
    """``_combine`` by numpy, with ``K`` laid out stage-major as BLAS saw it
    in the all-numpy step."""
    return (np.array(stages).T.copy().T @ np.array(weights)).tolist()


def integrate(problem: OdeProblem, sample_times: Sequence[float]) -> Trajectory:
    """Integrate ``problem`` and return the solution at ``sample_times``.

    The requested times must be ascending and lie inside the problem's time
    span.  Local error per step is kept below
    ``rel_tol * |y| + abs_tol`` componentwise (in the RMS sense); output
    values between accepted steps come from the quartic interpolant of the
    accepted stages.  ``rhs(t, y)`` receives ``y`` as a 1-D complex array.

    Raises
    ------
    OdeError
        If the step size underflows (stiffness or blow-up); the exception
        carries the last successfully reached time.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        return Trajectory(
            times,
            np.empty((0, problem.dimension), dtype=complex),
            OdeStats(0, 0, 0, math.nan, math.nan),
        )
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("sample_times must be strictly increasing")
    t0, t1 = problem.t_span
    if times[0] < t0 - 1e-12 or times[-1] > t1 + 1e-12:
        raise ValueError(f"sample_times must lie within t_span {problem.t_span}")

    rhs = problem.rhs
    combine = _combine if problem.dimension in (2, 3) else _numpy_combine
    rel_tol, abs_tol, max_step = problem.rel_tol, problem.abs_tol, problem.max_step
    out = np.empty((times.size, problem.dimension), dtype=complex)
    grid = times.tolist()
    next_out = 0

    t = t0
    f0 = np.asarray(rhs(t, problem.y0.copy()), dtype=complex)
    if f0.shape != problem.y0.shape:
        raise ValueError(f"rhs returned shape {f0.shape}, expected {problem.y0.shape}")
    while next_out < len(grid) and grid[next_out] <= t:
        out[next_out] = problem.y0
        next_out += 1

    h = _initial_step(problem, f0)
    y, f, abs_y = problem.y0.tolist(), f0.tolist(), np.abs(problem.y0).tolist()
    accepted = rejected = 0
    rhs_evals = 2  # f0 and the probe of _initial_step
    h_min, h_max = math.inf, 0.0
    # Dense output waiting for _dense_output: the steps that cover samples,
    # and per sample its step and theta.
    steps, owners, thetas = [], [], []

    for _ in range(_MAX_STEPS):
        if next_out >= len(grid) or t >= t1:
            break
        h = min(h, max_step, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise OdeError(f"step size underflow at t = {t:.6g}", t)

        # The stages by component: stages[d][s] is component d of stage s.
        stages = [[f_d] for f_d in f]
        for s in range(1, 6):
            weights = _A[s]
            stage_y = [y_d + h * c for y_d, c in zip(y, combine(stages, weights))]
            for k_d, value in zip(stages, rhs(t + _C[s] * h, np.array(stage_y))):
                k_d.append(complex(value))
        y_new = [y_d + h * c for y_d, c in zip(y, combine(stages, _B))]
        y_new_array = np.array(y_new)
        f_new = list(map(complex, rhs(t + h, y_new_array)))
        rhs_evals += 6
        for k_d, value in zip(stages, f_new):
            k_d.append(value)

        # Dividing a complex array by a real one, numpy multiplies by the
        # reciprocal; so does this.  Python's max drops a NaN modulus that
        # np.maximum would keep, but a NaN in y_new comes with a NaN or
        # infinite error, and the step is rejected by 0.2 either way.
        abs_new = np.abs(y_new_array).tolist()
        scaled = [
            h * c * (1.0 / (abs_tol + rel_tol * max(a, b)))
            for c, a, b in zip(combine(stages, _E), abs_y, abs_new)
        ]
        norm = _rms(np.abs(np.array(scaled)).tolist())

        if norm <= 1.0:
            accepted += 1
            h_min, h_max = min(h_min, h), max(h_max, h)
            t_new = t + h
            owner = None
            while next_out < len(grid) and grid[next_out] <= t_new + 1e-14:
                if owner is None:
                    owner = len(steps)
                    steps.append((h, y, stages))
                owners.append(owner)
                thetas.append((grid[next_out] - t) / h)
                next_out += 1
                if len(thetas) == _DENSE_CHUNK:
                    _dense_output(out, next_out, steps, owners, thetas)
                    steps, owners, thetas, owner = [], [], [], None
            t, y, f, abs_y = t_new, y_new, f_new, abs_new
            factor = _MAX_FACTOR if norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * norm ** -0.2
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
    else:
        raise OdeError(f"step budget exhausted at t = {t:.6g}", t)

    if thetas:
        _dense_output(out, next_out, steps, owners, thetas)
    if not accepted:
        h_min = h_max = math.nan
    return Trajectory(times, out, OdeStats(accepted, rejected, rhs_evals, h_min, h_max))
