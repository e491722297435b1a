"""Adaptive Runge-Kutta integration for two-component complex ODE systems.

A Dormand-Prince 5(4) embedded pair drives the step-size control; requested
output times are filled in with the standard quartic interpolant, so the
integrator never has to land on them.  States are complex vectors
throughout, which keeps the transport equations in their natural variables
instead of splitting real and imaginary parts.

No transport run calls it: both models propagate their linear systems in
``releq.transport``.  Every problem has two components, the shape the
transport equations had as two complex averages.  The right-hand side is
called as ``rhs(t, y)`` with ``y`` a tuple of two Python ``complex`` and
returns a sequence of two real or complex numbers.

At two components a numpy call costs more than its arithmetic.  So the
step is written out on Python scalars and builds nothing per stage: each
component's stage sum is ``0j + k0 * a0 + k1 * a1 + ...``, zero weights of
the last row of ``_A`` and ``_E`` included, which is how numpy's
matrix-vector product (``K[:s].T @ _A[s, :s]``) sums 2 components.  Two
kinds of operation stay in numpy, because Python 3.11 has no fused
multiply-add and plain Python would round differently:

* complex ``abs`` (the error norm and the step's scale): numpy computes the
  modulus as ``hi * sqrt(fma(q, q, 1))``, unlike Python's ``abs``;
* the dense output, ``K.T @ _P`` and its product with the powers of theta,
  which numpy hands to BLAS (``zgemm``, ``zgemv``).  It is deferred and
  evaluated for many samples at once, in stacked products that give the
  same bits as one product per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .transport import check_tolerances

__all__ = ["OdeError", "OdeProblem", "Trajectory", "integrate"]

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


@dataclass(frozen=True)
class OdeProblem:
    """An initial-value problem dy/dt = rhs(t, y) on a finite interval.

    ``y0`` has two components.  ``rhs(t, y)`` receives ``y`` as a tuple of
    two Python ``complex`` and returns a sequence of two real or complex
    numbers.  The step size is chosen by the error control alone.
    """

    rhs: Callable[[float, tuple[complex, complex]], Sequence[complex]]
    t_span: tuple[float, float]
    y0: np.ndarray = field(repr=False)
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        t0, t1 = self.t_span
        if not t1 > t0:
            raise ValueError(f"t_span must satisfy t1 > t0, got {self.t_span}")
        check_tolerances(self.rel_tol, self.abs_tol)
        y0 = np.asarray(self.y0, dtype=complex).reshape(-1)
        if y0.size != 2:
            raise ValueError(f"y0 must have 2 components, got {y0.size}")
        if not np.all(np.isfinite(y0)):
            raise ValueError(f"y0 must be finite, got {y0}")
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[k]`` is the state at ``sample_times[k]``."""

    sample_times: np.ndarray
    states: np.ndarray


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
    if h0 == 0.0:
        return h0  # d1 overflowed: integrate reports the step at once

    y1 = y0 + h0 * f0
    f1 = np.asarray(problem.rhs(t0 + h0, tuple(y1.tolist())), dtype=complex)
    d2 = _error_norm(f1 - f0, scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t1 - t0)


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


def _step(rhs, t: float, h: float, y: tuple, f: tuple):
    """One Dormand-Prince step from ``(t, y)`` with derivative ``f``.

    Returns ``(y_new, f_new, error, stages)``: the 5th-order state and its
    derivative as tuples of ``complex``, the stages contracted with ``_E``,
    and the 7 stages by component.  The components are ``u`` and ``v``,
    and ``p<s>``, ``q<s>`` their derivatives at stage s.  Each stage sum is
    ``0j + p0 * a0 + ...``, zero weights included, the order in which
    numpy's matrix-vector product sums 2 components, so the bits are its
    bits.
    """
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _A[1:5]
    (a50, a51, a52, a53, a54), (b0, b1, b2, b3, b4, b5) = _A[5:]
    e0, e1, e2, e3, e4, e5, e6 = _E
    _, c1, c2, c3, c4, _, _ = _C  # _C[5] == _C[6] == 1.0
    u, v = y
    p0, q0 = f
    stage = (u + h * (0j + p0 * a10), v + h * (0j + q0 * a10))
    p1, q1 = map(complex, rhs(t + c1 * h, stage))
    stage = (
        u + h * (0j + p0 * a20 + p1 * a21),
        v + h * (0j + q0 * a20 + q1 * a21),
    )
    p2, q2 = map(complex, rhs(t + c2 * h, stage))
    stage = (
        u + h * (0j + p0 * a30 + p1 * a31 + p2 * a32),
        v + h * (0j + q0 * a30 + q1 * a31 + q2 * a32),
    )
    p3, q3 = map(complex, rhs(t + c3 * h, stage))
    stage = (
        u + h * (0j + p0 * a40 + p1 * a41 + p2 * a42 + p3 * a43),
        v + h * (0j + q0 * a40 + q1 * a41 + q2 * a42 + q3 * a43),
    )
    p4, q4 = map(complex, rhs(t + c4 * h, stage))
    stage = (
        u + h * (0j + p0 * a50 + p1 * a51 + p2 * a52 + p3 * a53 + p4 * a54),
        v + h * (0j + q0 * a50 + q1 * a51 + q2 * a52 + q3 * a53 + q4 * a54),
    )
    p5, q5 = map(complex, rhs(t + h, stage))
    y_new = (
        u + h * (0j + p0 * b0 + p1 * b1 + p2 * b2 + p3 * b3 + p4 * b4 + p5 * b5),
        v + h * (0j + q0 * b0 + q1 * b1 + q2 * b2 + q3 * b3 + q4 * b4 + q5 * b5),
    )
    p6, q6 = f_new = tuple(map(complex, rhs(t + h, y_new)))
    error = (
        0j + p0 * e0 + p1 * e1 + p2 * e2 + p3 * e3 + p4 * e4 + p5 * e5 + p6 * e6,
        0j + q0 * e0 + q1 * e1 + q2 * e2 + q3 * e3 + q4 * e4 + q5 * e5 + q6 * e6,
    )
    return y_new, f_new, error, ((p0, p1, p2, p3, p4, p5, p6), (q0, q1, q2, q3, q4, q5, q6))


def integrate(problem: OdeProblem, sample_times: Sequence[float]) -> Trajectory:
    """Integrate ``problem`` and return the solution at ``sample_times``.

    The requested times must be ascending and lie inside the problem's time
    span, within 1e-12.  Local error per step is kept below
    ``rel_tol * |y| + abs_tol`` componentwise (in the RMS sense); output
    values between accepted steps come from the quartic interpolant of the
    accepted stages.  ``rhs(t, y)`` receives ``y`` as a tuple of Python
    ``complex``.

    Raises
    ------
    OdeError
        If the derivative at the start is not finite, or the step size
        underflows (stiffness or blow-up) or is not finite; the exception
        carries the last successfully reached time.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        return Trajectory(times, np.empty((0, 2), dtype=complex))
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("sample_times must be strictly increasing")
    t0, t1 = problem.t_span
    if times[0] < t0 - 1e-12 or times[-1] > t1 + 1e-12:
        raise ValueError(f"sample_times must lie within t_span {problem.t_span}")

    rhs = problem.rhs
    rel_tol, abs_tol = problem.rel_tol, problem.abs_tol
    out = np.empty((times.size, 2), dtype=complex)
    grid = times.tolist()
    next_out = 0

    t = t0
    y = tuple(problem.y0.tolist())
    f0 = np.asarray(rhs(t, y), dtype=complex)
    if f0.shape != problem.y0.shape:
        raise ValueError(f"rhs returned shape {f0.shape}, expected {problem.y0.shape}")
    if not np.all(np.isfinite(f0)):
        raise OdeError(f"rhs is not finite at t = {t:.6g}", t)
    while next_out < len(grid) and grid[next_out] <= t:
        out[next_out] = problem.y0
        next_out += 1

    h = _initial_step(problem, f0)
    f, abs_y = tuple(f0.tolist()), np.abs(problem.y0).tolist()
    # Dense output waiting for _dense_output: the steps that cover samples,
    # and per sample its step and theta.
    steps, owners, thetas = [], [], []

    for _ in range(_MAX_STEPS):
        if next_out >= len(grid) or t >= t1:
            break
        h = min(h, t1 - t)
        if not h >= 1e-14 * max(1.0, abs(t)):
            raise OdeError(f"step size {h:.3g} underflowed or is not finite at t = {t:.6g}", t)

        y_new, f_new, error, stages = _step(rhs, t, h, y, f)

        # Dividing a complex array by a real one, numpy multiplies by the
        # reciprocal; so does this.  Python's max drops a NaN modulus that
        # np.maximum would keep, but a NaN in y_new comes with a NaN or
        # infinite error, and the step is rejected by 0.2 either way.  numpy's
        # mean sums two values left to right.
        abs_new = np.abs(np.array(y_new)).tolist()
        scaled = [
            h * c * (1.0 / (abs_tol + rel_tol * max(a, b)))
            for c, a, b in zip(error, abs_y, abs_new)
        ]
        m0, m1 = np.abs(np.array(scaled)).tolist()
        norm = math.sqrt((m0 * m0 + m1 * m1) / 2)

        if norm <= 1.0:
            t_new = t + h
            # The last step also fills the samples that lie past t1 by no
            # more than the 1e-12 the check above lets through.  A step
            # clipped to t1 is the last even where t + h rounds below t1.
            reach = math.inf if t_new >= t1 or h == t1 - t else t_new + 1e-14
            owner = None
            while next_out < len(grid) and grid[next_out] <= reach:
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
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
    else:
        raise OdeError(f"step budget exhausted at t = {t:.6g}", t)

    if thetas:
        _dense_output(out, next_out, steps, owners, thetas)
    return Trajectory(times, out)
