"""Run set-up shared by the oscillator and two-level transport models: the
output grid, the argument checks, the kernel-table horizon, and the exact
propagator of the Markovian regime.

Both models are linear equations on three real components.  In the
non-Markovian regime their coefficients follow the kernels in time, and
``setup`` hands the model's right-hand side to the integrator.  In the
Markovian regime the kernels are frozen at their long-time values, so the
equations read ``y' = A y + b`` with constant A and b, and
``propagate_linear`` returns their solution ``y* + exp(A t)(y0 - y*)``
without an integrator.  A positive golden-rule rate ``Re f_inf`` makes both
models' A invertible; every bath has one unless ``J(omega0)`` underflows
(``omega0 / W`` above about 745), and there ``propagate_linear`` raises
``PropagationError``.  The pump ``Re(f_beta_inf - f_inf)`` is positive as
well, so the oscillator's occupation relaxes to a positive fixed point and
never goes negative for ``n0 >= 0``: the ``max(n, 0)`` clamp of its
right-hand side belongs to the integrated path alone.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .bath import REGIMES, BathParams, correlator_cache, markovian_limits
from .odeint import OdeProblem, check_tolerances


class InvariantViolationError(RuntimeError):
    """A trajectory left the domain of the thermodynamic formulas."""


class PropagationError(RuntimeError):
    """The exact propagator cannot take the run: A is singular, or A dt overflows."""


def sample_times(t_max: float, dt_out: float) -> np.ndarray:
    """Output grid 0, dt_out, 2 dt_out, ... up to t_max (within 1e-9 of a step)."""
    return np.arange(int(math.floor(t_max / dt_out + 1e-9)) + 1) * dt_out


def bind(bath: BathParams, regime: str, t_max, dt_out, rel_tol, abs_tol):
    """``(kernels, sample times)`` of one transport run, after the argument checks.

    The run's kernels are bound once: the shared table of ``bath``, extended
    here past ``t_max``, or the long-time values.  The tolerances are
    checked in both regimes, although only the integrated path uses them.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if not 0 < dt_out <= t_max:
        raise ValueError(f"need 0 < dt_out <= t_max, got dt_out = {dt_out}, t_max = {t_max}")
    check_tolerances(rel_tol, abs_tol)
    if regime == "non_markovian":
        kernels = correlator_cache(bath)
        kernels.ensure_horizon(t_max)
    else:
        kernels = markovian_limits(bath)
    return kernels, sample_times(t_max, dt_out)


def setup(rhs, y0, bath: BathParams, regime: str, t_max, dt_out, rel_tol, abs_tol):
    """``(OdeProblem, sample times)`` of one integrated transport run.

    The kernels of ``bind`` are the first argument of the model's
    ``rhs(kernels, t, y)``, which the problem calls as ``rhs(t, y)``: ``y``
    is the tuple of the two components as Python ``complex``, and the model
    returns their two derivatives, real or complex.

    The step size is left to the integrator's error control alone: the
    kernels are smooth in t, and the local error estimate already resolves
    their oscillation at the system frequency.
    """
    kernels, times = bind(bath, regime, t_max, dt_out, rel_tol, abs_tol)
    problem = OdeProblem(
        rhs=partial(rhs, kernels),
        t_span=(0.0, float(times[-1])),
        y0=np.array(y0, dtype=complex),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )
    return problem, times


# Degree-13 Pade coefficients and the largest 1-norm for which the
# approximant alone meets double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26 (2005) 1179, table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(matrix) -> np.ndarray:
    """Exponential of a small real square matrix by Pade scaling and squaring.

    The matrix is halved until its 1-norm is at most theta_13, the [13/13]
    Pade approximant is taken, and the result squared back.
    """
    a = np.asarray(matrix, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("expm needs a finite matrix")
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a * 0.5**squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


# Powers of the one-step propagator formed directly; the rest of the grid
# is reached in blocks of this many samples.
_BLOCK = 64


def propagate_linear(A, b, y0, times) -> np.ndarray:
    """Samples of ``y' = A y + b``, ``y(0) = y0``, on ``times[k] = k * dt``.

    Returns an array of shape ``(len(times), len(y0))``.  With the fixed
    point ``y* = -A^-1 b`` and the one-step propagator
    ``Phi = expm(A dt)``, sample k is ``y* + Phi^k (y0 - y*)``: Phi^0 ...
    Phi^63 are stacked once, and sample ``64 j + i`` is Phi^i applied to
    ``(Phi^64)^j (y0 - y*)``.  The first sample is ``y0`` itself.

    Raises ``PropagationError`` where A is singular, so that there is no
    fixed point, or where ``A dt`` is not finite.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    times = np.asarray(times, dtype=float)
    dt = float(times[1]) if times.size > 1 else 0.0
    if times.size == 0 or not np.array_equal(times, np.arange(times.size) * dt):
        raise ValueError("propagate_linear needs the grid times[k] = k * times[1], k = 0, 1, ...")
    try:
        fixed = -np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        fixed = None
    if fixed is None or not np.all(np.isfinite(fixed)):
        raise PropagationError("A is singular: the linear equations have no fixed point")
    with np.errstate(over="ignore"):
        scaled = A * dt
    if not np.all(np.isfinite(scaled)):
        raise PropagationError(f"A dt overflows at dt = {dt:.3g}")

    step = expm(scaled)
    powers = np.empty((_BLOCK, y0.size, y0.size))
    powers[0] = np.eye(y0.size)
    for i in range(1, _BLOCK):
        powers[i] = powers[i - 1] @ step
    block_step = powers[-1] @ step
    blocks = -(-times.size // _BLOCK)
    starts = np.empty((blocks, y0.size))
    starts[0] = y0 - fixed
    for j in range(1, blocks):
        starts[j] = block_step @ starts[j - 1]
    # (starts @ powers[i].T)[j] = powers[i] @ starts[j], sample 64 j + i.
    samples = (starts @ powers.transpose(0, 2, 1)).transpose(1, 0, 2)
    out = samples.reshape(-1, y0.size)[: times.size] + fixed
    out[0] = y0
    return out
