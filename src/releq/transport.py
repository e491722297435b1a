"""Run set-up shared by the oscillator and two-level transport models: the
output grid, the argument checks and the kernel-table horizon.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .bath import REGIMES, BathParams, correlator_cache, markovian_limits
from .odeint import OdeProblem


class InvariantViolationError(RuntimeError):
    """A trajectory left the domain of the thermodynamic formulas."""


def sample_times(t_max: float, dt_out: float) -> np.ndarray:
    """Output grid 0, dt_out, 2 dt_out, ... up to t_max (within 1e-9 of a step)."""
    return np.arange(int(math.floor(t_max / dt_out + 1e-9)) + 1) * dt_out


def setup(rhs, y0, bath: BathParams, regime: str, t_max, dt_out, rel_tol, abs_tol):
    """``(OdeProblem, sample times)`` of one transport run.

    The run's kernels are bound once: the shared table of ``bath``, extended
    here past ``t_max``, or the long-time values.  They are the first
    argument of the model's ``rhs(kernels, t, y)``, which the problem calls
    as ``rhs(t, y)``.

    The step size is left to the integrator's error control alone: the
    kernels are smooth in t, and the local error estimate already resolves
    their oscillation at the system frequency.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if not 0 < dt_out <= t_max:
        raise ValueError(f"need 0 < dt_out <= t_max, got dt_out = {dt_out}, t_max = {t_max}")
    if regime == "non_markovian":
        kernels = correlator_cache(bath)
        kernels.ensure_horizon(t_max)
    else:
        kernels = markovian_limits(bath)
    times = sample_times(t_max, dt_out)
    problem = OdeProblem(
        dimension=2,
        rhs=partial(rhs, kernels),
        t_span=(0.0, float(times[-1])),
        y0=np.array(y0, dtype=complex),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )
    return problem, times
