"""Damped harmonic oscillator: transport equations and thermodynamics.

The reduced description keeps the amplitude <a> and the occupation <a'a>.
To second order in the system-bath coupling they obey

    d<a>/dt  = -<a> * conj(f(t))
    d<n>/dt  = -2 Re f(t) * <n> + Re[f(t, beta) - f(t)]

with the bath kernels of :mod:`releq.bath`; the Markovian variant freezes
the kernels at their long-time values.  ``simulate`` integrates the
non-Markovian equations, with the occupation clamped at max(n, 0) in the
right-hand side, and propagates the Markovian ones exactly
(``transport.propagate_linear``): with the pump Re[f(inf, beta) - f(inf)]
> 0 their occupation never goes negative for n(0) >= 0, so that path has
no clamp.  The maximum-entropy state matching
(<a>, <n>) is a displaced thermal state, so multipliers, entropy, and the
effective inverse temperature have closed forms in terms of the incoherent
occupation n_eff = <n> - |<a>|**2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import (
    REGIMES,
    BathParams,
    correlator_cache,
    kernel_pair,
    markovian_limits,
)
from .odeint import integrate
from .transport import InvariantViolationError, bind, propagate_linear, setup

__all__ = [
    "REGIMES",
    "DegenerateStateError",
    "DegenerateStateWarning",
    "InvariantViolationError",
    "OscillatorState",
    "OscillatorMultipliers",
    "OscillatorRun",
    "rhs",
    "closed_form",
    "closed_form_trajectory",
    "multipliers",
    "entropy",
    "inverse_temperature",
    "quartic_correlator",
    "check_domain",
    "simulate",
]

_DEGENERATE_TOL = 1e-14


class DegenerateStateError(ValueError):
    """The state has no thermal component, so the multipliers diverge."""


class DegenerateStateWarning(UserWarning):
    """Limit value returned for a state at the coherent boundary."""


@dataclass(frozen=True)
class OscillatorState:
    """Amplitude <a> and occupation <a'a>; <a'> is the conjugate amplitude."""

    mean_a: complex
    mean_n: float

    def __post_init__(self):
        if not (math.isfinite(self.mean_n) and self.mean_n >= 0.0):
            raise ValueError(f"mean_n must be finite and >= 0, got {self.mean_n}")

    @property
    def n_eff(self) -> float:
        """Incoherent occupation <a'a> - |<a>|**2."""
        return self.mean_n - abs(self.mean_a) ** 2


@dataclass(frozen=True)
class OscillatorMultipliers:
    """Multipliers conjugate to (a', a'a, a); F3 = conj(F1), F2 > 0."""

    F1: complex
    F2: float
    F3: complex


def rhs(t: float, state: OscillatorState, bath, regime: str = "non_markovian"):
    """Time derivatives (d<a>/dt, d<n>/dt) of the transport equations."""
    return _rates(state.mean_a, state.mean_n, *kernel_pair(t, bath, regime))


def _rates(mean_a: complex, mean_n: float, f: complex, f_beta: complex):
    """(d<a>/dt, d<n>/dt) for the kernel values (f, f_beta)."""
    return -mean_a * f.conjugate(), -2.0 * f.real * mean_n + (f_beta - f).real


def _linear_system(f: complex, f_beta: complex):
    """``(A, b)`` of ``_rates`` on (Re <a>, Im <a>, <n>) for constant kernels."""
    decay, shift = f.real, f.imag
    A = [[-decay, -shift, 0.0], [shift, -decay, 0.0], [0.0, 0.0, -2.0 * decay]]
    return A, [0.0, 0.0, (f_beta - f).real]


def multipliers(state: OscillatorState) -> OscillatorMultipliers:
    """Multipliers of the displaced thermal state matching ``state``."""
    n_eff = state.n_eff
    if n_eff <= _DEGENERATE_TOL:
        raise DegenerateStateError(
            f"n_eff = {n_eff:.3e} <= {_DEGENERATE_TOL}; multipliers diverge at the "
            "coherent boundary"
        )
    f2 = math.log1p(1.0 / n_eff)
    f1 = -f2 * state.mean_a
    return OscillatorMultipliers(F1=f1, F2=f2, F3=f1.conjugate())


def entropy(state: OscillatorState) -> float:
    """Entropy (1 + n_eff) ln(1 + n_eff) - n_eff ln n_eff of the state.

    The coherent limit n_eff -> 0 has entropy 0; states at or below the
    degeneracy tolerance return that limit with a warning.
    """
    n_eff = state.n_eff
    if n_eff <= _DEGENERATE_TOL:
        warnings.warn(
            f"n_eff = {n_eff:.3e}; returning the coherent-limit entropy 0",
            DegenerateStateWarning,
            stacklevel=2,
        )
        return 0.0
    return (1.0 + n_eff) * math.log1p(n_eff) - n_eff * math.log(n_eff)


def inverse_temperature(state: OscillatorState, omega0: float) -> float:
    """Effective inverse temperature F2 / omega0 of the state."""
    return multipliers(state).F2 / omega0


def quartic_correlator(state: OscillatorState) -> float:
    """<a'a a'a> = 2 <n>**2 + <n> - |<a>|**4, read off the reference state."""
    return 2.0 * state.mean_n**2 + state.mean_n - abs(state.mean_a) ** 4


# ---------------------------------------------------------------------------
# Solutions of the transport equations.

_GL_NODES4, _GL_WEIGHTS4 = np.polynomial.legendre.leggauss(4)

# Largest interval of the occupation march in closed_form_trajectory.
_SUBSTEP = 0.01


def closed_form_trajectory(
    sample_times,
    initial: OscillatorState,
    params: BathParams,
    regime: str = "non_markovian",
):
    """Quadrature evaluation of the integrating-factor solution.

    Returns ``(mean_a, mean_n)`` arrays over ``sample_times``.  The
    amplitude is ``a0 * exp(-conj(I(t)))`` with I the cumulative kernel
    integral; the occupation is marched interval by interval with the
    exponent kept non-positive, so long horizons stay well conditioned.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        return np.empty(0, dtype=complex), np.empty(0, dtype=float)
    if np.any(times < 0) or (times.size > 1 and np.any(np.diff(times) <= 0)):
        raise ValueError("sample times must be >= 0 and strictly increasing")

    a0 = complex(initial.mean_a)
    n0 = float(initial.mean_n)

    if regime == "markovian":
        limits = markovian_limits(params)
        decay = 2.0 * limits.f_inf.real
        pump = (limits.f_beta_inf - limits.f_inf).real
        mean_a = a0 * np.exp(-limits.f_inf.conjugate() * times)
        relax = np.exp(-decay * times)
        mean_n = n0 * relax + (pump / decay) * (1.0 - relax)
        return mean_a, mean_n

    cache = correlator_cache(params)
    t_end = float(times[-1])
    mean_a = a0 * np.exp(-np.conj(cache.f_time_integral(times)))
    if t_end == 0.0:
        return mean_a, np.full(times.size, n0)

    # March on a grid that contains every sample time, refined to _SUBSTEP.
    grid = np.union1d(times, np.arange(0.0, t_end, _SUBSTEP))
    half = 0.5 * np.diff(grid)
    nodes = (grid[:-1] + half)[:, None] + half[:, None] * _GL_NODES4[None, :]
    flat = nodes.reshape(-1)
    damping_exponent = 2.0 * np.real(cache.f_time_integral(flat)).reshape(nodes.shape)
    pump_term = 2.0 * np.real(cache.f_beta(flat) - cache.f(flat)).reshape(nodes.shape)
    damping_at_grid = 2.0 * np.real(cache.f_time_integral(grid))

    mean_n = np.empty(times.size)
    sample_index = {round(t, 12): k for k, t in enumerate(times)}
    n_current = n0
    if (k := sample_index.get(round(grid[0], 12))) is not None:
        mean_n[k] = n_current
    for i in range(grid.size - 1):
        local = np.exp(damping_exponent[i] - damping_at_grid[i + 1]) * pump_term[i]
        segment = half[i] * float(local @ _GL_WEIGHTS4)
        n_current = n_current * math.exp(damping_at_grid[i] - damping_at_grid[i + 1]) + 0.5 * segment
        if (k := sample_index.get(round(grid[i + 1], 12))) is not None:
            mean_n[k] = n_current
    return mean_a, mean_n


def closed_form(
    t: float,
    initial: OscillatorState,
    params: BathParams,
    regime: str = "non_markovian",
) -> OscillatorState:
    """State at time t from the integrating-factor solution."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    mean_a, mean_n = closed_form_trajectory([t], initial, params, regime)
    return OscillatorState(mean_a=complex(mean_a[0]), mean_n=float(mean_n[0]))


@dataclass(frozen=True)
class OscillatorRun:
    """Sampled trajectory with the derived thermodynamic series."""

    times: np.ndarray
    mean_a: np.ndarray
    mean_n: np.ndarray
    entropy: np.ndarray
    beta: np.ndarray

    csv_header = "t,re_a,im_a,n,S,beta"

    def csv_columns(self) -> tuple:
        """Columns in ``csv_header`` order."""
        return (self.times, self.mean_a.real, self.mean_a.imag, self.mean_n, self.entropy, self.beta)


def check_domain(times, mean_a, mean_n) -> np.ndarray:
    """Incoherent occupation n_eff of sampled states; raises where it is not positive."""
    n_eff = np.asarray(mean_n) - np.abs(mean_a) ** 2
    if np.any(n_eff <= 0.0):
        bad = int(np.argmax(n_eff <= 0.0))
        raise InvariantViolationError(
            f"incoherent occupation n_eff = {n_eff[bad]:.3e} <= 0 at "
            f"t = {times[bad]:.6g}; the thermodynamic description broke down"
        )
    return n_eff


def simulate(
    initial: OscillatorState,
    params: BathParams,
    regime: str,
    t_max: float,
    dt_out: float = 0.01,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> OscillatorRun:
    """Solve the transport equations and derive entropy and temperature.

    The non-Markovian equations are integrated with ``rel_tol`` and
    ``abs_tol``; the Markovian ones have constant coefficients and are
    propagated exactly, so the tolerances are checked but do not enter.
    The incoherent occupation must stay positive along the trajectory for
    the thermodynamic formulas to apply; a violation aborts with the time
    and value at fault rather than clamping.
    """
    a0, n0 = complex(initial.mean_a), float(initial.mean_n)
    if regime == "markovian":
        kernels, times = bind(params, regime, t_max, dt_out, rel_tol, abs_tol)
        A, b = _linear_system(*kernel_pair(0.0, params, regime, kernels))
        states = propagate_linear(A, b, (a0.real, a0.imag, n0), times)
        mean_a = states[:, 0] + 1j * states[:, 1]
        mean_n = states[:, 2]
    else:

        def vector_rhs(kernels, t, y):
            mean_a, mean_n = y
            return _rates(mean_a, max(mean_n.real, 0.0), *kernel_pair(t, params, regime, kernels))

        problem, times = setup(vector_rhs, (a0, n0), params, regime, t_max, dt_out, rel_tol, abs_tol)
        states = integrate(problem, times).states
        mean_a = states[:, 0]
        mean_n = states[:, 1].real
    n_eff = check_domain(times, mean_a, mean_n)
    return OscillatorRun(
        times=times,
        mean_a=mean_a,
        mean_n=mean_n,
        entropy=(1.0 + n_eff) * np.log1p(n_eff) - n_eff * np.log(n_eff),
        beta=np.log1p(1.0 / n_eff) / params.omega0,
    )
