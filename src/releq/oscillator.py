"""Damped harmonic oscillator: transport equations and thermodynamics.

The reduced description keeps the amplitude <a> and the occupation <a'a>.
To second order in the system-bath coupling they obey

    d<a>/dt  = -<a> * conj(f(t))
    d<n>/dt  = -2 Re f(t) * <n> + Re[f(t, beta) - f(t)]

with the bath kernels of :mod:`releq.bath`; the Markovian variant freezes
the kernels at their long-time values.  Both are linear equations on
(Re <a>, Im <a>, <n>), which ``simulate`` solves by the propagators of
:mod:`releq.transport`: a Magnus propagation in the non-Markovian regime,
the exact exponential in the Markovian one.  Neither clamps the occupation:
a negative n makes n_eff negative, and ``check_domain`` stops the run
there.  The maximum-entropy state matching
(<a>, <n>) is a displaced thermal state, so multipliers, entropy, and the
effective inverse temperature have closed forms in terms of the incoherent
occupation n_eff = <n> - |<a>|**2.  ``thermodynamic_series`` evaluates S
and beta along a whole run; ``entropy`` and ``inverse_temperature`` are
its one-sample case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import bath, transport
from .bath import REGIMES, BathParams, markovian_limits
from .transport import InvariantViolationError

__all__ = [
    "REGIMES",
    "DegenerateStateError",
    "DegenerateStateWarning",
    "InvariantViolationError",
    "OscillatorState",
    "OscillatorMultipliers",
    "OscillatorRun",
    "closed_form_trajectory",
    "multipliers",
    "entropy",
    "inverse_temperature",
    "check_domain",
    "thermodynamic_series",
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


def _linear_system(f, f_beta):
    """Top rows ``[A | b]`` of the generator of the transport equations
    ``y' = A y + b`` on (Re <a>, Im <a>, <n>).

    ``f`` and ``f_beta`` are kernel values, scalars or arrays of one shape;
    the result has that shape plus (3, 4).
    """
    f, f_beta = np.asarray(f), np.asarray(f_beta)
    decay, shift = f.real, f.imag
    G = np.zeros(decay.shape + (3, 4))
    G[..., 0, 0] = G[..., 1, 1] = -decay
    G[..., 0, 1] = -shift
    G[..., 1, 0] = shift
    G[..., 2, 2] = -2.0 * decay
    G[..., 2, 3] = (f_beta - f).real
    return G


def _thermal_occupation(state: OscillatorState) -> float:
    """n_eff of ``state``; raises ``DegenerateStateError`` at the coherent boundary."""
    n_eff = state.n_eff
    if n_eff <= _DEGENERATE_TOL:
        raise DegenerateStateError(
            f"n_eff = {n_eff:.3e} <= {_DEGENERATE_TOL}; multipliers diverge at the "
            "coherent boundary"
        )
    return n_eff


def multipliers(state: OscillatorState) -> OscillatorMultipliers:
    """Multipliers of the displaced thermal state matching ``state``."""
    f2 = math.log1p(1.0 / _thermal_occupation(state))
    f1 = -f2 * state.mean_a
    return OscillatorMultipliers(F1=f1, F2=f2, F3=f1.conjugate())


def entropy(state: OscillatorState) -> float:
    """Entropy (1 + n_eff) ln(1 + n_eff) - n_eff ln n_eff of the state, the
    one-sample case of ``thermodynamic_series``.

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
    return float(thermodynamic_series(state.mean_a, state.mean_n, 1.0)[0])


def inverse_temperature(state: OscillatorState, omega0: float) -> float:
    """Effective inverse temperature F2 / omega0 of the state, the one-sample
    case of ``thermodynamic_series``; raises ``DegenerateStateError`` where
    ``multipliers`` does."""
    _thermal_occupation(state)
    return float(thermodynamic_series(state.mean_a, state.mean_n, omega0)[1])


def thermodynamic_series(mean_a, mean_n, omega0: float):
    """``entropy`` and ``inverse_temperature`` of sampled states with
    n_eff > 0, as array formulas; returns ``(entropy, beta)``.

    The entropy is evaluated as ln(1 + n_eff) + n_eff ln(1 + 1/n_eff), a sum
    of two positive terms: (1 + n_eff) ln(1 + n_eff) - n_eff ln n_eff
    cancels at large n_eff, where it loses about log10(n_eff) digits (all of
    them at n_eff = 1e16).  beta is ln(1 + 1/n_eff) / omega0.
    """
    # x * x: on a numpy scalar, x ** 2 can round differently than on an array.
    modulus = np.abs(mean_a)
    n_eff = np.asarray(mean_n) - modulus * modulus
    with np.errstate(over="ignore"):
        log_ratio = np.log1p(1.0 / n_eff)
    # ln(1 + 1/n) = -ln n to rounding where 1/n overflows (n below 2**-1024).
    log_ratio = np.where(np.isinf(log_ratio), -np.log(n_eff), log_ratio)
    return np.log1p(n_eff) + n_eff * log_ratio, log_ratio / omega0


# ---------------------------------------------------------------------------
# Solutions of the transport equations.

def closed_form_trajectory(
    sample_times,
    initial: OscillatorState,
    params: BathParams,
    regime: str = "non_markovian",
):
    """Quadrature evaluation of the integrating-factor solution.

    Returns ``(mean_a, mean_n)`` arrays over ``sample_times``.  With
    I(t) = integral_0^t f and D = 2 Re I, the amplitude is
    ``a0 * exp(-conj(I(t)))`` and the occupation

        n(t) = n0 exp(-D(t)) + integral_0^t exp(D(s) - D(t)) Re[f(s, beta) - f(s)] ds,

    marched step by step with the exponent taken from each step's end, so it
    stays non-positive and long horizons stay well conditioned.  The steps
    are those a run on the sample times takes, with the kernels and I at
    each step's nodes and end, read off ``bath.step_kernels`` with the
    integral; each step's integral is the 3-point Gauss-Legendre rule at
    its nodes.  The propagator is never called, so the solution checks a
    run independently of it.  At t_max 20 and beta 3 it is off ``simulate``
    by at most 7.5e-11 for W = 5 to 100.  Raises ``QuadratureError`` at the
    first sample time where the kernels are not finite.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        return np.empty(0, dtype=complex), np.empty(0, dtype=float)
    if not np.all(times >= 0) or not np.all(np.diff(times) > 0):
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

    mean_a, mean_n = np.full(times.size, a0), np.full(times.size, n0)
    if times[-1] == 0.0:
        return mean_a, mean_n
    # Every step of the run: the sample gap it lies in, whether it ends it,
    # its width, and f, f_beta and I at its three nodes and end.
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        gap, last, _, widths, f, f_beta, integral = (
            np.concatenate(column) for column in zip(*bath.step_kernels(params, np.concatenate(([0.0], times)), integral=True))
        )
    finite = np.isfinite(np.concatenate((f, f_beta, integral), axis=1)).all(axis=1)
    if not finite.all():
        raise bath.QuadratureError(f"the kernels are not finite at t = {times[gap[np.argmin(finite)]]:.6g}", math.inf)
    exponent = 2.0 * integral.real  # D at each step's three nodes and end
    at_start = np.concatenate(([0.0], exponent[:-1, 3]))
    local = np.exp(exponent[:, :3] - exponent[:, 3:]) * (f_beta - f).real[:, :3]
    gain = widths * (local * bath._STEP_WEIGHTS).sum(axis=1)
    steps = zip(np.exp(at_start - exponent[:, 3]).tolist(), gain.tolist())
    at_ends = np.fromiter(accumulate(steps, lambda n, step: n * step[0] + step[1], initial=n0), float)[1:]
    mean_a[gap[last]] = a0 * np.exp(-np.conj(integral[last, 3]))
    mean_n[gap[last]] = at_ends[last]
    return mean_a, mean_n


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


def check_domain(times, mean_a, mean_n) -> None:
    """Raise where the incoherent occupation n_eff of a sampled state is not positive."""
    n_eff = np.asarray(mean_n) - np.abs(mean_a) ** 2
    if np.any(n_eff <= 0.0):
        bad = int(np.argmax(n_eff <= 0.0))
        raise InvariantViolationError(
            f"incoherent occupation n_eff = {n_eff[bad]:.3e} <= 0 at "
            f"t = {times[bad]:.6g}; the thermodynamic description broke down"
        )


def simulate(
    initial: OscillatorState,
    params: BathParams,
    regime: str,
    t_max: float,
    dt_out: float = 0.01,
) -> OscillatorRun:
    """Solve the transport equations and derive entropy and temperature.

    ``transport.simulate`` checks the arguments and propagates the linear
    equations on (Re <a>, Im <a>, <n>): in Magnus steps in the non-Markovian
    regime, exactly in the Markovian one.  The incoherent occupation must
    stay positive along the trajectory for the thermodynamic formulas to
    apply; a violation aborts with the time and value at fault rather than
    clamping.
    """
    a0 = complex(initial.mean_a)
    y0 = (a0.real, a0.imag, float(initial.mean_n))
    times, states = transport.simulate(_linear_system, params, regime, y0, t_max, dt_out)
    mean_a = states[:, 0] + 1j * states[:, 1]
    mean_n = states[:, 2]
    check_domain(times, mean_a, mean_n)
    entropy_series, beta_series = thermodynamic_series(mean_a, mean_n, params.omega0)
    return OscillatorRun(
        times=times,
        mean_a=mean_a,
        mean_n=mean_n,
        entropy=entropy_series,
        beta=beta_series,
    )
