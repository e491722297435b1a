"""Resonantly driven, damped two-level system: transport and thermodynamics.

The state is the pair (<s_z>, <s_+>), with <s_-> the conjugate of <s_+> and
s_z carrying levels +-1/2.  On resonance (drive frequency equal to the
level splitting) the second-order transport equations read

    d<s_z>/dt = 2 Omega Im<s_+> - 2 Re f(t, beta) <s_z> - Re f(t)
    d<s_+>/dt = -2i Omega <s_z> - f(t, beta) <s_+>

with the bath kernels of :mod:`releq.bath`.  They are linear equations on
(<s_z>, Re<s_+>, Im<s_+>), which ``simulate`` solves by the propagators of
:mod:`releq.transport`: a Magnus propagation in the non-Markovian regime,
and in the Markovian one, where the kernels are frozen at their long-time
values, the exact exponential.
The maximum-entropy state for
a Bloch vector of half-length X = sqrt(|<s_+>|**2 + <s_z>**2) < 1/2 gives
multipliers through R(X) = arctanh(2X)/X and the entropy in closed form;
X = 1/2 marks pure states where the multipliers diverge.

The free-evolution operator coefficients for a general detuned drive are
also provided for propagator checks.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import transport
from .bath import REGIMES, BathParams
from .specfun import arctanh_ratio
from .transport import InvariantViolationError

__all__ = [
    "REGIMES",
    "BoundaryStateError",
    "BoundaryStateWarning",
    "ResonanceError",
    "ValidityWarning",
    "TlsState",
    "TlsParams",
    "TlsMultipliers",
    "TlsRun",
    "multipliers",
    "entropy",
    "inverse_temperature",
    "evolution_coeffs",
    "check_domain",
    "thermodynamic_series",
    "simulate",
]

_BOUNDARY_TOL = 1e-12


class BoundaryStateError(ValueError):
    """Pure state: the Bloch vector sits on the boundary, multipliers diverge."""


class BoundaryStateWarning(UserWarning):
    """Limit value returned for a state at the Bloch-ball boundary."""


class ResonanceError(ValueError):
    """The transport equations hold only for a resonant drive."""


class ValidityWarning(UserWarning):
    """Parameters outside the weak-drive window the equations assume."""


@dataclass(frozen=True)
class TlsState:
    """Population imbalance <s_z> and coherence <s_+>."""

    mean_sz: float
    mean_sp: complex

    def __post_init__(self):
        if not math.isfinite(self.mean_sz):
            raise ValueError(f"mean_sz must be finite, got {self.mean_sz}")

    @property
    def bloch_radius(self) -> float:
        """Half-length X of the Bloch vector; X <= 1/2, pure states at 1/2."""
        return float(_bloch_radii(self.mean_sz, self.mean_sp))


@dataclass(frozen=True)
class TlsParams:
    """Level splitting, drive frequency, drive amplitude, and bath."""

    omega0: float
    omegaL: float
    Omega: float
    bath: BathParams

    def __post_init__(self):
        for name in ("omega0", "omegaL", "Omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if abs(self.Omega) > 0.5 * self.omega0:
            warnings.warn(
                f"drive amplitude {self.Omega} exceeds half the level splitting "
                f"{self.omega0}; the transport equations assume a weak drive",
                ValidityWarning,
                stacklevel=3,
            )

    @property
    def detuning(self) -> float:
        return self.omegaL - self.omega0

    def require_resonance(self):
        if abs(self.detuning) > 1e-12 * self.omega0:
            raise ResonanceError(
                f"transport equations require omegaL == omega0, got detuning "
                f"{self.detuning:.3e}"
            )


@dataclass(frozen=True)
class TlsMultipliers:
    """Multipliers conjugate to (s_+, s_z, s_-) plus the ratio R used."""

    F1: complex
    F2: float
    F3: complex
    R: float


def _linear_system(Omega: float, f, f_beta):
    """Top rows ``[A | b]`` of the generator of the resonant transport
    equations ``y' = A y + b`` on (<s_z>, Re <s_+>, Im <s_+>).

    ``f`` and ``f_beta`` are kernel values, scalars or arrays of one shape;
    the result has that shape plus (3, 4).
    """
    f, f_beta = np.asarray(f), np.asarray(f_beta)
    decay, shift = f_beta.real, f_beta.imag
    G = np.zeros(decay.shape + (3, 4))
    G[..., 0, 0] = -2.0 * decay
    G[..., 0, 2] = 2.0 * Omega
    G[..., 1, 1] = G[..., 2, 2] = -decay
    G[..., 1, 2] = shift
    G[..., 2, 0] = -2.0 * Omega
    G[..., 2, 1] = -shift
    G[..., 0, 3] = -f.real
    return G


def multipliers(state: TlsState) -> TlsMultipliers:
    """Multipliers of the maximum-entropy state matching ``state``."""
    x = state.bloch_radius
    if x >= 0.5 - _BOUNDARY_TOL:
        raise BoundaryStateError(
            f"Bloch radius X = {x!r} at the pure-state boundary; multipliers diverge"
        )
    ratio = arctanh_ratio(x)
    f1 = -state.mean_sp.conjugate() * ratio
    return TlsMultipliers(
        F1=f1,
        F2=-2.0 * state.mean_sz * ratio,
        F3=f1.conjugate(),
        R=ratio,
    )


def entropy(state: TlsState) -> float:
    """Entropy -2 X**2 R + ln 2 - ln(1 - 4 X**2) / 2 of the state.

    Identical to the binary entropy of the level populations 1/2 +- X.
    States at the boundary return the pure-state limit 0 with a warning.
    """
    value, _, pure = thermodynamic_series(state.mean_sz, state.mean_sp, 1.0)
    if pure:
        warnings.warn(
            f"Bloch radius X = {state.bloch_radius!r}; returning the pure-state entropy 0",
            BoundaryStateWarning,
            stacklevel=2,
        )
    return float(value)


def inverse_temperature(state: TlsState, omega0: float) -> float:
    """Effective inverse temperature F2 / omega0 of the state."""
    return multipliers(state).F2 / omega0


def evolution_coeffs(t: float, t_prime: float, params: TlsParams):
    """Coefficients (c, d, k) of the free evolution operator.

    k = sqrt(Omega**2 + detuning**2) is the generalized drive frequency; c
    and d are the diagonal and off-diagonal amplitudes over [t_prime, t].
    At k = 0 the rotation degenerates to the bare phase, handled in closed
    form.  Unitarity fixes |c|**2 + |d|**2 = 1.
    """
    tau = t - t_prime
    k = math.hypot(params.Omega, params.detuning)
    if k == 0.0:
        return cmath.exp(-0.5j * tau * params.omegaL), 0j, k
    c = cmath.exp(-0.5j * tau * params.omegaL) * (
        math.cos(0.5 * k * tau) + 1j * params.detuning / k * math.sin(0.5 * k * tau)
    )
    d = (
        params.Omega
        / (1j * k)
        * cmath.exp(0.5j * (t + t_prime) * params.omegaL)
        * math.sin(0.5 * k * tau)
    )
    return c, d, k


def _bloch_radii(mean_sz, mean_sp) -> np.ndarray:
    """``TlsState.bloch_radius`` of each sample."""
    mean_sz = np.asarray(mean_sz, dtype=float)
    mean_sp = np.asarray(mean_sp, dtype=complex)
    return np.sqrt(mean_sz * mean_sz + mean_sp.real * mean_sp.real + mean_sp.imag * mean_sp.imag)


def thermodynamic_series(mean_sz, mean_sp, omega0: float):
    """``entropy`` and ``inverse_temperature`` of sampled states, as array formulas.

    Returns ``(entropy, beta, pure)``; ``pure`` marks the samples on the
    boundary (X = 1/2), which get the limits of both formulas without a
    warning: S = 0 and beta = -sign(<s_z>) inf, or 0 where <s_z> = 0.
    """
    mean_sz = np.asarray(mean_sz, dtype=float)
    radius = _bloch_radii(mean_sz, mean_sp)
    pure = radius >= 0.5 - _BOUNDARY_TOL
    x = np.where(pure, 0.0, radius)
    ratio = arctanh_ratio(x)
    entropy_series = np.where(pure, 0.0, -2.0 * x * x * ratio + math.log(2.0) - 0.5 * np.log1p(-4.0 * x * x))
    pure_beta = np.where(mean_sz == 0.0, 0.0, -np.copysign(np.inf, mean_sz))
    beta_series = np.where(pure, pure_beta, -2.0 * mean_sz * ratio) / omega0
    return entropy_series, beta_series, pure


@dataclass(frozen=True)
class TlsRun:
    """Sampled trajectory with the derived thermodynamic series."""

    times: np.ndarray
    mean_sz: np.ndarray
    mean_sp: np.ndarray
    entropy: np.ndarray
    beta: np.ndarray

    csv_header = "t,sz,re_sp,im_sp,S,beta"

    def csv_columns(self) -> tuple:
        """Columns in ``csv_header`` order."""
        return (self.times, self.mean_sz, self.mean_sp.real, self.mean_sp.imag, self.entropy, self.beta)


def check_domain(times, mean_sz, mean_sp) -> None:
    """Raise where a sampled state lies outside the Bloch ball (X > 1/2 + 1e-9)."""
    radius = _bloch_radii(mean_sz, mean_sp)
    if np.any(radius > 0.5 + 1e-9):
        bad = int(np.argmax(radius > 0.5 + 1e-9))
        raise InvariantViolationError(
            f"Bloch radius X = {float(radius[bad])!r} > 1/2 at t = {times[bad]:.6g}; "
            "the trajectory left the Bloch ball"
        )


def simulate(
    initial: TlsState,
    params: TlsParams,
    regime: str,
    t_max: float,
    dt_out: float = 0.01,
) -> TlsRun:
    """Solve the transport equations and derive entropy and temperature.

    The drive must be resonant.  ``transport.simulate`` checks the other
    arguments and propagates the linear equations on
    (<s_z>, Re <s_+>, Im <s_+>): in Magnus steps in the non-Markovian
    regime, exactly in the Markovian one.  Trajectories must stay inside the
    Bloch ball (X <= 1/2 within 1e-9); leaving it aborts with the time and
    radius at fault.  Samples on its boundary get the pure-state limits,
    with one ``BoundaryStateWarning``.
    """
    params.require_resonance()
    sp0 = complex(initial.mean_sp)
    y0 = (float(initial.mean_sz), sp0.real, sp0.imag)
    times, states = transport.simulate(_linear_system, params.bath, regime, y0, t_max, dt_out, (params.Omega,))
    mean_sz = states[:, 0]
    mean_sp = states[:, 1] + 1j * states[:, 2]
    check_domain(times, mean_sz, mean_sp)

    entropy_series, beta_series, pure = thermodynamic_series(mean_sz, mean_sp, params.omega0)
    if pure.any():
        warnings.warn(
            f"pure state (Bloch radius X = 1/2) at {np.count_nonzero(pure)} of {times.size} samples, "
            f"first at t = {times[np.argmax(pure)]:.6g}; entropy 0 and infinite beta there",
            BoundaryStateWarning,
            stacklevel=2,
        )
    return TlsRun(
        times=times,
        mean_sz=mean_sz,
        mean_sp=mean_sp,
        entropy=entropy_series,
        beta=beta_series,
    )
