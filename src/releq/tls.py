"""Resonantly driven, damped two-level system: transport and thermodynamics.

The state is the pair (<s_z>, <s_+>), with <s_-> the conjugate of <s_+> and
s_z carrying levels +-1/2.  On resonance (drive frequency equal to the
level splitting) the second-order transport equations read

    d<s_z>/dt = 2 Omega Im<s_+> - 2 Re f(t, beta) <s_z> - Re f(t)
    d<s_+>/dt = -2i Omega <s_z> - f(t, beta) <s_+>

with the bath kernels of :mod:`releq.bath`.  ``simulate`` integrates them
in the non-Markovian regime; in the Markovian regime, where the kernels are
frozen at their long-time values, it propagates them exactly as a linear
system on (<s_z>, Re<s_+>, Im<s_+>) (``transport.propagate_linear``).
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

from .bath import REGIMES, BathParams, kernel_pair
from .odeint import integrate
from .specfun import arctanh_ratio, arctanh_ratio_array
from .transport import InvariantViolationError, bind, propagate_linear, setup

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
    "rhs",
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
        """Half-length X of the Bloch vector; X <= 1/2, pure states at 1/2.

        The square root of a sum of squares, as ``thermodynamic_series``
        computes it: R(X) near X = 1/2 magnifies a last-bit difference in X.
        """
        sp = complex(self.mean_sp)
        return math.sqrt(self.mean_sz * self.mean_sz + sp.real * sp.real + sp.imag * sp.imag)


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
        if self.Omega > 0.5 * self.omega0:
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


def rhs(t: float, state: TlsState, params: TlsParams, regime: str = "non_markovian"):
    """Time derivatives (d<s_z>/dt, d<s_+>/dt); the first is real exactly."""
    params.require_resonance()
    return _rates(state.mean_sz, state.mean_sp, params.Omega, *kernel_pair(t, params.bath, regime))


def _rates(mean_sz: float, mean_sp: complex, Omega: float, f: complex, f_beta: complex):
    """(d<s_z>/dt, d<s_+>/dt) on resonance for the kernel values (f, f_beta)."""
    d_sz = 2.0 * Omega * mean_sp.imag - 2.0 * f_beta.real * mean_sz - f.real
    d_sp = -2j * Omega * mean_sz - f_beta * mean_sp
    return d_sz, d_sp


def _linear_system(Omega: float, f: complex, f_beta: complex):
    """``(A, b)`` of ``_rates`` on (<s_z>, Re <s_+>, Im <s_+>) for constant kernels."""
    decay, shift = f_beta.real, f_beta.imag
    A = [[-2.0 * decay, 0.0, 2.0 * Omega], [0.0, -decay, shift], [-2.0 * Omega, -shift, -decay]]
    return A, [-f.real, 0.0, 0.0]


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
    x = state.bloch_radius
    if x >= 0.5 - _BOUNDARY_TOL:
        warnings.warn(
            f"Bloch radius X = {x!r}; returning the pure-state entropy 0",
            BoundaryStateWarning,
            stacklevel=2,
        )
        return 0.0
    ratio = arctanh_ratio(x)
    return -2.0 * x * x * ratio + math.log(2.0) - 0.5 * math.log1p(-4.0 * x * x)


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
    """``TlsState.bloch_radius`` of each sample, bit for bit."""
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
    ratio = arctanh_ratio_array(x)
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
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> TlsRun:
    """Solve the transport equations and derive entropy and temperature.

    The non-Markovian equations are integrated with ``rel_tol`` and
    ``abs_tol``; the Markovian ones have constant coefficients and are
    propagated exactly, so the tolerances are checked but do not enter.
    Trajectories must stay inside the Bloch ball (X <= 1/2 within 1e-9);
    leaving it aborts with the time and radius at fault.  Samples on its
    boundary get the pure-state limits, with one ``BoundaryStateWarning``.
    """

    params.require_resonance()
    bath, drive = params.bath, params.Omega
    sz0, sp0 = float(initial.mean_sz), complex(initial.mean_sp)
    if regime == "markovian":
        kernels, times = bind(bath, regime, t_max, dt_out, rel_tol, abs_tol)
        A, b = _linear_system(drive, *kernel_pair(0.0, bath, regime, kernels))
        states = propagate_linear(A, b, (sz0, sp0.real, sp0.imag), times)
        mean_sz = states[:, 0]
        mean_sp = states[:, 1] + 1j * states[:, 2]
    else:

        def vector_rhs(kernels, t, y):
            mean_sz, mean_sp = y
            return _rates(mean_sz.real, mean_sp, drive, *kernel_pair(t, bath, regime, kernels))

        problem, times = setup(vector_rhs, (sz0, sp0), bath, regime, t_max, dt_out, rel_tol, abs_tol)
        states = integrate(problem, times).states
        mean_sz = states[:, 0].real
        mean_sp = states[:, 1]
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
