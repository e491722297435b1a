"""Ohmic bath with exponential cutoff and its time-dependent damping kernels.

The bath enters the transport equations only through two cumulative
correlation functions,

    f(t)       = integral_0^t  exp(-i w0 s) / (1/W - i s)**2  ds
    f(t, beta) = integral_0^t  exp(-i w0 s) * (W**2 / (s W + i)**2
                    + 2 psi'((1 - i s W) / (W beta)) / beta**2)  ds

which are the zero- and finite-temperature spectral integrals reduced to a
single smooth time integral (the frequency integral has a closed form for
the spectral density J(w) = w exp(-w/W)).  Both kernels vanish at t = 0 and
approach constant long-time values whose real parts are pi*J(w0) and
pi*J(w0)*coth(beta*w0/2).

Every consumer integrates the closed-form derivatives above on the steps of
one step rule (``step_chunks``), a chunk of steps at a time, and reads both
kernels at each step's nodes and end (``step_kernels``): a run's Magnus
propagation does so in its own loop, and ``correlator_samples`` and the
closed-form oscillator solution sample them at given times, the latter
together with the time integral of f.
The two derivatives share exp(-i w0 s) and r = 1/(1/W - i s)**2, because
W**2 / (s W + i)**2 = -r, so both take one pass over the points and one
trigamma call.
Direct adaptive quadrature (scipy's ``quad``, imported only when called) is
kept as the reference evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

from .specfun import trigamma

__all__ = [
    "REGIMES",
    "BathParams",
    "MarkovianLimits",
    "QuadratureError",
    "coth",
    "corr_f",
    "corr_f_beta",
    "corr_f_integrand",
    "corr_f_beta_integrand",
    "correlator_samples",
    "markovian_limits",
    "spectral_density",
    "step_chunks",
    "step_counts",
    "step_kernels",
]

REGIMES = ("markovian", "non_markovian")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the error estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class BathParams:
    """Bath and system-frequency parameters.

    W is the spectral cutoff, beta the bath inverse temperature, omega0 the
    system transition frequency.
    """

    W: float
    beta: float
    omega0: float

    def __post_init__(self):
        for name in ("W", "beta", "omega0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def spectral_density(omega, params: BathParams):
    """Spectral density w * exp(-w/W); accepts scalars or arrays, w >= 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("spectral_density is defined for omega >= 0")
    out = omega * np.exp(-omega / params.W)
    return float(out) if out.ndim == 0 else out


def coth(x):
    """coth(x) for x > 0, switching to 1/x + x/3 below 5e-5 to avoid 0*inf."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 5e-5
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0, 1.0 / np.tanh(safe))
    return float(out) if out.ndim == 0 else out


def _phase_and_pole(t: np.ndarray, params: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i w0 t) and r = 1/(1/W - i t)**2, the factors of f' = e r."""
    phase = params.omega0 * t
    e = np.empty(t.shape, dtype=complex)
    np.cos(phase, out=e.real)
    np.sin(phase, out=e.imag)
    np.negative(e.imag, out=e.imag)
    return e, 1.0 / (1.0 / params.W - 1j * t) ** 2


def _kernel_derivatives(t: np.ndarray, params: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """f'(t) = e r and f'(t, beta) = e (2 psi'/beta**2 - r) at a 1-D array of times.

    The second product keeps its temporary on the left.  numpy computes a
    product into a large temporary operand in place, swapping a commutative
    product's operands when the temporary is the right one, and the last bit
    of a complex product depends on their order: the values would then
    depend on the array's length.
    """
    W, beta = params.W, params.beta
    e, r = _phase_and_pole(t, params)
    z = np.empty(t.shape, dtype=complex)  # (1 - i t W) / (W beta)
    z.real = 1.0 / (W * beta)
    np.multiply(t, -1.0 / beta, out=z.imag)
    psi1 = trigamma(z)
    return e * r, (2.0 * psi1 / beta**2 - r) * e


def corr_f_integrand(t, params: BathParams):
    """Zero-temperature kernel derivative exp(-i w0 t) / (1/W - i t)**2."""
    t = np.asarray(t, dtype=float)
    e, r = _phase_and_pole(t.reshape(-1), params)
    out = e * r
    return complex(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def corr_f_beta_integrand(t, params: BathParams):
    """Finite-temperature kernel derivative (closed frequency integral)."""
    t = np.asarray(t, dtype=float)
    out = _kernel_derivatives(t.reshape(-1), params)[1]
    return complex(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def _quad_complex(func, a: float, b: float, rel_tol: float) -> tuple[complex, float]:
    """Adaptive quadrature of a complex integrand; returns value and estimate."""
    from scipy.integrate import quad

    re, re_err = quad(lambda s: func(s).real, a, b, epsabs=1e-14, epsrel=rel_tol, limit=400)
    im, im_err = quad(lambda s: func(s).imag, a, b, epsabs=1e-14, epsrel=rel_tol, limit=400)
    return complex(re, im), math.hypot(re_err, im_err)


def _corr_quad(integrand, t: float, params: BathParams, rel_tol: float) -> complex:
    if t < 0:
        raise ValueError(f"correlators are defined for t >= 0, got {t}")
    if t == 0.0:
        return 0j
    value, estimate = _quad_complex(lambda s: integrand(s, params), 0.0, t, rel_tol * 1e-2)
    if estimate > max(1e-12, rel_tol * abs(value)):
        raise QuadratureError(
            f"correlator quadrature did not reach relative tolerance {rel_tol} "
            f"at t = {t}: error estimate {estimate:.3e} for value {value:.6e}",
            estimate,
        )
    return value


def corr_f(t: float, params: BathParams, rel_tol: float = 1e-9) -> complex:
    """Zero-temperature kernel f(t) by adaptive quadrature."""
    return _corr_quad(corr_f_integrand, t, params, rel_tol)


def corr_f_beta(t: float, params: BathParams, rel_tol: float = 1e-9) -> complex:
    """Finite-temperature kernel f(t, beta) by adaptive quadrature."""
    return _corr_quad(corr_f_beta_integrand, t, params, rel_tol)


# ---------------------------------------------------------------------------
# Kernels at the steps of a run.

# Step rule of the Magnus propagation and the corr samples, in units of the
# bath's cutoff W: steps of _EARLY_STEP / W while t < _EARLY_SPAN / W, where
# the kernels rise on their scale 1/W, then steps growing as _GRADING * t up
# to _LATE_STEP.
_EARLY_STEP = 0.0625
_EARLY_SPAN = 15.0
_GRADING = 0.02
_LATE_STEP = 0.01

# Steps whose kernels (and, in a run, exponents and exponentials) are formed
# at once.
_STEP_CHUNK = 1024

# The three Gauss-Legendre nodes of a step, and its end, as fractions of it,
# and the nodes' weights as fractions of the step.
_STEP_NODES = np.append(0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0, 1.0)
_STEP_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


@lru_cache(maxsize=None)
def _integration_matrix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m Gauss-Legendre points of a step as fractions of it, and the
    (4, m) matrix that takes a function's values there to its integrals
    from the step's start to each of ``_STEP_NODES``, in units of the step.

    Row k integrates the interpolating polynomial of degree m - 1 through
    the values (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071).  Its
    Legendre coefficients are exact by the m-point rule, since each product
    with P_n, n < m, has degree below 2 m; the last row is the rule's
    weights, halved.  Formed at the first call, not at import.
    """
    nodes, weights = leggauss(m)
    basis = legvander(nodes, m - 1).T * weights * (np.arange(m) + 0.5)[:, None]
    return 0.5 * (nodes + 1.0), 0.5 * legvander(2.0 * _STEP_NODES - 1.0, m) @ legint(basis, lbnd=-1)


# Derivative points per step.  At m = 8 the kernels at the nodes are off
# QUADPACK by 3.6e-14 at W = 10 and 3.6e-13 at W = 100 (m = 7: 1.0e-12).
_POINTS_PER_STEP = 8


def step_counts(times, W: float) -> np.ndarray:
    """Steps of each gap of the non-decreasing ``times`` under the step rule.

    A gap starting at t takes ``ceil(gap / h(t))`` equal steps, at least one
    unless it is empty, with ``h(t) = 0.0625 / W`` for ``t < 15 / W`` and
    ``h(t) = min(0.02 t, 0.01)`` after.  The ceiling has a margin of 1e-9
    for the rounding of the gap, so that a gap of h takes one step.  The
    counts are whole floats, so that a huge one, and their sum, stay huge
    rather than wrapping around as integers would.
    """
    times = np.asarray(times, dtype=float)
    gaps = np.diff(times)
    start = times[:-1]
    h = np.where(start < _EARLY_SPAN / W, _EARLY_STEP / W, np.minimum(_GRADING * start, _LATE_STEP))
    return np.where(gaps > 0.0, np.maximum(np.ceil(gaps / h - 1e-9), 1.0), 0.0)


def step_chunks(times, W: float):
    """The steps of ``step_counts(times, W)``, ``_STEP_CHUNK`` at a time.

    Yields ``(gap, last, starts, widths)`` per chunk: for each step the
    index of its gap, whether it ends the gap, its start and its width.
    """
    times = np.asarray(times, dtype=float)
    counts = step_counts(times, W)
    ends = np.cumsum(counts)  # ends[i]: the steps taken by the end of gap i
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, _STEP_CHUNK):
        step = np.arange(lo, min(lo + _STEP_CHUNK, total))
        gap = np.searchsorted(ends, step, side="right")
        widths = (times[gap + 1] - times[gap]) / counts[gap]
        starts = times[gap] + (step - ends[gap] + counts[gap]) * widths
        yield gap, step + 1 == ends[gap], starts, widths


def step_kernels(params: BathParams, starts, widths, f0: complex = 0j, f_beta0: complex = 0j):
    """``(f, f_beta)`` at the three Gauss-Legendre nodes and the end of each
    step ``[starts, starts + widths)``, two complex arrays of shape
    ``(steps, 4)``, for consecutive steps whose first starts where the
    kernels are ``f0`` and ``f_beta0``.

    Both derivatives are evaluated at the m-point Gauss-Legendre points of
    every step, and one product with the integration matrix of
    ``_integration_matrix`` gives every step's increments to its nodes and
    end.  The values at the steps' starts are the cumulative sum of the
    increments to their ends after ``(f0, f_beta0)``, so a chunk that goes on
    from the last end of the one before gives the bits of one long call.
    """
    return _step_kernels(params, starts, widths, f0, f_beta0)[:2]


def _step_kernels(params: BathParams, starts, widths, f0: complex, f_beta0: complex):
    """``step_kernels``' two arrays, and f' at every step's m points, an
    array of shape ``(steps, m)``, from which ``_kernel_samples`` integrates
    f over the steps."""
    starts = np.asarray(starts, dtype=float)
    widths = np.asarray(widths, dtype=float)
    fractions, integrals = _integration_matrix(_POINTS_PER_STEP)
    points = (starts[:, None] + widths[:, None] * fractions).reshape(-1)
    derivatives = np.stack(_kernel_derivatives(points, params), axis=-1)
    # Per step, (4, m) @ (m, 4 reals: Re f', Im f', Re f_beta', Im f_beta').
    increments = integrals @ derivatives.view(float).reshape(starts.size, _POINTS_PER_STEP, 4)
    increments *= widths[:, None, None]
    increments = increments.view(complex)  # (steps, 4, 2): f and f_beta
    at_starts = np.cumsum(np.concatenate(([[f0, f_beta0]], increments[:, 3])), axis=0)
    values = at_starts[:-1, None] + increments
    return values[..., 0], values[..., 1], derivatives[:, 0].reshape(starts.size, _POINTS_PER_STEP)


# ---------------------------------------------------------------------------
# Long-time (Markovian) kernel values.


@dataclass(frozen=True)
class MarkovianLimits:
    """Long-time kernel values with error estimates for their imaginary parts."""

    f_inf: complex
    f_beta_inf: complex
    f_inf_error: float
    f_beta_inf_error: float


def _frequency_shifts(params: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """Principal values P int_0^inf g(w) / (w - w0) dw for g = J and
    g = J coth(beta w / 2), with their error estimates.

    The pole is removed by subtracting g(w0) on [0, 2 w0], over which
    1/(w - w0) integrates to zero.  That interval is cut into panels halving
    towards w = 0, where the cutoff and thermal scales sit; the tail out to
    2 w0 + 60 W, where the cutoff leaves e**-60, into panels growing
    geometrically away from the pole.  The values take 48-node
    Gauss-Legendre rules on every panel; the estimate is their difference
    from 32-node rules plus a rounding bound on the sum of the terms.
    """
    W, beta, w0 = params.W, params.beta, params.omega0

    def g(w):  # J and J coth(beta w / 2), with the thermal factor kept finite
        j = w * np.exp(-w / W)
        return np.stack((j, j * (1.0 + 2.0 * np.exp(-beta * w) / -np.expm1(-beta * w))))

    near = w0 * 0.5 ** np.arange(23, -1, -1)  # w0 / 2**23, ..., w0
    tail = w0 + w0 * (1.0 + 60.0 * W / w0) ** (np.arange(25) / 24)  # 2 w0, ..., 2 w0 + 60 W
    edges = np.concatenate(([0.0], near, tail))
    half = 0.5 * np.diff(edges)
    g0 = g(np.array([w0]))

    def terms(nodes, weights):  # weighted integrand values of one rule, per g
        w = ((edges[:-1] + half)[:, None] + half[:, None] * nodes).reshape(-1)
        return (g(w) - np.where(w < 2.0 * w0, g0, 0.0)) / (w - w0) * (half[:, None] * weights).reshape(-1)

    high, low = (terms(*leggauss(n)) for n in (48, 32))
    shifts = high.sum(axis=1)
    rounding = 50.0 * np.finfo(float).eps * np.abs(high).sum(axis=1)
    return shifts, np.abs(shifts - low.sum(axis=1)) + rounding


@lru_cache(maxsize=16)
def markovian_limits(params: BathParams) -> MarkovianLimits:
    """Long-time kernel values f(inf) and f(inf, beta).

    The real parts are the golden-rule rates pi*J(w0) and
    pi*J(w0)*coth(beta*w0/2); the imaginary parts are the frequency shifts,
    principal values of J(w)/(w - w0) and J(w)coth(beta*w/2)/(w - w0) over
    w > 0, whose error estimates are reported alongside.
    """
    re_f = math.pi * spectral_density(params.omega0, params)
    re_fb = re_f * coth(0.5 * params.beta * params.omega0)
    (im_f, im_fb), (err_f, err_fb) = _frequency_shifts(params)
    return MarkovianLimits(
        f_inf=complex(re_f, im_f),
        f_beta_inf=complex(re_fb, im_fb),
        f_inf_error=float(err_f),
        f_beta_inf_error=float(err_fb),
    )


# ---------------------------------------------------------------------------
# Sampling.


def _kernel_samples(params: BathParams, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f, f_beta, I)`` at the times ``times``, increasing in their flat
    order, as complex arrays of their shape; I(t) is the integral of f from
    0 to t.

    Both kernels are integrated from t = 0 on the steps of ``step_chunks``
    by ``step_kernels``, a chunk at a time.  I sums the integrals of f over
    the steps, each w f(start) + integral (end - u) f'(u) du by the m-point
    Gauss-Legendre rule on the f' that gives the kernels.  The sums run on
    from the chunk before as ``step_kernels``' do, so the chunk length does
    not change a bit of the values.
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    if np.any(flat < 0) or np.any(np.diff(flat) <= 0):
        raise ValueError("correlator sample times must be >= 0 and increasing")
    grid = np.concatenate(([0.0], flat))  # a first time of 0 takes no step
    out = np.zeros((3, grid.size), dtype=complex)
    carry = (0j, 0j, 0j)
    fractions, integrals = _integration_matrix(_POINTS_PER_STEP)
    tail = integrals[3] * (1.0 - fractions)  # integral (end - u) g(u) du, in units of the width squared
    for gap, last, starts, widths in step_chunks(grid, params.W):
        f, f_beta, derivative = _step_kernels(params, starts, widths, *carry[:2])
        at_starts = np.concatenate(([carry[0]], f[:-1, 3]))
        over_steps = widths * (at_starts + widths * (derivative * tail).sum(axis=1))
        integral = np.cumsum(np.concatenate(([carry[2]], over_steps)))[1:]
        carry = (f[-1, 3], f_beta[-1, 3], integral[-1])
        out[:, gap[last] + 1] = f[last, 3], f_beta[last, 3], integral[last]
    return tuple(values[1:].reshape(times.shape) for values in out)


def correlator_samples(params: BathParams, times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both kernels at the increasing times ``times``, complex arrays
    ``(f, f_beta)``, integrated from t = 0 on the steps of ``step_chunks``
    by ``step_kernels``, a chunk at a time."""
    return _kernel_samples(params, times)[:2]
