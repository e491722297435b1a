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

A run's Magnus propagation and the corr samples integrate the closed-form
derivatives above on the steps of one step rule (``step_chunks``), a chunk
of steps at a time, and read both kernels at each step's nodes and end
(``step_kernels``).  The closed-form oscillator solution reads them from a
table of cubic Hermite pieces (``CorrelatorCache``) instead.
The two derivatives share exp(-i w0 s) and r = 1/(1/W - i s)**2, because
W**2 / (s W + i)**2 = -r, so both take one pass over the points and one
trigamma call.
Direct adaptive quadrature (scipy's ``quad``, imported only when called) is
kept as the reference evaluation path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

from .specfun import trigamma

__all__ = [
    "REGIMES",
    "BathParams",
    "CorrelatorCache",
    "MarkovianLimits",
    "QuadratureError",
    "coth",
    "corr_f",
    "corr_f_beta",
    "corr_f_integrand",
    "corr_f_beta_integrand",
    "correlator_cache",
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

# The three Gauss-Legendre nodes of a step, and its end, as fractions of it.
_STEP_NODES = np.append(0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0, 1.0)


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
    return values[..., 0], values[..., 1]


# ---------------------------------------------------------------------------
# Composite Gauss-Legendre helpers (vectorised over panels).

_GL_NODES, _GL_WEIGHTS = leggauss(4)

# Panels a table build integrates at once.  The integrands allocate several
# temporaries per node (trigamma most), so this bounds the memory a build
# needs beside the table itself; every panel's value is the same in any chunk.
_PANEL_CHUNK = 4096


# Grid step of the kernel table.  The Hermite error on an interval is at most
# step**4/384 * max|f''''| (de Boor, A Practical Guide to Splines, ch. IV).
# It is largest at t = 0, where |f''''| = 24 W**5: about 6e-14 * W**5.
_TABLE_STEP = 1e-3


class CorrelatorCache:
    """Table of f(t) and f(t, beta) on a uniform grid, served as cubics.

    It serves only the closed-form oscillator solution
    (``oscillator.closed_form_trajectory``), which integrates f over time;
    the runs and the corr samples integrate the kernels on their own steps
    (``step_kernels``) and build no table.  The node values are built by
    cumulative panelwise Gauss-Legendre integration of the closed-form
    kernel derivatives, and each interval is the cubic Hermite piece through
    its two node values and the exact derivatives there.  Its error grows as
    W**5 (see ``_TABLE_STEP``): near t = 0 it is about 6e-9 at W = 10 and
    6e-4 at W = 100, against 4e-14 and 4e-13 for ``step_kernels``.  The
    pieces are kept as one float table of shape (intervals, 16): row i
    holds, for the interval [i*step, (i+1)*step), the power-basis
    coefficients (highest power first) of Re f, Im f, Re f_beta and
    Im f_beta.  A lookup finds its row by index arithmetic.

    A new table holds only a few rows; it grows to the times a caller asks
    for, to one step past them (``ensure_horizon``, and every array lookup).
    The pieces are local, so an extension copies the old rows as they were
    into a new table, fills the rows after them chunk by chunk, and then
    publishes it; a lookup running meanwhile reads the one it started with,
    so concurrent lookups stay in range.  A scalar lookup past the horizon
    grows the table as ``ensure_horizon`` does.
    """

    def __init__(self, params: BathParams, t_max: float = 10 * _TABLE_STEP):
        self.params = params
        self._lock = threading.Lock()
        self._table = np.empty((0, 16))
        self._build(max(t_max, 10 * _TABLE_STEP))

    def _build(self, t_max: float):
        h = _TABLE_STEP
        n = int(math.ceil(t_max / h))
        old = self._table
        first = len(old)  # the first new row
        table = np.empty((n, 16))
        table[:first] = old
        rows = table.reshape(n, 4, 4)
        # An extension sums on from the first node of the old last row, whose
        # constant coefficients hold that node's value exactly.  The sums
        # then run in the order of a fresh build, and so do the new rows;
        # each chunk carries on from the last node value of the one before.
        start = max(first - 1, 0)
        y_end = [complex(old[start, 8 * k + 3], old[start, 8 * k + 7]) if first else 0j for k in (0, 1)]
        for lo in range(start, n, _PANEL_CHUNK):
            hi = min(lo + _PANEL_CHUNK, n)
            grid = np.arange(lo, hi + 1) * h
            skip = max(first - lo, 0)  # the old last row, if this chunk holds it
            # The panels' 4-point Gauss-Legendre nodes, then the grid nodes
            # of the new rows: both kernels' derivatives in one evaluation.
            half = 0.5 * np.diff(grid)
            nodes = (grid[:-1] + half)[:, None] + half[:, None] * _GL_NODES[None, :]
            derivatives = _kernel_derivatives(np.concatenate((nodes.reshape(-1), grid[skip:])), self.params)
            for k, values in enumerate(derivatives):
                panels = half * (values[: nodes.size].reshape(nodes.shape) @ _GL_WEIGHTS)
                y = np.cumsum(np.concatenate(([y_end[k]], panels)))
                y_end[k] = y[-1]
                y = y[skip:]
                d = values[nodes.size :]
                d0, d1 = d[:-1], d[1:]
                slope = np.diff(y) / h
                coeffs = np.stack(((d0 + d1 - 2.0 * slope) / h**2, (3.0 * slope - 2.0 * d0 - d1) / h, d0, y[:-1]), axis=1)
                rows[lo + skip : hi, 2 * k] = coeffs.real
                rows[lo + skip : hi, 2 * k + 1] = coeffs.imag
        self._table = table
        # Published last: a caller that sees the new horizon sees the new table.
        self.t_max = grid[-1]

    def ensure_horizon(self, t: float):
        """Extend the table so that ``t`` lies strictly inside it.

        The table is built to one step past ``t``, so a lookup at any time up
        to ``t`` reads the row that every longer table holds, never the last
        node, whose cubic reproduces the node value only to rounding.
        """
        if t < self.t_max:
            return
        with self._lock:
            if t >= self.t_max:
                self._build(t + _TABLE_STEP)

    def pair(self, t: float) -> tuple[complex, complex]:
        """(f(t), f(t, beta)) at one time; the scalar form of ``f``/``f_beta``."""
        t = float(t)
        table = self._table
        step = _TABLE_STEP
        i = int(t / step)
        if t < i * step:
            i -= 1
        elif t >= (i + 1) * step:
            i += 1
        if i >= len(table):
            if t > len(table) * step:
                self.ensure_horizon(t)
                return self.pair(t)
            i = len(table) - 1  # t on the last node: the last interval is closed
        elif i < 0:
            i = 0  # before the grid: the first cubic, extrapolated
        s = t - i * step
        ss = s * s
        sss = ss * s
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = table[i].tolist()
        return (
            complex(((a3 + a2 * s) + a1 * ss) + a0 * sss, ((b3 + b2 * s) + b1 * ss) + b0 * sss),
            complex(((c3 + c2 * s) + c1 * ss) + c0 * sss, ((d3 + d2 * s) + d1 * ss) + d0 * sss),
        )

    def _locate(self, t):
        """(table, rows, offsets) of an array of times; ``pair``'s index arithmetic."""
        flat = np.asarray(t, dtype=float).reshape(-1)
        if flat.size:
            self.ensure_horizon(float(flat.max()))
        table = self._table
        i = (flat / _TABLE_STEP).astype(np.intp)
        i -= flat < i * _TABLE_STEP
        i += flat >= (i + 1) * _TABLE_STEP
        np.clip(i, 0, len(table) - 1, out=i)
        return table, i, flat - i * _TABLE_STEP

    def _evaluate(self, t, kernel: int) -> np.ndarray:
        """f (``kernel`` 0) or f_beta (1) at an array of times; ``pair`` vectorised."""
        table, i, s = self._locate(t)
        ss = s * s
        sss = ss * s
        rows = table[i, 8 * kernel : 8 * kernel + 8]  # the kernel's columns only
        out = np.empty(s.shape, dtype=complex)
        for part, c in ((out.real, rows[:, :4]), (out.imag, rows[:, 4:])):
            part[...] = ((c[:, 3] + c[:, 2] * s) + c[:, 1] * ss) + c[:, 0] * sss
        return out.reshape(np.shape(t))

    def f(self, t):
        """f(t), cubic interpolation on the table."""
        return self.pair(t)[0] if np.ndim(t) == 0 else self._evaluate(t, 0)

    def f_beta(self, t):
        """f(t, beta), cubic interpolation on the table."""
        return self.pair(t)[1] if np.ndim(t) == 0 else self._evaluate(t, 1)

    def f_time_integral(self, t):
        """integral_0^t f(s) ds of the interpolated f, the exponent of the
        amplitude decay: the whole intervals before t, then the part of the
        one that holds t."""
        table, i, s = self._locate(t)
        c = table[:, 0:4] + 1j * table[:, 4:8]

        def integral(c, s):  # of the cubics c (highest power first) over [0, s]
            return s * (c[:, 3] + s * (c[:, 2] / 2 + s * (c[:, 1] / 3 + s * (c[:, 0] / 4))))

        whole = np.concatenate(([0j], np.cumsum(integral(c, _TABLE_STEP))))
        out = whole[i] + integral(c[i], s)
        return complex(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


@lru_cache(maxsize=1)
def correlator_cache(params: BathParams) -> CorrelatorCache:
    """The shared kernel table of the latest bath asked for, which the
    closed-form oscillator solution reads.

    Only that one is kept: a table can be large (128 bytes per step of
    1e-3), so the last bath's table is freed when the next one is asked
    for.  A caller keeps the table it holds alive itself, so callers on
    other baths cannot take it away from under it.
    """
    return CorrelatorCache(params)


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


def correlator_samples(params: BathParams, times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both kernels at the increasing times ``times``, complex arrays
    ``(f, f_beta)``, integrated from t = 0 on the steps of ``step_chunks``
    by ``step_kernels``, a chunk at a time."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise ValueError("correlator sample times must be >= 0 and increasing")
    grid = np.concatenate(([0.0], times))  # a first time of 0 takes no step
    out = np.zeros((2, grid.size), dtype=complex)
    carry = (0j, 0j)
    for gap, last, starts, widths in step_chunks(grid, params.W):
        f, f_beta = step_kernels(params, starts, widths, *carry)
        carry = (f[-1, 3], f_beta[-1, 3])
        out[0, gap[last] + 1] = f[last, 3]
        out[1, gap[last] + 1] = f_beta[last, 3]
    return out[0, 1:], out[1, 1:]
