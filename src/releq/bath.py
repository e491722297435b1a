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

For production right-hand sides the kernels are tabulated once on a fine
time grid and served from one coefficient table of cubic Hermite pieces,
each built from the node values and the closed-form derivatives above.
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
from numpy.polynomial.legendre import leggauss

from .specfun import trigamma

__all__ = [
    "REGIMES",
    "BathParams",
    "CorrelationSample",
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
    "kernel_pair",
    "markovian_limits",
    "spectral_density",
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


@dataclass(frozen=True)
class CorrelationSample:
    """Kernel values at one time: f(t) and f(t, beta)."""

    t: float
    f: complex
    f_beta: complex


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


def corr_f_integrand(t, params: BathParams):
    """Zero-temperature kernel derivative exp(-i w0 t) / (1/W - i t)**2."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-1j * params.omega0 * t) / (1.0 / params.W - 1j * t) ** 2
    return complex(out) if out.ndim == 0 else out


def corr_f_beta_integrand(t, params: BathParams):
    """Finite-temperature kernel derivative (closed frequency integral)."""
    t = np.asarray(t, dtype=float)
    W, beta = params.W, params.beta
    psi1 = trigamma((1.0 - 1j * t * W) / (W * beta))
    out = np.exp(-1j * params.omega0 * t) * (
        W**2 / (t * W + 1j) ** 2 + 2.0 * psi1 / beta**2
    )
    return complex(out) if out.ndim == 0 else out


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
# Composite Gauss-Legendre helpers (vectorised over panels).

_GL_NODES, _GL_WEIGHTS = leggauss(4)

# Panels evaluated at once by _panel_integrals.  The integrands allocate
# several temporaries per node (trigamma most), so this bounds the memory of
# a table build; every panel's value is the same in any chunk.
_PANEL_CHUNK = 4096


def _panel_integrals(func, edges: np.ndarray) -> np.ndarray:
    """4-point Gauss-Legendre integral of ``func`` over each edge interval."""
    out = np.empty(edges.size - 1, dtype=complex)
    for start in range(0, out.size, _PANEL_CHUNK):
        part = edges[start : start + _PANEL_CHUNK + 1]
        half = 0.5 * np.diff(part)
        mid = part[:-1] + half
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        values = func(nodes.reshape(-1)).reshape(nodes.shape)
        out[start : start + half.size] = half * (values @ _GL_WEIGHTS)
    return out


# Grid step of the kernel table.  The Hermite error on an interval is at most
# step**4/384 * max|f''''| (de Boor, A Practical Guide to Splines, ch. IV).
# It is largest at t = 0, where |f''''| = 24 W**5: about 6e-14 * W**5.
_TABLE_STEP = 1e-3


class CorrelatorCache:
    """Table of f(t) and f(t, beta) on a uniform grid, served as cubics.

    The node values are built by cumulative panelwise Gauss-Legendre
    integration of the closed-form kernel derivatives, and each interval is
    the cubic Hermite piece through its two node values and the exact
    derivatives there, so the table error sits far below the
    transport-equation tolerances.  The pieces are kept as one float table
    of shape (intervals, 16): row i holds, for the interval
    [i*step, (i+1)*step), the power-basis coefficients (highest power first)
    of Re f, Im f, Re f_beta and Im f_beta.  A lookup finds its row by index
    arithmetic.

    The table extends itself when evaluated past its current horizon.  The
    pieces are local, so an extension appends rows and leaves the old ones
    as they were, and it publishes a new table; a lookup running meanwhile
    reads the one it started with, so concurrent lookups stay in range.
    """

    def __init__(self, params: BathParams, t_max: float = 25.0):
        self.params = params
        self._lock = threading.Lock()
        self._table = np.empty((0, 16))
        self._build(max(t_max, 10 * _TABLE_STEP))

    def _build(self, t_max: float):
        h = _TABLE_STEP
        n = int(math.ceil(t_max / h))
        grid = np.arange(n + 1) * h
        old = self._table
        first = len(old)  # the first new row
        # An extension sums on from the first node of the old last row, whose
        # constant coefficients hold that node's value exactly.  The sums
        # then run in the order of a fresh build, and so do the new rows.
        start = max(first - 1, 0)
        rows = np.empty((n - first, 4, 4))
        for k, integrand in enumerate((corr_f_integrand, corr_f_beta_integrand)):
            g = lambda s, _g=integrand: _g(s, self.params)
            y_start = complex(old[start, 8 * k + 3], old[start, 8 * k + 7]) if first else 0j
            y = np.cumsum(np.concatenate(([y_start], _panel_integrals(g, grid[start:]))))[first - start :]
            d = g(grid[first:])
            d0, d1 = d[:-1], d[1:]
            slope = np.diff(y) / h
            coeffs = np.stack(((d0 + d1 - 2.0 * slope) / h**2, (3.0 * slope - 2.0 * d0 - d1) / h, d0, y[:-1]), axis=1)
            rows[:, 2 * k] = coeffs.real
            rows[:, 2 * k + 1] = coeffs.imag
        self._table = np.concatenate((old, rows.reshape(-1, 16)))
        # Published last: a caller that sees the new horizon sees the new table.
        self.t_max = grid[-1]

    def ensure_horizon(self, t: float):
        """Extend the table so that times up to ``t`` are interpolated."""
        if t <= self.t_max:
            return
        with self._lock:
            if t > self.t_max:
                self._build(1.5 * t)

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
        self.ensure_horizon(float(np.max(t)))
        table = self._table
        flat = np.asarray(t, dtype=float).reshape(-1)
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
        rows = table[i].reshape(-1, 4, 4)
        out = np.empty(s.shape, dtype=complex)
        for part, c in ((out.real, rows[:, 2 * kernel]), (out.imag, rows[:, 2 * kernel + 1])):
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


@lru_cache(maxsize=16)
def correlator_cache(params: BathParams) -> CorrelatorCache:
    """Shared per-parameter kernel table (immutable params make this safe)."""
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

    def pair(self, t: float) -> tuple[complex, complex]:
        """(f_inf, f_beta_inf), the kernel pair at every t."""
        return self.f_inf, self.f_beta_inf


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


def kernel_pair(t: float, params: BathParams, regime: str, kernels=None) -> tuple[complex, complex]:
    """Kernel pair (f, f_beta) at time t for the requested regime.

    The non-Markovian regime reads the shared table, extended past t when
    needed; the Markovian regime returns the long-time values regardless of
    t.  A run passes the ``kernels`` it bound once (a ``CorrelatorCache`` or
    ``MarkovianLimits``, see ``transport.bind``), which skips the regime
    dispatch and the shared-cache lookups.
    """
    if kernels is None:
        if regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
        kernels = markovian_limits(params) if regime == "markovian" else correlator_cache(params)
    return kernels.pair(t)


# ---------------------------------------------------------------------------
# Sampling.


def correlator_samples(params: BathParams, times: Sequence[float]) -> list[CorrelationSample]:
    """Evaluate both kernels at the given times through the shared table."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return []
    if np.any(times < 0):
        raise ValueError("correlator sample times must be >= 0")
    cache = correlator_cache(params)
    f_vals = cache.f(times)
    fb_vals = cache.f_beta(times)
    return [
        CorrelationSample(float(t), complex(fv), complex(fbv))
        for t, fv, fbv in zip(times, f_vals, fb_vals)
    ]

