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
time grid and served as piecewise cubics from one coefficient table; direct
adaptive quadrature is kept as the reference evaluation path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly

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
    "windowed_correlator_average",
]

_SUPPORTED_MODELS = ("ohmic-exp",)

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
    system transition frequency.  ``spectral_model`` is a tag for future
    spectral families; only the exponentially cut off Ohmic form is
    supported.
    """

    W: float
    beta: float
    omega0: float
    spectral_model: str = "ohmic-exp"

    def __post_init__(self):
        for name in ("W", "beta", "omega0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.spectral_model not in _SUPPORTED_MODELS:
            raise ValueError(
                f"unsupported spectral_model {self.spectral_model!r}; "
                f"supported: {_SUPPORTED_MODELS}"
            )


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


def _composite_gl(func, a: float, b: float, max_step: float) -> complex:
    if b <= a:
        return 0j
    n = max(1, int(math.ceil((b - a) / max_step)))
    edges = np.linspace(a, b, n + 1)
    return complex(np.sum(_panel_integrals(func, edges)))


class CorrelatorCache:
    """Table of f(t) and f(t, beta) on a uniform grid, served as cubics.

    The grid values are built by cumulative panelwise Gauss-Legendre
    integration of the closed-form kernel derivatives, so the table error
    sits far below the transport-equation tolerances (the spline
    interpolation error at the default millistep is ~1e-12 of the kernel
    scale).  They are interpolated by not-a-knot cubic splines, kept as one
    float table of shape (intervals, 16): row i holds, for the interval
    [i*step, (i+1)*step), the power-basis coefficients (highest power first)
    of Re f, Im f, Re f_beta and Im f_beta.  A lookup finds its row by index
    arithmetic and evaluates in the operation order of scipy's ``PPoly``, so
    its values are those of ``CubicSpline`` bit for bit.

    The table extends itself when evaluated past its current horizon.  An
    extension publishes a new table; a lookup running meanwhile reads the
    one it started with, so concurrent lookups stay in range.
    """

    def __init__(self, params: BathParams, t_max: float = 25.0, step: float = 1e-3):
        if step <= 0.0:
            raise ValueError(f"grid step must be positive, got {step}")
        self.params = params
        self.step = step
        self._lock = threading.Lock()
        self._integral = None
        self._build(max(t_max, 10 * step))

    def _build(self, t_max: float):
        n = int(math.ceil(t_max / self.step))
        grid = np.arange(n + 1) * self.step
        # An extension keeps the node values of the old table, which its
        # constant coefficients hold exactly (CubicSpline stores y[:-1] as
        # c[3], columns 3, 7, 11 and 15), and integrates on from its last
        # stored node; the sums continue in the order of a fresh build.
        old = getattr(self, "_table", None)
        start = 0 if old is None else len(old) - 1
        table = np.empty((n, 4, 4))
        for k, integrand in enumerate((corr_f_integrand, corr_f_beta_integrand)):
            values = np.zeros(n + 1, dtype=complex)
            if old is not None:
                values.real[: start + 1] = old[:, 8 * k + 3]
                values.imag[: start + 1] = old[:, 8 * k + 7]
            panels = _panel_integrals(lambda s, _g=integrand: _g(s, self.params), grid[start:])
            values[start:] = np.cumsum(np.concatenate((values[start : start + 1], panels)))
            coeffs = CubicSpline(grid, values).c.T
            table[:, 2 * k] = coeffs.real
            table[:, 2 * k + 1] = coeffs.imag
        self._table = table.reshape(n, 16)
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
        step = self.step
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

    def _evaluate(self, t, kernel: int) -> np.ndarray:
        """f (``kernel`` 0) or f_beta (1) at an array of times; ``pair`` vectorised."""
        self.ensure_horizon(float(np.max(t)))
        table = self._table
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        i = (flat / self.step).astype(np.intp)
        i -= flat < i * self.step
        i += flat >= (i + 1) * self.step
        np.clip(i, 0, len(table) - 1, out=i)
        s = flat - i * self.step
        ss = s * s
        sss = ss * s
        rows = table[i].reshape(-1, 4, 4)
        out = np.empty(flat.shape, dtype=complex)
        for part, c in ((out.real, rows[:, 2 * kernel]), (out.imag, rows[:, 2 * kernel + 1])):
            part[...] = ((c[:, 3] + c[:, 2] * s) + c[:, 1] * ss) + c[:, 0] * sss
        return out.reshape(times.shape)

    def f(self, t):
        """f(t), cubic interpolation on the table."""
        return self.pair(t)[0] if np.ndim(t) == 0 else self._evaluate(t, 0)

    def f_beta(self, t):
        """f(t, beta), cubic interpolation on the table."""
        return self.pair(t)[1] if np.ndim(t) == 0 else self._evaluate(t, 1)

    def f_time_integral(self, t):
        """integral_0^t f(s) ds, the exponent of the amplitude decay.

        The antiderivative is built from the f columns on first use and kept
        with the table it came from, so an extension rebuilds it.
        """
        self.ensure_horizon(float(np.max(t)))
        table = self._table
        integral = self._integral
        if integral is None or integral[0] is not table:
            coeffs = np.empty((4, len(table)), dtype=complex)
            coeffs.real = table[:, 0:4].T
            coeffs.imag = table[:, 4:8].T
            grid = np.arange(len(table) + 1) * self.step
            integral = self._integral = (table, PPoly(coeffs, grid).antiderivative())
        out = integral[1](t)
        return complex(out) if np.ndim(t) == 0 else out


@lru_cache(maxsize=16)
def correlator_cache(params: BathParams, step: float = 1e-3) -> CorrelatorCache:
    """Shared per-parameter kernel table (immutable params make this safe)."""
    return CorrelatorCache(params, step=step)


# ---------------------------------------------------------------------------
# Long-time (Markovian) kernel values.


@dataclass(frozen=True)
class MarkovianLimits:
    """Long-time kernel values with stability estimates for the averaged parts."""

    f_inf: complex
    f_beta_inf: complex
    f_inf_error: float
    f_beta_inf_error: float

    def pair(self, t: float) -> tuple[complex, complex]:
        """(f_inf, f_beta_inf), the kernel pair at every t."""
        return self.f_inf, self.f_beta_inf


def windowed_correlator_average(
    params: BathParams,
    window_start: float | None = None,
    separation_periods: int = 10,
):
    """Average f(t) and f(t, beta) over one oscillation period at large t.

    Both kernels approach their long-time values with an oscillating tail;
    averaging over one period of the system frequency removes the leading
    oscillation.  Returns the two window averages together with stability
    estimates taken as the change between this window and a second one
    ``separation_periods`` later.
    """
    w0 = params.omega0
    period = 2.0 * math.pi / w0
    t1 = 500.0 / w0 if window_start is None else float(window_start)
    t2 = t1 + separation_periods * period
    step = 0.02 / max(w0, 0.2 * params.W)

    averages = []
    for integrand in (corr_f_integrand, corr_f_beta_integrand):
        g = lambda s, _f=integrand: _f(s, params)
        base = _composite_gl(g, 0.0, t1, step)
        tail = _composite_gl(g, t1, t2, step)
        windows = []
        for start, cumulative in ((t1, base), (t2, base + tail)):
            # One-period average of the cumulative kernel, with the double
            # integral collapsed to a single weighted pass over the window.
            weighted = _composite_gl(
                lambda s, _s=start, _g=g: (_s + period - s) * _g(s), start, start + period, step
            )
            windows.append(cumulative + weighted / period)
        averages.append((windows[0], abs(windows[0] - windows[1])))
    (avg_f, err_f), (avg_fb, err_fb) = averages
    return avg_f, avg_fb, err_f, err_fb


@lru_cache(maxsize=16)
def markovian_limits(params: BathParams) -> MarkovianLimits:
    """Long-time kernel values f(inf) and f(inf, beta).

    The real parts are the golden-rule rates pi*J(w0) and
    pi*J(w0)*coth(beta*w0/2); the imaginary (frequency-shift) parts come
    from the windowed large-time average, whose stability estimate is
    reported alongside.
    """
    re_f = math.pi * spectral_density(params.omega0, params)
    re_fb = re_f * coth(0.5 * params.beta * params.omega0)
    avg_f, avg_fb, err_f, err_fb = windowed_correlator_average(params)
    return MarkovianLimits(
        f_inf=complex(re_f, avg_f.imag),
        f_beta_inf=complex(re_fb, avg_fb.imag),
        f_inf_error=err_f,
        f_beta_inf_error=err_fb,
    )


def kernel_pair(t: float, params: BathParams, regime: str, kernels=None) -> tuple[complex, complex]:
    """Kernel pair (f, f_beta) at time t for the requested regime.

    The non-Markovian regime reads the shared table, extended past t when
    needed; the Markovian regime returns the long-time values regardless of
    t.  A run passes the ``kernels`` it bound once (a ``CorrelatorCache`` or
    ``MarkovianLimits``, see ``transport.setup``), which skips the regime
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

