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

Every consumer reads the kernels off one stream, ``step_kernels``: the
steps of one step rule (``step_counts``) a chunk at a time, with both
kernels at each step's nodes and end.  The Magnus propagation takes its
steps from it, ``correlator_samples`` the ends of its gaps, and the
closed-form oscillator solution also the time integral of f.  The steps
are integrated on panels of up to 16 steps of one width, which the
kernels' scale 1/W allows (fewer where exp(-i w0 s) turns by more than 8
over them): one Gauss-Legendre rule of at most 24 points per panel, never
more than 8 per step, and a spectral integration matrix per panel length
give the integrals to every step's nodes and end.
Chunks, panels and the blocks of ``transport._compose`` are all cut at
fixed multiples of the run's step index, so no value of a run depends on
the chunk length.
The two derivatives share exp(-i w0 s) and r = 1/(1/W - i s)**2, because
W**2 / (s W + i)**2 = -r, so both take one pass over the points and one
trigamma call per chunk.
Direct adaptive quadrature (scipy's ``quad``, imported only when called) is
kept as the reference evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

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
    "step_counts",
    "step_kernels",
]

REGIMES = ("markovian", "non_markovian")


class QuadratureError(RuntimeError):
    """A kernel quadrature failed: adaptive quadrature did not converge, or a
    step's kernels are not finite (estimate inf); carries the error estimate."""

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
    if not np.all(omega >= 0):
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


_QUAD_REL_TOL = 1e-9  # relative tolerance of the reference correlators


def _corr_quad(integrand, t: float, params: BathParams) -> complex:
    """Adaptive quadrature of ``integrand`` over [0, t], real and imaginary
    parts apart, to relative tolerance ``_QUAD_REL_TOL``."""
    if not t >= 0:
        raise ValueError(f"correlators are defined for t >= 0, got {t}")
    if t == 0.0:
        return 0j
    from scipy.integrate import quad

    epsrel = _QUAD_REL_TOL * 1e-2
    re, re_err = quad(lambda s: integrand(s, params).real, 0.0, t, epsabs=1e-14, epsrel=epsrel, limit=400)
    im, im_err = quad(lambda s: integrand(s, params).imag, 0.0, t, epsabs=1e-14, epsrel=epsrel, limit=400)
    value, estimate = complex(re, im), math.hypot(re_err, im_err)
    if estimate > max(1e-12, _QUAD_REL_TOL * abs(value)):
        raise QuadratureError(
            f"correlator quadrature did not reach relative tolerance {_QUAD_REL_TOL} "
            f"at t = {t}: error estimate {estimate:.3e} for value {value:.6e}",
            estimate,
        )
    return value


def corr_f(t: float, params: BathParams) -> complex:
    """Zero-temperature kernel f(t) by adaptive quadrature."""
    return _corr_quad(corr_f_integrand, t, params)


def corr_f_beta(t: float, params: BathParams) -> complex:
    """Finite-temperature kernel f(t, beta) by adaptive quadrature."""
    return _corr_quad(corr_f_beta_integrand, t, params)


# ---------------------------------------------------------------------------
# Kernels at the steps of a run.

# Step rule of the Magnus propagation and the corr samples, in units of the
# bath's cutoff W: steps of _EARLY_STEP / W while t < _EARLY_SPAN / W, where
# the kernels rise on their scale 1/W, then steps growing as _GRADING * t up
# to _LATE_STEP.  No step turns the phase exp(-i omega0 t) by more than
# _STEP_PHASE: at omega0 = 400, steps of 0.01 left the kernels at the steps'
# nodes off QUADPACK by 1.8e-7 (W = 5), capped ones by 1.8e-15.
_EARLY_STEP = 0.0625
_EARLY_SPAN = 15.0
_GRADING = 0.02
_LATE_STEP = 0.01
_STEP_PHASE = 2.0

# Steps whose kernels (and, in a run, exponents and exponentials) are formed
# at once, rounded down to whole blocks, one at least.  A README run (2,150
# steps) then takes two chunks; in-process, its oscillator and two-level runs
# took 12.5, 12.0, 11.5 and 12.5 ms at 512, 1024, 1536 and 2048 (2 cores).
_STEP_CHUNK = 1536

# Chunks start at multiples of this many steps of the run, as do the blocks
# of ``transport._compose``, and panels at multiples of _PANEL_STEPS.
_BLOCK = 48

# The three Gauss-Legendre nodes of a step, and its end, as fractions of it,
# and the nodes' weights as fractions of the step.
_STEP_NODES = np.append(0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0, 1.0)
_STEP_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0

# The kernels are integrated on panels of up to _PANEL_STEPS consecutive
# steps whose widths agree within _EQUAL_WIDTH relative, from one
# Gauss-Legendre rule of min(24, 8 k) points on a panel of k steps.  At
# 16 steps of 0.0625 / W a panel is 1 / W wide, the kernels' own scale.
# The phase exp(-i omega0 t) turns by at most _PANEL_PHASE over a panel of
# more than one step, where the rule leaves about J_24(4) = 3e-17 of it.
_PANEL_STEPS = 16
_EQUAL_WIDTH = 1e-9
_PANEL_PHASE = 8.0


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre nodes and weights on [-1, 1], formed once
    per process (read-only)."""
    nodes, weights = leggauss(m)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def _panel_rule(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m = min(24, 8 k) Gauss-Legendre points of a panel of k equal
    steps as fractions of it, and two (4 k, m) matrices that take a
    function's values there to its integral, and to its second integral,
    from the panel's start to each step's three nodes and end (row
    4 j + q for point q of step j), in units of the panel and its square.

    The rows integrate the interpolating polynomial of degree m - 1
    through the values (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071).
    Its Legendre coefficients are exact by the m-point rule, since each
    product with P_n, n < m, has degree below 2 m, and the integrals of
    P_n from -1 are (P_(n+1) - P_(n-1)) / (2 n + 1), and P_0 + P_1 for
    n = 0.  Formed at the first panel of k steps, not at import.
    """
    m = min(24, 8 * k)
    nodes, weights = _gauss_legendre(m)
    targets = 2.0 * ((np.arange(k)[:, None] + _STEP_NODES) / k).reshape(-1) - 1.0
    values = legvander(np.concatenate((nodes, targets)), m + 1)
    coefficients = values[:m, :m].T * weights * (np.arange(m) + 0.5)[:, None]
    once = _antiderivatives(values[m:])  # of P_0 ... P_m at the targets
    twice = _antiderivatives(once)
    return 0.5 * (nodes + 1.0), 0.5 * once[:, :m] @ coefficients, 0.25 * twice @ coefficients


def _antiderivatives(columns: np.ndarray) -> np.ndarray:
    """The integrals from -1 of the Legendre series whose values are the
    columns n = 0 ... N of ``columns``, for n = 0 ... N - 1."""
    n = np.arange(1, columns.shape[1] - 1)
    return np.column_stack((columns[:, 0] + columns[:, 1], (columns[:, 2:] - columns[:, :-2]) / (2 * n + 1)))


def _panels(step: np.ndarray, widths: np.ndarray, omega0: float) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the length of each panel of one chunk's steps,
    the steps ``step`` of a run, of widths ``widths``.

    A piece starts at every step whose index in the run is a multiple of
    ``_PANEL_STEPS``, and at every step whose width differs from the one
    before by more than ``_EQUAL_WIDTH`` relative.  Each piece is cut from
    its start into panels of the largest power of two of its steps that
    turn the phase by at most ``_PANEL_PHASE``, one step at least, the last
    one shorter.  A chunk that starts at a multiple of ``_PANEL_STEPS`` thus
    has the panels of all the steps.
    """
    n = widths.size
    changed = np.append(True, np.abs(np.diff(widths)) > _EQUAL_WIDTH * widths[:-1])
    pieces = np.flatnonzero(changed | (step % _PANEL_STEPS == 0))
    steps = np.clip(_PANEL_PHASE / (omega0 * widths[pieces]), 1.0, _PANEL_STEPS)
    size = 2 ** np.floor(np.log2(steps)).astype(int)
    count = -(-np.diff(np.append(pieces, n)) // size)  # panels per piece
    within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    first = np.repeat(pieces, count) + np.repeat(size, count) * within
    return first, np.diff(np.append(first, n))


def step_counts(times, params: BathParams) -> np.ndarray:
    """Steps of each gap of the finite, non-decreasing ``times`` under the
    step rule of the bath ``params``; raises ``ValueError`` at the first time
    that is NaN, infinite or below the one before.

    A gap starting at t takes ``ceil(gap / h(t))`` equal steps, at least one
    unless it is empty, with ``h(t) = 0.0625 / W`` for ``t < 15 / W`` and
    ``h(t) = min(0.02 t, 0.01)`` after, but never more than ``2 / omega0``.
    The ceiling has a margin of 1e-9 for the rounding of the gap, so that a
    gap of h takes one step.  The counts are whole floats, so that a huge
    one, and their sum, stay huge rather than wrapping around as integers
    would.
    """
    W = params.W
    times = np.asarray(times, dtype=float)
    gaps = np.diff(times)
    bad = ~np.isfinite(times)
    bad[1:] |= gaps < 0.0
    if bad.any():
        k = int(np.argmax(bad))
        after = f" after {times[k - 1]:g}" if k else ""
        raise ValueError(f"times must be finite and weakly increasing, got {times[k]:g}{after}")
    start = times[:-1]
    h = np.where(start < _EARLY_SPAN / W, _EARLY_STEP / W, np.minimum(_GRADING * start, _LATE_STEP))
    h = np.minimum(h, _STEP_PHASE / params.omega0)
    return np.where(gaps > 0.0, np.maximum(np.ceil(gaps / h - 1e-9), 1.0), 0.0)


def step_kernels(params: BathParams, times, integral: bool = False):
    """The steps of a run on the non-decreasing ``times`` with the kernels
    on them, up to ``_STEP_CHUNK`` steps at a time.

    Yields ``(gap, last, starts, widths, f, f_beta)`` per chunk: for each
    step of ``step_counts(times, params)`` the index of its gap, whether it
    ends the gap, its start and its width, and both kernels at its three
    Gauss-Legendre nodes and end, complex arrays of shape ``(steps, 4)``.
    Given ``integral``, I, the integral of f from 0, comes last at the same
    points.

    The values start from 0 at t = 0, and each chunk goes on from the last
    values of the one before.  Chunks start at multiples of ``_BLOCK``
    steps of the run and panels at multiples of ``_PANEL_STEPS`` (see
    ``_panels``), so the chunk length does not change a bit of them.
    """
    times = np.asarray(times, dtype=float)
    counts = step_counts(times, params)
    ends = np.cumsum(counts)  # ends[i]: the steps taken by the end of gap i
    total = int(ends[-1]) if ends.size else 0
    chunk = max(_STEP_CHUNK // _BLOCK, 1) * _BLOCK
    at_start = (0j, 0j, 0j) if integral else (0j, 0j)
    for lo in range(0, total, chunk):
        step = np.arange(lo, min(lo + chunk, total))
        gap = np.searchsorted(ends, step, side="right")
        widths = (times[gap + 1] - times[gap]) / counts[gap]
        first, lengths = _panels(step, widths, params.omega0)
        starts = times[gap] + (step - ends[gap] + counts[gap]) * widths
        values = _chunk_kernels(params, starts, widths, first, lengths, at_start)
        at_start = tuple(value[-1, 3] for value in values)
        yield (gap, step + 1 == ends[gap], starts, widths) + values


def _chunk_kernels(params: BathParams, starts, widths, first, lengths, at_start: tuple) -> tuple:
    """``step_kernels``' values on the steps ``[starts, starts + widths)`` of
    one chunk, whose panels start at the steps ``first`` and hold
    ``lengths`` steps, from ``at_start``, their values at the first start
    (two, or three with I).  A function of its own, so that its temporaries
    are freed before the chunk's consumer works.

    Both derivatives are evaluated at the Gauss-Legendre points of every
    panel in one call, and a product with the first matrix of the panel's
    ``_panel_rule`` gives the increments from its start to each of its
    steps' nodes and ends.  The values at the panels' starts are the
    cumulative sum of the increments to their ends after ``at_start``.  On
    a panel of length L from a, I(a + x L) = I(a) + x L f(a) plus the
    second integral of f' from a, which the second matrix of
    ``_panel_rule`` takes from the same derivative values.
    """
    a = starts[first]
    spans = starts[first + lengths - 1] + widths[first + lengths - 1] - a
    groups = [(k, np.flatnonzero(lengths == k)) for k in sorted(set(lengths.tolist()))]
    points = [(a[p, None] + spans[p, None] * _panel_rule(k)[0]).reshape(-1) for k, p in groups]
    derivatives = np.stack(_kernel_derivatives(np.concatenate(points), params), axis=-1)
    integral = len(at_start) == 3
    # Per step and node, from the panel's start: Re and Im of the integrals
    # of f' and f_beta', and of the second integral of f'.
    increments = np.empty((starts.size, 4, 6 if integral else 4))
    offset = 0
    for (k, p), panel_points in zip(groups, points):
        _, once, twice = _panel_rule(k)
        steps = (first[p, None] + np.arange(k)).reshape(-1)
        # Per panel, (4 k, m) @ (m, 4 reals: Re f', Im f', Re f_beta', Im f_beta').
        values = derivatives[offset : offset + panel_points.size].view(float).reshape(p.size, -1, 4)
        offset += panel_points.size
        increments[steps, :, :4] = (spans[p, None, None] * (once @ values)).reshape(-1, 4, 4)
        if integral:
            increments[steps, :, 4:] = (spans[p, None, None] ** 2 * (twice @ values[..., :2])).reshape(-1, 4, 2)
    increments = increments.view(complex)
    to_ends = increments[first + lengths - 1, 3]
    at_panels = np.cumsum(np.concatenate(([at_start[:2]], to_ends[:, :2])), axis=0)
    kernels = np.repeat(at_panels[:-1], lengths, axis=0)[:, None] + increments[..., :2]
    if not integral:
        return kernels[..., 0], kernels[..., 1]
    along = spans * at_panels[:-1, 0]  # L f(a)
    at_panels_i = np.cumsum(np.concatenate(([at_start[2]], along + to_ends[:, 2])))
    within = np.arange(starts.size) - np.repeat(first, lengths)
    fractions = (within[:, None] + _STEP_NODES) / np.repeat(lengths, lengths)[:, None]
    integrals = np.repeat(at_panels_i[:-1], lengths)[:, None] + (fractions * np.repeat(along, lengths)[:, None] + increments[..., 2])
    return kernels[..., 0], kernels[..., 1], integrals


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

    high, low = (terms(*_gauss_legendre(n)) for n in (48, 32))
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
    """Both kernels at the times ``times``, increasing in their flat order,
    complex arrays ``(f, f_beta)`` of their shape: the values of
    ``step_kernels`` at the ends of the gaps of 0 and ``times``.

    Raises ``QuadratureError`` at the first time where a value is not
    finite, as where W beta is below about 1e-154 and trigamma's argument
    overflows when squared.
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    if not np.all(flat >= 0) or not np.all(np.diff(flat) > 0):
        raise ValueError("correlator sample times must be >= 0 and increasing")
    grid = np.concatenate(([0.0], flat))  # a first time of 0 takes no step
    out = np.zeros((2, grid.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        for gap, last, _, _, *values in step_kernels(params, grid):
            out[:, gap[last] + 1] = [value[last, 3] for value in values]
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        raise QuadratureError(f"the kernels are not finite at t = {grid[np.argmin(finite)]:.6g}", math.inf)
    return tuple(values[1:].reshape(times.shape) for values in out)
