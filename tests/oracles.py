"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's evaluation paths: the
correlator oracle does the full two-dimensional frequency-time quadrature,
the long-time frequency shift comes from a principal-value integral and,
in the time domain, from a windowed average of the kernels, the
trigamma oracle is a direct series with a midpoint tail correction, the
masked trigamma applies the library's recurrence and asymptotic series one
boolean selection at a time, the Hermite oracle evaluates the cardinal
basis on intervals found by bisection, the integrator oracle runs each
Dormand-Prince step on numpy arrays, and the matrix exponentials are
scipy's and mpmath's.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import expm

# Kernel values at t = 1 for W = 10, beta = 3, omega0 = 1, frozen from
# corr_oracle_2d below (nested quadrature, tolerance 1e-8).
F_ORACLE_T1 = 2.681813604701638 + 10.969447677703586j
F_BETA_ORACLE_T1 = 3.003994860858248 + 10.881185064299043j


def trigamma_series(z: complex, terms: int = 200_000) -> complex:
    """Direct series sum_k 1/(z+k)**2 with a midpoint-rule tail estimate."""
    k = np.arange(terms)
    partial = complex(np.sum(1.0 / (z + k) ** 2))
    w = z + terms - 0.5
    return partial + 1.0 / w - 1.0 / (12.0 * w**3)


def masked_trigamma(z) -> np.ndarray:
    """The recurrence and Bernoulli tail of ``releq.specfun.trigamma`` on a
    1-D array, shifting only the points selected by a boolean mask."""
    from releq.specfun import _BERNOULLI, _SHIFT_THRESHOLD

    w = np.array(z, dtype=complex)
    shifted = np.zeros_like(w)
    mask = w.real < _SHIFT_THRESHOLD
    while np.any(mask):
        shifted[mask] += 1.0 / (w[mask] * w[mask])
        w[mask] += 1.0
        mask = w.real < _SHIFT_THRESHOLD
    inv = 1.0 / w
    inv2 = inv * inv
    tail = np.zeros_like(w)
    power = inv * inv2
    for coeff in _BERNOULLI:
        tail += coeff * power
        power *= inv2
    return shifted + inv + 0.5 * inv2 + tail


def cubic_hermite(nodes, values, derivatives, times) -> np.ndarray:
    """Piecewise cubic Hermite interpolant through ``values`` and
    ``derivatives`` at the sorted ``nodes``, evaluated at ``times`` in the
    cardinal basis h00, h10, h01, h11.  Intervals are half-open except the
    last, which is closed."""
    nodes = np.asarray(nodes, dtype=float)
    times = np.asarray(times, dtype=float)
    i = np.clip(np.searchsorted(nodes, times, side="right") - 1, 0, nodes.size - 2)
    h = nodes[i + 1] - nodes[i]
    u = (times - nodes[i]) / h
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return (
        h00 * values[i]
        + h10 * h * derivatives[i]
        + h01 * values[i + 1]
        + h11 * h * derivatives[i + 1]
    )


def coth_product(w: float, beta: float, W: float) -> float:
    """J(w) * coth(beta w / 2) with the w -> 0 limit handled as a product."""
    if beta * w < 1e-4:
        return math.exp(-w / W) * (2.0 / beta + beta * w * w / 6.0)
    return w * math.exp(-w / W) / math.tanh(0.5 * beta * w)


def corr_oracle_2d(t, params, finite_beta: bool, kernel_sign: int = 1) -> complex:
    """f(t) or f(t, beta) by nested frequency-time quadrature.

    ``kernel_sign`` flips the Fourier kernel exp(sign * i (w - w0) s) for
    the conjugation sanity check.  The frequency integral is truncated at
    60 W, far beyond where the cutoff has extinguished the integrand.
    """
    W, beta, w0 = params.W, params.beta, params.omega0

    def inner(s: float, part: str) -> float:
        def g(w: float) -> float:
            amp = coth_product(w, beta, W) if finite_beta else w * math.exp(-w / W)
            phase = kernel_sign * (w - w0) * s
            return amp * (math.cos(phase) if part == "re" else math.sin(phase))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value, _ = quad(
                g, 0.0, 60.0 * W, epsabs=1e-12, epsrel=1e-10, limit=800, points=[w0]
            )
        return value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, _ = quad(lambda s: inner(s, "re"), 0.0, t, epsabs=1e-11, epsrel=1e-9, limit=800)
        im, _ = quad(lambda s: inner(s, "im"), 0.0, t, epsabs=1e-11, epsrel=1e-9, limit=800)
    return complex(re, im)


def pv_frequency_shift(params, finite_beta: bool) -> float:
    """Principal value of int_0^inf J(w)[coth(beta w/2)]/(w - w0) dw.

    The thermal part of coth lives on the scale 1/beta near w = 0, which
    QAWC on all of [0, 2 w0] misses on a cold bath; so [0, near] with near
    = min(40/beta, w0/2) is a plain quadrature with break points at 1/beta
    and 10/beta, and the Cauchy weight covers [near, 2 w0] with the pole.
    """
    w0, beta = params.omega0, params.beta

    def g(w: float) -> float:
        if finite_beta:
            return coth_product(w, beta, params.W)
        return w * math.exp(-w / params.W)

    near = min(40.0 / beta, 0.5 * w0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        thermal, _ = quad(
            lambda w: g(w) / (w - w0),
            0.0,
            near,
            points=[x / beta for x in (1.0, 10.0) if x / beta < near],
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
        )
        singular, _ = quad(
            g, near, 2 * w0, weight="cauchy", wvar=w0, epsabs=1e-12, epsrel=1e-10, limit=400
        )
        tail, _ = quad(
            lambda w: g(w) / (w - w0), 2 * w0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400
        )
    return thermal + singular + tail


def _composite_gl(func, a: float, b: float, max_step: float) -> complex:
    """4-point Gauss-Legendre over panels of at most ``max_step`` in [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(a, b, max(1, math.ceil((b - a) / max_step)) + 1)
    half = 0.5 * np.diff(edges)
    total = 0j
    for start in range(0, half.size, 4096):  # bounds the memory of the nodes
        h = half[start : start + 4096]
        points = (edges[start : start + h.size] + h)[:, None] + h[:, None] * nodes
        total += complex(np.sum(h * (func(points.reshape(-1)).reshape(points.shape) @ weights)))
    return total


def windowed_correlator_average(params):
    """Average f(t) and f(t, beta) over one oscillation period at large t.

    Both kernels approach their long-time values with an oscillating tail;
    averaging the cumulative integrals of ``releq.bath``'s kernel
    derivatives over one period of the system frequency, from t = 500/w0,
    removes the leading oscillation.  Returns the two window averages
    together with stability estimates taken as the change between this
    window and a second one ten periods later.
    """
    from releq.bath import corr_f_beta_integrand, corr_f_integrand

    w0 = params.omega0
    period = 2.0 * math.pi / w0
    t1 = 500.0 / w0
    t2 = t1 + 10 * period
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


def expm_mp(a, dps: int = 40) -> np.ndarray:
    """Exponential of a real matrix in mpmath at ``dps`` digits, rounded to doubles."""
    import mpmath

    with mpmath.workdps(dps):
        return np.array(mpmath.expm(mpmath.matrix(np.asarray(a, dtype=float).tolist())).tolist(), dtype=float)


def binary_entropy(p: float) -> float:
    """Entropy of the distribution (p, 1 - p) in nats."""
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            out -= q * math.log(q)
    return out


def _hermitian_to_vec(h: np.ndarray) -> np.ndarray:
    dim = h.shape[0]
    parts = [np.real(np.diagonal(h))]
    iu = np.triu_indices(dim, k=1)
    parts.append(np.sqrt(2.0) * np.real(h[iu]))
    parts.append(np.sqrt(2.0) * np.imag(h[iu]))
    return np.concatenate(parts)


def _vec_to_hermitian(v: np.ndarray, dim: int) -> np.ndarray:
    n_off = dim * (dim - 1) // 2
    h = np.diag(v[:dim]).astype(complex)
    iu = np.triu_indices(dim, k=1)
    upper = (v[dim : dim + n_off] + 1j * v[dim + n_off :]) / np.sqrt(2.0)
    h[iu] = upper
    h += np.triu(h, k=1).conj().T
    return h


def project_moment_neutral(delta: np.ndarray, operators) -> np.ndarray:
    """Project a Hermitian perturbation onto the moment-preserving subspace.

    The returned matrix is Hermitian, traceless, and satisfies
    Tr(P delta) = 0 for every operator P, so adding it to a density matrix
    changes neither the normalization nor any constrained average.
    """
    dim = delta.shape[0]
    vec = _hermitian_to_vec(0.5 * (delta + delta.conj().T))
    rows = [_hermitian_to_vec(np.eye(dim, dtype=complex))]
    for op in operators:
        herm = 0.5 * (op + op.conj().T)
        anti = 0.5 * (op - op.conj().T) / 1j
        rows.append(_hermitian_to_vec(herm))
        rows.append(_hermitian_to_vec(anti))
    constraints = np.array(rows)
    coeffs, *_ = np.linalg.lstsq(constraints.T, vec, rcond=None)
    vec = vec - constraints.T @ coeffs
    return _vec_to_hermitian(vec, dim)


# Dormand-Prince 5(4) tableau of reference_integrate, as numpy arrays.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_DP_B = _DP_A[6]
_DP_E = np.array(
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


def _dp_error_norm(err, scale) -> float:
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def reference_integrate(problem, sample_times) -> np.ndarray:
    """States of ``problem`` at ``sample_times`` by the same Dormand-Prince
    5(4) method, step control and quartic dense output as
    ``releq.odeint.integrate``, with every step and every sample done by
    numpy on arrays.  Like ``integrate``, it hands the RHS ``y`` as a tuple
    of ``complex``.  Raises ``releq.odeint.OdeError`` where it does.
    """
    from releq.odeint import OdeError

    times = np.asarray(sample_times, dtype=float)
    t0, t1 = problem.t_span
    out = np.empty((times.size, problem.y0.size), dtype=complex)
    next_out = 0

    t = t0
    y = problem.y0.copy()
    f = np.asarray(problem.rhs(t, tuple(y.tolist())), dtype=complex)
    while next_out < times.size and times[next_out] <= t:
        out[next_out] = y
        next_out += 1

    scale = problem.abs_tol + problem.rel_tol * np.abs(y)
    d0 = _dp_error_norm(y, scale)
    d1 = _dp_error_norm(f, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = np.asarray(problem.rhs(t0 + h0, tuple((y + h0 * f).tolist())), dtype=complex)
    d2 = _dp_error_norm(f1 - f, scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, problem.max_step, t1 - t0)

    K = np.empty((7, problem.y0.size), dtype=complex)
    while next_out < times.size and t < t1:
        h = min(h, problem.max_step, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise OdeError(f"step size underflow at t = {t:.6g}", t)
        K[0] = f
        for s in range(1, 6):
            K[s] = problem.rhs(t + _DP_C[s] * h, tuple((y + h * (K[:s].T @ _DP_A[s, :s])).tolist()))
        y_new = y + h * (K[:6].T @ _DP_B[:6])
        f_new = np.asarray(problem.rhs(t + h, tuple(y_new.tolist())), dtype=complex)
        K[6] = f_new
        scale = problem.abs_tol + problem.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        norm = _dp_error_norm(h * (K.T @ _DP_E), scale)
        if norm <= 1.0:
            t_new = t + h
            # The last step, which reaches t1 or is clipped to it, also fills
            # the samples up to 1e-12 past t1.
            reach = np.inf if t_new >= t1 or h == t1 - t else t_new + 1e-14
            while next_out < times.size and times[next_out] <= reach:
                theta = (times[next_out] - t) / h
                powers = np.cumprod(np.full(4, theta))
                out[next_out] = y + h * ((K.T @ _DP_P) @ powers)
                next_out += 1
            t, y, f = t_new, y_new, f_new
            factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm**-0.2)
            h *= max(0.2, factor)
        else:
            h *= max(0.2, 0.9 * norm**-0.2)
    return out
