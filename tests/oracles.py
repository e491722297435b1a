"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's evaluation paths: the
correlator oracle does the full two-dimensional frequency-time quadrature,
the long-time frequency shift comes from a principal-value integral and,
in the time domain, from a windowed average of the kernels, the
trigamma oracle is a direct series with a midpoint tail correction, the
scalar trigamma and kernel derivatives are written out on plain
``complex`` numbers (the kernels' QUADPACK references and the transport
oracle read them), the masked trigamma applies the library's recurrence
and asymptotic series one boolean selection at a time, the transport oracle
integrates the equations of motion and the kernels with scipy's DOP853 at
tight tolerances, the maximum-entropy state is built from a dense complex
eigendecomposition of any operator set, its moment Jacobian from the same
decomposition with divided differences of the weights (a Taylor series
between near-equal levels), and the matrix exponentials are scipy's and
mpmath's.
"""

import cmath
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


# B_2, ..., B_16 of the asymptotic series of trigamma (DLMF 24.2.1).
_ORACLE_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def scalar_trigamma(z: complex) -> complex:
    """psi'(z) for a plain ``complex`` z off the poles: the recurrence
    psi'(z) = psi'(z + 1) + 1/z**2 until Re z >= 10, then the asymptotic
    series 1/z + 1/(2 z**2) + sum_k B_2k / z**(2k + 1) (DLMF 5.15.8)."""
    z = complex(z)
    shifted = 0j
    while z.real < 10.0:
        shifted += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    tail = 0j
    for b2k in reversed(_ORACLE_BERNOULLI):
        tail = (tail + b2k) * inv2
    return shifted + inv * (1.0 + inv * 0.5 + tail)


def kernel_derivatives(t: float, params) -> tuple[complex, complex]:
    """f'(t) and f'(t, beta) of the bath ``params`` at one time, written out:
    the phase exp(-i w0 t), the pole 1/(1/W - i t)**2, and
    f'(t, beta) = phase (2 psi'((1 - i t W) / (W beta)) / beta**2 - pole)
    with ``scalar_trigamma``."""
    W, beta = params.W, params.beta
    phase = cmath.exp(-1j * params.omega0 * t)
    pole = 1.0 / (1.0 / W - 1j * t) ** 2
    thermal = 2.0 * scalar_trigamma(complex(1.0 / (W * beta), -t / beta)) / beta**2
    return phase * pole, phase * (thermal - pole)


def masked_trigamma(z) -> np.ndarray:
    """The recurrence and Bernoulli tail of ``releq.specfun.trigamma`` on a
    1-D array, shifting only the points selected by a boolean mask.

    The arithmetic is the library's, on w = x + iy in real parts: each shift
    adds (x**2 - y**2) / d to the real part and x / d to a sum that is
    multiplied by -2y at the end, with d = (x**2 + y**2)**2; the tail is
    1/w (1 + 1/w (1/2 + 1/w P(1/w**2))) with P the Bernoulli polynomial,
    each complex product taken in the library's operand order."""
    from releq.specfun import _BERNOULLI, _SHIFT_THRESHOLD

    z = np.asarray(z, dtype=complex)
    x, y = z.real.copy(), z.imag
    y2 = y * y
    re, im = np.zeros_like(x), np.zeros_like(x)
    mask = x < _SHIFT_THRESHOLD
    while np.any(mask):
        x2 = x[mask] * x[mask]
        d = (x2 + y2[mask]) * (x2 + y2[mask])
        re[mask] += (x2 - y2[mask]) / d
        im[mask] += x[mask] / d
        x[mask] += 1.0
        mask = x < _SHIFT_THRESHOLD
    inv = np.empty_like(z)
    inv.real = x / (x * x + y2)
    inv.imag = -(y / (x * x + y2))
    inv2 = inv * inv
    p = np.full_like(z, _BERNOULLI[-1])
    for coeff in _BERNOULLI[-2::-1]:
        p = p * inv2 + coeff
    series = ((p * inv + 0.5) * inv + 1.0) * inv
    series.real += re
    series.imag += (im * y) * -2.0
    return series


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


def _composite_gl(func, a: float, b: float, max_step: float) -> np.ndarray:
    """4-point Gauss-Legendre over panels of at most ``max_step`` in [a, b]
    of a function whose values at n points have the shape (2, n)."""
    nodes, weights = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(a, b, max(1, math.ceil((b - a) / max_step)) + 1)
    half = 0.5 * np.diff(edges)
    total = np.zeros(2, dtype=complex)
    for start in range(0, half.size, 4096):  # bounds the memory of the nodes
        h = half[start : start + 4096]
        points = (edges[start : start + h.size] + h)[:, None] + h[:, None] * nodes
        total += np.sum(h * (func(points.reshape(-1)).reshape((2,) + points.shape) @ weights), axis=-1)
    return total


def windowed_correlator_average(params):
    """Average f(t) and f(t, beta) over one oscillation period at large t.

    Both kernels approach their long-time values with an oscillating tail;
    averaging the cumulative integrals of the kernel derivatives of
    ``kernel_derivatives`` over one period of the system frequency, from
    t = 500/w0, removes the leading oscillation.  Returns the two window
    averages together with stability estimates taken as the change between
    this window and a second one ten periods later.
    """
    w0 = params.omega0
    period = 2.0 * math.pi / w0
    t1 = 500.0 / w0
    t2 = t1 + 10 * period
    step = 0.02 / max(w0, 0.2 * params.W)

    def g(s):  # f' and f_beta', shape (2, len(s))
        return np.array([kernel_derivatives(t, params) for t in s.tolist()], dtype=complex).T

    base = _composite_gl(g, 0.0, t1, step)
    tail = _composite_gl(g, t1, t2, step)
    windows = []
    for start, cumulative in ((t1, base), (t2, base + tail)):
        # One-period average of the cumulative kernels, with the double
        # integral collapsed to a single weighted pass over the window.
        weighted = _composite_gl(lambda s, _s=start: (_s + period - s) * g(s), start, start + period, step)
        windows.append(cumulative + weighted / period)
    (avg_f, avg_fb), (err_f, err_fb) = windows[0], np.abs(windows[0] - windows[1])
    return complex(avg_f), complex(avg_fb), float(err_f), float(err_fb)


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


def dense_maxent_state(F, operators) -> tuple:
    """``(rho, phi, exponent)`` of exp(-H)/Z for H = sum_m F_m P_m.

    H is assembled as a dense complex matrix, made Hermitian by averaging
    with its adjoint, and diagonalized by complex ``eigh``, whatever the
    shape of the operators.
    """
    exponent = sum(complex(coeff) * np.asarray(op, dtype=complex) for coeff, op in zip(F, operators))
    exponent = 0.5 * (exponent + exponent.conj().T)
    levels, vectors = np.linalg.eigh(exponent)
    weights = np.exp(levels.min() - levels)
    total = weights.sum()
    rho = (vectors * (weights / total)) @ vectors.conj().T
    return rho, math.log(total) - levels.min(), exponent


def dense_moment_jacobian(F, operators) -> np.ndarray:
    """d<P_m>/dF_n of exp(-H)/Z for H = sum_m F_m P_m, from a dense complex
    eigendecomposition of H.

    With levels l_i, weights p_i and Q_m = V^dagger P_m V,
    d<P_m>/dF_n = <P_m><P_n> - sum_ij (Q_m)_ij (Q_n)_ji k_ij, where k_ij is
    the divided difference (p_i - p_j) / (l_j - l_i).  Between levels
    closer than 1e-3 it is p_j (1 - exp(-g)) / g with g = l_i - l_j, summed
    as its Taylor series, whose limit p_i at g = 0 covers equal levels.
    """
    _, _, exponent = dense_maxent_state(F, operators)
    levels, vectors = np.linalg.eigh(exponent)
    weights = np.exp(levels.min() - levels)
    weights /= weights.sum()
    g = levels[:, None] - levels[None, :]
    near = np.abs(g) < 1e-3
    series = sum((-g) ** k / math.factorial(k + 1) for k in range(10))
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(near, weights[None, :] * series, (weights[:, None] - weights[None, :]) / -g)
    rotated = [vectors.conj().T @ np.asarray(op, dtype=complex) @ vectors for op in operators]
    means = np.array([q.diagonal() @ weights for q in rotated])
    return np.array(
        [[means[m] * means[n] - np.sum(q_m * q_n.T * kernel) for n, q_n in enumerate(rotated)] for m, q_m in enumerate(rotated)]
    )


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


def reference_transport(model: str, params, y0, times, drive: float = 0.0) -> np.ndarray:
    """States of a non-Markovian transport run at ``times`` by scipy's DOP853
    at rtol 1e-12 and atol 1e-14, on the equations of motion written out
    here.  The kernels are integrated along with the state: the system has
    seven real components, the state and Re and Im of f and f_beta, whose
    derivatives are ``kernel_derivatives`` of the bath ``params``, so no
    kernel value comes from the library's integration or its trigamma.

    ``model`` "oscillator" has the state (Re <a>, Im <a>, <n>); "tls", the
    two-level system on resonance with drive amplitude ``drive``, has
    (<s_z>, Re <s_+>, Im <s_+>).  Returns an array of shape (len(times), 3).
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        f, f_beta = complex(y[3], y[4]), complex(y[5], y[6])
        if model == "oscillator":
            d_a = -complex(y[0], y[1]) * f.conjugate()
            state = [d_a.real, d_a.imag, -2.0 * f.real * y[2] + (f_beta - f).real]
        else:
            s_plus = complex(y[1], y[2])
            d_sp = -2j * drive * y[0] - f_beta * s_plus
            state = [2.0 * drive * s_plus.imag - 2.0 * f_beta.real * y[0] - f.real, d_sp.real, d_sp.imag]
        d_f, d_f_beta = kernel_derivatives(t, params)
        return state + [d_f.real, d_f.imag, d_f_beta.real, d_f_beta.imag]

    times = np.asarray(times, dtype=float)
    start = np.concatenate((np.asarray(y0, dtype=float), np.zeros(4)))
    solution = solve_ivp(rhs, (0.0, float(times[-1])), start, method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    assert solution.success, solution.message
    return solution.y[:3].T

