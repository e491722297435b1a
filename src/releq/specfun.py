"""Special functions used by the bath kernels and self-consistency formulas.

Only two functions are needed: the complex trigamma function, which enters
the finite-temperature bath correlator, and the ratio arctanh(2x)/x, which
enters the two-level multiplier inversion.  Both are implemented without
any special-function library so that this module stays dependency-free
apart from numpy's array layer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PoleError", "trigamma", "arctanh_ratio"]


class PoleError(ValueError):
    """Argument too close to a pole of the function."""


# Bernoulli numbers B_2 .. B_16 for the asymptotic tail of psi'.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# Real part above which the Bernoulli series is accurate to ~1e-14 relative.
_SHIFT_THRESHOLD = 10.0

_POLE_TOL = 1e-12


def trigamma(z):
    """Trigamma function psi'(z) for complex scalars or arrays.

    Arguments with real part below 10 are moved upward with the recurrence
    psi'(z) = psi'(z + 1) + 1/z**2, after which the asymptotic expansion

        psi'(w) = 1/w + 1/(2 w**2) + sum_k B_{2k} / w**(2k + 1)

    converges to better than 1e-13 relative error.  The poles at the
    non-positive integers are rejected.  The shifts run in real arithmetic,
    over the whole array at once when every point shares its real part, as
    the kernels' points of one bath do, and point by point otherwise; both
    give the same bits.

    Parameters
    ----------
    z : complex or array_like of complex
        Evaluation points, each at least ``1e-12`` away from every
        non-positive integer.

    Returns
    -------
    complex or ndarray of complex, matching the input shape.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    flat = arr.reshape(-1)
    x = flat.real.copy()
    y = flat.imag

    near = np.abs(y) < _POLE_TOL  # |w + n| < tol needs |Im w| < tol
    if near.any():
        w = flat[near]
        nearest = np.round(-w.real)
        on_pole = (nearest >= 0) & (np.abs(w + nearest) < _POLE_TOL)
        if on_pole.any():
            raise PoleError(
                f"trigamma argument {w[on_pole][0]} is within {_POLE_TOL} of a non-positive integer"
            )

    # The shifts add 1/w**2 = (x**2 - y**2 - 2ixy) / (x**2 + y**2)**2 for
    # w = x + iy, x + 1 + iy, ...; y never changes, so ``im`` sums x / d and
    # is multiplied by -2y once.
    y2 = y * y
    re, im = np.zeros_like(x), np.zeros_like(x)
    if x.size and (x == x[0]).all():
        # The kernels' points of one bath share Re z, so all of them take
        # every shift and x**2 is one number.
        x = float(x[0])
        while x < _SHIFT_THRESHOLD:
            _add_inverse_square(re, im, x, y, y2)
            x += 1.0
    else:
        mask = x < _SHIFT_THRESHOLD
        while mask.any():
            re_part, im_part = re[mask], im[mask]
            _add_inverse_square(re_part, im_part, x[mask], y[mask], y2[mask])
            re[mask], im[mask] = re_part, im_part
            x[mask] += 1.0
            mask = x < _SHIFT_THRESHOLD

    # 1/w + 1/(2 w**2) + sum_k B_2k / w**(2k + 1)
    #   = 1/w (1 + 1/w (1/2 + 1/w P(1/w**2))), P by Horner.
    inv = np.empty(flat.shape, dtype=complex)
    d = x * x + y2
    np.divide(x, d, out=inv.real)
    np.divide(y, d, out=inv.imag)
    np.negative(inv.imag, out=inv.imag)
    inv2 = inv * inv
    result = inv2 * _BERNOULLI[-1]
    for coeff in _BERNOULLI[-2:0:-1]:
        result += coeff
        result *= inv2
    result += _BERNOULLI[0]
    result *= inv
    result += 0.5
    result *= inv
    result += 1.0
    result *= inv
    result.real += re
    result.imag -= 2.0 * y * im

    if scalar:
        return complex(result[0])
    return result.reshape(arr.shape)


def _add_inverse_square(re, im, x, y, y2):
    """Add Re 1/(x + iy)**2 to ``re``, and x / (x**2 + y**2)**2 to ``im``."""
    x2 = x * x
    d = x2 + y2
    d *= d
    re += (x2 - y2) / d
    im += x / d


def arctanh_ratio(x):
    """Evaluate arctanh(2x)/x on [0, 1/2), continuous at x = 0 with value 2.

    Takes a float or an array and returns a float for a float.  Below
    x = 1e-4 a four-term Taylor expansion replaces the direct ratio, which
    would otherwise lose digits to cancellation; the first neglected term
    is below 1e-30 there.  Arguments outside [0, 1/2), NaN included, are
    rejected because the ratio is either undefined or divergent; the error
    names the first of them.
    """
    x = np.asarray(x, dtype=float)
    bad = ~((x >= 0.0) & (x < 0.5))
    if bad.any():
        raise ValueError(f"arctanh_ratio requires 0 <= x < 1/2, got {float(x[bad].flat[0])}")
    x2 = x * x
    series = 2.0 + x2 * (8.0 / 3.0 + x2 * (32.0 / 5.0 + x2 * (128.0 / 7.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x < 1e-4, series, np.arctanh(2.0 * x) / x)
    return float(out) if out.ndim == 0 else out
