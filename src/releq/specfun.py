"""Special functions used by the bath kernels and self-consistency formulas.

Only two functions are needed: the complex trigamma function, which enters
the finite-temperature bath correlator, and the ratio arctanh(2x)/x, which
enters the two-level multiplier inversion.  Both are implemented without
any special-function library so that this module stays dependency-free
apart from numpy's array layer.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PoleError", "trigamma", "arctanh_ratio", "arctanh_ratio_array"]


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
    non-positive integers are rejected.

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
    w = arr.reshape(-1).copy()

    nearest = np.round(-w.real)
    on_pole = (nearest >= 0) & (np.abs(w + nearest) < _POLE_TOL)
    if np.any(on_pole):
        bad = w[on_pole][0]
        raise PoleError(
            f"trigamma argument {bad} is within {_POLE_TOL} of a non-positive integer"
        )

    shifted = np.zeros_like(w)
    mask = w.real < _SHIFT_THRESHOLD
    while np.any(mask):
        # Points of a kernel table share Re z, so all of them need every
        # shift; the whole array then costs less than a gather and a scatter.
        part = slice(None) if mask.all() else mask
        shifted[part] += 1.0 / (w[part] * w[part])
        w[part] += 1.0
        mask = w.real < _SHIFT_THRESHOLD

    inv = 1.0 / w
    inv2 = inv * inv
    tail = np.zeros_like(w)
    power = inv * inv2
    for coeff in _BERNOULLI:
        tail += coeff * power
        power *= inv2
    result = shifted + inv + 0.5 * inv2 + tail

    if scalar:
        return complex(result[0])
    return result.reshape(arr.shape)


def _arctanh_ratio_series(x):
    """Four-term Taylor expansion of arctanh(2x)/x, for a float or an array."""
    x2 = x * x
    return 2.0 + x2 * (8.0 / 3.0 + x2 * (32.0 / 5.0 + x2 * (128.0 / 7.0)))


def arctanh_ratio(x: float) -> float:
    """Evaluate arctanh(2x)/x on [0, 1/2), continuous at x = 0 with value 2.

    Below x = 1e-4 a four-term Taylor expansion replaces the direct ratio,
    which would otherwise lose digits to cancellation; the first neglected
    term is below 1e-30 there.  Arguments outside [0, 1/2) are rejected
    because the ratio is either undefined or divergent.
    """
    x = float(x)
    if not 0.0 <= x < 0.5:
        raise ValueError(f"arctanh_ratio requires 0 <= x < 1/2, got {x}")
    if x < 1e-4:
        return _arctanh_ratio_series(x)
    return math.atanh(2.0 * x) / x


def arctanh_ratio_array(x) -> np.ndarray:
    """``arctanh_ratio`` elementwise over an array, with the same series branch.

    numpy's arctanh may differ from ``math.atanh`` in the last bit.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < 0.5)):
        raise ValueError("arctanh_ratio_array requires 0 <= x < 1/2 throughout")
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.arctanh(2.0 * x) / x
    return np.where(x < 1e-4, _arctanh_ratio_series(x), direct)
