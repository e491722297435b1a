"""CSV rows of numeric columns, written in numpy alone with the bytes of ``repr``.

``rows(columns)`` formats a chunk of equal-length columns as CSV text: an int
column as its decimal digits, a float column as Python's ``repr`` writes it,
the shortest decimal that reads back to the same double (the closest one
when several are shortest), positional for decimal exponents -4 to 15 and
``d.ddde±XX`` otherwise, and ``-0.0``, ``inf``, ``-inf`` and ``nan``.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020; Java's ``Double.toString``), which needs 64-bit integer
arithmetic only and so runs on every value of a chunk at once: a 126-bit
power of ten g (``_powers``) scales the double's interval of real numbers
that round to it, and of the one or two decimals with the fewest digits in
it the closest wins.  The 128-bit high part of each product is taken in
32-bit halves of uint64 arrays.  Java's two-digit minimum is left out, so
that ``5e-324`` stays ``5e-324``.

Each value's digits, exponent and the constant characters form one 32-byte
source row; the text is a gather from it by the value's template, one per
(sign, digit count, layout), and the rows of text are joined by dropping
the NUL padding.  The tables are formed at first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["rows"]

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64(2**63 - 1)
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the power table
_P10 = np.array([10**j for j in range(20)], dtype=np.uint64)
_INF = _U64(0x7FF << 52)  # bits of inf; larger magnitudes are nan
_ONE = _U64(0x3FF << 52)  # bits of 1.0

# The source row: byte 0 is '0', bytes 1-19 the digits left-aligned to 19
# places, bytes 20-23 the decimal exponent's magnitude as four digits, then
# the constants and the separator, a comma or a newline.
_ZERO, _EXP, _MINUS, _DOT, _E, _PLUS, _SEP, _NUL = 0, 20, 24, 25, 26, 27, 28, 29
_TAIL = np.frombuffer(b"-.e+,\0\0\0", dtype=np.uint8).view(np.uint32)  # bytes 24-31
_SOURCE = 32

# Layouts: positional for decimal exponents -4 ... 15, then scientific with
# an exponent of +XX, -XX, +XXX and -XXX, and bare digits (ints, inf, nan).
_POSITIONAL = 20
_BARE = 24
_LAYOUTS = 25
_DIGITS = 19
_WIDTH = 25  # sign, 23 characters of the longest float, separator
_BLOCK = 4096  # values gathered at a time; bounds the gather index at 800 kB
_FLOAT, _INFINITE, _NAN, _INT = 0, 1, 2, 3  # kinds of value


@cache
def _powers() -> tuple:
    """Schubfach's g for k = -324 ... 292: with 10^-k = beta 2^r and
    2^125 <= beta < 2^126, g = floor(beta) + 1, split into g1 = g >> 63 and
    g0 = g mod 2^63.  Returns g1, and both in 32-bit halves."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << (p.bit_length() + 125)) // p + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & (2**63 - 1) for x in g], dtype=np.uint64)
    return tuple(map(_readonly, (g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)))


@cache
def _quads() -> tuple:
    """The four ASCII digits of 0 ... 9999 as one uint32 each, and the
    number of trailing zeros among the four (4 for 0)."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        text[..., j] = digits.reshape([10 if axis == j else 1 for axis in range(4)])
    values = np.arange(10_000)
    trailing = sum((values % 10**j == 0).astype(np.int64) for j in range(1, 5))
    return _readonly(text.view(np.uint32).ravel()), _readonly(trailing)


@cache
def _templates() -> np.ndarray:
    """Source-row index of every output byte, one row per class
    ``(sign * 19 + digits - 1) * 25 + layout``."""
    cls = np.arange(_DIGITS * _LAYOUTS, dtype=np.int16)[:, None]  # the unsigned classes
    n, layout = cls // _LAYOUTS + 1, cls % _LAYOUTS
    q = np.arange(_WIDTH - 1, dtype=np.int16)[None, :]  # position in the text
    x = layout - 4  # decimal exponent of a positional layout
    a = x + 1  # digits before the point when x >= 0
    z = -x - 1  # zeros after the point when x < 0
    m = n + (n > 1)  # mantissa length in scientific layouts
    e = 2 + (layout >= _POSITIONAL + 2)  # exponent digits
    padded = (layout < _POSITIONAL) & (x >= 0) & (n <= a)  # ddd000.0
    inner = (layout < _POSITIONAL) & (x >= 0) & (n > a)  # ddd.ddd
    fraction = (layout < _POSITIONAL) & (x < 0)  # 0.000ddd
    scientific = (layout >= _POSITIONAL) & (layout < _BARE)  # d.ddde-XX
    bare = layout == _BARE
    cases = [
        (padded & (q < n), q + 1),
        (padded & (q < a), _ZERO),
        (padded & (q == a), _DOT),
        (padded & (q == a + 1), _ZERO),
        (inner & (q < a), q + 1),
        (inner & (q == a), _DOT),
        (inner & (q <= n), q),
        (fraction & (q == 1), _DOT),
        (fraction & (q < 2 + z), _ZERO),
        (fraction & (q < 2 + z + n), q - 1 - z),
        (scientific & (q == 0), 1),
        (scientific & (n > 1) & (q == 1), _DOT),
        (scientific & (n > 1) & (q <= n), q),
        (scientific & (q == m), _E),
        (scientific & (q == m + 1), np.where(layout % 2, _MINUS, _PLUS)),
        (scientific & (q < m + 2 + e), _EXP + 2 - e + q - m),
        (bare & (q < n), q + 1),
    ]
    length = np.select([padded, inner, fraction, scientific], [a + 2, n + 1, 2 + z + n, m + 2 + e], n)
    unsigned = np.select([where for where, _ in cases] + [q == length], [source for _, source in cases] + [_SEP], _NUL)
    column = np.empty((len(unsigned), 1), dtype=unsigned.dtype)
    signed = np.vstack(
        [np.hstack([unsigned, np.full_like(column, _NUL)]), np.hstack([np.full_like(column, _MINUS), unsigned])]
    )
    return _readonly(signed.astype(np.intp))


def _readonly(table: np.ndarray) -> np.ndarray:
    """``table``, made read-only: a cached table is shared by every call."""
    table.flags.writeable = False
    return table


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of the product of a = a1 2^32 + a0 and b = b1 2^32 + b0."""
    low = a0 * b0
    mid = a1 * b0 + (low >> _U64(32))
    mid2 = a0 * b1 + (mid & _M32)
    return a1 * b1 + (mid >> _U64(32)) + (mid2 >> _U64(32))


def _rop(g, cp):
    """Schubfach's rop: floor(g cp / 2^127) with its last bit set where the
    quotient is not exact."""
    g1, g1_high, g1_low, g0_high, g0_low = g
    cp_high, cp_low = cp >> _U64(32), cp & _M32
    z = ((g1 * cp) >> _U64(1)) + _mulhi(g0_high, g0_low, cp_high, cp_low)
    return (_mulhi(g1_high, g1_low, cp_high, cp_low) + (z >> _U64(63))) | ((z & _M63) != 0)


def _shortest(bits):
    """Schubfach's digits d and exponent k, with d 10^k the shortest (and
    then closest) decimal that rounds to the positive finite double of each
    of ``bits``."""
    fraction = bits & _U64(2**52 - 1)
    exponent = (bits >> _U64(52)).astype(np.int64)
    c = np.where(exponent > 0, fraction | _U64(2**52), fraction)
    q = np.maximum(exponent, 1) - 1075
    irregular = (fraction == 0) & (exponent > 1)  # the interval below v is half as wide
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)  # q + floor(log2(10^-k)) + 2
    g = tuple(column.take(k - _K_MIN) for column in _powers())
    cb = c << _U64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular) << h)
    vbr = _rop(g, (cb + _U64(2)) << h)
    odd = c & _U64(1)
    s = vb >> _U64(2)
    # one digit fewer: the multiple of 10 below or above s, if exactly one is inside
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl + odd <= sp10 << _U64(2)
    wpin = (tp10 << _U64(2)) + odd <= vbr
    shorter = (s >= _U64(10)) & (upin != wpin)
    # else s or s + 1, whichever is inside, the closer (ties to even) if both are
    uin = vbl + odd <= s << _U64(2)
    win = ((s + _U64(1)) << _U64(2)) + odd <= vbr
    middle = (s << _U64(2)) + _U64(2)
    lower = np.where(uin != win, uin, (vb < middle) | ((vb == middle) & ((s & _U64(1)) == 0)))
    d = np.where(shorter, np.where(upin, sp10, tp10), np.where(lower, s, s + _U64(1)))
    return d, k


def rows(columns) -> bytes:
    """CSV rows of equal-length numeric columns: each row's values joined by
    commas and ended by a newline.  An int64 column is written as its
    digits, any other as float64 in ``repr``'s text."""
    if len(columns[0]) == 0:
        return b""
    source, cls = _sources(*_decimals(columns), len(columns))
    templates = _templates()
    text = np.empty((cls.size, _WIDTH), dtype=np.uint8)
    for start in range(0, cls.size, _BLOCK):
        index = templates.take(cls[start : start + _BLOCK], axis=0)
        index += np.arange(start * _SOURCE, (start + len(index)) * _SOURCE, _SOURCE)[:, None]
        source.take(index, out=text[start : start + len(index)], mode="clip")
    return text.tobytes().translate(None, b"\0")


def _decimals(columns) -> tuple:
    """The values of ``columns`` in row-major order as digits d and exponents
    k (|value| = d 10^k), signs and kinds."""
    bits = np.column_stack([np.asarray(column, dtype=np.float64) for column in columns]).view(np.uint64).ravel()
    magnitude = bits & _M63
    special = (magnitude == 0) | (magnitude >= _INF)
    d, k = _shortest(np.where(special, _ONE, magnitude))
    d[special] = 0
    k[special] = 0
    kind = (magnitude >= _INF).astype(np.int8) + (magnitude > _INF)
    sign = (bits >> _U64(63)) & (kind != _NAN)
    integer = [j for j, column in enumerate(columns) if np.asarray(column).dtype.kind == "i"]
    if integer:
        m = np.column_stack([np.asarray(columns[j], dtype=np.int64) for j in integer])
        digits = np.where(m < 0, _U64(0) - m.view(np.uint64), m.view(np.uint64))
        for array, value in ((d, digits), (k, 0), (sign, m < 0), (kind, _INT)):
            array.reshape(-1, len(columns))[:, integer] = value
    return d, k, sign, kind


def _sources(d, k, sign, kind, width: int) -> tuple:
    """The source rows of the values, flat, and their template classes; the
    values are the rows of ``width`` columns in turn."""
    size = np.maximum(np.searchsorted(_P10, d, side="right"), 1)  # decimal digits of d
    left = d * _P10.take(_DIGITS - size)  # d left-aligned to 19 digits
    x = k + size - 1  # decimal exponent of the first digit
    head = left // _U64(10**16)
    left -= head * _U64(10**16)
    upper = left // _U64(10**8)
    left -= upper * _U64(10**8)
    groups = (head, upper // _U64(10**4), upper % _U64(10**4), left // _U64(10**4), left % _U64(10**4))
    quads, trailing = _quads()
    source = np.empty((d.size, _SOURCE // 4), dtype=np.uint32)
    for j, group in enumerate(groups + (np.abs(x),)):
        source[:, j] = quads.take(group)
    source[:, 6:] = _TAIL
    text = source.view(np.uint8)
    text.reshape(-1, width, _SOURCE)[:, -1, _SEP] = ord("\n")
    text[kind == _NAN, 1:4] = np.frombuffer(b"nan", dtype=np.uint8)
    text[kind == _INFINITE, 1:4] = np.frombuffer(b"inf", dtype=np.uint8)

    zeros = trailing.take(groups[4])  # trailing zeros of the 19 digits
    for j, group in enumerate(groups[3::-1], 1):
        zeros = np.where(zeros == 4 * j, 4 * j + trailing.take(group), zeros)
    n = np.select([kind == _FLOAT, kind == _INT], [np.maximum(_DIGITS - zeros, 1), size], 3)
    scientific = _POSITIONAL + (x < 0) + 2 * (np.abs(x) >= 100)
    layout = np.where(kind == _FLOAT, np.where((x >= -4) & (x < 16), x + 4, scientific), _BARE)
    return text.ravel(), (sign.astype(np.intp) * _DIGITS + n - 1) * _LAYOUTS + layout
