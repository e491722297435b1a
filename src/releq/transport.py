"""Run set-up and propagators shared by the oscillator and two-level
transport models: the output grid, the argument checks, the kernels of a
regime, and the solution of their linear equations in both regimes.

Both models are linear equations ``y' = A(t) y + b(t)`` on three real
components.  The model's ``_linear_system`` builds the top rows
``G = [A | b]``, shape (..., 3, 4), of their generator from the kernel pair
``(f, f_beta)``, and both propagators take G as it is: a step maps the
augmented state ``(y, 1)`` by the exponential of an augmented generator
``[[A, b], [0, 0]]``.  ``simulate`` is the one place that chooses the
kernels and the propagator of a regime.  In the Markovian regime the
kernels are frozen at their long-time values, so G is constant and
``propagate_linear`` takes the powers of its one exact step map.  No fixed
point is needed, so a bath whose golden-rule rate ``Re f_inf`` underflows
(``omega0 / W`` above about 745) runs undamped.

In the non-Markovian regime A and b follow the kernels in time, and
``propagate_magnus`` takes fixed steps of the sixth-order Magnus integrator,
reading its steps and the kernels on them off ``bath.step_kernels``, a
chunk at a time.  The step rule starts from the kernels' own time scale 1/W
and needs no error control; see ``propagate_magnus``.  Neither propagator
takes a tolerance; ``check_tolerances`` serves the CLI's configuration check
and ``odeint``.

``_augmented_expm`` is the one exponential: a Taylor polynomial on the top
rows ``[A | b]`` for a small matrix, Pade scaling and squaring for a larger
one.  ``_compose`` is the one composer: it applies step maps in blocks,
which start at fixed multiples of the run's step index (``bath._BLOCK``),
from their ``_prefix_products`` within every block and one pass over the
block ends.  The Magnus path forms the prefix products of its maps; the
Markovian one forms those of one block of its map and reuses them in every
block.

The Magnus path's step maps do not depend on the initial state, so they are
memoized: a run that shares the model, drive, bath and grid of one of the
last two runs composes that run's maps (see ``_step_maps``).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from functools import partial

import numpy as np

from . import bath
from .bath import _BLOCK


class InvariantViolationError(RuntimeError):
    """A trajectory left the domain of the thermodynamic formulas."""


class PropagationError(RuntimeError):
    """A propagator cannot take the run: a step's exponent or the solution is
    not finite."""


def check_tolerances(rel_tol: float, abs_tol: float) -> None:
    """Raise ValueError unless both tolerances lie in (0, 1e-2]."""
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < tol <= 1e-2:
            raise ValueError(f"{name} must lie in (0, 1e-2], got {tol}")


def sample_times(t_max: float, dt_out: float) -> np.ndarray:
    """Output grid 0, dt_out, 2 dt_out, ... up to t_max (within 1e-9 of a step)."""
    return np.arange(int(math.floor(t_max / dt_out + 1e-9)) + 1) * dt_out


# Degree-13 Pade coefficients and the largest 1-norm for which the
# approximant alone meets double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26 (2005) 1179, table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# Degree-12 Taylor coefficients 1/k! and the largest 1-norm they serve: the
# truncation there is below 0.25**13 / 13! < 2.5e-18.
_TAYLOR12 = tuple(1.0 / math.factorial(k) for k in range(13))
_THETA12 = 0.25


def _augmented_expm(top) -> np.ndarray:
    """Exponential of each augmented matrix ``[[A, b], [0, 0]]`` of a stack
    given by its finite top rows ``[A | b]``, shape (n, 3, 4); returns the
    (n, 4, 4) exponentials, whose last rows are exactly ``(0, 0, 0, 1)``.

    The choice is made per matrix, so a matrix of a stack gets the
    exponential it gets alone; the zero last row adds nothing to a column's
    1-norm.  A matrix whose 1-norm is at most 0.25 takes the degree-12
    Taylor polynomial, evaluated by Paterson and Stockmeyer (SIAM J. Comput.
    2 (1973) 60) on the top rows (see ``_taylor12_top``).  Any other is
    halved until its 1-norm is at most theta_13, the [13/13] Pade
    approximant is taken on the whole matrix, and the result squared back.
    """
    n = len(top)
    result = np.zeros((n, 4, 4))
    result[:, 3, 3] = 1.0
    # The 1-norms, with the sums and maxima over the small axes unrolled
    # (numpy's reductions over them cost more than the Taylor products).
    a = np.abs(top)
    columns = a[:, 0] + a[:, 1] + a[:, 2]
    norm = np.maximum(np.maximum(columns[:, 0], columns[:, 1]), np.maximum(columns[:, 2], columns[:, 3]))
    small = norm <= _THETA12
    if small.any():
        result[small, :3] = _taylor12_top(top[small])
    if not small.all():
        whole = np.zeros((n - np.count_nonzero(small), 4, 4))
        whole[:, :3] = top[~small]
        result[~small] = _pade13(whole, norm[~small])
        # The solve leaves the last row at (0, 0, 0, 1 - 2**-53), which a
        # long run would carry as its constant.
        result[~small, 3] = (0.0, 0.0, 0.0, 1.0)
    return result


def _taylor12_top(t) -> np.ndarray:
    """Top rows of the degree-12 Taylor polynomial of the exponentials of the
    augmented matrices with top rows ``t``.

    The powers of an augmented matrix have zero last rows, and a product
    ``x y`` of two such has the top rows ``A_x [A_y | b_y]``.  A sum with
    the identity, ``[[T], [0, 0, 0, s]]``, is kept as ``(T, s)``: ``a4``
    times it has the top rows ``A4 T + s b4 e_4``, where ``[A4 | b4]`` are
    the top rows of ``a4``.
    """
    c = _TAYLOR12
    ident = np.eye(3, 4)
    t2 = t[..., :3] @ t
    t3 = t2[..., :3] @ t
    t4 = t2[..., :3] @ t2

    def cubic(k):  # top rows of c[k] + c[k+1] a + c[k+2] a^2 + c[k+3] a^3; s = c[k]
        return c[k] * ident + c[k + 1] * t + c[k + 2] * t2 + c[k + 3] * t3

    def times_a4(x, s):  # top rows of a4 @ (x, s)
        out = t4[..., :3] @ x
        out[..., 3] += s * t4[..., 3]
        return out

    return cubic(0) + times_a4(cubic(4) + times_a4(cubic(8) + c[12] * t4, c[8]), c[4])


def _pade13(a, norm) -> np.ndarray:
    squarings = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a * 0.5 ** squarings[:, None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    result = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        result[more] = result[more] @ result[more]
    return result


def _prefix_products(maps) -> np.ndarray:
    """``prefix[j, i] = maps[48 j + i] @ ... @ maps[48 j]``, shape
    ``(blocks, _BLOCK, d, d)``: the prefix products within each block of
    ``_BLOCK`` maps, formed for all blocks at once.  The last block is
    filled up with identities."""
    n, d = len(maps), maps.shape[-1]
    blocks = -(-n // _BLOCK)
    prefix = np.empty((blocks * _BLOCK, d, d))
    prefix[:n] = maps
    prefix[n:] = np.eye(d)
    prefix = prefix.reshape(blocks, _BLOCK, d, d)
    for i in range(1, _BLOCK):
        np.matmul(prefix[:, i], prefix[:, i - 1], out=prefix[:, i])
    return prefix


def _compose(prefix, y) -> tuple[np.ndarray, np.ndarray]:
    """``(path, end)``: ``path[48 j + i] = prefix[j, i] @ prefix[j - 1, -1] @
    ... @ prefix[0, -1] @ y``, shape ``(blocks * _BLOCK, len(y))``, and ``end``
    that product carried past the last block.  With the ``_prefix_products``
    of a run's maps, ``path[k] = maps[k] @ ... @ maps[0] @ y``.

    One pass over the block ends carries ``y`` to every block start and to
    ``end``, and one batched product gives every state.
    """
    blocks, d = len(prefix), y.size
    starts = np.empty((blocks + 1, d))
    starts[0] = y
    for j in range(1, blocks + 1):
        starts[j] = prefix[j - 1, -1] @ starts[j - 1]
    return np.einsum("jiab,jb->jia", prefix, starts[:-1]).reshape(-1, d), starts[-1]


def propagate_linear(G, y0, times) -> np.ndarray:
    """Samples of ``y' = A y + b``, ``y(0) = y0``, on ``times[k] = k * dt``,
    for the constant top rows ``G = [A | b]``, shape (3, 4).

    Returns an array of shape ``(len(times), 3)``; the first sample is
    ``y0`` itself.  One step maps the augmented state ``(y, 1)`` by the
    exact ``_augmented_expm(dt G)`` (Van Loan, IEEE Trans. Autom. Control 23
    (1978) 395).  Its powers 1 ... 48 are the prefix products of one block,
    formed once and applied to every block by ``_compose``, so that sample
    k is the k-th power applied to ``(y0, 1)``.

    Raises ``PropagationError`` where ``G dt`` or a sample is not finite.
    """
    G = np.asarray(G, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    times = np.asarray(times, dtype=float)
    dt = float(times[1]) if times.size > 1 else 0.0
    if times.size == 0 or not np.array_equal(times, np.arange(times.size) * dt):
        raise ValueError("propagate_linear needs the grid times[k] = k * times[1], k = 0, 1, ...")
    with np.errstate(over="ignore"):
        scaled = G * dt
    if not np.all(np.isfinite(scaled)):
        raise PropagationError(f"G dt is not finite at dt = {dt:.3g}")

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples are refused below
        step = _augmented_expm(scaled[None])[0]
        powers = _prefix_products(np.broadcast_to(step, (_BLOCK, 4, 4)))
        blocks = -(-times.size // _BLOCK)
        path, _ = _compose(np.broadcast_to(powers, (blocks, _BLOCK, 4, 4)), np.append(y0, 1.0))
    states = np.empty((times.size, 3))
    states[0] = y0
    states[1:] = path[: times.size - 1, :3]
    return _finite(states, times)


def _commutator(x, y):
    """Top rows of ``[x, y]`` for augmented matrices given by their top rows
    ``[A | b]``: the last rows are zero, so ``x y`` has the top rows
    ``A_x [A_y | b_y]``."""
    return x[..., :3] @ y - y[..., :3] @ x


def _magnus_exponents(linear_system, f, f_beta, widths) -> np.ndarray:
    """Top rows ``[A | b]``, shape (steps, 3, 4), of the sixth-order Magnus
    exponents of the steps of ``widths`` whose kernels at the three
    Gauss-Legendre nodes are ``f`` and ``f_beta``, shape (steps, 3) (see
    ``propagate_magnus``)."""
    G = linear_system(f, f_beta)
    h = widths[:, None, None]
    a1 = h * G[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * h * (G[:, 2] - G[:, 0])
    a3 = (10.0 / 3.0) * h * (G[:, 2] - 2.0 * G[:, 1] + G[:, 0])
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def propagate_magnus(linear_system, params: bath.BathParams, y0, times, drive=()) -> np.ndarray:
    """Samples of ``y' = A(t) y + b(t)``, ``y(0) = y0``, on ``times[k] = k * dt``.

    ``linear_system(*drive, f, f_beta)`` gives the top rows ``[A | b]`` of
    the generator for the kernel values of the bath ``params``, given as
    arrays, with their shape plus (3, 4); ``drive`` holds the model's
    numbers besides the kernels.  Returns an array of shape
    ``(len(times), 3)``; the first sample is ``y0`` itself.

    The steps, and the kernels on them, are those of ``bath.step_kernels``:
    every output interval is cut into the equal steps of
    ``bath.step_counts``, so every sample ends a step.  A step of length h
    maps the augmented state ``(y, 1)`` by ``exp(Omega)``, the
    sixth-order Magnus exponent of the generator ``G = [[A, b], [0, 0]]`` at
    the three Gauss-Legendre nodes of the step (Blanes, Casas and Ros, BIT
    40 (2000) 434; Blanes, Casas, Oteo and Ros, Phys. Rep. 470 (2009) 151):

        a1 = h G2,  a2 = sqrt(15) h / 3 (G3 - G1),  a3 = 10 h / 3 (G3 - 2 G2 + G1),
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
        Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240.

    The steps are taken a chunk of ``bath.step_kernels`` at a time: their
    exponents and exponentials at once, then the maps composed in blocks by
    ``_compose``; chunks and blocks start at fixed multiples of the run's
    step index, so no state depends on the chunk length.
    The exponents and their Taylor exponentials are formed on the top rows
    ``[A | b]`` of the augmented matrices.  An exponent's 1-norm is at most
    0.14 on the README bath, so it takes the Taylor path there.  The maps
    come from ``_step_maps``, which memoizes them; ``y0`` enters only here.

    Raises ``PropagationError`` where an exponent or a sample is not finite.
    """
    y0 = np.asarray(y0, dtype=float)
    times = np.asarray(times, dtype=float)
    states = np.empty((times.size, y0.size))
    states[0] = y0
    y = np.append(y0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        for rows, ends, prefix in _step_maps(linear_system, drive, params, times):
            path, y = _compose(prefix, y)
            states[rows] = path[ends, :3]
    return _finite(states, times)


# The memo of ``_step_maps``: the maps of at most _STEP_MAPS_ENTRIES runs,
# the most recently used last, each of at most _STEP_MAPS_STEPS steps.  Two
# entries serve the two models taking turns on one bath.  A step's prefix
# product takes 128 bytes, so an entry holds at most about 4 MiB; the maps
# of a README run (2,150 steps) take 276 KB.
_STEP_MAPS = OrderedDict()
_STEP_MAPS_LOCK = threading.Lock()
_STEP_MAPS_ENTRIES = 2
_STEP_MAPS_STEPS = 2**15


def _step_maps(linear_system, drive, params: bath.BathParams, times: np.ndarray):
    """Per chunk of ``bath.step_kernels``, ``(rows, ends, prefix)``: the
    rows of the states that its steps end, those steps' indices within the
    chunk, and the read-only ``_prefix_products`` of its step maps (see
    ``propagate_magnus``).  Raises ``PropagationError`` where an exponent is
    not finite.

    The chunks are memoized by the model's function, the bath, and the bit
    patterns of ``drive`` and ``times``; a hit yields the stored arrays, so
    the states have the bits of a cold run.  A run of at most
    _STEP_MAPS_STEPS steps is stored once all its chunks are taken, so a run
    that raises stores nothing; a longer one, known by its step count before
    its first chunk, keeps none.  The lock guards the bookkeeping only: two
    runs that miss one key both form its maps.
    """
    key = (linear_system, np.asarray(drive, dtype=float).tobytes(), params, times.tobytes())
    with _STEP_MAPS_LOCK:
        chunks = _STEP_MAPS.get(key)
        if chunks is not None:
            _STEP_MAPS.move_to_end(key)
    if chunks is not None:
        yield from chunks
        return
    system = partial(linear_system, *drive)
    kept = [] if bath.step_counts(times, params).sum() <= _STEP_MAPS_STEPS else None
    for interval, last, starts, widths, f, f_beta in bath.step_kernels(params, times):
        omega = _magnus_exponents(system, f[:, :3], f_beta[:, :3], widths)
        finite = np.isfinite(omega).all(axis=(1, 2))
        if not finite.all():
            raise PropagationError(f"the Magnus exponent is not finite at t = {starts[np.argmin(finite)]:.6g}")
        chunk = (interval[last] + 1, np.flatnonzero(last), _prefix_products(_augmented_expm(omega)))
        for array in chunk:
            array.flags.writeable = False
        if kept is not None:
            kept.append(chunk)
        yield chunk
    if kept is not None:
        with _STEP_MAPS_LOCK:
            _STEP_MAPS[key] = kept
            _STEP_MAPS.move_to_end(key)
            while len(_STEP_MAPS) > _STEP_MAPS_ENTRIES:
                _STEP_MAPS.popitem(last=False)


def _finite(states, times) -> np.ndarray:
    """``states``; raises ``PropagationError`` at the first sample that is not finite."""
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise PropagationError(f"the propagated state is not finite at t = {times[np.argmin(finite)]:.6g}")
    return states


def simulate(linear_system, params: bath.BathParams, regime: str, y0, t_max: float, dt_out: float, drive=()):
    """``(times, states)`` of one transport run on the bath ``params``.

    ``linear_system(*drive, f, f_beta)`` gives the top rows ``[A | b]`` of
    the model's generator; ``y0`` holds its three components at t = 0.  The
    samples are ``sample_times(t_max, dt_out)`` and the states have shape
    ``(len(times), 3)``.  The Markovian regime freezes the kernels at
    ``bath.markovian_limits`` and propagates exactly (``propagate_linear``);
    the non-Markovian one takes Magnus steps (``propagate_magnus``), which
    integrate the kernels as they go.

    Raises ``ValueError`` for an unknown regime, a non-finite ``t_max`` or
    ``dt_out``, or unless ``0 < dt_out <= t_max``.
    """
    if regime not in bath.REGIMES:
        raise ValueError(f"regime must be one of {bath.REGIMES}, got {regime!r}")
    if not (math.isfinite(t_max) and math.isfinite(dt_out)):
        raise ValueError(f"t_max and dt_out must be finite, got t_max = {t_max}, dt_out = {dt_out}")
    if not 0 < dt_out <= t_max:
        raise ValueError(f"need 0 < dt_out <= t_max, got dt_out = {dt_out}, t_max = {t_max}")
    times = sample_times(t_max, dt_out)
    if regime == "markovian":
        limits = bath.markovian_limits(params)
        return times, propagate_linear(linear_system(*drive, limits.f_inf, limits.f_beta_inf), y0, times)
    return times, propagate_magnus(linear_system, params, y0, times, drive)
