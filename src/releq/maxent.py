"""Finite-dimensional maximum-entropy engine.

Given a set of operators P_m and multipliers F_m, the reference state is

    rho = exp(-sum_m F_m P_m) / Z,    phi = ln Z = ln Tr exp(-sum_m F_m P_m),

the unique density matrix of maximal von Neumann entropy among all states
with the prescribed averages <P_m>.  A pairing map declares which operator
indices are mutual adjoints; multipliers respecting the pairing make the
exponent Hermitian by construction, so no post-hoc Hermiticity check is
needed.  The module provides the state builder, the moment map, its Newton
inversion (moments -> multipliers), the entropy phi + sum F_m <P_m>, and an
independent eigenvalue-based von Neumann entropy.

Sets whose operators are all zero off their three central diagonals (the
Fock and spin sets, and explicit tridiagonal ones) take a band path: their
exponent is a Hermitian tridiagonal matrix H with real diagonal and
superdiagonal u.  With the unit phases d_0 = 1, d_{j+1} = d_j conj(u_j)/|u_j|
(1 where u_j = 0), T = D^dagger H D is real symmetric with superdiagonal |u|,
so H = D T D^dagger exactly: T has the eigenvalues of H, and the
eigenvectors of H are D times the real eigenvectors of T (Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998).  The state is then built by a real
eigendecomposition and a real product, with the phases put back entrywise,
the moments are read from three diagonals of rho, and the moment Jacobian
rotates the operators by real products (``_rotated_operators``).  The Fock
and spin sets store only their bands.  Other sets take the dense complex
path.

Bosonic operator sets are truncated; the tail-mass check guards against a
truncation too small for the occupation being represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MaxEntError",
    "PairingError",
    "NonConvergenceError",
    "InfeasibleTargetsError",
    "TruncationError",
    "DensityMatrixError",
    "RelevantOperatorSet",
    "RelevantState",
    "fock_operator_set",
    "spin_operator_set",
    "fock_tail_mass",
    "check_fock_tail",
    "build_state",
    "moments",
    "moment_jacobian",
    "entropy",
    "von_neumann",
    "solve_self_consistency",
    "validate_multipliers",
]

_ADJOINT_TOL = 1e-12
_PAIRING_TOL = 1e-14
_DENSITY_TOL = 1e-10  # Hermiticity, trace and positivity in von_neumann
_TAIL_LEVELS = 10  # check_fock_tail: the top ladder states, and
_TAIL_TOL = 1e-10  # the largest probability they may carry


class MaxEntError(Exception):
    """Base class for maximum-entropy engine failures."""


class PairingError(MaxEntError):
    """Multipliers or targets violate the adjoint-pairing constraint."""


class NonConvergenceError(MaxEntError):
    """Newton inversion stalled; ``best_residual`` is the smallest reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class InfeasibleTargetsError(MaxEntError):
    """Targets appear to sit on or outside the attainable moment region."""


class TruncationError(MaxEntError):
    """Bosonic truncation too small for the represented occupation."""


class DensityMatrixError(MaxEntError):
    """Matrix is not a density matrix within tolerance."""


@dataclass(frozen=True, init=False, eq=False)
class RelevantOperatorSet:
    """Operators P_m plus the pairing map tying adjoint partners together.

    ``pairing[m]`` is the index m' with P_{m'} = P_m^dagger; a self-paired
    index (pairing[m] == m) must hold a Hermitian operator.  Admissible
    multiplier vectors satisfy F_{m'} = conj(F_m), which makes
    sum_m F_m P_m Hermitian for every assignment.

    ``bands`` is set when every operator is zero off its three central
    diagonals: the stacked (main, upper, lower) diagonals, of shapes
    (M, dim), (M, dim - 1) and (M, dim - 1).  It is None otherwise.  A set
    made by ``from_bands`` (the Fock and spin sets) stores only its bands
    and forms the dense ``operators`` anew at each request; a set made
    from dense matrices keeps them.
    """

    pairing: tuple[int, ...]
    bands: tuple | None = field(repr=False)
    _dense: tuple | None = field(repr=False)

    def __init__(self, operators, pairing):
        ops = tuple(np.asarray(op, dtype=complex) for op in operators)
        if not ops:
            raise ValueError("operator set must not be empty")
        dim = _checked_dim(ops[0].shape[0])
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError("all operators must be square with equal dimension")
        bands = None
        if not any(np.any(np.triu(op, 2)) or np.any(np.tril(op, -2)) for op in ops):
            bands = tuple(np.array([np.diagonal(op, k) for op in ops]) for k in (0, 1, -1))
        self._setup(ops, bands, pairing)

    @classmethod
    def from_bands(cls, main, upper, lower, pairing) -> RelevantOperatorSet:
        """The set of tridiagonal operators with diagonals ``main[m]``,
        superdiagonals ``upper[m]`` and subdiagonals ``lower[m]``."""
        main, upper, lower = np.asarray(main), np.asarray(upper), np.asarray(lower)
        if main.ndim != 2 or not len(main):
            raise ValueError("main must stack one diagonal per operator")
        dim = _checked_dim(main.shape[1])
        if upper.shape != lower.shape or upper.shape != (main.shape[0], dim - 1):
            raise ValueError("all operators must be square with equal dimension")
        ops = cls.__new__(cls)
        ops._setup(None, (main, upper, lower), pairing)
        return ops

    def _setup(self, dense, bands, pairing) -> None:
        """Check ``pairing`` against the operators, on their bands if they
        have them, and store it with ``dense`` (None for a band-only set)
        and ``bands``."""
        pairing = tuple(pairing)
        if bands is None:
            entries, adjoints = dense, [op.conj().T for op in dense]
        else:
            main, upper, lower = bands
            entries = np.concatenate(bands, axis=1)
            adjoints = np.concatenate((main, lower, upper), axis=1).conj()
        integers = all(isinstance(m, (int, np.integer)) and not isinstance(m, bool) for m in pairing)
        if not integers or sorted(pairing) != list(range(len(entries))):
            raise ValueError("pairing must be a permutation of the operator indices")
        for m, m_adj in enumerate(pairing):
            if pairing[m_adj] != m:
                raise ValueError("pairing must be an involution")
            diff = np.max(np.abs(entries[m_adj] - adjoints[m]))
            if diff > _ADJOINT_TOL:
                kind = "Hermitian" if m_adj == m else "the adjoint of its partner"
                raise ValueError(f"operator {m} is not {kind} (deviation {diff:.2e})")
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "_dense", dense)

    @property
    def operators(self) -> tuple:
        """The operators as dense complex dim x dim matrices."""
        if self._dense is not None:
            return self._dense
        return tuple(_tridiagonal(*diagonals, complex) for diagonals in zip(*self.bands))

    @property
    def dim(self) -> int:
        return self.bands[0].shape[1] if self._dense is None else len(self._dense[0])

    def __len__(self) -> int:
        return len(self.pairing)


def _checked_dim(dim: int) -> int:
    if dim < 2:
        raise ValueError(f"operator dimension must be >= 2, got {dim}")
    return dim


def _tridiagonal(main, upper, lower, dtype) -> np.ndarray:
    """The dense matrix with diagonal ``main``, superdiagonal ``upper`` and
    subdiagonal ``lower``."""
    dim = len(main)
    out = np.zeros((dim, dim), dtype=dtype)
    out.flat[:: dim + 1] = main
    out.flat[1 :: dim + 1] = upper
    out.flat[dim :: dim + 1] = lower
    return out


@dataclass(frozen=True)
class RelevantState:
    """Multipliers with the resulting normalization value and density matrix.

    ``levels`` and ``vectors`` are the eigendecomposition of the exponent
    sum_m F_m P_m that ``rho`` was built from.  A state built on the bands
    keeps only the factors of ``vectors = phases[:, None] * real_vectors``:
    the unit phases and the real eigenvectors of the phased exponent (see
    the module docstring), which ``moment_jacobian`` works with, and forms
    ``vectors`` from them at each request.  The factors are None for a
    state built from dense operators, which keeps ``vectors`` itself.
    """

    multipliers: np.ndarray
    phi: float
    rho: np.ndarray
    levels: np.ndarray
    _vectors: np.ndarray | None = field(repr=False)
    phases: np.ndarray | None = None
    real_vectors: np.ndarray | None = None

    @property
    def vectors(self) -> np.ndarray:
        """The eigenvectors of the exponent, as a complex dim x dim matrix."""
        if self.real_vectors is None:
            return self._vectors
        return self.phases[:, None] * self.real_vectors


def _check_pairing(values, ops: RelevantOperatorSet, tol: float, what: str, why: str) -> np.ndarray:
    """``values`` as an array of one entry per operator, after checking that
    ``values[pairing[m]]`` is the conjugate of ``values[m]`` within
    ``tol * max(1, max |values|)``; ``why`` ends the ``PairingError``."""
    values = np.asarray(values, dtype=complex).reshape(-1)
    if values.size != len(ops):
        raise ValueError(f"expected {len(ops)} {what}, got {values.size}")
    scale = max(1.0, float(np.max(np.abs(values))))
    for m, m_adj in enumerate(ops.pairing):
        if abs(values[m_adj] - values[m].conjugate()) > tol * scale:
            raise PairingError(f"{what} {m} and {m_adj} are not conjugate{why}")
    return values


def validate_multipliers(F, ops: RelevantOperatorSet) -> np.ndarray:
    """Check the pairing constraint and return the multipliers as an array."""
    return _check_pairing(F, ops, _PAIRING_TOL, "multipliers", f" within {_PAIRING_TOL}")


def _pairing_consistent_targets(targets, ops: RelevantOperatorSet) -> np.ndarray:
    return _check_pairing(
        targets, ops, 1e-12, "targets", "; the moment map of a Hermitian state cannot reach them"
    )


def build_state(F, ops: RelevantOperatorSet) -> RelevantState:
    """Construct the maximum-entropy state for the given multipliers.

    The Hermitian exponent is diagonalized and the normalization handled in
    log-sum-exp form, so the construction cannot overflow regardless of the
    eigenvalue spread (far-detuned weights underflow to exact zeros).  A
    tridiagonal set is diagonalized in real arithmetic on its bands (see the
    module docstring); an exponent that is not finite raises before any
    eigendecomposition.
    """
    F = validate_multipliers(F, ops)
    if ops.bands is None:
        exponent = np.zeros((ops.dim, ops.dim), dtype=complex)
        for coeff, op in zip(F, ops.operators):
            exponent += coeff * op
        exponent = 0.5 * (exponent + exponent.conj().T)
        _check_finite(exponent)
        levels, vectors = np.linalg.eigh(exponent)
        phi, weights = _normalization(levels)
        rho = (vectors * weights) @ vectors.conj().T
        return RelevantState(F.copy(), phi, rho, levels, vectors)
    diagonal = np.zeros(ops.dim, dtype=complex)
    upper = np.zeros(ops.dim - 1, dtype=complex)
    lower = np.zeros(ops.dim - 1, dtype=complex)
    for coeff, main_m, upper_m, lower_m in zip(F, *ops.bands):
        diagonal += coeff * main_m
        upper += coeff * upper_m
        lower += coeff * lower_m
    diagonal = diagonal.real
    upper = 0.5 * (upper + lower.conj())
    _check_finite(diagonal, upper)
    magnitude = np.abs(upper)
    steps = np.ones(ops.dim, dtype=complex)
    np.divide(upper.conj(), magnitude, out=steps[1:], where=magnitude > 0.0)
    phases = np.cumprod(steps)
    levels, real_vectors = np.linalg.eigh(_tridiagonal(diagonal, magnitude, magnitude, float))
    phi, weights = _normalization(levels)
    rho = np.multiply.outer(phases, phases.conj())
    rho *= (real_vectors * weights) @ real_vectors.T
    return RelevantState(F.copy(), phi, rho, levels, None, phases, real_vectors)


def _check_finite(*parts: np.ndarray) -> None:
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise MaxEntError("the exponent sum_m F_m P_m is not finite; the multipliers are too large")


def _normalization(levels: np.ndarray) -> tuple[float, np.ndarray]:
    """``phi = ln sum_i exp(-levels_i)`` in log-sum-exp form, and the weights
    exp(-levels - phi)."""
    neg = -levels
    shift = float(neg.max())
    phi = shift + float(np.log(np.sum(np.exp(neg - shift))))
    if not np.isfinite(phi):
        raise MaxEntError(
            f"normalization is not finite (eigenvalue spread {np.ptp(neg):.3g})"
        )
    return phi, np.exp(neg - phi)


def moments(state: RelevantState, ops: RelevantOperatorSet) -> np.ndarray:
    """Averages Tr(P_m rho) for every operator in the set.

    For a tridiagonal set only three diagonals of rho enter:
    Tr(P rho) = sum_i P_ii rho_ii + P_{i,i+1} rho_{i+1,i} + P_{i+1,i} rho_{i,i+1}.
    """
    if ops.bands is None:
        return np.array(
            [np.einsum("ij,ji->", op, state.rho) for op in ops.operators], dtype=complex
        )
    main, upper, lower = ops.bands
    rho = state.rho
    return main @ np.diagonal(rho) + upper @ np.diagonal(rho, -1) + lower @ np.diagonal(rho, 1)


def entropy(state: RelevantState, targets) -> float:
    """Entropy phi + sum_m F_m <P_m> of a state matching ``targets``.

    The sum is real for pairing-consistent inputs; an imaginary residue
    above 1e-10 signals a pairing violation and raises.
    """
    targets = np.asarray(targets, dtype=complex).reshape(-1)
    value = state.phi + np.sum(state.multipliers * targets)
    if abs(value.imag) > 1e-10:
        raise PairingError(
            f"entropy has imaginary residue {value.imag:.3e}; multipliers and "
            "targets do not respect the pairing"
        )
    return float(value.real)


def von_neumann(rho) -> float:
    """Eigenvalue entropy -sum lambda ln lambda, with 0 ln 0 = 0."""
    rho = np.asarray(rho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > _DENSITY_TOL:
        raise DensityMatrixError("matrix is not Hermitian within tolerance")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > _DENSITY_TOL:
        raise DensityMatrixError(f"trace {trace} differs from 1 beyond tolerance")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -_DENSITY_TOL:
        raise DensityMatrixError(
            f"negative eigenvalue {eigenvalues.min():.3e} beyond tolerance {_DENSITY_TOL}"
        )
    positive = eigenvalues[eigenvalues > 0.0]
    return float(-np.sum(positive * np.log(positive)))


# ---------------------------------------------------------------------------
# Newton inversion of the moment map.


def moment_jacobian(state: RelevantState, ops: RelevantOperatorSet) -> np.ndarray:
    """Derivatives d<P_m>/dF_n at ``state``, from its eigendecomposition.

    With the exponent's eigenpairs (lambda_i, V), weights
    p_i = exp(-lambda_i - phi) and rotated operators Q_m = V^dagger P_m V,

        d<P_m>/dF_n = -sum_ij (Q_m)_ij (Q_n)_ji k_ij + <P_m><P_n>,

    where k_ij = (p_i - p_j) / (lambda_j - lambda_i) and k_ii = p_i: minus
    the Kubo-Mori covariance, the Hessian of phi (Petz and Toth 1993).  Only
    admissible directions dF are meaningful, but those span every index.
    """
    levels = state.levels
    weights = np.exp(-levels - state.phi)
    gap = np.abs(levels[:, None] - levels[None, :])
    # k_ij = max(p_i, p_j) (1 - exp(-gap)) / gap: no cancellation between
    # near-degenerate levels, no overflow between far-apart ones, and the
    # limit 1 on the diagonal and at F = 0, where every level is equal.
    ratio = np.ones_like(gap)
    np.divide(-np.expm1(-gap), gap, out=ratio, where=gap > 0.0)
    root_kernel = np.sqrt(np.maximum.outer(weights, weights) * ratio)

    rotated = _rotated_operators(state, ops)
    means = np.einsum("mii,i->m", rotated, weights)
    # (Q_n)_ji = conj(Q_n')_ij, so the sum is the Gram matrix of the
    # Q_m sqrt(k), read at the partner column n'; ``vdot`` conjugates its
    # first argument without a copy.
    rotated *= root_kernel
    scaled = rotated.reshape(len(ops), -1)
    gram = np.array([[np.vdot(b, a) for b in scaled] for a in scaled])
    return np.outer(means, means) - gram[:, list(ops.pairing)]


def _rotated_operators(state: RelevantState, ops: RelevantOperatorSet) -> np.ndarray:
    """The stacked Q_m = V^dagger P_m V, one product per adjoint pair, as
    Q_m' = Q_m^dagger.

    On the bands, V = D W with D the unit phases and W real, so
    Q_m = W^T B_m W with B_m = D^dagger P_m D tridiagonal: B_m W costs
    O(dim^2), and W^T times its real and imaginary parts is one real
    product with the complex array read as interleaved real columns.
    """
    rotated = np.empty((len(ops), ops.dim, ops.dim), dtype=complex)
    pairs = [(m, m_adj) for m, m_adj in enumerate(ops.pairing) if m <= m_adj]
    if state.real_vectors is None:
        vectors, operators = state.vectors, ops.operators
        for m, _ in pairs:
            rotated[m] = vectors.conj().T @ (operators[m] @ vectors)
    else:
        real_vectors = state.real_vectors
        # The bands of every B_m: (B_m)_{i,i+1} = conj(d_i) d_{i+1} P_{i,i+1}.
        turn = state.phases[1:] * state.phases[:-1].conj()
        main, upper, lower = ops.bands
        upper, lower = upper * turn, lower * turn.conj()
        banded = np.empty_like(rotated[0])
        for m, _ in pairs:
            np.multiply(main[m][:, None], real_vectors, out=banded)
            banded[:-1] += upper[m][:, None] * real_vectors[1:]
            banded[1:] += lower[m][:, None] * real_vectors[:-1]
            np.matmul(real_vectors.T, banded.view(float), out=rotated[m].view(float))
    for m, m_adj in pairs:
        rotated[m_adj] = rotated[m].conj().T
    return rotated


def _real_basis(pairing: tuple[int, ...]) -> np.ndarray:
    """Columns spanning the admissible multipliers: F = basis @ x, x real.

    A self-paired index gets the unit column e_m; a pair (m, m') gets
    e_m + e_m' and i (e_m - e_m'), so F_m' = conj(F_m) for every x.
    """
    eye = np.eye(len(pairing))
    columns = []
    for m, m_adj in enumerate(pairing):
        if m_adj == m:
            columns.append(eye[m])
        elif m < m_adj:
            columns += [eye[m] + eye[m_adj], 1j * (eye[m] - eye[m_adj])]
    return np.array(columns, dtype=complex).T


def solve_self_consistency(
    targets,
    ops: RelevantOperatorSet,
    initial_F=None,
    tol: float = 1e-10,
    max_iter: int = 200,
    multiplier_bound: float = 20.0,
) -> np.ndarray:
    """Find multipliers whose state reproduces ``targets``.

    Damped Newton iteration in the real coordinates x of F = basis @ x on
    the residual basis^T (<P> - targets), which is minus the gradient of
    the convex dual phi(F) + sum_m F_m targets_m.  The Jacobian is exact
    (``moment_jacobian``), and the backtracking line search asks the
    residual norm to fall: near convergence the dual's own decrease is
    below its rounding.  Each trial costs one eigendecomposition, and the
    accepted one serves the next iteration.  Convergence means the max-norm
    of the complex moment residual drops below ``tol``.

    Raises
    ------
    InfeasibleTargetsError
        If the multipliers run away beyond ``multiplier_bound``, the
        signature of targets on or outside the attainable moment region.
        The bound is checked before convergence, so it holds for the
        returned multipliers too, and on the start before its state is
        built.
        Boundary targets (pure states) would otherwise "converge" to
        arbitrary huge multipliers once the residual saturates below
        ``tol``; the default bound of 20 rejects them while leaving ample
        room for every interior state this package produces (|F| < 10).
        Raise the bound explicitly for problems that legitimately sit
        within exp(-20) of the boundary.
    NonConvergenceError
        If ``max_iter`` damped steps do not reach ``tol``.
    """
    targets = _pairing_consistent_targets(targets, ops)
    basis = _real_basis(ops.pairing)

    if initial_F is None:
        x = np.zeros(basis.shape[1])
    else:
        F = validate_multipliers(initial_F, ops)
        with np.errstate(over="ignore", invalid="ignore"):
            x = (basis.conj().T @ F).real / np.sum(np.abs(basis) ** 2, axis=0)
        if not np.all(np.abs(x) <= multiplier_bound):
            raise InfeasibleTargetsError(
                f"the start multipliers exceed {multiplier_bound} in magnitude; targets look "
                "infeasible (boundary or exterior of the moment region), or a given start is too far out"
            )

    def evaluate(x_vec: np.ndarray) -> tuple[RelevantState, np.ndarray, float]:
        state = build_state(basis @ x_vec, ops)
        res = moments(state, ops) - targets
        return state, (basis.T @ res).real, float(np.max(np.abs(res)))

    state, residual, res_inf = evaluate(x)
    best = res_inf

    for iteration in range(max_iter + 1):
        if np.max(np.abs(x)) > multiplier_bound:
            raise InfeasibleTargetsError(
                f"multipliers exceeded {multiplier_bound} with residual {res_inf:.3e}; "
                "targets look infeasible (boundary or exterior of the moment region)"
            )
        if res_inf <= tol:
            return basis @ x
        if iteration == max_iter:
            break

        jac = (basis.T @ moment_jacobian(state, ops) @ basis).real
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -residual, rcond=None)[0]

        norm0 = np.linalg.norm(residual)
        damping = 1.0
        while True:
            trial_x = x + damping * step
            trial_state, trial_residual, trial_inf = evaluate(trial_x)
            if damping <= 2.0**-30 or np.linalg.norm(trial_residual) <= (1.0 - 1e-4 * damping) * norm0:
                break
            damping *= 0.5
        x, state, residual, res_inf = trial_x, trial_state, trial_residual, trial_inf
        best = min(best, res_inf)

    raise NonConvergenceError(
        f"Newton inversion did not reach {tol} in {max_iter} iterations "
        f"(best residual {best:.3e})",
        best,
    )


# ---------------------------------------------------------------------------
# Standard operator sets.


def fock_operator_set(dim: int = 256) -> RelevantOperatorSet:
    """Bosonic set (raising, occupation, lowering) on a truncated ladder."""
    ladder = np.sqrt(np.arange(1, dim, dtype=float))
    empty = np.zeros_like(ladder)
    return RelevantOperatorSet.from_bands(
        main=[np.zeros(dim), np.arange(dim, dtype=float), np.zeros(dim)],
        upper=[empty, empty, ladder],
        lower=[ladder, empty, empty],
        pairing=(2, 1, 0),
    )


def spin_operator_set() -> RelevantOperatorSet:
    """Spin-1/2 set (raising, z-component with +-1/2 levels, lowering)."""
    return RelevantOperatorSet.from_bands(
        main=[[0.0, 0.0], [0.5, -0.5], [0.0, 0.0]],
        upper=[[1.0], [0.0], [0.0]],
        lower=[[0.0], [0.0], [1.0]],
        pairing=(2, 1, 0),
    )


def fock_tail_mass(rho: np.ndarray) -> float:
    """Occupation probability carried by the top ``_TAIL_LEVELS`` ladder states."""
    diag = np.real(np.diagonal(rho))
    return float(np.sum(diag[-_TAIL_LEVELS:]))


def check_fock_tail(rho: np.ndarray) -> None:
    """Raise if the truncated ladder carries visible weight at its top."""
    mass = fock_tail_mass(rho)
    if mass > _TAIL_TOL:
        raise TruncationError(
            f"top {_TAIL_LEVELS} ladder states carry probability {mass:.3e} > {_TAIL_TOL}; "
            "the truncation is too small for this occupation"
        )
