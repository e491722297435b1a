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

Bosonic operator sets are truncated; the tail-mass check guards against a
truncation too small for the occupation being represented.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "annihilation",
    "creation",
    "number_operator",
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


@dataclass(frozen=True)
class RelevantOperatorSet:
    """Operators P_m plus the pairing map tying adjoint partners together.

    ``pairing[m]`` is the index m' with P_{m'} = P_m^dagger; a self-paired
    index (pairing[m] == m) must hold a Hermitian operator.  Admissible
    multiplier vectors satisfy F_{m'} = conj(F_m), which makes
    sum_m F_m P_m Hermitian for every assignment.
    """

    operators: tuple
    pairing: tuple[int, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        if not ops:
            raise ValueError("operator set must not be empty")
        dim = ops[0].shape[0]
        if dim < 2:
            raise ValueError(f"operator dimension must be >= 2, got {dim}")
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError("all operators must be square with equal dimension")
        if sorted(self.pairing) != list(range(len(ops))):
            raise ValueError("pairing must be a permutation of the operator indices")
        for m, m_adj in enumerate(self.pairing):
            if self.pairing[m_adj] != m:
                raise ValueError("pairing must be an involution")
            diff = np.max(np.abs(ops[m_adj] - ops[m].conj().T))
            if diff > _ADJOINT_TOL:
                kind = "Hermitian" if m_adj == m else "the adjoint of its partner"
                raise ValueError(f"operator {m} is not {kind} (deviation {diff:.2e})")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "pairing", tuple(self.pairing))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class RelevantState:
    """Multipliers with the resulting normalization value and density matrix.

    ``levels`` and ``vectors`` are the eigendecomposition of the exponent
    sum_m F_m P_m that ``rho`` was built from.
    """

    multipliers: np.ndarray
    phi: float
    rho: np.ndarray
    levels: np.ndarray
    vectors: np.ndarray


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


def validate_multipliers(F, ops: RelevantOperatorSet, tol: float = _PAIRING_TOL) -> np.ndarray:
    """Check the pairing constraint and return the multipliers as an array."""
    return _check_pairing(F, ops, tol, "multipliers", f" within {tol}")


def _pairing_consistent_targets(targets, ops: RelevantOperatorSet) -> np.ndarray:
    return _check_pairing(
        targets, ops, 1e-12, "targets", "; the moment map of a Hermitian state cannot reach them"
    )


def build_state(F, ops: RelevantOperatorSet) -> RelevantState:
    """Construct the maximum-entropy state for the given multipliers.

    The Hermitian exponent is diagonalized and the normalization handled in
    log-sum-exp form, so the construction cannot overflow regardless of the
    eigenvalue spread (far-detuned weights underflow to exact zeros).
    """
    F = validate_multipliers(F, ops)
    exponent = np.zeros((ops.dim, ops.dim), dtype=complex)
    for coeff, op in zip(F, ops.operators):
        exponent += coeff * op
    exponent = 0.5 * (exponent + exponent.conj().T)

    levels, vectors = np.linalg.eigh(exponent)
    neg = -levels
    shift = float(neg.max())
    phi = shift + float(np.log(np.sum(np.exp(neg - shift))))
    if not np.isfinite(phi):
        raise MaxEntError(
            f"normalization is not finite (eigenvalue spread {np.ptp(neg):.3g})"
        )
    weights = np.exp(neg - phi)
    rho = (vectors * weights) @ vectors.conj().T
    return RelevantState(multipliers=F.copy(), phi=float(phi), rho=rho, levels=levels, vectors=vectors)


def moments(state: RelevantState, ops: RelevantOperatorSet) -> np.ndarray:
    """Averages Tr(P_m rho) for every operator in the set."""
    return np.array(
        [np.einsum("ij,ji->", op, state.rho) for op in ops.operators], dtype=complex
    )


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


def von_neumann(rho, tol: float = 1e-10) -> float:
    """Eigenvalue entropy -sum lambda ln lambda, with 0 ln 0 = 0."""
    rho = np.asarray(rho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise DensityMatrixError("matrix is not Hermitian within tolerance")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > tol:
        raise DensityMatrixError(f"trace {trace} differs from 1 beyond tolerance")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -tol:
        raise DensityMatrixError(
            f"negative eigenvalue {eigenvalues.min():.3e} beyond tolerance {tol}"
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
    levels, vectors = state.levels, state.vectors
    weights = np.exp(-levels - state.phi)
    gap = np.abs(levels[:, None] - levels[None, :])
    # k_ij = max(p_i, p_j) (1 - exp(-gap)) / gap: no cancellation between
    # near-degenerate levels, no overflow between far-apart ones, and the
    # limit 1 on the diagonal and at F = 0, where every level is equal.
    ratio = np.ones_like(gap)
    np.divide(-np.expm1(-gap), gap, out=ratio, where=gap > 0.0)
    root_kernel = np.sqrt(np.maximum.outer(weights, weights) * ratio)

    # Q_m' = Q_m^dagger for adjoint partners, so one product per pair.
    adjoint = vectors.conj().T
    rotated = np.empty((len(ops), ops.dim, ops.dim), dtype=complex)
    for m, m_adj in enumerate(ops.pairing):
        if m <= m_adj:
            rotated[m] = adjoint @ (ops.operators[m] @ vectors)
            rotated[m_adj] = rotated[m].conj().T
    means = np.einsum("mii,i->m", rotated, weights)
    # (Q_n)_ji = conj(Q_n')_ij, so the sum is the Gram matrix of the
    # Q_m sqrt(k), read at the partner column n'.
    scaled = (rotated * root_kernel).reshape(len(ops), -1)
    gram = scaled @ scaled.conj().T
    return np.outer(means, means) - gram[:, list(ops.pairing)]


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
        The bound is checked before convergence, so it holds for the start
        and for the returned multipliers too.
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
        x = (basis.conj().T @ F).real / np.sum(np.abs(basis) ** 2, axis=0)

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


def annihilation(dim: int) -> np.ndarray:
    """Truncated bosonic lowering operator on ``dim`` levels."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def creation(dim: int) -> np.ndarray:
    """Truncated bosonic raising operator on ``dim`` levels."""
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    """Occupation operator diag(0, 1, ..., dim - 1)."""
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def fock_operator_set(dim: int = 256) -> RelevantOperatorSet:
    """Bosonic set (raising, occupation, lowering) on a truncated ladder."""
    return RelevantOperatorSet(
        operators=(creation(dim), number_operator(dim), annihilation(dim)),
        pairing=(2, 1, 0),
    )


def spin_operator_set() -> RelevantOperatorSet:
    """Spin-1/2 set (raising, z-component with +-1/2 levels, lowering)."""
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.diag([0.5, -0.5]).astype(complex)
    return RelevantOperatorSet(
        operators=(raising, sz, raising.conj().T),
        pairing=(2, 1, 0),
    )


def fock_tail_mass(rho: np.ndarray, levels: int = 10) -> float:
    """Occupation probability carried by the top ``levels`` ladder states."""
    diag = np.real(np.diagonal(rho))
    return float(np.sum(diag[-levels:]))


def check_fock_tail(rho: np.ndarray, levels: int = 10, tol: float = 1e-10) -> None:
    """Raise if the truncated ladder carries visible weight at its top."""
    mass = fock_tail_mass(rho, levels)
    if mass > tol:
        raise TruncationError(
            f"top {levels} ladder states carry probability {mass:.3e} > {tol}; "
            "the truncation is too small for this occupation"
        )
