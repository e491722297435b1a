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
    """Multipliers with the resulting normalization value and density matrix."""

    multipliers: np.ndarray
    phi: float
    rho: np.ndarray


def validate_multipliers(F, ops: RelevantOperatorSet, tol: float = _PAIRING_TOL) -> np.ndarray:
    """Check the pairing constraint and return the multipliers as an array."""
    F = np.asarray(F, dtype=complex).reshape(-1)
    if F.size != len(ops):
        raise ValueError(f"expected {len(ops)} multipliers, got {F.size}")
    scale = max(1.0, float(np.max(np.abs(F))))
    for m, m_adj in enumerate(ops.pairing):
        if abs(F[m_adj] - F[m].conjugate()) > tol * scale:
            raise PairingError(
                f"multipliers {m} and {m_adj} are not conjugate within {tol}"
            )
    return F


def _pairing_consistent_targets(targets, ops: RelevantOperatorSet) -> np.ndarray:
    targets = np.asarray(targets, dtype=complex).reshape(-1)
    if targets.size != len(ops):
        raise ValueError(f"expected {len(ops)} targets, got {targets.size}")
    scale = max(1.0, float(np.max(np.abs(targets))))
    for m, m_adj in enumerate(ops.pairing):
        if abs(targets[m_adj] - targets[m].conjugate()) > 1e-12 * scale:
            raise PairingError(
                f"targets {m} and {m_adj} are not conjugate; the moment map of a "
                "Hermitian state cannot reach them"
            )
    return targets


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
    return RelevantState(multipliers=F.copy(), phi=float(phi), rho=rho)


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


def _independent_coords(pairing: tuple[int, ...]) -> list[tuple[str, int]]:
    """Real coordinates spanning the admissible multiplier manifold."""
    coords: list[tuple[str, int]] = []
    for m, m_adj in enumerate(pairing):
        if m_adj == m:
            coords.append(("real", m))
        elif m < m_adj:
            coords.append(("pair_re", m))
            coords.append(("pair_im", m))
    return coords


def _unpack(x: np.ndarray, coords, pairing, size: int) -> np.ndarray:
    F = np.zeros(size, dtype=complex)
    for value, (kind, m) in zip(x, coords):
        if kind == "real":
            F[m] += value
        elif kind == "pair_re":
            F[m] += value
            F[pairing[m]] += value
        else:
            F[m] += 1j * value
            F[pairing[m]] -= 1j * value
    return F


def _pack(values: np.ndarray, coords) -> np.ndarray:
    """Real coordinates of a multiplier or residual vector; undoes ``_unpack``."""
    out = np.empty(len(coords))
    for k, (kind, m) in enumerate(coords):
        out[k] = values[m].imag if kind == "pair_im" else values[m].real
    return out


def solve_self_consistency(
    targets,
    ops: RelevantOperatorSet,
    initial_F=None,
    tol: float = 1e-10,
    max_iter: int = 200,
    multiplier_bound: float = 20.0,
) -> np.ndarray:
    """Find multipliers whose state reproduces ``targets``.

    Damped Newton iteration on the packed real residual with a
    finite-difference Jacobian and a backtracking line search on the
    residual norm.  Convergence means the max-norm of the complex moment
    residual drops below ``tol``.

    Raises
    ------
    InfeasibleTargetsError
        If the multipliers run away beyond ``multiplier_bound``, the
        signature of targets on or outside the attainable moment region.
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
    coords = _independent_coords(ops.pairing)

    if initial_F is None:
        x = np.zeros(len(coords))
    else:
        x = _pack(validate_multipliers(initial_F, ops), coords)

    def residual_of(x_vec: np.ndarray) -> tuple[np.ndarray, float]:
        F = _unpack(x_vec, coords, ops.pairing, len(ops))
        res = moments(build_state(F, ops), ops) - targets
        return _pack(res, coords), float(np.max(np.abs(res)))

    packed, res_inf = residual_of(x)
    best = res_inf
    fd_step = 1e-6

    for _ in range(max_iter):
        if res_inf <= tol:
            return _unpack(x, coords, ops.pairing, len(ops))
        if np.max(np.abs(x)) > multiplier_bound:
            raise InfeasibleTargetsError(
                f"multipliers exceeded {multiplier_bound} with residual {res_inf:.3e}; "
                "targets look infeasible (boundary or exterior of the moment region)"
            )

        jac = np.empty((len(coords), len(coords)))
        for j in range(len(coords)):
            bump = np.zeros(len(coords))
            bump[j] = fd_step
            r_plus, _ = residual_of(x + bump)
            r_minus, _ = residual_of(x - bump)
            jac[:, j] = (r_plus - r_minus) / (2.0 * fd_step)

        try:
            step = np.linalg.solve(jac, -packed)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -packed, rcond=None)[0]

        norm0 = np.linalg.norm(packed)
        damping = 1.0
        while damping >= 2.0**-30:
            trial_packed, trial_inf = residual_of(x + damping * step)
            if np.linalg.norm(trial_packed) <= (1.0 - 1e-4 * damping) * norm0:
                break
            damping *= 0.5
        x = x + damping * step
        packed, res_inf = trial_packed, trial_inf
        best = min(best, res_inf)

    if res_inf <= tol:
        return _unpack(x, coords, ops.pairing, len(ops))
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
