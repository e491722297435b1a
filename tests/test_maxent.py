import math

import numpy as np
import pytest

from oracles import binary_entropy, project_moment_neutral
from releq import maxent
from releq.maxent import (
    DensityMatrixError,
    InfeasibleTargetsError,
    NonConvergenceError,
    PairingError,
    RelevantOperatorSet,
    TruncationError,
    build_state,
    check_fock_tail,
    entropy,
    fock_operator_set,
    fock_tail_mass,
    moments,
    solve_self_consistency,
    spin_operator_set,
    validate_multipliers,
    von_neumann,
)


def random_operator_set(rng, dim=4) -> RelevantOperatorSet:
    """One Hermitian operator plus one adjoint pair, all random."""
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return RelevantOperatorSet((g, h, g.conj().T), (2, 1, 0))


def random_multipliers(rng, ops) -> np.ndarray:
    F = np.zeros(len(ops), dtype=complex)
    for m, m_adj in enumerate(ops.pairing):
        if m_adj == m:
            F[m] = rng.uniform(-0.8, 0.8)
        elif m < m_adj:
            F[m] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            F[m_adj] = F[m].conjugate()
    return F


class TestOperatorSetValidation:
    def test_non_involution_pairing_rejected(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="permutation|involution"):
            RelevantOperatorSet((eye, eye, eye), (1, 2, 0))

    def test_non_adjoint_pair_rejected(self):
        up = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="adjoint"):
            RelevantOperatorSet((up, up), (1, 0))

    def test_non_hermitian_self_paired_rejected(self):
        up = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            RelevantOperatorSet((up,), (0,))

    def test_multiplier_pairing_enforced(self):
        ops = spin_operator_set()
        with pytest.raises(PairingError):
            validate_multipliers([0.1 + 0.2j, 0.5, 0.1 + 0.2j], ops)
        validate_multipliers([0.1 + 0.2j, 0.5, 0.1 - 0.2j], ops)

    def test_self_paired_multiplier_must_be_real(self):
        ops = spin_operator_set()
        with pytest.raises(PairingError):
            validate_multipliers([0.0, 0.5 + 1e-6j, 0.0], ops)

    def test_pairing_tolerances_and_messages(self):
        # Multipliers are held to 1e-14, targets to 1e-12 (both relative to
        # max(1, max |value|)); each check first counts the values.
        ops = spin_operator_set()
        with pytest.raises(PairingError, match="multipliers 1 and 1 are not conjugate within 1e-14"):
            validate_multipliers([0.0, 0.5 + 1e-13j, 0.0], ops)
        maxent._pairing_consistent_targets([0.0, 0.3 + 1e-13j, 0.0], ops)
        with pytest.raises(PairingError, match="targets 1 and 1 are not conjugate; the moment map"):
            maxent._pairing_consistent_targets([0.0, 0.3 + 1e-11j, 0.0], ops)
        with pytest.raises(ValueError, match="expected 3 multipliers, got 2"):
            validate_multipliers([0.0, 0.5], ops)
        with pytest.raises(ValueError, match="expected 3 targets, got 2"):
            maxent._pairing_consistent_targets([0.0, 0.3], ops)


class TestBuildState:
    def test_zero_multipliers_give_maximally_mixed(self):
        ops = random_operator_set(np.random.default_rng(1))
        state = build_state(np.zeros(3), ops)
        assert state.phi == pytest.approx(math.log(ops.dim), rel=1e-14)
        assert np.allclose(state.rho, np.eye(ops.dim) / ops.dim, atol=1e-14)

    def test_two_level_gibbs_arithmetic(self):
        ops = spin_operator_set()
        state = build_state([0.0, -2.0 * math.log(2.0), 0.0], ops)
        assert state.phi == pytest.approx(math.log(2.5), rel=1e-14)
        assert moments(state, ops)[1].real == pytest.approx(0.3, abs=1e-14)

    def test_density_matrix_invariants_on_random_states(self, rng):
        for _ in range(5):
            ops = random_operator_set(rng)
            state = build_state(random_multipliers(rng, ops), ops)
            assert abs(np.trace(state.rho) - 1.0) < 1e-12
            assert np.max(np.abs(state.rho - state.rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(state.rho).min() > -1e-12

    def test_oscillator_multiplier_round_trip_in_truncation(self):
        # Displaced thermal state with <a> = 1, <n> = 9 (so n_eff = 8).
        f2 = math.log(9.0 / 8.0)
        ops = fock_operator_set(256)
        state = build_state([-f2, f2, -f2], ops)
        mom = moments(state, ops)
        assert abs(mom[2] - 1.0) < 1e-8
        assert abs(mom[1] - 9.0) < 1e-8
        check_fock_tail(state.rho)

    def test_huge_eigenvalue_spread_does_not_overflow(self):
        ops = fock_operator_set(64)
        state = build_state([0.0, 40.0, 0.0], ops)
        assert np.isfinite(state.phi)
        assert state.rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


class TestMoments:
    def test_maximally_mixed_moments(self, rng):
        ops = random_operator_set(rng)
        state = build_state(np.zeros(3), ops)
        expected = np.array([np.trace(op) / ops.dim for op in ops.operators])
        assert np.allclose(moments(state, ops), expected, atol=1e-13)

    def test_moments_are_negative_phi_gradient(self, rng):
        ops = random_operator_set(rng)
        F = random_multipliers(rng, ops)
        mom = moments(build_state(F, ops), ops)
        h = 1e-5

        def phi(F_vec):
            return build_state(F_vec, ops).phi

        bump = np.zeros(3)
        # Self-paired coordinate.
        up, down = F.copy(), F.copy()
        up[1] += h
        down[1] -= h
        assert (phi(up) - phi(down)) / (2 * h) == pytest.approx(-mom[1].real, abs=1e-6)
        # Real part of the paired coordinate.
        up, down = F.copy(), F.copy()
        up[0] += h
        up[2] += h
        down[0] -= h
        down[2] -= h
        assert (phi(up) - phi(down)) / (2 * h) == pytest.approx(-2 * mom[0].real, abs=1e-6)
        # Imaginary part of the paired coordinate.
        up, down = F.copy(), F.copy()
        up[0] += 1j * h
        up[2] -= 1j * h
        down[0] -= 1j * h
        down[2] += 1j * h
        assert (phi(up) - phi(down)) / (2 * h) == pytest.approx(2 * mom[0].imag, abs=1e-6)


class TestSolveSelfConsistency:
    def test_maximally_mixed_fixed_point(self, rng):
        ops = random_operator_set(rng)
        targets = np.array([np.trace(op) / ops.dim for op in ops.operators])
        F = solve_self_consistency(targets, ops)
        assert np.max(np.abs(F)) < 1e-8

    def test_two_level_inversion(self):
        ops = spin_operator_set()
        F = solve_self_consistency([0.0, 0.3, 0.0], ops)
        assert F[1].real == pytest.approx(-2.0 * math.log(2.0), abs=1e-9)
        assert abs(F[0]) < 1e-9 and abs(F[2]) < 1e-9

    def test_round_trip_on_random_multipliers(self, rng):
        for _ in range(5):
            ops = random_operator_set(rng)
            F_true = random_multipliers(rng, ops)
            targets = moments(build_state(F_true, ops), ops)
            F_found = solve_self_consistency(targets, ops)
            assert np.max(np.abs(F_found - F_true)) < 1e-6

    def test_residual_post_condition(self, rng):
        ops = random_operator_set(rng)
        targets = moments(build_state(random_multipliers(rng, ops), ops), ops)
        F = solve_self_consistency(targets, ops)
        residual = moments(build_state(F, ops), ops) - targets
        assert np.max(np.abs(residual)) <= 1e-10

    def test_pure_state_target_is_infeasible(self):
        ops = spin_operator_set()
        with pytest.raises(InfeasibleTargetsError):
            solve_self_consistency([0.0, 0.5, 0.0], ops)

    def test_start_beyond_the_bound_is_infeasible_even_at_the_solution(self):
        # exact multipliers of a state 1e-10 inside the boundary: F2 = -2 arctanh(2 sz),
        # about -23.7, which meets tol at once but lies beyond the default bound of 20
        ops = spin_operator_set()
        sz = 0.4999999999
        with pytest.raises(InfeasibleTargetsError):
            solve_self_consistency([0.0, sz, 0.0], ops, initial_F=[0.0, -2.0 * math.atanh(2.0 * sz), 0.0])

    def test_pairing_violating_targets_rejected(self):
        ops = spin_operator_set()
        with pytest.raises(PairingError):
            solve_self_consistency([0.1 + 0.1j, 0.2, 0.3], ops)

    def test_non_convergence_carries_best_residual(self):
        ops = spin_operator_set()
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_self_consistency([0.0, 0.3, 0.0], ops, max_iter=1, tol=1e-14)
        assert 0.0 <= excinfo.value.best_residual < 0.3


class TestEntropy:
    def test_maximally_mixed(self):
        ops = spin_operator_set()
        state = build_state(np.zeros(3), ops)
        assert entropy(state, moments(state, ops)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_two_level_binary_entropy(self):
        ops = spin_operator_set()
        state = build_state([0.0, -2.0 * math.log(2.0), 0.0], ops)
        expected = binary_entropy(0.8)
        assert entropy(state, moments(state, ops)) == pytest.approx(expected, abs=1e-12)

    def test_equals_von_neumann_on_random_states(self, rng):
        for _ in range(5):
            ops = random_operator_set(rng)
            state = build_state(random_multipliers(rng, ops), ops)
            assert entropy(state, moments(state, ops)) == pytest.approx(
                von_neumann(state.rho), abs=1e-10
            )

    def test_imaginary_residue_raises(self):
        ops = spin_operator_set()
        state = build_state([0.0, -2.0 * math.log(2.0), 0.0], ops)
        with pytest.raises(PairingError):
            entropy(state, [0.0, 0.3 + 0.1j, 0.0])


class TestVonNeumann:
    def test_pure_state(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        assert von_neumann(rho) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann(np.eye(5) / 5.0) == pytest.approx(math.log(5.0), rel=1e-14)

    def test_diagonal_example(self):
        assert von_neumann(np.diag([0.8, 0.2])) == pytest.approx(
            binary_entropy(0.8), abs=1e-14
        )

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DensityMatrixError, match="negative"):
            von_neumann(np.diag([1.1, -0.1]))

    def test_bad_trace_rejected(self):
        with pytest.raises(DensityMatrixError, match="trace"):
            von_neumann(np.diag([0.6, 0.6]))

    def test_non_hermitian_rejected(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(DensityMatrixError, match="Hermitian"):
            von_neumann(rho)


class TestMaximumEntropyOptimality:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_constrained_perturbations_lower_entropy(self, rng, dim):
        ops = random_operator_set(rng, dim=dim)
        state = build_state(random_multipliers(rng, ops), ops)
        base_entropy = von_neumann(state.rho)
        lowest_eig = np.linalg.eigvalsh(state.rho).min()
        for _ in range(100):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            delta = project_moment_neutral(raw, ops.operators)
            norm = np.linalg.norm(delta, 2)
            if norm < 1e-12:
                continue
            perturbed = state.rho + (0.45 * lowest_eig / norm) * delta
            # The perturbation leaves trace and moments unchanged.
            assert abs(np.trace(perturbed) - 1.0) < 1e-10
            for op in ops.operators:
                assert abs(np.einsum("ij,ji->", op, perturbed - state.rho)) < 1e-10
            assert base_entropy >= von_neumann(perturbed) - 1e-9


class TestOperatorBuilders:
    def test_ladder_algebra(self):
        dim = 6
        ad, n, a = fock_operator_set(dim).operators
        assert np.allclose(ad @ a, n)
        commutator = a @ ad - ad @ a
        # Canonical except in the top truncated level.
        assert np.allclose(commutator[: dim - 1, : dim - 1], np.eye(dim - 1))

    def test_spin_set_conventions(self):
        ops = spin_operator_set()
        up, sz, down = ops.operators
        assert np.allclose(sz, np.diag([0.5, -0.5]))
        assert np.allclose(up @ down - down @ up, 2.0 * sz)

    def test_tail_check_flags_undersized_truncation(self):
        f2 = math.log1p(1.0 / 8.0)
        state = build_state([0.0, f2, 0.0], fock_operator_set(32))
        assert fock_tail_mass(state.rho) > 1e-10
        with pytest.raises(TruncationError):
            check_fock_tail(state.rho)

    def test_tail_check_passes_for_adequate_truncation(self):
        f2 = math.log1p(1.0 / 8.0)
        state = build_state([0.0, f2, 0.0], fock_operator_set(256))
        check_fock_tail(state.rho)
