"""The band path of tridiagonal operator sets against dense complex arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import dense_maxent_state, dense_moment_jacobian
from releq import maxent
from releq.maxent import InfeasibleTargetsError, MaxEntError, RelevantOperatorSet


def dense_build_state(F, ops: RelevantOperatorSet) -> maxent.RelevantState:
    """``build_state`` by the dense complex oracle, for any exponent."""
    F = maxent.validate_multipliers(F, ops)
    rho, phi, exponent = dense_maxent_state(F, ops.operators)
    levels, vectors = np.linalg.eigh(exponent)
    return maxent.RelevantState(F.copy(), phi, rho, levels, vectors)


def recorded_eigh_dtypes(monkeypatch) -> list:
    """Wrap ``np.linalg.eigh``; the list fills with the dtype of every matrix
    it is given."""
    eigh, dtypes = np.linalg.eigh, []

    def recording_eigh(matrix):
        dtypes.append(matrix.dtype)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return dtypes


def thermal_fock(dim: int, n_eff: float = 2.0, mean_a: complex = 0.6 - 0.3j):
    f2 = math.log1p(1.0 / n_eff)
    f1 = -f2 * mean_a
    return maxent.fock_operator_set(dim), np.array([f1, f2, f1.conjugate()])


def explicit_tridiagonal(dim: int = 5):
    """A Hermitian tridiagonal operator and an adjoint pair of tridiagonal
    operators, all with complex entries."""
    rng = np.random.default_rng(7)
    h = np.diag(rng.normal(size=dim)).astype(complex)
    off = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    h += np.diag(off, 1) + np.diag(off.conj(), -1)
    g = sum(
        np.diag(rng.normal(size=dim - abs(k)) + 1j * rng.normal(size=dim - abs(k)), k) for k in (-1, 0, 1)
    )
    ops = RelevantOperatorSet((g, h, g.conj().T), (2, 1, 0))
    return ops, np.array([0.3 - 0.2j, -0.4, 0.3 + 0.2j])


def squared_ladder(dim: int = 6) -> RelevantOperatorSet:
    """(a'^2, n, a^2): a^2 is zero off its second superdiagonal."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return RelevantOperatorSet((a.T @ a.T, np.diag(np.arange(dim, dtype=float)), a @ a), (2, 1, 0))


CASES = {
    "fock-2": lambda: thermal_fock(2),
    "fock-3": lambda: thermal_fock(3),
    "fock-32": lambda: thermal_fock(32),
    "fock-256": lambda: thermal_fock(256),
    "spin": lambda: (maxent.spin_operator_set(), np.array([0.3 + 0.4j, -0.7, 0.3 - 0.4j])),
    "zero-superdiagonal": lambda: (maxent.fock_operator_set(32), np.array([0.0, 0.5, 0.0])),
    "explicit": explicit_tridiagonal,
}


@pytest.mark.parametrize("case", list(CASES))
def test_band_state_matches_the_dense_state(monkeypatch, case):
    ops, F = CASES[case]()
    assert ops.bands is not None
    dtypes = recorded_eigh_dtypes(monkeypatch)
    state = maxent.build_state(F, ops)
    assert dtypes == [np.float64]
    rho, phi, exponent = dense_maxent_state(F, ops.operators)
    assert np.max(np.abs(state.rho - rho)) <= 1e-13
    assert abs(state.phi - phi) <= 1e-13 * max(1.0, abs(phi))
    expected = np.array([np.einsum("ij,ji->", op, rho) for op in ops.operators])
    assert np.max(np.abs(maxent.moments(state, ops) - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))
    # ``vectors`` are unit eigenvectors of the complex exponent.
    vectors = state.vectors
    assert vectors.dtype == complex
    scale = max(1.0, np.linalg.norm(exponent, 2))
    assert np.max(np.abs(exponent @ vectors - vectors * state.levels)) <= 1e-13 * scale
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(ops.dim))) <= 1e-13


@pytest.mark.parametrize("case", list(CASES))
def test_band_and_dense_solves_agree(monkeypatch, case):
    ops, F = CASES[case]()
    rho, _, _ = dense_maxent_state(F, ops.operators)
    targets = np.array([np.einsum("ij,ji->", op, rho) for op in ops.operators])
    solved = maxent.solve_self_consistency(targets, ops)
    monkeypatch.setattr(maxent, "build_state", dense_build_state)
    dense_solved = maxent.solve_self_consistency(targets, ops)
    assert np.max(np.abs(solved - dense_solved)) <= 1e-12


def test_a_set_that_is_not_tridiagonal_solves_on_the_dense_path(monkeypatch):
    ops = squared_ladder()
    assert ops.bands is None
    F_true = np.array([0.1 - 0.05j, 0.6, 0.1 + 0.05j])
    rho, phi, _ = dense_maxent_state(F_true, ops.operators)
    targets = np.array([np.einsum("ij,ji->", op, rho) for op in ops.operators])
    state = maxent.build_state(F_true, ops)
    assert np.max(np.abs(state.rho - rho)) <= 1e-13
    assert state.phi == pytest.approx(phi, abs=1e-13)
    assert np.max(np.abs(maxent.solve_self_consistency(targets, ops) - F_true)) <= 1e-9


def test_bands_are_kept_only_for_tridiagonal_sets():
    ops = maxent.fock_operator_set(4)
    main, upper, lower = ops.bands
    assert main.shape == (3, 4) and upper.shape == lower.shape == (3, 3)
    assert np.array_equal(upper[2], np.sqrt([1.0, 2.0, 3.0]))  # a
    assert np.array_equal(lower[0], np.sqrt([1.0, 2.0, 3.0]))  # a'
    assert np.array_equal(main[1], np.arange(4.0))  # n
    assert maxent.spin_operator_set().bands is not None
    assert squared_ladder().bands is None


@pytest.mark.parametrize("value", [1e308, math.nan], ids=["overflow", "nan"])
@pytest.mark.parametrize("path", ["bands", "dense"])
def test_an_exponent_that_is_not_finite_raises_before_any_eigh(monkeypatch, path, value):
    ops = maxent.fock_operator_set(16) if path == "bands" else squared_ladder()

    def no_eigh(matrix):
        raise AssertionError("eigh called on a matrix that is not finite")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(MaxEntError, match="exponent .* is not finite"), np.errstate(all="ignore"):
        maxent.build_state([value, value, value], ops)


def test_a_start_beyond_the_bound_is_refused_before_its_state_is_built(monkeypatch):
    calls = []
    monkeypatch.setattr(maxent, "build_state", lambda F, ops: calls.append(F))
    with pytest.raises(InfeasibleTargetsError, match="the start multipliers exceed 20.0 in magnitude; targets look infeasible"):
        maxent.solve_self_consistency(
            [0.1, 1.0, 0.1], maxent.fock_operator_set(16), initial_F=[1e308, 1e308, 1e308]
        )
    assert calls == []


def test_the_dense_operators_of_band_sets_are_formed_on_request():
    for dim in (2, 3, 17):
        ops = maxent.fock_operator_set(dim)
        ladder = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        expected = (ladder.T, np.diag(np.arange(dim, dtype=float)), ladder)
        assert all(op.dtype == complex and np.array_equal(op, want) for op, want in zip(ops.operators, expected))
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    spin = (raising, np.diag([0.5, -0.5]).astype(complex), raising.T)
    assert all(np.array_equal(op, want) for op, want in zip(maxent.spin_operator_set().operators, spin))


def test_a_fock_set_of_one_level_is_refused():
    with pytest.raises(ValueError, match="operator dimension must be >= 2, got 1"):
        maxent.fock_operator_set(1)


def test_a_fock_1024_set_holds_its_bands_only():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops = maxent.fock_operator_set(1024)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ops.dim == 1024 and held < 100_000


def test_a_fock_solve_forms_no_dense_operator(monkeypatch):
    def no_operators(self):
        raise AssertionError("dense operators formed")

    monkeypatch.setattr(RelevantOperatorSet, "operators", property(no_operators))
    ops, F = thermal_fock(64, n_eff=3.0)
    targets = maxent.moments(maxent.build_state(F, ops), ops)
    assert np.max(np.abs(maxent.solve_self_consistency(targets, ops) - F)) <= 1e-9


def test_band_pairing_is_checked_on_the_bands():
    main = [[0.0, 0.0], [0.5, -0.5], [0.0, 0.0]]
    with pytest.raises(ValueError, match="operator 0 is not the adjoint of its partner"):
        RelevantOperatorSet.from_bands(main, [[1.0], [0.0], [1.0]], [[0.0], [0.0], [0.0]], (2, 1, 0))
    with pytest.raises(ValueError, match="operator 1 is not Hermitian"):
        RelevantOperatorSet.from_bands([[0.0, 0.0], [0.5j, 0.0], [0.0, 0.0]], [[1.0], [0.0], [0.0]], [[0.0], [0.0], [1.0]], (2, 1, 0))
    with pytest.raises(ValueError, match="equal dimension"):
        RelevantOperatorSet.from_bands(main, [[1.0], [0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], (2, 1, 0))


def random_admissible(rng) -> np.ndarray:
    """Multipliers (F1, F2, conj(F1)) with F2 in [0.2, 2] and |F1| below 0.71."""
    f1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    return np.array([f1, rng.uniform(0.2, 2.0), f1.conjugate()])


def random_tridiagonal(rng, dim: int) -> RelevantOperatorSet:
    """A random Hermitian tridiagonal operator and a random tridiagonal
    adjoint pair, from their bands."""
    g_main = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    g_upper, g_lower, h_upper = rng.normal(size=(3, dim - 1)) + 1j * rng.normal(size=(3, dim - 1))
    return RelevantOperatorSet.from_bands(
        [g_main, rng.normal(size=dim), g_main.conj()],
        [g_upper, h_upper, g_lower.conj()],
        [g_lower, h_upper.conj(), g_upper.conj()],
        (2, 1, 0),
    )


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 33, 64])
@pytest.mark.parametrize("kind", ["fock", "tridiagonal"])
def test_band_jacobian_matches_the_dense_formula(rng, kind, dim):
    ops = maxent.fock_operator_set(dim) if kind == "fock" else random_tridiagonal(rng, dim)
    for F in [np.zeros(3)] + [random_admissible(rng) for _ in range(3)]:
        state = maxent.build_state(F, ops)
        assert state.real_vectors is not None
        expected = dense_moment_jacobian(F, ops.operators)
        jacobian = maxent.moment_jacobian(state, ops)
        assert np.max(np.abs(jacobian - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))
