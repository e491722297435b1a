"""The exact moment Jacobian and the Newton solve built on it."""

import numpy as np
import pytest

from releq import maxent
from test_maxent import random_multipliers, random_operator_set

OPERATOR_SETS = {
    "spin": lambda rng: maxent.spin_operator_set(),
    "fock-8": lambda rng: maxent.fock_operator_set(8),
    "explicit": random_operator_set,
}


def admissible_directions(ops):
    """Unit changes of F that keep the pairing: e_m for a Hermitian P_m,
    and e_m + e_m', i (e_m - e_m') for an adjoint pair."""
    eye = np.eye(len(ops), dtype=complex)
    directions = []
    for m, m_adj in enumerate(ops.pairing):
        if m == m_adj:
            directions.append(eye[m])
        elif m < m_adj:
            directions += [eye[m] + eye[m_adj], 1j * (eye[m] - eye[m_adj])]
    return directions


@pytest.mark.parametrize("kind", list(OPERATOR_SETS))
def test_jacobian_matches_central_differences(rng, kind):
    h = 1e-5
    for _ in range(3):
        ops = OPERATOR_SETS[kind](rng)
        F = random_multipliers(rng, ops)
        jacobian = maxent.moment_jacobian(maxent.build_state(F, ops), ops)
        for d in admissible_directions(ops):
            up = maxent.moments(maxent.build_state(F + h * d, ops), ops)
            down = maxent.moments(maxent.build_state(F - h * d, ops), ops)
            assert np.max(np.abs((up - down) / (2 * h) - jacobian @ d)) <= 1e-6


@pytest.mark.parametrize("kind", list(OPERATOR_SETS))
@pytest.mark.parametrize("size", [0.0, 1e-13])
def test_jacobian_at_equal_levels(rng, kind, size):
    # At F = 0 every level is equal and the derivative is minus the plain
    # covariance Tr(P_m P_n)/d - Tr(P_m) Tr(P_n)/d**2; 1e-13 away, a
    # difference quotient of the weights would lose about half its digits.
    ops = OPERATOR_SETS[kind](rng)
    F = size * random_multipliers(rng, ops)
    jacobian = maxent.moment_jacobian(maxent.build_state(F, ops), ops)
    d = ops.dim
    traces = np.array([np.trace(op) for op in ops.operators]) / d
    pairs = np.array([[np.trace(p @ q) for q in ops.operators] for p in ops.operators]) / d
    expected = np.outer(traces, traces) - pairs
    assert np.max(np.abs(jacobian - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_fock_256_solve_costs_at_most_12_eigendecompositions(monkeypatch):
    ops = maxent.fock_operator_set(256)
    targets = np.array([0.2566560186502818 + 0.40218191069958376j, 1.0224499203400177, 0.2566560186502818 - 0.40218191069958376j])
    build_state = maxent.build_state
    calls = []

    def counting_build_state(F, ops):
        calls.append(F)
        return build_state(F, ops)

    monkeypatch.setattr(maxent, "build_state", counting_build_state)
    F = maxent.solve_self_consistency(targets, ops)
    assert len(calls) <= 12
    residual = maxent.moments(build_state(F, ops), ops) - targets
    assert np.max(np.abs(residual)) <= 1e-10
