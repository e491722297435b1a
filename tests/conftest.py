import numpy as np
import pytest

from releq import bath, transport
from releq.bath import BathParams


@pytest.fixture(scope="session")
def fig_bath() -> BathParams:
    """Bath parameters used by the headline oscillator and tls scenarios."""
    return BathParams(W=10.0, beta=3.0, omega0=1.0)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def cold_step_maps():
    """Every test starts with no memoized step maps, so that a count of
    kernel points or a monkeypatched kernel stream sees the run's own work."""
    transport._STEP_MAPS.clear()


@pytest.fixture
def kernel_points(monkeypatch) -> list:
    """``[n]``, n counting the points at which the test evaluates the
    kernels' derivatives, by wrapping ``bath._kernel_derivatives``."""
    counted = [0]
    derivatives = bath._kernel_derivatives

    def counting(t, params):
        counted[0] += np.size(t)
        return derivatives(t, params)

    monkeypatch.setattr(bath, "_kernel_derivatives", counting)
    return counted
