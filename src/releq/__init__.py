"""Transport, entropy, and temperature of small open quantum systems.

The package solves second-order time-local transport equations for a
damped harmonic oscillator and a resonantly driven two-level system coupled
to an Ohmic bath with exponential cutoff, inverts the maximum-entropy
self-consistency conditions behind those equations, and derives
non-Markovian entropy and inverse-temperature time series from the
solutions.  A generic finite-dimensional maximum-entropy engine and the
special-function and quadrature kernels it rests on are part of the public
API.
"""

__version__ = "0.1.0"

from .bath import (
    BathParams,
    MarkovianLimits,
    corr_f,
    corr_f_beta,
    markovian_limits,
    spectral_density,
)
from .maxent import (
    RelevantOperatorSet,
    RelevantState,
    build_state,
    moments,
    solve_self_consistency,
    von_neumann,
)
from .oscillator import OscillatorState
from .specfun import arctanh_ratio, trigamma
from .tls import TlsParams, TlsState

__all__ = [
    "__version__",
    "BathParams",
    "MarkovianLimits",
    "OscillatorState",
    "RelevantOperatorSet",
    "RelevantState",
    "TlsParams",
    "TlsState",
    "arctanh_ratio",
    "build_state",
    "corr_f",
    "corr_f_beta",
    "markovian_limits",
    "moments",
    "solve_self_consistency",
    "spectral_density",
    "trigamma",
    "von_neumann",
]
