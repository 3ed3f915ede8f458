"""Gaussian states of light in band-limited environments.

Covariance-matrix propagation through the non-Markovian noise channel of a
rectangular spectral band, with master-equation coefficients on closed-form
and quadrature routes, entanglement negativity, and sudden-death detection.
"""

from .coefficients import (METHOD_CLOSED, METHOD_QUADRATURE, CoefficientTrace,
                           EnvironmentParams, build_trace)
from .dynamics import (TwbSpec, TwoModeGaussianState, evolve_covariances,
                       make_twb)
from .entanglement import (kappa_full_curve, kappa_secular, negativity,
                           nu_min_pt, state_kappa_curve, sudden_death_time)
from .errors import DomainError, NumericError, UsageError
from .spectral import SpectralDensity

__version__ = "0.1.0"

# the reference algorithms of ``verify``, loaded on first use: no data
# command reads them
_ORACLE_NAMES = ("OracleReport", "propagate_w_matrix", "run_verification")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# what the quickstart and the acceptance gate reach (tests/test_readme.py)
__all__ = [
    "METHOD_CLOSED", "METHOD_QUADRATURE", "CoefficientTrace",
    "EnvironmentParams", "build_trace",
    "TwbSpec", "TwoModeGaussianState", "evolve_covariances", "make_twb",
    "kappa_full_curve", "kappa_secular", "negativity", "nu_min_pt",
    "state_kappa_curve", "sudden_death_time",
    "DomainError", "NumericError", "UsageError",
    "OracleReport", "propagate_w_matrix", "run_verification",
    "SpectralDensity",
    "__version__",
]
